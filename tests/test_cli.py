import json
import math
import os
import random
import re

import pytest

from difflat import cli, systems
from difflat.analysis import verification_trajectory
from difflat.cli import main
from difflat.expr import EvalError
from difflat.numeric import ResidualReport, verify_parameterization
from difflat.sysfile import SystemFileError, loads_system


@pytest.fixture(scope="module")
def paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("sys")
    out = {}
    for name in systems.names():
        p = root / f"{name}.sys"
        p.write_text(systems.source(name), encoding="utf-8")
        out[name] = str(p)
    return out


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_analyze_vtol(paths, capsys):
    rc, out, _ = run(capsys, "analyze", paths["vtol"], "--json")
    assert rc == 0
    j = json.loads(out)
    assert j["classification"] == "forward_flat"
    assert j["d"] == 2 and j["R2"] == [4, 4] and j["R1"] == [0, 0]
    assert j["schema"] == "1"


def test_analyze_robot(paths, capsys):
    rc, out, _ = run(capsys, "analyze", paths["robot"], "--json")
    assert rc == 0
    j = json.loads(out)
    assert j["d1"] == 1 and j["d2"] == 1
    assert j["classification"] == "general"


def test_analyze_is_deterministic(paths, capsys):
    rc1, out1, _ = run(capsys, "analyze", paths["academic"], "--json", "--seed", "5")
    rc2, out2, _ = run(capsys, "analyze", paths["academic"], "--json", "--seed", "5")
    assert rc1 == rc2 == 0
    assert out1 == out2


def test_analyze_input_error_exit_code(paths, tmp_path, capsys):
    bad = tmp_path / "bad.sys"
    bad.write_text(systems.source("robot").replace("x3+ = x3 + u2\n", ""),
                   encoding="utf-8")
    rc, _, err = run(capsys, "analyze", str(bad))
    assert rc == 1
    assert "dynamics" in err


def test_a_psi_row_over_an_input_is_an_input_error(tmp_path, capsys):
    """A declared psi may read only the states and the g-value histories:
    robot's psi with the row x1 = u1 fails as an input error that names
    the leaf, not as a traceback."""
    bad = tmp_path / "robot_psi.sys"
    bad.write_text(systems.source("robot").replace(
        "[extension]\ng1 = x3\ng2 = x1\n",
        "[extension]\ng1 = x3\ng2 = x1\n\n[inverse]\nx1 = u1\nx2 = x2\n"
        "x3 = zeta1[-1]\nu1 = x1\nu2 = x3 - zeta1[-1]\n"), encoding="utf-8")
    rc, out, err = run(capsys, "analyze", str(bad))
    assert (rc, out) == (1, "")
    assert err == ("input error: psi does not evaluate at the analysis point: "
                   "unbound leaf u1\n")


# vtol with its states relabeled x1..x6 -> x6, x1, x5, x4, x3, x2 and its
# outputs swapped: the verification trajectory starts on the singular locus
# of the first admissible tower's input transform (cos(x3) = 0), where
# Newton inversion fails, so the tower search passes over that tower
VTOL_RELABELED_SWAPPED = """
[params]
T_s = 1/10
eps = 1/5
g_grav = 981/100

[dims]
n = 6
m = 2

[dynamics]
x1+ = x1 + T_s*x4
x2+ = x2 + T_s*u2
x3+ = x3 + T_s*x2
x4+ = x4 + T_s*cos(x3)*(u1 - eps*x2^2) - g_grav*T_s
x5+ = x5 + T_s*sin(x3)*(eps*x2^2 - u1)
x6+ = x6 + T_s*x5

[extension]
g1 = x6
g2 = x3

[output]
y1 = x1
y2 = x6

[equilibrium]
x3 = pi/2
u1 = g_grav

[simulation]
u1 = g_grav - 1/2 .. g_grav + 1/2
u2 = -1/4 .. 1/4
"""


def test_failed_trajectory_verification_is_a_typed_error(paths, capsys):
    # vtol's residuals are near 1e-9, far above this tolerance
    rc, _, err = run(capsys, "analyze", paths["vtol"], "--tol-verify", "1e-15")
    assert rc == 1
    assert ("analysis error: parameterization failed trajectory "
            "verification: max residual") in err
    assert "Traceback" not in err


def test_float_overflow_in_simulation_is_an_input_error(tmp_path, capsys):
    """A verification trajectory whose state overflows a float (x3 squares
    itself past 1e308 by step 7) rejects each tower with a typed simulation
    error, and the CLI exits with its input-error code, no traceback."""
    path = tmp_path / "overflow.sys"
    path.write_text("""
[dims]
n = 3
m = 2

[dynamics]
x1+ = x2
x2+ = u1
x3+ = x3^2 + u2

[extension]
g1 = x1
g2 = x3

[output]
y1 = x1
y2 = x3

[equilibrium]
x3 = 1/2

[simulation]
u2 = 100 .. 200
""", encoding="utf-8")
    rc, _, err = run(capsys, "analyze", str(path))
    assert rc == 1
    assert ("verification trajectory: evaluation failed at step k=7: float "
            "error: ") in err
    assert "Traceback" not in err


def test_extend_academic(paths, tmp_path, capsys):
    out_file = tmp_path / "academic_ext.sys"
    rc, out, _ = run(capsys, "extend", paths["academic"], "--json",
                     "--out", str(out_file))
    assert rc == 0
    j = json.loads(out)
    assert j["dimension"] == 7
    assert j["certificate"]["rank"] == 9 == j["certificate"]["required"]
    assert j["roundtrip"] == "ok"
    text = out_file.read_text(encoding="utf-8")
    reparsed = loads_system(text)
    assert reparsed.model.n == 7
    # the emitted file re-parses and re-prints identically
    from difflat.sysfile import print_system
    header = text.splitlines()[0].lstrip("# ")
    assert print_system(reparsed, header=header) == text


def test_extend_vtol_and_robot(paths, tmp_path, capsys):
    for name, dim, rank in (("vtol", 8, 10), ("robot", 5, 7)):
        out_file = tmp_path / f"{name}_ext.sys"
        rc, out, _ = run(capsys, "extend", paths[name], "--json",
                         "--out", str(out_file))
        assert rc == 0
        j = json.loads(out)
        assert j["dimension"] == dim
        assert j["certificate"]["rank"] == rank == j["certificate"]["required"]


def test_verify_robot(paths, capsys):
    rc, out, _ = run(capsys, "verify", paths["robot"], "--json",
                     "--steps", "30", "--trials", "5", "--seed", "7")
    assert rc == 0
    j = json.loads(out)
    assert j["pass"] is True
    assert max(j["max_residual_x"], j["max_residual_u"]) <= 1e-8


def _crafted_trials(monkeypatch, trials):
    """Make `difflat verify` get the report of each of `trials`, (worst_k,
    residual in x, residual in u) in order, from its trajectories."""
    reports = iter([ResidualReport(rx, ru, k, 1e-8) for k, rx, ru in trials])
    monkeypatch.setattr(cli, "verify_parameterization",
                        lambda *args, **kwargs: next(reports))


def test_verify_folds_each_residual_over_every_trial(paths, capsys, monkeypatch):
    """`verify` reports the largest x residual of any trial and the largest
    u residual of any trial, though they come from different trials, and
    the k of the trial with the first largest of both."""
    _crafted_trials(monkeypatch, [(4, 3e-13, 1e-13), (7, 1e-13, 5e-13),
                                  (9, 2e-13, 5e-13)])
    rc, out, _ = run(capsys, "verify", paths["robot"], "--json", "--trials", "3")
    assert rc == 0
    j = json.loads(out)
    assert (j["max_residual_x"], j["max_residual_u"]) == (3e-13, 5e-13)
    assert (j["worst_k"], j["trials"], j["pass"]) == (7, 3, True)


def test_verify_fails_on_a_nan_trial_and_names_its_k(paths, capsys, monkeypatch):
    _crafted_trials(monkeypatch, [(4, 3e-13, 1e-13), (6, math.nan, 1e-13),
                                  (7, 1e-13, 5e-13)])
    rc, out, _ = run(capsys, "verify", paths["robot"], "--json", "--trials", "3")
    assert rc == 4
    j = json.loads(out)
    assert math.isnan(j["max_residual_x"]) and j["max_residual_u"] == 5e-13
    assert (j["worst_k"], j["pass"]) == (6, False)


def test_verify_robot_reports_the_maximum_over_its_trials(paths, reports,
                                                          robot, capsys):
    """Robot with the default seed and 5 trials: the maxima and worst k of
    the five trials drawn through `verification_trajectory`, whose x and u
    maxima lie in different trials."""
    rc, out, _ = run(capsys, "verify", paths["robot"], "--json", "--trials", "5")
    assert rc == 0
    rep, rng = reports["robot"], random.Random(2023)
    trials = [verify_parameterization(
        rep.model, robot.candidate, rep.parameterization,
        verification_trajectory(rep.model, rep.indices, 30, rng,
                                robot.options.input_boxes), range(30))
              for _ in range(5)]
    xs = [t.max_residual_x for t in trials]
    us = [t.max_residual_u for t in trials]
    assert xs.index(max(xs)) != us.index(max(us))
    worst = max(trials, key=lambda t: max(t.max_residual_x, t.max_residual_u))
    j = json.loads(out)
    assert (j["max_residual_x"], j["max_residual_u"]) == (max(xs), max(us))
    assert j["worst_k"] == worst.worst_k


def _poles(monkeypatch, count):
    """Make the first `count` trajectories `difflat verify` checks hit a
    pole; return the list of the input sequences of every trajectory."""
    seen, real = [], cli.verify_parameterization

    def verify(sys, cand, param, traj, *args, **kwargs):
        seen.append(traj.u)
        if len(seen) <= count:
            raise EvalError("division by zero")
        return real(sys, cand, param, traj, *args, **kwargs)

    monkeypatch.setattr(cli, "verify_parameterization", verify)
    return seen


def test_verify_redraws_a_pole_from_the_next_seed(paths, reports, robot,
                                                  capsys, monkeypatch):
    """A first attempt that hits a pole is redrawn from seed + 1; the next
    trial's first attempt still continues the draws of the seed."""
    seen = _poles(monkeypatch, 1)
    rc, out, _ = run(capsys, "verify", paths["robot"], "--json", "--trials", "2",
                     "--steps", "8", "--seed", "7")
    assert rc == 0 and json.loads(out)["trials"] == 2
    rep, first = reports["robot"], random.Random(7)

    def drawn(rng):
        return verification_trajectory(rep.model, rep.indices, 8, rng,
                                       robot.options.input_boxes).u

    assert seen == [drawn(first), drawn(random.Random(8)), drawn(first)]


def test_a_persisting_pole_exits_4_after_ten_resamples(paths, capsys,
                                                        monkeypatch):
    seen = _poles(monkeypatch, 100)
    rc, out, err = run(capsys, "verify", paths["robot"], "--trials", "3")
    assert (rc, out) == (4, "")
    assert "trial 0: pole persisted after 10 resamples" in err
    assert len(seen) == 11


def test_verify_trials_zero_constant_trajectory_vtol(paths, capsys):
    rc, out, _ = run(capsys, "verify", paths["vtol"], "--json", "--trials", "0",
                     "--steps", "6")
    assert rc == 0
    j = json.loads(out)
    assert j["trials"] == 1
    assert max(j["max_residual_x"], j["max_residual_u"]) <= 1e-9


def test_verify_trials_zero_reports_singular_locus_academic(paths, capsys):
    # the academic parameterization has a pole on constant trajectories
    rc, _, err = run(capsys, "verify", paths["academic"], "--trials", "0")
    assert rc == 4
    assert "pole" in err


def test_verify_corrupted_parameterization_fails(paths, tmp_path, capsys):
    # supply a deliberately wrong user parameterization for the trivial system
    text = """
[dims]
n = 2
m = 2

[dynamics]
x1+ = u1
x2+ = u2

[output]
y1 = x1
y2 = x2

[parameterization]
x1 = y1 + 1/1000
x2 = y2
u1 = y1[1]
u2 = y2[1]

[equilibrium]
"""
    p = tmp_path / "corrupt.sys"
    p.write_text(text, encoding="utf-8")
    rc, _, err = run(capsys, "analyze", str(p))
    assert rc == 1
    assert "unique" in err or "disagrees" in err


def test_user_F_outside_its_window_fails_analyze(paths, reports, tmp_path,
                                                 capsys):
    """robot with its own inverted F as [parameterization], but x3 = y1[9]:
    no window binds y1[9], and the leaf is outside F_x's Eq. (5) window."""
    from difflat.expr import to_text
    param = reports["robot"].parameterization
    rows = [f"x1 = {to_text(param.F_x[0])}", f"x2 = {to_text(param.F_x[1])}",
            "x3 = y1[9]", f"u1 = {to_text(param.F_u[0])}",
            f"u2 = {to_text(param.F_u[1])}"]
    p = tmp_path / "robot_F.sys"
    text = systems.source("robot").replace(
        "[equilibrium]", "[parameterization]\n" + "\n".join(rows)
        + "\n\n[equilibrium]")
    p.write_text(text, encoding="utf-8")
    rc, _, err = run(capsys, "analyze", str(p))
    assert rc == 1
    assert err == ("analysis error: user-supplied F_x leaf y1[9] outside "
                   "the window [-1, 1]\n")


# every flag of the CLI, and the flags a command does not read
_FLAGS = {"--json": [], "--out": [os.devnull], "--tol-rank": ["1e-8"],
          "--tol-verify": ["1e-8"], "--steps": ["3"], "--trials": ["1"],
          "--seed": ["1"]}
_UNREAD = {"analyze": ["--out", "--steps", "--trials"],
           "extend": ["--steps", "--trials"],
           "verify": ["--out"],
           "print": sorted(_FLAGS)}


@pytest.mark.parametrize("command", sorted(_UNREAD))
def test_a_command_rejects_the_flags_it_does_not_read(paths, capsys, command):
    for flag in _UNREAD[command]:
        rc, out, err = run(capsys, command, paths["robot"], flag, *_FLAGS[flag])
        assert (rc, out) == (1, ""), flag
        assert f"unrecognized arguments: {flag}" in err, flag


def test_usage_errors_exit_1_and_help_exits_0(paths, capsys):
    for argv in ([], ["analyze"], ["frobnicate", paths["robot"]],
                 ["verify", paths["robot"], "--steps", "many"]):
        rc, out, err = run(capsys, *argv)
        assert (rc, out) == (1, ""), argv
        assert "usage: difflat" in err, argv
    rc, out, _ = run(capsys, "verify", "--help")
    assert rc == 0 and out.startswith("usage: difflat verify")


@pytest.mark.parametrize("flag,value", [("--trials", "-1"), ("--steps", "0")])
def test_verify_rejects_a_count_that_checks_nothing(paths, capsys, flag, value):
    """A negative trial count or a run of no step is a usage error, not a
    vacuous pass; `--trials 0` (the constant trajectory) stays valid."""
    rc, out, err = run(capsys, "verify", paths["robot"], flag, value)
    assert (rc, out) == (1, "")
    assert f"argument {flag}: must be at least" in err


def test_verify_tolerance_flag_is_honored(paths, capsys):
    # an impossibly tight tolerance flips the same run to a failure
    rc, out, _ = run(capsys, "verify", paths["robot"], "--json", "--steps", "10",
                     "--trials", "1", "--seed", "7", "--tol-verify", "1e-16")
    assert rc == 4
    j = json.loads(out)
    assert j["pass"] is False and j["tolerance"] == 1e-16


def test_classification_failure_maps_to_exit_2(paths, capsys, monkeypatch):
    from difflat import cli
    from difflat.analysis import ClassificationError

    def boom(*a, **k):
        raise ClassificationError("rank assertion contradicted")

    monkeypatch.setattr(cli, "analyze", boom)
    rc, _, err = run(capsys, "analyze", paths["robot"])
    assert rc == 2
    assert "classification assertion" in err


def test_certificate_failure_maps_to_exit_3(paths, capsys, monkeypatch, tmp_path):
    from dataclasses import replace
    from difflat import cli

    real = cli.certify_linearizing

    def degraded(ext, opts=None):
        cert = real(ext, opts)
        return replace(cert, rank=cert.rank - 1)

    monkeypatch.setattr(cli, "certify_linearizing", degraded)
    rc, out, _ = run(capsys, "extend", paths["robot"], "--json",
                     "--out", str(tmp_path / "r.sys"))
    assert rc == 3
    assert json.loads(out)["certificate"]["pass"] is False


def test_print_round_trip(paths, capsys):
    rc, out, _ = run(capsys, "print", paths["robot"])
    assert rc == 0
    sf = loads_system(out)
    assert sf.model.n == 3
    rc2, out2, _ = run(capsys, "print", paths["robot"])
    assert out == out2


# replacement tokens and inserted lines of the mutation test: exact zero
# divisions, poles at the equilibrium, unknown leaves, broken syntax and
# malformed sections
_TOKENS = ["0", "1/0", "1/x1", "x1", "x9", "u3", "y1", "(", ")", "+", "*",
           "/", "^", "pi", "sin(", "zeta1[-1]", "", "=", "[", "]", "n", "#"]
_LINES = ["[dims]", "[output]", "x1 = 0", "a = 1/0", "n = 0", "m = 3",
          "y3 = x1", "g1 = 1/x1", "u1 = 1 .. 0", "x1+ = x1"]
_TOKEN = re.compile(r"[A-Za-z_]\w*(\[-?\d+\])?|\d+(\.\d+)?|\S")


def _mutant(text, rng):
    """`text` with one or two lines deleted, duplicated, swapped, inserted
    or with one token replaced."""
    lines = text.splitlines()
    for _ in range(rng.randint(1, 2)):
        op, i = rng.randrange(5), rng.randrange(len(lines))
        if op == 0:
            del lines[i]
        elif op == 1:
            lines.insert(i, lines[i])
        elif op == 2:
            tokens = list(_TOKEN.finditer(lines[i]))
            if tokens:
                t = rng.choice(tokens)
                lines[i] = (lines[i][:t.start()] + rng.choice(_TOKENS)
                            + lines[i][t.end():])
        elif op == 3:
            j = rng.randrange(len(lines))
            lines[i], lines[j] = lines[j], lines[i]
        else:
            lines.insert(i, rng.choice(_LINES))
        lines = lines or [""]
    return "\n".join(lines) + "\n"


def test_mutated_files_end_in_an_exit_code(tmp_path, capsys):
    """Seeded mutations of the bundled files: `difflat analyze` returns an
    exit code on each, never raises, and every SystemFileError but a missing
    section names its line."""
    rng = random.Random(11)
    path = tmp_path / "mutant.sys"
    codes = []
    for _ in range(200):
        text = _mutant(systems.source(rng.choice(systems.names())), rng)
        try:
            loads_system(text)
        except SystemFileError as ex:
            assert ex.line is not None or str(ex).startswith(
                "missing sections"), (text, str(ex))
        path.write_text(text, encoding="utf-8")
        rc, _, err = run(capsys, "analyze", str(path))
        assert "Traceback" not in err
        codes.append(rc)
    assert {0, 1} <= set(codes) <= {0, 1, 2}
