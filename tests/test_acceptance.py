"""Acceptance suite: one test per criterion, each at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v` for one pass/fail line per
criterion (add -s to see the detail lines).
"""

import json
import random
import time

import pytest

from conftest import random_corpus_expressions
from difflat import systems
from difflat.analysis import analyze, normalize_inputs, zero_block_check
from difflat.cli import main
from difflat.expr import (
    Var, differentiate, evaluate, substitute, to_text, var, vars_of,
)
from difflat.extension import build_combined, certify_linearizing, truncated
from difflat.model import backward_shift, forward_shift
from difflat.numeric import (
    eval_matrix, fd_jacobian_check, numeric_rank, simulate,
    verify_parameterization,
)
from difflat.parsing import DimTable, parse_expression


@pytest.fixture(scope="module")
def paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("acceptance")
    out = {}
    for name in systems.names():
        p = root / f"{name}.sys"
        p.write_text(systems.source(name), encoding="utf-8")
        out[name] = str(p)
    return out


def run_cli(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr().out
    return rc, json.loads(out)


def test_criterion_1_vtol(paths, capsys, tmp_path):
    t0 = time.monotonic()
    rc, j = run_cli(capsys, "analyze", paths["vtol"], "--json")
    assert rc == 0
    assert j["classification"] == "forward_flat"
    assert j["rho"] == [2, 2]
    assert j["R2"] == [4, 4] and j["R1"] == [0, 0]
    assert j["d"] == 2
    out = tmp_path / "vtol_ext.sys"
    rc, j = run_cli(capsys, "extend", paths["vtol"], "--json", "--out", str(out))
    assert rc == 0
    assert j["dimension"] == 8
    cert = j["certificate"]
    assert cert["square"] and cert["rank"] == 10 == cert["required"]
    assert cert["at_point_rank"] == 10          # full rank at the chart point
    assert cert["points_checked"] >= 10         # the verification windows
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0
    print(f"criterion 1 (VTOL forward-flat, d=2, rank 10/10): "
          f"PASS in {elapsed:.2f}s")


def test_criterion_2_academic(paths, capsys, tmp_path, reports):
    t0 = time.monotonic()
    rc, j = run_cli(capsys, "analyze", paths["academic"], "--json")
    assert rc == 0
    assert j["classification"] == "backward_flat"
    assert j["gamma"] == [3, 2]
    assert j["R1"] == [4, 3] and j["R2"] == [0, 0]
    assert j["d"] == 2
    # gbar1 = x1: the prelongation feeds the chain with x1
    assert reports["academic"].tower.context.gbar[0] == var("x", 1)
    out = tmp_path / "academic_ext.sys"
    rc, j = run_cli(capsys, "extend", paths["academic"], "--json",
                    "--out", str(out))
    assert rc == 0
    assert j["dimension"] == 7
    cert = j["certificate"]
    assert cert["square"] and cert["rank"] == 9 == cert["required"]
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0
    print(f"criterion 2 (academic backward-flat, gbar1=x1, rank 9/9): "
          f"PASS in {elapsed:.2f}s")


def test_criterion_3_robot(paths, capsys, tmp_path):
    t0 = time.monotonic()
    rc, j = run_cli(capsys, "analyze", paths["robot"], "--json")
    assert rc == 0
    assert j["classification"] == "general"
    assert j["rho"] == [1, 0]
    assert j["gamma"] == [1, 1]
    assert j["R1"] == [1, 1] and j["R2"] == [2, 1]
    assert j["d1"] == 1 and j["d2"] == 1 and j["d"] == 2
    out = tmp_path / "robot_ext.sys"
    rc, j = run_cli(capsys, "extend", paths["robot"], "--json", "--out", str(out))
    assert rc == 0
    assert j["dimension"] == 5
    cert = j["certificate"]
    assert cert["square"] and cert["rank"] == 7 == cert["required"]
    # the emitted transition contains x1+ = x1 + ubar2 cos(ubar1 - x3),
    # up to canonicalization
    from difflat.sysfile import load_system
    reparsed = load_system(str(out))
    expected = parse_expression("x1 + ubar2*cos(ubar1 - x3)",
                                DimTable(3, 2, frozenset()))
    i = list(reparsed.model.state_vars).index(var("x", 1))
    assert reparsed.model.f[i] == expected
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0
    print(f"criterion 3 (robot general, d1=d2=1, rank 7/7, x1+ row): "
          f"PASS in {elapsed:.2f}s")


def test_criterion_4_index_identities(reports, corpus):
    for name, rep in reports.items():
        idx = rep.indices
        n = corpus[name].model.n
        r11, r12 = idx.r1
        r21, r22 = idx.r2
        rho1, rho2 = idx.rho
        g1, g2 = idx.gamma
        assert r21 - rho1 == r22 - rho2, name
        assert r11 - g1 == r12 - g2, name
        assert n == r12 + r22 + g1 + rho1 - 1, name
        assert idx.d == idx.size_R - n, name
        assert idx.d == idx.d1 + idx.d2, name
    print("criterion 4 (index identities, integer-exact on all three): PASS")


def test_criterion_5_rank_coincidence(reports, corpus):
    # systems with R1 > 0; ranks compared point by point at the 12
    # verification windows
    checked = []
    for name in ("academic", "robot"):
        rep = reports[name]
        sysm = rep.model
        param = rep.parameterization
        idx = rep.indices
        cols = [Var("y", j + 1, -idx.r1[j]) for j in range(2)]
        gF = [substitute(gj, dict(zip(
            list(sysm.state_vars) + list(sysm.input_vars),
            list(param.F_x) + list(param.F_u)))) for gj in sysm.g]
        pts = [win.pt for win in param.tower.windows]
        assert len(pts) == 12
        J_g = [[differentiate(e, c) for c in cols] for e in gF]
        J_x = [[differentiate(e, c) for c in cols] for e in param.F_x]
        for pt in pts:
            rg = numeric_rank(eval_matrix(J_g, pt))
            rx = numeric_rank(eval_matrix(J_x, pt))
            assert rg == rx, (name, rg, rx)
        checked.append(name)
    print(f"criterion 5 (rank d_y[-R1] g(F) == rank d_y[-R1] F_x on "
          f"{checked} at 12 windows each): PASS")


def test_criterion_6_zero_block(academic, reports):
    rep = reports["academic"]
    norm = normalize_inputs(rep.model, rep.parameterization)
    structural, worst = zero_block_check(norm, rep.parameterization)
    assert structural
    assert worst <= 1e-10
    print(f"criterion 6 (Lemma-1 zero block after input normalization, "
          f"structural + numeric {worst:.2e} <= 1e-10): PASS")


def test_criterion_7_trajectory_verification(reports, corpus):
    t0 = time.monotonic()
    for name, rep in reports.items():
        sf = corpus[name]
        sysm = rep.model
        idx = rep.indices
        H = max(idx.r1) + 1
        K = 30 + max(idx.r2) + 1
        pt = sysm.analysis_point()
        x0 = [pt[v] for v in sysm.state_vars]
        u0 = [pt[v] for v in sysm.input_vars]
        rng = random.Random(7)
        for trial in range(5):
            while True:
                us = [[rng.uniform(*sf.options.input_boxes.get(
                    j + 1, (u0[j] - 0.2, u0[j] + 0.2)))
                    for j in range(sysm.m)] for _ in range(H + K)]
                try:
                    traj = simulate(sysm, x0, us, H, K)
                    out = verify_parameterization(
                        sysm, sf.candidate, rep.parameterization, traj,
                        range(0, 30), tol=1e-8)
                    break
                except Exception:
                    continue  # resample a trajectory that left the chart
            assert out.passed, (name, trial, out.to_json())
            assert out.max_residual_x <= 1e-8 and out.max_residual_u <= 1e-8
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    print(f"criterion 7 (5 seeded 30-step trajectories per system, "
          f"|x - F_x|, |u - F_u| <= 1e-8): PASS in {elapsed:.2f}s")


def test_criterion_8_minimality(reports, corpus):
    cases = []
    for name, rep in reports.items():
        ext = build_combined(rep.model, corpus[name].candidate, rep.tower)
        for which in ("d1", "d2"):
            if (ext.d1 if which == "d1" else ext.d2) == 0:
                continue
            cert = certify_linearizing(truncated(ext, which))
            assert not cert.square and not cert.passed, (name, which)
            cases.append(f"{name}:{which}")
    assert len(cases) == 4  # vtol d2, academic d1, robot d1 and d2
    print(f"criterion 8 (chain truncation breaks the square count: "
          f"{cases}): PASS")


def test_criterion_9_infrastructure(reports, corpus, models_with_psi):
    # (a) shift inverse pair on 50 random corpus-derived expressions
    count = 0
    for name, sf in corpus.items():
        sysm = models_with_psi[name]
        n_take = 17 if name != "robot" else 16
        for e in random_corpus_expressions(sf, n_take, seed=len(name)):
            fb = backward_shift(forward_shift(e, sysm), sysm)
            bf = forward_shift(backward_shift(e, sysm), sysm)
            for out in (fb, bf):
                if out == e:
                    continue
                rng = random.Random(count)
                ok = True
                for _ in range(20):
                    pt = sysm.jet_center(vars_of(out) | vars_of(e))
                    for k in list(pt):
                        from difflat.expr import Par
                        if not isinstance(k, Par):
                            pt[k] += rng.uniform(-0.3, 0.3)
                    a, b = evaluate(out, pt), evaluate(e, pt)
                    ok = ok and abs(a - b) <= 1e-10 * (1 + abs(b))
                assert ok, (name, to_text(e))
            count += 1
    assert count == 50

    # (b) every Jacobian used in criteria 1-6 matches central differences
    def fd_ok(rows, cols, pt, tol=1e-6):
        return fd_jacobian_check(rows, cols, pt) <= tol

    rng = random.Random(12)
    for name, rep in reports.items():
        sysm = rep.model
        cols = list(sysm.state_vars) + list(sysm.input_vars)
        pt = {k: (v + 0.05 if not k.__class__.__name__ == "Par" else v)
              for k, v in sysm.analysis_point().items()}
        assert fd_ok(list(sysm.f) + list(sysm.g), cols, pt)
        # tower Jacobian at a perturbed probe point
        tower = rep.tower
        leaves = set(tower.variables)
        for e in tower.rows.values():
            leaves |= vars_of(e)
        tp = tower.context.sys_bar.jet_center(leaves)
        tp = {k: (v + rng.uniform(0.01, 0.05)
                  if not k.__class__.__name__ == "Par" else v)
              for k, v in tp.items()}
        assert fd_ok(list(tower.rows.values()), list(tower.variables), tp)
        # parameterization Jacobians where symbolic
        param = rep.parameterization
        if param.F_x is not None:
            ypt = param.tower.windows[2].pt
            ycols = sorted({v for e in list(param.F_x) + list(param.F_u)
                            for v in vars_of(e)}, key=to_text)
            assert fd_ok(list(param.F_x) + list(param.F_u), ycols, ypt)

    print("criterion 9 (shift inverses on 50 expressions, FD cross-checks): "
          "PASS")
