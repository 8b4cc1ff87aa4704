"""Golden snapshots of `analyze --json`, `extend --json` and `verify --json`.

The goldens under tests/golden/ freeze every verdict the CLI reports: indices,
class, ranks, tower rows, diagnostics, parameterization source, certificates,
the extended system file and the text of a symbolic F, which is compared
exactly. Only the trailing digits of the residuals can depend on the
platform's libm, so residuals are compared by their verdict. The goldens are
compared in this process, under whatever hash seed it has, and again in a
subprocess under PYTHONHASHSEED=3.

Regenerate the goldens (only when a verdict is meant to change) with

    PYTHONPATH=src python tests/test_snapshot.py
"""

import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

import pytest

import difflat
from difflat import systems
from difflat.cli import main

GOLDEN = Path(__file__).parent / "golden"

DOUBLE_CHAIN = """
[dims]
n = 3
m = 2

[dynamics]
x1+ = x2
x2+ = u1
x3+ = u2

[extension]
g1 = x1
g2 = x3

[output]
y1 = x1
y2 = x3

[equilibrium]
"""


ROBOT_OUTPUT = "y1 = x3\ny2 = x1*sin(u2) - x2*cos(u2)\n"
ROBOT_SWAPPED_OUTPUT = "y1 = x1*sin(u2) - x2*cos(u2)\ny2 = x3\n"
assert ROBOT_OUTPUT in systems.source("robot")

CASES = {
    "vtol": systems.source("vtol"),
    "academic": systems.source("academic"),
    "robot": systems.source("robot"),
    "double_chain": DOUBLE_CHAIN,
    "robot_swapped": systems.source("robot").replace(ROBOT_OUTPUT,
                                                     ROBOT_SWAPPED_OUTPUT),
}

VERIFY_ARGS = ("--steps", "8", "--trials", "3")
RESIDUAL_KEYS = ("max_residual_x", "max_residual_u", "worst_k")


def _run(argv):
    """Exit code, JSON report (None when none was printed) and stderr of one
    CLI call."""
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = main(list(argv))
    return {"exit": rc, "json": json.loads(out.getvalue() or "null"),
            "stderr": err.getvalue()}


def snapshot(name, workdir):
    """Every CLI report on one case, with the run's file paths made relative."""
    workdir = Path(workdir)
    src = workdir / f"{name}.sys"
    src.write_text(CASES[name], encoding="utf-8")
    out = {"analyze": _run(["analyze", str(src), "--json"])}
    ext_path = workdir / f"{name}_ext.sys"
    ext = _run(["extend", str(src), "--json", "--out", str(ext_path)])
    if ext["json"] is not None:
        ext["json"]["extended_file"] = ext_path.name
    out["extend"] = ext
    out["extended_system"] = (ext_path.read_text(encoding="utf-8")
                              if ext_path.exists() else None)
    out["verify"] = _run(["verify", str(src), "--json", *VERIFY_ARGS])
    return out


def _assert_residuals(mine, gold, what):
    assert mine["pass"] == gold["pass"], what
    assert mine["tolerance"] == gold["tolerance"], what
    if gold["pass"]:
        for k in ("max_residual_x", "max_residual_u"):
            assert mine[k] <= mine["tolerance"], f"{what}: {k}"


def _assert_matches_golden(name, mine):
    gold = json.loads((GOLDEN / f"{name}.json").read_text(encoding="utf-8"))

    a, ga = mine["analyze"], gold["analyze"]
    assert (a["exit"], a["stderr"]) == (ga["exit"], ga["stderr"])
    aj, gaj = dict(a["json"]), dict(ga["json"])
    _assert_residuals(aj.pop("residuals"), gaj.pop("residuals"),
                      f"{name} analyze residuals")
    assert aj == gaj

    assert mine["extend"] == gold["extend"]
    assert mine["extended_system"] == gold["extended_system"]

    v, gv = mine["verify"], gold["verify"]
    assert (v["exit"], v["stderr"]) == (gv["exit"], gv["stderr"])
    vj = {k: x for k, x in v["json"].items() if k not in RESIDUAL_KEYS}
    gvj = {k: x for k, x in gv["json"].items() if k not in RESIDUAL_KEYS}
    assert vj == gvj
    _assert_residuals(v["json"], gv["json"], f"{name} verify")


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_reports_match_golden(name, tmp_path):
    _assert_matches_golden(name, snapshot(name, tmp_path))


def _fresh(code, hash_seed, *args):
    """Run `code` with `args` in a fresh interpreter under PYTHONHASHSEED
    `hash_seed`, with this directory importable; return its stdout."""
    path = [str(Path(difflat.__file__).parents[1]), str(Path(__file__).parent)]
    if os.environ.get("PYTHONPATH"):
        path.append(os.environ["PYTHONPATH"])
    env = dict(os.environ, PYTHONHASHSEED=hash_seed,
               PYTHONPATH=os.pathsep.join(path))
    proc = subprocess.run([sys.executable, "-c", code, *map(str, args)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_cli_reports_match_golden_under_hash_seed_3(tmp_path):
    """The snapshots of every case, taken in a fresh interpreter with
    PYTHONHASHSEED=3, match the goldens too."""
    code = ("import json, sys, test_snapshot as t; print(json.dumps("
            "{n: t.snapshot(n, sys.argv[1]) for n in sorted(t.CASES)}))")
    snaps = json.loads(_fresh(code, "3", tmp_path))
    assert sorted(snaps) == sorted(CASES)
    for name, mine in snaps.items():
        _assert_matches_golden(name, mine)


ANALYZE_JSON = """
import json, sys
from contextlib import redirect_stdout
from io import StringIO
import test_snapshot as t
out = {}
for name in sorted(t.CASES):
    path = f"{sys.argv[1]}/{name}.sys"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(t.CASES[name])
    buf = StringIO()
    with redirect_stdout(buf):
        t.main(["analyze", path, "--json"])
    out[name] = buf.getvalue()
print(json.dumps(out))
"""


def test_analyze_json_does_not_depend_on_the_hash_seed(tmp_path):
    """`analyze --json` of every case, F and residuals included, is the same
    text under PYTHONHASHSEED 0 and 3."""
    outs = []
    for seed in ("0", "3"):
        (tmp_path / seed).mkdir()
        outs.append(json.loads(_fresh(ANALYZE_JSON, seed, tmp_path / seed)))
    assert sorted(outs[0]) == sorted(CASES)
    for name in CASES:
        assert outs[0][name] == outs[1][name], name


if __name__ == "__main__":
    import tempfile
    GOLDEN.mkdir(exist_ok=True)
    for case in sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp:
            snap = snapshot(case, tmp)
        (GOLDEN / f"{case}.json").write_text(
            json.dumps(snap, sort_keys=True, indent=2) + "\n", encoding="utf-8")
        print(f"wrote {GOLDEN / case}.json", file=sys.stderr)
