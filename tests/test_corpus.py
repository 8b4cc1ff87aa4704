"""Regression floors on metamorphic variants of the bundled systems.

Every case of `perfbench/workloads.corpus_deck(1, 4)` (52 metamorphic
variants of robot, vtol and the double chain) runs analyze, build_combined
and certify_linearizing and is checked against its known answer with
`workloads.check`, in fresh interpreters under PYTHONHASHSEED 0 and 3. Only
the known failure may fail; fixing it empties the set below. Each case's
tower-search diagnostics, or the error text of a rejected case, must equal
`tests/golden/corpus_diagnostics.json` under both hash seeds. A seeded sample
of the state relabelings of vtol with swapped outputs runs the same way and
must pass. A matrix of pure changes of units runs the same way: robot,
academic and vtol with u1 or u2 rescaled by 10^-6, 10^-3, 10^3 or 10^6
(`workloads.rescale_input`), each held to its system's known answer. Only
its known failures may fail, and its diagnostics or error texts must equal
`tests/golden/rescale_diagnostics.json`, which pins those failures'
messages too. Run this file
(`PYTHONPATH=src python tests/test_corpus.py`) to rewrite both goldens.
"""

import functools
import json
import os
import subprocess
import sys
from pathlib import Path

import difflat

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden" / "corpus_diagnostics.json"
RESCALE_GOLDEN = ROOT / "tests" / "golden" / "rescale_diagnostics.json"
KNOWN_FAILURES = {
    "vtol/permute-532146/rescale-u2-1e-4",   # no admissible tower
}
# float gates a change of units alone trips (ROADMAP item 6): the message of
# each is pinned in `RESCALE_GOLDEN`
RESCALE_FAILURES = {
    "robot/rescale-u1-1e-6",     # trajectory residual 3.21e-08
    "vtol/rescale-u1-1e-6",      # psi residual 2.05e-08
    "vtol/rescale-u2-1e-6",      # psi residual 3.44e-08
    "vtol/rescale-u2-1e-3",      # trajectory residual 6.1e-07
    "vtol/rescale-u2-1e6",       # trajectory residual 0.000942
}

SWEEP = """
import itertools
import json
import random
import difflat
import workloads as W
from difflat.analysis import AnalysisError

def cases():
    if MODE == "corpus":
        return [(c.name, c.text, c.answer) for c in W.corpus_deck(1, 4)]
    if MODE == "rescale":
        return [(f"{s}/rescale-u{j}-1e{e}", W.rescale_input(W.source(s), j, e),
                 W.KNOWN[s]) for s in ("robot", "academic", "vtol")
                for j in (1, 2) for e in (-6, -3, 3, 6)]
    # 12 of the 720 relabelings, drawn once from a fixed seed
    perms = random.Random("vtol/swap/relabelings").sample(
        list(itertools.permutations(range(1, 7))), 12)
    swapped = W.swap_outputs(W.source("vtol"))
    return [("vtol/permute-" + "".join(map(str, p)) + "/swap",
             W.permute_states(swapped, list(p)), W.KNOWN["vtol"].swapped())
            for p in perms]

failed, diagnostics = {}, {}
for name, text, answer in cases():
    sf = difflat.loads_system(text)
    try:
        rep = difflat.analyze(sf.model, sf.candidate, sf.options)
        diagnostics[name] = rep.tower.context.diagnostics
        ext = difflat.build_combined(rep.model, sf.candidate, rep.tower)
        why = W.check(answer, rep,
                      difflat.certify_linearizing(ext, sf.options))
    except Exception as ex:  # a rejection is right for a non-flat case only
        diagnostics[name] = f"{type(ex).__name__}: {ex}"
        right = answer is None and isinstance(ex, AnalysisError)
        why = None if right else diagnostics[name]
    if why is not None:
        failed[name] = why
print(json.dumps({"failed": failed, "diagnostics": diagnostics}))
"""


@functools.lru_cache(maxsize=None)
def _sweep(mode):
    """{hash seed: {"failed": {case: why it failed}, "diagnostics": {case:
    its tower-search diagnostics or error text}}} of the sweep `mode` under
    PYTHONHASHSEED 0 and 3, one interpreter each, run side by side."""
    path = [str(Path(difflat.__file__).parents[1]), str(ROOT / "perfbench")]
    if os.environ.get("PYTHONPATH"):
        path.append(os.environ["PYTHONPATH"])
    procs = {
        seed: subprocess.Popen(
            [sys.executable, "-c", f"MODE = {mode!r}\n" + SWEEP],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env=dict(os.environ, PYTHONHASHSEED=seed,
                     PYTHONPATH=os.pathsep.join(path)))
        for seed in ("0", "3")}
    out = {}
    for seed, proc in procs.items():
        stdout, err = proc.communicate(timeout=300)
        assert proc.returncode == 0, err
        out[seed] = json.loads(stdout)
    return out


def test_corpus_sweep_fails_no_more_than_the_known_cases():
    for seed, out in _sweep("corpus").items():
        assert set(out["failed"]) <= KNOWN_FAILURES, (seed, out["failed"])


def test_corpus_diagnostics_match_the_golden():
    """Every rejected permutation's message, and every rejection, is pinned:
    a change to the tower search that rewords or reorders one shows here."""
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    for seed, out in _sweep("corpus").items():
        changed = sorted(name for name in golden.keys() | out["diagnostics"].keys()
                         if golden.get(name) != out["diagnostics"].get(name))
        assert not changed, (seed, changed)


def test_rescaled_inputs_fail_no_more_than_the_known_cases():
    for seed, out in _sweep("rescale").items():
        assert set(out["failed"]) <= RESCALE_FAILURES, (seed, out["failed"])


def test_rescale_diagnostics_match_the_golden():
    """Each case's diagnostics, or the message it fails with, is pinned."""
    golden = json.loads(RESCALE_GOLDEN.read_text(encoding="utf-8"))
    for seed, out in _sweep("rescale").items():
        assert out["diagnostics"] == golden, seed


def test_relabeled_swapped_vtol_sample_passes():
    """The tower search must not accept a tower whose Jacobian is singular
    at a verification window while another admissible one is regular at
    all of them."""
    for seed, out in _sweep("relabel").items():
        assert not out["failed"], (seed, out["failed"])


if __name__ == "__main__":
    for mode, path in (("corpus", GOLDEN), ("rescale", RESCALE_GOLDEN)):
        diagnostics = _sweep(mode)["0"]["diagnostics"]
        path.write_text(json.dumps(diagnostics, sort_keys=True, indent=2) + "\n",
                        encoding="utf-8")
        print(f"wrote {path}", file=sys.stderr)
