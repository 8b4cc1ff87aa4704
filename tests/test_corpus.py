"""Regression floors on metamorphic variants of the bundled systems.

Every case of `perfbench/workloads.corpus_deck(1, 4)` (52 metamorphic
variants of robot, vtol and the double chain) runs analyze, build_combined
and certify_linearizing and is checked against its known answer with
`workloads.check`, in fresh interpreters under PYTHONHASHSEED 0 and 3. Only
the known failure may fail; fixing it empties the set below. A seeded sample
of the state relabelings of vtol with swapped outputs runs the same way and
must pass.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import difflat

ROOT = Path(__file__).resolve().parents[1]
KNOWN_FAILURES = {
    "vtol/permute-532146/rescale-u2-1e-4",   # no admissible tower
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
    # 12 of the 720 relabelings, drawn once from a fixed seed
    perms = random.Random("vtol/swap/relabelings").sample(
        list(itertools.permutations(range(1, 7))), 12)
    swapped = W.swap_outputs(W.source("vtol"))
    return [("vtol/permute-" + "".join(map(str, p)) + "/swap",
             W.permute_states(swapped, list(p)), W.KNOWN["vtol"].swapped())
            for p in perms]

failed = {}
for name, text, answer in cases():
    sf = difflat.loads_system(text)
    try:
        rep = difflat.analyze(sf.model, sf.candidate, sf.options)
        ext = difflat.build_combined(rep.model, sf.candidate, rep.tower)
        why = W.check(answer, rep,
                      difflat.certify_linearizing(ext, sf.options))
    except Exception as ex:  # a rejection is right for a non-flat case only
        right = answer is None and isinstance(ex, AnalysisError)
        why = None if right else f"{type(ex).__name__}: {ex}"
    if why is not None:
        failed[name] = why
print(json.dumps(failed))
"""


def _failures(mode):
    """{hash seed: {case: why it failed}} of the sweep `mode` under
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
    for seed, failed in _failures("corpus").items():
        assert set(failed) <= KNOWN_FAILURES, (seed, failed)


def test_relabeled_swapped_vtol_sample_passes():
    """The tower search must not accept a tower whose Jacobian is singular
    at a verification window while another admissible one is regular at
    all of them."""
    for seed, failed in _failures("relabel").items():
        assert not failed, (seed, failed)
