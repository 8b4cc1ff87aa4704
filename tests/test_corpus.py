"""Regression floor on the benchmark's corpus-sweep deck.

Every case of `perfbench/workloads.corpus_deck(1, 4)` (52 metamorphic
variants of robot, vtol and the double chain) runs analyze, build_combined
and certify_linearizing and is checked against its known answer with
`workloads.check`, in fresh interpreters under PYTHONHASHSEED 0 and 3. Only
the three known failures may fail; fixing them shrinks the set below.
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
    "vtol/permute-615432/swap",              # Newton seed wrong at k = 0
    "vtol/permute-165423/swap",              # Newton seed wrong at k = 0
}

SWEEP = """
import json
import difflat
import workloads as W
from difflat.analysis import AnalysisError

failed = {}
for case in W.corpus_deck(1, 4):
    sf = difflat.loads_system(case.text)
    try:
        rep = difflat.analyze(sf.model, sf.candidate, sf.options)
        ext = difflat.build_combined(rep.model, sf.candidate, rep.tower)
        why = W.check(case.answer, rep,
                      difflat.certify_linearizing(ext, sf.options))
    except Exception as ex:  # a rejection is right for a non-flat case only
        right = case.answer is None and isinstance(ex, AnalysisError)
        why = None if right else f"{type(ex).__name__}: {ex}"
    if why is not None:
        failed[case.name] = why
print(json.dumps(failed))
"""


def test_corpus_sweep_fails_no_more_than_the_known_cases():
    path = [str(Path(difflat.__file__).parents[1]), str(ROOT / "perfbench")]
    if os.environ.get("PYTHONPATH"):
        path.append(os.environ["PYTHONPATH"])
    procs = {
        seed: subprocess.Popen(
            [sys.executable, "-c", SWEEP], stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True,
            env=dict(os.environ, PYTHONHASHSEED=seed,
                     PYTHONPATH=os.pathsep.join(path)))
        for seed in ("0", "3")}
    for seed, proc in procs.items():
        out, err = proc.communicate(timeout=300)
        assert proc.returncode == 0, err
        failed = json.loads(out)
        assert set(failed) <= KNOWN_FAILURES, (seed, failed)
