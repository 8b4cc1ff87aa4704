"""The benchmark (`perfbench/`) calls difflat as its workloads do. A unit
that raises is recorded as a failed unit and the run still ends normally,
so a changed signature the benchmark calls would pass every other test;
here each of its runs must end with no failed unit."""

from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def run():
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(PERFBENCH))
        import run
        yield run


@pytest.mark.parametrize("args, units", [
    (["academic", "--trace", "0"], 1),
    (["loop", "implicit-vtol", "--seed", "3", "--blocks", "1", "--trace", "0"], 25),
])
def test_a_benchmark_run_fails_no_unit(run, args, units):
    result = run.run_child(args, 0)
    assert result["failures"] == []
    assert len(result["ok"]) == units
