"""The benchmark's own checks: same seed, same counters; no tracer wrapper in
an untraced run; distinct corpus cases with their known answers; no result
without the program's sources.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import shutil
import subprocess
import sys

import pytest

import run
import tracer as T
import workloads as W

sys.path.insert(0, str(W.SRC))


def _counters(result: dict) -> dict:
    """Everything a traced run counts: calls, Newton callbacks, node counts,
    permutations, cache traffic, verdicts. Times are left out."""
    out = {k: v for k, v in result["layers"].items() if not k.endswith("_s")}
    out["ok"] = result["ok"]
    out["f_tree_nodes"] = result["f_tree_nodes"]
    return out


@pytest.mark.parametrize("args, hash_seed", [
    (["loop", "corpus-sweep", "--seed", "3", "--blocks", "1", "--trace", "1"], 7),
    (["loop", "implicit-vtol", "--seed", "3", "--blocks", "2", "--trace", "1"], 7),
    (["academic", "--trace", "1"], 0),
])
def test_counters_repeat_exactly_for_the_same_seed(args, hash_seed):
    first, second = (run.run_child(args, hash_seed) for _ in range(2))
    assert first["layers"]["trace.spans"] > 0
    assert _counters(first) == _counters(second)


def test_untraced_runs_install_no_wrapper():
    result = run.run_child(["loop", "corpus-sweep", "--seed", "3", "--blocks", "1",
                            "--trace", "0"], 7)
    assert result["wrappers_installed"] == []
    assert "layers" not in result


def test_tracer_uninstall_restores_every_original():
    import difflat
    original = difflat.analysis.build_tower
    tracer = T.Tracer()
    tracer.install()
    try:
        assert difflat.analysis.build_tower is not original
        assert "difflat.model.SystemModel.shift" in T.installed_wrappers()
    finally:
        tracer.uninstall()
    assert difflat.analysis.build_tower is original
    assert T.installed_wrappers() == []


def test_deck_cases_are_distinct_and_keep_or_permute_the_known_answers():
    deck = W.corpus_deck(seed=3, blocks=4)
    assert len(deck) == 4 * (len(W.CORPUS_SYSTEMS) * len(W.VARIANTS) + 1)
    assert len({case.text for case in deck}) == len(deck)
    assert sorted(c.name for c in deck if c.base) == [
        f"{system}/base" for system in sorted(W.CORPUS_SYSTEMS)]
    for case in deck:
        known = W.KNOWN[case.name.split("/")[0]]
        if "nonflat" in case.name:
            assert case.answer is None
        elif case.name.endswith("/swap"):
            assert case.answer == known.swapped()
        else:
            assert case.answer == known


def test_the_seed_orders_a_fixed_pool_of_families():
    def names(seed):
        return [case.name for case in W.corpus_deck(seed, blocks=4)]
    assert len({tuple(n.split("/")[:2]) for n in names(3) if "/permute-" in n}) == \
        3 * len(W.CORPUS_SYSTEMS)
    assert sorted(names(3)) == sorted(names(4))
    assert names(3) != names(4)
    assert names(3) == names(3)


def test_a_failed_unit_adds_its_time_but_no_latency():
    result = {"unit_s": [[0.2, 0.1, 0.4], [0.05, 0.3, 0.15]], "ok": [True, False]}
    assert run.correct_runs(result) == [[0.2, 0.1, 0.4]]
    assert run.units_per_s(result) == pytest.approx(3 / 1.2)


def test_tail_takes_the_highest_percentile_with_ten_samples_beyond():
    assert run.tail(list(range(1, 251))) == (95, 238)
    assert run.tail(list(range(1, 53))) == (75, 39)
    assert run.tail([3.0, 1.0, 2.0]) == (100, 3.0)


def test_without_program_sources_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(W.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(W.HERE, tmp_path / W.HERE.name,
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{W.HERE.name}/run.py", "--workload", "corpus-sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
