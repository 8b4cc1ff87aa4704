"""difflat benchmark: runs one workload, checks every verdict against
hand-written known answers, and prints each metric by name with its unit.
The last line of standard output is one JSON object.

    python3 perfbench/run.py --workload corpus-sweep --seed 1 --seconds 55 --trace 0

--trace 0 measures the end-to-end metrics with every wrapper off. --trace 1
runs a fixed number of units twice, in fresh interpreters, untraced and then
traced, and reports the per-layer metrics and the tracing slowdown. The
exit code is non-zero when a verdict on an unmodified system is wrong.
Full results (metadata, per-pass hash seeds and F sizes, spans) go to
perfbench/results/. Metric names and units come from BENCHMARK.json, which
lists implicit-vtol and corpus-sweep; symbolic-academic runs with the same
command (see workloads.ACADEMIC_WHY).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

import metrics as M
import workloads as W

CHILD = W.HERE / "child.py"
RESULTS = W.HERE / "results"
SPEC = json.loads((W.ROOT / "BENCHMARK.json").read_text())
CHILD_TIMEOUT_S = 170
# setup_s is the median of SETUP_PROBES interpreter starts before the timed
# work and as many after it, so that a slow spell of the machine at one end
# does not set it.
SETUP_PROBES = 8
# A run passes over a fixed deck of units in rounds. unit_p50_s is the
# median over units of each unit's mean time over the rounds; unit_tail_s
# and units_per_s take every timed run of every unit. On the shared 2-core
# machine the benchmark was tuned on, a unit's time swings by up to 2.5x
# between a fast and a slow state from one round to the next, and the share
# of each differs from run to run: a unit's fastest round then depends on
# whether a run met a fast spell at all, and its median round flips between
# the two states, so each spread across runs by up to 1.5x as much as the
# mean. Only units whose verdict is right give latencies.
# symbolic-academic has one unit per hash seed (a fresh interpreter each
# round) and runs ACADEMIC_ROUNDS rounds, whatever --seconds says; the other
# workloads run as many rounds as fit in --seconds. Its pass alone is run
# again at once in the same interpreter, and that repeat is its warm run
# (warm_p50_s, printed for symbolic-academic only).
ACADEMIC_ROUNDS = 2
DECK_BLOCKS = {"implicit-vtol": 10, "corpus-sweep": 4}  # 25 windows, 13 cases a block
# blocks of units in each half (untraced, traced) of a traced run
TRACE_BLOCKS = {"implicit-vtol": 20, "corpus-sweep": 4}


class BenchError(Exception):
    pass


def _env(hash_seed: int) -> dict:
    return dict(os.environ, PYTHONHASHSEED=str(hash_seed), PYTHONPATH=str(W.SRC))


def run_child(args: list, hash_seed: int) -> dict:
    proc = subprocess.run([sys.executable, str(CHILD), *args], env=_env(hash_seed),
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"child {args} failed ({proc.returncode}):\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def setup_times(workload: str, hash_seed: int) -> list:
    """Interpreter start to ready: import difflat and parse the sources."""
    out = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen([sys.executable, str(CHILD), "setup", workload],
                              env=_env(hash_seed), stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True) as proc:
            ready = proc.stdout.readline().strip() == "ready"
            out.append(time.perf_counter() - t0)
            try:
                _, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                raise
        if not ready or proc.returncode != 0:
            raise BenchError(f"setup probe failed:\n{err[-2000:]}")
    return out


def merge_layers(parts: list) -> dict:
    stats = {}
    for part in parts:
        for name, value in part.items():
            merge = max if name == "expr.differentiate.cache_entries" else float.__add__
            stats[name] = merge(float(stats.get(name, 0.0)), float(value))
    return stats


def academic(hash_seeds: list, trace: int, rounds: int) -> dict:
    """One fresh interpreter per hash seed and round, one at a time; the unit
    of a hash seed holds its passes of every round."""
    runs = [[run_child(["academic", "--trace", str(trace)], h) for h in hash_seeds]
            for _ in range(rounds)]
    every = [child for row in runs for child in row]
    out = {
        "unit_s": [[row[i]["unit_s"][0][0] for row in runs] for i in range(len(hash_seeds))],
        "warm_s": [[w for row in runs for w in row[i]["warm_s"][0]]
                   for i in range(len(hash_seeds))],
        "ok": [all(row[i]["ok"][0] for row in runs) for i in range(len(hash_seeds))],
        "failures": [dict(f, hash_seed=h) for h, child in zip(hash_seeds, runs[0])
                     for f in child["failures"]],
        "f_tree_nodes": [n for child in runs[0] for n in child["f_tree_nodes"]],
        "passes": [{"hash_seed": h, "F_tree_nodes": (child["f_tree_nodes"] or [None])[0],
                    "unit_s": [row[i]["unit_s"][0][0] for row in runs]}
                   for i, (h, child) in enumerate(zip(hash_seeds, runs[0]))],
        "peak_rss_mb": max(child["peak_rss_mb"] for child in every),
        "wrappers_installed": sorted({w for c in every for w in c["wrappers_installed"]}),
        "numpy": every[0]["numpy"],
    }
    if trace:
        out["layers"] = merge_layers([child["layers"] for child in every])
        out["spans"] = [child["spans"] for child in every]
    return out


def measure(workload: str, seed: int, seconds: float, hash_seeds: list) -> dict:
    if workload == "symbolic-academic":
        return academic(hash_seeds, 0, ACADEMIC_ROUNDS)
    return run_child(["loop", workload, "--seed", str(seed), "--trace", "0",
                      "--blocks", str(DECK_BLOCKS[workload]),
                      "--seconds", str(seconds)], hash_seeds[0])


def measure_traced(workload: str, seed: int, hash_seeds: list) -> tuple:
    """The same units untraced and traced, one round each."""
    if workload == "symbolic-academic":
        return academic(hash_seeds, 0, 1), academic(hash_seeds, 1, 1)
    args = ["loop", workload, "--seed", str(seed), "--blocks", str(TRACE_BLOCKS[workload])]
    untraced = run_child(args + ["--trace", "0"], hash_seeds[0])
    traced = run_child(args + ["--trace", "1"], hash_seeds[0])
    traced["spans"] = [traced["spans"]]
    return untraced, traced


def units_per_s(result: dict) -> float:
    """Correct unit runs per second of unit time; a failed unit adds its time."""
    runs = sum(len(times) for times, ok in zip(result["unit_s"], result["ok"]) if ok)
    return runs / sum(t for times in result["unit_s"] for t in times)


def correct_runs(result: dict) -> list:
    """The times of the units whose verdict is right, a list per unit."""
    return [times for times, ok in zip(result["unit_s"], result["ok"]) if ok]


def tail(values: list) -> tuple:
    """The highest percentile of the ladder with at least ten samples beyond
    it, and its value; the maximum when no percentile has them."""
    n, ordered = len(values), sorted(values)
    for p in (95, 90, 75, 50):
        if n * (100 - p) >= 1000:
            return p, ordered[math.ceil(p * n / 100) - 1]
    return 100, ordered[-1]


def end_to_end(setup: list, result: dict) -> dict:
    units = correct_runs(result)
    if not units:
        raise BenchError("no unit gave a right verdict")
    runs = [t for times in units for t in times]
    p, tail_s = tail(runs)
    values = {
        "setup_s": (statistics.median(setup), len(setup)),
        "unit_p50_s": (statistics.median(statistics.fmean(ts) for ts in units), len(runs)),
        "unit_tail_s": (tail_s, len(runs)),
        "units_per_s": (units_per_s(result), len(runs)),
        "peak_rss_mb": (result["peak_rss_mb"], 1),
    }
    out = {m["name"]: {"value": values[m["name"]][0], "unit": m["unit"],
                       "samples": values[m["name"]][1]} for m in SPEC["end_to_end"]}
    if "unit_tail_s" in out:
        out["unit_tail_s"]["percentile"] = p
    if any(result["warm_s"]):  # symbolic-academic's warm passes
        warm_s = [t for times in result["warm_s"] for t in times]
        out["warm_p50_s"] = {"value": statistics.median(warm_s), "unit": "s",
                             "samples": len(warm_s)}
    return out


def per_layer(untraced: dict, traced: dict) -> dict:
    stats = dict(traced["layers"])
    stats["verdict.attempted"] = len(traced["ok"])
    stats["verdict.failed"] = traced["ok"].count(False)
    slowdown = units_per_s(untraced) / units_per_s(traced)
    values = M.layer_metrics(stats, traced["f_tree_nodes"], slowdown)
    return {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
            for m in SPEC["per_layer"]}


def git_commit():
    head = W.ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = W.ROOT / ".git" / ref[5:]
    if path.is_file():
        return path.read_text().strip()
    packed = W.ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else ():
        if line.endswith(" " + ref[5:]):
            return line.split()[0]
    return None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=W.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (W.SRC / "difflat" / "__init__.py").is_file():
        print(f"error: difflat sources not found under {W.SRC}", file=sys.stderr)
        return 2

    hash_seeds = W.hash_seeds(args.workload, args.seed)
    try:
        setup = setup_times(args.workload, hash_seeds[0])
        if args.trace:
            untraced, result = measure_traced(args.workload, args.seed, hash_seeds)
        else:
            untraced = result = measure(args.workload, args.seed, args.seconds, hash_seeds)
        setup += setup_times(args.workload, hash_seeds[0])
        shown = per_layer(untraced, result) if args.trace else end_to_end(setup, result)
    except (BenchError, subprocess.TimeoutExpired, ValueError) as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 1

    attempted, failures = len(result["ok"]), result["failures"]
    failed = result["ok"].count(False)
    wrapped = untraced["wrappers_installed"]
    correct = not wrapped and not any(f["base"] for f in failures)
    f_tree = result["f_tree_nodes"]

    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload, "why": {w["name"]: w["why"] for w in SPEC["workloads"]}.get(
            args.workload, W.ACADEMIC_WHY),
        "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "rounds": len(result["unit_s"][0]),
        "hash_seeds": hash_seeds, "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": result["numpy"],
        "git_commit": git_commit(), "correct": correct,
        "attempted": attempted, "failed": failed, "fail_ratio": failed / attempted,
        "failures": failures, "wrappers_installed_untraced": wrapped,
        "F_tree_nodes": {"min": min(f_tree, default=None),
                         "max": max(f_tree, default=None)},
        "passes": result.get("passes"),
        "per_layer" if args.trace else "end_to_end": shown,
        "layer_map": [dict(zip(("layer", "moves", "on"), row)) for row in M.LAYER_MAP],
        "setup_samples_s": setup,
    }
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1))
    if args.trace:
        (RESULTS / f"{stem}-spans.json").write_text(json.dumps(result["spans"]))

    for name, m in shown.items():
        extra = f"  n={m['samples']}" if "samples" in m else ""
        if "percentile" in m:
            extra += f"  p{m['percentile']}"
        print(f"{name:40s} {m['value']:.6g} {m['unit']}{extra}")
    print(f"{'fail_ratio':40s} {failed / attempted:.6g} ratio  ({failed}/{attempted})")
    print(f"{'hash_seeds':40s} {hash_seeds}")
    if f_tree:
        print(f"{'F_tree_nodes min/max':40s} {min(f_tree)} / {max(f_tree)}")
    for f in failures[:20]:
        print(f"{'FAIL' if f['base'] else 'variant failure'}: {f['case']}: {f['why']}")
    if wrapped:
        print(f"FAIL: tracer wrappers installed during untraced runs: {wrapped}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                                  for name, m in shown.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
