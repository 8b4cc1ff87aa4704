"""One benchmark interpreter. run.py starts it with PYTHONHASHSEED set and
`src/` on the path; it prints one JSON object as its last line.

    child.py setup <workload>                       import difflat, parse, exit
    child.py academic --trace 0|1                   one cold pass (+ warm pass)
    child.py loop <workload> --seed N --trace 0|1 --blocks B --seconds S
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from dataclasses import replace

import workloads as W

sys.path.insert(0, str(W.SRC))

# Functions are called as attributes of the package, never imported by name,
# so that the tracer's wrappers are the ones called.
import difflat  # noqa: E402
from difflat import AnalysisError, AnalyzeOptions, FlatCandidate, SystemFile  # noqa: E402

import tracer as T  # noqa: E402


class RoundTripError(Exception):
    pass


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def extend_pass(sf, roundtrip: bool):
    """The work of `difflat extend`: analyze, extend, certify, and optionally
    print the extended system, re-parse it and certify it again."""
    report = difflat.analyze(sf.model, sf.candidate, sf.options)
    ext = difflat.build_combined(report.model, sf.candidate, report.tower)
    cert = difflat.certify_linearizing(ext, sf.options)
    if roundtrip:
        out = SystemFile(model=ext.model, candidate=FlatCandidate(phi=ext.output),
                         options=AnalyzeOptions())
        text = difflat.print_system(out)
        again = difflat.loads_system(text, path="<emitted>")
        if difflat.print_system(again) != text:
            raise RoundTripError("emitted extended system is not print-stable")
        recert = difflat.certify_linearizing(replace(ext, model=again.model), sf.options)
        if recert.to_json() != cert.to_json():
            raise RoundTripError("re-parsed extended system certifies differently")
    return report, cert


class Runner:
    """Times each unit of a deck once a round, checks its verdict, and feeds
    the tracer. With `repeat`, every timed unit is run again at once, warm."""

    def __init__(self, tracer: T.Tracer | None, repeat: bool = False):
        self.tracer, self.repeat = tracer, repeat
        self.unit_s, self.warm_s, self.ok = [], [], []  # per unit; times per round
        self.failures = []
        self.f_tree_nodes = []  # of each accepted analysis, first round

    def timed(self, i: int, name: str, base: bool, fn, check):
        """One round of unit i. `check(out, error, first_round)` returns None
        or why the verdict is wrong."""
        first = i == len(self.unit_s)
        if first:
            self.unit_s.append([])
            self.warm_s.append([])
            self.ok.append(True)
        if self.tracer:
            self.tracer.unit = i
        t0 = time.perf_counter()
        try:
            out, error = fn(), None
        except Exception as ex:  # a unit's failure is recorded, the run goes on
            out, error = None, ex
        self.unit_s[i].append(time.perf_counter() - t0)
        why = check(out, error, first)
        if why is not None and self.ok[i]:
            self.ok[i] = False
            self.failures.append({"case": name, "base": base, "why": why})
        if self.repeat:
            t0 = time.perf_counter()
            try:
                fn()
            except Exception:  # the verdict was checked on the timed run
                pass
            self.warm_s[i].append(time.perf_counter() - t0)

    def case(self, i: int, case: W.Case, sf, roundtrip=False):
        """An extend pass on a parsed case, checked against its known answer."""
        def check(out, error, first):
            if error is not None:
                if self.tracer and first and isinstance(error, AnalysisError):
                    self.tracer.observe_rejection(error)
                if case.answer is None and isinstance(error, AnalysisError):
                    return None
                return f"{type(error).__name__}: {error}".splitlines()[0]
            report, cert = out
            if first:
                if self.tracer:
                    self.tracer.observe_report(report)
                param = report.parameterization
                if param.F_x is not None:
                    self.f_tree_nodes.append(
                        T.tree_nodes(tuple(param.F_x) + tuple(param.F_u))[0])
            return W.check(case.answer, report, cert)

        self.timed(i, case.name, case.base, lambda: extend_pass(sf, roundtrip), check)

    def result(self, **extra) -> dict:
        out = {"unit_s": self.unit_s, "warm_s": self.warm_s, "ok": self.ok,
               "failures": self.failures, "f_tree_nodes": self.f_tree_nodes,
               "peak_rss_mb": _peak_rss_mb(),
               "wrappers_installed": T.installed_wrappers(),
               "numpy": sys.modules["numpy"].__version__, **extra}
        if self.tracer:
            out["layers"] = self.tracer.layer_stats()
            out["spans"] = self.tracer.compact_spans()
        return out


def _parse_all(sources: dict) -> dict:
    return {name: difflat.loads_system(text, path=f"{name}.sys")
            for name, text in sources.items()}


def academic(trace: bool) -> dict:
    """One cold extend pass with the round trip (then, untraced, a warm one:
    warm_p50_s is symbolic-academic's alone)."""
    sf = _parse_all(W.workload_sources("symbolic-academic"))["academic"]
    case = W.Case("academic/base", W.source("academic"), W.KNOWN["academic"], base=True)
    tracer = T.Tracer() if trace else None
    runner = Runner(tracer, repeat=not trace)
    if tracer:
        tracer.install()
    try:
        runner.case(0, case, sf, roundtrip=True)
    finally:
        if tracer:
            tracer.uninstall()
    return runner.result()


def _vtol_analysis():
    """Analyze vtol once, with its verdict checked."""
    sf = _parse_all(W.workload_sources("implicit-vtol"))["vtol"]
    report = difflat.analyze(sf.model, sf.candidate, sf.options)
    ext = difflat.build_combined(report.model, sf.candidate, report.tower)
    why = W.check(W.KNOWN["vtol"], report, difflat.certify_linearizing(ext, sf.options))
    if why is not None:
        raise SystemExit(f"vtol analysis is wrong: {why}")
    return sf, report


def _vtol_windows(sf, report, seed: int, blocks: int) -> list:
    """One seeded trajectory a block; a one-step verification per step."""
    model, cand, param = report.model, sf.candidate, report.parameterization
    idx = report.indices
    H, K = max(idx.r1) + 1, W.VTOL_STEPS + max(idx.r2) + 1
    x0 = [model.point[v] for v in model.state_vars]
    windows = []
    for block in range(blocks):
        us = W.vtol_inputs(seed, block, sf.options.input_boxes, H + K)
        traj = difflat.simulate(model, x0, us, H, K)
        for k in range(W.VTOL_STEPS):
            windows.append((f"vtol/block{block}/k{k}",
                            lambda traj=traj, k=k: difflat.verify_parameterization(
                                model, cand, param, traj, range(k, k + 1))))
    return windows


def _verified(out, error, first):
    if error is not None:
        return f"{type(error).__name__}: {error}".splitlines()[0]
    if not out.passed:
        return f"residual {max(out.max_residual_x, out.max_residual_u):.3g} > {out.tolerance}"
    return None


def clear_expr_caches():
    """Empty difflat.expr's process-wide caches, where they exist."""
    for fn in (difflat.expr.differentiate, getattr(difflat.expr, "_key", None)):
        if hasattr(fn, "cache_clear"):
            fn.cache_clear()


MIN_ROUNDS = 2


def loop(workload: str, seed: int, trace: bool, blocks: int, seconds: float) -> dict:
    """Passes (rounds) over a deck of `blocks` blocks of units: one when
    traced, else as many as fit in `seconds` and at least MIN_ROUNDS. Every
    round of corpus-sweep starts with empty expression caches, which then
    grow over the deck; as a traced run is one round, the tracer's cache
    statistics start after the caches are emptied."""
    tracer = T.Tracer() if trace else None
    runner = Runner(tracer)
    if workload == "implicit-vtol":
        sf, report = _vtol_analysis()
        if tracer:
            tracer.observe_report(report)
    else:
        _parse_all(W.workload_sources(workload))  # imports and parser warm, as in setup
        cases = W.corpus_deck(seed, blocks)
        clear_expr_caches()
    if tracer:
        tracer.install()
    start = time.perf_counter()
    try:
        if workload == "implicit-vtol":
            windows = _vtol_windows(sf, report, seed, blocks)
        rounds_start, r = time.perf_counter(), 0

        def another_round() -> bool:
            if tracer:
                return r == 0
            if r < MIN_ROUNDS:
                return True
            # one more round at the mean pace so far still fits in `seconds`
            return (time.perf_counter() - rounds_start) * (r + 1) / r <= seconds

        while another_round():
            if workload == "implicit-vtol":
                for i, (name, verify) in enumerate(windows):
                    runner.timed(i, name, True, verify, _verified)
            else:
                if r:
                    clear_expr_caches()
                for i, case in enumerate(cases):
                    runner.case(i, case, difflat.loads_system(case.text))
            r += 1
    finally:
        if tracer:
            tracer.uninstall()
    return runner.result(loop_s=time.perf_counter() - start)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("mode", choices=("setup", "academic", "loop"))
    ap.add_argument("workload", nargs="?", choices=W.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--blocks", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=0.0)
    args = ap.parse_args(argv)
    if not difflat.__file__.startswith(str(W.SRC)):
        raise SystemExit(f"difflat imported from {difflat.__file__}, not {W.SRC}")
    if args.mode == "setup":
        _parse_all(W.workload_sources(args.workload))
        print("ready", flush=True)
        return 0
    if args.mode == "academic":
        out = academic(bool(args.trace))
    else:
        out = loop(args.workload, args.seed, bool(args.trace), args.blocks, args.seconds)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
