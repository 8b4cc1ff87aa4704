"""Command-line interface: analyze | extend | verify | print.

Exit codes: 0 ok, 1 input, usage or analysis error (a failed trajectory
check in analyze/extend included), 2 classification assertion failure, 3
certificate failure, 4 numeric verification failure (verify).
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from pathlib import Path

from .analysis import (
    AnalysisError, AnalyzeOptions, ClassificationError, FlatCandidate,
    analyze, verification_trajectory,
)
from .expr import EvalError
from .extension import build_combined, certify_linearizing
from .model import ModelError
from .numeric import SEED, SimulationError, fold_residuals, verify_parameterization
from .parsing import ParseError
from .sysfile import (
    SystemFile, SystemFileError, load_system, loads_system, print_system,
)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_CLASSIFICATION = 2
EXIT_CERTIFICATE = 3
EXIT_VERIFY = 4

_INPUT_ERRORS = (SystemFileError, ParseError, ModelError, OSError)


def _emit(obj, as_json: bool):
    if as_json:
        print(json.dumps(obj, sort_keys=True, indent=2))
    else:
        _emit_text(obj)


def _emit_text(obj: dict, indent=0):
    """Each key and its value, aligned: a non-empty dict value recurses,
    indented, and every other value prints inline (`_fmt`)."""
    pad = " " * indent
    width = max((len(str(k)) for k in obj), default=0)
    for k, v in obj.items():
        if isinstance(v, dict) and v:
            print(f"{pad}{k}:")
            _emit_text(v, indent + 2)
        else:
            print(f"{pad}{str(k):<{width}}  {_fmt(v)}")


def _fmt(v):
    if isinstance(v, float):
        return f"{v:.6g}"
    if isinstance(v, list):
        return "[" + ", ".join(_fmt(x) for x in v) + "]"
    return str(v)


def cmd_analyze(args) -> int:
    sf = load_system(args.file)
    report = analyze(sf.model, sf.candidate, sf.options)
    _emit(report.to_json(), args.json)
    return EXIT_OK


def cmd_extend(args) -> int:
    sf = load_system(args.file)
    report = analyze(sf.model, sf.candidate, sf.options)
    ext = build_combined(report.model, sf.candidate, report.tower)
    cert = certify_linearizing(ext)

    header = (f"extended system: {sf.model.name} with d1 = {ext.d1} "
              f"prelongation, d2 = {ext.d2} prolongation steps")
    out_sf = SystemFile(model=ext.model,
                        candidate=FlatCandidate(phi=ext.output),
                        options=AnalyzeOptions())
    text = print_system(out_sf, header=header)

    # round trip: the emitted file re-parses to a print-stable model that
    # supports the identical certificate
    from dataclasses import replace
    reparsed = loads_system(text, path="<emitted>")
    if print_system(reparsed, header=header) != text:
        raise AnalysisError("emitted extended system is not print-stable")
    recert = certify_linearizing(replace(ext, model=reparsed.model))
    if recert.to_json() != cert.to_json():
        raise AnalysisError("re-parsed extended system certifies differently")

    out_path = args.out or (Path(args.file).stem + "_ext.sys")
    Path(out_path).write_text(text, encoding="utf-8")
    payload = {
        "schema": "1",
        "extended_file": str(out_path),
        "dimension": ext.model.n,
        "d1": ext.d1, "d2": ext.d2,
        "certificate": cert.to_json(),
        "roundtrip": "ok",
    }
    _emit(payload, args.json)
    return EXIT_OK if cert.passed else EXIT_CERTIFICATE


def cmd_verify(args) -> int:
    sf = load_system(args.file)
    sf.options.skip_verification = True
    report = analyze(sf.model, sf.candidate, sf.options)
    param, model = report.parameterization, report.model
    first, resample = random.Random(SEED), random.Random(SEED + 1)
    reports = []
    for t in range(args.trials or 1):
        rng = first if args.trials else None
        for _ in range(11):
            try:
                traj = verification_trajectory(model, param.tower.indices, args.steps,
                                               rng, sf.options.input_boxes)
                reports.append(verify_parameterization(
                    model, sf.candidate, param, traj, range(0, args.steps)))
                break
            except (SimulationError, EvalError) as ex:
                if rng is None:
                    # the constant trajectory is what was asked for; a pole on
                    # it (a singular parameterization locus) is a hard failure
                    print(f"constant trajectory hits a pole: {ex}",
                          file=sys.stderr)
                    return EXIT_VERIFY
                rng = resample
        else:
            print(f"trial {t}: pole persisted after 10 resamples", file=sys.stderr)
            return EXIT_VERIFY
    worst = fold_residuals((r.worst_k, r.max_residual_x, r.max_residual_u)
                           for r in reports)
    payload = {"schema": "1", "trials": len(reports), "steps": args.steps,
               **worst.to_json()}
    _emit(payload, args.json)
    return EXIT_OK if worst.passed else EXIT_VERIFY


def cmd_print(args) -> int:
    sf = load_system(args.file)
    sys.stdout.write(print_system(sf))
    return EXIT_OK


def _count(low):
    """An argparse int type that rejects a count below `low` (a usage error)."""
    def parse(text):
        if int(text) < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {text}")
        return int(text)
    parse.__name__ = "int"    # argparse names the type in its error
    return parse


_FLAGS = {
    "--json": dict(action="store_true", help="emit machine-readable JSON"),
    "--out": dict(help="output path of the extended system"),
    "--steps": dict(type=_count(1), default=30),
    "--trials": dict(type=_count(0), default=5),
}


def make_parser() -> argparse.ArgumentParser:
    """One subcommand each, with only the flags its command reads."""
    p = argparse.ArgumentParser(
        prog="difflat",
        description="flatness analysis and exact linearization of "
                    "discrete-time two-input systems")
    sub = p.add_subparsers(dest="command", required=True)
    for name, fn, flags in (
            ("analyze", cmd_analyze, ("--json",)),
            ("extend", cmd_extend, ("--json", "--out")),
            ("verify", cmd_verify, ("--json", "--steps", "--trials")),
            ("print", cmd_print, ())):
        sp = sub.add_parser(name)
        sp.add_argument("file")
        for flag in flags:
            sp.add_argument(flag, **_FLAGS[flag])
        sp.set_defaults(fn=fn)
    return p


def main(argv=None) -> int:
    try:
        args = make_parser().parse_args(argv)
    except SystemExit as ex:    # a usage error is an input error; --help is 0
        return EXIT_INPUT if ex.code else EXIT_OK
    try:
        return args.fn(args)
    except ClassificationError as ex:
        print(f"classification assertion failed: {ex}", file=sys.stderr)
        return EXIT_CLASSIFICATION
    except _INPUT_ERRORS as ex:
        print(f"input error: {ex}", file=sys.stderr)
        return EXIT_INPUT
    except AnalysisError as ex:
        print(f"analysis error: {ex}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    raise SystemExit(main())
