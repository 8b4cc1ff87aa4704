"""System-definition files.

Sections appear in a fixed order; later optional sections may be omitted:

    [params]            name = value           (numeric, may use pi; a name
                        is an identifier naming no function, no variable
                        family and not pi)
    [dims]              n = ..., m = ...       (both at least 1; no other row)
    [dynamics]          <state>+ = expr        (n rows; states on the LHS)
    [extension]         g<j> = expr            (optional, m rows)
    [inverse]           <state> = expr / <input> = expr   (optional; applied
                        form: the backward-shifted coordinate over the current
                        state and zeta<j>[-1])
    [output]            y<j> = expr            (m rows)
    [parameterization]  <state> = expr / <input> = expr over y-shifts (optional)
    [equilibrium]       <state|input> = value  (missing entries default to 0)
    [simulation]        u<j> = lo .. hi        (optional input boxes)

"#" starts a comment; files are UTF-8 and newline-delimited. Plain systems
write states x1..xn; extended systems emitted by this library use chain
states like zetabar1[-2] or ubar1[1] on the dynamics LHS. The input variables
are the dynamics leaves that are not states (u1..um in a plain system,
ubar1, ubar2 after an input transform).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .analysis import AnalyzeOptions, FlatCandidate
from .expr import (
    _FAMILY_RANK, EvalError, Par, Var, evaluate, to_text, vars_of,
)
from .model import SystemModel
from .parsing import DimTable, ParseError, parameter_name_error, parse_expression

__all__ = ["SystemFile", "load_system", "loads_system", "print_system",
           "SystemFileError"]

_SECTION_ORDER = ["params", "dims", "dynamics", "extension", "inverse",
                  "output", "parameterization", "equilibrium", "simulation"]
_REQUIRED = {"dims", "dynamics", "output", "equilibrium"}


class SystemFileError(Exception):
    def __init__(self, message, line=None):
        super().__init__(f"line {line}: {message}" if line else message)
        self.line = line


@dataclass
class SystemFile:
    """Parsed file: the model, the flat-output candidate, and run options."""

    model: SystemModel
    candidate: FlatCandidate
    options: AnalyzeOptions
    path: str = ""


def _split_sections(text: str):
    """Rows {name: [(lhs, rhs, line)]} and header lines {name: line}; a row
    whose left-hand side its section already has is an error at its line."""
    sections = []
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise SystemFileError("malformed section header", lineno)
            name = line[1:-1].strip().lower()
            if name not in _SECTION_ORDER:
                raise SystemFileError(f"unknown section [{name}]", lineno)
            if any(name == seen for seen, *_ in sections):
                raise SystemFileError(f"duplicate section [{name}]", lineno)
            if current is not None:
                prev = _SECTION_ORDER.index(current[0])
                if _SECTION_ORDER.index(name) <= prev:
                    raise SystemFileError(
                        f"section [{name}] out of order (sections follow "
                        f"{', '.join(_SECTION_ORDER)})", lineno)
            current = (name, [], lineno)
            sections.append(current)
            continue
        if current is None:
            raise SystemFileError("content before the first section", lineno)
        if "=" not in line:
            raise SystemFileError("expected 'name = expression'", lineno)
        lhs, rhs = (part.strip() for part in line.split("=", 1))
        if any(lhs == seen for seen, _, _ in current[1]):
            raise SystemFileError(f"[{current[0]}] defines {lhs} twice", lineno)
        current[1].append((lhs, rhs, lineno))
    return ({name: rows for name, rows, _ in sections},
            {name: line for name, _, line in sections})


def _parse(text: str, table: DimTable, line: int, what: str = ""):
    """parse_expression of one row; a ParseError is raised as a
    SystemFileError, whose message keeps the parse error's text (it names
    the line and column already) and whose `.line` is the row's, and an
    exact division by zero as one naming the row's line."""
    try:
        return parse_expression(text, table, line=line)
    except ParseError as ex:
        err = SystemFileError(f"{what}{ex}")
        err.line = ex.line
        raise err from ex
    except EvalError as ex:
        raise SystemFileError(f"{what}{ex}", line) from ex


def _eval_const(text: str, params: dict, lineno: int) -> float:
    table = DimTable(0, 0, frozenset(params), allow_y=False)
    e = _parse(text, table, lineno, "bad numeric expression: ")
    bindings = {Par(k): float(v) for k, v in params.items()}
    bindings[Par("pi")] = math.pi
    try:
        return evaluate(e, bindings)
    except EvalError as ex:
        raise SystemFileError(f"bad numeric expression: {ex}", lineno) from ex


def loads_system(text: str, path: str = "") -> SystemFile:
    sections, headers = _split_sections(text)
    missing = _REQUIRED - set(sections)
    if missing:
        raise SystemFileError(f"missing sections: {', '.join(sorted(missing))}")

    params = {}
    for lhs, rhs, ln in sections.get("params", []):
        why = parameter_name_error(lhs)
        if why:
            raise SystemFileError(why, ln)
        params[lhs] = _eval_const(rhs, params, ln)

    dims = {lhs: (rhs, ln) for lhs, rhs, ln in sections["dims"]}
    for lhs, (_, ln) in dims.items():
        if lhs not in ("n", "m"):
            raise SystemFileError(f"[dims] declares only n and m, got {lhs}", ln)
    try:
        n, m = int(dims["n"][0]), int(dims["m"][0])
    except (KeyError, ValueError) as ex:
        raise SystemFileError(f"[dims] must declare integer n and m: {ex}",
                              headers["dims"])
    for name, size in (("n", n), ("m", m)):
        if size < 1:
            raise SystemFileError(f"[dims] {name} = {size} must be positive", dims[name][1])

    table = DimTable(n, m, frozenset(params))
    defined = set()    # (section, coordinate): x1 and x1[0] are one coordinate

    def parse_lhs_var(section, text_, ln):
        e = _parse(text_, table, ln)
        if not isinstance(e, Var):
            raise SystemFileError(f"{text_!r} is not a coordinate", ln)
        if (section, e) in defined:
            raise SystemFileError(f"[{section}] defines {to_text(e)} twice", ln)
        defined.add((section, e))
        return e

    # dynamics: LHS "<state>+"
    dyn = sections["dynamics"]
    if len(dyn) != n:
        raise SystemFileError(
            f"[dynamics] has {len(dyn)} rows, n = {n}",
            dyn[0][2] if dyn else headers["dynamics"])
    state_vars, f = [], []
    for lhs, rhs, ln in dyn:
        if not lhs.endswith("+"):
            raise SystemFileError("dynamics rows are written '<state>+ = expr'", ln)
        state_vars.append(parse_lhs_var("dynamics", lhs[:-1].strip(), ln))
        f.append(_parse(rhs, table, ln))

    seen = set(state_vars)
    leaves = set()
    for e in f:
        leaves |= {v for v in vars_of(e) if v not in seen}
    input_vars = sorted(
        leaves, key=lambda v: (_FAMILY_RANK[v.family], v.component, v.shift))
    if len(input_vars) != m:
        raise SystemFileError(
            f"cannot infer {m} input variables from the dynamics "
            f"(found {[to_text(v) for v in input_vars]})", dyn[0][2])

    def parse_rows(name, expect=None):
        rows = sections.get(name, [])
        out = []
        for lhs, rhs, ln in rows:
            out.append((lhs, _parse(rhs, table, ln), ln))
        if expect is not None and rows and len(rows) != expect:
            raise SystemFileError(
                f"[{name}] has {len(rows)} rows, expected {expect}",
                rows[0][2])
        return out

    g = None
    ext_rows = parse_rows("extension", expect=m)
    if ext_rows:
        by_name = {lhs: e for lhs, e, _ in ext_rows}
        try:
            g = tuple(by_name[f"g{j + 1}"] for j in range(m))
        except KeyError as ex:
            raise SystemFileError(f"[extension] must define g1..g{m}: missing {ex}",
                                  headers["extension"])

    def coordinate_rows(name, rows):    # (state rows, input rows)
        by_var = {parse_lhs_var(name, lhs, ln): e for lhs, e, ln in rows}
        try:
            return (tuple(by_var[v] for v in state_vars),
                    tuple(by_var[v] for v in input_vars))
        except KeyError as ex:
            raise SystemFileError(f"[{name}] misses a coordinate: {ex}",
                                  headers[name])

    psi_x = psi_u = None
    inv_rows = parse_rows("inverse")
    if inv_rows:
        if g is None:
            raise SystemFileError("[inverse] needs the [extension] map g",
                                  headers["inverse"])
        if len(inv_rows) != n + m:
            raise SystemFileError(
                f"[inverse] needs {n + m} rows (all states and inputs), "
                f"got {len(inv_rows)}", inv_rows[0][2])
        psi_x, psi_u = coordinate_rows("inverse", inv_rows)

    out_rows = parse_rows("output", expect=m)
    by_name = {lhs: e for lhs, e, _ in out_rows}
    try:
        phi = tuple(by_name[f"y{j + 1}"] for j in range(m))
    except KeyError as ex:
        raise SystemFileError(f"[output] must define y1..y{m}: missing {ex}",
                              headers["output"])

    user_F = None
    par_rows = parse_rows("parameterization")
    if par_rows:
        user_F = coordinate_rows("parameterization", par_rows)

    point = dict.fromkeys([*state_vars, *input_vars], 0.0)
    for lhs, rhs, ln in sections.get("equilibrium", []):
        v = parse_lhs_var("equilibrium", lhs, ln)
        if v not in point:
            raise SystemFileError(
                f"equilibrium binds {lhs}, which is not a coordinate", ln)
        point[v] = _eval_const(rhs, params, ln)

    boxes = {}
    for lhs, rhs, ln in sections.get("simulation", []):
        v = parse_lhs_var("simulation", lhs, ln)
        try:
            j = list(input_vars).index(v) + 1
        except ValueError:
            raise SystemFileError(
                f"[simulation] boxes apply to input variables, got {lhs}", ln)
        if ".." not in rhs:
            raise SystemFileError("input box syntax is 'lo .. hi'", ln)
        lo, hi = rhs.split("..", 1)
        boxes[j] = (_eval_const(lo.strip(), params, ln),
                    _eval_const(hi.strip(), params, ln))

    name = path.rsplit("/", 1)[-1].rsplit(".", 1)[0] if path else "system"
    model = SystemModel(f=tuple(f), state_vars=tuple(state_vars),
                        input_vars=tuple(input_vars), g=g, psi_x=psi_x,
                        psi_u=psi_u, params=params, point=point, name=name)
    # every analysis starts at the equilibrium: f and g must evaluate there
    at = model.analysis_point()
    for e, ln in ([(fi, ln) for fi, (_, _, ln) in zip(f, dyn)]
                  + [(gj, ln) for _, gj, ln in ext_rows]):
        try:
            evaluate(e, at)
        except EvalError as ex:
            raise SystemFileError(f"at the equilibrium: {ex}", ln) from ex
    cand = FlatCandidate(phi=phi, user_F=user_F)
    opts = AnalyzeOptions(input_boxes=boxes)
    return SystemFile(model=model, candidate=cand, options=opts, path=path)


def load_system(path: str) -> SystemFile:
    with open(path, "r", encoding="utf-8") as fh:
        return loads_system(fh.read(), path=path)


def _fmt_value(v: float) -> str:
    if v == int(v) and abs(v) < 1e15:
        return str(int(v))
    fr = Fraction(v).limit_denominator(10 ** 9)
    if float(fr) == v and fr.denominator <= 10000:
        return f"{fr.numerator}/{fr.denominator}"
    return repr(v)


def print_system(sf: SystemFile, header: str = "") -> str:
    """Emit a file that parses back to the same model (round-trippable)."""
    model, cand = sf.model, sf.candidate
    lines = []
    if header:
        lines += [f"# {h}" for h in header.splitlines()]
    shown = {k: v for k, v in model.params.items() if k != "pi"}
    if shown:
        lines.append("[params]")
        lines += [f"{k} = {_fmt_value(v)}" for k, v in shown.items()]
        lines.append("")
    lines += ["[dims]", f"n = {model.n}", f"m = {model.m}", ""]
    lines.append("[dynamics]")
    for v, fi in zip(model.state_vars, model.f):
        lines.append(f"{to_text(v)}+ = {to_text(fi)}")
    lines.append("")
    if model.g is not None:
        lines.append("[extension]")
        for j, gj in enumerate(model.g):
            lines.append(f"g{j + 1} = {to_text(gj)}")
        lines.append("")
    if model.psi_x is not None:
        lines.append("[inverse]")
        for v, e in zip(model.coordinates, (*model.psi_x, *model.psi_u)):
            lines.append(f"{to_text(v)} = {to_text(e)}")
        lines.append("")
    lines.append("[output]")
    for j, p in enumerate(cand.phi):
        lines.append(f"y{j + 1} = {to_text(p)}")
    lines.append("")
    if cand.user_F is not None:
        lines.append("[parameterization]")
        for v, e in zip(model.coordinates, (*cand.user_F[0], *cand.user_F[1])):
            lines.append(f"{to_text(v)} = {to_text(e)}")
        lines.append("")
    lines.append("[equilibrium]")
    bound = [v for v in model.coordinates if model.point.get(v, 0.0) != 0.0]
    lines += [f"{to_text(v)} = {_fmt_value(model.point[v])}" for v in bound]
    if not bound:
        lines.append("# all coordinates at the origin")
    if sf.options.input_boxes:
        lines.append("")
        lines.append("[simulation]")
        for j, (lo, hi) in sorted(sf.options.input_boxes.items()):
            v = model.input_vars[j - 1]
            lines.append(f"{to_text(v)} = {_fmt_value(lo)} .. {_fmt_value(hi)}")
    return "\n".join(lines) + "\n"
