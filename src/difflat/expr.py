"""Immutable symbolic expressions over shifted variables.

The coordinate space is (..., zeta_[-1], x, u, u_[1], ...): state components,
input components and their forward shifts, and backward histories of the
extension map's g-values. Expressions are canonical by construction: sums and
products are flattened, expanded and sorted under a fixed total order on
leaves, rational constants are folded exactly, tan/cot are rewritten as
sin/cos ratios, and sin^2 + cos^2 pairs collapse. Structural equality of
canonical trees is the semantic equality the rest of the library relies on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterable, Mapping, Sequence, Union

__all__ = [
    "Expr", "Num", "Par", "Var", "Add", "Mul", "Pow", "Fun",
    "ExprError", "EvalError", "UnboundLeafError", "PoleError",
    "FAMILIES", "num", "par", "var", "add", "sub", "neg", "mul", "div",
    "pow_", "sin", "cos", "tan", "cot", "canonical", "differentiate",
    "substitute", "evaluate", "jacobian", "vars_of", "params_of",
    "shift_vars", "to_text", "ZERO", "ONE",
]

FAMILIES = ("x", "u", "y", "zeta", "ubar", "zetabar")
# trailing entries are internal slot families used by the inverse-map solver;
# they never appear in parsed or printed user-facing expressions
_FAMILY_RANK = {f: i for i, f in enumerate(FAMILIES + ("nxt", "gsl"))}

Rat = Union[int, Fraction]


class ExprError(Exception):
    """Malformed expression construction."""


class EvalError(ExprError):
    """Numeric evaluation failed."""


class UnboundLeafError(EvalError):
    """A variable or parameter leaf had no binding."""


class PoleError(EvalError):
    """Division by zero (includes tan/cot poles after canonicalization)."""


class Expr:
    """Base class; all nodes are immutable and hashable.

    Nodes cache their structural hash at construction: canonical trees share
    subexpressions heavily, and the default recursive dataclass hash (which
    also pays for exact-rational hashing) dominates profiles otherwise.
    """

    def __hash__(self):
        return self._h

    def __add__(self, other):
        return add(self, _as_expr(other))

    def __radd__(self, other):
        return add(_as_expr(other), self)

    def __sub__(self, other):
        return sub(self, _as_expr(other))

    def __rsub__(self, other):
        return sub(_as_expr(other), self)

    def __mul__(self, other):
        return mul(self, _as_expr(other))

    def __rmul__(self, other):
        return mul(_as_expr(other), self)

    def __truediv__(self, other):
        return div(self, _as_expr(other))

    def __rtruediv__(self, other):
        return div(_as_expr(other), self)

    def __pow__(self, k):
        return pow_(self, k)

    def __neg__(self):
        return neg(self)

    def __repr__(self):
        return to_text(self)


@dataclass(frozen=True, repr=False, eq=False)
class Num(Expr):
    value: Fraction

    def __post_init__(self):
        if not isinstance(self.value, Fraction):
            object.__setattr__(self, "value", Fraction(self.value))
        # fractions are normalized, so the integer pair is a faithful and
        # much cheaper hash than Fraction.__hash__
        object.__setattr__(self, "_h", hash(
            (1, self.value.numerator, self.value.denominator)))

    def __eq__(self, other):
        return (self is other) or (type(other) is Num and self.value == other.value)

    __hash__ = Expr.__hash__


@dataclass(frozen=True, repr=False, eq=False)
class Par(Expr):
    name: str

    def __post_init__(self):
        object.__setattr__(self, "_h", hash((2, self.name)))

    def __eq__(self, other):
        return (self is other) or (type(other) is Par and self.name == other.name)

    __hash__ = Expr.__hash__


@dataclass(frozen=True, repr=False, eq=False)
class Var(Expr):
    """A shifted variable: family, 1-based component, signed shift order."""

    family: str
    component: int
    shift: int = 0

    def __post_init__(self):
        if self.family not in _FAMILY_RANK:
            raise ExprError(f"unknown variable family {self.family!r}")
        if self.component < 1:
            raise ExprError(f"component index must be >= 1, got {self.component}")
        object.__setattr__(
            self, "_h", hash((3, self.family, self.component, self.shift)))

    def __eq__(self, other):
        return (self is other) or (
            type(other) is Var and self.family == other.family
            and self.component == other.component and self.shift == other.shift)

    __hash__ = Expr.__hash__

    def shifted(self, k: int) -> "Var":
        return Var(self.family, self.component, self.shift + k)


@dataclass(frozen=True, repr=False, eq=False)
class Add(Expr):
    terms: tuple

    def __post_init__(self):
        object.__setattr__(self, "_h", hash((4, self.terms)))

    def __eq__(self, other):
        return (self is other) or (
            type(other) is Add and self._h == other._h
            and self.terms == other.terms)

    __hash__ = Expr.__hash__


@dataclass(frozen=True, repr=False, eq=False)
class Mul(Expr):
    factors: tuple

    def __post_init__(self):
        object.__setattr__(self, "_h", hash((5, self.factors)))

    def __eq__(self, other):
        return (self is other) or (
            type(other) is Mul and self._h == other._h
            and self.factors == other.factors)

    __hash__ = Expr.__hash__


@dataclass(frozen=True, repr=False, eq=False)
class Pow(Expr):
    base: Expr
    exp: int

    def __post_init__(self):
        object.__setattr__(self, "_h", hash((6, self.base, self.exp)))

    def __eq__(self, other):
        return (self is other) or (
            type(other) is Pow and self._h == other._h
            and self.exp == other.exp and self.base == other.base)

    __hash__ = Expr.__hash__


@dataclass(frozen=True, repr=False, eq=False)
class Fun(Expr):
    name: str  # "sin" | "cos" in canonical trees
    arg: Expr

    def __post_init__(self):
        object.__setattr__(self, "_h", hash((7, self.name, self.arg)))

    def __eq__(self, other):
        return (self is other) or (
            type(other) is Fun and self._h == other._h
            and self.name == other.name and self.arg == other.arg)

    __hash__ = Expr.__hash__


ZERO = Num(Fraction(0))
ONE = Num(Fraction(1))
_MINUS_ONE = Num(Fraction(-1))


def _as_expr(v) -> Expr:
    if isinstance(v, Expr):
        return v
    if isinstance(v, (int, Fraction)):
        return Num(Fraction(v))
    raise ExprError(f"cannot coerce {v!r} to an expression")


def num(v: Rat) -> Num:
    return Num(Fraction(v))


def par(name: str) -> Par:
    return Par(name)


def var(family: str, component: int, shift: int = 0) -> Var:
    return Var(family, component, shift)


# ---------------------------------------------------------------------------
# Total order on canonical expressions. Leaves are ordered by
# (family, component, shift); all node kinds get a rank so keys are nested
# tuples comparable across the whole tree.

@lru_cache(maxsize=None)
def _key(e: Expr):
    if isinstance(e, Num):
        return (0, e.value)
    if isinstance(e, Var):
        return (1, _FAMILY_RANK[e.family], e.component, e.shift)
    if isinstance(e, Par):
        return (2, e.name)
    if isinstance(e, Fun):
        return (3, e.name, _key(e.arg))
    if isinstance(e, Pow):
        return (4, _key(e.base), e.exp)
    if isinstance(e, Add):
        return (5, tuple(_key(t) for t in e.terms))
    if isinstance(e, Mul):
        return (6, tuple(_key(f) for f in e.factors))
    raise ExprError(f"unknown node {e!r}")


# ---------------------------------------------------------------------------
# Monomial bookkeeping: every canonical term is coeff * prod(base^exp).

def _as_coeff_monomial(e: Expr):
    """Split a canonical term into (Fraction coeff, ((base, exp), ...))."""
    if isinstance(e, Num):
        return e.value, ()
    if isinstance(e, Mul):
        fs = e.factors
        if isinstance(fs[0], Num):
            coeff, rest = fs[0].value, fs[1:]
        else:
            coeff, rest = Fraction(1), fs
        mono = tuple(
            (f.base, f.exp) if isinstance(f, Pow) else (f, 1) for f in rest
        )
        return coeff, mono
    if isinstance(e, Pow):
        return Fraction(1), ((e.base, e.exp),)
    return Fraction(1), ((e, 1),)


def _from_coeff_monomial(coeff: Fraction, mono) -> Expr:
    if coeff == 0:
        return ZERO
    factors = []
    for base, exp in mono:
        factors.append(base if exp == 1 else Pow(base, exp))
    if not factors:
        return Num(coeff)
    if coeff != 1:
        factors.insert(0, Num(coeff))
    if len(factors) == 1:
        return factors[0]
    return Mul(tuple(factors))


def _mono_key(mono):
    return tuple((_key(b), e) for b, e in mono)


# ---------------------------------------------------------------------------
# Canonicalizing constructors.

def add(*args) -> Expr:
    terms = {}  # mono key -> [coeff, mono]
    const = Fraction(0)

    def absorb(e):
        nonlocal const
        if isinstance(e, Add):
            for t in e.terms:
                absorb(t)
        elif isinstance(e, Num):
            const += e.value
        else:
            coeff, mono = _as_coeff_monomial(e)
            k = _mono_key(mono)
            if k in terms:
                terms[k][0] += coeff
            else:
                terms[k] = [coeff, mono]

    for a in args:
        absorb(_as_expr(a))

    _pythagoras(terms)
    empty = terms.pop((), None)
    if empty is not None:
        const += empty[0]
    out = []
    if const != 0:
        out.append(Num(const))
    for k in sorted(terms):
        coeff, mono = terms[k]
        if coeff != 0:
            out.append(_from_coeff_monomial(coeff, mono))
    if not out:
        return ZERO
    if len(out) == 1:
        return out[0]
    return Add(tuple(out))


def _pythagoras(terms: dict) -> None:
    """Collapse c*M*sin(a)^2 + c*M*cos(a)^2 pairs in place (to a fixpoint)."""
    changed = True
    while changed:
        changed = False
        for k in sorted(terms):
            if k not in terms:
                continue
            coeff, mono = terms[k]
            if coeff == 0:
                continue
            for i, (base, exp) in enumerate(mono):
                if not (isinstance(base, Fun) and base.name == "sin" and exp >= 2):
                    continue
                partner = _mono_shift(mono, i, base, exp, "cos")
                pk = _mono_key(partner)
                if pk not in terms or terms[pk][0] == 0 or pk == k:
                    continue
                c2 = terms[pk][0]
                reduced = _mono_drop_square(mono, i, base, exp)
                # c*M*sin^2 + c2*M*cos^2 -> c2*M + (c - c2)*M*sin^2
                terms[pk][0] = Fraction(0)
                terms[k][0] = coeff - c2
                rk = _mono_key(reduced)
                if rk in terms:
                    terms[rk][0] += c2
                else:
                    terms[rk] = [c2, reduced]
                changed = True
                break
            if changed:
                break


def _mono_shift(mono, i, base, exp, other_name):
    """Monomial with sin(a)^exp replaced by sin^(exp-2) * other(a)^2 merged in."""
    other = Fun(other_name, base.arg)
    out = []
    placed = False
    for j, (b, e) in enumerate(mono):
        if j == i:
            if exp - 2 != 0:
                out.append((b, exp - 2))
            continue
        if b == other:
            out.append((b, e + 2))
            placed = True
        else:
            out.append((b, e))
    if not placed:
        out.append((other, 2))
    out.sort(key=lambda p: _key(p[0]))
    return tuple(out)


def _mono_drop_square(mono, i, base, exp):
    out = []
    for j, (b, e) in enumerate(mono):
        if j == i:
            if exp - 2 != 0:
                out.append((b, exp - 2))
        else:
            out.append((b, e))
    return tuple(out)


def mul(*args) -> Expr:
    coeff = Fraction(1)
    powers = {}  # key(base) -> [base, exp]; Add bases carry net exponents too

    def absorb(e, exp=1):
        nonlocal coeff
        if isinstance(e, Num):
            if e.value == 0 and exp < 0:
                raise PoleError("division by exact zero")
            coeff *= e.value ** exp
        elif isinstance(e, Mul):
            for f in e.factors:
                absorb(f, exp)
        elif isinstance(e, Pow):
            absorb(e.base, e.exp * exp)
        else:
            k = _key(e)
            if k in powers:
                powers[k][1] += exp
            else:
                powers[k] = [e, exp]

    for a in args:
        absorb(_as_expr(a))

    if coeff == 0:
        return ZERO

    factors, sums = [], []
    for k in sorted(powers):
        base, exp = powers[k]
        if exp == 0:
            continue
        if isinstance(base, Add) and exp > 0:
            sums.extend([base] * exp)
        else:
            factors.append(base if exp == 1 else Pow(base, exp))

    if sums:
        # Distribute every positively-powered sum over the rest.
        head = Num(coeff) if not factors else _raw_mul([Num(coeff)] + factors)
        out = sums[0]
        for s in sums[1:]:
            out = _expand_product(out, s)
        return _expand_product(out, head)

    if not factors:
        return Num(coeff)
    if coeff != 1:
        factors.insert(0, Num(coeff))
    if len(factors) == 1:
        return factors[0]
    return Mul(tuple(factors))


def _raw_mul(factors):
    if len(factors) == 1:
        return factors[0]
    return Mul(tuple(factors))


def _expand_product(a: Expr, b: Expr) -> Expr:
    ta = a.terms if isinstance(a, Add) else (a,)
    tb = b.terms if isinstance(b, Add) else (b,)
    return add(*[mul(x, y) for x in ta for y in tb])


def pow_(base, k: int) -> Expr:
    base = _as_expr(base)
    if isinstance(k, Expr):
        if not isinstance(k, Num) or k.value.denominator != 1:
            raise ExprError("only integer exponents are supported")
        k = int(k.value)
    if not isinstance(k, int):
        raise ExprError(f"exponent must be an integer, got {k!r}")
    if k == 0:
        return ONE
    if k == 1:
        return base
    if isinstance(base, Num):
        if base.value == 0 and k < 0:
            raise PoleError("division by exact zero")
        return Num(base.value ** k)
    if isinstance(base, Pow):
        return pow_(base.base, base.exp * k)
    if isinstance(base, Mul):
        return mul(*[pow_(f, k) for f in base.factors])
    if isinstance(base, Add) and k > 1:
        out = base
        for _ in range(k - 1):
            out = _expand_product(out, base)
        return out
    return Pow(base, k)


def div(a, b) -> Expr:
    return mul(_as_expr(a), pow_(_as_expr(b), -1))


def neg(a) -> Expr:
    return mul(_MINUS_ONE, _as_expr(a))


def sub(a, b) -> Expr:
    return add(_as_expr(a), neg(b))


def _leading_sign(e: Expr) -> int:
    if isinstance(e, Num):
        return -1 if e.value < 0 else 1
    if isinstance(e, Add):
        return _leading_sign(e.terms[0])
    if isinstance(e, Mul):
        first = e.factors[0]
        return _leading_sign(first) if isinstance(first, Num) else 1
    return 1


def sin(arg) -> Expr:
    arg = _as_expr(arg)
    if arg == ZERO:
        return ZERO
    if _leading_sign(arg) < 0:
        return neg(Fun("sin", neg(arg)))
    return Fun("sin", arg)


def cos(arg) -> Expr:
    arg = _as_expr(arg)
    if arg == ZERO:
        return ONE
    if _leading_sign(arg) < 0:
        arg = neg(arg)
    return Fun("cos", arg)


def tan(arg) -> Expr:
    return div(sin(arg), cos(arg))


def cot(arg) -> Expr:
    return div(cos(arg), sin(arg))


_FUNCTIONS: Mapping[str, Callable[[Expr], Expr]] = {
    "sin": sin, "cos": cos, "tan": tan, "cot": cot,
}


def canonical(e: Expr) -> Expr:
    """Rebuild through the constructors (idempotent on canonical trees)."""
    if isinstance(e, (Num, Par, Var)):
        return e
    if isinstance(e, Add):
        return add(*[canonical(t) for t in e.terms])
    if isinstance(e, Mul):
        return mul(*[canonical(f) for f in e.factors])
    if isinstance(e, Pow):
        return pow_(canonical(e.base), e.exp)
    if isinstance(e, Fun):
        return _FUNCTIONS[e.name](canonical(e.arg))
    raise ExprError(f"unknown node {e!r}")


# ---------------------------------------------------------------------------
# Calculus, substitution, evaluation.

@lru_cache(maxsize=None)
def differentiate(e: Expr, v: Var) -> Expr:
    """Exact partial derivative, canonicalized. Canonical trees share
    subexpressions heavily across tower rows and Jacobian entries, so results
    are memoized (the operation is pure)."""
    if isinstance(e, (Num, Par)):
        return ZERO
    if isinstance(e, Var):
        return ONE if e == v else ZERO
    if isinstance(e, Add):
        return add(*[differentiate(t, v) for t in e.terms])
    if isinstance(e, Mul):
        parts = []
        for i, f in enumerate(e.factors):
            df = differentiate(f, v)
            if df == ZERO:
                continue
            rest = e.factors[:i] + e.factors[i + 1:]
            parts.append(mul(df, *rest))
        return add(*parts) if parts else ZERO
    if isinstance(e, Pow):
        db = differentiate(e.base, v)
        if db == ZERO:
            return ZERO
        return mul(num(e.exp), pow_(e.base, e.exp - 1), db)
    if isinstance(e, Fun):
        da = differentiate(e.arg, v)
        if da == ZERO:
            return ZERO
        if e.name == "sin":
            return mul(cos(e.arg), da)
        return mul(_MINUS_ONE, sin(e.arg), da)
    raise ExprError(f"unknown node {e!r}")


def substitute(e: Expr, mapping: Mapping[Union[Var, Par], Expr]) -> Expr:
    """Simultaneous substitution of leaves, then canonicalization."""
    if not mapping:
        return e

    def walk(e: Expr) -> Expr:
        if isinstance(e, (Var, Par)):
            return mapping.get(e, e)
        if isinstance(e, Num):
            return e
        if isinstance(e, Add):
            return add(*[walk(t) for t in e.terms])
        if isinstance(e, Mul):
            return mul(*[walk(f) for f in e.factors])
        if isinstance(e, Pow):
            return pow_(walk(e.base), e.exp)
        if isinstance(e, Fun):
            return _FUNCTIONS[e.name](walk(e.arg))
        raise ExprError(f"unknown node {e!r}")

    return walk(e)


def evaluate(e: Expr, point: Mapping[Union[Var, Par], float],
             memo: dict | None = None) -> float:
    """IEEE-double evaluation; every leaf must be bound.

    Canonical trees share subexpression objects heavily (common denominators,
    trig atoms), so repeated nodes are memoized by identity within one call;
    pass a shared `memo` to amortize across several expressions at one point.
    """
    if memo is None:
        memo = {}
    return _eval(e, point, memo)


def _eval(e: Expr, point, memo: dict) -> float:
    if isinstance(e, Num):
        return float(e.value)
    if isinstance(e, (Var, Par)):
        try:
            return float(point[e])
        except KeyError:
            raise UnboundLeafError(f"unbound leaf {to_text(e)}") from None
    key = id(e)
    hit = memo.get(key)
    if hit is not None:
        return hit
    if isinstance(e, Add):
        out = math.fsum(_eval(t, point, memo) for t in e.terms)
    elif isinstance(e, Mul):
        out = 1.0
        for f in e.factors:
            out *= _eval(f, point, memo)
    elif isinstance(e, Pow):
        b = _eval(e.base, point, memo)
        if b == 0.0 and e.exp < 0:
            raise PoleError(f"pole: zero base in {to_text(e)}")
        out = b ** e.exp
    elif isinstance(e, Fun):
        a = _eval(e.arg, point, memo)
        out = math.sin(a) if e.name == "sin" else math.cos(a)
    else:
        raise ExprError(f"unknown node {e!r}")
    memo[key] = out
    return out


def jacobian(rows: Sequence[Expr], cols: Sequence[Var]):
    """Matrix of partials, |rows| x |cols|, row-major."""
    return [[differentiate(r, v) for v in cols] for r in rows]


def vars_of(e: Expr) -> frozenset:
    out = set()
    _collect(e, out, Var)
    return frozenset(out)


def params_of(e: Expr) -> frozenset:
    out = set()
    _collect(e, out, Par)
    return frozenset(out)


def _collect(e, out, kind):
    if isinstance(e, kind):
        out.add(e)
    elif isinstance(e, Add):
        for t in e.terms:
            _collect(t, out, kind)
    elif isinstance(e, Mul):
        for f in e.factors:
            _collect(f, out, kind)
    elif isinstance(e, Pow):
        _collect(e.base, out, kind)
    elif isinstance(e, Fun):
        _collect(e.arg, out, kind)


def shift_vars(e: Expr, k: int, families: Iterable[str] = ("y",)) -> Expr:
    """Shift every leaf of the given families by k time steps (jet-space shift)."""
    fams = set(families)
    mapping = {v: v.shifted(k) for v in vars_of(e) if v.family in fams}
    return substitute(e, mapping)


# ---------------------------------------------------------------------------
# Printing. Output re-parses to the same canonical tree.

def _fmt_frac(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _print_var(v: Var) -> str:
    s = f"{v.family}{v.component}"
    if v.shift != 0:
        s += f"[{v.shift}]"
    return s


def _print_atom(e: Expr, parenthesize_add=True) -> str:
    if isinstance(e, Num):
        s = _fmt_frac(e.value)
        return f"({s})" if e.value < 0 or e.value.denominator != 1 else s
    if isinstance(e, Var):
        return _print_var(e)
    if isinstance(e, Par):
        return e.name
    if isinstance(e, Fun):
        return f"{e.name}({to_text(e.arg)})"
    if isinstance(e, Add):
        s = to_text(e)
        return f"({s})" if parenthesize_add else s
    if isinstance(e, Pow):
        return f"{_print_atom(e.base)}^{e.exp}"
    if isinstance(e, Mul):
        return f"({to_text(e)})"
    raise ExprError(f"unknown node {e!r}")


def _print_term(coeff: Fraction, mono) -> str:
    """One canonical term as numerator/denominator text, sign excluded."""
    coeff = abs(coeff)
    nums, dens = [], []
    if coeff.numerator != 1:
        nums.append(str(coeff.numerator))
    if coeff.denominator != 1:
        dens.append(str(coeff.denominator))
    for base, exp in mono:
        target = nums if exp > 0 else dens
        e = abs(exp)
        target.append(_print_atom(base) + (f"^{e}" if e != 1 else ""))
    top = "*".join(nums) if nums else "1"
    if not dens:
        return top
    bottom = dens[0] if len(dens) == 1 else "(" + "*".join(dens) + ")"
    return f"{top}/{bottom}"


def to_text(e: Expr) -> str:
    if isinstance(e, Add):
        parts = []
        for i, t in enumerate(e.terms):
            coeff, mono = _as_coeff_monomial(t)
            body = _print_term(coeff, mono)
            if i == 0:
                parts.append(f"-{body}" if coeff < 0 else body)
            else:
                parts.append(("- " if coeff < 0 else "+ ") + body)
        return " ".join(parts)
    if isinstance(e, (Mul, Pow)):
        coeff, mono = _as_coeff_monomial(e)
        body = _print_term(coeff, mono)
        return f"-{body}" if coeff < 0 else body
    if isinstance(e, Num):
        return _fmt_frac(e.value)
    if isinstance(e, Var):
        return _print_var(e)
    if isinstance(e, Par):
        return e.name
    if isinstance(e, Fun):
        return f"{e.name}({to_text(e.arg)})"
    raise ExprError(f"unknown node {e!r}")
