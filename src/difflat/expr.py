"""Immutable symbolic expressions over shifted variables.

The coordinate space is (..., zeta_[-1], x, u, u_[1], ...): state components,
input components and their forward shifts, and backward histories of the
extension map's g-values. Expressions are canonical by construction: sums and
products are flattened, expanded and sorted under a fixed total order on
leaves, rational constants are folded exactly, tan/cot are rewritten as
sin/cos ratios, and sin^2 + cos^2 pairs collapse. Nodes are hash-consed:
equal trees are one object, so identity of canonical trees is the semantic
equality the rest of the library relies on.
"""

from __future__ import annotations

import math
import weakref
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Mapping, Sequence, Union

__all__ = [
    "Expr", "Num", "Par", "Var", "Add", "Mul", "Pow", "Fun",
    "ExprError", "EvalError", "UnboundLeafError", "PoleError",
    "FAMILIES", "num", "par", "var", "add", "sub", "neg", "mul", "div",
    "pow_", "sin", "cos", "tan", "cot", "differentiate",
    "substitute", "evaluate", "compile_exprs", "jacobian", "vars_of",
    "params_of", "shift_vars", "to_text", "ZERO", "ONE",
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
    """Base class of the nodes. Nodes are hash-consed and immutable.

    A constructor returns the live node of equal structure from one table,
    so equal trees are one object and `==` is identity. A node stores the
    hash of its table key, e.g. `(4, terms)`: children are hashed by their
    stored hashes, never by a walk of their subtrees.
    """

    __slots__ = ("_h", "_k", "__weakref__")

    def __hash__(self):
        return self._h

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot set {name!r}: expression nodes are immutable")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}: expression nodes are immutable")

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


# key -> the live node of that structure. Keys are a kind tag and the node's
# fields; children compare by identity, as they are interned first. Values
# are weak, so a tree nobody holds leaves the table.
_NODES = weakref.WeakValueDictionary()


def _node(cls, key, *fields):
    """The live node of class `cls` for `key`, else a new one whose slots
    are `fields` in the order of `cls.__slots__`."""
    node = _NODES.get(key)
    if node is None:
        node = object.__new__(cls)
        for name, value in zip(cls.__slots__, fields):
            object.__setattr__(node, name, value)
        object.__setattr__(node, "_h", hash(key))
        _NODES[key] = node
    return node


class Num(Expr):
    __slots__ = ("value",)

    def __new__(cls, value):
        if not isinstance(value, Fraction):
            value = Fraction(value)
        # fractions are normalized, so the integer pair is a faithful and
        # much cheaper key than the Fraction
        return _node(cls, (1, value.numerator, value.denominator), value)


class Par(Expr):
    __slots__ = ("name",)

    def __new__(cls, name):
        return _node(cls, (2, name), name)


class Var(Expr):
    """A shifted variable: family, 1-based component, signed shift order."""

    __slots__ = ("family", "component", "shift")

    def __new__(cls, family, component, shift=0):
        if family not in _FAMILY_RANK:
            raise ExprError(f"unknown variable family {family!r}")
        if component < 1:
            raise ExprError(f"component index must be >= 1, got {component}")
        return _node(cls, (3, family, component, shift), family, component, shift)

    def shifted(self, k: int) -> "Var":
        return Var(self.family, self.component, self.shift + k)


class Add(Expr):
    __slots__ = ("terms",)

    def __new__(cls, terms):
        return _node(cls, (4, terms), terms)


class Mul(Expr):
    __slots__ = ("factors",)

    def __new__(cls, factors):
        return _node(cls, (5, factors), factors)


class Pow(Expr):
    __slots__ = ("base", "exp")

    def __new__(cls, base, exp):
        return _node(cls, (6, base, exp), base, exp)


class Fun(Expr):
    __slots__ = ("name", "arg")  # name is "sin" | "cos" in canonical trees

    def __new__(cls, name, arg):
        return _node(cls, (7, name, arg), name, arg)


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

def _key(e: Expr):
    # Cached on the node, so a key lives exactly as long as its node.
    try:
        return e._k
    except AttributeError:
        pass
    if isinstance(e, Num):
        k = (0, e.value)
    elif isinstance(e, Var):
        k = (1, _FAMILY_RANK[e.family], e.component, e.shift)
    elif isinstance(e, Par):
        k = (2, e.name)
    elif isinstance(e, Fun):
        k = (3, e.name, _key(e.arg))
    elif isinstance(e, Pow):
        k = (4, _key(e.base), e.exp)
    elif isinstance(e, Add):
        k = (5, tuple(_key(t) for t in e.terms))
    elif isinstance(e, Mul):
        k = (6, tuple(_key(f) for f in e.factors))
    else:
        raise ExprError(f"unknown node {e!r}")
    object.__setattr__(e, "_k", k)
    return k


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
    return _memo(_add, *map(_as_expr, args))


def _add(*args) -> Expr:
    # Monomials key the dict directly: their bases cache their hashes, while
    # the nested `_key` tuples would rehash every subtree (exact rationals
    # included) on each lookup. `_key` is injective, so sorting by
    # `_mono_key` still gives one canonical order.
    terms = {}  # mono -> coeff
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
            if mono in terms:
                terms[mono] += coeff
            else:
                terms[mono] = coeff

    for a in args:
        absorb(a)

    _pythagoras(terms)
    empty = terms.pop((), None)
    if empty is not None:
        const += empty
    out = []
    if const != 0:
        out.append(Num(const))
    for mono in sorted(terms, key=_mono_key):
        coeff = terms[mono]
        if coeff != 0:
            out.append(_from_coeff_monomial(coeff, mono))
    if not out:
        return ZERO
    if len(out) == 1:
        return out[0]
    return Add(tuple(out))


def _pythagoras(terms: dict) -> None:
    """Collapse c*M*sin(a)^2 + c*M*cos(a)^2 pairs in place (to a fixpoint)."""
    if not any(type(base) is Fun and base.name == "sin" and exp >= 2
               for mono in terms for base, exp in mono):
        return
    changed = True
    while changed:
        changed = False
        for mono in sorted(terms, key=_mono_key):
            coeff = terms[mono]
            if coeff == 0:
                continue
            for i, (base, exp) in enumerate(mono):
                if not (isinstance(base, Fun) and base.name == "sin" and exp >= 2):
                    continue
                partner = _mono_shift(mono, i, base, exp, "cos")
                if partner not in terms or terms[partner] == 0 or partner == mono:
                    continue
                c2 = terms[partner]
                reduced = _mono_drop_square(mono, i, exp)
                # c*M*sin^2 + c2*M*cos^2 -> c2*M + (c - c2)*M*sin^2
                terms[partner] = Fraction(0)
                terms[mono] = coeff - c2
                if reduced in terms:
                    terms[reduced] += c2
                else:
                    terms[reduced] = c2
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


def _mono_drop_square(mono, i, exp):
    out = []
    for j, (b, e) in enumerate(mono):
        if j == i:
            if exp - 2 != 0:
                out.append((b, exp - 2))
        else:
            out.append((b, e))
    return tuple(out)


def mul(*args) -> Expr:
    return _memo(_mul, *map(_as_expr, args))


def _mul(*args) -> Expr:
    coeff = Fraction(1)
    powers = {}  # base -> exp, ordered by `_key` at the end (as in `add`)

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
        elif e in powers:
            powers[e] += exp
        else:
            powers[e] = exp

    for a in args:
        absorb(a)

    if coeff == 0:
        return ZERO

    factors, sums = [], []
    for base in sorted(powers, key=_key):
        exp = powers[base]
        if exp == 0:
            continue
        if isinstance(base, Add) and exp > 0:
            sums.extend([base] * exp)
        else:
            factors.append(base if exp == 1 else Pow(base, exp))

    if sums:
        # Distribute every positively-powered sum over the rest.
        head = Mul((Num(coeff), *factors)) if factors else Num(coeff)
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


# ---------------------------------------------------------------------------
# Calculus, substitution, evaluation.

# One table memoizes every pure operation on interned nodes: `add`, `mul`,
# `differentiate`, `substitute`, `vars_of` and `compile_exprs`. Its key is
# the operation and its arguments as nodes (or tuples and frozensets of
# nodes), so a repeated call, e.g. from another case of the same family,
# costs one lookup. It holds its entries strongly until it evicts them.
# A corpus-sweep round of the benchmark (seed-1 deck, 52 analyses, each
# extended and certified) looks up 59,636 times, 73 % hits, and fills all
# 4,096 entries. Unbounded, it would end the round at 15,433 entries and
# 74 % hits, so 2^12 redoes 6 % more operations (16,301 against 15,433),
# while 2^15 raised the peak RSS of a 12 s corpus-sweep run from 37.4 to
# 40.4 MB (Python 3.11, 2-core x86 VM).
_MEMO_SIZE = 1 << 12


@lru_cache(maxsize=_MEMO_SIZE)
def _memo(op, *args):
    return op(*args)


def differentiate(e: Expr, v: Var) -> Expr:
    """Exact partial derivative, canonicalized. Canonical trees share
    subexpressions heavily across tower rows and Jacobian entries, so results
    are memoized (the operation is pure). `differentiate.cache_clear()` and
    `cache_info()` act on the table every memoized operation shares."""
    return _memo(_differentiate, e, v)


differentiate.cache_clear = _memo.cache_clear
differentiate.cache_info = _memo.cache_info


def _differentiate(e: Expr, v: Var) -> Expr:
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
    """Simultaneous substitution of leaves, then canonicalization.

    Shared subtrees are rebuilt once: results are memoized by node identity
    within the call. A node none of whose children changed is returned as
    the same object, not rebuilt (the constructors are idempotent on
    canonical trees), so a subtree free of mapped leaves costs one walk and no
    constructor call, and `substitute(e, m) is e` when no key of `m` occurs
    in `e`. Calls are memoized in the table `differentiate` shares.
    """
    if not mapping:
        return e
    return _memo(_substitute, e, frozenset(mapping.items()))


def _substitute(e: Expr, items: frozenset) -> Expr:
    mapping, memo = dict(items), {}

    def walk(e: Expr) -> Expr:
        if isinstance(e, (Var, Par)):
            return mapping.get(e, e)
        if isinstance(e, Num):
            return e
        hit = memo.get(id(e))
        if hit is not None:
            return hit
        if isinstance(e, (Add, Mul)):
            kids = e.terms if isinstance(e, Add) else e.factors
            new = [walk(k) for k in kids]
            if all(a is b for a, b in zip(new, kids)):
                out = e
            else:
                out = add(*new) if isinstance(e, Add) else mul(*new)
        elif isinstance(e, Pow):
            base = walk(e.base)
            out = e if base is e.base else pow_(base, e.exp)
        elif isinstance(e, Fun):
            arg = walk(e.arg)
            out = e if arg is e.arg else _FUNCTIONS[e.name](arg)
        else:
            raise ExprError(f"unknown node {e!r}")
        memo[id(e)] = out
        return out

    return walk(e)


def evaluate(e: Expr, point: Mapping[Union[Var, Par], float],
             memo: dict | None = None) -> float:
    """IEEE-double evaluation; every leaf must be bound.

    Canonical trees share subexpression objects heavily (common denominators,
    trig atoms), so repeated nodes are memoized by identity within one call;
    pass a shared `memo` to amortize across several expressions at one point.
    A float overflow or domain error (`**`, `fsum`, `sin`) raises `EvalError`.
    """
    if memo is None:
        memo = {}
    try:
        return _eval(e, point, memo)
    except (OverflowError, ValueError) as ex:
        raise _float_error(ex) from ex


def _float_error(ex: Exception) -> EvalError:
    """The error both evaluators raise for a float operation that overflows
    or leaves its domain."""
    return EvalError(f"float error: {ex}")


def _eval(e: Expr, point, memo: dict) -> float:
    # Leaves are memoized too: a repeated leaf then costs one lookup by
    # identity instead of a hashed lookup in `point`.
    key = id(e)
    hit = memo.get(key)
    if hit is not None:
        return hit
    t = type(e)
    if t is Add:
        out = math.fsum([_eval(x, point, memo) for x in e.terms])
    elif t is Mul:
        out = 1.0
        for f in e.factors:
            out *= _eval(f, point, memo)
    elif t is Var or t is Par:
        try:
            out = float(point[e])
        except KeyError:
            raise UnboundLeafError(f"unbound leaf {to_text(e)}") from None
    elif t is Num:
        out = float(e.value)
    elif t is Pow:
        b = _eval(e.base, point, memo)
        if b == 0.0 and e.exp < 0:
            raise PoleError(f"pole: zero base in {to_text(e)}")
        out = b ** e.exp
    elif t is Fun:
        a = _eval(e.arg, point, memo)
        out = math.sin(a) if e.name == "sin" else math.cos(a)
    else:
        raise ExprError(f"unknown node {e!r}")
    memo[key] = out
    return out


def compile_exprs(exprs: Sequence[Expr], leaves: Sequence[Union[Var, Par]]):
    """Compile `exprs` once into a straight-line function of the leaf values.

    The result maps a sequence of numbers, one per entry of `leaves` in that
    order, to the list of the expressions' values. The DAG is walked once
    and each node becomes one local; as equal subtrees are one interned
    node, each distinct subexpression is computed once. Locals are computed
    in the order `evaluate` with a shared memo first meets their nodes, and
    a node's value depends on its structure alone, so values are
    bit-identical to `evaluate`: constants are `float(value)`, sums
    `math.fsum`, products left to right (the leading
    `1.0 *` of `_eval` is exact and dropped), and a zero base under a
    negative exponent raises the same first `PoleError`, and a float overflow
    or domain error the same `EvalError`. A leaf not in `leaves` raises
    `UnboundLeafError` here, at compile time. Compiles are memoized in the
    table `differentiate` shares.
    """
    return _memo(_compile_exprs, tuple(exprs), tuple(leaves))


def _compile_exprs(exprs: tuple, leaves: tuple):
    slots = [f"a{i}" for i in range(len(leaves))]
    args = dict(zip(leaves, slots))
    names = {}    # node -> its local
    lines = []
    poles = []    # nodes of negative powers, for the error message

    def emit(e: Expr) -> str:
        if isinstance(e, Num):
            return f"({float(e.value)!r})"
        if isinstance(e, (Var, Par)):
            if e not in args:
                raise UnboundLeafError(f"unbound leaf {to_text(e)}")
            return args[e]
        hit = names.get(e)
        if hit is not None:
            return hit
        if isinstance(e, Add):
            rhs = f"_fsum(({''.join(emit(t) + ', ' for t in e.terms)}))"
        elif isinstance(e, Mul):
            rhs = " * ".join([emit(f) for f in e.factors]) or "1.0"
        elif isinstance(e, Pow):
            b = emit(e.base)
            if e.exp < 0:
                lines.append(f"if {b} == 0.0: _pole(_poles[{len(poles)}])")
                poles.append(e)
            rhs = f"{b} ** {e.exp}"
        elif isinstance(e, Fun):
            rhs = f"{'_sin' if e.name == 'sin' else '_cos'}({emit(e.arg)})"
        else:
            raise ExprError(f"unknown node {e!r}")
        local = f"t{len(names)}"
        names[e] = local
        lines.append(f"{local} = {rhs}")
        return local

    out = [emit(e) for e in exprs]
    head = f"{', '.join(slots)}, = map(float, values)" if slots else "pass"
    body = "\n        ".join(lines + [f"return [{', '.join(out)}]"])
    namespace = {"_fsum": math.fsum, "_sin": math.sin, "_cos": math.cos,
                 "_pole": _pole, "_poles": poles, "_float_error": _float_error}
    exec(compile(f"def compiled(values):\n    {head}\n    try:\n        {body}\n"
                 "    except (OverflowError, ValueError) as ex:\n"
                 "        raise _float_error(ex) from ex\n",
                 "<difflat.compile_exprs>", "exec"), namespace)
    return namespace["compiled"]


def _pole(e: Pow):
    raise PoleError(f"pole: zero base in {to_text(e)}")


def jacobian(rows: Sequence[Expr], cols: Sequence[Var]):
    """Matrix of partials, |rows| x |cols|, row-major."""
    return [[differentiate(r, v) for v in cols] for r in rows]


def vars_of(e: Expr) -> frozenset:
    return _memo(_collect, e, Var)


def params_of(e: Expr) -> frozenset:
    return _collect(e, Par)


def _collect(e, kind) -> frozenset:
    """The leaves of type `kind` under e, walking each distinct node once:
    canonical trees share subtrees heavily, and a walk of every path can
    take exponential time. Leaves are added in the order a recursive
    left-to-right walk first meets them, so the frozenset built from the
    result iterates in the same order as one built from such a walk."""
    out, seen, stack = set(), set(), [e]
    while stack:
        n = stack.pop()
        if isinstance(n, kind):
            out.add(n)
        elif id(n) not in seen:
            seen.add(id(n))
            t = type(n)
            if t is Add:
                stack.extend(reversed(n.terms))
            elif t is Mul:
                stack.extend(reversed(n.factors))
            elif t is Pow:
                stack.append(n.base)
            elif t is Fun:
                stack.append(n.arg)
    return frozenset(out)


def shift_vars(e: Expr, k: int) -> Expr:
    """Shift every output leaf (family "y") by k time steps (jet-space shift)."""
    mapping = {v: v.shifted(k) for v in vars_of(e) if v.family == "y"}
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


def _print_atom(e: Expr) -> str:
    if isinstance(e, Num):
        s = _fmt_frac(e.value)
        return f"({s})" if e.value < 0 or e.value.denominator != 1 else s
    if isinstance(e, Var):
        return _print_var(e)
    if isinstance(e, Par):
        return e.name
    if isinstance(e, Fun):
        return f"{e.name}({to_text(e.arg)})"
    if isinstance(e, (Add, Mul)):
        return f"({to_text(e)})"
    if isinstance(e, Pow):
        return f"{_print_atom(e.base)}^{e.exp}"
    raise ExprError(f"unknown node {e!r}")


def _print_term(coeff: Fraction, mono) -> str:
    """One canonical term as numerator/denominator text, sign excluded. A
    sum in the denominator is divided by alone, once per power, as in
    `x1/x4/(x2 + x3)`: the parser multiplies out a product or a power of
    sums before inverting it."""
    coeff = abs(coeff)
    nums, dens, sums = [], [], []
    if coeff.numerator != 1:
        nums.append(str(coeff.numerator))
    if coeff.denominator != 1:
        dens.append(str(coeff.denominator))
    for base, exp in mono:
        e = abs(exp)
        if exp < 0 and isinstance(base, Add):
            sums += [_print_atom(base)] * e
            continue
        target = nums if exp > 0 else dens
        target.append(_print_atom(base) + (f"^{e}" if e != 1 else ""))
    top = "*".join(nums) if nums else "1"
    if dens:
        top += "/" + (dens[0] if len(dens) == 1 else "(" + "*".join(dens) + ")")
    return top + "".join("/" + s for s in sums)


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
