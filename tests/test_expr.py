import gc
import math
import random
import signal
import weakref
import zlib
from contextlib import contextmanager
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from conftest import random_corpus_expressions
from difflat import expr, systems
from difflat.analysis import analyze
from difflat.extension import build_combined, certify_linearizing
from difflat.expr import (
    ONE, Add, EvalError, Expr, Fun, Mul, Num, Par, PoleError, Pow,
    UnboundLeafError, Var, add, compile_exprs, cos, cot,
    differentiate, div, evaluate, jacobian, mul, neg, num, par, params_of,
    pow_, sin, sub, substitute, tan, to_text, var, vars_of,
)
from difflat.parsing import DimTable, parse_expression

T = DimTable(6, 2, frozenset({"T_s", "eps", "g_grav"}))


def P(s):
    return parse_expression(s, T)


def random_tree(rng, depth):
    """Random expression tree of bounded depth over a small leaf pool."""
    if depth == 0 or rng.random() < 0.25:
        choice = rng.randint(0, 3)
        if choice == 0:
            return num(Fraction(rng.randint(-4, 4)))
        if choice == 1:
            return var("x", rng.randint(1, 3))
        if choice == 2:
            return var("u", rng.randint(1, 2), rng.randint(-1, 1))
        return par("T_s")
    op = rng.randint(0, 4)
    if op == 0:
        return add(random_tree(rng, depth - 1), random_tree(rng, depth - 1))
    if op == 1:
        return mul(random_tree(rng, depth - 1), random_tree(rng, depth - 1))
    if op == 2:
        return sub(random_tree(rng, depth - 1), random_tree(rng, depth - 1))
    if op == 3:
        return sin(random_tree(rng, depth - 1))
    return cos(random_tree(rng, depth - 1))


def canonical(e: Expr) -> Expr:
    """Rebuild e through the constructors: the identity on canonical trees."""
    if isinstance(e, (Num, Par, Var)):
        return e
    if isinstance(e, Add):
        return add(*[canonical(t) for t in e.terms])
    if isinstance(e, Mul):
        return mul(*[canonical(f) for f in e.factors])
    if isinstance(e, Pow):
        return pow_(canonical(e.base), e.exp)
    return {"sin": sin, "cos": cos}[e.name](canonical(e.arg))


def bindings_for(e, rng):
    pt = {}
    for v in vars_of(e):
        pt[v] = rng.uniform(-1.5, 1.5)
    pt[Par("T_s")] = 0.1
    pt[Par("eps")] = 0.2
    pt[Par("g_grav")] = 9.81
    pt[Par("pi")] = math.pi
    return pt


# ---------------------------------------------------------------------------
# construction and simplification

def test_parse_examples_from_vtol_row():
    assert P("x1 + T_s*x3") == add(var("x", 1), mul(par("T_s"), var("x", 3)))


def test_zero_annihilation():
    assert P("0*u1 + x2") == var("x", 2)


def test_robot_output_two_summands():
    e = P("x1*sin(u2) - x2*cos(u2)")
    assert e == sub(mul(var("x", 1), sin(var("u", 2))),
                    mul(var("x", 2), cos(var("u", 2))))


def test_constant_folding_is_exact():
    e = P("1/3 + 1/6")
    assert e == num(Fraction(1, 2))


def test_sum_sorting_and_collection():
    assert P("x2 + x1 + x2") == P("x1 + 2*x2")


def test_tan_cot_rewrite_to_sin_cos():
    assert tan(var("x", 1)) == div(sin(var("x", 1)), cos(var("x", 1)))
    assert cot(var("x", 1)) == div(cos(var("x", 1)), sin(var("x", 1)))


def test_tan_times_cos_cancels():
    x1, x2, x3 = var("x", 1), var("x", 2), var("x", 3)
    e = mul(sub(x1, x2), tan(x3), cos(x3))
    assert e == sub(mul(x1, sin(x3)), mul(x2, sin(x3)))


def test_pythagoras_pair():
    x1 = var("x", 1)
    assert add(pow_(sin(x1), 2), pow_(cos(x1), 2)) == num(1)


def test_pythagoras_with_common_factor():
    x1, x2 = var("x", 1), var("x", 2)
    e = add(mul(x2, pow_(sin(x1), 2)), mul(x2, pow_(cos(x1), 2)))
    assert e == x2


def test_pythagoras_unequal_coefficients():
    x1 = var("x", 1)
    e = add(mul(num(2), pow_(sin(x1), 2)), mul(num(3), pow_(cos(x1), 2)))
    # 2 sin^2 + 3 cos^2 = 3 - sin^2
    assert e == sub(num(3), pow_(sin(x1), 2))
    rng = random.Random(5)
    for _ in range(5):
        pt = {x1: rng.uniform(-2, 2)}
        assert math.isclose(evaluate(e, pt),
                            2 * math.sin(pt[x1]) ** 2 + 3 * math.cos(pt[x1]) ** 2)


def test_trig_parity_normalization():
    a = sub(var("x", 1), var("x", 2))
    assert cos(neg(a)) == cos(a)
    assert sin(neg(a)) == neg(sin(a))


def test_sum_inverse_cancellation():
    s = add(var("x", 1), var("x", 2))
    assert mul(s, pow_(s, -1)) == num(1)


def test_canonicalization_idempotent_on_random_trees():
    rng = random.Random(42)
    for _ in range(1000):
        e = random_tree(rng, rng.randint(1, 6))
        c = canonical(e)
        assert canonical(c) == c


def test_two_canonical_routes_agree_numerically():
    # spec example: evaluate two construction orders of the same expression
    rng = random.Random(7)
    for _ in range(20):
        a = random_tree(rng, 3)
        b = random_tree(rng, 3)
        e1 = add(mul(a, b), a)
        e2 = mul(a, add(b, num(1)))
        pt = bindings_for(add(e1, e2), rng)
        v1, v2 = evaluate(e1, pt), evaluate(e2, pt)
        assert abs(v1 - v2) <= 1e-12 * (1 + abs(v1))


# ---------------------------------------------------------------------------
# calculus

def test_derivative_of_robot_output():
    x1, x2, u2 = var("x", 1), var("x", 2), var("u", 2)
    e = P("x1*sin(u2) - x2*cos(u2)")
    assert differentiate(e, u2) == add(mul(x1, cos(u2)), mul(x2, sin(u2)))


def test_derivative_of_vtol_row():
    assert differentiate(P("x1 + T_s*x3"), var("x", 3)) == par("T_s")


def test_derivative_matches_central_differences():
    rng = random.Random(11)
    h = 1e-6
    for _ in range(40):
        e = random_tree(rng, 4)
        leaves = sorted(vars_of(e), key=to_text)
        if not leaves:
            continue
        v = rng.choice(leaves)
        pt = bindings_for(e, rng)
        sym = evaluate(differentiate(e, v), pt)
        hi, lo = dict(pt), dict(pt)
        hi[v] += h
        lo[v] -= h
        fd = (evaluate(e, hi) - evaluate(e, lo)) / (2 * h)
        assert abs(sym - fd) <= 1e-6 * (1 + abs(sym))


def test_derivative_traversal_order_invariance():
    e = P("x1*x2*sin(u1) + x2^3/(x1 + x2)")
    d1 = differentiate(e, var("x", 2))
    d2 = differentiate(canonical(e), var("x", 2))
    assert d1 == d2


# ---------------------------------------------------------------------------
# substitution and evaluation

def test_simultaneous_substitution():
    x1, x4, u1 = var("x", 1), var("x", 4), var("u", 1)
    out = substitute(add(x1, x4, u1), {x1: add(x1, x4)})
    assert out == add(x1, mul(num(2), x4), u1)


def test_identity_substitution():
    e = P("x1*sin(u2) - x2*cos(u2)")
    assert substitute(e, {var("x", 1): var("x", 1)}) == e


def test_substitution_rebuilds_a_shared_subtree_once():
    x1, x2 = var("x", 1), var("x", 2)
    shared = add(x1, x2)
    out = substitute(add(sin(shared), cos(shared)), {x1: mul(num(2), x2)})
    assert out == add(sin(mul(num(3), x2)), cos(mul(num(3), x2)))
    first, second = out.terms
    assert first.arg is second.arg


def test_substitution_without_a_mapped_leaf_returns_the_same_object():
    """No key of the mapping occurs: nothing is rebuilt, not even the root."""
    e = P("x1*sin(u2) - x2*cos(u2)/(x1 + T_s*x3)")
    assert substitute(e, {var("x", 4): var("x", 5), par("eps"): num(2)}) is e
    rng = random.Random(17)
    for _ in range(200):
        e = random_tree(rng, rng.randint(1, 5))
        assert substitute(e, {var("x", 6): var("u", 1)}) is e


def test_partial_substitution_keeps_untouched_subtrees():
    """Subtrees free of the mapped leaf come back as the very same objects
    (a power is rebuilt by `mul`, which keeps its base)."""
    x1, x2, x3, u1 = var("x", 1), var("x", 2), var("x", 3), var("u", 1)
    touched = sin(add(x1, x2))
    trig = cos(add(x3, u1))
    inverse = pow_(add(x3, mul(num(2), u1)), -1)
    e = add(mul(touched, trig, inverse), x2)
    out = substitute(e, {x1: mul(num(3), x2)})
    assert out == add(mul(sin(mul(num(4), x2)), trig, inverse), x2)
    product = next(t for t in out.terms if t != x2)
    kept = [f for f in product.factors if f == trig or f == inverse]
    assert len(kept) == 2
    assert kept[0] is trig and kept[1].base is inverse.base


def test_substitution_evaluation_commute():
    rng = random.Random(13)
    for _ in range(20):
        e = random_tree(rng, 4)
        inner = random_tree(rng, 2)
        v = var("x", 1)
        pt = bindings_for(add(e, inner), rng)
        composed = evaluate(substitute(e, {v: inner}), pt)
        pt2 = dict(pt)
        pt2[v] = evaluate(inner, pt)
        direct = evaluate(e, pt2)
        assert abs(composed - direct) <= 1e-12 * (1 + abs(direct))


def test_evaluate_vtol_leaf_example():
    val = evaluate(P("x1 + T_s*x3"),
                   {var("x", 1): 1.0, var("x", 3): 2.0, Par("T_s"): 0.1})
    assert abs(val - 1.2) < 1e-15


def test_cot_pole_raises():
    with pytest.raises(PoleError):
        evaluate(cot(var("x", 5)), {var("x", 5): 0.0})


def test_unbound_leaf_raises():
    with pytest.raises(UnboundLeafError):
        evaluate(P("x1 + x2"), {var("x", 1): 1.0})


def test_exact_zero_division_raises_at_construction():
    with pytest.raises(PoleError):
        div(var("x", 1), num(0))


def test_differentiate_cache_is_bounded():
    info = differentiate.cache_info()
    assert info.maxsize is not None and 0 < info.maxsize < 10**6
    differentiate(mul(var("x", 1), var("x", 2)), var("x", 1))
    differentiate.cache_clear()
    assert differentiate.cache_info().currsize == 0


def test_a_memo_hit_is_the_tree_the_unmemoized_operation_builds(corpus):
    """The shared table returns, on a hit, the very node the operation's
    own body builds: nodes are interned, so memoizing changes no result."""
    for name, sf in corpus.items():
        es = random_corpus_expressions(sf, 8, seed=zlib.crc32(name.encode()))
        x = sf.model.state_vars[0]
        for a, b in zip(es, es[1:]):
            items = frozenset({x: b}.items())
            for call, body, args in [
                    (mul, expr._mul, (a, b)),
                    (add, expr._add, (a, b)),
                    (differentiate, expr._differentiate, (a, x)),
                    (lambda e, m: substitute(e, dict(m)), expr._substitute,
                     (a, items))]:
                first = call(*args)
                hits = differentiate.cache_info().hits
                assert call(*args) is first
                assert differentiate.cache_info().hits == hits + 1, body.__name__
                assert body(*args) is first, (name, body.__name__, to_text(a))


def test_two_passes_after_a_clear_do_the_same_work():
    """Emptying the table restarts it: two analyze + extend passes of robot,
    each from a fresh load and an empty table, miss the same number of
    times, so no pass reuses work an earlier one left behind."""
    misses = []
    for _ in range(2):
        differentiate.cache_clear()
        start = differentiate.cache_info().misses
        robot = systems.load("robot")
        rep = analyze(robot.model, robot.candidate, robot.options)
        ext = build_combined(rep.model, robot.candidate, rep.tower)
        assert certify_linearizing(ext, robot.options).passed
        misses.append(differentiate.cache_info().misses - start)
    assert misses[0] == misses[1] > 0


def test_the_shared_memo_evicts_an_early_tree_without_a_clear():
    """The table holds a tree while it has an entry for it, and drops it
    once more than `maxsize` newer distinct operations have run: it is
    bounded, and nothing else keeps the tree alive."""
    differentiate.cache_clear()
    e = P("x1[96]*sin(u2[96] + 9949/9941)")
    differentiate(e, var("x", 1, 96))
    alive = weakref.ref(e)
    del e
    gc.collect()
    assert alive() is not None
    x = var("x", 1)
    for k in range(differentiate.cache_info().maxsize + 1):
        differentiate(mul(k + 2, x, x), x)
    gc.collect()
    assert alive() is None


# ---------------------------------------------------------------------------
# jacobian

def test_jacobian_of_academic_f_wrt_u():
    fs = [P(s) for s in
          ["x1 + x4", "x2 + u2", "x3 + x4*u2", "u1", "u2"]]
    J = jacobian(fs, [var("u", 1), var("u", 2)])
    expect = [[num(0), num(0)], [num(0), num(1)], [num(0), var("x", 4)],
              [num(1), num(0)], [num(0), num(1)]]
    assert J == expect


def test_jacobian_identity():
    assert jacobian([var("x", 1)], [var("x", 1)]) == [[num(1)]]


# ---------------------------------------------------------------------------
# compiled evaluation: bit for bit what evaluate gives, errors included

def _outcome(fn):
    """The bit patterns of fn()'s values, or its error's type and message."""
    try:
        return [v.hex() for v in fn()]
    except (ArithmeticError, ValueError, EvalError) as ex:
        return type(ex), str(ex)


def _assert_compiled_matches(exprs, leaves, values):
    pt = dict(zip(leaves, values))
    memo = {}
    want = _outcome(lambda: [evaluate(e, pt, memo) for e in exprs])
    got = _outcome(lambda: compile_exprs(exprs, leaves)(values))
    assert got == want


def test_compiled_towers_and_jacobians_match_evaluate(reports):
    for report in reports.values():
        tower = report.tower
        rows = tower.row_exprs()
        exprs = rows + [e for row in jacobian(rows, tower.variables) for e in row]
        for pt in [tower.point] + [win.pt for win in tower.windows]:
            leaves = list(tower.variables) + [k for k in pt if isinstance(k, Par)]
            _assert_compiled_matches(exprs, leaves, [pt[k] for k in leaves])


_LEAVES = [var("x", 1), var("x", 2), var("u", 1, 1), par("T_s")]
_VALUE = st.sampled_from([0.0, 1.0, -0.5]) | st.floats(-3, 3)


@st.composite
def _shared_dags(draw):
    """Expressions built by a short program over a growing pool of nodes, so
    later nodes reuse earlier node objects (shared subtrees)."""
    pool = list(_LEAVES)
    for _ in range(draw(st.integers(1, 8))):
        a = draw(st.sampled_from(pool))
        b = draw(st.sampled_from(pool))
        op = draw(st.sampled_from(
            ["add", "mul", "div", "pow", "sin", "cos", "num"]))
        try:
            if op == "add":
                e = add(a, b)
            elif op == "mul":
                e = mul(a, b)
            elif op == "div":
                e = div(a, b)
            elif op == "pow":
                e = pow_(a, draw(st.sampled_from([-3, -2, -1, 2, 3])))
            elif op == "sin":
                e = sin(add(a, b))
            elif op == "cos":
                e = cos(a)
            else:
                e = add(a, num(Fraction(draw(st.integers(-7, 7)),
                                        draw(st.integers(1, 9)))))
        except PoleError:  # division by an exact zero
            continue
        pool.append(e)
    return pool[len(_LEAVES) - 1:]  # a bare leaf, then every built node


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_shared_dags(),
       st.lists(_VALUE, min_size=len(_LEAVES), max_size=len(_LEAVES)))
# x1 - 1 and x1 - 2 are unequal nodes with equal hashes (hash(-1) ==
# hash(-2)): one local for both would be wrong
@example([add(_LEAVES[0], num(-1)), add(_LEAVES[0], num(-2))], [0.5, 0, 0, 0])
def test_compiled_shared_dags_match_evaluate(exprs, values):
    _assert_compiled_matches(exprs, _LEAVES, values)


def test_a_subtree_of_two_expressions_compiles_to_one_local():
    """Two different expressions, each built with its own copy of a subtree,
    compile together to the temporaries of each less one set for the
    subtree: it is one node, so one local computes it."""
    x1, x2 = var("x", 1), var("x", 2)
    a = mul(sin(x1), pow_(cos(add(x1, x2)), -2))
    b = add(x2, pow_(cos(add(x2, x1)), -2))

    def temporaries(exprs):
        return (compile_exprs(exprs, [x1, x2]).__code__.co_nlocals
                - compile_exprs([], [x1, x2]).__code__.co_nlocals)

    shared = pow_(cos(add(x1, x2)), -2)
    assert temporaries([shared]) == 3
    assert temporaries([a, b]) == temporaries([a]) + temporaries([b]) - 3


def test_compiled_kernel_size_floor(reports):
    """Machine-independent size of the compiled tower Jacobians: the parent
    of hash-consed compilation gave one local per node object, 221 for
    vtol and 90 for robot."""
    for name, most in (("vtol", 120), ("robot", 55)):
        tower = reports[name].tower
        exprs = [e for row in jacobian(tower.row_exprs(), tower.variables)
                 for e in row]
        kernel = compile_exprs(exprs, tower.leaves)
        assert kernel.__code__.co_nlocals <= most, name


def test_float_errors_are_the_same_eval_error_from_both_evaluators():
    """A power or a sum that overflows, and a sum or a sine outside its
    domain, raise one `EvalError` with one message from `evaluate` and from a
    compiled kernel, never a raw `OverflowError` or `ValueError`."""
    x1, x2 = var("x", 1), var("x", 2)
    inf = float("inf")
    for exprs, values in (([pow_(x1, 3)], [1e200, 0.0]),
                          ([add(x1, x2)], [1e308, 1e308]),
                          ([add(x1, x2)], [inf, -inf]),
                          ([mul(x2, x2), sin(x1)], [inf, 1.0])):
        with pytest.raises(EvalError, match=r"^float error: "):
            evaluate(exprs[-1], dict(zip([x1, x2], values)))
        with pytest.raises(EvalError, match=r"^float error: "):
            compile_exprs(exprs, [x1, x2])(values)
        _assert_compiled_matches(exprs, [x1, x2], values)


def _tree_walk_leaves(e, kind) -> frozenset:
    """The leaves of type `kind` under e by a recursive walk of every path."""
    out = set()

    def walk(n):
        if isinstance(n, kind):
            out.add(n)
        elif isinstance(n, Add):
            for t in n.terms:
                walk(t)
        elif isinstance(n, Mul):
            for f in n.factors:
                walk(f)
        elif isinstance(n, Pow):
            walk(n.base)
        elif isinstance(n, Fun):
            walk(n.arg)

    walk(e)
    return frozenset(out)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_shared_dags())
def test_leaf_sets_equal_the_tree_walk(exprs):
    """The same leaves, iterated in the same order, so the callers that
    iterate a leaf set see no change."""
    for e in exprs:
        for kind, leaves in ((Var, vars_of), (Par, params_of)):
            got, want = leaves(e), _tree_walk_leaves(e, kind)
            assert got == want and list(got) == list(want)


@contextmanager
def _deadline(seconds: float):
    """Fail, instead of hanging, when the body runs longer than `seconds`."""
    def expire(signum, frame):
        raise AssertionError(f"not done within {seconds} s")

    old = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


def test_leaf_sets_walk_each_shared_node_once():
    # e -> sin(e)*cos(e), 60 times: 181 distinct nodes on 2^60 paths to x1
    e = var("x", 1)
    for _ in range(60):
        e = mul(sin(e), cos(e))
    with _deadline(10.0):
        assert vars_of(e) == {var("x", 1)}
        assert params_of(e) == frozenset()


def test_compiled_constants_and_empty_lists():
    consts = [num(3), num(Fraction(-1, 3)), num(Fraction(22, 7))]
    assert compile_exprs(consts, [])([]) == [3.0, float(Fraction(-1, 3)),
                                             float(Fraction(22, 7))]
    assert compile_exprs([], [var("x", 1)])([2.0]) == []
    assert compile_exprs([], [])([]) == []


def test_compiled_pole_matches_evaluate():
    x = var("x", 1)
    for e in [div(1, x), cot(x), div(x, add(x, pow_(var("x", 2), 2)))]:
        pt = {x: 0.0, var("x", 2): 0.0}
        with pytest.raises(PoleError) as want:
            evaluate(e, pt)
        with pytest.raises(PoleError) as got:
            compile_exprs([x, e], [x, var("x", 2)])([0.0, 0.0])
        assert str(got.value) == str(want.value)


def test_compiled_repeated_pole_raises_the_first_pole_met():
    """Two zero-base negative powers, each built twice and interned as one
    object: the compiled code raises for the one `evaluate` meets first,
    with its message, although the other sorts and nests before it."""
    x1, x2, x3, x4 = (var("x", i) for i in range(1, 5))
    exprs = [div(x3, sub(x2, 1)), div(x3, x1), div(x4, sub(x2, 1)),
             div(x4, x1)]
    assert exprs[0].factors[1] is exprs[2].factors[1]
    leaves, values = [x1, x2, x3, x4], [0.0, 1.0, 2.0, 3.0]
    pt = dict(zip(leaves, values))
    with pytest.raises(PoleError) as want:
        evaluate(exprs[0], pt)
    with pytest.raises(PoleError) as got:
        compile_exprs(exprs, leaves)(values)
    assert str(got.value) == str(want.value) == "pole: zero base in 1/(-1 + x2)"


def test_compiled_unbound_leaf_raises():
    with pytest.raises(UnboundLeafError, match="unbound leaf x2"):
        compile_exprs([P("x1 + x2")], [var("x", 1)])
    with pytest.raises(UnboundLeafError, match="unbound leaf T_s"):
        compile_exprs([P("T_s*x1")], [var("x", 1)])


# ---------------------------------------------------------------------------
# printing

def test_print_parse_round_trip_on_random_trees():
    rng = random.Random(17)
    for _ in range(200):
        e = random_tree(rng, 5)
        assert parse_expression(to_text(e), T) == e


def test_print_parse_round_trip_on_rational_functions():
    for s in ["(x1 - zeta1[-1])/(T_s*sin(x5)) + 3/10",
              "x4 + T_s*cos(x5)*(u1 - eps*x6^2) - g_grav*T_s",
              "1/(x1 + x2)^2 - u1^3/x2"]:
        e = P(s)
        assert parse_expression(to_text(e), T) == e


def test_a_sum_in_the_denominator_is_divided_by_alone():
    """Printed in one product with another denominator factor, or as a
    power, a sum would be multiplied out by the parser before it is
    inverted (`x1/(x4*(x2 + x3))` re-parses as `x1/(x2*x4 + x3*x4)`)."""
    x1, x4, s = var("x", 1), var("x", 4), add(var("x", 2), var("x", 3))
    for e, text in ((mul(x1, pow_(s, -1), pow_(x4, -1)), "x1/x4/(x2 + x3)"),
                    (mul(x1, pow_(s, -2)), "x1/(x2 + x3)/(x2 + x3)"),
                    (mul(Fraction(-2, 3), x1, pow_(s, -1)), "-2*x1/3/(x2 + x3)"),
                    (mul(x1, pow_(s, -1)), "x1/(x2 + x3)"),
                    (mul(x1, pow_(x4, -1), pow_(var("x", 2), -1)), "x1/(x2*x4)")):
        assert to_text(e) == text
        assert parse_expression(text, T) is e


def test_leaf_total_order():
    # (family, component, shift) lexicographic
    e = add(var("u", 1), var("x", 2), var("x", 1, 1), var("x", 1))
    assert to_text(e) == "x1 + x1[1] + x2 + u1"


# ---------------------------------------------------------------------------
# interning: equal trees are one object

_RECIPE_LEAF = st.one_of(
    st.tuples(st.just("num"), st.fractions(-4, 4, max_denominator=3)),
    st.tuples(st.just("var"), st.sampled_from(["x", "u"]), st.integers(1, 2),
              st.integers(-1, 1)),
    st.just(("par", "T_s")))
_RECIPES = st.recursive(_RECIPE_LEAF, lambda kids: st.one_of(
    st.tuples(st.sampled_from(["add", "sub", "mul", "div"]), kids, kids),
    st.tuples(st.sampled_from(["sin", "cos"]), kids),
    st.tuples(st.just("pow"), kids, st.integers(-2, 2))), max_leaves=10)
_OPS = {"num": num, "var": var, "par": par, "add": add, "sub": sub,
        "mul": mul, "div": div, "sin": sin, "cos": cos}


def _fresh(e):
    """e rebuilt apart through the node classes, as canonicalizing
    constructors rebuild equal subtrees: interning gives back e itself."""
    if isinstance(e, Add):
        return Add(tuple(_fresh(t) for t in e.terms))
    if isinstance(e, Mul):
        return Mul(tuple(_fresh(f) for f in e.factors))
    if isinstance(e, Pow):
        return Pow(_fresh(e.base), e.exp)
    if isinstance(e, Fun):
        return Fun(e.name, _fresh(e.arg))
    return e


def _build(recipe):
    """A tree built from scratch, leaves included, by the constructors."""
    op, *args = recipe
    if op == "pow":
        return pow_(_build(args[0]), args[1])
    if op in ("num", "var", "par"):
        return _OPS[op](*args)
    return _OPS[op](*map(_build, args))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_RECIPES)
def test_a_tree_built_twice_is_one_object(recipe):
    try:
        e = _build(recipe)
    except PoleError:  # division by an exact zero
        assume(False)
    assert _build(recipe) is e
    assert _fresh(e) is e
    assert parse_expression(to_text(e), T) is e
    assert substitute(e, {var("x", 6): var("u", 1), par("eps"): num(2)}) is e


def test_every_node_class_interns_and_defines_no_eq():
    x1 = Var("x", 1)
    assert Var("x", 1) is x1 and Var("x", 1, 0) is x1
    assert Num(Fraction(2, 4)) is Num(Fraction(1, 2)) is num(Fraction(1, 2))
    assert Par("eps") is Par("eps")
    assert Add((ONE, x1)) is Add((ONE, x1))
    assert Mul((Num(2), x1)) is Mul((Num(2), x1))
    assert Pow(x1, 2) is Pow(x1, 2)
    assert Fun("sin", x1) is Fun("sin", x1)
    assert Num(-1) is not Num(-2)    # unequal nodes, equal hashes
    assert Add((ONE, x1)) is not Mul((ONE, x1))
    for cls in (Expr, Num, Par, Var, Add, Mul, Pow, Fun):
        assert "__eq__" not in vars(cls)


def test_an_unreferenced_tree_leaves_the_node_table():
    # the shared operation table holds its entries strongly until it evicts
    # them, so it is emptied before each count
    differentiate.cache_clear()
    gc.collect()
    before = len(expr._NODES)
    e = P("x1[97]*sin(u2[97] + 9973/9967) - cos(x3[97])/(x1[97] + T_s)^3")
    assert len(expr._NODES) > before
    gone = weakref.ref(e)
    del e
    differentiate.cache_clear()
    gc.collect()
    assert gone() is None
    assert len(expr._NODES) == before


@pytest.mark.parametrize("node", [
    num(3), par("eps"), var("x", 1), add(var("x", 1), var("x", 2)),
    mul(var("x", 1), var("x", 2)), pow_(var("x", 1), 2), sin(var("x", 1)),
], ids=lambda node: type(node).__name__)
def test_nodes_are_immutable(node):
    field = type(node).__slots__[0]
    old = getattr(node, field)
    with pytest.raises(AttributeError):
        setattr(node, field, old)
    with pytest.raises(AttributeError):
        delattr(node, field)
    with pytest.raises(AttributeError):
        node.note = 1
    assert getattr(node, field) is old
