import math
import random

import pytest

from difflat.expr import cos, evaluate, mul, sin, sub, to_text, var
from difflat.parsing import DimTable, parse_expression
from difflat.solve import SolveError, solve_equations

x1, x2, x3 = var("x", 1), var("x", 2), var("x", 3)
u1, u2 = var("u", 1), var("u", 2)


def test_triangular_back_substitution():
    # x3 + u2 = y1  and  u1*cos(u2) = y2[1]
    y0, z = var("y", 1, 0), var("y", 2, 1)
    eqs = [sub(x3 + u2, y0), sub(mul(u1, cos(u2)), z)]
    probes = [{x3: 0.2, y0: 0.5, z: 0.7, u1: 1.0, u2: 0.3}]
    sol = solve_equations(eqs, [u1, u2], probes)
    assert sol[u2] == y0 - x3
    assert sol[u1] == z / cos(y0 - x3)


def test_joint_affine_two_by_two():
    # x1 sin(t) - x2 cos(t) = a,  x1 sin(p) - x2 cos(p) = b
    t, p = var("y", 1, -1), var("y", 1, 1)
    a, b = var("y", 2, -1), var("y", 2, 0)
    eqs = [sub(mul(x1, sin(t)) - mul(x2, cos(t)), a),
           sub(mul(x1, sin(p)) - mul(x2, cos(p)), b)]
    probes = [{t: 0.3, p: 0.9, a: 0.1, b: -0.4, x1: 1.0, x2: 2.0}]
    sol = solve_equations(eqs, [x1, x2], probes)
    rng = random.Random(3)
    for _ in range(10):
        X1, X2, tv, pv = (rng.uniform(-1, 1) for _ in range(4))
        pt = {t: tv, p: pv,
              a: X1 * math.sin(tv) - X2 * math.cos(tv),
              b: X1 * math.sin(pv) - X2 * math.cos(pv)}
        assert abs(evaluate(sol[x1], pt) - X1) < 1e-9
        assert abs(evaluate(sol[x2], pt) - X2) < 1e-9


def test_solution_is_unknown_free():
    y = var("y", 1, 0)
    eqs = [sub(x1 + x2, y), sub(x2 - x1, var("y", 2, 0))]
    probes = [{y: 1.0, var("y", 2, 0): 0.5, x1: 0.25, x2: 0.75}]
    sol = solve_equations(eqs, [x1, x2], probes)
    from difflat.expr import vars_of
    for e in sol.values():
        assert x1 not in vars_of(e) and x2 not in vars_of(e)


def test_nonlinear_coupling_rejected():
    y = var("y", 1, 0)
    with pytest.raises(SolveError) as ei:
        solve_equations([sub(sin(x1), y)], [x1], [{y: 0.2, x1: 0.3}])
    assert "affine" in str(ei.value)


def test_product_of_unknowns_rejected():
    y = var("y", 1, 0)
    with pytest.raises(SolveError):
        solve_equations([sub(mul(x1, x2), y)], [x1, x2],
                        [{y: 0.2, x1: 0.3, x2: 0.4}])


def test_vanishing_pivot_diagnosed():
    # u1 * x3 = y with x3 == 0 at every probe: pivot vanishes numerically
    y = var("y", 1, 0)
    with pytest.raises(SolveError) as ei:
        solve_equations([sub(mul(u1, x3), y)], [u1],
                        [{y: 0.0, x3: 0.0, u1: 1.0}])
    assert "pivot" in str(ei.value) or "stalled" in str(ei.value)


def _three_round_system():
    """a = y1, b + 2c = y2 and a*b + c = y1[1]. The first sweep pivots c
    off row 1 (c = (y2 - b)/2 still holds the pending b, so it is dropped)
    and then a off row 0; a*b + c only turns affine once a is known."""
    a, b, c = x1, x2, x3
    y1, y2, y3 = var("y", 1, 0), var("y", 2, 0), var("y", 1, 1)
    rows = [sub(a, y1), sub(b + mul(2, c), y2), sub(mul(a, b) + c, y3)]
    probes = [{y1: 3.0, y2: 0.5, y3: -0.7, a: 0.1, b: 0.2, c: 0.3}]
    return rows, [a, b, c], probes


def test_spent_pivot_rows_are_not_substituted_into(monkeypatch):
    """After a round, the row that pivoted a solved unknown is dropped, not
    substituted into; a row whose pivot unknown was dropped stays for the
    next round and takes the round's solutions."""
    import difflat.solve as solve
    rows, (a, b, c), probes = _three_round_system()
    calls = []
    real = solve.substitute

    def spy(e, mapping):
        calls.append((e, mapping))
        return real(e, mapping)

    monkeypatch.setattr(solve, "substitute", spy)
    sol = solve_equations(rows, [a, b, c], probes)
    assert not any(e is rows[0] and a in m for e, m in calls)
    assert any(e is rows[1] and a in m for e, m in calls)
    y1, y2, y3 = 3.0, 0.5, -0.7
    pt = {var("y", 1, 0): y1, var("y", 2, 0): y2, var("y", 1, 1): y3}
    want_c = (y2 - y3 / y1) / (2 - 1 / y1)
    want = {a: y1, b: (y3 - want_c) / y1, c: want_c}
    for v, e in sol.items():
        assert math.isclose(evaluate(e, pt), want[v], rel_tol=1e-12)


def test_solutions_of_the_existing_systems_are_unchanged():
    """The exact solution texts of this file's systems, as the solver gave
    them before spent pivot rows were dropped."""
    y0, z = var("y", 1, 0), var("y", 2, 1)
    t, p = var("y", 1, -1), var("y", 1, 1)
    a, b = var("y", 2, -1), var("y", 2, 0)
    systems = [
        ([sub(x3 + u2, y0), sub(mul(u1, cos(u2)), z)], [u1, u2],
         [{x3: 0.2, y0: 0.5, z: 0.7, u1: 1.0, u2: 0.3}]),
        ([sub(mul(x1, sin(t)) - mul(x2, cos(t)), a),
          sub(mul(x1, sin(p)) - mul(x2, cos(p)), b)], [x1, x2],
         [{t: 0.3, p: 0.9, a: 0.1, b: -0.4, x1: 1.0, x2: 2.0}]),
        ([sub(x1 + x2, y0), sub(x2 - x1, b)], [x1, x2],
         [{y0: 1.0, b: 0.5, x1: 0.25, x2: 0.75}]),
        _three_round_system(),
    ]
    den = "(-cos(y1[1])*sin(y1[-1])/cos(y1[-1]) + sin(y1[1]))"
    want = [
        {"u1": "y2[1]/cos(x3 - y1)", "u2": "-x3 + y1"},
        {"x1": f"-y2[-1]*cos(y1[1])/cos(y1[-1])/{den} + y2/{den}",
         "x2": f"-y2[-1]*cos(y1[1])*sin(y1[-1])/cos(y1[-1])^2/{den} "
               f"- y2[-1]/cos(y1[-1]) + y2*sin(y1[-1])/cos(y1[-1])/{den}"},
        {"x1": "y1/2 - y2/2", "x2": "y1/2 + y2/2"},
        {"x1": "y1",
         "x2": "y1[1]/y1^2/(2 - 1/y1) + y1[1]/y1 - y2/y1/(2 - 1/y1)",
         "x3": "-y1[1]/y1/(2 - 1/y1) + y2/(2 - 1/y1)"},
    ]
    for (eqs, unknowns, probes), expected in zip(systems, want, strict=True):
        sol = solve_equations(eqs, unknowns, probes)
        assert {str(v): to_text(e) for v, e in sol.items()} == expected
        for v, e in sol.items():    # each text re-parses to the solved tree
            assert parse_expression(expected[str(v)], DimTable(3, 2)) is e
