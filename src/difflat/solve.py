"""Restricted symbolic equation solver.

Handles systems that become triangular or affine in the unknowns after
substitution: each round collects the residual equations that are jointly
affine in their remaining unknowns, runs Gaussian elimination over the
expression field (pivots chosen by magnitude at numeric probe points), and
substitutes any fully determined unknowns back. Everything beyond that class
is rejected with a diagnostic; callers fall back to user-supplied data or
numeric inversion.
"""

from __future__ import annotations

from dataclasses import dataclass

from .expr import (
    EvalError, Expr, Var, _key, differentiate, evaluate, mul, num, pow_, sub,
    substitute, vars_of,
)

__all__ = ["SolveError", "solve_equations"]

_PIVOT_TOL = 1e-9


class SolveError(Exception):
    """The restricted solver cannot express the unknowns."""


@dataclass
class _Row:
    expr: Expr          # residual, == 0
    order: int          # original equation index, for deterministic pivoting


def _is_affine(e: Expr, unknowns: set) -> dict | None:
    """If e is jointly affine in the unknowns it contains, return the
    coefficient map {var: Expr} in `expr._key` order (not a set's hash-seeded
    one, since pivot ties go to the first entry); otherwise None."""
    present = sorted((v for v in vars_of(e) if v in unknowns), key=_key)
    if not present:
        return None
    coeffs = {}
    for v in present:
        d = differentiate(e, v)
        if any(w in unknowns for w in vars_of(d)):
            return None
        coeffs[v] = d
    return coeffs


def _pivot_magnitude(e: Expr, probe_points) -> float:
    best = 0.0
    for pt in probe_points:
        try:
            best = max(best, abs(evaluate(e, pt)))
        except EvalError:
            continue
    return best


def solve_equations(equations, unknowns, probe_points, max_rounds: int = 40):
    """Solve residual equations (== 0) for the unknowns.

    Returns {Var: Expr} with right-hand sides free of unknowns. Raises
    SolveError when no progress is possible (non-affine coupling, or pivots
    that vanish at every probe point).

    After each round the new solutions are substituted into the earlier ones
    and into the rows still open. A row that pivoted an unknown solved in
    that round is spent: it is dropped, not substituted into, since that
    unknown's solution now carries its equation. A row whose pivot unknown
    stayed unsolved (its right-hand side still referenced a pending unknown)
    stays for the next round.
    """
    unknowns = list(unknowns)
    pending = set(unknowns)
    rows = [_Row(e, i) for i, e in enumerate(equations)]
    solution: dict[Var, Expr] = {}

    for _ in range(max_rounds):
        if not pending:
            break
        rows = [r for r in rows if any(v in pending for v in vars_of(r.expr))]
        affine = []
        for r in rows:
            coeffs = _is_affine(r.expr, pending)
            if coeffs:
                affine.append((r, coeffs))
        if not affine:
            raise SolveError(
                "no equation is affine in the remaining unknowns: "
                + ", ".join(str(v) for v in sorted(pending, key=str)))
        solved_now, spent = _eliminate(affine, pending, probe_points)
        if not solved_now:
            raise SolveError(
                "elimination stalled (all candidate pivots vanish numerically) for "
                + ", ".join(str(v) for v in sorted(pending, key=str)))
        for v, e in solved_now.items():
            solution[v] = e
            pending.discard(v)
        # fold the new solutions into everything
        for v in solution:
            solution[v] = substitute(solution[v], solved_now)
        rows = [_Row(substitute(r.expr, solved_now), r.order) for r in rows
                if r.order not in spent]
    if pending:
        raise SolveError("round limit exceeded with unknowns left: "
                         + ", ".join(str(v) for v in sorted(pending, key=str)))
    return solution


def _eliminate(affine, pending, probe_points):
    """One Gaussian sweep over the affine rows; returns the newly solved
    unknowns and the set of `order`s of the rows that pivoted them.

    Pivot rhs expressions may reference unknowns pivoted later in the sweep;
    back-substitution from the last pivot upward closes the chain. Entries
    whose right-hand side still references an unsolved unknown are dropped
    (they resolve, or fail loudly, in a later round), and so their pivot rows
    are not reported.
    """
    rows = [(r.order, r.expr, coeffs) for r, coeffs in affine]
    chain = []  # (unknown, rhs, pivot row order) in pivot order
    active = set(pending)

    while rows and active:
        # pick the (row, unknown) pivot with the best numeric magnitude
        best = None
        for order, e, coeffs in rows:
            for v, c in coeffs.items():
                if v not in active:
                    continue
                mag = _pivot_magnitude(c, probe_points)
                score = (mag > _PIVOT_TOL, mag, -order)
                if best is None or score > best[0]:
                    best = (score, order, e, coeffs, v)
        if best is None or not best[0][0]:
            break
        _, order, e, coeffs, v = best
        c = coeffs[v]
        # e == 0 and e = c*v + rest  ->  v = -rest/c, one canonicalizing
        # product, so the row is distributed over once
        rest = sub(e, mul(c, v))
        rhs = mul(num(-1), rest, pow_(c, -1))
        chain.append((v, rhs, order))
        active.discard(v)
        # substitute into the remaining rows and refresh their coefficient maps
        nxt = []
        for o2, e2, _ in rows:
            if o2 == order:
                continue
            e2 = substitute(e2, {v: rhs})
            cs = _is_affine(e2, active)
            if cs:
                nxt.append((o2, e2, cs))
        rows = nxt

    solved: dict[Var, Expr] = {}
    for v, rhs, _ in reversed(chain):
        solved[v] = substitute(rhs, solved)
    solved = {v: e for v, e in solved.items() if not (vars_of(e) & set(pending))}
    return solved, {order for v, _, order in chain if v in solved}
