"""Numeric primitives: SVD ranks, jet-space probe points, trajectory
simulation, parameterization verification and Newton inversion with a block
triangular step solve."""

from __future__ import annotations

import random
from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .expr import EvalError, Par, ZERO, differentiate, evaluate, jacobian

__all__ = [
    "numeric_rank", "eval_matrix", "probe_points",
    "RankProbe", "probe_rank", "Trajectory",
    "random_inputs", "simulate", "SimulationError", "verify_parameterization",
    "ResidualReport", "newton_solve", "block_triangular_solver", "Window",
    "tower_windows", "check_windows", "fold_residuals",
]

# The threshold of each numeric decision (README, "Numerical conventions").
RANK_TOL = 1e-8          # singular values above RANK_TOL * sigma_max count
RESIDUAL_TOL = 1e-8      # the largest trajectory (and user F) residual accepted
NONZERO_TOL = 1e-9       # dependence, chain-lead identity and solver pivots
PSI_TOL = 1e-9           # the largest psi residual accepted; errors quote "1e-9"
FIXED_POINT_TOL = 1e-10  # the largest |f(x0, u0) - x0| of a fixed point
NEWTON_TOL = 1e-12       # Newton stops at this residual infinity norm
NEWTON_MAX_ITER = 60
PROBE_RADIUS = 1e-2
PROBE_COUNT = 10
SEED = 2023              # every draw's stream: probes SEED, trajectories SEED + 1


def numeric_rank(M) -> int:
    """Singular values above RANK_TOL * sigma_max; the zero matrix has rank 0."""
    A = np.asarray(M, dtype=float)
    if A.size == 0:
        return 0
    if not np.all(np.isfinite(A)):
        raise ValueError("non-finite entries in rank computation")
    s = np.linalg.svd(A, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.sum(s > RANK_TOL * s[0]))


def eval_matrix(rows, point) -> np.ndarray:
    memo = {}
    return np.array([[evaluate(e, point, memo) for e in row] for row in rows],
                    dtype=float)


def probe_points(center, seed, count=PROBE_COUNT, perturb=None, bind=()):
    """The center, then `count` seeded perturbations of it.

    In each copy every leaf of `perturb` (by default every non-`Par` key of
    the center, in its order) moves by uniform(-PROBE_RADIUS, PROBE_RADIUS);
    then each (leaf, expr) pair of `bind` is set to expr's value at the
    point. The coordinates of the jet space (histories, states, input shifts)
    are independent, so dependence and rank tests may sample them freely;
    only trajectory verification needs dynamically consistent data.
    """
    rng = random.Random(seed)
    if perturb is None:
        perturb = [k for k in center if not isinstance(k, Par)]
    for i in range(count + 1):
        pt = dict(center)
        if i:
            for v in perturb:
                pt[v] += rng.uniform(-PROBE_RADIUS, PROBE_RADIUS)
        for leaf, e in bind:
            pt[leaf] = evaluate(e, pt)
        yield pt


def depends_on(e, variables, probes) -> bool:
    """Generic dependence: some partial of e is structurally nonzero and
    exceeds `NONZERO_TOL` at the center or a perturbed probe; the scan stops
    at the first that does."""
    partials = [d for d in (differentiate(e, v) for v in variables) if d != ZERO]
    return bool(partials) and any(
        a > NONZERO_TOL for a in _magnitudes(partials, probes))


def _magnitudes(exprs, points):
    """|e| at each point, for each expression in turn, through one evaluation
    memo per point, so a subtree the expressions share is walked once there;
    a (point, expression) pair whose evaluation hits a pole is skipped, and
    a NaN counts as 0.0."""
    for pt in points:
        memo = {}
        for e in exprs:
            try:
                a = abs(evaluate(e, pt, memo))
            except EvalError:
                continue
            yield a if a == a else 0.0


@dataclass
class RankProbe:
    at_point: int | None
    generic: int
    per_point: list
    required: int | None = None


def probe_rank(rows, cols, probes) -> int:
    """Generic numeric rank of the Jacobian of `rows` w.r.t. `cols`: the
    highest over the probe points (binding dicts), tree-walked by
    `eval_matrix`; a probe where the matrix hits an evaluation pole or has a
    non-finite entry is skipped. The tower Jacobian has a compiled kernel
    instead (`analysis.Tower.rank_at`)."""
    J = jacobian(rows, cols)
    rank = 0
    for pt in probes:
        try:
            rank = max(rank, numeric_rank(eval_matrix(J, pt)))
        except (EvalError, ValueError):
            continue
    return rank


# ---------------------------------------------------------------------------
# Trajectories.

class SimulationError(Exception):
    pass


@dataclass
class Trajectory:
    """Forward-simulated solution: x(k), u(k) for k = -H..K, zeta = g(x,u).

    The backward segment is generated by seeding at k = -H and running the
    same forward recursion, so backward-shift consistency holds by
    construction. x has H+K+1 entries, u and zeta have H+K.
    """

    H: int
    K: int
    x: list
    u: list
    zeta: list
    params: dict

    def index(self, k: int) -> int:
        return k + self.H

    def state(self, k: int):
        return self.x[self.index(k)]

    def inputs(self, k: int):
        return self.u[self.index(k)]


def random_inputs(rng: random.Random, u0, boxes: dict, count: int) -> list:
    """`count` input samples, each component drawn uniformly from its
    1-based `boxes` entry, or from u0[j] +- 0.2 when it has none."""
    return [[rng.uniform(*boxes.get(j + 1, (u0[j] - 0.2, u0[j] + 0.2)))
             for j in range(len(u0))] for _ in range(count)]


def simulate(sys, x_start, u_sequence, H: int, K: int) -> Trajectory:
    """Iterate x+ = f(x,u) from k = -H; record zeta = g(x,u) along the way,
    both from the model's compiled (f, g) (`SystemModel.fg`)."""
    if len(u_sequence) < H + K:
        raise SimulationError(f"need {H + K} input samples, got {len(u_sequence)}")
    xs = [list(map(float, x_start))]
    us = [list(map(float, u)) for u in u_sequence]
    zetas = []
    for step in range(H + K):
        try:
            out = sys.fg(xs[-1] + us[step] + sys.param_values)
        except EvalError as ex:
            raise SimulationError(
                f"evaluation failed at step k={step - H}: {ex}") from ex
        xs.append(out[:sys.n])
        zetas.append(out[sys.n:] if sys.g is not None else None)
    return Trajectory(H=H, K=K, x=xs, u=us, zeta=zetas,
                      params=sys.param_bindings())


@dataclass
class ResidualReport:
    max_residual_x: float
    max_residual_u: float
    worst_k: int
    checked: int = 0

    @property
    def tolerance(self) -> float:
        """`RESIDUAL_TOL`, the bound every residual report is held to."""
        return RESIDUAL_TOL

    @property
    def passed(self) -> bool:
        """Both residuals within the tolerance; a NaN residual fails."""
        return (self.max_residual_x <= self.tolerance
                and self.max_residual_u <= self.tolerance)

    def to_json(self):
        return {
            "max_residual_x": self.max_residual_x,
            "max_residual_u": self.max_residual_u,
            "worst_k": self.worst_k,
            "tolerance": self.tolerance,
            "pass": self.passed,
        }


class Window(namedtuple("Window", "k x u y w bindings")):
    """Step k of a verification window: state x and input u at k, measured
    targets y (`Tower.targets` order), exact tower point w, and the (keys,
    values) that `pt` binds on first read (Newton reads none of them)."""

    @cached_property
    def pt(self) -> dict:
        return dict(zip(*self.bindings))


def tower_windows(tower, traj: Trajectory, k_window) -> list:
    """The `Window` of each step of `k_window` along `traj`, for `tower`,
    read by position (`Tower.window_plan`): the tower's compiled outputs run
    once per trajectory time, on the states, inputs and parameters there."""
    lo, hi, keys, at = tower.window_plan
    values = [traj.params[p] for p in tower.context.base_model.param_leaves]
    outputs = {}    # trajectory time -> output values
    out = []
    for k in k_window:
        ys = []
        for t in range(k + lo, k + hi + 1):
            if t not in outputs:
                i = traj.index(t)
                outputs[t] = tower.output_kernel([*traj.x[i], *traj.u[i], *values])
            ys += outputs[t]
        x, u, y = traj.state(k), traj.inputs(k), [ys[p] for p in at]
        w = tower.trajectory_seed(y, x, u)
        out.append(Window(k, x, u, y, w, (keys, values + ys + w)))
    return out


def verify_parameterization(sys, cand, param, traj: Trajectory,
                            k_window) -> ResidualReport:
    """Check |x(k) - F_x(y-shifts)| and |u(k) - F_u(y-shifts)| along the
    trajectory for each k in the window, read by `param.tower`, which was
    built from `sys` and `cand`."""
    return check_windows(param, tower_windows(param.tower, traj, k_window))


def check_windows(param, windows) -> ResidualReport:
    """The residuals of `verify_parameterization` at `windows`, folded by
    `fold_residuals`; an EvalError is raised again, same type, naming its k."""
    tower = param.tower

    def residuals(win):
        try:
            if param.F_x is not None:
                fx = [evaluate(e, win.pt) for e in param.F_x]
                fu = [evaluate(e, win.pt) for e in param.F_u]
            else:
                fx, fu, _ = tower.recover(win.y, [
                    a + o * (1.0 + abs(a)) for a, o in zip(win.w, tower.seed_offset)])
        except EvalError as ex:
            raise type(ex)(f"at window k = {win.k}: {ex}") from ex
        return (win.k, _max_abs([a - b for a, b in zip(fx, win.x)]),
                _max_abs([a - b for a, b in zip(fu, win.u)]))

    return fold_residuals(map(residuals, windows))


def fold_residuals(rows) -> ResidualReport:
    """One report over `rows` of (k, residual in x, residual in u): their
    maxima, NaN if any is (`_max_abs`), the k of the first largest max(x, u)
    or of the first NaN, and the count of rows; it passes when each row
    does. `difflat verify` folds its trials (k = their `worst_k`) so."""
    worst_x = worst_u = 0.0
    worst_k = checked = 0
    for checked, (k, rx, ru) in enumerate(rows, 1):
        before = _max_abs([worst_x, worst_u])
        if before == before and not _max_abs([rx, ru]) <= before:
            worst_k = k    # the first largest residual, or the first NaN
        worst_x, worst_u = _max_abs([worst_x, rx]), _max_abs([worst_u, ru])
    return ResidualReport(max_residual_x=worst_x, max_residual_u=worst_u,
                          worst_k=worst_k, checked=checked)


def _max_abs(r: list) -> float:
    """max |r_i| of a list of floats, NaN when an entry is NaN (as
    `np.max(np.abs(r))` is), so that a NaN residual never counts as
    progress; Python's `max` alone would skip a NaN after the first entry."""
    a = list(map(abs, r))
    total = sum(a)
    return max(a) if total == total else total


def newton_solve(residual_fn, jacobian_fn, seed) -> list:
    """Damped Newton iteration for square systems on Python floats; raises
    on stagnation.

    The iterate is a list of floats, starting from a copy of `seed`; a trial
    point is w - lam * step, entry by entry, so each entry takes the same
    IEEE operations an array would. `residual_fn(w)` returns the residual as
    a list of floats. It runs once at the seed and once per trial step; an
    accepted step's residual is carried into the next iteration.
    `jacobian_fn(w)` returns the step solve at w, which maps the residual to
    the step `J(w)^-1 r` (a `block_triangular_solver` bound to the
    Jacobian's values) and raises `EvalError` where `J(w)` is singular; it
    runs once per iteration. The infinity norm of each residual is taken
    once (`_max_abs`): a trial step is accepted when its norm is below the
    current one, which a NaN norm never is, and the iteration stops when the
    norm is at most `NEWTON_TOL`, or fails after `NEWTON_MAX_ITER` steps."""
    w = list(map(float, seed))
    r = residual_fn(w)
    norm = _max_abs(r)
    for _ in range(NEWTON_MAX_ITER):
        if norm <= NEWTON_TOL:
            return w
        step = jacobian_fn(w)(r)
        # damped step for robustness far from the seed
        lam = 1.0
        for _ in range(25):
            cand = [a - lam * b for a, b in zip(w, step)]
            rc = residual_fn(cand)
            norm_c = _max_abs(rc)
            if norm_c < norm:
                w, r, norm = cand, rc, norm_c
                break
            lam *= 0.5
        else:
            raise EvalError("Newton iteration stagnated")
    if norm <= NEWTON_TOL:
        return w
    raise EvalError("Newton iteration did not converge")


def block_triangular_solver(nonzeros, n: int):
    """Compile `(values, r) -> J^-1 r` for the n x n matrix J whose
    structural nonzeros are `nonzeros`, (row, column) pairs whose values
    `values` lists in the same order; every other entry is zero.

    The unknowns are peeled off both ends of J's block triangular form
    (`_peel`): first each row with one unsolved column solves for it, then
    each column left in one remaining row is solved last, from that row;
    the square remainder, if any, is one block solved in between. The code
    is straight-line: a peeled unknown is its row's residual less the row's
    other terms, divided by its pivot, and the remainder is one
    `numpy.linalg.solve`. A row or column left empty while peeling, or a
    remainder that is singular for every value of its nonzeros (raised
    here), a zero pivot or a singular remainder raises
    `EvalError("singular Jacobian in Newton solve")`. The remainder is
    checked at its nonzeros' values drawn from `random.Random(0)`: its
    rank there is its structural rank with probability 1, and is full
    exactly when the pattern has a perfect matching."""
    at = {ij: p for p, ij in enumerate(nonzeros)}
    cols_of = [[] for _ in range(n)]
    for i, j in nonzeros:
        cols_of[i].append(j)
    rows, cols = set(range(n)), set(range(n))    # unsolved
    front = _peel(rows, cols, set(at))
    back = _peel(cols, rows, {(j, i) for i, j in at})

    def known(i, skip):    # row i's residual less its terms outside `skip`
        return "".join([f"r[{i}]"] + [f" - v[{at[i, j]}] * x{j}"
                                      for j in cols_of[i] if j not in skip])

    def pivot(i, j):
        return [f"p = v[{at[i, j]}]", "if p == 0.0: _singular()",
                f"x{j} = ({known(i, (j,))}) / p"]

    lines = [line for i, j in front for line in pivot(i, j)]
    if rows:
        rows, cols = sorted(rows), sorted(cols)
        rng = random.Random(0)
        generic = [[rng.uniform(-1.0, 1.0) if (i, j) in at else 0.0 for j in cols]
                   for i in rows]
        if numeric_rank(generic) < len(rows):
            raise EvalError(_SINGULAR)
        matrix = ", ".join("[" + ", ".join(
            f"v[{at[i, j]}]" if (i, j) in at else "0.0" for j in cols) + "]"
            for i in rows)
        rhs = ", ".join(known(i, cols) for i in rows)
        lines.append(f"{''.join(f'x{j}, ' for j in cols)}= "
                     f"_solve([{matrix}], [{rhs}])")
    lines += [line for j, i in reversed(back) for line in pivot(i, j)]
    body = "\n    ".join(lines + [f"return [{', '.join(f'x{j}' for j in range(n))}]"])
    namespace = {"_singular": _singular, "_solve": _solve_block}
    exec(compile(f"def solve(v, r):\n    {body}\n",
                 "<difflat.block_triangular_solver>", "exec"), namespace)
    return namespace["solve"]


def _peel(outer, inner, links) -> list:
    """Pair off, in order, each member a of the set `outer` linked to exactly
    one member b of the set `inner` ((a, b) in `links`), removing both from
    their sets, until no such a is left; an a linked to none makes J
    singular. Returns the pairs (a, b) in the order they were taken."""
    pairs, peeled = [], True
    while peeled:
        peeled = False
        for a in sorted(outer):
            left = [b for b in inner if (a, b) in links]
            if not left:
                raise EvalError(_SINGULAR)
            if len(left) == 1:
                pairs.append((a, left[0]))
                outer.remove(a)
                inner.remove(left[0])
                peeled = True
    return pairs


_SINGULAR = "singular Jacobian in Newton solve"


def _singular():
    raise EvalError(_SINGULAR)


def _solve_block(A, b) -> list:
    try:
        return np.linalg.solve(A, b).tolist()
    except np.linalg.LinAlgError as ex:
        raise EvalError(_SINGULAR) from ex
