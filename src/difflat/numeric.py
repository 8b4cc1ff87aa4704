"""Numeric primitives: SVD ranks, finite-difference cross-checks, jet-space
probe points, trajectory simulation and parameterization verification."""

from __future__ import annotations

import random
from collections import namedtuple
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .expr import EvalError, Par, Var, ZERO, differentiate, evaluate, jacobian

__all__ = [
    "numeric_rank", "fd_jacobian_check", "eval_matrix", "probe_points",
    "RankProbe", "probe_rank", "matrix_rank_probe", "Trajectory",
    "random_inputs", "simulate", "SimulationError", "verify_parameterization",
    "ResidualReport", "newton_solve", "Window", "tower_windows",
    "check_windows",
]

RANK_TOL = 1e-8
DEPEND_TOL = 1e-9
PROBE_RADIUS = 1e-2
PROBE_COUNT = 10


def numeric_rank(M, tol_rel: float = RANK_TOL) -> int:
    """Singular values above tol_rel * sigma_max; the zero matrix has rank 0."""
    A = np.asarray(M, dtype=float)
    if A.size == 0:
        return 0
    if not np.all(np.isfinite(A)):
        raise ValueError("non-finite entries in rank computation")
    s = np.linalg.svd(A, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.sum(s > tol_rel * s[0]))


def eval_matrix(rows, point) -> np.ndarray:
    memo = {}
    return np.array([[evaluate(e, point, memo) for e in row] for row in rows],
                    dtype=float)


def fd_jacobian_check(exprs, cols, point, h: float = 1e-6) -> float:
    """Max relative deviation between symbolic partials and central differences."""
    worst = 0.0
    for e in exprs:
        for v in cols:
            sym = evaluate(differentiate(e, v), point)
            hi = dict(point)
            lo = dict(point)
            hi[v] = point[v] + h
            lo[v] = point[v] - h
            fd = (evaluate(e, hi) - evaluate(e, lo)) / (2.0 * h)
            worst = max(worst, abs(sym - fd) / (1.0 + abs(sym)))
    return worst


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


def depends_on(exprs, variables, probes, tol: float = DEPEND_TOL) -> bool:
    """Generic dependence: some partial is structurally nonzero and evaluates
    to a value above tol at the center or a perturbed probe."""
    partials = []
    for e in exprs if isinstance(exprs, (list, tuple)) else [exprs]:
        for v in variables:
            d = differentiate(e, v)
            if d != ZERO:
                partials.append(d)
    if not partials:
        return False
    for pt in probes:
        for d in partials:
            try:
                if abs(evaluate(d, pt)) > tol:
                    return True
            except EvalError:
                continue
    return False


@dataclass
class RankProbe:
    at_point: int | None
    generic: int
    per_point: list
    required: int | None = None


def probe_rank(rows, cols, probes, tol_rel: float = RANK_TOL,
               required: int | None = None) -> RankProbe:
    """Numeric rank of the Jacobian of `rows` w.r.t. `cols` at the probe
    points (binding dicts, center first), tree-walked by `eval_matrix`; see
    `matrix_rank_probe`. The tower Jacobian has a compiled kernel instead
    (`analysis.Tower.jacobian_at`)."""
    J = jacobian(rows, cols)
    return matrix_rank_probe(lambda pt: eval_matrix(J, pt), probes, tol_rel,
                             required)


def matrix_rank_probe(matrix_at, probes, tol_rel: float = RANK_TOL,
                      required: int | None = None) -> RankProbe:
    """Numeric rank of the matrix `matrix_at(pt)` at each probe point (center
    first). Reports the at-center rank and the generic (max) rank; a probe
    where the matrix hits an evaluation pole or has a non-finite entry is
    skipped."""
    at_point = None
    per_point = []
    for i, pt in enumerate(probes):
        try:
            rank = numeric_rank(matrix_at(pt), tol_rel)
        except (EvalError, ValueError):
            rank = None
        if i == 0:
            at_point = rank
        if rank is not None:
            per_point.append(rank)
    generic = max(per_point) if per_point else 0
    return RankProbe(at_point=at_point, generic=generic,
                     per_point=per_point, required=required)


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

    def point(self, k: int, sys, input_depth: int = 0, zeta_depth: int = 0) -> dict:
        """Jet bindings at time k: states, input forward-shifts, g-histories.
        `output_values` binds the same values by position; this dict is the
        reference the tests compare it with."""
        pt = dict(self.params)
        xk = self.state(k)
        for i, v in enumerate(sys.state_vars):
            pt[v] = xk[i]
        for a in range(input_depth + 1):
            uk = self.inputs(k + a)
            for j, v in enumerate(sys.input_vars):
                pt[v.shifted(a)] = uk[j]
        for b in range(1, zeta_depth + 1):
            zk = self.zeta[self.index(k - b)]
            for j in range(sys.m):
                pt[Var(sys.gvalue_family, j + 1, -b)] = zk[j]
        return pt


def random_inputs(rng: random.Random, u0, boxes: dict, count: int) -> list:
    """`count` input samples, each component drawn uniformly from its
    1-based `boxes` entry, or from u0[j] +- 0.2 when it has none."""
    return [[rng.uniform(*boxes.get(j + 1, (u0[j] - 0.2, u0[j] + 0.2)))
             for j in range(len(u0))] for _ in range(count)]


def simulate(sys, x_start, u_sequence, H: int, K: int) -> Trajectory:
    """Iterate x+ = f(x,u) from k = -H; record zeta = g(x,u) along the way."""
    if len(u_sequence) < H + K:
        raise SimulationError(f"need {H + K} input samples, got {len(u_sequence)}")
    params = sys.param_bindings()
    xs = [list(map(float, x_start))]
    zetas = []
    for step in range(H + K):
        pt = dict(params)
        for i, v in enumerate(sys.state_vars):
            pt[v] = xs[-1][i]
        for j, v in enumerate(sys.input_vars):
            pt[v] = float(u_sequence[step][j])
        try:
            nxt = [evaluate(fi, pt) for fi in sys.f]
            if sys.g is not None:
                zetas.append([evaluate(gj, pt) for gj in sys.g])
            else:
                zetas.append(None)
        except EvalError as ex:
            raise SimulationError(
                f"evaluation failed at step k={step - H}: {ex}") from ex
        xs.append(nxt)
    return Trajectory(H=H, K=K, x=xs, u=[list(map(float, u)) for u in u_sequence],
                      zeta=zetas, params=params)


@dataclass
class ResidualReport:
    max_residual_x: float
    max_residual_u: float
    worst_k: int
    tolerance: float
    checked: int = 0

    @property
    def passed(self) -> bool:
        return max(self.max_residual_x, self.max_residual_u) <= self.tolerance

    def to_json(self):
        return {
            "max_residual_x": self.max_residual_x,
            "max_residual_u": self.max_residual_u,
            "worst_k": self.worst_k,
            "tolerance": self.tolerance,
            "pass": self.passed,
        }


@lru_cache(maxsize=32)
def _leaf_rows(family: str, count: int, shifts: range) -> tuple:
    """(family<1>[s], ..., family<count>[s]) for each s in shifts: the y
    leaves of a window and the g-history leaves of the outputs, built once
    per argument tuple (a few per system) instead of once per read."""
    return tuple(tuple(Var(family, j + 1, s) for j in range(count))
                 for s in shifts)


def output_values(sys, cand, traj: Trajectory, k: int, zdepth: int):
    """Evaluate the candidate outputs phi at trajectory time k, binding
    `zdepth` steps of g-value history.

    The bindings are those of `traj.point(k, sys, 0, zdepth)`, read by
    position: the states from `traj.x`, the inputs from `traj.u` and the
    g-history from `traj.zeta` at the same trajectory index, zipped with
    the system's state and input leaves and with prebuilt history leaves.
    One `evaluate` memo serves all of phi."""
    i = traj.index(k)
    pt = dict(traj.params)
    pt.update(zip(sys.state_vars, traj.x[i]))
    pt.update(zip(sys.input_vars, traj.u[i]))
    history = _leaf_rows(sys.gvalue_family, sys.m, range(-1, -zdepth - 1, -1))
    for b, leaves in enumerate(history, start=1):
        pt.update(zip(leaves, traj.zeta[i - b]))
    memo = {}
    return [evaluate(p, pt, memo) for p in cand.phi]


def window_bindings(sys, cand, traj: Trajectory, k_window, lo: int, hi: int,
                    zdepth: int):
    """(k, bindings of y<j>[s], s in [lo, hi], measured along the trajectory
    around k) for each k of the window, in order. The outputs phi are
    evaluated once per trajectory time (`output_values`), and the y leaves
    come from a small bounded cache keyed by (lo, hi, number of outputs)."""
    shifts = range(lo, hi + 1)
    leaves = _leaf_rows("y", len(cand.phi), shifts)
    outputs = {}    # trajectory time -> phi values
    for k in k_window:
        pt = dict(traj.params)
        for s, ys in zip(shifts, leaves):
            values = outputs.get(k + s)
            if values is None:
                values = outputs[k + s] = output_values(sys, cand, traj,
                                                        k + s, zdepth)
            pt.update(zip(ys, values))
        yield k, pt


# Step k of a verification window: state x and input u at k, the exact tower
# point w (`Tower.trajectory_seed`), and `pt` binding the parameters, the
# output measurements around k (`window_bindings`) and w.
Window = namedtuple("Window", "k pt x u w")


def tower_windows(sys, cand, tower, traj: Trajectory, k_window) -> list:
    """The `Window` of each step of `k_window` along `traj`, for `tower`.
    A tower's outputs are (x, u)-flat: they read no g-value history."""
    idx = tower.indices
    out = []
    for k, y in window_bindings(sys, cand, traj, k_window, -max(idx.r1),
                                max(idx.r2), 0):
        x, u = traj.state(k), traj.inputs(k)
        w = tower.trajectory_seed(y, x, u)
        y.update(zip(tower.variables, w.tolist()))
        out.append(Window(k, y, x, u, w))
    return out


def verify_parameterization(sys, cand, param, traj: Trajectory,
                            k_window, tol: float = 1e-8) -> ResidualReport:
    """Check |x(k) - F_x(y-shifts)| and |u(k) - F_u(y-shifts)| along the
    trajectory for each k in the window."""
    return check_windows(param, tower_windows(sys, cand, param.tower, traj,
                                              k_window), tol)


def check_windows(param, windows, tol: float = 1e-8) -> ResidualReport:
    """The residuals of `verify_parameterization` at `windows`; an EvalError
    is raised again, same type, naming its window's k."""
    worst_x = worst_u = 0.0
    worst_k = 0
    for win in windows:
        try:
            if param.F_x is not None:
                fx = [evaluate(e, win.pt) for e in param.F_x]
                fu = [evaluate(e, win.pt) for e in param.F_u]
            else:
                # seed Newton off the exact tower point w, moved by 1e-3 cos(i)
                # (1 + |w_i|) so that convergence shows local invertibility
                w = win.w
                seed = w + 1e-3 * np.cos(np.arange(w.size)) * (1.0 + np.abs(w))
                fx, fu, _ = param.tower.recover(win.pt, seed=seed)
        except EvalError as ex:
            raise type(ex)(f"at window k = {win.k}: {ex}") from ex
        rx = max(abs(a - b) for a, b in zip(fx, win.x))
        ru = max(abs(a - b) for a, b in zip(fu, win.u))
        if max(rx, ru) > max(worst_x, worst_u):
            worst_k = win.k
        worst_x = max(worst_x, rx)
        worst_u = max(worst_u, ru)
    return ResidualReport(max_residual_x=worst_x, max_residual_u=worst_u,
                          worst_k=worst_k, tolerance=tol,
                          checked=len(windows))


def _max_abs(r: np.ndarray) -> float:
    """max |r_i| as a Python float, NaN when an entry is NaN (as
    `np.max(np.abs(r))` is), so that a NaN residual never counts as
    progress; Python's `max` alone would skip a NaN after the first entry."""
    a = [abs(v) for v in r.tolist()]
    total = sum(a)
    return max(a) if total == total else total


def newton_solve(residual_fn, jacobian_fn, seed: np.ndarray, tol: float = 1e-12,
                 max_iter: int = 60) -> np.ndarray:
    """Dense Newton iteration for square systems; raises on stagnation.

    `residual_fn(w)` returns the residual as a 1-D float array. It runs once
    at the seed and once per trial step; an accepted step's residual is
    carried into the next iteration. The infinity norm of each residual is
    taken once, on Python floats (`_max_abs`): a trial step is accepted when
    its norm is below the current one, which a NaN norm never is, and the
    iteration stops when the norm is at most `tol`."""
    w = np.array(seed, dtype=float)
    r = residual_fn(w)
    norm = _max_abs(r)
    for _ in range(max_iter):
        if norm <= tol:
            return w
        J = jacobian_fn(w)
        try:
            step = np.linalg.solve(J, r)
        except np.linalg.LinAlgError as ex:
            raise EvalError("singular Jacobian in Newton solve") from ex
        # damped step for robustness far from the seed
        lam = 1.0
        for _ in range(25):
            cand = w - lam * step
            rc = residual_fn(cand)
            norm_c = _max_abs(rc)
            if norm_c < norm:
                w, r, norm = cand, rc, norm_c
                break
            lam *= 0.5
        else:
            raise EvalError("Newton iteration stagnated")
    if norm <= tol:
        return w
    raise EvalError("Newton iteration did not converge")
