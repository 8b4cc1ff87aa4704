"""Flatness analysis of two-input candidates: shift indices, the tower of
backward/forward output shifts, its inversion into the parameterizing map,
and the forward/backward/general classification via rank conditions.

The pipeline mirrors the constructive proofs: transform the first output
component's relevant shift into a new input (ubar1) and/or a new g-function
history (zetabar1), rebuild the system in the transformed coordinates, and
read the index structure off the shifts of the second component. One tower
search serves all three constructions, since the combined one (Prop. 4) is
the prolongation (Prop. 2) or the prelongation (Prop. 3) when one of its
chains is empty. The two chains mirror each other in time, so each is a
record (`_Chain`: shift direction, starting depth, lead variable) and each
step of the search is one routine run on either: the depths
(`relative_degrees`, `backward_depths`), the transform solve and the chain
checks. Only their index rules differ (r22 by a search, r12 by the region
identity). Forward detection runs first (it needs no inverse map),
then backward, then the combined case; component and input permutations are
tried deterministically. `analyze` verifies the inverted tower once, along a
seeded random trajectory, before classifying; a failure raises.

The `Tower` is the tower map w -> y, whose inverse is the parameterization F,
and the one object every later stage reads. The class's rank conditions are
read off the inverse of its Jacobian, the Jacobian of F by the implicit
function theorem, so no F tree is differentiated and symbolic and Newton
parameterizations share one rank path. The search records what each tower
variable equals along a trajectory (`Tower.sources`: an output shift, a
state or an input), which gives Newton its exact trajectory seed and the
extension its point.
"""

from __future__ import annotations

import random
from collections import namedtuple
from dataclasses import dataclass, field
from functools import cached_property, partial

import numpy as np

from .expr import (
    EvalError, Expr, Var, ZERO, compile_exprs, evaluate,
    jacobian, shift_vars, sub as esub, substitute, to_text, vars_of,
)
from .model import ModelError, SystemModel, invert_extension, choose_extension
from .numeric import (
    NONZERO_TOL, RESIDUAL_TOL, SEED, ResidualReport, SimulationError,
    _magnitudes, _max_abs, block_triangular_solver, depends_on, eval_matrix,
    fold_residuals, newton_solve, numeric_rank, probe_points, probe_rank,
    random_inputs, simulate,
)
from .solve import SolveError, solve_equations

__all__ = [
    "AnalysisError", "ClassificationError", "FlatCandidate", "ShiftIndices",
    "Tower", "Parameterization", "Classification", "AnalyzeOptions",
    "relative_degrees", "backward_depths", "build_tower", "invert_tower",
    "classify", "normalize_inputs", "analyze", "AnalysisReport",
    "verification_trajectory",
]

VERIFY_STEPS = 12


class AnalysisError(Exception):
    pass


class ClassificationError(AnalysisError):
    """A rank assertion contradicted the classification."""


@dataclass
class FlatCandidate:
    """Candidate flat output: m expressions over (zeta histories, x, u)."""

    phi: tuple
    user_F: tuple | None = None          # (F_x tuple, F_u tuple) over y-shifts

    def __post_init__(self):
        self.phi = tuple(self.phi)

    def is_xu_flat(self, sys: SystemModel) -> bool:
        return all(vars_of(p).issubset(sys.coordinates) for p in self.phi)


@dataclass
class AnalyzeOptions:
    input_boxes: dict = field(default_factory=dict)  # 1-based input index -> (lo, hi)
    skip_verification: bool = False


@dataclass
class ShiftIndices:
    """All index data in the original output-component order."""

    rho: tuple
    gamma: tuple | None
    r1: tuple
    r2: tuple
    d1: int
    d2: int
    sigma_y: tuple   # role order: sigma_y[0] is the chain-defining component (0-based)

    @property
    def d(self) -> int:
        return self.d1 + self.d2

    @property
    def size_R(self) -> int:
        return sum(self.r1) + sum(self.r2)

    def to_json(self):
        return {
            "rho": list(self.rho),
            "gamma": list(self.gamma) if self.gamma is not None else None,
            "R1": list(self.r1),
            "R2": list(self.r2),
            "d1": self.d1, "d2": self.d2, "d": self.d,
        }


@dataclass
class TowerContext:
    mode: str                      # "forward" | "backward" | "combined"
    sys_bar: SystemModel           # transformed system the rows live in
    base_model: SystemModel        # the analyzed model (psi resolved if used)
    u_inverse: dict | None         # {original u leaf: expr over (x, ubar)}
    zeta_inverse: dict | None      # {zeta_j[-1]: expr over (x, zetabar[-1])}
    diagnostics: list              # the tower search's log, shared by its towers


@dataclass
class SparseKernel:
    """A matrix of expressions compiled at its structural nonzeros. Called
    on the values of the leaves it was compiled over, it returns the dense
    array, zero off the nonzeros."""

    nonzeros: list                 # (row, column) of each nonzero, row-major
    values: object                 # leaf values -> the nonzeros' values, in order
    shape: tuple
    flat: list = field(init=False)  # each nonzero's index in the flat array

    def __post_init__(self):
        self.flat = [i * self.shape[1] + j for i, j in self.nonzeros]

    def __call__(self, leaf_values) -> np.ndarray:
        out = np.zeros(self.shape[0] * self.shape[1])
        out[self.flat] = self.values(leaf_values)
        return out.reshape(self.shape)


@dataclass
class RankProbe:
    at_point: int | None
    generic: int
    per_point: list
    required: int | None = None


class Window(namedtuple("Window", "k x u y w bindings")):
    """Step k of a verification window: state x and input u at k, measured
    targets y (`Tower.targets` order), exact tower point w, and the (keys,
    values) that `pt` binds on first read (Newton reads none of them)."""

    @cached_property
    def pt(self) -> dict:
        return dict(zip(*self.bindings))


@dataclass
class Tower:
    """The tower map w -> y of the tower variables w; its inverse is F.

    Every numeric decision about a tower reads its `windows` (one `Window`
    per verification step of a trajectory, `windows_along`, set by the
    search): its rank, the solver's pivots, the class ranks read off the
    inverse Jacobian (`jacobian_blocks`) and the verification of F, by
    Newton inversion (`recover`) where the solver cannot invert the tower;
    the reported at-point rank is taken at `point`. The rows, the input
    recovery and their Jacobians compile on first use into straight-line
    functions of `leaves` (`expr.compile_exprs`, bit-identical to
    `evaluate`), each its own `*_kernel`; the rest is read from `context`."""

    rows: dict                     # (component j, shift s) -> Expr, in that order
    variables: tuple
    indices: ShiftIndices
    context: TowerContext
    sources: dict                  # {tower variable: y leaf, state or input it equals}
    outputs: tuple                 # the candidate's phi over the base model's x, u
    windows: list = field(default_factory=list)   # set by the tower search
    rank_probe: RankProbe | None = None   # `point`, then each window

    def row_exprs(self):
        return list(self.rows.values())

    @cached_property
    def targets(self) -> list:
        """The y leaves the rows equal, in `rows` order."""
        return [Var("y", j, s) for j, s in self.rows]

    @cached_property
    def leaves(self) -> list:
        """The tower variables followed by the parameters: the argument
        order of every compiled function of the tower."""
        return [*self.variables, *self.context.base_model.param_leaves]

    @cached_property
    def point(self) -> dict:
        """Each tower variable's source (`sources`: an output shift, a state
        or an input) at the base model's analysis jet, in variable order,
        then the parameters: the point of the reported at-point rank and of
        the extension. Read only."""
        base = self.context.base_model
        exprs = [base.shift(self.outputs[src.component - 1], src.shift)
                 if src.family == "y" else src
                 for src in map(self.sources.get, self.variables)]
        center = base.jet_center(set().union(*map(vars_of, exprs)))
        point = {v: evaluate(e, center) for v, e in zip(self.variables, exprs)}
        point.update(base.param_bindings())
        return point

    @cached_property
    def jacobian_kernel(self) -> SparseKernel:
        """The Jacobian of the rows (`row_exprs` order) w.r.t. the variables,
        compiled once per tower at its structural nonzeros: maps the values
        of `leaves` to an array, bit-identical to `eval_matrix`. The tower
        search rank, the class ranks and the linearizing certificate
        evaluate it; Newton inversion reads its nonzeros alone
        (`SparseKernel.values`, `step_solver`)."""
        return _compiled_matrix(self.row_exprs(), self.variables, self.leaves)

    @cached_property
    def step_solver(self):
        """`(nonzero values, r) -> J^-1 r` for the tower Jacobian J
        (`numeric.block_triangular_solver` over `jacobian_kernel.nonzeros`),
        built on the first Newton inversion of the tower."""
        return block_triangular_solver(self.jacobian_kernel.nonzeros,
                                       len(self.variables))

    def jacobian_at(self, pt) -> np.ndarray:
        """The tower Jacobian at a point binding every leaf."""
        return self.jacobian_kernel([pt[v] for v in self.leaves])

    def rank_at(self, pt) -> int | None:
        """The numeric rank of the tower Jacobian at a point binding every
        leaf, None where it hits a pole or a non-finite entry."""
        try:
            return numeric_rank(self.jacobian_at(pt))
        except (EvalError, ValueError):
            return None

    @cached_property
    def u_recovery(self) -> dict:
        """{original input leaf: expr over the tower variables}, in input
        order: the inverse input transform, or the identity when the tower
        has none."""
        inverse = self.context.u_inverse or {}
        return {v: inverse.get(v, v) for v in self.context.base_model.input_vars}

    @cached_property
    def row_kernel(self):
        """The rows (`row_exprs` order), compiled: Newton's residual."""
        return compile_exprs(self.row_exprs(), self.leaves)

    @cached_property
    def u_kernel(self):
        """The input recovery (`u_recovery`), compiled."""
        return compile_exprs([*self.u_recovery.values()], self.leaves)

    @cached_property
    def u_jacobian_kernel(self) -> SparseKernel:
        """The input recovery's Jacobian, compiled at its nonzeros."""
        return _compiled_matrix([*self.u_recovery.values()], self.variables,
                                self.leaves)

    @cached_property
    def _state_rows(self) -> list:
        """Position of each state among the tower variables."""
        return [self.variables.index(v) for v in self.context.base_model.state_vars]

    @cached_property
    def output_kernel(self):
        """The outputs compiled once over the base model's coordinates and
        parameters, as towers are (x, u)-flat."""
        base = self.context.base_model
        return compile_exprs(self.outputs, [*base.coordinates, *base.param_leaves])

    @cached_property
    def _window_plan(self) -> tuple:
        """How `windows_along` reads a trajectory by position: the output
        times k + lo .. k + hi around a step k, the keys of `Window.pt`
        (parameters, y<j>[s] for s = lo .. hi, tower variables), and the
        position of each target among its y values and of each variable's
        source (`sources`) among the states, inputs and targets."""
        m, lo, hi = len(self.outputs), -max(self.indices.r1), max(self.indices.r2)
        base = self.context.base_model
        ys = [Var("y", j + 1, s) for s in range(lo, hi + 1) for j in range(m)]
        at = [(s - lo) * m + j - 1 for j, s in self.rows]
        data = [*base.coordinates, *self.targets]
        return (lo, hi, [*base.param_leaves, *ys, *self.variables], at,
                [data.index(self.sources[v]) for v in self.variables])

    def windows_along(self, traj, ks) -> list:
        """The `Window` of each step of `ks` along `traj`, read by position
        (`_window_plan`): the compiled outputs run once per trajectory time,
        on the states, inputs and parameters there, and each window's exact
        tower point w, Newton's seed, is each variable's source there."""
        lo, hi, keys, at, seed_at = self._window_plan
        values = [traj.params[p] for p in self.context.base_model.param_leaves]
        outputs = {}    # trajectory time -> output values
        out = []
        for k in ks:
            ys = []
            for t in range(k + lo, k + hi + 1):
                if t not in outputs:
                    i = traj.index(t)
                    outputs[t] = self.output_kernel([*traj.x[i], *traj.u[i], *values])
                ys += outputs[t]
            x, u, y = traj.state(k), traj.inputs(k), [ys[p] for p in at]
            data = [*x, *u, *y]
            w = [data[i] for i in seed_at]
            out.append(Window(k, x, u, y, w, (keys, values + ys + w)))
        return out

    @cached_property
    def seed_offset(self) -> list:
        """1e-3 cos(i) for tower variable i: Newton starts off the exact point
        w, at w + seed_offset (1 + |w|), to show local invertibility. A list
        taken from numpy's cos, not `math.cos`: the two may differ in the
        last bit on some platforms, and Newton's path with them."""
        return (1e-3 * np.cos(np.arange(len(self.variables)))).tolist()

    def recover(self, y, seed):
        """Solve tower(w) = y for w by Newton from `seed`, where `y` holds
        the measured targets in `targets` order; return (x values, u values,
        w), each a list. Newton runs on Python floats (`newton_solve`): each
        step evaluates the Jacobian's nonzeros and solves by substitution in
        block triangular order (`step_solver`)."""
        rows, nonzeros = self.row_kernel, self.jacobian_kernel.values
        params = self.context.base_model.param_values

        def residual(w):
            return [a - b for a, b in zip(rows(w + params), y)]

        def step(w):
            return partial(self.step_solver, nonzeros(w + params))

        w = newton_solve(residual, step, seed)
        return (*self.states_inputs(w), w)

    def states_inputs(self, w):
        """(x values, u values) at the tower-variable point w."""
        values = [*w, *self.context.base_model.param_values]
        return [values[i] for i in self._state_rows], self.u_kernel(values)

    def jacobian_blocks(self, w):
        """(dF_x, dF_u, w-rows) as arrays over all tower targets, computed from
        the inverse of the tower Jacobian at the variable point w."""
        values = [*w, *self.context.base_model.param_values]
        M = np.linalg.inv(self.jacobian_kernel(values))  # vars x targets
        dFx = M[self._state_rows, :]
        # chain rule for u = Phi_u(vars)
        dFu = self.u_jacobian_kernel(values) @ M
        return dFx, dFu, M


def _compiled_matrix(exprs, cols, leaves) -> SparseKernel:
    """The Jacobian of `exprs` w.r.t. `cols`, compiled over `leaves` at its
    structural nonzeros only."""
    J = jacobian(exprs, cols)
    nonzeros = [(i, j) for i, row in enumerate(J)
                for j, e in enumerate(row) if e != ZERO]
    return SparseKernel(nonzeros, compile_exprs([J[i][j] for i, j in nonzeros], leaves),
                        (len(exprs), len(cols)))


@dataclass
class Parameterization:
    """(x, u) = F(y-shifts): symbolic F_x, F_u unless `source` is
    "tower_implicit" (Newton inversion of `tower`, the tower map)."""

    F_x: tuple | None
    F_u: tuple | None
    source: str                    # "tower_inverted" | "user_supplied" | "tower_implicit"
    tower: Tower
    diagnostics: list = field(default_factory=list)

    def check(self, windows) -> ResidualReport:
        """|x(k) - F_x| and |u(k) - F_u| at each of `windows`, folded by
        `fold_residuals`; F is Newton's inversion of the tower from w + offset
        (`Tower.seed_offset`) where it has no symbolic F. An EvalError is
        raised again, same type, naming its k."""
        tower = self.tower

        def residuals(win):
            try:
                if self.F_x is not None:
                    fx = [evaluate(e, win.pt) for e in self.F_x]
                    fu = [evaluate(e, win.pt) for e in self.F_u]
                else:
                    fx, fu, _ = tower.recover(win.y, [
                        a + o * (1.0 + abs(a)) for a, o in zip(win.w, tower.seed_offset)])
            except EvalError as ex:
                raise type(ex)(f"at window k = {win.k}: {ex}") from ex
            return (win.k, _max_abs([a - b for a, b in zip(fx, win.x)]),
                    _max_abs([a - b for a, b in zip(fu, win.u)]))

        return fold_residuals(map(residuals, windows))


@dataclass
class Classification:
    kind: str                      # linearizing | forward_flat | backward_flat | general
    rank_Fu_at_R2: int
    rank_Fx_at_minusR1: int
    rank_g_of_F: int | None


# ---------------------------------------------------------------------------
# Shift indices.

@dataclass(frozen=True)
class _Chain:
    """One chain of the tower, described once for both directions of time:
    the forward chain on ubar1 of a prolongation (Prop. 2) and the backward
    chain on zetabar1 of a prelongation (Prop. 3). Each step of the search
    (depths, transform, checks) is one routine reading a chain."""

    sign: int       # +1: the chain shifts forward; -1: backward
    start: int      # the least depth its search tries (rho_j >= 0, gamma_j >= 1)
    lead: Var       # the new coordinate its transform defines
    base: str       # the model's leaves the transform replaces (SystemModel attribute)
    noun: str       # what those leaves are, in messages

    @property
    def second(self) -> Var:
        """The other new coordinate of the lead's family (ubar2, zetabar2[-1])."""
        return Var(self.lead.family, 2, self.lead.shift)


_FORWARD = _Chain(1, 0, Var("ubar", 1, 0), "input_vars", "input")
_BACKWARD = _Chain(-1, 1, Var("zetabar", 1, -1), "histories", "history")


def relative_degrees(sys: SystemModel, cand: FlatCandidate):
    """rho_j: minimal alpha >= 0 with delta^alpha phi_j depending on the
    current input, certified numerically at the analysis point or nearby."""
    return _depths(sys, cand, _FORWARD)


def backward_depths(sys: SystemModel, cand: FlatCandidate):
    """gamma_j: minimal beta >= 1 with delta^-beta phi_j depending on some
    g-value history zeta[-1]; the backward shifts need the inverse map psi."""
    return _depths(sys, cand, _BACKWARD)


def _depths(sys: SystemModel, cand: FlatCandidate, chain: _Chain):
    """Each output component's depth along `chain`: the least k >= start
    whose shift by sign * k depends on the leaves the chain replaces."""
    cap = sys.n + sys.m
    out = []
    for j, phi in enumerate(cand.phi):
        depth = _first_dependent_shift(sys, phi, lambda e: getattr(sys, chain.base),
                                       chain.start, cap, chain.sign)
        if depth is None:
            raise AnalysisError(
                f"output component {j + 1} shows no {chain.noun} dependence up "
                f"to shift {chain.sign * cap}; defective candidate")
        out.append(depth)
    return tuple(out)


def _first_dependent_shift(sys: SystemModel, e: Expr, targets, start: int,
                           stop: int, step: int):
    """Smallest k in [start, stop] whose shift sys.shift(e, step * k)
    depends on the leaves `targets(shifted)`, or None: the relative degrees
    (forward, on the inputs), the backward depths (backward, on the
    histories) and r22 (forward, on ubar2 and its shifts)."""
    for k in range(start, stop + 1):
        shifted = sys.shift(e, step * k)
        if _depends(sys, shifted, targets(shifted)):
            return k
    return None


def _jet_probes(sys: SystemModel, leaves):
    return probe_points(sys.jet_center(leaves), SEED)


# ---------------------------------------------------------------------------
# Transforms.

def _solve_transform(sys: SystemModel, first: Expr, chain: _Chain, k1: int):
    """Solve the chain's lead = delta^(sign k1) phi_first, the definition, for
    one of the two leaves the chain replaces (inputs or histories), tried in
    order, and rename the other one the second new coordinate. Returns the
    inverse map {old leaf: expr over the remaining coordinates and the new
    ones}, the definition and the untouched old leaf."""
    definition = sys.shift(first, chain.sign * k1)
    target, old = chain.lead, getattr(sys, chain.base)
    leaves = vars_of(definition) | set(old)
    probes = list(probe_points(sys.jet_center(leaves), SEED,
                               bind=[(target, definition)]))
    last = None
    for solved in old:
        try:
            sol = solve_equations([esub(definition, target)], [solved], probes)
        except SolveError as ex:
            last = ex
            continue
        other = next(v for v in old if v != solved)
        inverse = {other: chain.second,
                   solved: substitute(sol[solved], {other: chain.second})}
        return inverse, definition, other
    raise AnalysisError(f"transform {to_text(target)} = {to_text(definition)} "
                        f"is not solvable for any of "
                        f"{[to_text(u) for u in old]}: {last}")


def _make_sys_bar(sys: SystemModel, u_inverse, transform_def, gbar,
                  zeta_inverse):
    """The system in the tower's coordinates. An input transform makes the
    inputs (ubar1, ubar2); without one the original inputs stay, per the
    prelongation construction. A history transform makes g = gbar, and psi
    the base psi composed with the transforms (checked, not solved): back[v]
    is psi's row for v at zeta[-1] = `zeta_inverse`, and psi_bar is back[x]
    and back[u], or (definition, untouched input) at back."""
    f_bar, g_bar, psi_x, psi_u = sys.f, gbar, None, None
    inputs = sys.input_vars
    point = dict(sys.point)
    if gbar is not None:
        back = {v: substitute(e, zeta_inverse)
                for v, e in zip(sys.coordinates, (*sys.psi_x, *sys.psi_u))}
        psi_x = tuple(back[v] for v in sys.state_vars)
        psi_u = tuple(back[v] for v in sys.input_vars)
    if u_inverse is not None:
        f_bar = tuple(substitute(fi, u_inverse) for fi in sys.f)
        inputs = (Var("ubar", 1, 0), Var("ubar", 2, 0))
        base = sys.analysis_point()
        definition, other = transform_def
        point[inputs[0]] = evaluate(definition, base)
        point[inputs[1]] = base[other]
        for v in sys.input_vars:
            point.pop(v, None)
        if gbar is not None:
            g_bar = tuple(substitute(gj, u_inverse) for gj in gbar)
            psi_u = (substitute(definition, back), back[other])
    bar = SystemModel(
        f=f_bar, state_vars=sys.state_vars,
        input_vars=inputs, g=g_bar, psi_x=psi_x, psi_u=psi_u,
        gvalue_family="zetabar" if g_bar is not None else sys.gvalue_family,
        params=sys.params, point=point, name=sys.name + "~bar")
    return bar if g_bar is None else invert_extension(bar)


# ---------------------------------------------------------------------------
# Tower construction.

_SIGMA_Y = ((0, 1), (1, 0))


def build_tower(sys: SystemModel, cand: FlatCandidate,
                opts: AnalyzeOptions | None = None) -> Tower:
    """Construct the stacked shift tower of Props. 2-4 and its index data.

    Tries forward detection first (both component orders), then backward,
    then the combined construction; each permutation transforms and checks
    its chains, forward on ubar1 and/or backward on zetabar1, by the same
    routines (`_solve_transform`, `_chain_checks`) read off a `_Chain`. A
    permutation passing every structural check is admissible when its
    Jacobian has full rank at some verification window. The first admissible tower of full rank at every window wins;
    failing that, the first admissible one. Each tower passed over is
    reported in the diagnostics, with the window where its rank drops.
    """
    opts = opts or AnalyzeOptions()
    if sys.m != 2:
        raise AnalysisError("towers are defined for two-input systems (m = 2)")
    if not cand.is_xu_flat(sys):
        raise AnalysisError("tower construction needs an (x,u)-flat candidate")
    clash = [to_text(v) for v in sys.coordinates if v.family in ("ubar", "zetabar")]
    if clash:
        raise AnalysisError(f"model coordinates {', '.join(clash)} are in the ubar or "
                            "zetabar family the tower's transforms define; rename them")
    rho = relative_degrees(sys, cand)
    diags, fallback = [], None
    try:
        for tower in _admissible_towers(sys, cand, rho, opts.input_boxes, diags):
            why = _rank_drop(tower)
            if why is None:
                return tower
            diags.append(f"{tower.context.mode} sigma_y={tower.indices.sigma_y}: {why}")
            fallback = fallback or tower
    except (AnalysisError, ModelError) as ex:
        if fallback is None:
            raise
        diags.append(f"backward towers: {ex}")
    if fallback is None:
        raise AnalysisError(
            "no permutation admits the Prop. 2-4 tower structure:\n  - "
            + "\n  - ".join(diags))
    return fallback


def _admissible_towers(sys, cand, rho, boxes, diags):
    """The admissible towers in search order, the backward ones lazily. The
    backward depths are taken once the model has psi: before the forward
    towers, which report them, and again only for the model the backward
    search runs on if that differs (an auto-selected g or a solved psi)."""
    gamma = None if sys.psi_x is None else backward_depths(sys, cand)
    for sigma_y in _SIGMA_Y:
        t = _try_tower(sys, cand, rho, gamma, sigma_y, "forward", boxes, diags)
        if t is not None:
            yield t

    # backward machinery needs g and psi
    sysb = sys
    if sysb.g is None:
        choice = choose_extension(sysb)
        sysb = sysb.with_g(choice.g).with_psi(choice.psi_x, choice.psi_u)
        diags.append(f"auto-selected extension map g = {choice.selected_coordinates}")
    sysb = invert_extension(sysb)    # solves for a missing psi, checks any psi
    if sysb is not sys:
        gamma = backward_depths(sysb, cand)
    # Prop. 3 hypothesis, the outputs jointly regular in u, for every sigma_y
    leaves = set().union(*map(vars_of, cand.phi)) | set(sysb.input_vars)
    rank = probe_rank(list(cand.phi), list(sysb.input_vars),
                      _jet_probes(sysb, leaves))

    for mode in ("backward", "combined"):
        for sigma_y in _SIGMA_Y:
            if mode == "backward" and rank != sysb.m:
                diags.append(f"backward sigma_y={sigma_y}: rank d_u phi = {rank} < m "
                             "(candidate routed to the combined construction)")
                continue
            t = _try_tower(sysb, cand, rho, gamma, sigma_y, mode, boxes, diags)
            if t is not None:
                yield t


def _try_tower(sys, cand, rho, gamma, sigma_y, mode, boxes, diags):
    """One permutation of the tower search; records why it fails in diags.

    The mode names the chains of the tower: "forward" a forward chain on
    ubar1 (Prop. 2), "backward" a backward chain on zetabar1 (Prop. 3),
    "combined" both (Prop. 4). Each chain brings its transform, lead =
    delta^(+-k1) phi_first (`_solve_transform`), and its checks
    (`_chain_checks`); only the index rules differ: a forward chain's r22 is
    the first shift of phi2 on ubar2, and a backward chain's r12 follows
    from the region identity. A backward chain also makes g = gbar. The
    caller checks Prop. 3's hypothesis (rank d_u phi = m) before "backward".
    """
    tag = f"{mode} sigma_y={sigma_y}"
    forward, backward = mode != "backward", mode != "forward"
    first = cand.phi[sigma_y[0]]
    rho1, rho2 = rho[sigma_y[0]], rho[sigma_y[1]]
    gamma1, gamma2 = (gamma[sigma_y[0]], gamma[sigma_y[1]]) if backward else (0, 0)
    u_inverse = tdef = zeta_inverse = gbar = None
    try:
        if forward:
            u_inverse, *tdef = _solve_transform(sys, first, _FORWARD, rho1)
        if backward:
            zeta_inverse, _, other = _solve_transform(sys, first, _BACKWARD, gamma1)
            gbar1 = sys.shift(first, 1 - gamma1)   # over (x, u)
            bad = [to_text(v) for v in vars_of(gbar1) if v.family == sys.gvalue_family]
            if bad:
                raise AnalysisError(f"gbar1 still contains history leaves {bad}; "
                                    "inconsistent backward depth")
            gbar = (gbar1, sys.g[sys.histories.index(other)])
        sys_bar = _make_sys_bar(sys, u_inverse, tdef, gbar, zeta_inverse)
    except (AnalysisError, ModelError, SolveError, EvalError) as ex:
        diags.append(f"{tag}: {ex}")
        return None
    phi_bar = _bar_phi(cand, sigma_y, u_inverse)

    r11 = r12 = r21 = r22 = d1 = d2 = 0
    if forward:
        cap = sys.n    # rho1 + r22 <= n in every admissible tower
        ubar2 = sys_bar.input_vars[1]
        r22 = _first_dependent_shift(
            sys_bar, phi_bar[1],
            lambda e: [v for v in vars_of(e) | {ubar2}
                       if (v.family, v.component) == (ubar2.family, ubar2.component)
                       and v.shift >= ubar2.shift],
            rho2, cap, 1)
        if r22 is None:
            diags.append(f"{tag}: no ubar2 dependence up to shift {cap}")
            return None
        if not backward and rho1 + r22 != sys.n:
            diags.append(f"{tag}: square count rho1 + r22 = {rho1 + r22} != n = {sys.n}")
            return None
        d2 = r22 - rho2
        r21 = rho1 + d2
    if backward:
        r12 = sys.n + 1 - gamma1 - (rho1 + r22 if forward else 0)
        # alone, the backward chain may be empty (d1 = 0, r12 = gamma2 - 1),
        # as the forward chain may (r22 = rho2)
        lowest = gamma2 if forward else gamma2 - 1
        if r12 < lowest:
            lhs = "region identity gives r12" if forward else "r12 = n+1-gamma1"
            bound = "gamma2" if forward else "gamma2 - 1"
            diags.append(f"{tag}: {lhs} = {r12} < {bound} = {lowest}")
            return None
        r11 = gamma1 + (r12 - gamma2)
        d1 = r11 + 1 - gamma1
    why = None
    if forward:
        why = _chain_checks(sys_bar, phi_bar, _FORWARD, rho1, rho2, d2)
    if backward and why is None:
        why = _chain_checks(sys_bar, phi_bar, _BACKWARD, gamma1, gamma2, d1)
    if why is not None:
        diags.append(f"{tag}: {why}")
        return None

    rows, variables = _rows_and_vars(sys_bar, phi_bar, sigma_y,
                                     (r11, r21), (r12, r22), d1, d2)
    # what each tower variable equals along a trajectory: a chain variable
    # is a pure-chain row of the first output, ubar2 the untouched input
    j_first = sigma_y[0] + 1
    sources = {v: v for v in variables}
    if forward:
        sources.update((Var("ubar", 1, k), Var("y", j_first, rho1 + k))
                       for k in range(d2 + 1))
        sources[Var("ubar", 2, 0)] = tdef[1]
    if backward:
        sources.update((Var("zetabar", 1, -q), Var("y", j_first, 1 - gamma1 - q))
                       for q in range(1, d1 + 1))
    idx = ShiftIndices(rho=rho, gamma=gamma,
                       r1=_unpermute(sigma_y, r11, r12),
                       r2=_unpermute(sigma_y, r21, r22),
                       d1=d1, d2=d2, sigma_y=sigma_y)
    ctx = TowerContext(mode=mode, sys_bar=sys_bar, base_model=sys,
                       u_inverse=u_inverse, zeta_inverse=zeta_inverse,
                       diagnostics=diags)
    tower = Tower(rows=rows, variables=variables, indices=idx, context=ctx,
                  sources=sources, outputs=cand.phi)
    try:
        traj = verification_trajectory(sys, idx, VERIFY_STEPS,
                                       random.Random(SEED + 1), boxes)
        tower.windows = tower.windows_along(traj, range(VERIFY_STEPS))
    except (EvalError, SimulationError) as ex:
        diags.append(f"{tag}: verification trajectory: {ex}")
        return None
    rp = tower.rank_probe = _tower_rank(tower)
    if rp.generic < rp.required:
        diags.append(f"{tag}: tower rank {rp.generic} < required "
                     f"{rp.required} at every verification window")
        return None
    return tower


def _bar_phi(cand, sigma_y, u_inverse):
    phi = [cand.phi[sigma_y[0]], cand.phi[sigma_y[1]]]
    if u_inverse:
        phi = [substitute(p, u_inverse) for p in phi]
    return phi


def _depends(sys_bar, e, target_vars) -> bool:
    return depends_on(e, list(target_vars), _jet_probes(
        sys_bar, vars_of(e) | set(target_vars)))


def _rows_and_vars(sys_bar, phi_bar, sigma_y, r_first, r_second, d1, d2):
    """Tower rows keyed by (original component, shift), in that order, plus
    the variable list: the zetabar1 chain, the states, the input chain
    ubar1[0..d2] (the first input when d2 = 0) and the second input."""
    roles = sorted(zip(sigma_y, phi_bar, (r_first, r_second)), key=lambda r: r[0])
    rows = {(j + 1, s): sys_bar.shift(phi, s)
            for j, phi, (lo, hi) in roles for s in range(-lo, hi + 1)}
    u1, u2 = sys_bar.input_vars
    variables = [Var("zetabar", 1, -k) for k in range(d1, 0, -1)]
    variables += list(sys_bar.state_vars)
    variables += [u1.shifted(k) for k in range(d2 + 1)] + [u2]
    return rows, tuple(variables)


def _tower_rank(tower: Tower) -> RankProbe:
    """Rank of the tower's compiled Jacobian (compiled here) at `point`
    (`at_point`, None if not evaluable) and at each window (`per_point`, 0
    if not evaluable); `generic` is the highest window rank."""
    per_window = [tower.rank_at(win.pt) or 0 for win in tower.windows]
    try:
        at_point = tower.rank_at(tower.point)
    except EvalError:
        at_point = None
    return RankProbe(at_point=at_point, generic=max(per_window, default=0),
                     per_point=per_window, required=len(tower.variables))


def _rank_drop(tower: Tower) -> str | None:
    """The tower's rank at the first window where it is below full, or None
    when it is full at every window."""
    rp = tower.rank_probe
    return next((f"tower rank {r} < required {rp.required} at verification "
                 f"window k = {win.k}"
                 for win, r in zip(tower.windows, rp.per_point)
                 if r != rp.required), None)


def _chain_checks(sys_bar, phi_bar, chain: _Chain, k1, k2, d):
    """Why a chain's rows violate Prop. 2 (forward) or Prop. 3 (backward),
    or None. A row's shift is sign * s: phi1's row at k1 is the lead
    (|row - lead| at most `NONZERO_TOL` at every jet probe); phi2's d rows
    from k2 are free of the family's second leaf, and with a nonempty chain
    (d > 0) phi2's row at k2 + d - start reaches the lead shifted by
    d - start, the chain's end. phi1's rows below k1 need no check: `_depths`
    picks k1 as the first shift of phi1 on the leaves the transform replaces,
    so each row below it is free of them, and so of the chain's family."""
    sign, lead, family = chain.sign, chain.lead, chain.lead.family
    e = sys_bar.shift(phi_bar[0], sign * k1)
    if e != lead and any(a > NONZERO_TOL for a in _magnitudes(
            [esub(e, lead)], _jet_probes(sys_bar, vars_of(e) | {lead}))):
        return f"phi1_[{sign * k1}] != {to_text(lead)} (got {to_text(e)})"
    for s in range(k2, k2 + d):
        e = sys_bar.shift(phi_bar[1], sign * s)
        targets = [v for v in vars_of(e) if (v.family, v.component) == (family, 2)]
        if targets and _depends(sys_bar, e, targets):
            return f"phi2_[{sign * s}] depends on {family}2"
    if d > 0:
        row, end = sign * (k2 + d - chain.start), lead.shifted(sign * (d - chain.start))
        if not _depends(sys_bar, sys_bar.shift(phi_bar[1], row), [end]):
            return f"phi2_[{row}] does not reach {to_text(end)}"
    return None


def _unpermute(sigma_y, first_val, second_val):
    out = [0, 0]
    out[sigma_y[0]] = first_val
    out[sigma_y[1]] = second_val
    return tuple(out)


# ---------------------------------------------------------------------------
# Tower inversion.

def invert_tower(cand: FlatCandidate, tower: Tower) -> Parameterization:
    """Solve the tower equations for the parameterizing map.

    Stage A solves states and chain variables from the rows below the top
    shifts (so F_x only sees y_[-R1, R2-1], the Eq.-(7) zero-block shape);
    stage B recovers the inputs from the top rows. Falls back to the
    user-supplied map, then to the implicit (Newton) parameterization of the
    tower map itself. Pivots are picked at the tower's windows; `analyze`
    verifies the result there."""
    sys, idx = tower.context.base_model, tower.indices
    diags = list(tower.context.diagnostics)

    top_shift = {j: idx.r2[j - 1] for j in (1, 2)}
    eq_low, eq_top = [], []
    for (j, s), e in tower.rows.items():
        resid = esub(e, Var("y", j, s))
        (eq_top if s == top_shift[j] else eq_low).append(resid)

    # the top rows determine the current inputs of the tower's coordinates,
    # its last two variables
    top_unknowns = list(tower.variables[-2:])
    low_unknowns = [v for v in tower.variables if v not in top_unknowns]

    F_x = F_u = None
    source = "tower_inverted"
    try:
        points = [win.pt for win in tower.windows]
        sol_low = solve_equations(eq_low, low_unknowns, points)
        eq_top_sub = [substitute(e, sol_low) for e in eq_top]
        sol_top = solve_equations(eq_top_sub, top_unknowns, points)
        sol = dict(sol_low)
        sol.update(sol_top)
        F_x = tuple(sol[v] for v in sys.state_vars)
        F_u = tuple(substitute(tower.u_recovery[v], sol)
                    for v in sys.input_vars)
    except SolveError as ex:
        diags.append(f"restricted solver could not invert the tower: {ex}")
        if cand.user_F is not None:
            F_x, F_u = tuple(cand.user_F[0]), tuple(cand.user_F[1])
            source = "user_supplied"
        else:
            source = "tower_implicit"

    param = Parameterization(F_x=F_x, F_u=F_u, source=source, tower=tower,
                             diagnostics=diags)
    if F_x is not None:
        _check_shapes(idx, F_x, F_u)
        if cand.user_F is not None and source == "tower_inverted":
            _cross_check_user_F(cand, param, diags)
    return param


def _check_shapes(idx: ShiftIndices, F_x, F_u, whose=""):
    """Eq. (5)/(6) leaf windows, including the Eq. (7) zero block."""
    for name, exprs, hi_off in ((whose + "F_x", F_x, -1),
                                (whose + "F_u", F_u, 0)):
        for e in exprs:
            for v in vars_of(e):
                if v.family != "y":
                    raise AnalysisError(
                        f"{name} contains a non-output leaf {to_text(v)}")
                j = v.component
                if not (-idx.r1[j - 1] <= v.shift <= idx.r2[j - 1] + hi_off):
                    raise AnalysisError(
                        f"{name} leaf {to_text(v)} outside the window "
                        f"[-{idx.r1[j - 1]}, {idx.r2[j - 1] + hi_off}]")


def _cross_check_user_F(cand, param, diags):
    """The user-supplied F in the inverted F's leaf windows and equal to it
    at every verification window where both evaluate, of which there must be
    one."""
    _check_shapes(param.tower.indices, *cand.user_F, whose="user-supplied ")
    mine, theirs = (*param.F_x, *param.F_u), (*cand.user_F[0], *cand.user_F[1])
    deviations = []
    for pt in (win.pt for win in param.tower.windows):
        try:
            deviations += [abs(evaluate(a, pt) - evaluate(b, pt))
                           for a, b in zip(mine, theirs)]
        except EvalError:
            continue
    if not deviations:
        raise AnalysisError("user-supplied parameterization does not evaluate "
                            "at any verification window")
    worst = max(deviations)
    if worst > RESIDUAL_TOL:
        raise AnalysisError(
            f"user-supplied parameterization disagrees with the inverted tower "
            f"(max deviation {worst:.3g}); the parameterization is unique")
    diags.append(f"user_F cross-checked against the inverted tower ({worst:.3g})")


def _verify(param) -> dict:
    """Residuals of the parameterization at the tower's windows (its
    `verification_trajectory`); raises AnalysisError when they exceed
    `RESIDUAL_TOL` or cannot be computed."""
    why = "parameterization failed trajectory verification"
    try:
        report = param.check(param.tower.windows)
    except EvalError as ex:
        raise AnalysisError(f"{why}: {ex}") from ex
    if not report.passed:
        raise AnalysisError(
            f"{why}: max residual "
            f"{max(report.max_residual_x, report.max_residual_u):.3g} at "
            f"k = {report.worst_k}")
    return report.to_json()


def verification_trajectory(sys, idx: ShiftIndices, steps: int, rng, boxes):
    """The trajectory verifying F at k = 0 .. steps - 1: H = max(R1) + 1
    samples before k = 0 and K = steps + max(R2) + 1 from it, from the
    analysis point, each input drawn from its 1-based `boxes` entry by `rng`
    (`random_inputs`), or held at the point's input when `rng` is None."""
    pt = sys.analysis_point()
    H, K = max(idx.r1) + 1, steps + max(idx.r2) + 1
    u0 = [pt[v] for v in sys.input_vars]
    us = [u0] * (H + K) if rng is None else random_inputs(rng, u0, boxes, H + K)
    return simulate(sys, [pt[v] for v in sys.state_vars], us, H, K)


# ---------------------------------------------------------------------------
# Classification.

def classify(param: Parameterization) -> Classification:
    """Decide the flatness class from the index data and certify the rank
    conditions of the Jacobian submatrices of F. The ranks are read off the
    inverse of the tower Jacobian at the tower's windows, for symbolic and
    Newton parameterizations alike (`_tower_ranks`)."""
    tower = param.tower
    sys, idx = tower.context.base_model, tower.indices
    cols_R2 = [Var("y", j + 1, idx.r2[j]) for j in range(2)]
    cols_mR1 = [Var("y", j + 1, -idx.r1[j]) for j in range(2)]
    rank_fu, rank_fx, rank_gf = _tower_ranks(tower, cols_R2, cols_mR1)

    if idx.size_R == sys.n:
        kind = "linearizing"
    elif idx.r1 == (0, 0):
        kind = "forward_flat"
    elif idx.r2 == (0, 0):
        kind = "backward_flat"
    else:
        kind = "general"

    if kind in ("forward_flat", "linearizing") and idx.r1 == (0, 0):
        if rank_fx != sys.m:
            raise ClassificationError(
                f"forward-flat candidate but rank d_y[-R1] F_x = {rank_fx} != m")
    if kind in ("backward_flat", "linearizing") and idx.r2 == (0, 0):
        if rank_fu != sys.m:
            raise ClassificationError(
                f"backward-flat candidate but rank d_y[R2] F_u = {rank_fu} != m")
    if kind == "general":
        if rank_fu >= sys.m or rank_fx >= sys.m:
            raise ClassificationError(
                "general classification contradicted: rank d_y[R2] F_u = "
                f"{rank_fu}, rank d_y[-R1] F_x = {rank_fx} (one is full)")
    return Classification(kind=kind, rank_Fu_at_R2=rank_fu,
                          rank_Fx_at_minusR1=rank_fx, rank_g_of_F=rank_gf)


def _tower_ranks(tower, cols_R2, cols_mR1):
    """Generic (max) ranks of d_y[R2] F_u, d_y[-R1] F_x and d_y[-R1] g(F)
    at the tower's windows, read off the inverse tower Jacobian (implicit
    function theorem). A window where the blocks cannot be evaluated, the
    tower Jacobian is singular or an entry is not finite is skipped."""
    sys = tower.context.base_model
    col_idx_R2 = [tower.targets.index(c) for c in cols_R2]
    col_idx_mR1 = [tower.targets.index(c) for c in cols_mR1]
    if sys.g is not None:
        Dg = jacobian(sys.g, sys.coordinates)
    per_point = []
    for win in tower.windows:
        try:
            dFx, dFu, _ = tower.jacobian_blocks(win.w)
            ranks = [numeric_rank(dFu[:, col_idx_R2]),
                     numeric_rank(dFx[:, col_idx_mR1])]
            if sys.g is not None:
                xs, us = tower.states_inputs(win.w)
                gpt = sys.param_bindings()
                gpt.update(zip(sys.coordinates, xs + us))
                dG = eval_matrix(Dg, gpt) @ np.vstack([dFx, dFu])
                ranks.append(numeric_rank(dG[:, col_idx_mR1]))
            per_point.append(ranks)
        except (EvalError, np.linalg.LinAlgError, ValueError):
            continue
    if not per_point:
        raise AnalysisError("no verification window admitted a tower Jacobian inverse")
    ranks = [max(r) for r in zip(*per_point)]
    return ranks[0], ranks[1], (ranks[2] if sys.g is not None else None)


# ---------------------------------------------------------------------------
# Lemma-1 input normalization.

@dataclass
class NormalizedInputs:
    rows: tuple                 # 1-based indices of the normalized equations
    v_transform: tuple          # v_k = f^{j_k}(x, u)
    u_from_v: dict              # {u leaf: expr over (x, ubar)}
    system: SystemModel         # transformed system with x^{j_k,+} = v_k
    F_v: tuple | None           # v over y-shifts, when a symbolic F is given:
                                # F_x one step on, so free of y[-R1] (Eq. (8))


def normalize_inputs(sys: SystemModel,
                     param: Parameterization | None = None) -> NormalizedInputs:
    """Lemma-1 input transform: pick m transition rows jointly regular in u,
    set v_k = f^{j_k}, and rewrite the system with u expressed through v.

    Rows already in normalized form (f^j literally an input) are claimed
    first; a greedy ascending scan fills the rest by rank increase at the
    analysis point."""
    pt = sys.analysis_point()
    chosen = []
    for i, fi in enumerate(sys.f):
        if isinstance(fi, Var) and fi in sys.input_vars and len(chosen) < sys.m:
            if all(sys.f[c] != fi for c in chosen):
                chosen.append(i)

    def rank_of(rows):    # of d_u f at the analysis point
        return sys.point_rank(rows, range(sys.n, sys.n + sys.m))

    for i in range(sys.n):
        if len(chosen) < sys.m and i not in chosen and (
                rank_of(chosen + [i]) > rank_of(chosen)):
            chosen.append(i)
    if len(chosen) < sys.m or rank_of(chosen) < sys.m:
        raise AnalysisError(
            "no m-subset of the transition rows is regular in u at the "
            "analysis point")
    chosen.sort()

    v_vars = [Var("ubar", k + 1, 0) for k in range(sys.m)]
    eqs = [esub(sys.f[i], v) for i, v in zip(chosen, v_vars)]
    probes = list(probe_points(
        pt, SEED + 3, 5,
        perturb=sys.coordinates,
        bind=[(v, sys.f[i]) for i, v in zip(chosen, v_vars)]))
    try:
        sol = solve_equations(eqs, list(sys.input_vars), probes)
    except SolveError as ex:
        raise AnalysisError(
            f"restricted solver cannot express u from v = (f^j): {ex}") from ex

    f_v = tuple(substitute(fi, sol) for fi in sys.f)
    point = dict(sys.point)
    for v in sys.input_vars:
        point.pop(v, None)
    for i, v in zip(chosen, v_vars):
        point[v] = evaluate(sys.f[i], pt)
    sys_v = SystemModel(
        f=f_v, state_vars=sys.state_vars,
        input_vars=tuple(v_vars), g=None, gvalue_family=sys.gvalue_family,
        params=sys.params, point=point, name=sys.name + "~norm")

    F_v = None
    if param is not None and param.F_x is not None:
        F_v = tuple(shift_vars(param.F_x[i], 1) for i in chosen)
    return NormalizedInputs(rows=tuple(i + 1 for i in chosen),
                            v_transform=tuple(sys.f[i] for i in chosen),
                            u_from_v=sol, system=sys_v, F_v=F_v)


# ---------------------------------------------------------------------------
# Full pipeline.

@dataclass
class AnalysisReport:
    indices: ShiftIndices
    classification: Classification
    tower: Tower
    parameterization: Parameterization
    validation: object
    residuals: dict
    model: SystemModel             # the analyzed model, psi resolved

    def to_json(self):
        tower_txt = {f"y{j}[{s}]": to_text(e)
                     for (j, s), e in self.tower.rows.items()}
        return {
            "schema": "1",
            "system": self.model.name,
            **self.indices.to_json(),
            "classification": self.classification.kind,
            "ranks": {
                "Fu_at_R2": self.classification.rank_Fu_at_R2,
                "Fx_at_minusR1": self.classification.rank_Fx_at_minusR1,
                "g_of_F": self.classification.rank_g_of_F,
                "tower": {
                    "at_point": self.tower.rank_probe.at_point,
                    "generic": self.tower.rank_probe.generic,
                    "required": self.tower.rank_probe.required,
                },
            },
            "tower": tower_txt,
            "F_x": ([to_text(e) for e in self.parameterization.F_x]
                    if self.parameterization.F_x is not None else None),
            "F_u": ([to_text(e) for e in self.parameterization.F_u]
                    if self.parameterization.F_u is not None else None),
            "parameterization_source": self.parameterization.source,
            "residuals": self.residuals,
            "validation": self.validation.to_json() if self.validation else None,
            "diagnostics": self.parameterization.diagnostics,
        }


def analyze(sys: SystemModel, cand: FlatCandidate,
            opts: AnalyzeOptions | None = None) -> AnalysisReport:
    """validate -> indices -> tower -> parameterization -> classification."""
    from .model import validate as validate_model
    opts = opts or AnalyzeOptions()
    if sys.g is not None and sys.psi_x is None:
        sys = invert_extension(sys)
    vrep = validate_model(sys)
    if not vrep.passed:
        raise AnalysisError(f"standing assumptions fail: {vrep.to_json()}")
    tower = build_tower(sys, cand, opts)
    param = invert_tower(cand, tower)
    residuals = {} if opts.skip_verification else _verify(param)
    return AnalysisReport(indices=tower.indices, classification=classify(param),
                          tower=tower, parameterization=param, validation=vrep,
                          residuals=residuals, model=tower.context.base_model)
