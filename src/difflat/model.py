"""Discrete-time system model x+ = f(x,u), its extension map (f,g), the
inverse map psi, and the forward/backward shift operators."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace
from functools import cached_property

from .expr import (
    EvalError, Expr, Par, Var, _key, compile_exprs, evaluate, jacobian,
    sub as esub, substitute, to_text, vars_of, params_of,
)
from .numeric import (
    FIXED_POINT_TOL, PSI_CHECK_SEED, PSI_SOLVE_SEED, PSI_TOL, _max_abs,
    numeric_rank, probe_points,
)
from .solve import SolveError, solve_equations

__all__ = [
    "SystemModel", "ModelError", "ValidationReport", "ExtensionChoice",
    "validate", "choose_extension", "invert_extension",
]


class ModelError(Exception):
    pass


@dataclass
class SystemModel:
    """Transition map plus (optionally) the extension map and its inverse.

    States and inputs are explicit variable lists so that extended systems
    (whose states include chain variables like zetabar1[-2] or ubar1[0]) are
    ordinary models; shift operators and all analyses work on them unchanged.
    psi_x/psi_u are stored in applied form: backward-shifted states/inputs as
    expressions over the current state and the g-value history leaves
    <gvalue_family>j[-1]. Treat instances as immutable after construction.

    The dimensions are those of `state_vars` and `input_vars`. Every
    compiled function of the model reads `coordinates` (states, then
    inputs) and then `param_leaves`, whose values are `param_values`;
    `histories` are the g-value history leaves <gvalue_family>j[-1].
    """

    f: tuple
    state_vars: tuple
    input_vars: tuple
    g: tuple | None = None
    psi_x: tuple | None = None
    psi_u: tuple | None = None
    gvalue_family: str = "zeta"
    params: dict = field(default_factory=dict)
    point: dict = field(default_factory=dict)
    name: str = ""

    def __post_init__(self):
        if len(self.f) != self.n:
            raise ModelError("state dimension mismatch")
        if self.g is not None and len(self.g) != self.m:
            raise ModelError(f"extension map must have {self.m} components")
        self.params = dict(self.params)
        self.params.setdefault("pi", math.pi)
        self._input_base = {
            (v.family, v.component): (v.shift, j)
            for j, v in enumerate(self.input_vars)
        }
        self._state_index = {v: i for i, v in enumerate(self.state_vars)}
        self.coordinates = (*self.state_vars, *self.input_vars)
        self.param_leaves = tuple(map(Par, self.params))
        self.param_values = [float(v) for v in self.params.values()]
        self.histories = tuple(Var(self.gvalue_family, j + 1, -1)
                               for j in range(self.m))

    @property
    def n(self) -> int:
        return len(self.state_vars)

    @property
    def m(self) -> int:
        return len(self.input_vars)

    # -- points ------------------------------------------------------------

    def param_bindings(self) -> dict:
        return dict(zip(self.param_leaves, self.param_values))

    def analysis_point(self) -> dict:
        pt = self.param_bindings()
        pt.update(self.point)
        return pt

    def seed_value(self, v: Var) -> float:
        """Deterministic jet-space value for a leaf outside the base point:
        input forward-shifts inherit the input value, g-value histories the
        value of g at the point."""
        pt = self.analysis_point()
        if v in pt:
            return pt[v]
        key = (v.family, v.component)
        if key in self._input_base and v.shift >= self._input_base[key][0]:
            base, j = self._input_base[key]
            return pt[self.input_vars[j]]
        if v.family == self.gvalue_family and v.shift < 0:
            if self.g is None:
                raise ModelError("no extension map g declared")
            return evaluate(self.g[v.component - 1], pt)
        raise ModelError(f"cannot seed a value for leaf {to_text(v)}")

    def jet_center(self, leaves) -> dict:
        """The analysis point, then a seed value for each leaf missing from
        it, added in `expr._key` order: the probes perturb keys in dict
        order, so the order must not follow a set's hash-seeded iteration."""
        pt = self.analysis_point()
        for v in sorted(leaves, key=_key):
            if isinstance(v, Var) and v not in pt:
                pt[v] = self.seed_value(v)
        return pt

    # -- shift operators ----------------------------------------------------

    def _delta_image(self, v: Var) -> Expr:
        if v in self._state_index:
            return self.f[self._state_index[v]]
        key = (v.family, v.component)
        if key in self._input_base and v.shift >= self._input_base[key][0]:
            return v.shifted(1)
        if v.family == self.gvalue_family and v.shift <= -1:
            if v.shift == -1:
                if self.g is None:
                    raise ModelError("forward shift needs the extension map g")
                return self.g[v.component - 1]
            return v.shifted(1)
        raise ModelError(f"leaf {to_text(v)} is not a coordinate of this model")

    def _delta_inv_image(self, v: Var) -> Expr:
        if v in self._state_index:
            if self.psi_x is None:
                raise ModelError("backward shift needs the inverse map psi")
            return self.psi_x[self._state_index[v]]
        key = (v.family, v.component)
        if key in self._input_base:
            base, j = self._input_base[key]
            if v.shift == base:
                if self.psi_u is None:
                    raise ModelError("backward shift needs the inverse map psi")
                return self.psi_u[j]
            if v.shift > base:
                return v.shifted(-1)
        if v.family == self.gvalue_family and v.shift <= -1:
            return v.shifted(-1)
        raise ModelError(f"leaf {to_text(v)} is not a coordinate of this model")

    def shift(self, e: Expr, k: int) -> Expr:
        """delta^k for k > 0, delta^-|k| for k < 0, identity for k = 0."""
        image = self._delta_image if k > 0 else self._delta_inv_image
        for _ in range(abs(k)):
            e = substitute(e, {v: image(v) for v in vars_of(e)})
        return e

    @cached_property
    def fg(self):
        """f, then g when declared, compiled once per model over (x, u,
        params) (`expr.compile_exprs`, bit-identical to `evaluate`)."""
        return compile_exprs([*self.f, *(self.g or ())],
                             [*self.coordinates, *self.param_leaves])

    @cached_property
    def point_jacobian(self) -> list:
        """The Jacobian of f, then g when declared, in (states, inputs) at the
        analysis point, once per model: rows of floats, bit-identical to
        `eval_matrix`. An entry that hits a pole raises `EvalError`."""
        pt, memo = self.analysis_point(), {}
        return [[evaluate(e, pt, memo) for e in row]
                for row in jacobian([*self.f, *(self.g or ())], self.coordinates)]

    def point_rank(self, rows, cols) -> int:
        """`numeric_rank` of the `rows` x `cols` block (indices) of
        `point_jacobian`, 0 where that hits a pole or a non-finite entry."""
        try:
            J = self.point_jacobian
            return numeric_rank([[J[i][j] for j in cols] for i in rows])
        except (EvalError, ValueError):
            return 0

    def fixed_point_residual(self) -> float:
        """max |f(x0, u0) - x0| at the analysis point."""
        pt = self.analysis_point()
        fx = self.fg([pt[v] for v in self.coordinates] + self.param_values)
        return max(abs(a - pt[v]) for a, v in zip(fx, self.state_vars))

    @cached_property
    def psi_residual(self) -> float:
        """Two-sided composition residual of psi against (f, g) at the
        analysis point and its seeded perturbations, computed once per model
        (psi is fixed at construction) with `fg` and psi compiled over (x,
        g-value histories, params), NaN if any entry is: `invert_extension`
        checks it, `validate` reports it."""
        p, psi, worst = self.param_values, None, 0.0
        for trial, pt in enumerate(probe_points(
                self.analysis_point(), PSI_CHECK_SEED, perturb=self.coordinates)):
            at = [pt[v] for v in self.coordinates]
            slots = self.fg(at + p)
            try:    # compiled at the first probe: a leaf psi may not read fails it
                psi = psi or compile_exprs(
                    [*self.psi_x, *self.psi_u],
                    [*self.state_vars, *self.histories, *self.param_leaves])
                back = psi(slots + p)
            except EvalError as ex:
                if trial == 0:
                    raise ModelError("psi does not evaluate at the analysis "
                                     f"point: {ex}") from ex
                continue
            # psi(f, g) = (x, u) and (f, g)(psi) = the slot values
            worst = _max_abs([worst] + [a - b for a, b in zip(
                back + self.fg(back + p), at + slots)])
        return worst

    def with_psi(self, psi_x, psi_u) -> "SystemModel":
        return replace(self, psi_x=tuple(psi_x), psi_u=tuple(psi_u))

    def with_g(self, g) -> "SystemModel":
        return replace(self, g=None if g is None else tuple(g),
                       psi_x=None, psi_u=None)


# ---------------------------------------------------------------------------
# Standing-assumption validation.

@dataclass
class ValidationReport:
    input_rank: int
    submersivity_rank: int
    extension_rank: int | None
    n: int
    m: int
    equilibrium_residual: float
    psi_residual: float | None
    is_fixed_point: bool
    messages: list

    @property
    def passed(self) -> bool:
        return (self.input_rank == self.m and self.submersivity_rank == self.n
                and self.extension_rank in (None, self.n + self.m)
                and (self.psi_residual is None or self.psi_residual <= PSI_TOL))

    def to_json(self):
        return {
            "ranks": {
                "d_u_f": [self.input_rank, self.m],
                "d_xu_f": [self.submersivity_rank, self.n],
                "d_xu_fg": ([self.extension_rank, self.n + self.m]
                            if self.extension_rank is not None else None),
            },
            "pass": self.passed,
            "equilibrium_residual": self.equilibrium_residual,
            "is_fixed_point": self.is_fixed_point,
            "psi_residual": self.psi_residual,
            "messages": self.messages,
        }


def _check_leaves(sys: SystemModel, exprs, where: str):
    allowed = set(sys.coordinates)
    for e in exprs:
        for v in vars_of(e):
            if v not in allowed:
                raise ModelError(f"{where}: leaf {to_text(v)} is not a declared "
                                 "state or input")
        for p in params_of(e):
            if p.name not in sys.params:
                raise ModelError(f"{where}: undeclared parameter {p.name}")


def validate(sys: SystemModel) -> ValidationReport:
    """Check independent inputs, submersivity, the (f,g) diffeomorphism rank,
    the fixed-point property of the declared point, and psi consistency."""
    _check_leaves(sys, sys.f, "dynamics")
    if sys.g is not None:
        _check_leaves(sys, sys.g, "extension")
    pt = sys.analysis_point()
    for v in sys.coordinates:
        if v not in pt:
            raise ModelError(f"analysis point does not bind {to_text(v)}")

    f_rows, xu = range(sys.n), range(sys.n + sys.m)
    input_rank = sys.point_rank(f_rows, range(sys.n, sys.n + sys.m))
    sub_rank = sys.point_rank(f_rows, xu)
    ext_rank = None if sys.g is None else sys.point_rank(xu, xu)

    resid = sys.fixed_point_residual()
    fixed = resid <= FIXED_POINT_TOL
    messages = [] if fixed else [
        f"declared point is not a fixed point (|f(x0,u0)-x0| = {resid:.3g}); "
        "it is used as the analysis chart center"]
    return ValidationReport(
        input_rank=input_rank, submersivity_rank=sub_rank,
        extension_rank=ext_rank, n=sys.n, m=sys.m, equilibrium_residual=resid,
        psi_residual=None if sys.psi_x is None else sys.psi_residual,
        is_fixed_point=fixed, messages=messages)


# ---------------------------------------------------------------------------
# Extension map selection and inversion.

@dataclass
class ExtensionChoice:
    g: tuple
    selected_coordinates: tuple
    psi_x: tuple
    psi_u: tuple


def _solve_psi(sys: SystemModel, g):
    """Solve (f,g)(x,u) = (next, gslot) for (x,u); return applied-form psi."""
    slots_x = [Var("nxt", i + 1, 0) for i in range(sys.n)]
    slots_z = [Var("gsl", j + 1, 0) for j in range(sys.m)]
    eqs = [esub(fi, s) for fi, s in zip(sys.f, slots_x)]
    eqs += [esub(gj, s) for gj, s in zip(g, slots_z)]
    bind = list(zip(slots_x, sys.f)) + list(zip(slots_z, g))
    probes = list(probe_points(sys.analysis_point(), PSI_SOLVE_SEED, 5,
                               perturb=sys.coordinates, bind=bind))
    sol = solve_equations(eqs, list(sys.coordinates), probes)
    applied = dict(zip(slots_x + slots_z, [*sys.state_vars, *sys.histories]))
    psi_x = tuple(substitute(sol[v], applied) for v in sys.state_vars)
    psi_u = tuple(substitute(sol[v], applied) for v in sys.input_vars)
    return psi_x, psi_u


def invert_extension(sys: SystemModel) -> SystemModel:
    """Solve for psi given the declared g; verify the composition numerically.

    Returns a copy of the model carrying psi. Raises ModelError when the
    restricted solver fails (the caller may supply psi in the DSL instead) or
    when the verification residual exceeds `PSI_TOL`.
    """
    if sys.g is None:
        raise ModelError("no extension map g to invert")
    out = sys
    if sys.psi_x is None:
        try:
            out = sys.with_psi(*_solve_psi(sys, sys.g))
        except SolveError as ex:
            raise ModelError(
                f"restricted solver cannot invert (f, g): {ex}; "
                "supply psi in the [inverse] section") from ex
    resid = out.psi_residual
    if not resid <= PSI_TOL:    # a NaN residual fails too
        raise ModelError(f"psi verification residual {resid:.3g} exceeds 1e-9")
    return out


def choose_extension(sys: SystemModel) -> ExtensionChoice:
    """Pick m coordinate functions g from (x, u) making (f,g) a local
    diffeomorphism with a rationally solvable inverse.

    Scans the m-subsets of the coordinate pool (states first, then inputs)
    in `itertools.combinations` order; the first subset completing (f,g) to
    rank n+m at the analysis point whose psi the restricted solver can
    produce wins. The rank is that of the f rows of `point_jacobian` with a
    unit row for each coordinate of g. Deterministic.
    """
    pool = sys.coordinates
    f_rows = sys.point_jacobian[:sys.n]
    rank_valid = None
    for g in itertools.combinations(pool, sys.m):
        units = [[float(v == w) for w in pool] for v in g]
        if numeric_rank(f_rows + units) != sys.n + sys.m:
            continue
        rank_valid = rank_valid or g
        try:
            psi_x, psi_u = _solve_psi(sys, g)
        except SolveError:
            continue
        return ExtensionChoice(g=g, selected_coordinates=tuple(to_text(v) for v in g),
                               psi_x=psi_x, psi_u=psi_u)
    if rank_valid is not None:
        raise ModelError(
            "every rank-valid extension map has a non-solvable inverse; "
            "supply g and psi in the DSL "
            f"(first rank-valid choice was {[to_text(v) for v in rank_valid]})")
    raise ModelError(
        "no m-subset of coordinates completes (f,g) to rank n+m at the "
        "analysis point; the point may be degenerate — supply g explicitly")
