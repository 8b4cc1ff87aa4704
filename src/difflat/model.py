"""Discrete-time system model x+ = f(x,u), its extension map (f,g), the
inverse map psi, and the forward/backward shift operators."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .expr import (
    EvalError, Expr, Par, Var, _key, compile_exprs, evaluate, jacobian,
    sub as esub, substitute, to_text, vars_of, params_of,
)
from .numeric import _max_abs, eval_matrix, numeric_rank, probe_points
from .solve import SolveError, solve_equations

__all__ = [
    "SystemModel", "ModelError", "ValidationReport", "ExtensionChoice",
    "validate", "choose_extension", "invert_extension",
    "forward_shift", "backward_shift",
]

PI = Par("pi")
# Entries a model's shift cache keeps; the oldest goes first beyond it. One
# analysis adds fewer than ten, so only a long-lived model that analyzes many
# candidates reaches it.
SHIFT_CACHE_SIZE = 1024
PSI_TOL = 1e-9    # the largest psi residual accepted; errors quote "1e-9"


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
    """

    n: int
    m: int
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
        if len(self.f) != self.n or len(self.state_vars) != self.n:
            raise ModelError("state dimension mismatch")
        if len(self.input_vars) != self.m:
            raise ModelError("input dimension mismatch")
        if self.g is not None and len(self.g) != self.m:
            raise ModelError(f"extension map must have {self.m} components")
        self.params = dict(self.params)
        self.params.setdefault("pi", math.pi)
        self._input_base = {
            (v.family, v.component): (v.shift, j)
            for j, v in enumerate(self.input_vars)
        }
        self._state_index = {v: i for i, v in enumerate(self.state_vars)}
        self._shift_cache = {}

    # -- points ------------------------------------------------------------

    def param_bindings(self) -> dict:
        return {Par(k): float(v) for k, v in self.params.items()}

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
        if k == 0:
            return e
        step = 1 if k > 0 else -1
        for _ in range(abs(k)):
            e = self._shift_once(e, step)
        return e

    def _shift_once(self, e: Expr, step: int) -> Expr:
        key = (e, step)
        hit = self._shift_cache.get(key)
        if hit is not None:
            return hit
        image = self._delta_image if step > 0 else self._delta_inv_image
        mapping = {v: image(v) for v in vars_of(e)}
        out = substitute(e, mapping)
        if len(self._shift_cache) >= SHIFT_CACHE_SIZE:
            del self._shift_cache[next(iter(self._shift_cache))]
        self._shift_cache[key] = out
        return out

    @cached_property
    def psi_residual(self) -> float:
        """Two-sided composition residual of psi against (f, g) at the
        analysis point and its seeded perturbations, computed once per model
        (psi is fixed at construction) on two compiled kernels, (f, g) over
        (x, u, params) and psi over (x, g-value histories, params), NaN if
        any entry is: `invert_extension` checks it, `validate` reports it."""
        params = [Par(k) for k in self.params]
        xu = list(self.state_vars) + list(self.input_vars)
        hist = [Var(self.gvalue_family, j + 1, -1) for j in range(self.m)]
        fg = compile_exprs(list(self.f) + list(self.g), xu + params)
        psi, worst = None, 0.0
        for trial, pt in enumerate(probe_points(self.analysis_point(), 11,
                                                perturb=xu)):
            p = [pt[k] for k in params]
            at = [pt[v] for v in xu]
            slots = fg(at + p)
            try:    # compiled at the first probe: a leaf psi may not read fails it
                psi = psi or compile_exprs(list(self.psi_x) + list(self.psi_u),
                                           list(self.state_vars) + hist + params)
                back = psi(slots + p)
            except EvalError as ex:
                if trial == 0:
                    raise ModelError("psi does not evaluate at the analysis "
                                     f"point: {ex}") from ex
                continue
            # psi(f, g) = (x, u) and (f, g)(psi) = the slot values
            worst = _max_abs([worst] + [a - b for a, b in zip(
                back + fg(back + p), at + slots)])
        return worst

    def with_psi(self, psi_x, psi_u) -> "SystemModel":
        return replace(self, psi_x=tuple(psi_x), psi_u=tuple(psi_u))

    def with_g(self, g) -> "SystemModel":
        return replace(self, g=None if g is None else tuple(g),
                       psi_x=None, psi_u=None)


def forward_shift(e: Expr, sys: SystemModel, k: int = 1) -> Expr:
    if k < 0:
        raise ModelError("k must be positive; use backward_shift")
    return sys.shift(e, k)


def backward_shift(e: Expr, sys: SystemModel, k: int = 1) -> Expr:
    if k < 0:
        raise ModelError("k must be positive")
    return sys.shift(e, -k)


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
    allowed = set(sys.state_vars) | set(sys.input_vars)
    for e in exprs:
        for v in vars_of(e):
            if v not in allowed:
                raise ModelError(f"{where}: leaf {to_text(v)} is not a declared "
                                 "state or input")
        for p in params_of(e):
            if p.name not in sys.params:
                raise ModelError(f"{where}: undeclared parameter {p.name}")


def validate(sys: SystemModel, tol_rank: float = 1e-8) -> ValidationReport:
    """Check independent inputs, submersivity, the (f,g) diffeomorphism rank,
    the fixed-point property of the declared point, and psi consistency."""
    _check_leaves(sys, sys.f, "dynamics")
    if sys.g is not None:
        _check_leaves(sys, sys.g, "extension")
    messages = []
    pt = sys.analysis_point()
    for v in list(sys.state_vars) + list(sys.input_vars):
        if v not in pt:
            raise ModelError(f"analysis point does not bind {to_text(v)}")

    input_rank = numeric_rank(eval_matrix(jacobian(sys.f, sys.input_vars), pt),
                              tol_rank)
    cols_xu = list(sys.state_vars) + list(sys.input_vars)
    sub_rank = numeric_rank(eval_matrix(jacobian(sys.f, cols_xu), pt), tol_rank)
    ext_rank = None
    if sys.g is not None:
        stacked = list(sys.f) + list(sys.g)
        ext_rank = numeric_rank(eval_matrix(jacobian(stacked, cols_xu), pt),
                                tol_rank)

    fx = [evaluate(fi, pt) for fi in sys.f]
    resid = max(abs(a - pt[v]) for a, v in zip(fx, sys.state_vars))
    fixed = resid <= 1e-10
    if not fixed:
        messages.append(
            f"declared point is not a fixed point (|f(x0,u0)-x0| = {resid:.3g}); "
            "it is used as the analysis chart center")

    psi_resid = None
    if sys.psi_x is not None:
        psi_resid = sys.psi_residual
    return ValidationReport(
        input_rank=input_rank, submersivity_rank=sub_rank,
        extension_rank=ext_rank, n=sys.n, m=sys.m,
        equilibrium_residual=resid, psi_residual=psi_resid,
        is_fixed_point=fixed, messages=messages)


# ---------------------------------------------------------------------------
# Extension map selection and inversion.

@dataclass
class ExtensionChoice:
    source: str                  # "user_supplied" | "auto_selected"
    g: tuple
    selected_coordinates: tuple | None
    psi_x: tuple
    psi_u: tuple


def _solve_psi(sys: SystemModel, g):
    """Solve (f,g)(x,u) = (next, gslot) for (x,u); return applied-form psi."""
    slots_x = [Var("nxt", i + 1, 0) for i in range(sys.n)]
    slots_z = [Var("gsl", j + 1, 0) for j in range(sys.m)]
    eqs = [esub(fi, s) for fi, s in zip(sys.f, slots_x)]
    eqs += [esub(gj, s) for gj, s in zip(g, slots_z)]
    unknowns = list(sys.state_vars) + list(sys.input_vars)
    bind = list(zip(slots_x, sys.f)) + list(zip(slots_z, g))
    probes = list(probe_points(sys.analysis_point(), 5, 5, perturb=unknowns,
                               bind=bind))
    sol = solve_equations(eqs, unknowns, probes)
    applied = {s: v for s, v in zip(slots_x, sys.state_vars)}
    applied.update({s: Var(sys.gvalue_family, j + 1, -1)
                    for j, s in enumerate(slots_z)})
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


def choose_extension(sys: SystemModel, tol_rank: float = 1e-8) -> ExtensionChoice:
    """Pick m coordinate functions g from (x, u) making (f,g) a local
    diffeomorphism with a rationally solvable inverse.

    Scans the m-subsets of the coordinate pool (states first, then inputs)
    in `itertools.combinations` order; the first subset completing (f,g) to
    rank n+m at the analysis point whose psi the restricted solver can
    produce wins. Deterministic.
    """
    pool = list(sys.state_vars) + list(sys.input_vars)
    base_rows = eval_matrix(jacobian(sys.f, pool), sys.analysis_point())
    rank_valid = None
    for g in itertools.combinations(pool, sys.m):
        sel = np.eye(len(pool))[[pool.index(v) for v in g]]
        if numeric_rank(np.vstack([base_rows, sel]), tol_rank) != sys.n + sys.m:
            continue
        rank_valid = rank_valid or g
        try:
            psi_x, psi_u = _solve_psi(sys, g)
        except SolveError:
            continue
        return ExtensionChoice(source="auto_selected", g=g,
                               selected_coordinates=tuple(to_text(v) for v in g),
                               psi_x=psi_x, psi_u=psi_u)
    if rank_valid is not None:
        raise ModelError(
            "every rank-valid extension map has a non-solvable inverse; "
            "supply g and psi in the DSL "
            f"(first rank-valid choice was {[to_text(v) for v in rank_valid]})")
    raise ModelError(
        "no m-subset of coordinates completes (f,g) to rank n+m at the "
        "analysis point; the point may be degenerate — supply g explicitly")
