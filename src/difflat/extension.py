"""The linearizing dynamic extension of Props. 2-4 and the
static-feedback-linearizability certificate.

`build_combined` is the one builder: the extended system is the tower's
transformed system with the tower's chain variables promoted to states, a
backward chain on zetabar1 (the Prop.-3 prelongation), a forward chain on
ubar1 (the Prop.-2 prolongation) or both (Prop. 4). Its coordinates are the
tower variables, so the tower is a square map over them, and the certificate
checks that it has full rank: the extended system's parameterizing map is
then a local diffeomorphism."""

from __future__ import annotations

from dataclasses import dataclass, replace

from .expr import Var, evaluate, substitute, to_text, vars_of
from .model import SystemModel
from .analysis import AnalysisError, AnalyzeOptions, FlatCandidate, Tower

__all__ = [
    "ExtendedSystem", "Certificate", "ExtensionError", "build_combined",
    "certify_linearizing", "truncated",
]


class ExtensionError(AnalysisError):
    pass


@dataclass
class ExtendedSystem:
    """The extended model over the tower variables, the tower it was read
    off (chain lengths, transforms) and the candidate over its coordinates."""

    base: SystemModel
    model: SystemModel
    tower: Tower
    output: tuple                  # candidate outputs over extended coordinates

    @property
    def d1(self) -> int:
        return self.tower.indices.d1

    @property
    def d2(self) -> int:
        return self.tower.indices.d2

    @property
    def mode(self) -> str:
        if self.d1 == 0 and self.d2 == 0:
            return "static"
        if self.d1 == 0:
            return "prolongation"
        if self.d2 == 0:
            return "prelongation"
        return "combined"


@dataclass
class Certificate:
    square: bool
    rank: int
    required: int
    points_checked: int
    at_point_rank: int | None

    @property
    def passed(self) -> bool:
        return self.square and self.rank == self.required

    def to_json(self):
        return {
            "square": self.square,
            "rank": self.rank,
            "required": self.required,
            "points_checked": self.points_checked,
            "at_point_rank": self.at_point_rank,
            "pass": self.passed,
        }


def build_combined(sys: SystemModel, cand: FlatCandidate,
                   tower: Tower) -> ExtendedSystem:
    """The Props. 2-4 extension, read off the tower: the states are the tower
    variables but the last two, [zetabar1_[-d1..-1], x, ubar1_[0..d2-1]],
    each stepping by its shift in the tower's transformed system (the last
    history to gbar1, the states by f over the transformed inputs); the
    inputs are the last two, (ubar1[d2], ubar2), or the original inputs when
    the tower has no input transform. An empty chain leaves the Prop.-2
    prolongation or the Prop.-3 prelongation. The point is the tower's
    analysis point (`Tower.point`) in coordinate order, the order the
    emitted file re-parses to.

    The transforms need no rank check here: over its two new coordinates an
    input or history transform's Jacobian is triangular with diagonal 1/c
    and 1, c the pivot its solver required to be nonzero."""
    if sys.m != 2:
        raise ExtensionError("extensions are defined for two-input systems (m = 2)")
    ctx = tower.context
    if ctx.zeta_inverse is not None:
        pt = sys.analysis_point()
        resid = max(abs(evaluate(fi, pt) - pt[v])
                    for fi, v in zip(sys.f, sys.state_vars))
        if resid > 1e-10:
            raise ExtensionError(
                "prelongation chains need a constant history: the analysis "
                f"point is not a fixed point (residual {resid:.3g})")
    *state, u1, u2 = tower.variables
    output = tuple(cand.phi)
    if ctx.u_inverse is not None:
        output = tuple(substitute(p, ctx.u_inverse) for p in cand.phi)
    model = SystemModel(
        n=len(state), m=2, f=tuple(ctx.sys_bar.shift(v, 1) for v in state),
        state_vars=tuple(state), input_vars=(u1, u2), params=sys.params,
        point={v: tower.point[v] for v in tower.variables},
        name=sys.name + "_ext")
    return ExtendedSystem(base=sys, model=model, tower=tower, output=output)


def certify_linearizing(ext: ExtendedSystem,
                        opts: AnalyzeOptions | None = None) -> Certificate:
    """Check that the tower, read over the extended coordinates, is a square
    map of full rank n_ext + m_ext: the parameterizing map of the extension
    is then a local diffeomorphism, i.e. the extended system is static
    feedback linearizable.

    The extended coordinates are the tower variables in the same order
    (`build_combined` lists them so), so the generic rank is the one the
    tower search took at the verification windows (`Tower.rank_probe`),
    with the same compiled Jacobian (`Tower.jacobian_kernel`). The at-point
    rank is that Jacobian at the extended model's own point."""
    opts = opts or AnalyzeOptions()
    tower = ext.tower
    model = ext.model
    coords = list(model.state_vars) + list(model.input_vars)
    rows = tower.row_exprs()
    required = len(coords)
    if len(rows) != required:
        return Certificate(square=False, rank=0, required=required,
                           points_checked=0, at_point_rank=None)
    stray = [v for e in rows for v in vars_of(e) if v not in coords]
    if stray:
        raise ExtensionError(
            "tower rows reference coordinates outside the extended system: "
            + ", ".join(sorted({to_text(v) for v in stray})))
    rp = tower.rank_probe
    return Certificate(square=True, rank=rp.generic, required=required,
                       points_checked=len(rp.per_point),
                       at_point_rank=tower.rank_at(model.analysis_point(),
                                                   opts.tol_rank))


def truncated(ext: ExtendedSystem, which: str) -> ExtendedSystem:
    """Drop one chain state (for the minimality probe): the tower is no
    longer square over the truncated coordinates."""
    model = ext.model
    if which == "d2":
        if ext.d2 == 0:
            raise ExtensionError("no prolongation chain to truncate")
        drop = Var("ubar", 1, ext.d2 - 1)
        inputs = (drop, model.input_vars[1])
    else:
        if ext.d1 == 0:
            raise ExtensionError("no prelongation chain to truncate")
        drop = Var("zetabar", 1, -ext.d1)
        inputs = model.input_vars
    state = tuple(v for v in model.state_vars if v != drop)
    f_ext = tuple(fi for v, fi in zip(model.state_vars, model.f) if v != drop)
    point = {k: v for k, v in model.point.items() if k != drop}
    trunc = SystemModel(n=len(state), m=2, f=f_ext, state_vars=state,
                        input_vars=inputs, params=model.params, point=point,
                        name=model.name + "_trunc")
    return replace(ext, model=trunc)
