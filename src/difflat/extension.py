"""Dynamic extensions: prolongations (forward shift chains on a transformed
input), prelongations (backward shift chains on a transformed g-function),
their combination, and the static-feedback-linearizability certificate via
the diffeomorphism property of the extended system's parameterizing tower."""

from __future__ import annotations

from dataclasses import dataclass

from .expr import Var, evaluate, substitute, to_text, vars_of
from .model import SystemModel
from .numeric import matrix_rank_probe, probe_points, probe_rank
from .analysis import AnalysisError, AnalyzeOptions, FlatCandidate, Tower

__all__ = [
    "ExtendedSystem", "Certificate", "ExtensionError",
    "build_prolongation", "build_prelongation", "build_combined",
    "certify_linearizing", "truncated",
]


class ExtensionError(AnalysisError):
    pass


@dataclass
class ExtendedSystem:
    """The extended model plus the transforms tying it to the base system."""

    base: SystemModel
    model: SystemModel
    d1: int
    d2: int
    input_transform: dict | None   # {original u leaf: expr over (x, ubar)}
    zeta_transform: dict | None    # {zeta_j[-1]: expr over (x, zetabar[-1])}
    tower: Tower
    output: tuple                  # candidate outputs over extended coordinates

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


def _require_two_inputs(sys: SystemModel):
    if sys.m != 2:
        raise ExtensionError("extensions are defined for two-input systems (m = 2)")


def _chain_point_forward(sys, cand, tower, d2):
    """Values of ubar1[0..d2] and ubar2 on the jet through the base point."""
    ctx = tower.context
    idx = tower.indices
    first = cand.phi[ctx.sigma_y[0]]
    rho1 = idx.rho[ctx.sigma_y[0]]
    vals = {}
    for k in range(d2 + 1):
        e = sys.shift(first, rho1 + k)
        vals[Var("ubar", 1, k)] = evaluate(e, sys.jet_center(vars_of(e)))
    other = sys.input_vars[ctx.sigma_u[1]]
    vals[Var("ubar", 2, 0)] = sys.analysis_point()[other]
    return vals


def _chain_point_backward(sys, cand, tower, d1):
    """Values of zetabar1[-d1..-1] at the base point (needs a fixed point)."""
    ctx = tower.context
    idx = tower.indices
    pt = sys.analysis_point()
    resid = max(abs(evaluate(fi, pt) - pt[v])
                for fi, v in zip(sys.f, sys.state_vars))
    if resid > 1e-10:
        raise ExtensionError(
            "prelongation chains need a constant history: the analysis point "
            f"is not a fixed point (residual {resid:.3g})")
    first = cand.phi[ctx.sigma_y[0]]
    gamma1 = idx.gamma[ctx.sigma_y[0]]
    e = sys.shift(first, -gamma1)
    val = evaluate(e, sys.jet_center(vars_of(e)))
    return {Var("zetabar", 1, -k): val for k in range(1, d1 + 1)}


def build_prolongation(sys: SystemModel, cand: FlatCandidate,
                       tower: Tower) -> ExtendedSystem:
    """Prop.-2 extension: forward chain of length d2 on the transformed input
    ubar1 = delta^rho1 phi_first; state [x, ubar1_[0..d2-1]], input
    (ubar1[d2], ubar2)."""
    _require_two_inputs(sys)
    if tower.indices.r1 != (0, 0) or tower.context.mode != "forward":
        raise ExtensionError(
            "prolongation applies to forward-flat candidates (R1 = 0); "
            f"got R1 = {tower.indices.r1}")
    return build_combined(sys, cand, tower)


def build_prelongation(sys: SystemModel, cand: FlatCandidate,
                       tower: Tower) -> ExtendedSystem:
    """Prop.-3 extension: backward chain of length d1 on the transformed
    g-function gbar1 = phi_first shifted by -(gamma1 - 1); state
    [zetabar1_[-d1..-1], x], original inputs."""
    _require_two_inputs(sys)
    if tower.indices.r2 != (0, 0) or tower.context.mode != "backward":
        raise ExtensionError(
            "prelongation applies to backward-flat candidates (R2 = 0); "
            f"got R2 = {tower.indices.r2}")
    return build_combined(sys, cand, tower)


def build_combined(sys: SystemModel, cand: FlatCandidate,
                   tower: Tower) -> ExtendedSystem:
    """Prop.-4 extension over the tower's transformed system: a backward
    chain of length d1 on gbar1 and a forward chain of length d2 on ubar1;
    state [zetabar1_[-d1..-1], x, ubar1_[0..d2-1]], input (ubar1[d2], ubar2).
    An empty chain leaves the Prop.-2 prolongation or the Prop.-3
    prelongation; without an input transform the inputs stay the original
    ones."""
    _require_two_inputs(sys)
    ctx = tower.context
    d1, d2 = tower.indices.d1, tower.indices.d2
    sys_bar = ctx.sys_bar
    u1, u2 = sys_bar.input_vars
    chain_z = [Var("zetabar", 1, -k) for k in range(d1, 0, -1)]
    chain_u = [u1.shifted(k) for k in range(d2)]
    state = chain_z + list(sys.state_vars) + chain_u
    # zetabar1[-k]+ = zetabar1[-k+1], the last one is gbar1 (composed with
    # the input transform); ubar1[k]+ = ubar1[k+1]
    f_z = chain_z[1:] + [sys_bar.g[0]] if d1 else []
    f_ext = f_z + list(sys_bar.f) + [v.shifted(1) for v in chain_u]
    point = dict(sys.point)
    output = tuple(cand.phi)
    if ctx.u_inverse is not None:
        for v in sys.input_vars:
            point.pop(v, None)
        point.update(_chain_point_forward(sys, cand, tower, d2))
        output = tuple(substitute(p, ctx.u_inverse) for p in cand.phi)
    if ctx.zeta_inverse is not None:
        point.update(_chain_point_backward(sys, cand, tower, d1))
    model = SystemModel(
        n=len(state), m=2, f=tuple(f_ext), state_vars=tuple(state),
        input_vars=(u1.shifted(d2), u2), params=sys.params, point=point,
        name=sys.name + "_ext")
    ext = ExtendedSystem(
        base=sys, model=model, d1=d1, d2=d2,
        input_transform=dict(ctx.u_inverse) if ctx.u_inverse else None,
        zeta_transform=dict(ctx.zeta_inverse) if ctx.zeta_inverse else None,
        tower=tower, output=output)
    _check_transform_ranks(ext)
    return ext


def _check_transform_ranks(ext: ExtendedSystem, opts: AnalyzeOptions | None = None):
    """Phi_u / Phi_zeta invertibility near the point (rank m in the new
    coordinates)."""
    opts = opts or AnalyzeOptions()
    sys = ext.base
    hist = [Var(sys.gvalue_family, j + 1, -1) for j in range(sys.m)]
    for what, transform, keys, cols in (
            ("input", ext.input_transform, sys.input_vars,
             [Var("ubar", 1, 0), Var("ubar", 2, 0)]),
            ("history", ext.zeta_transform, hist,
             [Var("zetabar", 1, -1), Var("zetabar", 2, -1)])):
        if not transform:
            continue
        rows = [transform[v] for v in keys]
        leaves = set(cols)
        for e in rows:
            leaves |= vars_of(e)
        if what == "input":
            center = ext.model.jet_center(leaves)
        else:
            # the chain values come from the extended point, the rest from
            # the base system's jet
            center = sys.jet_center({v for v in leaves if v.family != "zetabar"})
            for c in cols:
                center[c] = ext.model.point.get(c, 0.0)
        rp = probe_rank(rows, cols, probe_points(center, opts.seed),
                        tol_rel=opts.tol_rank, required=2)
        if rp.generic != 2:
            raise ExtensionError(
                f"{what} transform is not invertible near the point (rank {rp.generic})")


def certify_linearizing(ext: ExtendedSystem,
                        opts: AnalyzeOptions | None = None) -> Certificate:
    """Check that the tower, read over the extended coordinates, is a square
    map of full rank n_ext + m_ext at the extended point and perturbed
    probes: the parameterizing map of the extension is then a local
    diffeomorphism, i.e. the extended system is static feedback linearizable.

    The extended coordinates are the tower variables in the same order
    (`build_combined` lists them so), and the rank is read off the tower's
    compiled Jacobian (`Tower.jacobian_kernel`), the one the tower search,
    the class ranks and Newton inversion evaluate."""
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
    rp = matrix_rank_probe(tower.jacobian_at,
                           probe_points(model.analysis_point(), opts.seed),
                           tol_rel=opts.tol_rank, required=required)
    return Certificate(square=True, rank=rp.generic, required=required,
                       points_checked=len(rp.per_point),
                       at_point_rank=rp.at_point)


def truncated(ext: ExtendedSystem, which: str) -> ExtendedSystem:
    """Drop one chain state (for the minimality probe): the tower is no
    longer square over the truncated coordinates."""
    model = ext.model
    if which == "d2":
        if ext.d2 == 0:
            raise ExtensionError("no prolongation chain to truncate")
        drop = Var("ubar", 1, ext.d2 - 1)
        state = tuple(v for v in model.state_vars if v != drop)
        f_ext = tuple(fi for v, fi in zip(model.state_vars, model.f) if v != drop)
        inputs = (drop, model.input_vars[1]) if ext.d2 >= 1 else model.input_vars
    else:
        if ext.d1 == 0:
            raise ExtensionError("no prelongation chain to truncate")
        drop = Var("zetabar", 1, -ext.d1)
        state = tuple(v for v in model.state_vars if v != drop)
        f_ext = tuple(fi for v, fi in zip(model.state_vars, model.f) if v != drop)
        inputs = model.input_vars
    point = {k: v for k, v in model.point.items() if k != drop}
    trunc = SystemModel(n=len(state), m=2, f=f_ext, state_vars=state,
                        input_vars=inputs, params=model.params, point=point,
                        name=model.name + "_trunc")
    return ExtendedSystem(base=ext.base, model=trunc, d1=ext.d1, d2=ext.d2,
                          input_transform=ext.input_transform,
                          zeta_transform=ext.zeta_transform, tower=ext.tower,
                          output=ext.output)
