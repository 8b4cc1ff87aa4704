import random
import re

import pytest

from difflat import analysis, expr, extension, numeric, systems
from difflat.analysis import VERIFY_STEPS, FlatCandidate, analyze
from difflat.expr import EvalError, Var, compile_exprs, evaluate, jacobian, var
from difflat.extension import (
    ExtensionError, build_combined, certify_linearizing, truncated,
)
from difflat.model import SystemModel
from difflat.numeric import eval_matrix, simulate
from difflat.parsing import DimTable, parse_expression
from difflat.sysfile import loads_system
from test_snapshot import CASES


def P(s, n, m, params=()):
    return parse_expression(s, DimTable(n, m, frozenset(params)))


@pytest.fixture(scope="module")
def exts(reports, corpus):
    out = {}
    for name in ("vtol", "academic", "robot"):
        rep = reports[name]
        out[name] = build_combined(rep.model, corpus[name].candidate, rep.tower)
    return out


# ---------------------------------------------------------------------------
# structure of the three extensions

def test_vtol_prolongation_structure(exts):
    ext = exts["vtol"]
    assert ext.mode == "prolongation"
    assert ext.d1 == 0 and ext.d2 == 2
    assert ext.model.n == 8
    assert ext.model.state_vars == tuple(
        [var("x", i + 1) for i in range(6)] + [Var("ubar", 1, 0), Var("ubar", 1, 1)])
    assert ext.model.input_vars == (Var("ubar", 1, 2), Var("ubar", 2, 0))
    # chain rows are pure shifts
    assert ext.model.f[6] == Var("ubar", 1, 1)
    assert ext.model.f[7] == Var("ubar", 1, 2)
    # the displayed x3+ row
    assert ext.model.f[2] == P("(-T_s*x3 - x1 + ubar1)/T_s", 6, 2, ("T_s",))


def test_vtol_extended_point_uses_shifted_chain_values(exts):
    ext = exts["vtol"]
    g = 9.81
    Ts = 0.1
    # ubar1[k] at the point are the k-further shifts of delta^2 x1 under
    # constant input: -(k+1)(k+2)/2 * T_s^2 * g
    for k, v in enumerate([Var("ubar", 1, 0), Var("ubar", 1, 1), Var("ubar", 1, 2)]):
        expect = -Ts * Ts * g * (k + 1) * (k + 2) / 2
        assert abs(ext.model.point[v] - expect) < 1e-12


def test_academic_prelongation_structure(exts):
    ext = exts["academic"]
    assert ext.mode == "prelongation"
    assert ext.d1 == 2 and ext.d2 == 0
    assert ext.model.n == 7
    assert ext.model.state_vars[:2] == (Var("zetabar", 1, -2), Var("zetabar", 1, -1))
    assert ext.model.input_vars == (var("u", 1), var("u", 2))
    # chain rows: zetabar1[-2]+ = zetabar1[-1], zetabar1[-1]+ = gbar1 = x1
    assert ext.model.f[0] == Var("zetabar", 1, -1)
    assert ext.model.f[1] == var("x", 1)
    # base rows unchanged
    assert ext.model.f[2:] == ext.base.f


def test_robot_combined_structure(exts):
    ext = exts["robot"]
    assert ext.mode == "combined"
    assert ext.d1 == 1 and ext.d2 == 1
    assert ext.model.n == 5
    assert ext.model.state_vars == (
        Var("zetabar", 1, -1), var("x", 1), var("x", 2), var("x", 3),
        Var("ubar", 1, 0))
    assert ext.model.input_vars == (Var("ubar", 1, 1), Var("ubar", 2, 0))
    # displayed rows
    assert ext.model.f[0] == var("x", 3)                      # zetabar1[-1]+
    assert ext.model.f[1] == P("x1 + ubar2*cos(ubar1 - x3)", 3, 2)
    assert ext.model.f[2] == P("x2 + ubar2*sin(ubar1 - x3)", 3, 2)
    assert ext.model.f[3] == Var("ubar", 1, 0)                # x3+
    assert ext.model.f[4] == Var("ubar", 1, 1)                # ubar1+


def test_defect_counts(exts, corpus):
    for name, ext in exts.items():
        idx = ext.tower.indices
        n = corpus[name].model.n
        assert ext.d1 + ext.d2 == idx.size_R - n == idx.d


# ---------------------------------------------------------------------------
# the extension read off the tower

def _empty_forward_chain():
    """x1+ = x2, x2+ = x3 + u2, x3+ = u1 with y = (x3, u2): the combined
    construction with a transformed input but no prolongation chain (d2 = 0).
    Returns (model, candidate, tower)."""
    from difflat.analysis import build_tower
    x = [var("x", i) for i in (1, 2, 3)]
    u = [var("u", j) for j in (1, 2)]
    sysm = SystemModel(n=3, m=2, f=(x[1], P("x3 + u2", 3, 2), u[0]),
                       state_vars=tuple(x), input_vars=tuple(u),
                       g=(x[0], x[2]), point={v: 0.0 for v in x + u})
    cand = FlatCandidate(phi=(x[2], u[1]))
    tower = build_tower(sysm, cand)
    return tower.context.base_model, cand, tower


MODES = {(False, False): "static", (False, True): "prolongation",
         (True, False): "prelongation", (True, True): "combined"}


@pytest.mark.parametrize("name", sorted(CASES) + ["empty_forward_chain"])
def test_extension_is_read_off_the_tower(name):
    """The extended coordinates are the tower variables, the last two the
    inputs; the chains step by one shift (the last history to gbar1), the
    states by the transformed f; the point holds each variable's source at
    the base jet; and the mode names the nonempty chains."""
    if name == "empty_forward_chain":
        sysm, cand, tower = _empty_forward_chain()
    else:
        sf = loads_system(CASES[name])
        rep = analyze(sf.model, sf.candidate, sf.options)
        sysm, cand, tower = rep.model, sf.candidate, rep.tower
    ext = build_combined(sysm, cand, tower)
    model, sys_bar = ext.model, tower.context.sys_bar
    assert model.state_vars + model.input_vars == tower.variables
    rows = dict(zip(model.state_vars, model.f))
    for v, fv in rows.items():
        if v in sysm.state_vars:
            assert fv == sys_bar.f[sysm.state_vars.index(v)], (name, v)
        elif v == Var("zetabar", 1, -1):
            assert fv == sys_bar.g[0], name
        else:
            assert fv == v.shifted(1), (name, v)
    assert list(model.point) == list(tower.variables)
    for v, value in model.point.items():
        src = tower.sources[v]
        e = (sysm.shift(cand.phi[src.component - 1], src.shift)
             if src.family == "y" else src)
        assert value == evaluate(e, sysm.jet_center(expr.vars_of(e))), (name, v)
    idx = tower.indices
    assert (ext.d1, ext.d2) == (idx.d1, idx.d2)
    assert ext.mode == MODES[(idx.d1 > 0, idx.d2 > 0)]
    if name == "empty_forward_chain":
        assert tower.context.u_inverse is not None and ext.mode == "prelongation"


def test_combined_extension_with_empty_forward_chain():
    sysm, cand, tower = _empty_forward_chain()
    idx = tower.indices
    assert tower.context.mode == "combined"
    assert (idx.r1, idx.r2, idx.d1, idx.d2) == ((2, 2), (1, 0), 2, 0)
    ext = build_combined(sysm, cand, tower)
    assert (ext.d1, ext.d2) == (2, 0)
    assert ext.model.n == 5
    cert = certify_linearizing(ext)
    assert cert.passed and cert.rank == cert.required == 7


def test_prelongation_needs_a_fixed_point(academic):
    """A backward chain holds a constant history, so its extended point needs
    the analysis point to be a fixed point: academic moved off the origin in
    x4 still analyzes as backward-flat, but has no prelongation there."""
    text = systems.source("academic").replace(
        "[equilibrium]\n", "[equilibrium]\nx4 = 1/10\n")
    sf = loads_system(text)
    rep = analyze(sf.model, sf.candidate, sf.options)
    assert rep.classification.kind == "backward_flat"
    assert rep.tower.context.zeta_inverse is not None
    with pytest.raises(ExtensionError) as ei:
        build_combined(rep.model, sf.candidate, rep.tower)
    assert str(ei.value) == (
        "prelongation chains need a constant history: the analysis point "
        "is not a fixed point (residual 0.1)")


def test_trivial_system_extension_is_identity():
    # x+ = u with y = x: d = 0, no chain; the extension is the system itself
    # in transformed input coordinates
    from difflat.analysis import analyze
    sysm = SystemModel(n=2, m=2, f=(var("u", 1), var("u", 2)),
                       state_vars=(var("x", 1), var("x", 2)),
                       input_vars=(var("u", 1), var("u", 2)),
                       g=(var("x", 1), var("x", 2)),
                       point={var("x", 1): 0.0, var("x", 2): 0.0,
                              var("u", 1): 0.0, var("u", 2): 0.0})
    cand = FlatCandidate(phi=(var("x", 1), var("x", 2)))
    rep = analyze(sysm, cand)
    ext = build_combined(rep.model, cand, rep.tower)
    assert ext.d1 == ext.d2 == 0 and ext.mode == "static"
    assert ext.model.n == 2
    assert ext.model.state_vars == sysm.state_vars
    assert ext.model.f == (Var("ubar", 1, 0), Var("ubar", 2, 0))
    cert = certify_linearizing(ext)
    assert cert.passed and cert.required == 4


def test_vtol_tower_row_supports_match_displays(reports):
    # exact variable support of the second component's forward shifts
    t = reports["vtol"].tower

    def support(j, s):
        from difflat.expr import vars_of, to_text
        return {to_text(v) for v in vars_of(t.rows[(j, s)])}

    assert support(2, 2) == {"x1", "x2", "x3", "x4", "x5", "ubar1"}
    assert support(2, 3) == {"x1", "x2", "x3", "x4", "x5", "x6",
                             "ubar1", "ubar1[1]"}
    assert support(2, 4) == {"x1", "x2", "x3", "x4", "x5", "x6",
                             "ubar1", "ubar1[1]", "ubar1[2]", "ubar2"}


def test_extension_requires_two_inputs(reports, corpus):
    rep = reports["robot"]
    single = SystemModel(n=2, m=1, f=(var("x", 2), var("u", 1)),
                         state_vars=(var("x", 1), var("x", 2)),
                         input_vars=(var("u", 1),),
                         point={var("x", 1): 0.0, var("x", 2): 0.0,
                                var("u", 1): 0.0})
    with pytest.raises(ExtensionError):
        build_combined(single, corpus["robot"].candidate, rep.tower)


# ---------------------------------------------------------------------------
# certificates

def test_certificates(exts):
    expect = {"vtol": 10, "academic": 9, "robot": 7}
    for name, ext in exts.items():
        cert = certify_linearizing(ext)
        assert cert.square
        assert cert.required == expect[name]
        assert cert.rank == cert.required
        assert cert.passed
        assert cert.points_checked >= 10


def test_vtol_certificate_full_rank_at_the_point(exts):
    # the pi/2 chart center is a regular point of the VTOL tower
    cert = certify_linearizing(exts["vtol"])
    assert cert.at_point_rank == 10


def _academic_u2_in_micro_units():
    """academic with u2 = v / 10^6, written again as u2."""
    head, tail = systems.source("academic").split("[equilibrium]")
    return (re.sub(r"\bu2\b", "(u2/1000000)", head) + "[equilibrium]"
            + tail.replace("u2 = -1 .. 1", "u2 = -1000000 .. 1000000"))


@pytest.mark.parametrize("name", sorted(CASES) + ["academic_u2_micro"])
def test_the_certificate_reads_the_tower_ranks(name):
    """The certificate's rank is the tower search's, over the same windows,
    and its at-point rank is the tower's at `Tower.point`, which is the
    extended point: `extend` and `analyze` report the same ranks. With u2
    in micro-units academic's windows reach rank 9 of 9, where a cloud of
    perturbations around the extended point read 8."""
    sf = loads_system(CASES.get(name) or _academic_u2_in_micro_units())
    rep = analyze(sf.model, sf.candidate, sf.options)
    ext = build_combined(rep.model, sf.candidate, rep.tower)
    cert = certify_linearizing(ext, sf.options).to_json()
    ranks = rep.to_json()["ranks"]["tower"]
    assert cert["at_point_rank"] == ranks["at_point"]
    assert cert["rank"] == ranks["generic"]
    assert cert["points_checked"] == VERIFY_STEPS
    assert cert["pass"]


# ---------------------------------------------------------------------------
# the compiled tower Jacobian: one kernel per tower, shared by every rank

def _matrix_or_error(fn):
    try:
        return fn().tobytes()
    except EvalError as ex:
        return type(ex).__name__


@pytest.mark.parametrize("name", sorted(CASES))
def test_tower_kernel_matches_the_tree_walked_jacobian(name, monkeypatch):
    """At every point where the tower search reads a rank (`Tower.point`
    and each verification window of every candidate tower) and at the
    certificate's point, the matrix read off the tower's compiled kernel is
    byte-equal to the tree-walked Jacobian of the rows, in the row and
    column order each takes: `row_exprs` against the tower variables, and
    against the extended coordinates."""
    seen = []     # (rows, cols, point, matrix or error)
    towers = []

    def record(rows, cols, matrix_at, points):
        seen.extend((rows, cols, pt, _matrix_or_error(lambda: matrix_at(pt)))
                    for pt in points)

    real_tower_rank = analysis._tower_rank

    def tower_rank(tower, opts):
        towers.append(tower)
        record(tower.row_exprs(), list(tower.variables), tower.jacobian_at,
               [tower.point] + [win.pt for win in tower.windows])
        return real_tower_rank(tower, opts)

    monkeypatch.setattr(analysis, "_tower_rank", tower_rank)
    sf = loads_system(CASES[name])
    rep = analyze(sf.model, sf.candidate, sf.options)
    ext = build_combined(rep.model, sf.candidate, rep.tower)
    real_at = ext.tower.jacobian_at

    def at(pt):
        record(ext.tower.row_exprs(),
               list(ext.model.state_vars) + list(ext.model.input_vars),
               real_at, [pt])
        return real_at(pt)

    monkeypatch.setattr(ext.tower, "jacobian_at", at)
    assert certify_linearizing(ext, sf.options).passed
    assert len(seen) == (len(towers) * (1 + VERIFY_STEPS) + 1)
    for rows, cols, pt, got in seen:
        J = jacobian(rows, cols)
        assert got == _matrix_or_error(lambda: eval_matrix(J, pt))


@pytest.mark.parametrize("name", sorted(CASES))
def test_an_extend_pass_compiles_the_tower_jacobian_once(name, monkeypatch):
    """analyze, build_combined and certify_linearizing compile the accepted
    tower's Jacobian exactly once, wherever it is evaluated."""
    compiled = []
    real = compile_exprs

    def counting(exprs, leaves):
        compiled.append(list(exprs))
        return real(exprs, leaves)

    for module in (expr, analysis, extension, numeric):
        monkeypatch.setattr(module, "compile_exprs", counting, raising=False)
    sf = loads_system(CASES[name])
    rep = analyze(sf.model, sf.candidate, sf.options)
    ext = build_combined(rep.model, sf.candidate, rep.tower)
    assert certify_linearizing(ext, sf.options).passed
    tower = rep.tower
    J = [e for row in jacobian(tower.row_exprs(), tower.variables) for e in row]
    assert sum(exprs == J for exprs in compiled) == 1


def test_minimality_probe(exts):
    # dropping one chain state breaks the square count on every system
    for name, which in (("vtol", "d2"), ("academic", "d1"),
                        ("robot", "d1"), ("robot", "d2")):
        cert = certify_linearizing(truncated(exts[name], which))
        assert not cert.square and not cert.passed


def test_extension_preserves_base_parameterization(exts, reports, corpus):
    """The first n components of the extended tower inversion agree with the
    base F_x along a simulated trajectory of the extended system."""
    boxes = {"academic": ((-1.0, 1.0), (-1.0, 1.0)),
             "robot": ((0.3, 0.7), (0.3, 0.7))}
    for name in ("academic", "robot"):
        ext = exts[name]
        rep = reports[name]
        rng = random.Random(8)
        model = ext.model
        pt = model.analysis_point()
        x0 = [pt[v] for v in model.state_vars]
        H, K = 0, 12
        us = [[rng.uniform(*boxes[name][j]) for j in range(2)]
              for _ in range(H + K)]
        traj = simulate(model, x0, us, H, K)
        # base states sit inside the extended state vector
        base_idx = [list(model.state_vars).index(v)
                    for v in ext.base.state_vars]
        # evaluate the base candidate along the embedded base trajectory and
        # recover the base states through the base parameterization
        # build a base trajectory directly from the embedded coordinates
        idx = rep.indices
        lo, hi = -max(idx.r1), max(idx.r2)
        for k in range(max(1, -lo), K - hi - 1):
            ybind = dict(model.param_bindings())
            for s in range(lo, hi + 1):
                xk = traj.state(k + s)
                upt = dict(model.param_bindings())
                for i, v in enumerate(model.state_vars):
                    upt[v] = xk[i]
                for j, v in enumerate(model.input_vars):
                    upt[v] = traj.inputs(k + s)[j]
                for j, phi in enumerate(ext.output):
                    ybind[Var("y", j + 1, s)] = evaluate(phi, upt)
            fx = [evaluate(e, ybind) for e in rep.parameterization.F_x]
            for i, bi in enumerate(base_idx):
                assert abs(fx[i] - traj.state(k)[bi]) <= 1e-10 * (
                    1 + abs(fx[i])), (name, k)
