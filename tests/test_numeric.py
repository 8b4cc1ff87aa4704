import math
import random
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import fd_jacobian_check, trajectory_point
from difflat import analysis, expr, numeric
from difflat.analysis import verification_trajectory
from difflat.expr import (
    EvalError, Par, Var, add, evaluate, mul, num, pow_, sin, var,
)
from difflat.numeric import (
    NONZERO_TOL, PROBE_COUNT, PROBE_RADIUS, SimulationError,
    block_triangular_solver, newton_solve, numeric_rank, probe_points,
    random_inputs, simulate, verify_parameterization,
)
from difflat.parsing import DimTable, parse_expression
from difflat.solve import SolveError, solve_equations


def P(s, n, m, params=()):
    return parse_expression(s, DimTable(n, m, frozenset(params)))


# ---------------------------------------------------------------------------
# numeric rank

def test_rank_threshold_behavior():
    assert numeric_rank([[1.0, 0.0], [0.0, 1e-12]]) == 1
    assert numeric_rank([[1.0, 0.0], [0.0, 1e-4]]) == 2


def test_rank_of_zero_matrix():
    assert numeric_rank(np.zeros((2, 3))) == 0


def test_rank_robot_input_jacobian_by_hand():
    # d_u f at u = (1, 0.3): 2x2 top block determinant is -u1 != 0
    u1v, u2v = 1.0, 0.3
    M = [[math.cos(u2v), -u1v * math.sin(u2v)],
         [math.sin(u2v), u1v * math.cos(u2v)],
         [0.0, 1.0]]
    assert numeric_rank(M) == 2


def test_rank_scaling_invariance(corpus):
    rng = random.Random(21)
    for sf in corpus.values():
        sysm = sf.model
        from difflat.expr import differentiate
        cols = list(sysm.state_vars) + list(sysm.input_vars)
        J = [[differentiate(fi, v) for v in cols] for fi in sysm.f]
        pt = sysm.analysis_point()
        from difflat.numeric import eval_matrix
        A = eval_matrix(J, pt)
        r = numeric_rank(A)
        for _ in range(5):
            rs = np.diag([10 ** rng.uniform(-2, 2) for _ in range(A.shape[0])])
            cs = np.diag([10 ** rng.uniform(-2, 2) for _ in range(A.shape[1])])
            assert numeric_rank(rs @ A @ cs) == r


def test_rank_rejects_non_finite():
    with pytest.raises(ValueError):
        numeric_rank([[1.0, float("nan")]])


# ---------------------------------------------------------------------------
# probe points

X1, X2, U1, K = var("x", 1), var("x", 2), var("u", 1), Par("k")
CENTER = {K: 2.0, X1: 1.0, X2: -1.0, U1: 0.5}


def test_probe_points_start_at_the_center():
    center = dict(CENTER)
    pts = list(probe_points(center, seed=3, count=4))
    assert len(pts) == 5
    assert pts[0] == CENTER and center == CENTER
    assert len(list(probe_points(CENTER, seed=3))) == PROBE_COUNT + 1


def test_probe_points_move_only_the_perturbed_leaves():
    pts = list(probe_points(CENTER, seed=3, count=4, perturb=[U1, X1]))
    for pt in pts[1:]:
        assert pt[K] == CENTER[K] and pt[X2] == CENTER[X2]
        for v in (X1, U1):
            assert 0.0 < abs(pt[v] - CENTER[v]) <= PROBE_RADIUS


def test_probe_points_keep_parameters_fixed_by_default():
    for pt in list(probe_points(CENTER, seed=3))[1:]:
        assert pt[K] == CENTER[K]
        for v in (X1, X2, U1):
            assert 0.0 < abs(pt[v] - CENTER[v]) <= PROBE_RADIUS


def test_probe_points_bind_after_the_perturbation():
    y = Var("y", 1, 0)
    e = P("k*x1*x2", 2, 1, ("k",))
    pts = list(probe_points(CENTER, seed=3, count=4, bind=[(y, e)]))
    assert pts[0][y] == -2.0
    for pt in pts:
        assert pt[y] == evaluate(e, pt)


def test_probe_points_repeat_for_the_same_seed():
    assert list(probe_points(CENTER, seed=7)) == list(probe_points(CENTER, seed=7))
    assert list(probe_points(CENTER, seed=7)) != list(probe_points(CENTER, seed=8))


# ---------------------------------------------------------------------------
# the nonzero scan: dependence, chain-lead identity and pivots

class RecordingPoint(dict):
    """A point that records each leaf `evaluate` reads from it."""

    def __init__(self, *args):
        super().__init__(*args)
        self.reads = []

    def __getitem__(self, leaf):
        self.reads.append(leaf)
        return super().__getitem__(leaf)


def test_a_pole_skips_only_its_own_pair_of_the_scan():
    a = var("x", 1)
    # 1/a has a pole at a = 0: (a = 0, a) and both pairs at a = 2 remain
    scan = numeric._magnitudes([pow_(a, -1), a], [{a: 0.0}, {a: 2.0}])
    assert list(scan) == [0.0, 0.5, 2.0]


def test_a_subtree_the_scanned_expressions_share_is_walked_once_a_point(
        monkeypatch):
    """The partials of one dependence test share subtrees; the scan walks
    such a subtree once at each point, not once per expression."""
    x1, x2, x3 = var("x", 1), var("x", 2), var("x", 3)
    inner = add(mul(x1, x2), x3)
    exprs = [add(sin(inner), x1), mul(sin(inner), x2)]
    points = [{x1: 0.5, x2: -1.5, x3: 2.0}, {x1: 1.0, x2: 2.0, x3: -0.5}]
    walks = []
    real = expr._eval

    def counting(e, point, memo):
        if e is inner:
            walks.append(id(point))
        return real(e, point, memo)

    want = [abs(evaluate(e, pt)) for pt in points for e in exprs]
    monkeypatch.setattr(expr, "_eval", counting)
    assert list(numeric._magnitudes(exprs, points)) == want
    assert walks == [id(pt) for pt in points]


def test_a_nan_is_never_nonzero_and_never_the_maximum():
    a, b, u = var("x", 1), var("x", 2), var("u", 1)
    pt = {a: math.nan, b: 1e-12}
    assert list(numeric._magnitudes([a, b], [pt])) == [0.0, 1e-12]
    assert max(numeric._magnitudes([a, b], [pt])) == 1e-12
    assert not numeric.depends_on(mul(a, b), [b], [pt])    # d/db = a, a NaN
    # a NaN pivot scores as a vanishing one, so elimination stalls
    with pytest.raises(SolveError, match="stalled"):
        solve_equations([add(mul(a, u), num(-1))], [u], [pt])


def test_dependence_stops_at_the_first_nonzero_value():
    a, b, u1, u2 = var("x", 1), var("x", 2), var("u", 1), var("u", 2)
    e = add(mul(a, u1), mul(b, u2))    # partials a, then b
    first = RecordingPoint({a: 1.0, b: 5.0})
    second = RecordingPoint(first)
    probes = iter([first, second])
    assert numeric.depends_on(e, [u1, u2], probes)
    assert first.reads == [a]    # b is never evaluated
    assert next(probes) is second and second.reads == []
    # a value at the threshold is not above it: every pair is scanned
    tiny = RecordingPoint({a: NONZERO_TOL, b: -NONZERO_TOL})
    assert not numeric.depends_on(e, [u1, u2], [tiny])
    assert tiny.reads == [a, b]


# ---------------------------------------------------------------------------
# finite differences

def test_fd_check_linear_is_exact():
    # central differences are analytically exact on affine functions, so a
    # large step keeps the round-off floor eps/h below 1e-12
    e = P("2*x1 - 3*x2", 2, 1)
    pt = {var("x", 1): 0.7, var("x", 2): -0.4}
    assert fd_jacobian_check([e], [var("x", 1), var("x", 2)], pt, h=1e-2) <= 1e-12


def test_fd_convergence_order_on_cubic():
    e = pow_(var("x", 1), 3)
    pt = {var("x", 1): 1.0}
    err2 = fd_jacobian_check([e], [var("x", 1)], pt, h=1e-2)
    err3 = fd_jacobian_check([e], [var("x", 1)], pt, h=1e-3)
    # central differences: error ~ h^2, so a 10x smaller h gains ~100x
    assert err2 / err3 == pytest.approx(100, rel=0.2)


def test_fd_check_on_corpus_dynamics(corpus):
    for sf in corpus.values():
        sysm = sf.model
        cols = list(sysm.state_vars) + list(sysm.input_vars)
        pt = sysm.analysis_point()
        # move off exact zeros so relative errors are meaningful
        pt = {k: (v + 0.1 if not isinstance(k, Par) else v)
              for k, v in pt.items()}
        assert fd_jacobian_check(list(sysm.f), cols, pt) <= 1e-6


# ---------------------------------------------------------------------------
# simulation

def test_academic_equilibrium_trajectory_is_constant(academic):
    sysm = academic.model
    traj = simulate(sysm, [0.0] * 5, [[0.0, 0.0]] * 10, 2, 8)
    assert all(max(abs(x) for x in xs) == 0.0 for xs in traj.x)


def test_robot_x3_hand_iteration(robot):
    sysm = robot.model
    traj = simulate(sysm, [0.0, 0.0, 0.0], [[1.0, 0.1]] * 5, 0, 5)
    assert traj.state(5)[2] == pytest.approx(0.5, abs=1e-12)


def test_vtol_chart_center_is_not_a_fixed_point(vtol):
    # evaluating f once at the declared point moves x3 and x4 by -T_s*g
    sysm = vtol.model
    pt = sysm.analysis_point()
    x0 = [pt[v] for v in sysm.state_vars]
    u0 = [pt[v] for v in sysm.input_vars]
    traj = simulate(sysm, x0, [u0], 0, 1)
    moved = [abs(a - b) for a, b in zip(traj.state(1), x0)]
    assert moved[2] == pytest.approx(0.981, abs=1e-12)
    assert moved[3] == pytest.approx(0.981, abs=1e-12)
    assert max(moved[0], moved[1], moved[4], moved[5]) == 0.0


def test_simulation_requires_enough_inputs(robot):
    with pytest.raises(SimulationError):
        simulate(robot.model, [0.0] * 3, [[0.0, 0.0]] * 3, 2, 8)


def test_zeta_recorded_along_trajectory(robot):
    traj = simulate(robot.model, [0.0, 0.0, 0.0], [[1.0, 0.5]] * 4, 0, 4)
    # g = (x3, x1)
    for k in range(4):
        assert traj.zeta[k][0] == traj.state(k)[2]
        assert traj.zeta[k][1] == traj.state(k)[0]


# ---------------------------------------------------------------------------
# parameterization verification

def test_verify_robot_thirty_steps(reports, robot):
    rep = reports["robot"]
    sysm = rep.model
    rng = random.Random(7)
    H, K = 2, 34
    us = [[rng.uniform(0.5, 1.5), rng.uniform(-1, 1)] for _ in range(H + K)]
    traj = simulate(sysm, [0.0] * 3, us, H, K)
    out = verify_parameterization(sysm, robot.candidate, rep.parameterization,
                                  traj, range(0, 30))
    assert out.passed and out.checked == 30
    assert max(out.max_residual_x, out.max_residual_u) <= 1e-8


def test_verify_constant_trajectory_roundoff_only_vtol(reports, vtol):
    # the VTOL's constant-input trajectory from the chart center stays in the
    # chart (x5 fixed at pi/2), and the parameterization tracks it to round-off
    rep = reports["vtol"]
    sysm = rep.model
    pt = sysm.analysis_point()
    x0 = [pt[v] for v in sysm.state_vars]
    u0 = [pt[v] for v in sysm.input_vars]
    traj = simulate(sysm, x0, [list(u0)] * 16, 2, 14)
    out = verify_parameterization(sysm, vtol.candidate,
                                  rep.parameterization, traj, range(0, 4))
    assert out.passed
    assert max(out.max_residual_x, out.max_residual_u) <= 1e-9


def test_constant_trajectories_sit_on_the_singular_locus(reports, academic):
    # the academic (and robot) parameterizations have poles exactly on
    # constant trajectories: all y1-differences in the denominators vanish
    from difflat.expr import PoleError
    rep = reports["academic"]
    sysm = rep.model
    traj = simulate(sysm, [0.0] * 5, [[0.0, 0.0]] * 16, 5, 11)
    with pytest.raises(PoleError):
        verify_parameterization(sysm, academic.candidate,
                                rep.parameterization, traj, range(0, 4))


def test_corrupted_parameterization_is_caught(reports, robot):
    from dataclasses import replace
    from difflat.expr import add, mul, num
    rep = reports["robot"]
    sysm = rep.model
    param = rep.parameterization
    bad_Fu = (add(param.F_u[0], mul(num(1) / 1000, Var("y", 1, 0))),
              param.F_u[1])
    bad = replace(param, F_u=bad_Fu)
    rng = random.Random(7)
    H, K = 2, 14
    us = [[rng.uniform(0.5, 1.5), rng.uniform(-1, 1)] for _ in range(H + K)]
    traj = simulate(sysm, [0.5] * 3, us, H, K)
    out = verify_parameterization(sysm, robot.candidate, bad, traj,
                                  range(0, 10))
    assert not out.passed
    # the injected fault is ~1e-3 * |y1|
    y1 = traj.state(out.worst_k)[2]
    assert out.max_residual_u == pytest.approx(abs(y1) / 1000, rel=0.5)


def test_verify_reads_the_outputs_once_per_trajectory_time(reports, robot,
                                                           monkeypatch):
    """The windows run the tower's compiled outputs once per trajectory time,
    on the states, inputs and parameters there, and the residuals are
    bit-identical to evaluating the outputs afresh at `trajectory_point` for
    every shift of every step."""
    rep = reports["robot"]
    sysm, param, cand = rep.model, rep.parameterization, robot.candidate
    rng = random.Random(7)
    H, K = 2, 14
    us = [[rng.uniform(0.5, 1.5), rng.uniform(-1, 1)] for _ in range(H + K)]
    traj = simulate(sysm, [0.5] * 3, us, H, K)
    lo, hi = -max(rep.indices.r1), max(rep.indices.r2)
    worst_x = worst_u = 0.0
    for k in range(10):
        pt = dict(traj.params)
        for s in range(lo, hi + 1):
            at = trajectory_point(traj, k + s, sysm)
            for j, phi in enumerate(cand.phi):
                pt[Var("y", j + 1, s)] = evaluate(phi, at)
        fx = [evaluate(e, pt) for e in param.F_x]
        fu = [evaluate(e, pt) for e in param.F_u]
        worst_x = max([worst_x] + [abs(a - b) for a, b in zip(fx, traj.state(k))])
        worst_u = max([worst_u] + [abs(a - b) for a, b in zip(fu, traj.inputs(k))])

    reads = []
    kernel = param.tower.output_kernel

    def counted(values):
        reads.append(values)
        return kernel(values)

    monkeypatch.setitem(param.tower.__dict__, "output_kernel", counted)
    out = verify_parameterization(sysm, cand, param, traj, range(0, 10))
    params = list(traj.params.values())
    assert reads == [traj.x[traj.index(t)] + traj.u[traj.index(t)] + params
                     for t in range(lo, 10 + hi)]
    assert (out.max_residual_x, out.max_residual_u) == (worst_x, worst_u)


def test_window_bindings_match_trajectory_points(reports, corpus):
    """A window's positional reads bind the values `trajectory_point` binds,
    on the robot and vtol windows: `Window.pt` (the parameters, every output
    shift around k and the tower point, in that order), the target vector
    in `Tower.targets` order, and the exact tower point read off each tower
    variable's source."""
    for name in ("robot", "vtol"):
        sysm, cand = reports[name].model, corpus[name].candidate
        tower = reports[name].tower
        lo, hi = -max(tower.indices.r1), max(tower.indices.r2)
        pt0 = sysm.analysis_point()
        H, K = 5, 12
        us = random_inputs(random.Random(11), [pt0[v] for v in sysm.input_vars],
                           {}, H + K)
        traj = simulate(sysm, [pt0[v] for v in sysm.state_vars], us, H, K)
        windows = tower.windows_along(traj, range(-1, 6))
        assert [win.k for win in windows] == list(range(-1, 6))
        for win in windows:
            pt = dict(traj.params)
            for s in range(lo, hi + 1):
                at = trajectory_point(traj, win.k + s, sysm)
                for j, phi in enumerate(cand.phi):
                    pt[Var("y", j + 1, s)] = evaluate(phi, at)
            measured = dict(pt)
            measured.update(zip(sysm.state_vars, traj.state(win.k)))
            measured.update(zip(sysm.input_vars, traj.inputs(win.k)))
            w = [measured[tower.sources[v]] for v in tower.variables]
            pt.update(zip(tower.variables, w))
            assert list(win.pt.items()) == list(pt.items())
            assert win.y == [pt[t] for t in tower.targets]
            assert win.w == w
            assert (win.x, win.u) == (traj.state(win.k), traj.inputs(win.k))


def test_a_nan_residual_fails_verification(reports):
    """A NaN in the first or the last component of a window's state or input
    gives a NaN residual, which fails the 1e-8 gate and names its window."""
    rep = reports["robot"]
    windows = rep.tower.windows
    assert rep.parameterization.check(windows).passed
    for field in ("x", "u"):
        for i in (0, -1):
            poisoned = list(windows)
            values = list(getattr(windows[3], field))
            values[i] = math.nan
            poisoned[3] = windows[3]._replace(**{field: values})
            out = rep.parameterization.check(poisoned)
            worst = out.max_residual_x if field == "x" else out.max_residual_u
            assert math.isnan(worst) and not out.passed, (field, i)
            assert out.worst_k == windows[3].k
            assert out.to_json()["pass"] is False


def test_one_step_vtol_windows_build_no_var_after_the_first(reports, vtol,
                                                           monkeypatch):
    """A one-step verification reads the window by position and seeds Newton
    from the tower's seed plan: once the first window has built the leaves
    and the plan, no later window constructs a Var."""
    rep = reports["vtol"]
    sysm, idx = rep.model, rep.indices
    traj = verification_trajectory(sysm, idx, 6, random.Random(5),
                                   vtol.options.input_boxes)

    def window(k):
        return verify_parameterization(sysm, vtol.candidate,
                                       rep.parameterization, traj,
                                       range(k, k + 1))

    assert window(0).passed
    built = []
    new = Var.__new__

    def counted(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Var, "__new__", counted)
    var("x", 1)
    assert len(built) == 1    # the count sees every construction
    built.clear()
    outs = [window(k) for k in range(1, 6)]
    assert all(out.passed and out.checked == 1 for out in outs)
    assert built == []


class _NoNumpy:
    def __getattr__(self, name):
        raise AssertionError(f"numpy.{name} read on a verification window")


def test_one_step_vtol_windows_run_without_numpy(reports, vtol, monkeypatch):
    """Once the tower's kernels are built, a one-step vtol verification,
    its Newton inversion included, runs on Python floats: it passes on 25
    seeded windows with numpy out of reach of `numeric` and `analysis`."""
    rep = reports["vtol"]
    sysm, idx, param = rep.model, rep.indices, rep.parameterization
    traj = verification_trajectory(sysm, idx, 25, random.Random(9),
                                   vtol.options.input_boxes)
    assert verify_parameterization(sysm, vtol.candidate, param, traj,
                                   range(0, 1)).passed
    monkeypatch.setattr(numeric, "np", _NoNumpy())
    monkeypatch.setattr(analysis, "np", _NoNumpy())
    traj = verification_trajectory(sysm, idx, 25, random.Random(10),
                                   vtol.options.input_boxes)
    for k in range(25):
        out = verify_parameterization(sysm, vtol.candidate, param, traj,
                                      range(k, k + 1))
        assert out.passed and out.checked == 1, k


def test_shift_operator_soundness_along_trajectories(reports, corpus):
    """delta^k phi evaluated at time k0 equals phi at time k0 + k."""
    for name, rep in reports.items():
        sf = corpus[name]
        sysm = rep.model
        rng = random.Random(3)
        pt = sysm.analysis_point()
        x0 = [pt[v] for v in sysm.state_vars]
        u0 = [pt[v] for v in sysm.input_vars]
        H, K = 5, 10
        us = []
        for _ in range(H + K):
            us.append([rng.uniform(*sf.options.input_boxes.get(j + 1,
                                                               (u0[j] - 0.2, u0[j] + 0.2)))
                       for j in range(sysm.m)])
        traj = simulate(sysm, x0, us, H, K)
        k0 = 2
        for j, phi in enumerate(sf.candidate.phi):
            for k in range(-3, 4):
                shifted = sysm.shift(phi, k)
                pt = trajectory_point(traj, k0, sysm, input_depth=max(k, 0) + 1,
                                      zeta_depth=max(-k, 0) + 1)
                a = evaluate(shifted, pt)
                ptk = trajectory_point(traj, k0 + k, sysm, input_depth=1,
                                       zeta_depth=1)
                b = evaluate(phi, ptk)
                assert abs(a - b) <= 1e-9 * (1 + abs(b)), (name, j, k)


# ---------------------------------------------------------------------------
# Newton iteration

def _recording(fn, points):
    def recorded(w):
        points.append(np.array(w))
        return fn(w)
    return recorded


DENSE_2X2 = [(0, 0), (0, 1), (1, 0), (1, 1)]
DIAGONAL_2X2 = [(0, 0), (1, 1)]


def test_newton_evaluates_the_residual_once_per_point():
    # from w = 3 the full Newton step on atan overshoots, so the line search
    # halves twice before the first accepted step; the seed, each accepted
    # step and each rejected trial cost one residual evaluation apiece
    res, jac = [], []
    solve = block_triangular_solver([(0, 0)], 1)
    w = newton_solve(
        _recording(np.arctan, res),
        _recording(lambda w: partial(solve, [1.0 / (1.0 + w[0] ** 2)]), jac),
        np.array([3.0]))
    assert w[0] == 0.0
    assert len(res) == 1 + len(jac) + 2
    assert len({p.tobytes() for p in res}) == len(res)
    # a linear system converges in one step: the seed and the solution
    A, b = np.array([[2.0, 1.0], [1.0, 3.0]]), np.array([1.0, 2.0])
    solve = block_triangular_solver(DENSE_2X2, 2)
    res, jac = [], []
    newton_solve(_recording(lambda w: A @ w - b, res),
                 _recording(lambda w: partial(solve, A.ravel().tolist()), jac),
                 np.zeros(2))
    assert (len(res), len(jac)) == (2, 1)


def test_newton_nan_residual_is_never_progress():
    # the full step lands on a residual (0, nan): a NaN after a finite entry,
    # which a plain max over the entries would read as 0. Every trial step
    # has a NaN entry, so the line search runs out.
    def residual(w):
        return np.array([w[0], 1.0 if w[1] == 1.0 else np.nan])

    identity = partial(block_triangular_solver(DIAGONAL_2X2, 2), [1.0, 1.0])
    with pytest.raises(EvalError, match="stagnated"):
        newton_solve(residual, lambda w: identity, np.ones(2))


def _minus_one(w):
    return [a - 1.0 for a in w]


def test_a_singular_newton_step_is_a_plain_eval_error():
    zeros = partial(block_triangular_solver(DENSE_2X2, 2), [0.0] * 4)
    with pytest.raises(EvalError) as ei:
        newton_solve(_minus_one, lambda w: zeros, [0.0, 0.0])
    assert str(ei.value) == "singular Jacobian in Newton solve"


def test_a_zero_pivot_is_a_singular_newton_step():
    # lower triangular: the 1 x 1 block of row 1 divides by J[1, 1] = 0
    solve = block_triangular_solver([(0, 0), (1, 0), (1, 1)], 2)
    assert solve([2.0, 1.0, 4.0], [2.0, 9.0]) == [1.0, 2.0]
    with pytest.raises(EvalError) as ei:
        newton_solve(_minus_one, lambda w: partial(solve, [2.0, 1.0, 0.0]),
                     [0.0, 0.0])
    assert str(ei.value) == "singular Jacobian in Newton solve"


def test_a_pattern_without_a_perfect_matching_is_singular():
    # both rows have their only nonzeros in column 0
    with pytest.raises(EvalError) as ei:
        block_triangular_solver([(0, 0), (1, 0)], 2)
    assert str(ei.value) == "singular Jacobian in Newton solve"


def test_only_the_cyclic_remainder_reaches_the_block_solve(monkeypatch):
    # rows {0}, {0, 1, 2}, {1, 2}, {1, 2, 3}: x0 comes first, x3 last from
    # row 3, and rows 1 and 2 couple x1 and x2 in one 2 x 2 block
    import difflat.numeric as numeric
    J = np.array([[2.0, 0.0, 0.0, 0.0], [1.0, 3.0, 1.0, 0.0],
                  [0.0, 1.0, 4.0, 0.0], [0.0, 2.0, -1.0, 5.0]])
    nonzeros = [(i, j) for i in range(4) for j in range(4) if J[i, j] != 0.0]
    blocks, real = [], numeric._solve_block

    def recorded(A, b):
        blocks.append(A)
        return real(A, b)

    monkeypatch.setattr(numeric, "_solve_block", recorded)
    r = [1.0, -2.0, 0.5, 3.0]
    got = block_triangular_solver(nonzeros, 4)([J[i, j] for i, j in nonzeros], r)
    assert len(blocks) == 1
    # the columns of the block, in whichever order the solver takes them
    assert sorted(zip(*blocks[0])) == sorted(zip(*J[1:3, 1:3].tolist()))
    assert np.allclose(got, np.linalg.solve(J, r), rtol=1e-14, atol=0.0)


def test_an_empty_column_is_singular_when_the_solver_is_built():
    # three rows over columns 0 and 1 only: column 2 has no nonzero
    with pytest.raises(EvalError) as ei:
        block_triangular_solver([(0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (2, 1)], 3)
    assert str(ei.value) == "singular Jacobian in Newton solve"


def test_a_remainder_without_a_perfect_matching_is_singular_when_built():
    # rows 0 and 1 are full, rows 2-4 reach columns 0 and 1 only: nothing
    # peels, and the 5 x 5 remainder has rank at most 4 whatever its values
    nonzeros = ([(i, j) for i in (0, 1) for j in range(5)]
                + [(i, j) for i in (2, 3, 4) for j in (0, 1)])
    with pytest.raises(EvalError) as ei:
        block_triangular_solver(nonzeros, 5)
    assert str(ei.value) == "singular Jacobian in Newton solve"


@pytest.mark.parametrize("name", ["robot", "academic"])
def test_a_two_by_two_remainder_builds_and_solves(name, reports):
    """The robot and academic tower Jacobians each leave a 2 x 2 remainder,
    which passes the generic rank check; the step solve agrees with a
    dense solve at every verification window."""
    tower = reports[name].tower
    kernel = tower.jacobian_kernel
    solve = block_triangular_solver(kernel.nonzeros, len(tower.variables))
    params = list(reports[name].model.param_bindings().values())
    r = [1.0 + 0.5 * i for i in range(len(tower.variables))]
    for win in tower.windows:
        values = win.w + params
        want = np.linalg.solve(kernel(values), r)
        assert np.allclose(solve(kernel.values(values), r), want,
                           rtol=1e-10, atol=1e-10 * np.abs(want).max()), win.k


def test_a_solver_is_refused_exactly_without_a_perfect_matching():
    """Building the step solve raises the singular error exactly when scipy
    finds no perfect matching in the pattern."""
    csgraph = pytest.importorskip("scipy.sparse.csgraph")
    sparse = pytest.importorskip("scipy.sparse")

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.integers(1, 6).flatmap(lambda n: st.lists(
        st.lists(st.booleans(), min_size=n, max_size=n), min_size=n, max_size=n)))
    def check(pattern):
        n = len(pattern)
        nonzeros = [(i, j) for i in range(n) for j in range(n) if pattern[i][j]]
        match = csgraph.maximum_bipartite_matching(
            sparse.csr_matrix(np.array(pattern, dtype=float)), perm_type="column")
        try:
            block_triangular_solver(nonzeros, n)
        except EvalError as ex:
            assert str(ex) == "singular Jacobian in Newton solve"
            assert (match < 0).any(), pattern
        else:
            assert (match >= 0).all(), pattern

    check()


def test_a_nan_jacobian_entry_ends_in_stagnation():
    solve = block_triangular_solver([(0, 0), (1, 0), (1, 1)], 2)
    with pytest.raises(EvalError, match="stagnated"):
        newton_solve(_minus_one,
                     lambda w: partial(solve, [1.0, math.nan, 1.0]), [0.0, 0.0])


@st.composite
def _block_triangular_systems(draw):
    """(nonzeros, values, r, dense J): a block lower triangular matrix with
    diagonal blocks of size 1-3, full blocks with a dominant diagonal, a
    random pattern below them, rows and columns permuted at random."""
    sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=5))
    n = sum(sizes)
    block = [b for b, size in enumerate(sizes) for _ in range(size)]
    rows = draw(st.permutations(range(n)))
    cols = draw(st.permutations(range(n)))
    value = st.floats(-1.0, 1.0, allow_nan=False)
    J = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if block[i] == block[j]:
                J[rows[i], cols[j]] = draw(value) + (4.0 if i == j else 0.0)
            elif block[j] < block[i] and draw(st.booleans()):
                J[rows[i], cols[j]] = draw(value)
    nonzeros = [(i, j) for i in range(n) for j in range(n) if J[i, j] != 0.0]
    r = draw(st.lists(st.floats(-10.0, 10.0, allow_nan=False),
                      min_size=n, max_size=n))
    return nonzeros, [J[i, j] for i, j in nonzeros], r, J


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_block_triangular_systems())
def test_block_triangular_solve_matches_a_dense_solve(system):
    nonzeros, values, r, J = system
    got = block_triangular_solver(nonzeros, len(r))(values, r)
    want = np.linalg.solve(J, r)
    assert np.allclose(got, want, rtol=1e-10, atol=1e-10 * np.abs(want).max())
