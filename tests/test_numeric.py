import math
import random

import numpy as np
import pytest

from difflat.analysis import FlatCandidate
from difflat.expr import EvalError, Par, Var, add, evaluate, mul, pow_, var
from difflat.numeric import (
    PROBE_COUNT, PROBE_RADIUS, SimulationError, fd_jacobian_check,
    newton_solve, numeric_rank, probe_points, random_inputs, simulate,
    verify_parameterization, window_bindings,
)
from difflat.parsing import DimTable, parse_expression


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
                                  traj, range(0, 30), tol=1e-8)
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
                                  rep.parameterization, traj, range(0, 4),
                                  tol=1e-8)
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
                                rep.parameterization, traj, range(0, 4),
                                tol=1e-12)


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
                                  range(0, 10), tol=1e-8)
    assert not out.passed
    # the injected fault is ~1e-3 * |y1|
    y1 = traj.state(out.worst_k)[2]
    assert out.max_residual_u == pytest.approx(abs(y1) / 1000, rel=0.5)


def test_verify_reads_the_outputs_once_per_trajectory_time(reports, robot,
                                                           monkeypatch):
    """The window's y bindings evaluate phi once per trajectory time, and the
    residuals are bit-identical to reading the outputs afresh for every
    shift of every step."""
    from difflat import numeric
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
            for j, val in enumerate(numeric.output_values(sysm, cand, traj,
                                                          k + s, 0)):
                pt[Var("y", j + 1, s)] = val
        fx = [evaluate(e, pt) for e in param.F_x]
        fu = [evaluate(e, pt) for e in param.F_u]
        worst_x = max([worst_x] + [abs(a - b) for a, b in zip(fx, traj.state(k))])
        worst_u = max([worst_u] + [abs(a - b) for a, b in zip(fu, traj.inputs(k))])

    times = []
    read = numeric.output_values

    def counted(sys, cand, traj, k, zdepth):
        times.append(k)
        return read(sys, cand, traj, k, zdepth)

    monkeypatch.setattr(numeric, "output_values", counted)
    out = verify_parameterization(sysm, cand, param, traj, range(0, 10))
    assert times == list(range(lo, 10 + hi))
    assert (out.max_residual_x, out.max_residual_u) == (worst_x, worst_u)


def _point_window(sys, cand, traj, k_window, lo, hi, zdepth):
    """`window_bindings` built from `Trajectory.point` dicts, one per read."""
    for k in k_window:
        pt = dict(traj.params)
        for s in range(lo, hi + 1):
            at = traj.point(k + s, sys, input_depth=0, zeta_depth=zdepth)
            for j, phi in enumerate(cand.phi):
                pt[Var("y", j + 1, s)] = evaluate(phi, at)
        yield k, pt


def test_window_bindings_match_trajectory_points(reports, corpus):
    """The positional output reads bind the values `Trajectory.point` binds:
    on the robot and vtol windows, and for outputs of academic that read
    two steps of g-value history."""
    history = FlatCandidate(phi=(
        add(var("x", 1), var("zeta", 1, -1)),
        add(mul(var("x", 3), var("zeta", 2, -2)), var("u", 1))))
    cases = [(reports[name].model, corpus[name].candidate,
              -max(reports[name].indices.r1), max(reports[name].indices.r2), 0)
             for name in ("robot", "vtol")]
    cases.append((reports["academic"].model, history, -2, 1, 2))
    for sysm, cand, lo, hi, zdepth in cases:
        pt0 = sysm.analysis_point()
        H, K = 5, 12
        us = random_inputs(random.Random(11), [pt0[v] for v in sysm.input_vars],
                           {}, H + K)
        traj = simulate(sysm, [pt0[v] for v in sysm.state_vars], us, H, K)
        window = range(-1, 6)
        assert list(window_bindings(sysm, cand, traj, window, lo, hi, zdepth)) \
            == list(_point_window(sysm, cand, traj, window, lo, hi, zdepth))


def test_one_step_vtol_windows_build_no_var_after_the_first(reports, vtol,
                                                           monkeypatch):
    """A one-step verification reads the window by position and seeds Newton
    from the tower's seed plan: once the first window has built the leaves
    and the plan, no later window constructs a Var."""
    rep = reports["vtol"]
    sysm, idx = rep.model, rep.indices
    pt0 = sysm.analysis_point()
    H, K = max(idx.r1) + 1, 6 + max(idx.r2) + 1
    us = random_inputs(random.Random(5), [pt0[v] for v in sysm.input_vars],
                       vtol.options.input_boxes, H + K)
    traj = simulate(sysm, [pt0[v] for v in sysm.state_vars], us, H, K)

    def window(k):
        return verify_parameterization(sysm, vtol.candidate,
                                       rep.parameterization, traj,
                                       range(k, k + 1))

    assert window(0).passed
    built = []
    init = Var.__post_init__

    def counted(self):
        built.append(self)
        init(self)

    monkeypatch.setattr(Var, "__post_init__", counted)
    var("x", 1)
    assert len(built) == 1    # the count sees every construction
    built.clear()
    outs = [window(k) for k in range(1, 6)]
    assert all(out.passed and out.checked == 1 for out in outs)
    assert built == []


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
                pt = traj.point(k0, sysm, input_depth=max(k, 0) + 1,
                                zeta_depth=max(-k, 0) + 1)
                a = evaluate(shifted, pt)
                ptk = traj.point(k0 + k, sysm, input_depth=1, zeta_depth=1)
                b = evaluate(phi, ptk)
                assert abs(a - b) <= 1e-9 * (1 + abs(b)), (name, j, k)


# ---------------------------------------------------------------------------
# Newton iteration

def _recording(fn, points):
    def recorded(w):
        points.append(np.array(w))
        return fn(w)
    return recorded


def test_newton_evaluates_the_residual_once_per_point():
    # from w = 3 the full Newton step on atan overshoots, so the line search
    # halves twice before the first accepted step; the seed, each accepted
    # step and each rejected trial cost one residual evaluation apiece
    res, jac = [], []
    w = newton_solve(_recording(np.arctan, res),
                     _recording(lambda w: np.diag(1.0 / (1.0 + w ** 2)), jac),
                     np.array([3.0]))
    assert w[0] == 0.0
    assert len(res) == 1 + len(jac) + 2
    assert len({p.tobytes() for p in res}) == len(res)
    # a linear system converges in one step: the seed and the solution
    A, b = np.array([[2.0, 1.0], [1.0, 3.0]]), np.array([1.0, 2.0])
    res, jac = [], []
    newton_solve(_recording(lambda w: A @ w - b, res),
                 _recording(lambda w: A, jac), np.zeros(2))
    assert (len(res), len(jac)) == (2, 1)


def test_newton_nan_residual_is_never_progress():
    # the full step lands on a residual (0, nan): a NaN after a finite entry,
    # which a plain max over the entries would read as 0. Every trial step
    # has a NaN entry, so the line search runs out.
    def residual(w):
        return np.array([w[0], 1.0 if w[1] == 1.0 else np.nan])

    with pytest.raises(EvalError, match="stagnated"):
        newton_solve(residual, lambda w: np.eye(2), np.ones(2))


def test_a_singular_newton_step_is_a_plain_eval_error():
    with pytest.raises(EvalError) as ei:
        newton_solve(lambda w: w - 1.0, lambda w: np.zeros((2, 2)), np.zeros(2))
    assert str(ei.value) == "singular Jacobian in Newton solve"
