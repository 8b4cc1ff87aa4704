import json
import os
import random
import re
import subprocess
import sys
from dataclasses import replace
from functools import partial
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import difflat
from difflat import analysis, model, numeric, systems
from difflat.analysis import (
    VERIFY_STEPS, AnalysisError, AnalyzeOptions, FlatCandidate, RankProbe,
    _rank_drop, _try_tower, analyze, backward_depths, build_tower, classify,
    invert_tower, normalize_inputs, relative_degrees, verification_trajectory,
)
from difflat.expr import (
    EvalError, Var, add, compile_exprs, differentiate, evaluate, jacobian,
    num, to_text, var, vars_of,
)
from difflat.model import ModelError, SystemModel, invert_extension
from difflat.numeric import (
    SEED, eval_matrix, newton_solve, numeric_rank, verify_parameterization,
)
from difflat.parsing import DimTable, parse_expression
from difflat.solve import SolveError
from difflat.sysfile import loads_system, print_system
from conftest import lowest_F_v_shifts, trajectory_point
from test_cli import VTOL_RELABELED_SWAPPED


def P(s, n, m, params=()):
    return parse_expression(s, DimTable(n, m, frozenset(params)))


# ---------------------------------------------------------------------------
# relative degrees and backward depths

def test_relative_degrees(vtol, academic, robot):
    assert relative_degrees(vtol.model, vtol.candidate) == (2, 2)
    assert relative_degrees(academic.model, academic.candidate) == (0, 0)
    assert relative_degrees(robot.model, robot.candidate) == (1, 0)


def test_relative_degree_single_integrator():
    sysm = SystemModel(f=(var("u", 1), var("u", 2)),
                       state_vars=(var("x", 1), var("x", 2)),
                       input_vars=(var("u", 1), var("u", 2)),
                       point={var("x", 1): 0.0, var("x", 2): 0.0,
                              var("u", 1): 0.0, var("u", 2): 0.0})
    cand = FlatCandidate(phi=(var("x", 1), var("x", 2)))
    assert relative_degrees(sysm, cand) == (1, 1)


def test_relative_degree_cap_diagnoses_defective_candidate(academic):
    # an output that never sees the inputs
    sysm = SystemModel(f=(var("x", 1), var("u", 1)),
                       state_vars=(var("x", 1), var("x", 2)),
                       input_vars=(var("u", 1),),
                       point={var("x", 1): 0.0, var("x", 2): 0.0,
                              var("u", 1): 0.0})
    cand = FlatCandidate(phi=(var("x", 1),))
    with pytest.raises(AnalysisError):
        relative_degrees(sysm, cand)


def test_backward_depths(models_with_psi, corpus):
    assert backward_depths(models_with_psi["academic"],
                           corpus["academic"].candidate) == (3, 2)
    assert backward_depths(models_with_psi["robot"],
                           corpus["robot"].candidate) == (1, 1)
    assert backward_depths(models_with_psi["vtol"],
                           corpus["vtol"].candidate) == (1, 1)


def test_backward_depths_need_the_inverse_map(academic):
    assert academic.model.psi_x is None
    with pytest.raises(ModelError, match=r"^backward shift needs the inverse map psi$"):
        backward_depths(academic.model, academic.candidate)


def test_backward_depth_trivial_swap_system():
    sysm = SystemModel(f=(var("u", 1), var("u", 2)),
                       state_vars=(var("x", 1), var("x", 2)),
                       input_vars=(var("u", 1), var("u", 2)),
                       g=(var("x", 1), var("x", 2)),
                       point={var("x", 1): 0.0, var("x", 2): 0.0,
                              var("u", 1): 0.0, var("u", 2): 0.0})
    sysm = invert_extension(sysm)
    cand = FlatCandidate(phi=(var("x", 1), var("x", 2)))
    assert backward_depths(sysm, cand) == (1, 1)


# ---------------------------------------------------------------------------
# towers

JET_PROBES = """
import json
from difflat import systems
from difflat.analysis import _jet_probes
from difflat.expr import to_text, vars_of
sf = systems.load("vtol")
sys = sf.model
leaves = vars_of(sys.shift(sf.candidate.phi[1], 5)) | set(sys.input_vars)
print(json.dumps([[[to_text(k), float(v).hex()] for k, v in pt.items()]
                  for pt in _jet_probes(sys, leaves)]))
"""


def test_jet_probes_do_not_depend_on_the_hash_seed():
    """The dependence probes over a set of vtol jet leaves (u1[2] and u1[3]
    lie outside the analysis point) give each leaf the same value, in the
    same order, under PYTHONHASHSEED 0 and 3."""
    path = [str(Path(difflat.__file__).parents[1])]
    if os.environ.get("PYTHONPATH"):
        path.append(os.environ["PYTHONPATH"])
    outs = []
    for seed in ("0", "3"):
        proc = subprocess.run(
            [sys.executable, "-c", JET_PROBES], capture_output=True, text=True,
            env=dict(os.environ, PYTHONHASHSEED=seed,
                     PYTHONPATH=os.pathsep.join(path)),
            timeout=120)
        assert proc.returncode == 0, proc.stderr
        outs.append(json.loads(proc.stdout))
    assert any(k == "u1[2]" for k, _ in outs[0][1])
    assert outs[0] == outs[1]


def test_vtol_tower(reports):
    t = reports["vtol"].tower
    idx = t.indices
    assert idx.r2 == (4, 4) and idx.r1 == (0, 0)
    assert idx.d1 == 0 and idx.d2 == 2
    # chain rows of the first component, as displayed in the source material
    assert t.rows[(1, 2)] == Var("ubar", 1, 0)
    assert t.rows[(1, 3)] == Var("ubar", 1, 1)
    assert t.rows[(1, 4)] == Var("ubar", 1, 2)
    assert t.rows[(1, 1)] == P("x1 + T_s*x3", 6, 2, ("T_s",))
    # support sets of the second component's rows
    def support(j, s):
        return {to_text(v) for v in vars_of(t.rows[(j, s)])}
    assert support(2, 2) <= {"x1", "x2", "x3", "x4", "x5", "ubar1"}
    assert support(2, 3) <= {"x1", "x2", "x3", "x4", "x5", "x6", "ubar1", "ubar1[1]"}
    assert "ubar2" in support(2, 4) and "ubar1[2]" in support(2, 4)


def test_academic_tower_rows_match_displays(reports):
    t = reports["academic"].tower
    assert t.indices.r1 == (4, 3) and t.indices.r2 == (0, 0)
    rows = {k: to_text(e) for k, e in t.rows.items()}
    assert rows[(1, -4)] == "zetabar1[-2]"
    assert rows[(1, -3)] == "zetabar1[-1]"
    assert rows[(1, -2)] == "x1"
    assert rows[(1, -1)] == "x1 + x4"
    assert t.rows[(2, -1)] == P("x3 - x2*x4", 5, 2)
    assert t.rows[(2, -2)] == P("x3 - x2*(x1 - zetabar1[-1])", 5, 2)
    assert t.rows[(2, -3)] == P(
        "x3 - x1*x5 + zetabar1[-1]*(2*x5 - x2) + zetabar1[-2]*(x2 - x5)", 5, 2)


def test_robot_tower_rows_match_displays(reports):
    t = reports["robot"].tower
    assert t.indices.r1 == (1, 1) and t.indices.r2 == (2, 1)
    assert t.rows[(1, -1)] == Var("zetabar", 1, -1)
    assert t.rows[(1, 0)] == var("x", 3)
    assert t.rows[(1, 1)] == Var("ubar", 1, 0)
    assert t.rows[(1, 2)] == Var("ubar", 1, 1)
    assert t.rows[(2, -1)] == P(
        "x1*sin(x3 - zetabar1[-1]) - x2*cos(x3 - zetabar1[-1])", 3, 2)
    assert t.rows[(2, 0)] == P("x1*sin(ubar1 - x3) - x2*cos(ubar1 - x3)", 3, 2)


def test_tower_requires_two_inputs():
    sysm = SystemModel(f=(var("x", 2), var("u", 1)),
                       state_vars=(var("x", 1), var("x", 2)),
                       input_vars=(var("u", 1),),
                       point={var("x", 1): 0.0, var("x", 2): 0.0,
                              var("u", 1): 0.0})
    with pytest.raises(AnalysisError) as ei:
        build_tower(sysm, FlatCandidate(phi=(var("x", 1),)))
    assert "m = 2" in str(ei.value)


def test_tower_functional_independence(reports):
    for rep in reports.values():
        rp = rep.tower.rank_probe
        assert rp.generic == rp.required
        assert rp.per_point == [rp.required] * VERIFY_STEPS


def test_index_identities(reports, corpus):
    for name, rep in reports.items():
        idx = rep.indices
        n = corpus[name].model.n
        r11, r12 = idx.r1
        r21, r22 = idx.r2
        rho1, rho2 = idx.rho
        g1, g2 = idx.gamma
        assert r21 - rho1 == r22 - rho2
        assert r11 - g1 == r12 - g2
        assert n == r12 + r22 + g1 + rho1 - 1
        assert idx.d == idx.size_R - n == idx.d1 + idx.d2


# ---------------------------------------------------------------------------
# parameterizations

def test_robot_parameterization_shapes(reports):
    param = reports["robot"].parameterization
    assert param.source == "tower_inverted"
    windows_x = {1: (-1, 1), 2: (-1, 0)}
    windows_u = {1: (-1, 2), 2: (-1, 1)}
    for e in param.F_x:
        for v in vars_of(e):
            lo, hi = windows_x[v.component]
            assert lo <= v.shift <= hi
    for e in param.F_u:
        for v in vars_of(e):
            lo, hi = windows_u[v.component]
            assert lo <= v.shift <= hi


def test_academic_parameterization_shapes_and_values(reports):
    param = reports["academic"].parameterization
    assert param.source == "tower_inverted"
    # x1 = y1[-2], x4 = y1[-1] - y1[-2], u1 = y1 - y1[-1]
    assert param.F_x[0] == Var("y", 1, -2)
    assert param.F_x[3] == P("y1[-1] - y1[-2]", 5, 2)
    assert param.F_u[0] == P("y1 - y1[-1]", 5, 2)
    for e in param.F_x:
        assert all(v.shift <= -1 for v in vars_of(e))


def test_vtol_parameterization_is_implicit(reports):
    param = reports["vtol"].parameterization
    assert param.source == "tower_implicit"
    assert param.F_x is None and param.tower is not None


def _tree_walked_newton(imp):
    """`recover` and `jacobian_blocks` of an implicit parameterization, built
    from evaluate/eval_matrix around the same newton_solve and the same
    compiled step solve (`Tower.step_solver`), fed the eval_matrix values at
    the tower Jacobian's structural nonzeros."""
    base = imp.context.base_model
    variables = list(imp.variables)
    rows = imp.row_exprs()
    J = jacobian(rows, variables)
    nonzeros = imp.jacobian_kernel.nonzeros
    u_exprs = [imp.u_recovery[v] for v in base.input_vars]
    dU = jacobian(u_exprs, variables)

    def point(w):
        pt = imp.context.sys_bar.param_bindings()
        pt.update((v, float(x)) for v, x in zip(variables, w))
        return pt

    def step(w):
        M = eval_matrix(J, point(w)).tolist()
        return partial(imp.step_solver, [M[i][j] for i, j in nonzeros])

    def recover(y, seed):
        targets = np.array([y[t] for t in imp.targets])
        w = newton_solve(
            lambda w: (np.array([evaluate(r, point(w)) for r in rows])
                       - targets).tolist(),
            step, seed)
        pt = point(w)
        us = [evaluate(e, pt) for e in u_exprs]
        return [pt[v] for v in base.state_vars], us, w

    def blocks(w):
        pt = point(w)
        M = np.linalg.inv(eval_matrix(J, pt))
        dFx = M[[variables.index(v) for v in base.state_vars], :]
        return dFx, eval_matrix(dU, pt) @ M, M

    return recover, blocks


def test_vtol_newton_matches_the_tree_walked_reference(reports, vtol):
    rep = reports["vtol"]
    sysm, idx, imp = rep.model, rep.indices, rep.parameterization.tower
    ref_recover, ref_blocks = _tree_walked_newton(imp)
    for seed in (1, 2):
        traj = verification_trajectory(sysm, idx, 6, random.Random(seed),
                                       vtol.options.input_boxes)
        for win in imp.windows_along(traj, range(6)):
            offset = 1e-3 * np.cos(np.arange(len(win.w)))
            w0 = [a + o * (1.0 + abs(a)) for a, o in zip(win.w, offset)]
            got, want = imp.recover(win.y, seed=w0), ref_recover(win.pt, w0)
            for a, b in zip(got, want):
                assert np.array(a).tobytes() == np.array(b).tobytes()
            w = got[2]
            for a, b in zip(imp.jacobian_blocks(w), ref_blocks(w)):
                assert a.tobytes() == b.tobytes()


def test_one_step_vtol_verification_matches_the_tree_walked_reference(reports,
                                                                      vtol):
    """A one-step vtol `verify_parameterization` gives, bit for bit, the
    residuals of the tree-walked Newton reference, fed with the outputs
    evaluated at `trajectory_point`, the exact tower point read off each
    tower variable's source and the same seed perturbation."""
    rep = reports["vtol"]
    sysm, idx, param = rep.model, rep.indices, rep.parameterization
    imp = param.tower
    ref_recover, _ = _tree_walked_newton(imp)
    traj = verification_trajectory(sysm, idx, 6, random.Random(5),
                                   vtol.options.input_boxes)
    for k in range(6):
        x, u = traj.state(k), traj.inputs(k)
        y = {}
        for s in range(-max(idx.r1), max(idx.r2) + 1):
            at = trajectory_point(traj, k + s, sysm)
            for j, phi in enumerate(vtol.candidate.phi):
                y[Var("y", j + 1, s)] = evaluate(phi, at)
        measured = dict(y)
        measured.update(zip([*sysm.state_vars, *sysm.input_vars], [*x, *u]))
        w = np.array([measured[imp.sources[v]] for v in imp.variables])
        fx, fu, _ = ref_recover(y, w + 1e-3 * np.cos(np.arange(w.size))
                                * (1.0 + np.abs(w)))
        out = verify_parameterization(sysm, vtol.candidate, param, traj,
                                      range(k, k + 1))
        assert out.passed and out.checked == 1
        assert out.max_residual_x == max(abs(a - b) for a, b in zip(fx, x))
        assert out.max_residual_u == max(abs(a - b) for a, b in zip(fu, u))


@pytest.mark.parametrize("name", ["robot", "academic"])
def test_newton_recovers_the_windows_through_a_two_by_two_block(name, reports,
                                                                monkeypatch):
    """The robot and academic tower Jacobians each have one 2 x 2 diagonal
    block in block triangular form, which the step solve hands to
    `numpy.linalg.solve`; `Tower.recover` from the perturbed seed returns
    each window's x and u to within 1e-9."""
    tower = reports[name].tower
    blocks = []
    real = numeric._solve_block

    def recorded(A, b):
        blocks.append(len(b))
        return real(A, b)

    monkeypatch.setattr(numeric, "_solve_block", recorded)
    monkeypatch.delitem(tower.__dict__, "step_solver", raising=False)
    for win in tower.windows:
        w = win.w
        xs, us, _ = tower.recover(win.y, w + tower.seed_offset * (1.0 + np.abs(w)))
        assert max(abs(a - b) for a, b in zip(xs, win.x)) <= 1e-9, win.k
        assert max(abs(a - b) for a, b in zip(us, win.u)) <= 1e-9, win.k
    assert blocks and set(blocks) == {2}


def test_newton_recovers_every_vtol_window_without_a_block_solve(reports,
                                                                  monkeypatch):
    """Every unknown of the vtol tower's Newton step is peeled off as a
    1 x 1 step, so the windows recover with `_solve_block` out of reach."""
    tower = reports["vtol"].tower

    def unreachable(A, b):
        raise AssertionError("vtol's step solve reached _solve_block")

    monkeypatch.setattr(numeric, "_solve_block", unreachable)
    monkeypatch.delitem(tower.__dict__, "step_solver", raising=False)
    assert tower.windows
    for win in tower.windows:
        w = win.w
        xs, us, _ = tower.recover(win.y, w + tower.seed_offset * (1.0 + np.abs(w)))
        assert max(abs(a - b) for a, b in zip(xs, win.x)) <= 1e-9, win.k
        assert max(abs(a - b) for a, b in zip(us, win.u)) <= 1e-9, win.k


@pytest.mark.parametrize("text, towers", [(systems.source("robot"), 1),
                                          (VTOL_RELABELED_SWAPPED, 2)])
def test_each_candidate_tower_compiles_the_outputs_once(text, towers, monkeypatch):
    """A candidate tower compiles the outputs once for all its verification
    windows: robot tries five permutations and builds one tower, the
    relabeled swapped vtol builds two (it passes over the first)."""
    compiled, built = [], []
    real, real_init = compile_exprs, analysis.Tower.__init__

    def counting(exprs, leaves):
        compiled.append(list(exprs))
        return real(exprs, leaves)

    def init(self, *args, **kwargs):
        built.append(self)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(analysis, "compile_exprs", counting)
    monkeypatch.setattr(analysis.Tower, "__init__", init)
    sf = loads_system(text)
    analyze(sf.model, sf.candidate, sf.options)
    assert len(built) == towers
    assert sum(exprs == list(sf.candidate.phi) for exprs in compiled) == towers


def _exact_seed_windows(text):
    """(k, tower Jacobian rank, max tower-row residual, max input error) at
    the unperturbed trajectory seed, for each k of the verification window
    of the system `text`, analyzed without verification."""
    sf = loads_system(text)
    sf.options.skip_verification = True
    rep = analyze(sf.model, sf.candidate, sf.options)
    tower, idx = rep.tower, rep.indices
    traj = verification_trajectory(rep.model, idx, VERIFY_STEPS,
                                   random.Random(SEED + 1),
                                   sf.options.input_boxes)
    rows = compile_exprs(tower.row_exprs(), tower.leaves)
    params = list(rep.model.param_bindings().values())
    out = []
    for win in tower.windows_along(traj, range(VERIFY_STEPS)):
        values = list(win.w) + params
        residual = np.array(rows(values)) - [win.pt[t] for t in tower.targets]
        _, us = tower.states_inputs(win.w)
        out.append((win.k, numeric_rank(tower.jacobian_kernel(values)),
                    np.abs(residual).max(),
                    max(abs(a - b) for a, b in zip(us, win.u))))
    return out


@pytest.mark.parametrize("name, full", [("vtol", 10), ("academic", 9),
                                        ("robot", 7)])
def test_exact_seed_reproduces_the_targets(name, full):
    """Each tower variable's source (`Tower.sources`) read off a trajectory
    is the exact tower point: the rows reproduce the measured outputs and
    the input recovery the inputs, at every k of the window, for a forward
    (vtol), a backward (academic) and a combined (robot) tower."""
    windows = _exact_seed_windows(systems.source(name))
    assert [k for k, *_ in windows] == list(range(12))
    for k, rank, row_err, u_err in windows:
        assert rank == full, k
        assert row_err <= 1e-12 and u_err <= 1e-9, k


def test_relabeled_swapped_vtol_starts_on_the_singular_locus():
    """On vtol with relabeled states and swapped outputs the first tower,
    sigma_y = (0, 1), is admissible but singular where the verification
    trajectory starts: at k = 0 the attitude x3 is pi/2, where its input
    transform divides by cos(x3), so its Jacobian at the exact tower point
    is rank deficient there and full at every later window. The search
    passes over it for sigma_y = (1, 0), whose exact seed solves the rows
    at every window. Verifying the first tower fails at k = 0, and the error
    names that window."""
    sf = loads_system(VTOL_RELABELED_SWAPPED)
    sysm, cand = sf.model, sf.candidate
    first = _try_tower(sysm, cand, relative_degrees(sysm, cand), None,
                       (0, 1), "forward", sf.options.input_boxes, [])
    ranks = first.rank_probe.per_point
    assert ranks[0] <= 2 and ranks[1:] == [10] * (VERIFY_STEPS - 1)
    assert _rank_drop(first) == (f"tower rank {ranks[0]} < required 10 at "
                                 "verification window k = 0")
    with pytest.raises(EvalError, match=r"^at window k = 0: Newton "):
        invert_tower(cand, first).check(first.windows)
    windows = _exact_seed_windows(VTOL_RELABELED_SWAPPED)
    assert [k for k, *_ in windows] == list(range(VERIFY_STEPS))
    for k, rank, row_err, u_err in windows:
        assert rank == 10 and row_err <= 1e-12 and u_err <= 1e-9, k


def test_tower_rank_diagnostic_names_the_deficient_rank():
    """A tower passed over because its rank drops at a verification window
    reports that window and the rank there."""
    text = systems.source("vtol").replace("y1 = x1\ny2 = x2",
                                          "y1 = x2\ny2 = x1")
    sf = loads_system(text)
    rep = analyze(sf.model, sf.candidate, sf.options)
    assert rep.indices.sigma_y == (1, 0)
    assert rep.parameterization.diagnostics[0] == (
        "forward sigma_y=(0, 1): tower rank 2 < required 10 at verification "
        "window k = 0")


@pytest.mark.parametrize("per_window, drop", [
    ([10, 10, 10], None),
    ([2, 10, 10], "tower rank 2 < required 10 at verification window k = 0"),
    ([10, 10, 9], "tower rank 9 < required 10 at verification window k = 2"),
    ([10, 0, 8], "tower rank 0 < required 10 at verification window k = 1"),
])
def test_rank_drop(per_window, drop):
    """The first window whose rank is not full, a window that cannot be
    evaluated (rank 0) included."""
    windows = [SimpleNamespace(k=k) for k in range(len(per_window))]
    rp = RankProbe(at_point=None, generic=10, per_point=per_window,
                   required=10)
    assert _rank_drop(SimpleNamespace(windows=windows, rank_probe=rp)) == drop


def test_without_a_regular_tower_the_first_admissible_one_is_kept():
    """academic with u2 in micro-units: its one admissible tower has a
    window where the float rank drops (the Jacobian's condition number is
    near 1/tol_rank there). The search keeps it and reports the drop, and
    verification passes."""
    head, tail = systems.source("academic").split("[equilibrium]")
    text = (re.sub(r"\bu2\b", "(1000000*u2)", head) + "[equilibrium]"
            + tail.replace("u2 = -1 .. 1", "u2 = -1/1000000 .. 1/1000000"))
    sf = loads_system(text)
    rep = analyze(sf.model, sf.candidate, sf.options)
    assert rep.classification.kind == "backward_flat"
    assert rep.residuals["pass"]
    drops = [d for d in rep.parameterization.diagnostics
             if "at verification window" in d]
    assert drops and drops[0].startswith(
        f"{rep.tower.context.mode} sigma_y={rep.indices.sigma_y}: ")


@pytest.fixture(scope="module")
def symbolic(reports, corpus):
    """(report, options) of the analyses with a symbolic F: robot, academic
    and a double integrator chain."""
    sysm = SystemModel(
        f=(var("x", 2), var("u", 1), var("u", 2)),
        state_vars=(var("x", 1), var("x", 2), var("x", 3)),
        input_vars=(var("u", 1), var("u", 2)),
        g=(var("x", 1), var("x", 3)),
        point={var("x", 1): 0.0, var("x", 2): 0.0, var("x", 3): 0.0,
               var("u", 1): 0.0, var("u", 2): 0.0})
    cand = FlatCandidate(phi=(var("x", 1), var("x", 3)))
    return {"robot": (reports["robot"], corpus["robot"].options),
            "academic": (reports["academic"], corpus["academic"].options),
            "double_chain": (analyze(sysm, cand), AnalyzeOptions())}


@pytest.mark.parametrize("name", ["robot", "academic", "double_chain"])
def test_inverse_tower_jacobian_matches_the_symbolic_partials(symbolic, name):
    """By the implicit function theorem the inverse tower Jacobian is dF: at
    each verification window its y[-R1] and y[R2] columns match the
    evaluated partials of the symbolic F_x and F_u, with the same ranks."""
    rep, opts = symbolic[name]
    param, idx = rep.parameterization, rep.indices
    assert param.source == "tower_inverted"
    imp = param.tower
    cols_mR1 = [Var("y", j + 1, -idx.r1[j]) for j in range(2)]
    cols_R2 = [Var("y", j + 1, idx.r2[j]) for j in range(2)]
    cols = cols_mR1 + cols_R2
    at = [imp.targets.index(c) for c in cols]
    pts = [win.pt for win in imp.windows]
    assert len(pts) == VERIFY_STEPS
    for pt in pts:
        dFx, dFu, _ = imp.jacobian_blocks([pt[v] for v in imp.variables])
        for F, block in ((param.F_x, dFx), (param.F_u, dFu)):
            want = eval_matrix(jacobian(list(F), cols), pt)
            np.testing.assert_allclose(block[:, at], want, rtol=1e-7,
                                       atol=1e-7 * max(1.0, np.abs(want).max()))
        assert numeric_rank(dFu[:, at[2:]]) == numeric_rank(
            eval_matrix(jacobian(list(param.F_u), cols_R2), pt))
        assert numeric_rank(dFx[:, at[:2]]) == numeric_rank(
            eval_matrix(jacobian(list(param.F_x), cols_mR1), pt))


def test_a_probe_with_non_finite_blocks_is_skipped(reports, robot, monkeypatch):
    """classify skips a verification window whose blocks are not finite and
    reads the same ranks off the others; with every window skipped it
    fails."""
    rep = reports["robot"]
    param = rep.parameterization
    blocks = param.tower.jacobian_blocks
    poisoned = []

    def poison(w):
        dFx, dFu, M = blocks(w)
        if len(poisoned) < poison.count:
            poisoned.append(w)
            dFu = np.full_like(dFu, np.inf)
        return dFx, dFu, M

    monkeypatch.setattr(param.tower, "jacobian_blocks", poison)
    poison.count = 1
    cls = classify(param)
    assert len(poisoned) == 1
    assert cls == rep.classification
    poisoned.clear()
    poison.count = VERIFY_STEPS
    with pytest.raises(AnalysisError, match="no verification window"):
        classify(param)
    assert len(poisoned) == VERIFY_STEPS


def test_trivial_system_is_linearizing():
    sysm = SystemModel(f=(var("u", 1), var("u", 2)),
                       state_vars=(var("x", 1), var("x", 2)),
                       input_vars=(var("u", 1), var("u", 2)),
                       g=(var("x", 1), var("x", 2)),
                       point={var("x", 1): 0.0, var("x", 2): 0.0,
                              var("u", 1): 0.0, var("u", 2): 0.0})
    cand = FlatCandidate(phi=(var("x", 1), var("x", 2)))
    rep = analyze(sysm, cand)
    assert rep.classification.kind == "linearizing"
    assert rep.indices.size_R == 2 and rep.indices.d == 0
    # F_x = y, F_u = y[1]
    assert rep.parameterization.F_x == (Var("y", 1, 0), Var("y", 2, 0))
    assert rep.parameterization.F_u == (Var("y", 1, 1), Var("y", 2, 1))


def test_user_F_cross_check_disagreement_raises(academic):
    bad_F_x = tuple(P(s, 5, 2) for s in
                    ["y1[-2] + 1/1000", "y1[-2]", "y1[-2]", "y1[-2]", "y1[-2]"])
    bad_F_u = (P("y1", 5, 2), P("y2", 5, 2))
    cand = FlatCandidate(phi=academic.candidate.phi, user_F=(bad_F_x, bad_F_u))
    with pytest.raises(AnalysisError) as ei:
        analyze(academic.model, cand)
    assert "unique" in str(ei.value) or "disagrees" in str(ei.value)


@pytest.mark.parametrize("x3, why", [
    ("y1[9]", "user-supplied F_x leaf y1[9] outside the window [-1, 1]"),
    ("y1 + 10^400", "user-supplied parameterization does not evaluate at "
                    "any verification window"),
    ("x3", "user-supplied F_x contains a non-output leaf x3"),
])
def test_user_F_the_windows_cannot_evaluate_is_rejected(reports, robot, x3, why):
    """A user F is held to the inverted F's leaf windows, and must evaluate
    at some verification window: robot's own F with x3 moved outside its
    window, overflowing everywhere or read off the state itself is not
    passed as cross-checked."""
    param = reports["robot"].parameterization
    F_x, F_u = param.F_x, param.F_u
    cand = FlatCandidate(phi=robot.candidate.phi,
                         user_F=(F_x[:2] + (P(x3, 3, 2),), F_u))
    with pytest.raises(AnalysisError) as ei:
        analyze(robot.model, cand, robot.options)
    assert str(ei.value) == why


def test_a_user_F_stands_in_when_the_solver_cannot_invert_the_tower(
        reports, robot, monkeypatch):
    """Where the restricted solver cannot invert the tower, the user's F is
    adopted and verified along the trajectory as an inverted F is: robot's
    own F, with the solver made to fail."""
    rep = reports["robot"]
    F = (rep.parameterization.F_x, rep.parameterization.F_u)
    cand = FlatCandidate(phi=robot.candidate.phi, user_F=F)

    def unsolvable(*args):
        raise SolveError("forced")

    monkeypatch.setattr(analysis, "solve_equations", unsolvable)
    param = invert_tower(cand, rep.tower)
    assert param.source == "user_supplied"
    assert (param.F_x, param.F_u) == F
    assert param.diagnostics[-1] == (
        "restricted solver could not invert the tower: forced")
    assert analysis._verify(param)["pass"]


@pytest.mark.parametrize("name", ["robot", "academic"])
def test_a_correct_user_F_is_cross_checked_and_prints_back(reports, name):
    """A system's own inverted F, supplied as its [parameterization], is
    accepted: the tower is inverted, the user F agrees with it exactly, and
    printing and re-parsing the file gives back the same F trees."""
    param = reports[name].parameterization
    F = (*param.F_x, *param.F_u)
    rows = [f"{to_text(v)} = {to_text(e)}"
            for v, e in zip(reports[name].model.coordinates, F)]
    sf = loads_system(systems.source(name).replace(
        "[equilibrium]", "[parameterization]\n" + "\n".join(rows)
        + "\n\n[equilibrium]"))
    rep = analyze(sf.model, sf.candidate, sf.options)
    assert rep.parameterization.source == "tower_inverted"
    assert rep.parameterization.diagnostics[-1] == (
        "user_F cross-checked against the inverted tower (0)")
    for user_F in (sf.candidate.user_F,
                   loads_system(print_system(sf)).candidate.user_F):
        assert all(a is b for a, b in zip((*user_F[0], *user_F[1]), F, strict=True))


def test_the_r22_search_stops_at_n():
    """Every admissible tower has r22 <= n - rho1, so the search for r22
    stops at shift n: robot with y = (x3, x3) never reaches ubar2."""
    sf = loads_system(systems.source("robot").replace(
        "y2 = x1*sin(u2) - x2*cos(u2)", "y2 = x3"))
    with pytest.raises(AnalysisError) as ei:
        analyze(sf.model, sf.candidate, sf.options)
    lines = str(ei.value).splitlines()
    assert [ln for ln in lines if "ubar2" in ln] == [
        f"  - {mode} sigma_y={sigma_y}: no ubar2 dependence up to shift 3"
        for mode in ("forward", "combined") for sigma_y in ((0, 1), (1, 0))]


def test_the_search_auto_selects_a_missing_extension_map():
    """Before its backward towers the search selects an extension map where
    the model declares none, and says which: vtol without its [extension]
    section, every admissible tower enumerated."""
    text = systems.source("vtol").replace("[extension]\ng1 = x1\ng2 = x5\n", "")
    sf = loads_system(text)
    rho = relative_degrees(sf.model, sf.candidate)
    diags = []
    towers = list(analysis._admissible_towers(sf.model, sf.candidate, rho,
                                              sf.options.input_boxes, diags))
    assert "auto-selected extension map g = ('x1', 'x5')" in diags
    assert [t.context.mode for t in towers] == ["forward", "forward"]


def test_an_auto_selected_psi_is_checked_as_a_declared_one(robot, monkeypatch):
    """The search checks the inverse map psi of an auto-selected extension
    map as `invert_extension` checks a declared one: on robot without its
    [extension] section, a psi off by 1e-6 raises the 1e-9 check's error."""
    real = analysis.choose_extension

    def wrong(sysm, *args):
        choice = real(sysm, *args)
        return replace(choice, psi_x=(add(choice.psi_x[0], num(1e-6)),
                                      *choice.psi_x[1:]))

    monkeypatch.setattr(analysis, "choose_extension", wrong)
    sf = loads_system(systems.source("robot").replace(
        "[extension]\ng1 = x3\ng2 = x1\n", ""))
    assert sf.model.g is None
    with pytest.raises(ModelError, match=r"^psi verification residual .* "
                                         r"exceeds 1e-9$"):
        analyze(sf.model, sf.candidate, sf.options)


@pytest.mark.parametrize("name,mode", [("academic", "backward"),
                                       ("academic", "combined"),
                                       ("robot", "combined")])
def test_a_transformed_psi_is_the_composed_base_psi(name, mode,
                                                    models_with_psi, corpus):
    """The psi `_make_sys_bar` composes from the base psi and the transforms
    is, structurally, the psi the restricted solver finds for the
    transformed system (the tower's `sys_bar`, sigma_y = (0, 1))."""
    sysm, cand = models_with_psi[name], corpus[name].candidate
    tower = _try_tower(sysm, cand, relative_degrees(sysm, cand),
                       backward_depths(sysm, cand), (0, 1), mode,
                       corpus[name].options.input_boxes, [])
    bar = tower.context.sys_bar
    assert (bar.psi_x, bar.psi_u) == model._solve_psi(bar, bar.g)
    assert bar.psi_residual <= 1e-9


@pytest.mark.parametrize("name", ["academic", "robot"])
def test_analyze_solves_psi_once_per_model(name, monkeypatch):
    """Only the base model's psi is solved; each transformed system's psi
    is composed from it."""
    calls = []
    real = model._solve_psi

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(model, "_solve_psi", counting)
    sf = systems.load(name)
    analyze(sf.model, sf.candidate, sf.options)
    assert len(calls) == 1


def test_a_wrong_history_transform_fails_the_psi_check(monkeypatch):
    """The composed psi is still checked: a `zeta_inverse` off by 1e-6
    makes every backward tower of academic fail the 1e-9 psi check."""
    real = analysis._solve_transform

    def wrong(sysm, first, chain, *args):
        inverse, *rest = real(sysm, first, chain, *args)
        if chain is analysis._BACKWARD:
            inverse = {v: add(e, num(1e-6)) for v, e in inverse.items()}
        return (inverse, *rest)

    monkeypatch.setattr(analysis, "_solve_transform", wrong)
    sf = systems.load("academic")
    with pytest.raises(AnalysisError) as ei:
        build_tower(invert_extension(sf.model), sf.candidate, sf.options)
    assert re.search(r"backward sigma_y=\(0, 1\): psi verification residual "
                     r"\S+ exceeds 1e-9", str(ei.value))


# ---------------------------------------------------------------------------
# rejections of the chain checks (Props. 2 and 3)
#
# Four rejections can be reached; each is driven here by `_try_tower` with
# crafted indices, a transform solve off by 1e-6, or a non-flat output. The
# other four cannot be: a row below rho1 (gamma1) depending on an input (a
# history) is what the depth search excludes, a phi2 row below r22 depending
# on ubar2 is what the r22 search excludes, and a history transform off
# its lead fails the composed psi check first.

def _rejection(name, rho, gamma, sigma_y, mode):
    """The one diagnostic of a `_try_tower` call on a bundled system that
    finds no tower."""
    sf = systems.load(name)
    sysm = sf.model if mode == "forward" else invert_extension(sf.model)
    diags = []
    assert _try_tower(sysm, sf.candidate, rho, gamma, sigma_y, mode,
                      sf.options.input_boxes, diags) is None
    (why,) = diags
    return why


def test_a_chain_row_off_its_lead_is_rejected(monkeypatch):
    """vtol's forward chain with an input transform off by 1e-6: the chain
    row phi1_[rho1] is not ubar1."""
    real = analysis.solve_equations

    def wrong(*args):
        return {v: add(e, num(1e-6)) for v, e in real(*args).items()}

    monkeypatch.setattr(analysis, "solve_equations", wrong)
    why = _rejection("vtol", (2, 2), None, (0, 1), "forward")
    assert why.startswith("forward sigma_y=(0, 1): phi1_[2] != ubar1 (got ubar1 ")


@pytest.mark.parametrize("name,rho,gamma,mode,why", [
    ("vtol", (2, 1), None, "forward", "phi2_[4] does not reach ubar1[3]"),
    ("academic", (0, 0), (3, 1), "backward", "phi2_[-3] does not reach zetabar1[-3]"),
    ("robot", (1, 0), (1, 0), "combined", "phi2_[-1] does not reach zetabar1[-2]"),
])
def test_a_chain_whose_far_row_misses_its_last_lead_is_rejected(
        name, rho, gamma, mode, why):
    """rho2 (gamma2) one below the depth of phi2: the search finds the same
    rows, so the chain seems one longer, and phi2's row at its far end does
    not reach the lead one shift further on."""
    assert _rejection(name, rho, gamma, (0, 1), mode) == (
        f"{mode} sigma_y=(0, 1): {why}")


def test_a_phi2_row_on_the_second_history_is_rejected():
    """robot with the outputs (x2, x3), which are not flat: the combined
    tower sigma_y = (1, 0) has phi2_[-1] on zetabar2."""
    text = systems.source("robot").replace(
        "y1 = x3\ny2 = x1*sin(u2) - x2*cos(u2)", "y1 = x2\ny2 = x3")
    sf = loads_system(text)
    with pytest.raises(AnalysisError) as ei:
        analyze(sf.model, sf.candidate, sf.options)
    assert "\n  - combined sigma_y=(1, 0): phi2_[-1] depends on zetabar2" in str(ei.value)


# ---------------------------------------------------------------------------
# classification

def test_classifications(reports):
    assert reports["vtol"].classification.kind == "forward_flat"
    assert reports["academic"].classification.kind == "backward_flat"
    assert reports["robot"].classification.kind == "general"


def test_forward_flat_rank_assertion(reports):
    cls = reports["vtol"].classification
    assert cls.rank_Fx_at_minusR1 == 2


def test_backward_flat_rank_assertion(reports):
    cls = reports["academic"].classification
    assert cls.rank_Fu_at_R2 == 2


def test_general_rank_defects(reports):
    cls = reports["robot"].classification
    assert cls.rank_Fu_at_R2 <= 1 and cls.rank_Fx_at_minusR1 <= 1


def test_mutual_exclusion(reports):
    for rep in reports.values():
        idx = rep.indices
        kind = rep.classification.kind
        if kind == "forward_flat":
            assert idx.r1 == (0, 0) and idx.r2 != (0, 0)
        if kind == "backward_flat":
            assert idx.r2 == (0, 0) and idx.r1 != (0, 0)


def test_robot_records_combined_route_diagnostic(reports):
    # phi1 = x3 has no input dependence, so rank d_u phi < m: the backward
    # construction does not apply and a diagnostic routes it to the combined one
    diags = " ".join(reports["robot"].parameterization.diagnostics)
    assert "combined" in diags and "rank d_u phi" in diags


def test_rank_deficient_backward_candidate_is_rejected(academic):
    # replace y2 by x3: rank d_u phi = 1, and the candidate is not flat
    bad = FlatCandidate(phi=(academic.candidate.phi[0],
                             P("x3", 5, 2)))
    with pytest.raises(AnalysisError) as ei:
        analyze(academic.model, bad)
    assert "rank d_u phi" in str(ei.value)


def test_brute_force_window_search_on_one_state_analogue():
    """One-state analogue x+ = u, g = x with the candidate y = x + u,
    checked by a brute-force window search (no tower machinery, m = 1):
    no finite backward window of y-shifts determines (x, u), because each
    backward shift trades the unknown for one more history value."""
    import numpy as np
    from difflat.numeric import numeric_rank as nrank
    sysm = SystemModel(f=(var("u", 1),),
                       state_vars=(var("x", 1),), input_vars=(var("u", 1),),
                       g=(var("x", 1),),
                       point={var("x", 1): 0.0, var("u", 1): 0.0})
    sysm = invert_extension(sysm)
    y = var("x", 1) + var("u", 1)
    rng = random.Random(9)
    for r1 in range(1, 7):
        rows = [sysm.shift(y, -s) for s in range(r1, -1, -1)]
        jet = sorted({v for e in rows for v in vars_of(e)}
                     | {var("x", 1), var("u", 1)}, key=to_text)
        # (x, u) are determined by the window iff appending their coordinate
        # rows does not increase the Jacobian row space
        determined = True
        for _ in range(5):
            pt = {v: rng.uniform(-1, 1) for v in jet}
            J = [[1.0 if w == v else 0.0 for w in jet] for v in
                 (var("x", 1), var("u", 1))]
            Jy = [[evaluate(differentiate(e, w), pt) for w in jet] for e in rows]
            if nrank(np.array(Jy + J)) != nrank(np.array(Jy)):
                determined = False
        assert not determined, f"window r1 = {r1} should not determine (x, u)"


def test_proposition5_rank_coincidence(reports):
    # systems with R1 > 0: the ranks of d_{y[-R1]} g(F) and d_{y[-R1]} F_x agree
    for name in ("academic", "robot"):
        cls = reports[name].classification
        assert cls.rank_g_of_F == cls.rank_Fx_at_minusR1


def test_eq7_zero_block_structural(reports):
    # F_x contains no y_[R2] leaves
    for name in ("academic", "robot"):
        rep = reports[name]
        idx = rep.indices
        for e in rep.parameterization.F_x:
            for v in vars_of(e):
                assert v.shift < idx.r2[v.component - 1] or idx.r2[v.component - 1] == 0
                assert v.shift <= idx.r2[v.component - 1] - 1


# ---------------------------------------------------------------------------
# input normalization (Lemma 1)

def test_normalize_inputs_academic_identity(academic, reports):
    norm = normalize_inputs(academic.model, reports["academic"].parameterization)
    assert norm.rows == (4, 5)
    # v = (u1, u2): the transform is the identity
    assert norm.u_from_v[var("u", 1)] == Var("ubar", 1, 0)
    assert norm.u_from_v[var("u", 2)] == Var("ubar", 2, 0)
    assert lowest_F_v_shifts(norm) == {1: -3, 2: -2}    # R1 = (4, 3)


def test_normalize_inputs_robot(robot, reports):
    norm = normalize_inputs(robot.model, reports["robot"].parameterization)
    assert norm.rows == (1, 3)
    # v1 = x1 + u1 cos u2, v3 = x3 + u2: solved u is consistent numerically
    rng = random.Random(2)
    for _ in range(10):
        x = [rng.uniform(-1, 1) for _ in range(3)]
        u = [rng.uniform(0.5, 1.5), rng.uniform(-1, 1)]
        pt = {var("x", i + 1): x[i] for i in range(3)}
        pt.update({var("u", 1): u[0], var("u", 2): u[1]})
        v_vals = [evaluate(e, pt) for e in norm.v_transform]
        back = {var("x", i + 1): x[i] for i in range(3)}
        back[Var("ubar", 1, 0)] = v_vals[0]
        back[Var("ubar", 2, 0)] = v_vals[1]
        assert abs(evaluate(norm.u_from_v[var("u", 1)], back) - u[0]) < 1e-9
        assert abs(evaluate(norm.u_from_v[var("u", 2)], back) - u[1]) < 1e-9
    assert lowest_F_v_shifts(norm) == {1: 0, 2: 0}      # R1 = (1, 1)


def test_normalize_inputs_vtol(vtol):
    norm = normalize_inputs(vtol.model)
    assert norm.rows == (3, 6)


def test_normalized_system_dynamics_rows(academic):
    norm = normalize_inputs(academic.model)
    # x4+ = v1, x5+ = v2 in the transformed system
    assert norm.system.f[3] == Var("ubar", 1, 0)
    assert norm.system.f[4] == Var("ubar", 2, 0)
