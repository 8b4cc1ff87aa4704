import ast
import gc
import itertools
import random
import weakref
import zlib

import numpy as np
import pytest

from conftest import random_corpus_expressions
from difflat import expr, model, systems
from difflat.analysis import normalize_inputs
from difflat.expr import (
    Par, PoleError, Var, add, differentiate, evaluate, jacobian, mul, to_text,
    var, vars_of,
)
from difflat.model import (
    ModelError, SystemModel, choose_extension, invert_extension, validate,
)
from difflat.numeric import eval_matrix, numeric_rank
from difflat.parsing import DimTable, parse_expression


def P(s, n=6, m=2, params=("T_s", "eps", "g_grav")):
    return parse_expression(s, DimTable(n, m, frozenset(params)))


# ---------------------------------------------------------------------------
# validation

def test_validate_vtol(vtol):
    rep = validate(invert_extension(vtol.model))
    assert rep.input_rank == 2
    assert rep.submersivity_rank == 6
    assert rep.extension_rank == 8
    assert rep.psi_residual <= 1e-9
    # the declared chart center is not a dynamical fixed point
    assert not rep.is_fixed_point
    assert abs(rep.equilibrium_residual - 0.981) < 1e-12
    assert rep.passed


def brute_force_rank(M, tol=1e-10):
    """Row-reduction rank oracle, independent of the SVD implementation."""
    A = [list(map(float, row)) for row in M]
    rows, cols = len(A), len(A[0]) if A else 0
    rank = 0
    r = 0
    for c in range(cols):
        pivot = max(range(r, rows), key=lambda i: abs(A[i][c]), default=None)
        if pivot is None or abs(A[pivot][c]) <= tol:
            continue
        A[r], A[pivot] = A[pivot], A[r]
        for i in range(rows):
            if i != r and A[i][c] != 0.0:
                fac = A[i][c] / A[r][c]
                A[i] = [a - fac * b for a, b in zip(A[i], A[r])]
        r += 1
        rank += 1
        if r == rows:
            break
    return rank


def test_validate_academic(academic):
    rep = validate(academic.model)
    assert rep.input_rank == 2 and rep.submersivity_rank == 5
    assert rep.extension_rank == 7
    assert rep.is_fixed_point and rep.equilibrium_residual == 0.0
    assert rep.passed


def test_academic_ranks_against_row_reduction_oracle(academic):
    # the Jacobians are constant after evaluation at the origin; cross-check
    # the SVD ranks with plain row reduction
    from difflat.expr import differentiate
    sysm = academic.model
    pt = sysm.analysis_point()
    cols = list(sysm.state_vars) + list(sysm.input_vars)
    J_u = eval_matrix([[differentiate(fi, v) for v in sysm.input_vars]
                       for fi in sysm.f], pt)
    J_xu = eval_matrix([[differentiate(fi, v) for v in cols]
                        for fi in sysm.f], pt)
    assert brute_force_rank(J_u) == numeric_rank(J_u) == 2
    assert brute_force_rank(J_xu) == numeric_rank(J_xu) == 5


def test_validate_robot(robot):
    rep = validate(robot.model)
    assert rep.input_rank == 2 and rep.submersivity_rank == 3
    assert rep.extension_rank == 5
    assert rep.is_fixed_point
    assert rep.passed


def test_validate_duplicated_input_column_fails():
    sysm = SystemModel(
        f=(var("u", 1), var("u", 1)),
        state_vars=(var("x", 1), var("x", 2)),
        input_vars=(var("u", 1), var("u", 2)),
        point={var("x", 1): 0.0, var("x", 2): 0.0,
               var("u", 1): 0.0, var("u", 2): 0.0})
    rep = validate(sysm)
    assert rep.input_rank == 1 and not rep.passed


def test_validate_rejects_stray_leaves():
    sysm = SystemModel(
        f=(add(var("x", 1), var("x", 2)),),
        state_vars=(var("x", 1),), input_vars=(var("u", 1),),
        point={var("x", 1): 0.0, var("u", 1): 0.0})
    with pytest.raises(ModelError):
        validate(sysm)


def test_rank_stability_under_small_perturbations(corpus):
    rng = random.Random(4)
    for sf in corpus.values():
        sysm = sf.model
        cols = list(sysm.state_vars) + list(sysm.input_vars)
        from difflat.expr import differentiate
        J_u = [[differentiate(fi, v) for v in sysm.input_vars] for fi in sysm.f]
        J_xu = [[differentiate(fi, v) for v in cols] for fi in sysm.f]
        stacked = [[differentiate(e, v) for v in cols]
                   for e in list(sysm.f) + list(sysm.g)]
        base = sysm.analysis_point()
        ranks = set()
        for _ in range(10):
            pt = dict(base)
            for v in cols:
                pt[v] += rng.uniform(-1e-3, 1e-3)
            ranks.add((numeric_rank(eval_matrix(J_u, pt)),
                       numeric_rank(eval_matrix(J_xu, pt)),
                       numeric_rank(eval_matrix(stacked, pt))))
        assert ranks == {(sysm.m, sysm.n, sysm.n + sysm.m)}


# ---------------------------------------------------------------------------
# the point Jacobian: every rank at the analysis point reads one evaluation
# of d(f, g)/d(x, u); each is checked against the rank of the matrix built
# from its own tree-walked Jacobian, as each was before

BUNDLED_MODELS = [(name, with_g) for name in ("robot", "academic", "vtol")
                  for with_g in (True, False)]


def _bundled(corpus, name, with_g):
    sysm = corpus[name].model
    return sysm if with_g else sysm.with_g(None)


def _rank_at_point(sysm, rows, cols):
    return numeric_rank(eval_matrix(jacobian(rows, cols), sysm.analysis_point()))


@pytest.mark.parametrize("name, with_g", BUNDLED_MODELS)
def test_validate_reads_its_ranks_off_the_point_jacobian(corpus, name, with_g):
    sysm = _bundled(corpus, name, with_g)
    xu = [*sysm.state_vars, *sysm.input_vars]
    rep = validate(sysm)
    assert rep.input_rank == _rank_at_point(sysm, sysm.f, sysm.input_vars)
    assert rep.submersivity_rank == _rank_at_point(sysm, sysm.f, xu)
    assert rep.extension_rank == (
        None if sysm.g is None else _rank_at_point(sysm, [*sysm.f, *sysm.g], xu))


@pytest.mark.parametrize("name, with_g", BUNDLED_MODELS)
def test_normalize_inputs_scans_the_point_jacobian(corpus, name, with_g):
    """The greedy scan, replayed on d_u f of the chosen rows alone."""
    sysm = _bundled(corpus, name, with_g)

    def rank_of(rows):
        return _rank_at_point(sysm, [sysm.f[i] for i in rows], sysm.input_vars)

    chosen = []    # a row that is literally an input is claimed first
    for i, fi in enumerate(sysm.f):
        if (fi in sysm.input_vars and fi not in [sysm.f[c] for c in chosen]
                and len(chosen) < sysm.m):
            chosen.append(i)
    for i in range(sysm.n):
        if len(chosen) < sysm.m and i not in chosen and (
                rank_of(chosen + [i]) > rank_of(chosen)):
            chosen.append(i)
    assert normalize_inputs(sysm).rows == tuple(i + 1 for i in sorted(chosen))


@pytest.mark.parametrize("name, with_g", BUNDLED_MODELS)
def test_choose_extension_ranks_the_stacked_point_jacobian(corpus, name, with_g,
                                                            monkeypatch):
    """Each candidate g is ranked on the f rows with a unit row per
    coordinate of g: the matrix `np.vstack` of d_xu f and rows of `np.eye`."""
    sysm = _bundled(corpus, name, with_g)
    ranked = []

    def recording(M):
        ranked.append((np.array(M, dtype=float), numeric_rank(M)))
        return ranked[-1][1]

    monkeypatch.setattr(model, "numeric_rank", recording)
    choice = choose_extension(sysm)
    pool = [*sysm.state_vars, *sysm.input_vars]
    base = eval_matrix(jacobian(sysm.f, pool), sysm.analysis_point())
    candidates = list(itertools.combinations(pool, sysm.m))
    assert ranked and candidates[len(ranked) - 1] == choice.g
    for (M, rank), g in zip(ranked, candidates):
        want = np.vstack([base, np.eye(len(pool))[[pool.index(v) for v in g]]])
        assert np.array_equal(M, want) and rank == numeric_rank(want), g


def test_a_pole_of_the_point_jacobian_reads_rank_0_and_stops_choose_extension():
    x1, x2, u1, u2 = var("x", 1), var("x", 2), var("u", 1), var("u", 2)
    sysm = SystemModel(f=(P("1/x1 + u1", 2), P("x2 + u2", 2)),
                       state_vars=(x1, x2), input_vars=(u1, u2),
                       point={x1: 0.0, x2: 0.0, u1: 0.0, u2: 0.0})
    assert sysm.point_rank(range(2), range(2, 4)) == 0
    with pytest.raises(PoleError):
        choose_extension(sysm)


def test_the_model_module_holds_no_numpy():
    with open(model.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    modules = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
               for alias in node.names]
    modules += [node.module or "" for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)]
    assert not [name for name in modules if name.split(".")[0] == "numpy"]
    assert "np" not in vars(model) and "numpy" not in vars(model)


# ---------------------------------------------------------------------------
# extension map choice and inversion

def test_academic_paper_extension_choice_passes(academic):
    # rank check for the declared g = (x1, x5)
    rep = validate(academic.model)
    assert rep.extension_rank == 7


def test_auto_selection_academic(academic):
    bare = academic.model.with_g(None)
    bare = SystemModel(f=bare.f, state_vars=bare.state_vars,
                       input_vars=bare.input_vars, g=None, params=bare.params,
                       point=bare.point)
    ch = choose_extension(bare)
    assert ch.selected_coordinates == ("x1", "x5")


def test_auto_selection_robot(robot):
    bare = SystemModel(f=robot.model.f,
                       state_vars=robot.model.state_vars,
                       input_vars=robot.model.input_vars, g=None,
                       params=robot.model.params, point=robot.model.point)
    ch = choose_extension(bare)
    # a valid pair; the paper uses the set {x3, x1}
    assert set(ch.selected_coordinates) <= {"x1", "x2", "x3"}
    sysm = bare.with_g(ch.g).with_psi(ch.psi_x, ch.psi_u)
    assert validate(sysm).extension_rank == 5


def test_auto_selection_vtol_backtracks_to_solvable_psi(vtol):
    bare = SystemModel(f=vtol.model.f,
                       state_vars=vtol.model.state_vars,
                       input_vars=vtol.model.input_vars, g=None,
                       params=vtol.model.params, point=vtol.model.point)
    ch = choose_extension(bare)
    # the pure rank-greedy pair (x1, x2) has no rational inverse; the DFS
    # must land on one the restricted solver can invert
    assert ch.selected_coordinates == ("x1", "x5")


def test_fully_normalized_system_auto_selects_states():
    sysm = SystemModel(
        f=(var("u", 1), var("u", 2)),
        state_vars=(var("x", 1), var("x", 2)),
        input_vars=(var("u", 1), var("u", 2)),
        point={var("x", 1): 0.0, var("x", 2): 0.0,
               var("u", 1): 0.0, var("u", 2): 0.0})
    ch = choose_extension(sysm)
    assert ch.selected_coordinates == ("x1", "x2")
    # psi is the swap
    assert ch.psi_x == (Var("zeta", 1, -1), Var("zeta", 2, -1))
    assert ch.psi_u == (var("x", 1), var("x", 2))


def test_invert_extension_academic_matches_spec_display(academic):
    sysm = invert_extension(academic.model)
    expect_x = [P(s, 5, 2, ()) for s in
                ["zeta1[-1]", "x2 - x5", "x3 - (x1 - zeta1[-1])*x5",
                 "x1 - zeta1[-1]", "zeta2[-1]"]]
    expect_u = [P(s, 5, 2, ()) for s in ["x4", "x5"]]
    assert list(sysm.psi_x) == expect_x
    assert list(sysm.psi_u) == expect_u


def test_invert_extension_verifies_two_sided(models_with_psi):
    for sysm in models_with_psi.values():
        rep = validate(sysm)
        assert rep.psi_residual is not None and rep.psi_residual <= 1e-9


def test_psi_residual_is_computed_once_per_model(academic, monkeypatch):
    """invert_extension checks the psi residual and validate reports the
    same value without sampling its probes again."""
    import difflat.model as model
    seeds = []
    real = model.probe_points

    def counting(center, seed, *args, **kwargs):
        seeds.append(seed)
        return real(center, seed, *args, **kwargs)

    monkeypatch.setattr(model, "probe_points", counting)
    sysm = invert_extension(academic.model)
    rep = validate(sysm)
    assert seeds.count(11) == 1    # the psi-residual probe stream
    assert rep.psi_residual == sysm.psi_residual <= 1e-9


def test_one_model_compiles_f_and_g_once(academic, monkeypatch):
    """invert_extension's psi check, validate's fixed-point residual and two
    simulations all evaluate the one compiled (f, g) of the model."""
    import difflat.model as model
    from difflat.numeric import simulate
    compiled = []
    real = model.compile_exprs

    def counting(exprs, leaves):
        compiled.append(list(exprs))
        return real(exprs, leaves)

    monkeypatch.setattr(model, "compile_exprs", counting)
    sysm = invert_extension(academic.model)    # its psi check compiles fg
    kernel, calls = sysm.fg, []
    sysm.fg = lambda values: calls.append(values) or kernel(values)
    rep = validate(sysm)
    x0 = [sysm.point[v] for v in sysm.state_vars]
    for _ in range(2):
        traj = simulate(sysm, x0, [[0.1, -0.2]] * 4, 1, 3)
    assert compiled.count([*sysm.f, *sysm.g]) == 1
    assert len(calls) == 1 + 2 * 4    # the fixed point, then each step
    assert rep.passed and rep.is_fixed_point
    at = dict(sysm.param_bindings())
    at.update(zip([*sysm.state_vars, *sysm.input_vars], [*traj.x[2], 0.1, -0.2]))
    assert traj.x[3] == [evaluate(e, at) for e in sysm.f]
    assert traj.zeta[2] == [evaluate(e, at) for e in sysm.g]


# ---------------------------------------------------------------------------
# shift operators

def test_forward_shift_vtol_first_row(vtol):
    sysm = vtol.model
    assert sysm.shift(var("x", 1), 1) == P("x1 + T_s*x3")


def test_robot_double_shift_of_y1(models_with_psi):
    sysm = models_with_psi["robot"]
    # delta(x3) = x3 + u2; delta^2(x3) = x3 + u2 + u2[1]
    assert sysm.shift(var("x", 3), 1) == P("x3 + u2", 3, 2, ())
    assert sysm.shift(var("x", 3), 2) == P("x3 + u2 + u2[1]", 3, 2, ())


def test_backward_shifts_academic_y1(models_with_psi, academic):
    sysm = models_with_psi["academic"]
    y1 = academic.candidate.phi[0]
    assert sysm.shift(y1, -1) == P("x1 + x4", 5, 2, ())
    assert sysm.shift(y1, -3) == P("zeta1[-1]", 5, 2, ())


def test_robot_backward_shift_of_y2_matches_paper(models_with_psi, robot):
    sysm = models_with_psi["robot"]
    y2 = robot.candidate.phi[1]
    # with g = (x3, x1): zeta1 is the x3-history
    expect = P("x1*sin(x3 - zeta1[-1]) - x2*cos(x3 - zeta1[-1])", 3, 2, ())
    assert sysm.shift(y2, -1) == expect


def test_shift_inverse_pair_on_random_corpus_expressions(corpus, models_with_psi):
    for name, sf in corpus.items():
        sysm = models_with_psi[name]
        for e in random_corpus_expressions(sf, 17, seed=zlib.crc32(name.encode())):
            fwd_back = sysm.shift(sysm.shift(e, 1), -1)
            back_fwd = sysm.shift(sysm.shift(e, -1), 1)
            for out in (fwd_back, back_fwd):
                if out == e:
                    continue
                # numeric fallback at 20 random points
                rng = random.Random(1)
                leaves = vars_of(out) | vars_of(e)
                for _ in range(20):
                    pt = sysm.jet_center(leaves)
                    for v in list(pt):
                        if not isinstance(v, Par):
                            pt[v] += rng.uniform(-0.3, 0.3)
                    a, b = evaluate(out, pt), evaluate(e, pt)
                    assert abs(a - b) <= 1e-10 * (1 + abs(b)), (name, to_text(e))


def test_shift_is_a_ring_morphism(corpus, models_with_psi):
    for name, sf in corpus.items():
        sysm = models_with_psi[name]
        es = random_corpus_expressions(sf, 6, seed=99)
        for a, b in zip(es[::2], es[1::2]):
            assert sysm.shift(add(a, b), 1) == \
                add(sysm.shift(a, 1), sysm.shift(b, 1))
            assert sysm.shift(mul(a, b), 1) == \
                mul(sysm.shift(a, 1), sysm.shift(b, 1))


def test_backward_shift_without_psi_raises(vtol):
    with pytest.raises(ModelError):
        vtol.model.shift(var("x", 1), -1)


def test_repeated_analyses_on_one_model_keep_its_shift_memo_bounded():
    """A long-lived model analyzing ever new candidates keeps no shift image
    of its own: shifts are memoized in `expr`'s shared table, which fills
    up to its bound and no further. Once the analyses are dropped, the
    table emptied (it holds its entries strongly until it evicts them) and
    garbage collected, no more nodes live after the sixth candidate than
    after the first, and every analysis agrees with a fresh model's. The
    model is loaded here, not shared with other tests."""
    from difflat import analyze
    from difflat.analysis import FlatCandidate
    robot = systems.load("robot")
    sysm = analyze(robot.model, robot.candidate, robot.options).model
    sizes = []
    for c in range(1, 7):
        phi = (robot.candidate.phi[0],
               add(robot.candidate.phi[1], mul(c, var("x", 3))))
        rep = analyze(sysm, FlatCandidate(phi=phi), robot.options)
        fresh = analyze(invert_extension(robot.model), FlatCandidate(phi=phi),
                        robot.options)
        assert rep.to_json() == fresh.to_json()
        info = differentiate.cache_info()
        assert 0 < info.currsize <= info.maxsize
        grown = len(expr._NODES)
        del rep, fresh, phi
        differentiate.cache_clear()
        gc.collect()
        assert differentiate.cache_info().currsize == 0
        sizes.append(len(expr._NODES))
        assert sizes[-1] < grown
    assert max(sizes) <= sizes[0]


def test_a_shift_round_trip_keeps_no_memo_entry_alive():
    """Shifting forward and then back gives the expression again. The model
    keeps no memo of its own, so once the shared table is emptied the
    expression dies with its last outside use, and no node the shifts built
    outlives it."""
    sysm = invert_extension(systems.load("robot").model)
    differentiate.cache_clear()
    gc.collect()
    before = len(expr._NODES)
    e = P("x1*sin(x3)", 3, 2, ())
    assert sysm.shift(sysm.shift(e, 1), -1) is e
    assert sysm.shift(sysm.shift(e, -1), 1) is e
    alive = weakref.ref(e)
    del e
    differentiate.cache_clear()
    gc.collect()
    assert alive() is None
    assert len(expr._NODES) == before
