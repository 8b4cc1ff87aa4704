"""Cases beyond the bundled systems: component permutations, user-supplied
inverse maps, and fresh systems the pipeline has never seen."""

import pytest

from difflat.analysis import AnalysisError, FlatCandidate, analyze, build_tower
from difflat.expr import Var, var
from difflat.model import ModelError, SystemModel, invert_extension, validate
from difflat.parsing import DimTable, parse_expression
from difflat.sysfile import loads_system, print_system


def P(s, n, m, params=()):
    return parse_expression(s, DimTable(n, m, frozenset(params)))


def test_swapped_robot_outputs_use_the_second_ordering(robot):
    """With the output components swapped, the chain-defining component is
    the second one; the permutation search must find ordering (2,1) and
    report element-wise indices in the swapped numbering. The tower rows
    are still in (component, shift) order, which every reader of them
    follows."""
    sysm = robot.model
    cand = FlatCandidate(phi=(robot.candidate.phi[1], robot.candidate.phi[0]))
    rep = analyze(sysm, cand)
    assert rep.indices.sigma_y == (1, 0)
    assert list(rep.tower.rows) == sorted(rep.tower.rows)
    assert rep.classification.kind == "general"
    assert rep.indices.rho == (0, 1)
    assert rep.indices.gamma == (1, 1)
    assert rep.indices.r1 == (1, 1)
    assert rep.indices.r2 == (1, 2)
    assert rep.indices.d1 == 1 and rep.indices.d2 == 1


def test_double_chain_system_is_linearizing():
    # two integrator chains of lengths 2 and 1: a static-feedback
    # linearizable system the pipeline has not seen before
    sysm = SystemModel(
        f=(var("x", 2), var("u", 1), var("u", 2)),
        state_vars=(var("x", 1), var("x", 2), var("x", 3)),
        input_vars=(var("u", 1), var("u", 2)),
        g=(var("x", 1), var("x", 3)),
        point={var("x", 1): 0.0, var("x", 2): 0.0, var("x", 3): 0.0,
               var("u", 1): 0.0, var("u", 2): 0.0})
    cand = FlatCandidate(phi=(var("x", 1), var("x", 3)))
    rep = analyze(sysm, cand)
    assert rep.classification.kind == "linearizing"
    assert rep.indices.rho == (2, 1)
    assert rep.indices.r2 == (2, 1) and rep.indices.r1 == (0, 0)
    assert rep.indices.d == 0
    assert rep.parameterization.F_x == (
        Var("y", 1, 0), Var("y", 1, 1), Var("y", 2, 0))
    assert rep.parameterization.F_u == (Var("y", 1, 2), Var("y", 2, 1))


def test_nonflat_candidate_fails_with_diagnostics(robot):
    # x2 alone cannot generate the robot's trajectories
    cand = FlatCandidate(phi=(var("x", 2), var("x", 3)))
    with pytest.raises(AnalysisError) as ei:
        analyze(robot.model, cand)
    assert "tower" in str(ei.value) or "permutation" in str(ei.value)


def test_candidate_with_history_leaves_is_rejected(robot):
    cand = FlatCandidate(phi=(P("x3 + zeta1[-1]", 3, 2), var("x", 1)))
    with pytest.raises(AnalysisError) as ei:
        build_tower(robot.model, cand)
    assert "(x,u)-flat" in str(ei.value)


def test_user_supplied_inverse_map_round_trip(academic):
    """Emitting the solved psi into the [inverse] section and re-parsing
    yields the same analysis (user-supplied psi path)."""
    from dataclasses import replace
    from difflat.sysfile import SystemFile
    from difflat.analysis import AnalyzeOptions
    model = invert_extension(academic.model)
    sf = SystemFile(model=model, candidate=academic.candidate,
                    options=academic.options)
    text = print_system(sf)
    assert "[inverse]" in text
    re_sf = loads_system(text)
    assert re_sf.model.psi_x == model.psi_x
    rep = analyze(re_sf.model, re_sf.candidate, re_sf.options)
    assert rep.classification.kind == "backward_flat"
    assert rep.indices.r1 == (4, 3)


def test_analysis_and_extension_with_auto_selected_g():
    """A file without an [extension] section: the pipeline must auto-select
    g, carry the psi-bearing model through, and still build the extension."""
    from difflat.extension import build_combined, certify_linearizing
    from difflat import systems
    text = systems.source("academic")
    stripped = "\n".join(
        line for line in text.splitlines()
        if line.strip() not in ("[extension]", "g1 = x1", "g2 = x5"))
    sf = loads_system(stripped)
    assert sf.model.g is None
    rep = analyze(sf.model, sf.candidate, sf.options)
    assert rep.classification.kind == "backward_flat"
    assert rep.indices.r1 == (4, 3) and rep.indices.d == 2
    assert rep.model.g is not None and rep.model.psi_x is not None
    ext = build_combined(rep.model, sf.candidate, rep.tower)
    cert = certify_linearizing(ext)
    assert ext.model.n == 7 and cert.passed


def test_wrong_user_inverse_is_rejected(academic):
    model = invert_extension(academic.model)
    bad_psi_x = (model.psi_x[0] + P("1/1000", 5, 2),) + model.psi_x[1:]
    bad = model.with_psi(bad_psi_x, model.psi_u)
    with pytest.raises(ModelError) as ei:
        invert_extension(bad)
    assert "residual" in str(ei.value)
    rep = validate(bad)
    assert rep.psi_residual > 1e-9 and not rep.passed
