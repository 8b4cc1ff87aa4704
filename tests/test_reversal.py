"""Time reversal as an oracle for the forward and backward subclasses.

Once (f, g) is invertible with inverse psi, running a system backwards is a
system again: x~+ = psi_x(x, u~), g~ = psi_u(x, u~), where the input u~_j
is the g-value zeta_j[-1] of the original, its inverse is psi~ = (f, g),
and its output is phi~ = phi o psi, at the point (x0, g(x0, u0)). As
y~[k] = y[-k-1], a parameterization over y[-R1 .. R2-1] becomes one over
y~[-R2 .. R1-1]: the reversed system has R~ = (R2, R1), so forward-flat
and backward-flat swap, and so do d1 and d2.
"""

import pytest

from difflat import (
    AnalyzeOptions, FlatCandidate, SystemModel, analyze,
    build_combined, certify_linearizing, invert_extension, loads_system,
)
from difflat.expr import evaluate, substitute
from difflat.extension import ExtensionError
from test_snapshot import CASES

MIRROR = {"forward_flat": "backward_flat", "backward_flat": "forward_flat",
          "general": "general", "linearizing": "linearizing"}


def reversed_system(model: SystemModel, phi):
    """The reversed model and output of a model carrying psi."""
    as_input = dict(zip(model.histories, model.input_vars))
    as_history = dict(zip(model.input_vars, model.histories))
    f = tuple(substitute(e, as_input) for e in model.psi_x)
    g = tuple(substitute(e, as_input) for e in model.psi_u)
    pt = model.analysis_point()
    point = {x: pt[x] for x in model.state_vars}
    point.update(zip(model.input_vars, (evaluate(e, pt) for e in model.g)))
    rev = SystemModel(
        f=f, state_vars=model.state_vars, input_vars=model.input_vars, g=g,
        psi_x=tuple(substitute(e, as_history) for e in model.f),
        psi_u=tuple(substitute(e, as_history) for e in model.g),
        params=model.params, point=point, name=model.name + "~reversed")
    back = dict(zip(model.coordinates, f + g))
    return rev, tuple(substitute(p, back) for p in phi)


def _load_and_reverse(name):
    """A golden case, its model with psi, and the reversed model and
    candidate."""
    sf = loads_system(CASES[name], path=f"{name}.sys")
    model = invert_extension(sf.model)
    rev, phi = reversed_system(model, sf.candidate.phi)
    return sf, model, rev, FlatCandidate(phi=phi)


# Each golden reversed, by hand from R~ = (R2, R1): (class, R1, R2, d1, d2).
REVERSED = {
    "robot": ("general", (2, 1), (1, 1), 1, 1),
    "robot_swapped": ("general", (1, 2), (1, 1), 1, 1),
    "academic": ("forward_flat", (0, 0), (4, 3), 0, 2),
    "vtol": ("backward_flat", (4, 4), (0, 0), 2, 0),
    "double_chain": ("linearizing", (2, 1), (0, 0), 0, 0),
}


@pytest.mark.parametrize("name", [
    "robot", "robot_swapped", "academic", "vtol",
    # a backward tower without a chain (d1 = 0), the mirror of the forward
    # one without a chain (r22 = rho2)
    "double_chain",
])
def test_the_reversed_analysis_swaps_the_indices(name):
    sf, model, rev, cand = _load_and_reverse(name)
    report = analyze(model, sf.candidate, sf.options)
    got = analyze(rev, cand, AnalyzeOptions())
    idx, mine = report.indices, got.indices
    assert got.residuals["pass"]
    assert (got.classification.kind, mine.r1, mine.r2, mine.d1, mine.d2) == (
        MIRROR[report.classification.kind], idx.r2, idx.r1, idx.d2, idx.d1)
    assert (got.classification.kind, mine.r1, mine.r2, mine.d1,
            mine.d2) == REVERSED[name]


@pytest.mark.parametrize("name", ["robot", "robot_swapped", "academic",
                                  "double_chain"])
def test_the_reversed_system_extends_and_certifies(name):
    *_, rev, cand = _load_and_reverse(name)
    report = analyze(rev, cand, AnalyzeOptions())
    assert certify_linearizing(build_combined(report.model, cand,
                                              report.tower)).passed


def test_the_reversed_vtol_needs_a_fixed_point_for_its_prelongation():
    """vtol's analysis point is not a fixed point, so the prelongation of
    its reversal cannot start from a constant history."""
    *_, rev, cand = _load_and_reverse("vtol")
    report = analyze(rev, cand, AnalyzeOptions())
    with pytest.raises(ExtensionError, match="not a fixed point"):
        build_combined(report.model, cand, report.tower)


@pytest.mark.parametrize("name", sorted(CASES))
def test_reversing_twice_gives_back_the_same_maps(name):
    _, model, rev, cand = _load_and_reverse(name)
    twice, _ = reversed_system(rev, cand.phi)
    for attr in ("f", "g", "psi_x", "psi_u"):
        mine, theirs = getattr(twice, attr), getattr(model, attr)
        assert len(mine) == len(theirs)
        assert all(a is b for a, b in zip(mine, theirs)), attr
