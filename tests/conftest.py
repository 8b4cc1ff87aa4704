import random

import pytest

from difflat import systems
from difflat.analysis import analyze
from difflat.expr import Var, add, differentiate, evaluate, mul, num, vars_of
from difflat.model import invert_extension


@pytest.fixture(scope="session")
def vtol():
    return systems.load("vtol")


@pytest.fixture(scope="session")
def academic():
    return systems.load("academic")


@pytest.fixture(scope="session")
def robot():
    return systems.load("robot")


@pytest.fixture(scope="session")
def corpus(vtol, academic, robot):
    return {"vtol": vtol, "academic": academic, "robot": robot}


@pytest.fixture(scope="session")
def reports(corpus):
    """Full analysis of every bundled system, shared across the suite."""
    return {name: analyze(sf.model, sf.candidate, sf.options)
            for name, sf in corpus.items()}


@pytest.fixture(scope="session")
def models_with_psi(corpus):
    return {name: invert_extension(sf.model) for name, sf in corpus.items()}


def random_corpus_expressions(sf, count, seed=0, max_shift=1):
    """Random algebraic combinations of a system's own expressions, used for
    the shift-operator round-trip and morphism properties."""
    rng = random.Random(seed)
    sys = sf.model
    atoms = list(sys.f) + list(sys.g or ()) + list(sf.candidate.phi) \
        + list(sys.state_vars) + list(sys.input_vars)
    out = []
    for _ in range(count):
        k = rng.randint(2, 4)
        picks = [rng.choice(atoms) for _ in range(k)]
        e = picks[0]
        for p in picks[1:]:
            op = rng.randint(0, 3)
            if op == 0:
                e = add(e, p)
            elif op == 1:
                e = mul(e, p)
            elif op == 2:
                e = add(e, mul(num(rng.randint(-3, 3)), p))
            else:
                e = add(mul(e, p), num(rng.randint(-2, 2)))
        out.append(e)
    return out


def fd_jacobian_check(exprs, cols, point, h: float = 1e-6) -> float:
    """Max relative deviation between symbolic partials and central
    differences: the oracle the Jacobian tests check `differentiate` by."""
    worst = 0.0
    for e in exprs:
        for v in cols:
            sym = evaluate(differentiate(e, v), point)
            hi = dict(point)
            lo = dict(point)
            hi[v] = point[v] + h
            lo[v] = point[v] - h
            fd = (evaluate(e, hi) - evaluate(e, lo)) / (2.0 * h)
            worst = max(worst, abs(sym - fd) / (1.0 + abs(sym)))
    return worst


def lowest_F_v_shifts(norm):
    """{output component j: the lowest shift of a y_j leaf of the
    v-parameterization F_v}. Lemma 1 / Eq. (8), d_{y[-R1]} F_v = 0, holds
    when each is at least 1 - R1_j."""
    low = {}
    for e in norm.F_v:
        for v in vars_of(e):
            low[v.component] = min(low.get(v.component, v.shift), v.shift)
    return dict(sorted(low.items()))


def trajectory_point(traj, k: int, sys, input_depth: int = 0,
                     zeta_depth: int = 0) -> dict:
    """Jet bindings of `traj` at time k: parameters, states, input
    forward-shifts up to `input_depth` and g-histories down to
    `zeta_depth`. `Tower.windows_along` binds the outputs by position instead;
    this dict is the reference the tests compare it with."""
    pt = dict(traj.params)
    pt.update(zip(sys.state_vars, traj.state(k)))
    for a in range(input_depth + 1):
        pt.update((v.shifted(a), u) for v, u in zip(sys.input_vars, traj.inputs(k + a)))
    for b in range(1, zeta_depth + 1):
        zk = traj.zeta[traj.index(k - b)]
        pt.update((Var(sys.gvalue_family, j + 1, -b), zk[j]) for j in range(sys.m))
    return pt
