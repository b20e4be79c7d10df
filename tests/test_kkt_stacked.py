"""The stationarity system on stacks of points against the one-point oracle.

``kkt`` evaluates all columns of a finite-difference Jacobian, and all damped
step lengths of a backtracking round, as one stack. These tests hold it to
the one-point evaluation and iteration in ``conftest``: the rows, the
Jacobian, every solver outcome and every raised error agree bit for bit, and
no candidate that a one-at-a-time trial would not reach raises or warns.
"""

import dataclasses
import itertools

import numpy as np
import pytest

from agentcap import kkt
from agentcap.errors import ValidationError
from agentcap.model import (
    AgentUtility,
    OutputFunction,
    QuadraticCost,
    RelativeEntropyCost,
    Scenario,
    StateSpace,
)

from conftest import (
    SMOOTH_FAMILY,
    oracle_cost_parts,
    oracle_fd_jacobian,
    oracle_line_search,
    oracle_solve,
    oracle_system,
    same_bits,
    share_scenario,
    share_scenario3,
    smooth_scenario,
    tangent_scenario,
)

UTILITIES = {
    "risk-neutral": AgentUtility("risk_neutral"),
    "cara": AgentUtility("cara", a=1.3),
    "crra": AgentUtility("crra", gamma=2.0, shift=1.0),
    "crra-log": AgentUtility("crra", gamma=1.0, shift=1.0),
}
COST_KINDS = ["quadratic-pd", "quadratic-flat", "entropy"]
FLAGS = list(itertools.product([False, True], repeat=2))
ACTIVE_SETS = {
    "none": (False, False),
    "capacity": (True, False),
    "participation": (False, True),
    "capacity,participation": (True, True),
}


def _cost(kind, n, rng):
    q0 = rng.dirichlet(np.ones(n) * 3.0)
    if kind == "entropy":
        return RelativeEntropyCost(float(rng.uniform(0.5, 2.0)), tuple(q0))
    if kind == "quadratic-pd":
        A = rng.normal(size=(n, n))
        return QuadraticCost(tuple(map(tuple, A @ A.T + 0.5 * np.eye(n))), tuple(q0))
    # singular on the simplex: rank at most n - 2 plus a multiple of 11'
    R = rng.normal(size=(n, max(n - 2, 0)))
    return QuadraticCost(tuple(map(tuple, R @ R.T + 0.5 * np.ones((n, n)))), tuple(q0))


def _scenario(cost, utility):
    n = len(cost.q0)
    return Scenario(
        states=StateSpace(tuple(f"s{i}" for i in range(n))),
        y=OutputFunction(tuple(np.linspace(0.0, 1.0, n))),
        cost=cost,
        capacity=0.3,
        family=SMOOTH_FAMILY,
        utility=utility,
        reservation=0.0,
        m=10,
    )


def _stack(n, k, rng):
    """k interior packed points: payments inside every utility's domain."""
    return np.column_stack([
        rng.uniform(-0.5, 1.5, (k, n)),
        rng.dirichlet(np.ones(n), k),
        rng.normal(size=(k, n)),
        rng.normal(size=(k, 5)),
    ])


# -- evaluation -------------------------------------------------------------


@pytest.mark.parametrize("kind", COST_KINDS)
def test_cost_stacks_equal_one_point_formulas(kind):
    rng = np.random.default_rng(COST_KINDS.index(kind))
    for trial in range(40):
        n, k = int(rng.integers(2, 6)), int(rng.integers(1, 20))
        cost = _cost(kind, n, rng)
        P = rng.dirichlet(np.ones(n), k)
        g, h, c = cost.gradient(P), cost.hessian(P), cost.value(P)
        assert g.shape == (k, n) and h.shape == (k, n, n) and c.shape == (k,)
        for i in range(k):
            og, oh, oc = oracle_cost_parts(cost, P[i])
            assert same_bits(g[i], og) and same_bits(h[i], oh) and same_bits(c[i], oc)
            # one point is a stack of one
            assert same_bits(cost.gradient(P[i]), og) and same_bits(cost.hessian(P[i]), oh)
            assert same_bits(cost.value(P[i]), oc)
        # any leading shape
        assert same_bits(cost.value(P.reshape(1, k, n))[0], c)


@pytest.mark.parametrize("utility", list(UTILITIES))
@pytest.mark.parametrize("kind", COST_KINDS)
def test_stacked_system_equals_one_point_oracle(kind, utility):
    rng = np.random.default_rng([COST_KINDS.index(kind), list(UTILITIES).index(utility)])
    for trial in range(12):
        n, k = int(rng.integers(2, 6)), int(rng.integers(1, 20))
        s = _scenario(_cost(kind, n, rng), UTILITIES[utility])
        X = _stack(n, k, rng)
        for flags in FLAGS:
            rows = kkt._system(s, X, *flags)
            assert rows.shape[0] == k
            for i in range(k):
                assert same_bits(rows[i], oracle_system(s, X[i], *flags))


@pytest.mark.parametrize("kind", ["quadratic-pd", "entropy"])
def test_jacobian_equals_column_loop(kind):
    rng = np.random.default_rng(11)
    for trial in range(10):
        n = int(rng.integers(2, 6))
        s = _scenario(_cost(kind, n, rng), UTILITIES["cara"])
        x = _stack(n, 1, rng)[0]
        for flags in FLAGS:
            stacked = kkt._finite_difference_jacobian(lambda z: kkt._system(s, z, *flags), x,
                                                      kkt._system(s, x[None], *flags)[0])
            looped = oracle_fd_jacobian(lambda z: oracle_system(s, z, *flags), x,
                                        oracle_system(s, x, *flags))
            assert same_bits(stacked, looped)


def test_norm_helper_is_numpys_norm():
    rng = np.random.default_rng(5)
    for width in range(1, 25):
        R = rng.normal(size=(19, width)) * 10.0 ** rng.integers(-150, 150, size=(19, 1))
        norms = kkt._norms(R)
        assert all(same_bits(norms[i], np.linalg.norm(R[i])) for i in range(len(R)))
    # an overflow gives inf and warns, as in np.linalg.norm
    with pytest.warns(RuntimeWarning, match="overflow"):
        assert kkt._norms(np.full((1, 3), 1e200))[0] == np.inf
    with pytest.warns(RuntimeWarning, match="overflow"):
        assert np.linalg.norm(np.full(3, 1e200)) == np.inf


# -- the solver -------------------------------------------------------------


SOLVE_CASES = {
    "golden-tangent": lambda: tangent_scenario(0.04, m=400),
    **{f"smooth-{seed}": (lambda seed=seed: smooth_scenario(seed)[0]) for seed in range(10)},
    "share-0.2": lambda: share_scenario(0.2),
    "share-0.05": lambda: share_scenario(0.05),
    "share3-0.2": lambda: share_scenario3(0.2),
    "share-cara": lambda: dataclasses.replace(share_scenario(0.1), utility=UTILITIES["cara"]),
    "share-crra": lambda: dataclasses.replace(share_scenario(0.1), utility=UTILITIES["crra"]),
}


def _outcome(call):
    try:
        return "ok", call()
    except Exception as exc:  # the oracle and the solver must fail alike
        return type(exc), str(exc)


@pytest.mark.parametrize("active", list(ACTIVE_SETS))
@pytest.mark.parametrize("case", list(SOLVE_CASES))
def test_solver_equals_one_point_oracle(case, active):
    s = SOLVE_CASES[case]()
    capacity_active, participation_active = ACTIVE_SETS[active]
    init = kkt.make_initial_point(s)
    kw = dict(capacity_active=capacity_active, participation_active=participation_active)
    got = _outcome(lambda: kkt.solve_principal_foc(s, init, **kw))
    want = _outcome(lambda: oracle_solve(s, kkt._pack(init), **kw))
    assert got[0] == want[0]
    if got[0] != "ok":
        assert got[1] == want[1]
        return
    point, (x, converged, system_residual, _) = got[1], want[1]
    assert same_bits(kkt._pack(point), x)
    assert point.converged == converged
    assert same_bits(point.system_residual, system_residual)


@pytest.mark.parametrize("case", ["golden-tangent", "smooth-0", "smooth-3", "share-0.05", "share-crra"])
def test_one_jacobian_call_and_at_most_two_backtracking_calls(case, monkeypatch):
    s = SOLVE_CASES[case]()
    init = kkt.make_initial_point(s)
    log = []
    system, jacobian = kkt._system, kkt._finite_difference_jacobian

    def spy_system(s, x, *flags):
        log.append(len(x))
        return system(s, x, *flags)

    def spy_jacobian(fun, x, r0):
        log.append("J")
        return jacobian(fun, x, r0)

    monkeypatch.setattr(kkt, "_system", spy_system)
    monkeypatch.setattr(kkt, "_finite_difference_jacobian", spy_jacobian)
    kkt.solve_principal_foc(s, init)
    iterations = oracle_solve(s, kkt._pack(init))[3]
    assert log[0] == 1  # the starting point
    rounds = " ".join(map(str, log[1:])).split("J")[1:]
    assert len(rounds) == iterations > 0
    width = 3 * s.n + 5
    for calls in (list(map(int, r.split())) for r in rounds):
        assert calls[0] == width  # every Jacobian column in one call
        search = calls[1:]
        assert len(search) <= 2
        assert all(1 <= k <= 20 for k in search)
        if len(search) == 2:
            assert search[0] == 1  # the full step first, then the damped rest


# -- the order of candidates ------------------------------------------------


def _search(s, x, step, norm0=1e300):
    """The stacked line search and the oracle loop from the same start."""
    got = _outcome(lambda: kkt._line_search(s, lambda z: kkt._system(s, z, False, True), x, step, norm0))
    want = _outcome(lambda: oracle_line_search(lambda z: oracle_system(s, z, False, True), x, step, norm0, s.n))
    return got, want


def _packed(b, p, db=(0.0, 0.0), dp=(0.0, 0.0)):
    """Start and step on two states: the payments and p move, the
    multipliers stay at zero."""
    zeros = np.zeros(7)
    return np.concatenate([b, p, zeros]), np.concatenate([db, dp, zeros])


def _assert_same(got, want):
    assert got[0] == want[0] == "ok"
    if want[1] is None:
        assert got[1] is None
    else:
        assert same_bits(got[1][0], want[1][0]) and same_bits(got[1][1], want[1][1])


# the full step leaves the simplex's interior, a half step does not
OUT_AT_ONE = dict(p=(0.5, 0.5), dp=(-0.8, 0.8))


def test_domain_violation_after_the_accepted_candidate_raises_nothing():
    s = dataclasses.replace(share_scenario(0.1), utility=UTILITIES["crra"])
    # b_0 + 1 = lam - 0.01: inside the domain down to lam = 2^-6, outside past it
    x, step = _packed(b=(-1.01, 0.5), db=(1.0, 0.0), **OUT_AT_ONE)
    got, want = _search(s, x, step)
    _assert_same(got, want)
    assert want[1] is not None and same_bits(want[1][0][0], -1.01 + 0.5)


def test_non_interior_candidate_after_the_accepted_one_raises_nothing():
    s = _scenario(RelativeEntropyCost(1.0, (0.3, 0.3, 0.4)), UTILITIES["risk-neutral"])
    zeros = np.zeros(3 + 5)
    # p_0 = lam 0.4 - 0.01 is negative past lam = 2^-6; p_1 at lam = 1 too
    x = np.concatenate([[0.1, 0.2, 0.3], [-0.01, 0.5, 0.51], zeros])
    step = np.concatenate([np.zeros(3), [0.4, -0.9, 0.5], zeros])
    got, want = _search(s, x, step)
    _assert_same(got, want)
    assert want[1] is not None


def test_no_warning_from_a_candidate_past_the_accepted_one():
    # CARA: exp(-b_0) overflows for b_0 < -709.8, which holds at every
    # step length below the accepted 1/2 (b_0 = -100) but not at it
    s = dataclasses.replace(share_scenario(0.1), utility=AgentUtility("cara", a=1.0))
    x, step = _packed(b=(-1320.0, 0.5), db=(2440.0, 0.0), **OUT_AT_ONE)
    got, want = _search(s, x, step)  # filterwarnings = error makes a warning fail
    _assert_same(got, want)
    assert want[1] is not None and same_bits(want[1][0][0], -100.0)


def test_warnings_of_reached_candidates_still_show():
    # the half step overflows and is rejected; the quarter step is accepted
    s = dataclasses.replace(share_scenario(0.1), utility=AgentUtility("cara", a=1.0))
    x, step = _packed(b=(550.0, 0.5), db=(-2600.0, 0.0), **OUT_AT_ONE)
    with pytest.warns(RuntimeWarning) as got_warnings:
        got = kkt._line_search(s, lambda z: kkt._system(s, z, False, True), x, step, 1e300)
    with pytest.warns(RuntimeWarning) as want_warnings:
        want = oracle_line_search(lambda z: oracle_system(s, z, False, True), x, step, 1e300, s.n)
    assert sorted(str(w.message) for w in got_warnings) == sorted(str(w.message) for w in want_warnings)
    _assert_same(("ok", got), ("ok", want))
    assert same_bits(want[0][0], -100.0)


@pytest.mark.parametrize("b,db", [
    ((-0.5, 0.5), (-1.0, 0.0)),  # the half step, the first one reached, is outside
    ((-1.2, 0.5), (1.0, 0.0)),  # lam = 1/8 is, after rejected interior ones
])
def test_first_reached_domain_violation_raises_the_same_error(b, db):
    s = dataclasses.replace(share_scenario(0.1), utility=UTILITIES["crra"])
    x, step = _packed(b=b, db=db, **OUT_AT_ONE)
    got, want = _search(s, x, step, norm0=0.0)  # no candidate is accepted
    assert want[0] is ValidationError
    assert got == want


def test_full_step_outside_the_domain_raises_before_any_damped_step():
    s = dataclasses.replace(share_scenario(0.1), utility=UTILITIES["crra"])
    x, step = _packed(b=(-0.5, 0.5), p=(0.5, 0.5), db=(-1.0, 0.0))
    got, want = _search(s, x, step)
    assert want[0] is ValidationError and got == want


def test_candidate_off_the_interior_and_the_domain_is_skipped():
    # at the full step p leaves the interior and b_0 the domain: skipped
    s = dataclasses.replace(share_scenario(0.1), utility=UTILITIES["crra"])
    x, step = _packed(b=(0.0, 0.5), db=(-1.5, 0.0), **OUT_AT_ONE)
    got, want = _search(s, x, step)
    _assert_same(got, want)
    assert want[1] is not None and same_bits(want[1][0][0], -0.75)
