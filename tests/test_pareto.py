"""Profile enumeration, the Pareto filter, and reservation-level selection."""

import dataclasses
import gc
import itertools
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agentcap import agent
from agentcap.errors import BudgetExceededError, ConfigurationError, EmptySelectionError
from agentcap.model import (
    AgentUtility,
    GridFamily,
    LinearShareFamily,
    OutputFunction,
    QuadraticCost,
    Scenario,
    StateSpace,
)
from agentcap.pareto import (
    Enumeration,
    ParetoSet,
    _AgentOrder,
    _cluster_levels,
    _frontier,
    _pareto_keep_mask,
    select,
)
from agentcap.scaling import alpha_star

from conftest import (
    brute_pareto_keep,
    ladder_scenario,
    make_profile,
    smooth_scenario,
    tangent_scenario,
)


# -- enumeration ------------------------------------------------------------


def test_single_contract_enumeration():
    s = ladder_scenario()
    solo = Scenario(
        states=s.states, y=s.y, cost=s.cost, capacity=s.capacity,
        family=GridFamily(((0.0,), (0.0,))), utility=s.utility,
        reservation=0.0, m=s.m,
    )
    enum = Enumeration(solo)
    assert enum.agent_u.size == 1
    prof = enum.profile(0, 1.0)
    assert prof.dist.probs == (1.0, 0.0)
    assert prof.agent_utility == 0.0
    assert prof.principal_payoff == 0.0
    assert enum.profile(0, 0.0).principal_payoff == 0.0


def test_enumeration_caches_match_recomputation():
    s = ladder_scenario()
    enum = Enumeration(s)
    for i in range(enum.agent_u.size):
        prof = enum.profile(i, 0.7)
        p = np.array(prof.dist.probs)
        b = np.array(prof.contract.payments)
        assert prof.agent_utility == pytest.approx(float(p @ b) - s.cost.value(p), abs=1e-12)
        assert prof.principal_payoff == pytest.approx(float(p @ (0.7 * s.y.as_array() - b)), abs=1e-12)
        assert prof.capacity_binding == (abs(prof.cost - s.capacity) <= s.tol_u)


def test_budget_guard():
    s = tangent_scenario(0.04)
    with pytest.raises(BudgetExceededError) as exc:
        Enumeration(s, budget=10)
    assert exc.value.budget == 10
    assert exc.value.required > 10
    assert "evaluations" in str(exc.value)


@pytest.mark.parametrize("budget", [-1, 2.5, True, "10", np.float64(1e7)])
def test_budget_must_be_a_nonnegative_integer(budget):
    with pytest.raises(ConfigurationError, match="budget must be a nonnegative integer"):
        Enumeration(ladder_scenario(), budget=budget)
    enum = Enumeration(ladder_scenario(), budget=np.int64(10**7))
    assert enum.budget == 10**7 and type(enum.budget) is int


def test_enumeration_below_guards():
    base = tangent_scenario(0.04, m=400)
    below = Enumeration(base)
    with pytest.raises(ConfigurationError, match="higher capacity"):
        Enumeration(base.at_capacity(0.01), below=below)
    with pytest.raises(ConfigurationError, match="another scenario"):
        Enumeration(dataclasses.replace(base, tol_u=1e-6), below=below)
    with pytest.raises(ConfigurationError, match="another scenario"):
        Enumeration(tangent_scenario(0.04, m=200), below=below)
    # a chained enumeration of an at_capacity scenario reads the one lattice
    above = Enumeration(base.at_capacity(0.09), below=below)
    assert above.scenario.lattice is below.scenario.lattice is base.lattice


def test_lattice_is_freed_with_its_scenario():
    # the lattice holds no reference back to its scenario, so reference
    # counting alone frees it once the scenario and its enumerations go
    gc.disable()
    try:
        s = tangent_scenario(0.04, m=400)
        enum = Enumeration(s)
        above = Enumeration(s.at_capacity(0.09), below=enum)
        above.selection_ids(0.5, 0.0)
        ref = weakref.ref(s.lattice)
        del s, enum
        assert ref() is not None
        del above
        assert ref() is None
    finally:
        gc.enable()


def _assert_rows_ascend(enum):
    key = enum.contract_id * len(enum.points) + enum.point_id
    assert (np.diff(key) > 0).all()


def test_rows_ascend_by_contract_then_point():
    # _frontier breaks ties by row index, so every producer of the profile
    # arrays keeps them strictly ascending in (contract_id, point_id)
    fixtures = [ladder_scenario(), tangent_scenario(0.04)]
    fixtures += [smooth_scenario(seed)[0] for seed in range(6)]
    for s in fixtures:
        enum = Enumeration(s)
        _assert_rows_ascend(enum)
        for k in (2 * s.capacity, 4 * s.capacity):
            enum = Enumeration(s.at_capacity(k), below=enum)
            _assert_rows_ascend(enum)


def test_rows_ascend_on_the_ball_route(monkeypatch):
    # with small blocks every fresh enumeration of a strictly convex cost
    # takes the ball route, and chains start from it
    monkeypatch.setattr(agent, "_CHUNK", 64)
    for s in [tangent_scenario(0.04), *(smooth_scenario(seed)[0] for seed in range(6))]:
        enum = Enumeration(s)
        assert enum.evaluations < len(enum.labels) * len(enum.points)
        _assert_rows_ascend(enum)
        enum = Enumeration(s.at_capacity(2 * s.capacity), below=enum)
        _assert_rows_ascend(enum)


def test_evaluations_count_full_and_chained_scans():
    s = tangent_scenario(0.04, m=400)
    n_c = len(s.lattice.contracts[0])
    low = Enumeration(s)
    assert low.evaluations == n_c * len(low.points)
    high = Enumeration(s.at_capacity(0.09), below=low)
    # only the points feasible at 0.09 but not at 0.04 are scored
    assert high.evaluations == n_c * (len(high.points) - len(low.points)) > 0
    assert Enumeration(s.at_capacity(0.09), below=high).evaluations == 0


@pytest.mark.parametrize("alpha", [1.5, -3.0, float("nan"), float("inf")])
def test_alpha_queries_reject_alpha_outside_unit_interval(alpha):
    enum = Enumeration(tangent_scenario(0.04, m=200))
    queries = [enum.principal_at, enum.pareto_at, enum.pareto_mask,
               lambda a: enum.profile(0, a), lambda a: enum.selection_ids(a, 0.0)]
    for query in queries:
        with pytest.raises(ConfigurationError, match="alpha"):
            query(alpha)
    assert len(enum.pareto_at(1.0).profiles) > 0


# -- Pareto filter ----------------------------------------------------------


def test_ladder_frontier_by_hand():
    ps = Enumeration(ladder_scenario()).pareto_at(1.0)
    # slopes below 0.4 are dominated by the slope-0.4 contract; above it the
    # best response is pinned at p_H = 0.2 and the frontier is a clean ladder
    assert len(ps.profiles) == 7
    assert all(p.dist.probs == (0.8, 0.2) for p in ps.profiles)
    assert all(p.capacity_binding for p in ps.profiles)
    levels = np.array(ps.agent_utility_levels)
    assert np.allclose(levels, [0.04, 0.06, 0.08, 0.10, 0.12, 0.14, 0.16], atol=1e-12)
    # sorted by agent utility descending
    assert [round(p.agent_utility, 3) for p in ps.profiles] == [
        0.16, 0.14, 0.12, 0.10, 0.08, 0.06, 0.04,
    ]
    assert ps.profiles[0].principal_payoff == pytest.approx(0.0, abs=1e-12)
    assert ps.profiles[-1].principal_payoff == pytest.approx(0.12, abs=1e-12)


def test_share_family_frontier_by_hand():
    s = ladder_scenario()
    share = Scenario(
        states=s.states, y=s.y, cost=s.cost, capacity=s.capacity,
        family=LinearShareFamily((0.0, 0.5, 1.0), (0.0,)),
        utility=s.utility, reservation=0.0, m=s.m,
    )
    ps = Enumeration(share).pareto_at(1.0)
    got = {(round(p.agent_utility, 6), round(p.principal_payoff, 6)) for p in ps.profiles}
    # beta = 0 gives (0, 0) and is dominated by beta = 0.5
    assert got == {(0.06, 0.1), (0.16, 0.0)}


def frontier_of(agent, principal, tol=1e-9):
    """``_frontier`` on payoff lists: (row indices, levels) as lists."""
    order, levels = _frontier(np.array(agent, dtype=float), np.array(principal, dtype=float), tol)
    return order.tolist(), levels.tolist()


class PayoffRows:
    """Stand-in enumeration of synthetic (agent, principal) rows: the agent
    utilities ``select`` reads, and row i's profile built by ``make_profile``
    with tag i."""

    def __init__(self, payoffs):
        self.agent_u = np.array([a for a, _ in payoffs], dtype=float)

    def _profiles(self, rows, principal):
        return tuple(
            make_profile(self.agent_u[i], p, i) for i, p in zip(rows.tolist(), principal.tolist())
        )


def frontier_set(payoffs, tol=1e-9):
    """The ParetoSet of synthetic (agent, principal) rows in ``_frontier``'s
    order."""
    order, levels = frontier_of(*zip(*payoffs), tol)
    rows = np.array(order, dtype=np.intp)
    return ParetoSet(
        enumeration=PayoffRows(payoffs),
        alpha=float("nan"),
        rows=rows,
        principal=np.array([p for _, p in payoffs], dtype=float)[rows],
        agent_utility_levels=tuple(levels),
        tol_u=tol,
    )


def test_profiles_are_the_frontier_rows_in_frontier_order():
    for s in (ladder_scenario(), smooth_scenario(0)[0], tangent_scenario(0.04, m=400)):
        enum = Enumeration(s)
        for alpha in (0.3, 1.0):
            ps = enum.pareto_at(alpha)
            order, levels = _frontier(enum.agent_u, enum.principal_at(alpha), s.tol_u)
            assert ps.rows.tolist() == order.tolist()
            assert ps.agent_utility_levels == tuple(levels.tolist())
            assert ps.profiles == tuple(enum.profile(i, alpha) for i in order)
            sel = select(ps, s.reservation)
            at_level = [abs(p.agent_utility - sel.chosen_level) <= s.tol_u for p in ps.profiles]
            assert sel.profiles == tuple(p for p, keep in zip(ps.profiles, at_level) if keep)
            assert sel.principal.tolist() == [p.principal_payoff for p in sel.profiles]


def test_filter_drops_dominated_and_keeps_ties():
    assert frontier_of([1.0, 0.0], [1.0, 0.0])[0] == [0]
    assert frontier_of([1.0, 0.0], [0.0, 1.0])[0] == [0, 1]
    assert frontier_of([0.5, 0.5], [0.5, 0.5])[0] == [0, 1]


def test_filter_tolerance_gray_zone():
    # within tol_u the higher point does not dominate
    near, levels = frontier_of([0.1, 0.1 + 5e-10], [0.2, 0.2], 1e-9)
    assert near == [1, 0]
    assert levels == [0.1]
    far, _ = frontier_of([0.1, 0.1 + 5e-9], [0.2, 0.2], 1e-9)
    assert far == [1]


def test_filter_idempotent_and_included():
    s = ladder_scenario()
    enum = Enumeration(s)
    agent, principal = enum.agent_u, enum.principal_at(1.0)
    once, _ = _frontier(agent, principal, s.tol_u)
    twice, _ = _frontier(agent[once], principal[once], s.tol_u)
    assert once[twice].tolist() == once.tolist()
    assert len(set(once.tolist())) == once.size
    assert 0 <= once.min() and once.max() < agent.size


def test_filter_matches_brute_oracle_on_enumerations():
    cases = [Enumeration(ladder_scenario(m=60))]
    for seed in range(4):
        sc, _ = smooth_scenario(seed)
        cases.append(Enumeration(sc))
    for enum in cases:
        for alpha in (0.0, 0.3, 1.0):
            got = enum.pareto_mask(alpha)
            want = brute_pareto_keep(
                enum.agent_u, enum.principal_at(alpha), enum.scenario.tol_u
            )
            assert np.array_equal(got, want)


def test_cached_agent_order_matches_brute_oracle_at_every_alpha():
    cases = [ladder_scenario(), *(smooth_scenario(seed)[0] for seed in range(5))]
    cases.append(tangent_scenario(0.04, m=1000))
    for sc in cases:
        enum = Enumeration(sc)
        order = enum.agent_order
        trace = [a for a, _ in alpha_star(sc).predicate_trace]
        for alpha in [*np.linspace(0.0, 1.0, 41), *trace]:
            got = enum.pareto_mask(alpha)
            want = brute_pareto_keep(enum.agent_u, enum.principal_at(alpha), sc.tol_u)
            assert np.array_equal(got, want), (sc.family.kind, alpha)
        assert enum.agent_order is order
    assert len(trace) > 2  # the tangent fixture, last, bisects


DYADIC_TOL = 2.0**-10  # values are multiples of it, so every +-tol is exact


def test_keep_mask_matches_brute_oracle_on_dyadic_pairs():
    # every pair on a 5x5 grid: duplicates and gaps of exactly tol and 2 tol
    # on both axes
    grid = DYADIC_TOL * np.arange(-2, 3)
    for a0, p0, a1, p1 in itertools.product(grid, repeat=4):
        agent, principal = np.array([a0, a1]), np.array([p0, p1])
        want = brute_pareto_keep(agent, principal, DYADIC_TOL)
        assert np.array_equal(_pareto_keep_mask(agent, principal, DYADIC_TOL), want)
    t = DYADIC_TOL
    assert _pareto_keep_mask(np.array([0.0, t]), np.array([0.0, 0.0]), t).all()
    assert _pareto_keep_mask(np.array([0.0, 0.0]), np.array([0.0, t]), t).all()
    assert _pareto_keep_mask(np.array([0.0, 2 * t]), np.array([t, 0.0]), t).tolist() == [
        False, True
    ]
    assert _pareto_keep_mask(np.array([t, 0.0]), np.array([0.0, 2 * t]), t).tolist() == [
        False, True
    ]
    assert _pareto_keep_mask(np.array([0.0]), np.array([5.0]), t).tolist() == [True]
    assert _pareto_keep_mask(np.array([]), np.array([]), t).shape == (0,)


def test_one_agent_order_serves_every_principal_vector():
    rng = np.random.default_rng(5)
    for n in range(13):
        for _ in range(40):
            # few distinct values, so duplicates and exact tol gaps are common
            agent = DYADIC_TOL * rng.integers(-4, 5, n)
            order = _AgentOrder(agent, DYADIC_TOL)
            for _ in range(5):
                principal = DYADIC_TOL * rng.integers(-4, 5, n)
                want = brute_pareto_keep(agent, principal, DYADIC_TOL)
                assert np.array_equal(_pareto_keep_mask(agent, principal, DYADIC_TOL, order), want)
                assert np.array_equal(_pareto_keep_mask(agent, principal, DYADIC_TOL), want)


def test_filter_on_dyadic_profiles_matches_brute_oracle_and_order():
    rng = np.random.default_rng(11)
    for n in range(1, 13):
        agent = DYADIC_TOL * rng.integers(-3, 4, n)
        principal = DYADIC_TOL * rng.integers(-3, 4, n)
        order, _ = _frontier(agent, principal, DYADIC_TOL)
        mask = brute_pareto_keep(agent, principal, DYADIC_TOL)
        want = sorted(
            (i for i in range(n) if mask[i]), key=lambda i: (-agent[i], -principal[i], i)
        )
        assert order.tolist() == want


def test_translation_by_constant_payment():
    w = 0.13
    base = ladder_scenario()
    grids = base.family.grids
    shifted = Scenario(
        states=base.states, y=base.y, cost=base.cost, capacity=base.capacity,
        family=GridFamily(tuple(tuple(v + w for v in g) for g in grids)),
        utility=base.utility, reservation=0.0, m=base.m,
    )
    ps0 = Enumeration(base).pareto_at(1.0)
    ps1 = Enumeration(shifted).pareto_at(1.0)
    assert len(ps0.profiles) == len(ps1.profiles)
    for a, b in zip(ps0.profiles, ps1.profiles):
        assert b.agent_utility == pytest.approx(a.agent_utility + w, abs=1e-12)
        assert b.principal_payoff == pytest.approx(a.principal_payoff - w, abs=1e-12)
        assert b.dist.probs == a.dist.probs


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from([0.0, 0.1, 0.1 + 5e-10, 0.1 + 5e-9, 0.2, 0.5, -0.3]),
            st.sampled_from([0.0, 0.05, 0.1, 0.1 + 5e-10, 0.3, -0.2]),
        ),
        min_size=1,
        max_size=25,
    )
)
def test_filter_matches_brute_oracle_on_synthetic(payoffs):
    order, _ = frontier_of(*zip(*payoffs), 1e-9)
    got = set(order)
    assert len(got) == len(order)
    mask = brute_pareto_keep([a for a, _ in payoffs], [b for _, b in payoffs], 1e-9)
    want = {i for i in range(len(payoffs)) if mask[i]}
    assert got == want


def _cluster_levels_loop(values, tol):
    """Reference: the greedy walk over every sorted value."""
    if values.size == 0:
        return values
    s = np.sort(values)
    reps = [s[0]]
    for v in s[1:]:
        if v - reps[-1] > tol:
            reps.append(v)
    return np.array(reps)


def test_cluster_levels_match_greedy_loop():
    rng = np.random.default_rng(5)
    for trial in range(12000):
        tol = float(rng.choice([1e-9, 1e-3, 0.01, 0.1, 0.3]))
        n = int(rng.integers(0, 40))
        x = [rng.uniform(-1, 1, n), np.round(rng.uniform(-1, 1, n), 2), rng.integers(-5, 5, n) * 0.1][trial % 3]
        if trial % 2:
            # copies shifted by tol and tol/2 sit on the boundary of the rule
            values = np.concatenate([x, x[: n // 2] + tol, x[: n // 3] + tol / 2])
        else:
            values = x[:1].sum() + np.cumsum(rng.choice([0.0, tol, tol / 2, 2 * tol], size=n))
        got = _cluster_levels(values, tol)
        want = _cluster_levels_loop(values, tol)
        assert np.array_equal(got, want), (values.tolist(), tol)


# -- selection --------------------------------------------------------------


def test_select_levels_hand_case():
    ps = frontier_set([(0.0, 3.0), (0.04, 2.0), (0.1, 1.0)])
    assert ps.agent_utility_levels == (0.0, 0.04, 0.1)
    assert select(ps, 0.0).chosen_level == 0.0
    assert select(ps, 0.05).chosen_level == 0.1
    assert select(ps, 0.1 + 5e-10).chosen_level == 0.1  # tolerance credit
    with pytest.raises(EmptySelectionError):
        select(ps, 0.5)


def test_select_returns_whole_level():
    ps = frontier_set([(0.1, 0.5), (0.1, 0.5), (0.2, 0.1)])
    sel = select(ps, 0.05)
    assert sel.chosen_level == pytest.approx(0.1)
    assert len(sel.profiles) == 2
    assert all(p in ps.profiles for p in sel.profiles)
    # the level's rows, in the parent's order
    assert ps.rows.tolist() == [2, 0, 1]
    assert sel.rows.tolist() == [0, 1]
    assert sel.principal.tolist() == [0.5, 0.5]


def test_selection_ids_agree_with_select_at():
    s = ladder_scenario()
    enum = Enumeration(s)
    for alpha, r in ((1.0, 0.0), (1.0, 0.05), (0.6, 0.1)):
        chosen, ids, binding = enum.selection_ids(alpha, r)
        sel = select(enum.pareto_at(alpha), r)
        assert chosen == pytest.approx(sel.chosen_level, abs=1e-15)
        assert {(int(enum.contract_id[i]), int(enum.point_id[i])) for i in ids} == {
            p.identity() for p in sel.profiles
        }
        assert len(binding) == len(ids)


def test_selection_empty_raises():
    s = ladder_scenario()
    with pytest.raises(EmptySelectionError):
        select(Enumeration(s).pareto_at(1.0), 99.0)
