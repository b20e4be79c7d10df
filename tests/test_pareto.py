"""Profile enumeration, the Pareto filter, and reservation-level selection."""

import dataclasses
import gc
import itertools
import types
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
    _selection_level,
    select,
)
from agentcap.scaling import alpha_star

from conftest import (
    brute_pareto_keep,
    frontier_oracle,
    ladder_scenario,
    make_profile,
    narrow_enumeration,
    principal_at,
    selection_ids_oracle,
    set_scan_block,
    share_scenario,
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
    # the frontier breaks ties by row index, so every producer of the profile
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
    # with a small _CHUNK every fresh enumeration of a strictly convex cost
    # takes the ball route, and chains start from it; with small scan blocks
    # the chained scans join many blocks' ties
    monkeypatch.setattr(agent, "_CHUNK", 64)
    set_scan_block(monkeypatch, 64)
    for s in [tangent_scenario(0.04), *(smooth_scenario(seed)[0] for seed in range(6))]:
        enum = Enumeration(s)
        assert enum.evaluations < enum.nominal_evaluations
        _assert_rows_ascend(enum)
        enum = Enumeration(s.at_capacity(2 * s.capacity), below=enum)
        _assert_rows_ascend(enum)


def test_evaluations_count_full_and_chained_scans():
    s = tangent_scenario(0.04, m=400)
    n_c = len(s.lattice.contracts[0])
    low = Enumeration(s)
    assert low.evaluations == low.nominal_evaluations == n_c * len(agent.feasible_lattice(s)[0])
    high = Enumeration(s.at_capacity(0.09), below=low)
    # only the points feasible at 0.09 but not at 0.04 are scored
    assert high.evaluations == high.nominal_evaluations - low.nominal_evaluations > 0
    assert Enumeration(s.at_capacity(0.09), below=high).evaluations == 0


@pytest.mark.parametrize("chunk", [None, 64])
def test_point_ids_index_the_lattice(chunk, monkeypatch):
    # the full scan, and with a small _CHUNK the ball route: a point id is a
    # row of the scenario's lattice, priced there
    if chunk is not None:
        monkeypatch.setattr(agent, "_CHUNK", chunk)
    s = tangent_scenario(0.04, m=400)
    enum = Enumeration(s)
    assert (enum.evaluations < enum.nominal_evaluations) == (chunk is not None)
    assert enum.points is s.lattice.points
    assert enum.cost.tobytes() == s.lattice.costs[enum.point_id].tobytes()


def test_capacity_chain_ids_are_fresh_ids():
    base = tangent_scenario(0.01)
    enum = None
    for k in (0.01, 0.04, 0.09):
        s = base.at_capacity(k)
        enum = Enumeration(s, below=enum)
        fresh = Enumeration(s)
        assert enum.points is fresh.points is base.lattice.points
        for name in ("contract_id", "point_id", "binding"):
            assert np.array_equal(getattr(enum, name), getattr(fresh, name)), (k, name)


def test_surviving_ties_keep_their_point_ids():
    # raising k adds points with a larger p_H, which come first in lattice
    # order; a tie kept from below still names the same lattice point
    low = Enumeration(tangent_scenario(0.01))
    high = Enumeration(low.scenario.at_capacity(0.04), below=low)

    def ids(enum):
        return {(int(c), enum.points[p].tobytes()): int(p)
                for c, p in zip(enum.contract_id, enum.point_id)}

    lo, hi = ids(low), ids(high)
    kept = lo.keys() & hi.keys()
    assert kept
    assert all(lo[key] == hi[key] for key in kept)


@pytest.mark.parametrize("alpha", [1.5, -3.0, float("nan"), float("inf")])
def test_alpha_queries_reject_alpha_outside_unit_interval(alpha):
    enum = Enumeration(tangent_scenario(0.04, m=200))
    queries = [enum.pareto_at, enum.pareto_mask,
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


def rows_enumeration(agent, exp_output, exp_payment, binding, tol):
    """An Enumeration over given rows: the arrays its alpha queries read."""
    enum = Enumeration.__new__(Enumeration)
    enum.agent_u, enum.exp_output, enum.exp_payment = agent, exp_output, exp_payment
    enum.binding = binding
    enum.scenario = types.SimpleNamespace(tol_u=tol)
    return enum


def payoff_enumeration(agent, principal, tol):
    """An Enumeration whose rows have the given agent utilities and, at
    alpha = 1, the given principal payoffs, bit for bit."""
    agent, principal = np.array(agent, dtype=float), np.array(principal, dtype=float)
    no_binding = np.zeros(agent.size, dtype=bool)
    return rows_enumeration(agent, principal, np.zeros_like(principal), no_binding, tol)


def frontier_of(agent, principal, tol=1e-9):
    """``pareto_at(1.0)`` of synthetic payoff rows: (row indices, levels)
    as lists."""
    ps = payoff_enumeration(agent, principal, tol).pareto_at(1.0)
    return ps.rows.tolist(), list(ps.agent_utility_levels)


def agent_order(agent, tol):
    """The one-row ``_AgentOrder`` of synthetic agent utilities."""
    agent = np.array(agent, dtype=float)
    return payoff_enumeration(agent, np.zeros_like(agent), tol).agent_order


def keep_by_row(order, principal):
    """``_AgentOrder.keep`` of ``principal``, given by row, on a one-row
    order, mapped back to row order; the row's padding prices at -inf."""
    rows = order.order[0, :-1]
    keep = np.empty(rows.size, dtype=bool)
    keep[rows] = order.keep(np.append(np.asarray(principal, dtype=float)[rows], -np.inf)[None])[0, :-1]
    return keep


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
    """The ParetoSet of synthetic (agent, principal) rows in frontier
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
            order, levels = frontier_oracle(enum.agent_u, principal_at(enum, alpha), s.tol_u)
            assert ps.rows.tolist() == order.tolist()
            assert ps.agent_utility_levels == tuple(levels.tolist())
            assert ps.profiles == tuple(enum.profile(i, alpha) for i in order)
            sel = select(ps, s.reservation)
            at_level = [abs(p.agent_utility - sel.chosen_level) <= s.tol_u for p in ps.profiles]
            assert sel.profiles == tuple(p for p, keep in zip(ps.profiles, at_level) if keep)
            assert sel.principal.tolist() == [p.principal_payoff for p in sel.profiles]


ORACLE_ALPHAS = (0.0, 0.3, 0.5, 1.0)


def assert_frontier_matches_oracle(enum):
    """``pareto_at``'s rows, principal payoffs and levels equal the
    row-order oracle's at every alpha of ``ORACLE_ALPHAS``, bit for bit."""
    for alpha in ORACLE_ALPHAS:
        ps = enum.pareto_at(alpha)
        principal = principal_at(enum, alpha)
        rows, levels = frontier_oracle(enum.agent_u, principal, enum.scenario.tol_u)
        assert ps.rows.tolist() == rows.tolist(), alpha
        assert ps.principal.tobytes() == principal[rows].tobytes(), alpha
        assert ps.agent_utility_levels == tuple(levels.tolist()), alpha


@pytest.mark.parametrize("make", [
    ladder_scenario, lambda: tangent_scenario(0.04, m=400), lambda: share_scenario(0.2),
    *(lambda seed=seed: smooth_scenario(seed)[0] for seed in range(4)),
], ids=["ladder", "tangent", "share", *(f"smooth{seed}" for seed in range(4))])
def test_pareto_at_matches_the_row_order_oracle(make):
    assert_frontier_matches_oracle(Enumeration(make()))


def test_pareto_at_matches_the_row_order_oracle_on_random_panel(random_scenario_panel):
    for _, sc in random_scenario_panel:
        assert_frontier_matches_oracle(Enumeration(sc))


def test_pareto_at_matches_the_row_order_oracle_on_the_ball_route_and_a_chain(monkeypatch):
    # with a small _CHUNK the tangent enumeration takes the ball route, and a
    # sweep link built on it scans only the newly feasible points, in small
    # scan blocks
    monkeypatch.setattr(agent, "_CHUNK", 64)
    set_scan_block(monkeypatch, 64)
    s = tangent_scenario(0.04, m=400)
    ball = Enumeration(s)
    assert ball.evaluations < ball.nominal_evaluations
    assert_frontier_matches_oracle(ball)
    link = Enumeration(s.at_capacity(0.09), below=ball)
    assert 0 < link.evaluations < link.nominal_evaluations
    assert_frontier_matches_oracle(link)


@pytest.mark.parametrize("query", [
    lambda enum: enum.pareto_at(0.5),
    lambda enum: enum.pareto_mask(0.5),
    lambda enum: enum.selection_ids(0.5, 0.0),
], ids=["pareto_at", "pareto_mask", "selection_ids"])
def test_each_alpha_query_is_one_kept_pass(query, monkeypatch):
    # one ``keep`` pass over the one-row agent order, and no row-order pricing
    enum = Enumeration(tangent_scenario(0.04, m=400))

    def refuse(self, alpha, rows):
        raise AssertionError("an alpha query priced rows in row order")

    passes = []
    keep = _AgentOrder.keep

    def counted_keep(self, principal):
        passes.append(principal.shape)
        return keep(self, principal)

    monkeypatch.setattr(Enumeration, "_principal", refuse)
    monkeypatch.setattr(_AgentOrder, "keep", counted_keep)
    query(enum)
    assert passes == [(1, enum.agent_u.size + 1)]


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
    agent, principal = enum.agent_u, principal_at(enum, 1.0)
    once = enum.pareto_at(1.0).rows
    twice, _ = frontier_of(agent[once], principal[once], s.tol_u)
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
                enum.agent_u, principal_at(enum, alpha), enum.scenario.tol_u
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
            want = brute_pareto_keep(enum.agent_u, principal_at(enum, alpha), sc.tol_u)
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
        assert np.array_equal(keep_by_row(agent_order(agent, DYADIC_TOL), principal), want)
        mask = payoff_enumeration(agent, principal, DYADIC_TOL).pareto_mask(1.0)
        assert np.array_equal(mask, want)
    t = DYADIC_TOL

    def keep(agent, principal):
        return keep_by_row(agent_order(agent, t), principal)

    assert keep([0.0, t], [0.0, 0.0]).all()
    assert keep([0.0, 0.0], [0.0, t]).all()
    assert keep([0.0, 2 * t], [t, 0.0]).tolist() == [False, True]
    assert keep([t, 0.0], [0.0, 2 * t]).tolist() == [False, True]
    assert keep([0.0], [5.0]).tolist() == [True]
    assert keep([], []).shape == (0,)


def test_one_agent_order_serves_every_principal_vector():
    rng = np.random.default_rng(5)
    for n in range(13):
        for _ in range(40):
            # few distinct values, so duplicates and exact tol gaps are common
            agent = DYADIC_TOL * rng.integers(-4, 5, n)
            order = agent_order(agent, DYADIC_TOL)
            for _ in range(5):
                principal = DYADIC_TOL * rng.integers(-4, 5, n)
                want = brute_pareto_keep(agent, principal, DYADIC_TOL)
                assert np.array_equal(keep_by_row(order, principal), want)
                mask = payoff_enumeration(agent, principal, DYADIC_TOL).pareto_mask(1.0)
                assert np.array_equal(mask, want)


def test_filter_on_dyadic_profiles_matches_brute_oracle_and_order():
    rng = np.random.default_rng(11)
    for n in range(1, 13):
        agent = DYADIC_TOL * rng.integers(-3, 4, n)
        principal = DYADIC_TOL * rng.integers(-3, 4, n)
        order, _ = frontier_of(agent, principal, DYADIC_TOL)
        mask = brute_pareto_keep(agent, principal, DYADIC_TOL)
        want = sorted(
            (i for i in range(n) if mask[i]), key=lambda i: (-agent[i], -principal[i], i)
        )
        assert order == want
        assert order == frontier_oracle(agent, principal, DYADIC_TOL)[0].tolist()


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
        if trial % 29:  # 29 is prime to 6, so every input kind is sampled
            continue
        # the selection rule finds the first greedy level >= r - tol alone
        s = np.sort(values)
        rs = [-2.0, 2.0] if not s.size else [s[0] - 1.0, s[-1] + 1.0]
        for r in [*rs, *s, *(s + tol), *(s - tol), *(s + tol / 2), *(s - tol / 2)]:
            qualifying = want[want >= r - tol]
            (level,), (at,) = _selection_level(
                s[None], np.ones((1, s.size), dtype=bool), s[None] >= r - tol, tol, [0])
            if not qualifying.size:
                assert np.isnan(level) and not at.any()
                continue
            assert level == qualifying[0], (values.tolist(), tol, r)
            assert np.array_equal(at, np.abs(s - level) <= tol)


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


def assert_select_agrees_with_selection_ids(enum):
    """At every alpha of ``ORACLE_ALPHAS``, select(pareto_at(alpha), r) and
    selection_ids(alpha, r) give the same level and the same rows, or raise
    the same EmptySelectionError, for r the reservation, each frontier
    level, the levels shifted by tol and tol / 2, and a level beyond all."""
    for alpha in ORACLE_ALPHAS:
        ps = enum.pareto_at(alpha)
        levels, tol = np.array(ps.agent_utility_levels), ps.tol_u
        for r in (enum.scenario.reservation, 99.0, *levels, *(levels + tol), *(levels - tol),
                  *(levels - tol / 2)):
            try:
                level, ids, _ = enum.selection_ids(alpha, r)
            except EmptySelectionError as exc:
                with pytest.raises(EmptySelectionError) as got:
                    select(ps, r)
                assert str(got.value) == str(exc)
                continue
            sel = select(ps, r)
            assert sel.chosen_level == level, (alpha, r)
            assert np.sort(sel.rows).tolist() == ids.tolist(), (alpha, r)


def test_selection_ids_agree_with_select_at():
    for enum in (Enumeration(ladder_scenario()), Enumeration(tangent_scenario(0.04, m=400)),
                 Enumeration(share_scenario(0.2)), narrow_enumeration()):
        assert_select_agrees_with_selection_ids(enum)


def test_selection_ids_agree_with_select_at_on_random_panel(random_scenario_panel):
    for _, sc in random_scenario_panel:
        assert_select_agrees_with_selection_ids(Enumeration(sc))


@st.composite
def selection_rows(draw):
    """One row of a stack: ascending agent utilities whose gaps run in
    steps within tol and wider, a kept mask over them, the row's tolerance
    and a reservation near one of them or anywhere."""
    tol = draw(st.sampled_from([1e-9, DYADIC_TOL, 1e-3, 0.1]))
    steps = draw(st.lists(st.sampled_from([0.0, 0.5, 0.9, 1.0, 1.5, 3.0]), max_size=20))
    agent = draw(st.sampled_from([-0.5, 0.0, 0.3])) + tol * np.cumsum([0.0, *steps])
    kept = np.array(draw(st.lists(st.booleans(), min_size=agent.size, max_size=agent.size)))
    near = st.builds(lambda a, d: a + d * tol, st.sampled_from(agent.tolist()),
                     st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0]))
    r = draw(st.one_of(near, st.floats(-2.0, 2.0)))
    return agent, kept, tol, r


@settings(max_examples=300, deadline=None)
@given(st.lists(selection_rows(), min_size=1, max_size=4))
def test_stacked_selection_is_the_first_clustered_level_above(rows):
    # each row's selection, stacked with the others and cut, is the first
    # of _cluster_levels(kept values, tol) >= r - tol and the kept values
    # within tol of it
    stack = _AgentOrder.stack(
        [(payoff_enumeration(agent, np.zeros_like(agent), tol).agent_order, r)
         for agent, _, tol, r in rows])
    kept = np.zeros(stack.agent.shape, dtype=bool)
    for k, (_, mask, _, _) in enumerate(rows):
        filled = ~np.isnan(stack.agent[k])
        kept[k, filled] = mask[stack.order[k, filled]]
    levels, at = _selection_level(stack.agent, kept, stack.above, stack.tol, stack.near)
    for k, (agent, mask, tol, r) in enumerate(rows):
        clustered = _cluster_levels(agent[mask], tol)
        qualifying = clustered[clustered >= r - tol]
        if not qualifying.size:
            assert np.isnan(levels[k]) and not at[k].any()
            continue
        assert levels[k] == qualifying[0]
        want = np.flatnonzero(mask & (np.abs(agent - qualifying[0]) <= tol))
        assert np.sort(stack.order[k][at[k]]).tolist() == want.tolist()


def assert_selection_matches_oracle(enum, alpha, r):
    """selection_ids equals the oracle bit for bit, or both raise the same
    EmptySelectionError; returns whether the selection was empty."""
    try:
        want = selection_ids_oracle(enum, alpha, r)
    except EmptySelectionError as exc:
        with pytest.raises(EmptySelectionError) as got:
            enum.selection_ids(alpha, r)
        assert str(got.value) == str(exc)
        return True
    chosen, ids, binding = enum.selection_ids(alpha, r)
    assert chosen == want[0], (alpha, r)
    assert ids.tolist() == want[1].tolist()
    assert binding.tolist() == want[2].tolist()
    return False


def test_selection_ids_match_the_full_mask_oracle():
    rng = np.random.default_rng(19)
    empty = 0
    for trial in range(300):
        tol = float(rng.choice([1e-9, 1e-3, 0.1]))
        n = int(rng.integers(1, 50))
        # narrow runs: steps within tol run on, wider ones open a new run
        steps = rng.choice([0.0, tol / 2, 0.9 * tol, tol, 2 * tol], n)
        agent = rng.permutation(rng.uniform(-1, 1) + np.cumsum(steps))
        if trial % 2:  # duplicated agent utilities
            agent = rng.permutation(np.concatenate([agent, agent[: n // 2]]))
        n = agent.size
        exp_output = rng.uniform(0, 1, n) if trial % 3 else rng.integers(0, 4, n) * 0.25
        exp_payment = rng.uniform(-0.5, 0.5, n) if trial % 5 else -agent
        enum = rows_enumeration(agent, exp_output, exp_payment, rng.random(n) < 0.3, tol)
        s = np.sort(agent)
        rs = [s[0] - 1.0, s[-1] + 1.0, *rng.choice(s, 3), *(rng.choice(s, 2) + tol),
              *(rng.choice(s, 2) - tol / 2)]
        for alpha in (0.0, 1.0, float(rng.random())):
            for r in rs:
                empty += assert_selection_matches_oracle(enum, alpha, float(r))
    assert empty > 0
    for sc in (ladder_scenario(), tangent_scenario(0.04, m=400)):
        enum = Enumeration(sc)
        res = alpha_star(sc)
        for alpha, _ in res.predicate_trace:
            for r in (res.u_bar, sc.reservation, 99.0):
                assert_selection_matches_oracle(enum, alpha, r)


def test_selection_empty_raises():
    s = ladder_scenario()
    with pytest.raises(EmptySelectionError):
        select(Enumeration(s).pareto_at(1.0), 99.0)
