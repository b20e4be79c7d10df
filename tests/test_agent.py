"""Agent best responses (grid and continuous routes) and the agent-side FOC."""

import math
import tracemalloc

import numpy as np
import pytest

from agentcap import agent, pareto
from agentcap.agent import (
    agent_foc_residual,
    best_response_convex,
    best_response_grid,
    feasible_lattice,
    fit_agent_multipliers,
    tie_floor,
)
from agentcap.cli import main, save_scenario
from agentcap.errors import (
    ConfigurationError,
    ConvergenceError,
    DifferentiabilityError,
    EmptyFeasibleSetError,
    InteriorityError,
    UnsupportedCostError,
    ValidationError,
)
from agentcap.model import (
    AgentUtility,
    GridFamily,
    OutputFunction,
    QuadraticCost,
    RelativeEntropyCost,
    Scenario,
    StateSpace,
    TableCost,
    feasible_mask,
    simplex_lattice,
    validate_scenario,
)
from agentcap.pareto import Enumeration

from conftest import (
    SMOOTH_FAMILY,
    flat_quadratic_case,
    ladder_scenario,
    quadratic_scenario,
    set_scan_block,
    share_scenario,
    smooth_scenario,
    tangent_scenario,
)


def two_state(cost, k, m=10, utility=None):
    return Scenario(
        states=StateSpace(("L", "H")),
        y=OutputFunction((0.0, 1.0)),
        cost=cost,
        capacity=float(k),
        family=GridFamily(((0.0,), (0.0,))),
        utility=utility or AgentUtility("risk_neutral"),
        reservation=0.0,
        m=m,
    )


# -- grid route -------------------------------------------------------------


def test_feasible_lattice_filters_by_capacity():
    s = tangent_scenario(0.04, m=10)
    ids, mask = feasible_lattice(s)
    # c(p) = p_H^2 <= 0.04 keeps p_H in {0, 0.1, 0.2}, the lattice's last
    # three points
    assert np.array_equal(ids, [8, 9, 10]) and np.array_equal(np.flatnonzero(mask), ids)
    assert np.array_equal(np.rint(s.lattice.points[ids] * 10), [[8, 2], [9, 1], [10, 0]])
    assert s.lattice.costs[ids].max() <= 0.04 + 1e-12
    with pytest.raises(EmptyFeasibleSetError):
        feasible_lattice(two_state(QuadraticCost(((0, 0), (0, 1)), (0, 0)), -1.0))


def test_grid_best_response_unconstrained_tangent():
    s = tangent_scenario(0.04)
    br = best_response_grid(s, (0.0, 0.4))
    assert [d.probs for d in br.maximizers] == [(0.8, 0.2)]
    assert br.value == pytest.approx(0.04, abs=1e-12)
    assert br.any_binding  # cost 0.04 sits exactly on the capacity


def test_grid_best_response_interior_slack():
    s = tangent_scenario(0.04)
    br = best_response_grid(s, (0.0, 0.2))
    assert [d.probs for d in br.maximizers] == [(0.9, 0.1)]
    assert br.value == pytest.approx(0.01, abs=1e-12)
    assert not br.any_binding


def test_grid_best_response_capacity_clamp():
    s = tangent_scenario(0.01)
    br = best_response_grid(s, (0.0, 0.4))
    assert [d.probs for d in br.maximizers] == [(0.9, 0.1)]
    assert br.value == pytest.approx(0.4 * 0.1 - 0.01, abs=1e-12)
    assert br.any_binding


def test_grid_best_response_zero_contract():
    s = two_state(QuadraticCost(((0, 0), (0, 1)), (0, 0)), 1.0)
    br = best_response_grid(s, (0.0, 0.0))
    assert [d.probs for d in br.maximizers] == [(1.0, 0.0)]
    assert br.value == 0.0


def test_grid_best_response_flat_contract_entropy():
    s = two_state(RelativeEntropyCost(1.0, (0.7, 0.3)), 1.0)
    br = best_response_grid(s, (0.3, 0.3))
    assert [d.probs for d in br.maximizers] == [(0.7, 0.3)]
    assert br.value == pytest.approx(0.3, abs=1e-12)


def test_grid_best_response_keeps_ties_in_lattice_order():
    s = two_state(QuadraticCost(((0, 0), (0, 0)), (0, 0)), 1.0, m=4)
    br = best_response_grid(s, (0.0, 0.0))
    assert br.points().shape[0] == simplex_lattice(2, 4).shape[0]
    # lattice order is lexicographic in p_L, so p_H runs downward
    assert [d.probs[1] for d in br.maximizers] == [1.0, 0.75, 0.5, 0.25, 0.0]


def test_grid_best_response_value_monotone_in_capacity():
    b = (0.0, 0.7)
    prev = -math.inf
    for k in (0.01, 0.04, 0.09, 0.25):
        v = best_response_grid(tangent_scenario(k), b).value
        assert v >= prev - 1e-12
        prev = v


def entropy_cara3():
    """Three states, relative-entropy cost, CARA agent; the capacity is a
    lattice point's cost so that some best responses bind."""
    cost = RelativeEntropyCost(0.8, (0.3, 0.4, 0.3))
    k = float(np.sort(cost.value_many(simplex_lattice(3, 30)))[5])
    return Scenario(
        states=StateSpace(("L", "M", "H")),
        y=OutputFunction((0.0, 0.5, 1.0)),
        cost=cost,
        capacity=k,
        family=GridFamily(((0.0, 0.1), (0.0, 0.15, 0.3), (0.0, 0.25, 0.5))),
        utility=AgentUtility("cara", a=2.0),
        reservation=0.0,
        m=30,
    )


SCAN_CASES = {
    "ladder": ladder_scenario,
    "tangent": lambda: tangent_scenario(0.04),
    "entropy-cara": entropy_cara3,
}


def assert_enumeration_rows_match_grid_responses(s):
    enum = Enumeration(s)
    flags = set()
    for c, b in enumerate(enum.payments):
        rows = np.flatnonzero(enum.contract_id == c)
        br = best_response_grid(s, b)
        assert np.all(np.diff(enum.point_id[rows]) > 0)
        assert np.array_equal(enum.points[enum.point_id[rows]], br.points())
        assert enum.agent_u[rows].max() == pytest.approx(br.value, abs=1e-12)
        assert bool(enum.binding[rows].any()) == br.any_binding
        flags.add(br.any_binding)
    return flags


@pytest.mark.parametrize("case", sorted(SCAN_CASES))
def test_enumeration_rows_match_single_contract_scans(case, monkeypatch):
    # the enumeration scans all contracts in blocks, the grid best response
    # one contract at a time; both go through agent.scan_grid
    s = SCAN_CASES[case]()
    assert assert_enumeration_rows_match_grid_responses(s) == {False, True}
    # split the contracts into blocks whose last one holds a single row
    n_c = len(s.family.payment_matrix(s.y.as_array())[0])
    n_p = len(feasible_lattice(s)[0])
    per_block = min(d for d in range(2, n_c) if (n_c - 1) % d == 0)
    set_scan_block(monkeypatch, per_block * n_p)
    assert assert_enumeration_rows_match_grid_responses(s) == {False, True}


def half_capacity_rule(s, point_ids):
    """A stand-in binding rule that depends, as any lattice rule must, only
    on the point and the capacity, and that the tolerance rule does not
    reproduce."""
    return s.lattice.costs[point_ids] >= 0.5 * s.capacity


@pytest.mark.parametrize("rule", ["tolerance", "substituted"])
@pytest.mark.parametrize("case", sorted(SCAN_CASES))
def test_every_binding_flag_comes_from_the_one_rule(case, rule, monkeypatch):
    # the full scan, the forced ball route and each capacity of a chained
    # sweep flag a row by agent.capacity_binding of its point id, and a
    # contract binds exactly when its grid best response does; a substituted
    # rule reaches every flag, so no producer applies a rule of its own
    s = SCAN_CASES[case]()
    if rule == "substituted":
        monkeypatch.setattr(agent, "capacity_binding", half_capacity_rule)
        monkeypatch.setattr(pareto, "capacity_binding", half_capacity_rule)
    costs = np.unique(s.lattice.costs)
    low = int(np.searchsorted(costs, s.capacity)) // 2
    ks = [float(costs[low]), float(0.5 * (costs[low] + costs[low + 1])), s.capacity]
    contracts = s.lattice.util
    flags = set()

    def check(enum):
        sk = enum.scenario
        assert np.array_equal(enum.binding, agent.capacity_binding(sk, enum.point_id))
        per_contract = np.zeros(len(contracts), dtype=bool)
        np.logical_or.at(per_contract, enum.contract_id, enum.binding)
        expect = [agent.grid_best_response(sk, u).any_binding for u in contracts]
        assert per_contract.tolist() == expect
        flags.update(expect)

    enum = None
    for k in ks:
        enum = Enumeration(s.at_capacity(k), below=enum)
        check(enum)
    check(Enumeration(s))
    balls = []
    scan_balls = agent.scan_balls
    monkeypatch.setattr(agent, "scan_balls", lambda *a: balls.append(1) or scan_balls(*a))
    monkeypatch.setattr(agent, "_CHUNK", len(contracts) * len(feasible_lattice(s)[0]) - 1)
    check(Enumeration(s))
    assert balls == [1]
    assert flags == {False, True}


def scan_whole_matrix(payoffs, points, costs, tol_u):
    """Reference scan: one value matrix, ties by 2-D nonzero."""
    vals = payoffs @ points.T - costs[None, :]
    best = vals.max(axis=1)
    ri, pi = np.nonzero(vals >= best[:, None] - tol_u)
    return ri, pi, vals[ri, pi], best


def dyadic_scan_case(rows, n, m=8, seed=0):
    # payoffs and coordinates in multiples of 1/8 and costs in multiples of
    # 1/64: every value is a small multiple of 1/64, so each matmul is exact
    # whatever the block height and the scan must match the reference bit
    # for bit
    rng = np.random.default_rng(seed)
    points = simplex_lattice(n, m)
    payoffs = rng.integers(-8, 9, size=(rows, n)) / 8.0
    costs = rng.integers(0, 16, size=len(points)) / 64.0
    return payoffs, points, costs


def flat_scan_case():
    payoffs, points, _ = dyadic_scan_case(9, 3)
    payoffs[[0, 4, 8]] = [[0.0, 0.0, 0.0], [0.5, 0.5, 0.5], [-1.0, -1.0, -1.0]]
    return payoffs, points, np.zeros(len(points))


SCAN_REFERENCE_CASES = {
    "dyadic": lambda: dyadic_scan_case(37, 3),
    # n = 5, m = 8: 495 points, so the default block splits 1001 rows in four
    "dyadic-blocks": lambda: dyadic_scan_case(1001, 5, seed=1),
    "flat-rows": flat_scan_case,
    "one-point": lambda: (np.arange(-2, 3)[:, None] / 8.0, simplex_lattice(1, 8), np.array([0.25])),
    "one-row": lambda: dyadic_scan_case(1, 4, seed=3),
}


def scan_at_heights(monkeypatch, payoffs, points, costs, tol_u):
    """``scan_grid``'s result at each block height: the default block, one
    row, two rows (an odd row count leaves the last block a single row) and
    one block holding the whole matrix."""
    got = {"default": agent.scan_grid(payoffs, points, costs, tol_u)}
    for name, rows in (("one row", 1), ("two rows", 2), ("whole", len(payoffs))):
        with monkeypatch.context() as mp:
            set_scan_block(mp, rows * len(points))
            assert agent._block_rows(len(points)) == rows
            got[name] = agent.scan_grid(payoffs, points, costs, tol_u)
    return got


@pytest.mark.parametrize("case", sorted(SCAN_REFERENCE_CASES))
def test_scan_grid_equals_whole_matrix_reference(case, monkeypatch):
    # every value is exact, so every block height gives the reference's bits
    payoffs, points, costs = SCAN_REFERENCE_CASES[case]()
    tol_u = 1.0 / 64
    ri, pi, values, best = scan_whole_matrix(payoffs, points, costs, tol_u)
    if case == "dyadic":
        assert np.any(values == best[ri] - tol_u)  # a tie exactly at tol_u
    if case == "dyadic-blocks":
        assert 1 < -(-len(payoffs) // agent._block_rows(len(points))) < len(payoffs)
    if case == "flat-rows":
        assert all(np.count_nonzero(ri == r) == len(points) for r in (0, 4, 8))
    assert len(payoffs) % 2 == 1
    for height, got in scan_at_heights(monkeypatch, payoffs, points, costs, tol_u).items():
        assert [a.dtype for a in got] == [ri.dtype, pi.dtype, values.dtype], height
        assert np.array_equal(got[0], ri) and np.array_equal(got[1], pi), height
        assert got[2].tobytes() == values.tobytes(), height


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_scan_grid_tie_sets_do_not_depend_on_the_block_height(n, monkeypatch):
    # inexact values: a block height may round a value differently in the
    # last bit (one-row blocks, matrix-vector products, move some here), but
    # no tie may come or go; a value within 1e-12 of its cut could, so a
    # case holding one is skipped
    rng = np.random.default_rng(n)
    points = simplex_lattice(n, {2: 2000, 3: 60, 4: 20, 5: 12}[n])
    payoffs = rng.normal(size=(301, n))
    costs = rng.random(len(points)) * 0.2
    tol_u = 0.02
    assert 1 < -(-len(payoffs) // agent._block_rows(len(points))) < len(payoffs)
    vals = payoffs @ points.T - costs
    near = np.count_nonzero(np.abs(vals - tie_floor(vals.max(axis=1), tol_u)[:, None]) <= 1e-12)
    if near:
        pytest.skip(f"{near} values within 1e-12 of their row's cut")
    got = scan_at_heights(monkeypatch, payoffs, points, costs, tol_u)
    ri, pi, values = got.pop("whole")
    assert len(ri) > len(payoffs)  # some rows tie at several points
    for height, (r, p, v) in got.items():
        assert np.array_equal(r, ri) and np.array_equal(p, pi), height
        assert np.abs(v - values).max() <= 1e-12, height


def test_scan_grid_holds_one_cache_sized_block():
    # 2^21 values over 8192 points: the scan's own allocations peak at about
    # one 2^17-value block (1 MB) and its tie mask, not at 2^21 values
    rng = np.random.default_rng(0)
    points = rng.dirichlet(np.ones(3), size=8192)
    payoffs = rng.normal(size=(256, 3))
    costs = rng.random(len(points)) * 0.1
    tracemalloc.start()
    try:
        got = agent.scan_grid(payoffs, points, costs, 1e-9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5e6 + sum(a.nbytes for a in got)


def test_scan_grid_values_are_each_blocks_matmul(monkeypatch):
    # the value buffer is reused from block to block; each block's values
    # must be that block's own matmul, bit for bit, and the last block is
    # shorter than the buffer
    s = entropy_cara3()
    ids, _ = feasible_lattice(s)
    points, costs = s.lattice.points[ids], s.lattice.costs[ids]
    payoffs = s.lattice.util
    rows_per_block = 5
    assert len(payoffs) % rows_per_block
    set_scan_block(monkeypatch, rows_per_block * len(points))
    ri, pi, values = agent.scan_grid(payoffs, points, costs, s.tol_u)
    ref = np.concatenate([
        payoffs[start:start + rows_per_block] @ points.T - costs
        for start in range(0, len(payoffs), rows_per_block)
    ])
    assert ref[ri, pi].tobytes() == values.tobytes()
    best = ref.max(axis=1)
    expect_r, expect_p = np.nonzero(ref >= best[:, None] - s.tol_u)
    assert np.array_equal(ri, expect_r) and np.array_equal(pi, expect_p)


# -- continuous route -------------------------------------------------------


def test_convex_entropy_closed_form():
    s = two_state(RelativeEntropyCost(1.0, (0.5, 0.5)), 5.0)
    br = best_response_convex(s, (0.0, 0.5))
    # unconstrained argmax of p.u - KL is the softmax tilt of q0
    ph = math.exp(0.5) / (1.0 + math.exp(0.5))
    assert br.maximizers[0].probs[1] == pytest.approx(ph, abs=1e-10)
    assert not br.any_binding


def test_convex_entropy_binding_capacity():
    s = two_state(RelativeEntropyCost(1.0, (0.5, 0.5)), 0.02)
    br = best_response_convex(s, (0.0, 1.0))
    c = s.cost.value(np.array(br.maximizers[0].probs))
    assert c <= 0.02 + 1e-12
    assert br.any_binding


def test_convex_quadratic_matches_grid_value():
    for seed in range(10):
        sc, b = smooth_scenario(seed)
        grid = best_response_grid(sc, b)
        conv = best_response_convex(sc, b)
        assert abs(conv.value - grid.value) <= 2.0 / sc.m
        c = sc.cost.value(np.array(conv.maximizers[0].probs))
        assert c <= sc.capacity + 1e-9


def test_convex_capacity_root_stays_feasible():
    # small-queries seed-1 op 484: a root aimed at k + FEASIBILITY_SLACK
    # lands 6.9e-18 past it, outside the feasibility rule
    s = Scenario(
        states=StateSpace(("L", "H")),
        y=OutputFunction((0.0, 0.66)),
        cost=QuadraticCost(((0.5, 0.25), (0.25, 0.5)), (0.5, 0.5)),
        capacity=0.053439349112426024,
        family=SMOOTH_FAMILY,
        utility=AgentUtility("risk_neutral"),
        reservation=0.0,
        m=52,
    )
    br = best_response_convex(s, (0.0, 0.33))
    assert br.any_binding
    assert feasible_mask(s.cost.value(br.points()[0]), s.capacity)


def assert_settles_on_grid(sc, b):
    """The continuous response is feasible and no worse than the lattice's."""
    conv = best_response_convex(sc, b)
    assert feasible_mask(sc.cost.value(conv.points()[0]), sc.capacity)
    assert conv.value >= best_response_grid(sc, b).value - sc.tol_u


FLAT_Q = {
    "zero": ((0.0, 0.0), (0.0, 0.0)),
    "one-axis": ((1.0, 0.0, 0.0), (0.0, 0.0, 0.0), (0.0, 0.0, 0.0)),
    "tied-pair": ((1.0, 1.0, 0.0), (1.0, 1.0, 0.0), (0.0, 0.0, 1.0)),
    "all-ones": ((1.0,) * 3,) * 3,
}


@pytest.mark.parametrize("name", FLAT_Q)
@pytest.mark.parametrize("binding", [False, True])
def test_convex_singular_q_matches_grid(name, binding):
    # Q is singular on the sum-zero subspace, so the cost is flat along some
    # direction of the simplex; the value there is linear and its optimum
    # sits on a vertex-side face (Q = 0: 0.3, not the midpoint's 0.15)
    Q = FLAT_Q[name]
    n = len(Q)
    q0 = (0.5, 0.5) if n == 2 else (0.2, 0.3, 0.5)
    b = (0.0, 0.3) if n == 2 else (0.3, 0.1, 0.6)
    sc = quadratic_scenario(Q, q0)
    if binding:
        costs = sc.cost.value_many(simplex_lattice(n, sc.m))
        sc = quadratic_scenario(Q, q0, k=float(np.quantile(costs, 0.25, method="lower")))
    assert agent.strong_concavity(sc.cost) is None
    assert_settles_on_grid(sc, b)


def test_convex_singular_q_panel():
    for seed in range(40):
        sc, b = flat_quadratic_case(seed)
        assert agent.strong_concavity(sc.cost) is None
        assert_settles_on_grid(sc, b)


def test_convex_active_set_does_not_cycle():
    # changing every violated index at once cycles through four faces here;
    # past n steps the active set changes only the lowest one
    R = np.array([[0.2, 0.3, 0.7, 0.0], [-1.9, 1.6, 0.1, -0.7], [-0.8, 0.7, 1.1, -0.2], [0.8, -0.6, 1.1, 0.7]])
    sc = quadratic_scenario(R @ R.T, (0.33, 0.2, 0.16, 0.31))
    assert agent.strong_concavity(sc.cost) is not None
    assert_settles_on_grid(sc, (-0.3, -0.5, 1.0, 0.8))


def test_convex_solves_few_faces_at_large_n(monkeypatch):
    # 16 states: the simplex has 2^16 faces, the active set visits a handful
    n = 16
    rng = np.random.default_rng(4)
    Q = np.diag(rng.uniform(0.5, 2.0, n))
    Q[0, 1] = Q[1, 0] = 0.25
    q0 = np.zeros(n)
    q0[:2] = 0.5
    s = quadratic_scenario(Q, q0, k=0.3, m=2)
    assert agent.strong_concavity(s.cost) is not None
    assert len(s.lattice.points) == 136
    solved = []
    faces = agent._quadratic_faces

    def counted(Q, q0, masks, flat):
        solved.append(masks.size)
        return faces(Q, q0, masks, flat)

    monkeypatch.setattr(agent, "_quadratic_faces", counted)
    b = 2.0 * s.y.as_array() + rng.uniform(0.0, 0.2, n)
    br = best_response_convex(s, b)
    assert br.any_binding and min(br.points()[0]) == 0.0
    assert 1 < sum(solved) <= n * n
    assert br.value >= best_response_grid(s, b).value - s.tol_u


def test_convex_unsettled_row_raises(monkeypatch, tmp_path):
    # binding on an edge: the whole-simplex step leaves a negative weight,
    # so the active set needs a second step to settle
    s = quadratic_scenario(0.1 * np.eye(3), (1 / 3, 1 / 3, 1 / 3), k=0.04, m=30)
    b = 0.5 * s.y.as_array()
    br = best_response_convex(s, b)
    assert br.any_binding and br.points()[0][0] == 0.0
    monkeypatch.setattr(agent, "_FACE_STEPS", 1)
    with pytest.raises(ConvergenceError):
        best_response_convex(s, b)
    # the kkt command seeds from this response to b = 0.5 y
    path = tmp_path / "scenario.json"
    save_scenario(s, path)
    assert main(["kkt", "--scenario", str(path), "--out", str(tmp_path / "out")]) == 6


@pytest.mark.parametrize("cost", [QuadraticCost(((1.0, 0.0), (0.0, 1.0)), (0.5, 0.5)),
                                  RelativeEntropyCost(1.0, (0.5, 0.5))])
def test_convex_capacity_below_least_cost(cost):
    with pytest.raises(EmptyFeasibleSetError):
        best_response_convex(two_state(cost, -0.01), (0.0, 0.5))


@pytest.mark.parametrize("k", [-1e-12, -9e-13, -6e-13, -5.1e-13, -4.9e-13])
def test_convex_capacity_just_below_least_cost(k, tmp_path, capsys):
    # validation accepts k within FEASIBILITY_SLACK of the least cost 0, but
    # k + FEASIBILITY_SLACK / 2 is below it for all but the last k; at the
    # first, only the least-cost point is feasible
    s = share_scenario(k)
    validate_scenario(s)
    br = best_response_convex(s, (0.0, 0.5))
    p = np.array(br.maximizers[0].probs)
    assert feasible_mask(s.cost.value(p), k)
    assert np.abs(p - 0.5).max() <= 1e-6
    # the kkt seed settles; the stationarity solve then meets the
    # rank-deficient Jacobian it meets at k = 0
    path = tmp_path / "scenario.json"
    save_scenario(s, path)
    assert main(["kkt", "--scenario", str(path), "--out", str(tmp_path / "out")]) == 6
    assert "rank deficient" in capsys.readouterr().err


@pytest.mark.xfail(raises=ConvergenceError, reason=(
    "no duality bound over a least-cost face with more than one point"))
def test_flat_quadratic_capacity_just_below_least_cost():
    # Q is zero on the simplex, so every point has the least cost 0 and is
    # feasible at k = -1e-12; -9.99e-13 is answered
    s = two_state(QuadraticCost(((1.0, 1.0), (1.0, 1.0)), (0.5, 0.5)), -1e-12, m=100)
    validate_scenario(s)
    br = best_response_convex(s, (0.0, 0.5))
    assert br.maximizers[0].probs == (0.0, 1.0)


def test_convex_capacity_past_the_slack_is_empty():
    s = share_scenario(-1.2e-12)
    with pytest.raises(ValidationError, match=r"^capacity -1\.2e-12: feasible distribution set empty$"):
        validate_scenario(s)
    with pytest.raises(EmptyFeasibleSetError):
        best_response_convex(s, (0.0, 0.5))


def test_convex_rejects_table_cost():
    pts = simplex_lattice(2, 10)
    table = TableCost(tuple(map(tuple, pts)), tuple(float(i) for i in range(len(pts))))
    s = two_state(table, 100.0)
    with pytest.raises(UnsupportedCostError):
        best_response_convex(s, (0.0, 0.5))


# -- first-order condition --------------------------------------------------


def test_foc_residual_hand_case():
    s = two_state(QuadraticCost(((1.0, 0.0), (0.0, 1.0)), (0.0, 0.0)), 2.0)
    res = agent_foc_residual(s, (0.0, 0.0), (0.5, 0.5), rho=-1.0, mu=0.0)
    assert res.residual == (0.0, 0.0)
    assert res.max_abs == 0.0
    assert res.capacity_slack == pytest.approx(1.5, abs=1e-12)
    assert res.complementarity_gap == 0.0
    assert res.slack


def test_foc_residual_wrong_multiplier_is_nonzero():
    s = two_state(QuadraticCost(((1.0, 0.0), (0.0, 1.0)), (0.0, 0.0)), 2.0)
    res = agent_foc_residual(s, (0.0, 0.0), (0.5, 0.5), rho=0.0, mu=0.0)
    assert res.residual == (-1.0, -1.0)
    assert res.max_abs == 1.0


def test_foc_residual_guards():
    s = two_state(QuadraticCost(((1.0, 0.0), (0.0, 1.0)), (0.0, 0.0)), 2.0)
    with pytest.raises(ConfigurationError):
        agent_foc_residual(s, (0.0, 0.0), (0.5, 0.5), rho=0.0, mu=-0.5)
    ent = two_state(RelativeEntropyCost(1.0, (0.5, 0.5)), 2.0)
    with pytest.raises(InteriorityError):
        agent_foc_residual(ent, (0.0, 0.0), (1.0, 0.0), rho=0.0, mu=0.0)
    pts = simplex_lattice(2, 10)
    table = TableCost(tuple(map(tuple, pts)), tuple(0.0 for _ in pts))
    with pytest.raises(DifferentiabilityError):
        agent_foc_residual(two_state(table, 2.0), (0.0, 0.0), (0.5, 0.5), rho=0.0, mu=0.0)


def test_fit_multipliers_at_convex_optimum():
    for seed in range(10):
        sc, b = smooth_scenario(seed)
        p = best_response_convex(sc, b).maximizers[0]
        if min(p.probs) <= 1e-9:
            continue
        rho, mu = fit_agent_multipliers(sc, b, p)
        assert mu >= 0.0
        res = agent_foc_residual(sc, b, p, rho, mu)
        assert res.max_abs <= 1e-6


def test_fit_multipliers_clamps_negative_mu():
    s = two_state(QuadraticCost(((1.0, 0.0), (0.0, 1.0)), (0.5, 0.5)), 2.0)
    rho, mu = fit_agent_multipliers(s, (0.0, 0.0), (0.5, 0.5))
    assert mu == 0.0
    assert rho == pytest.approx(0.0, abs=1e-12)
