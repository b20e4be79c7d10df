"""Shared scenario builders and independent oracles for the test suite.

The builders here are the fixed instances every module test and the
acceptance checks run against; the oracles (brute-force Pareto scan, the
slack chain of one profile pair, finite differences) are written
independently of the package internals so the tests have something to
disagree with.
"""

import dataclasses
import math
import types

import numpy as np
import pytest

from agentcap import agent
from agentcap.discounting import DatedSchedule, DiscountPair
from agentcap.model import (
    AgentUtility,
    Contract,
    DebtFamily,
    Distribution,
    EffortCost,
    GridFamily,
    LinearShareFamily,
    LiveOrDieFamily,
    OutputFunction,
    Profile,
    QuadraticCost,
    RelativeEntropyCost,
    Scenario,
    StateSpace,
    TableCost,
    check_alpha,
    cost,
    feasible_mask,
    simplex_lattice,
)
from agentcap.errors import (
    ConfigurationError,
    EmptySelectionError,
    InteriorityError,
    SingularJacobianError,
    UnsupportedCostError,
    ValidationError,
)
from agentcap.pareto import Enumeration, _cluster_levels, capacity_chain
from agentcap.scaling import DEFAULT_EPS_ALPHA, AlphaStarResult, InequalitySlacks, alpha_star


def chain(s, ks, budget=None):
    """The enumerations of ``s`` at the sorted ``ks`` from one
    ``capacity_chain``, as a sweep builds them; every capacity must pass."""
    enums, failure = capacity_chain(s, sorted(ks), budget)
    assert failure is None, failure
    return enums


def dyadic_scenario(capacity=10.0):
    """Three states, payments and coordinates in multiples of 1/8 and an
    identity Q: every agent value is a multiple of 1/64 and exact, so a tie
    can sit exactly at its row's best value less tol_u."""
    payments = (0.0, 0.25, 0.5, 0.875)
    return Scenario(
        states=StateSpace(("a", "b", "c")),
        y=OutputFunction((0.0, 0.5, 1.0)),
        cost=QuadraticCost(((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)), (0.375, 0.375, 0.25)),
        capacity=capacity,
        family=GridFamily((payments, payments, payments)),
        utility=AgentUtility("risk_neutral"),
        reservation=0.0,
        m=8,
        tol_u=1.0 / 64,
    )


def replayed_chain(s, ks):
    """The capacity chain of ``s`` at the sorted ``ks`` replayed link by
    link, as each capacity was once built on the one below: a fresh
    enumeration first, then per capacity one ``agent.scan_grid`` of every
    contract against the points feasible there but not at the capacity
    below, from the best values carried up, keeping the lower ties that
    still reach the new floor and sorting the joined ties by (contract,
    point). Returns (contract ids, point ids, values, row_max, evaluations)
    per capacity."""
    util, points, costs = s.lattice.util, s.lattice.points, s.lattice.costs
    links, below = [], None
    for k in sorted(ks):
        sk = s.at_capacity(k)
        if below is None:
            e = Enumeration(sk)
            links.append((e.contract_id, e.point_id, e.agent_u, e.row_max, e.evaluations))
        else:
            cid, pid, vals, row_max, _ = links[-1]
            ids, _ = agent.feasible_lattice(sk)
            new = ids[~feasible_mask(costs[ids], below)]
            row_max = row_max.copy()
            if new.size:
                ci, pi, v = agent.scan_grid(util, points[new], costs[new], sk.tol_u, row_max)
                keep = vals >= row_max[cid] - sk.tol_u
                cid = np.concatenate((cid[keep], ci))
                pid = np.concatenate((pid[keep], new[pi]))
                vals = np.concatenate((vals[keep], v))
                order = np.argsort(cid * len(points) + pid, kind="stable")
                cid, pid, vals = cid[order], pid[order], vals[order]
            links.append((cid, pid, vals, row_max, len(util) * new.size))
        below = k
    return links


def set_scan_block(monkeypatch, values):
    """Shape ``agent.scan_grid``'s blocks for one test: ``values // points``
    rows each, with no row floor but at least one row, and at most
    ``agent._CHUNK`` values. The ball route's threshold, ``_CHUNK``, keeps
    its value."""
    monkeypatch.setattr(agent, "_SCAN_BLOCK", values)
    monkeypatch.setattr(agent, "_SCAN_ROWS", 1)


# ---------------------------------------------------------------------------
# Deterministic instances


def tangent_slopes():
    """Slope grid for the tangent family: a coarse sweep plus fine windows
    ending at 0.2, 0.4, and 0.6 in steps of 0.002."""
    coarse = np.arange(0.0, 1.0001, 0.2)
    windows = [2 * r - 0.002 * np.arange(0, 9) for r in (0.1, 0.2, 0.3)]
    s = np.unique(np.round(np.concatenate([coarse, *windows]), 12))
    return s[(s >= 0) & (s <= 1 + 1e-12)]


def tangent_scenario(k, m=1000):
    """Two states, c(p) = p_H^2, per-state payment grids built from tangents.

    For each slope s the line through the agent's unconstrained optimum
    p_H = s/2 (snapped to the lattice) has intercepts (-v, s - v) with
    v = s*phat - phat^2, and both intercept grids go into a product family.
    Every diagonal member gives the agent utility exactly 0 at its tangency
    point, so with reservation 0 the selection tracks the tangency points and
    capacity starts to bind at output scale 2*sqrt(k). The grids do not
    depend on k, which keeps capacity sweeps on a fixed family.
    """
    return _tangent_family(tangent_slopes(), k, m)


def dense_tangent_scenario(k, m):
    """``tangent_scenario``'s construction on a dense window of 17 slopes
    s = 2 sqrt(k) + 2j/m, j = -12..4, spaced two lattice steps apart around
    the paper's threshold 2 sqrt(k). At a generic k (no lattice cost near
    it) the lattice threshold can follow 2 sqrt(k) only through these
    slopes, so this is the family on which it should converge as m grows."""
    return _tangent_family(2 * math.sqrt(k) + 2 * np.arange(-12, 5) / m, k, m)


def _tangent_family(s, k, m):
    """The tangent scenario at capacity k on the slopes ``s``."""
    phat = np.round(s / 2 * m) / m
    v = s * phat - phat**2
    return Scenario(
        states=StateSpace(("L", "H")),
        y=OutputFunction((0.0, 1.0)),
        cost=QuadraticCost(((0.0, 0.0), (0.0, 1.0)), (0.0, 0.0)),
        capacity=float(k),
        family=GridFamily(
            (tuple(float(x) for x in -v), tuple(float(x) for x in s - v))
        ),
        utility=AgentUtility("risk_neutral"),
        reservation=0.0,
        m=m,
    )


def ladder_scenario(k=0.04, m=100):
    """Two states, c(p) = p_H^2, zero payment in the low state and b_H on a
    0.1 ladder. Small enough to check frontiers by hand."""
    return Scenario(
        states=StateSpace(("L", "H")),
        y=OutputFunction((0.0, 1.0)),
        cost=QuadraticCost(((0.0, 0.0), (0.0, 1.0)), (0.0, 0.0)),
        capacity=float(k),
        family=GridFamily(
            ((0.0,), tuple(float(v) for v in np.round(np.arange(0.0, 1.001, 0.1), 12)))
        ),
        utility=AgentUtility("risk_neutral"),
        reservation=0.0,
        m=m,
    )


SHARE_WS = tuple(float(w) for w in np.round(np.arange(-1.0, 0.5, 0.025), 12))
SHARE_FAMILY = LinearShareFamily((0.0, 0.25, 0.5, 0.75, 1.0), SHARE_WS)


def share_scenario(k, m=100):
    """Two states with an isotropic quadratic cost centered at uniform and a
    dense linear-share family; the smooth benchmark for the stationarity
    solver."""
    return Scenario(
        states=StateSpace(("L", "H")),
        y=OutputFunction((0.0, 1.0)),
        cost=QuadraticCost(((1.0, 0.0), (0.0, 1.0)), (0.5, 0.5)),
        capacity=float(k),
        family=SHARE_FAMILY,
        utility=AgentUtility("risk_neutral"),
        reservation=0.0,
        m=m,
    )


def table_scenario():
    """Two states, a table cost p_H^2 listed at every point of the m = 8
    lattice, a debt family and a CRRA agent."""
    pts = simplex_lattice(2, 8)
    return Scenario(
        states=StateSpace(("L", "H")),
        y=OutputFunction((0.0, 1.0)),
        cost=TableCost(tuple(map(tuple, pts)), tuple(float(p[1] ** 2) for p in pts)),
        capacity=0.5,
        family=DebtFamily((0.0, 0.5)),
        utility=AgentUtility("crra", gamma=2.0),
        reservation=0.0,
        m=8,
    )


def effort_scenario():
    """Two states, an effort cost whose two levels induce its only points,
    a live-or-die family and a shifted log agent."""
    return Scenario(
        states=StateSpace(("L", "H")),
        y=OutputFunction((0.0, 1.0)),
        cost=EffortCost((0.0, 1.0), ((0.9, 0.1), (0.4, 0.6)), (0.0, 0.3)),
        capacity=0.5,
        family=LiveOrDieFamily((0.5,)),
        utility=AgentUtility("crra", gamma=1.0, shift=2.0),
        reservation=0.0,
        m=8,
    )


def share_scenario3(k, m=100):
    """Three-state sibling of share_scenario."""
    return Scenario(
        states=StateSpace(("L", "M", "H")),
        y=OutputFunction((0.0, 0.5, 1.0)),
        cost=QuadraticCost(
            ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)),
            (1 / 3, 1 / 3, 1 / 3),
        ),
        capacity=float(k),
        family=SHARE_FAMILY,
        utility=AgentUtility("risk_neutral"),
        reservation=0.0,
        m=m,
    )


# ---------------------------------------------------------------------------
# Randomized panels; fixed seeds, explicit rejection rules


def random_share_scenario(seed):
    """One candidate scenario per seed, or (None, reason) when rejected.

    Rejections keep the panel clean for exact set comparisons: a capacity at
    the bottom of the cost range, agent-utility gaps inside the tolerance
    gray zone (1e-13, 1e-6), frontiers with fewer than three levels, and
    thresholds pinned near 0 or 1 are all discarded.
    """
    rng = np.random.default_rng(seed)
    n = int(rng.choice([2, 3]))
    m = int(rng.choice([40, 60]))
    incs = rng.uniform(0.3, 1.0, n - 1)
    y = tuple(np.concatenate([[0.0], np.cumsum(np.round(incs, 2))]))
    for _ in range(50):
        d = rng.choice([0.5, 1.0, 1.5, 2.0], n)
        q = np.diag(d)
        for i in range(n):
            for j in range(i + 1, n):
                o = rng.choice([-0.25, 0.0, 0.25])
                q[i, j] = q[j, i] = o
        if np.linalg.eigvalsh(q).min() >= 0.1:
            break
    counts = rng.multinomial(m, np.ones(n) / n)
    q0 = tuple(counts / m)
    betas = tuple(sorted(set(np.round(rng.choice(np.arange(0.0, 1.01, 0.02), 6), 12))))
    ws = tuple(sorted(set(np.round(rng.choice(np.arange(-0.5, 0.5, 0.025), 6), 12))))
    cost = QuadraticCost(tuple(map(tuple, q)), q0)
    sc = Scenario(
        states=StateSpace(tuple(f"s{i}" for i in range(n))),
        y=OutputFunction(y),
        cost=cost,
        capacity=1.0,
        family=LinearShareFamily(betas, ws),
        utility=AgentUtility("risk_neutral"),
        reservation=0.0,
        m=m,
    )
    costs = cost.value_many(simplex_lattice(n, m))
    qk = float(rng.uniform(0.3, 0.7))
    k = float(np.quantile(costs, qk, method="lower"))
    if k <= 1e-9:
        return None, "k ~ 0"
    sc = dataclasses.replace(sc, capacity=k)

    enum = Enumeration(sc)
    gaps = np.diff(np.sort(enum.agent_u))
    if ((gaps > 1e-13) & (gaps < 1e-6)).any():
        return None, "gray-zone utility gaps"
    levels = enum.pareto_at(1.0).agent_utility_levels
    if len(levels) < 3:
        return None, "too few frontier levels"
    r = float(levels[int(0.4 * len(levels))])
    sc = dataclasses.replace(sc, reservation=r)
    res = alpha_star(sc)
    if not 0.1 <= res.alpha_star <= 0.95:
        return None, f"alpha*={res.alpha_star:.3f}"
    return sc, ""


def collect_random_scenarios(count=20, seed_cap=2000):
    out = []
    seed = 0
    while len(out) < count and seed < seed_cap:
        sc, _ = random_share_scenario(seed)
        if sc is not None:
            out.append((seed, sc))
        seed += 1
    return out


@pytest.fixture(scope="session")
def random_scenario_panel():
    panel = collect_random_scenarios()
    assert len(panel) == 20, "the fixed-seed walk must yield a full panel"
    return panel


SMOOTH_FAMILY = LinearShareFamily((0.0, 0.5, 1.0), (0.0,))


def smooth_scenario(seed):
    """Smooth convex cost with an interior-leaning optimum; returns the
    scenario and a contract to best-respond to."""
    rng = np.random.default_rng(seed)
    n = int(rng.choice([2, 3]))
    m = 50
    y = tuple(np.linspace(0.0, 1.0, n))
    counts = rng.multinomial(m, np.ones(n) / n)
    q0 = tuple(np.maximum(counts, 1) / np.maximum(counts, 1).sum())
    if seed % 5 < 3:
        cost = RelativeEntropyCost(float(rng.uniform(0.5, 2.0)), q0)
    else:
        d = rng.uniform(2.0, 4.0, n)
        cost = QuadraticCost(tuple(map(tuple, np.diag(d))), q0)
    k = float(np.quantile(cost.value_many(simplex_lattice(n, m)), 0.9))
    b = tuple(np.round(rng.uniform(0.0, 0.2, n), 3))
    sc = Scenario(
        states=StateSpace(tuple(f"s{i}" for i in range(n))),
        y=OutputFunction(y),
        cost=cost,
        capacity=k,
        family=SMOOTH_FAMILY,
        utility=AgentUtility("risk_neutral"),
        reservation=0.0,
        m=m,
    )
    return sc, b


def quadratic_scenario(Q, q0, k=None, m=20, y=None):
    """Risk-neutral scenario on the quadratic cost (Q, q0); Q may be
    singular on the simplex's sum-zero subspace, so that the cost is flat
    along some direction that keeps the total mass. ``k`` defaults to the
    largest lattice cost (capacity slack everywhere), ``y`` to evenly
    spaced outputs on [0, 1]."""
    n = len(q0)
    cost = QuadraticCost(tuple(map(tuple, np.asarray(Q, dtype=float))), tuple(q0))
    if k is None:
        k = float(cost.value_many(simplex_lattice(n, m)).max())
    return Scenario(
        states=StateSpace(tuple(f"s{i}" for i in range(n))),
        y=OutputFunction(tuple(np.linspace(0.0, 1.0, n)) if y is None else tuple(y)),
        cost=cost,
        capacity=float(k),
        family=SMOOTH_FAMILY,
        utility=AgentUtility("risk_neutral"),
        reservation=0.0,
        m=m,
    )


def flat_quadratic_case(seed):
    """A seeded rank-deficient quadratic: n in 2..5 and Q = R R' + a 11'
    with R of rank at most n - 2, so Q is singular on the sum-zero
    subspace. Even seeds leave the capacity slack, odd seeds set it at the
    lattice costs' lower quartile. Returns the scenario and a contract."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 6))
    R = np.round(rng.normal(size=(n, int(rng.integers(0, n - 1)))), 2)
    Q = R @ R.T + float(rng.choice([0.0, 0.5])) * np.ones((n, n))
    m = {2: 40, 3: 30, 4: 20, 5: 12}[n]
    q0 = tuple(rng.multinomial(m, np.ones(n) / n) / m)
    sc = quadratic_scenario(Q, q0, m=m)
    if seed % 2:
        costs = sc.cost.value_many(simplex_lattice(n, m))
        sc = dataclasses.replace(sc, capacity=float(np.quantile(costs, 0.25, method="lower")))
    return sc, tuple(np.round(rng.uniform(0.0, 1.0, n), 3))


def dated_case(seed):
    """A single-date contracting instance: scenario, discount pair, the
    two-date schedule, the date carrying the payments, and the flat payment
    vector."""
    rng = np.random.default_rng(1000 + seed)
    n = int(rng.choice([2, 3]))
    m = int(rng.choice([30, 50]))
    y = tuple(np.linspace(0.0, 1.0, n))
    counts = np.maximum(rng.multinomial(m, np.ones(n) / n), 1)
    q0 = tuple(counts / counts.sum())
    cost = RelativeEntropyCost(float(rng.uniform(0.5, 2.0)), q0)
    k = float(np.quantile(cost.value_many(simplex_lattice(n, m)), 0.8))
    sc = Scenario(
        states=StateSpace(tuple(f"s{i}" for i in range(n))),
        y=OutputFunction(y),
        cost=cost,
        capacity=k,
        family=SMOOTH_FAMILY,
        utility=AgentUtility("risk_neutral"),
        reservation=0.0,
        m=m,
    )
    date = int(rng.integers(0, 2))
    delta_a = float(rng.choice([0.3, 0.5, 0.8, 1.0]))
    d = DiscountPair(1.0, delta_a)
    b = rng.uniform(-0.3, 0.4, n)
    rows = [b * 0.0, b * 0.0]
    rows[date] = b
    b2 = DatedSchedule((tuple(rows[0]), tuple(rows[1])))
    return sc, d, b2, date, b


# ---------------------------------------------------------------------------
# Independent oracles


def brute_pareto_keep(agent, principal, tol):
    """Quadratic-time dominance scan: q beats x when q is strictly better
    than tol in one payoff and no worse than tol in the other. Python floats
    compare as the float64 values they hold, and are faster to index."""
    agent = np.asarray(agent, dtype=float).tolist()
    principal = np.asarray(principal, dtype=float).tolist()
    n = len(agent)
    keep = np.ones(n, dtype=bool)
    for i in range(n):
        for j in range(n):
            better_a = agent[j] > agent[i] + tol and principal[j] >= principal[i] - tol
            better_p = principal[j] > principal[i] + tol and agent[j] >= agent[i] - tol
            if better_a or better_p:
                keep[i] = False
                break
    return keep


def frontier_oracle(agent, principal, tol):
    """The frontier in row order: the rows ``brute_pareto_keep`` keeps,
    sorted by agent utility, then principal payoff, both descending, then
    row index ascending, and the clustered agent-utility levels of those
    rows."""
    agent, principal = np.asarray(agent, dtype=float), np.asarray(principal, dtype=float)
    keep = np.flatnonzero(brute_pareto_keep(agent, principal, tol))
    rows = keep[np.lexsort((keep, -principal[keep], -agent[keep]))]
    return rows, _cluster_levels(agent[keep], tol)


def agent_order_oracle(enum):
    """``enum.agent_order``'s fields the long way, as a dict by name: the
    stable argsort by agent utility, each field gathered in that order,
    then the padding position; every position's weak and strict sets from
    a full search of the sorted utilities, counted from the row's end; and
    the cuts, positions further than tol above their lower neighbour."""
    tol = enum.scenario.tol_u
    order = np.argsort(enum.agent_u, kind="stable")
    a = enum.agent_u[order]
    n = a.size
    pad = {"order": 0, "agent": np.nan, "weak": 0, "strict": 0, "output": 0.0, "payment": np.inf,
           "binding": False}
    fields = {
        "order": order,
        "agent": a,
        "weak": n - np.searchsorted(a, a - tol, side="left"),
        "strict": n - np.searchsorted(a, a + tol, side="right"),
        "output": enum.exp_output[order],
        "payment": enum.exp_payment[order],
        "binding": enum.binding[order],
    }
    got = {name: np.append(v, np.array(pad[name], v.dtype))[None] for name, v in fields.items()}
    got["cuts"] = np.array([0, *(i for i in range(1, n) if a[i] - a[i - 1] > tol and a[i] - tol > a[i - 1])])
    return got


def assert_agent_order_matches_oracle(enum):
    """``enum.agent_order`` equals ``agent_order_oracle`` of ``enum``, field
    for field, dtypes included."""
    got, want = enum.agent_order, agent_order_oracle(enum)
    assert got.tol == enum.scenario.tol_u
    for name, value in want.items():
        assert np.array_equal(getattr(got, name), value, equal_nan=True), name
        assert getattr(got, name).dtype == value.dtype, name


def selection_ids_oracle(enum, alpha, r):
    """``Enumeration.selection_ids`` the long way: the Pareto mask over every
    row, every clustered level of the kept agent utilities, then the lowest
    level >= r - tol and the kept rows within tol of it, ascending."""
    tol = enum.scenario.tol_u
    keep = np.flatnonzero(enum.pareto_mask(alpha))
    agent = enum.agent_u[keep]
    levels = _cluster_levels(agent, tol)
    qualifying = levels[levels >= r - tol]
    if qualifying.size == 0:
        raise EmptySelectionError(f"no Pareto profile meets reservation {r!r}")
    chosen = float(qualifying[0])
    ids = keep[np.abs(agent - chosen) <= tol]
    return chosen, ids, enum.binding[ids]


def narrow_enumeration():
    """Four hand-set rows with tol_u = 0.1 whose selection at u_bar = 0.15
    needs the greedy walk at every alpha: the first kept agent utility
    >= 0.15 - tol, 0.08, has the kept 0.0 within tol below it, so 0.08 is
    not a level. Row 2 is capacity-binding and undominated only for alpha
    above 0.8."""
    enum = Enumeration.__new__(Enumeration)
    enum.agent_u = np.array([0.0, 0.08, 0.16, 0.5])
    enum.exp_output = np.array([1.0, 1.0, 1.2, 0.4])
    enum.exp_payment = np.array([0.1, 0.16, 0.42, 0.4])
    enum.cost = np.array([0.1, 0.01, 0.2, 0.3])
    enum.binding = np.array([False, False, True, False])
    enum.scenario = types.SimpleNamespace(tol_u=0.1, reservation=0.15)
    return enum


def all_slack(enum, alpha, u_bar):
    """The threshold predicate: no row of ``selection_ids(alpha, u_bar)``
    carries the enumeration's capacity-binding flag."""
    _, ids, _ = enum.selection_ids(alpha, u_bar)
    return not enum.binding[ids].any()


def principal_at(enum, alpha):
    """Principal payoffs of every row of ``enum`` at output scale ``alpha``,
    in row order; the alpha queries compute the same values in the agent
    order."""
    return check_alpha(alpha) * enum.exp_output - enum.exp_payment


def base_row_oracle(enum, r):
    """The base pick by a three-key sort: the highest principal payoff at
    alpha = 1 in the unscaled selection at ``r``, ties broken by contract,
    then point id."""
    _, ids, _ = enum.selection_ids(1.0, r)
    pr = principal_at(enum, 1.0)[ids]
    order = np.lexsort((enum.point_id[ids], enum.contract_id[ids], -pr))
    return int(ids[order[0]])


def alpha_star_oracle(enum, eps=DEFAULT_EPS_ALPHA):
    """``scaling.alpha_star`` on ``enum`` one predicate at a time: the base
    pick, then the predicate at 1, at 0 and at each bisection step, each
    from its own ``Enumeration.selection_ids``, the witness from the
    selection made where the predicate last held."""
    if not 0.0 < eps < math.inf:
        raise ConfigurationError("bisection width must be positive and finite")
    base_level, base_rows, _ = enum.selection_ids(1.0, enum.scenario.reservation)
    base_row = int(base_rows[np.argmax(principal_at(enum, 1.0)[base_rows])])
    u_bar = float(enum.exp_payment[base_row] - enum.cost[base_row])
    trace, held = [], {}

    def pred(alpha):
        _, ids, binding = enum.selection_ids(alpha, u_bar)
        if slack := not binding.any():
            held[alpha] = ids
        trace.append((float(alpha), slack))
        return slack

    if pred(1.0):
        star, bracket = 1.0, (1.0, 1.0)
    elif not pred(0.0):
        star, bracket = 0.0, (0.0, 0.0)
    else:
        lo, hi = 0.0, 1.0
        while hi - lo > eps:
            mid = 0.5 * (lo + hi)
            if pred(mid):
                lo = mid
            else:
                hi = mid
        star, bracket = lo, (lo, hi)
    wit_alpha = star if star in held else None
    wit = None if wit_alpha is None else int(held[star][np.argmax(enum.cost[held[star]])])
    flags = [ok for _, ok in sorted(trace)]
    warning = any(ok for ok in flags[flags.index(False):]) if False in flags else False
    return AlphaStarResult(
        alpha_star=star, bracket=bracket, base_row=base_row, base_level=base_level,
        u_bar=u_bar, predicate_trace=tuple(trace), witness_row=wit, witness_alpha=wit_alpha,
        monotone_warning=warning, enumeration=enum, base_rows=base_rows,
    )


def row_keys(enum, ids):
    """The (contract_id, point_id) identities of the given profile rows."""
    return {(int(c), int(p)) for c, p in zip(enum.contract_id[ids], enum.point_id[ids])}


def profile_dict(pf):
    """The summary form of a Profile, rendered from its validated objects:
    the ``slack_witness`` and ``base_profile`` dicts of ``summary.json``."""
    if pf is None:
        return None
    return {
        "contract": pf.contract_label,
        "payments": list(pf.contract.payments),
        "probs": list(pf.dist.probs),
        "agent_utility": pf.agent_utility,
        "principal_payoff": pf.principal_payoff,
        "capacity_binding": bool(pf.capacity_binding),
        "cost": None if math.isnan(pf.cost) else pf.cost,
    }


def einsum_quadratic_cost(points, Q, q0):
    """(p - q0)' Q (p - q0) per row, as one three-operand einsum."""
    d = points - np.asarray(q0, dtype=float)
    return np.einsum("ij,jk,ik->i", d, np.asarray(Q, dtype=float), d)


def matrix_entropy_cost(points, theta, q0):
    """theta * sum p log(p / q0) per row, with 0 log 0 = 0, on the whole
    point matrix: one 2-D ``where`` and a ``sum(axis=1)``."""
    ratio = np.divide(points, np.asarray(q0, dtype=float)[None, :])
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(points > 0.0, points * np.log(ratio), 0.0)
    return theta * terms.sum(axis=1)


def nearest_counts_reference(p, m):
    """Lattice counts (summing to m) nearest to each row of m p, by largest
    remainder, as one stable argsort per row."""
    x = np.maximum(p, 0.0) * m
    counts = np.floor(x)
    order = np.argsort(counts - x, axis=1, kind="stable")
    place = np.empty_like(order)
    np.put_along_axis(place, order, np.arange(p.shape[1])[None, :], axis=1)
    counts += place < (m - counts.sum(axis=1))[:, None]
    return counts.astype(np.int64)


def gibbs_reference(u, logq, beta):
    """Rows p ~ q0 exp(beta u) and their log normalisers, on the 2-D
    arrays: a ``max(axis=1)`` and a ``sum(axis=1)``."""
    z = logq + beta[:, None] * u
    top = z.max(axis=1)
    w = np.exp(z - top[:, None])
    total = w.sum(axis=1)
    return w / total[:, None], top + np.log(total)


def verify_inequalities(s, alpha, base, candidate):
    """Slacks of the payoff chain for one base/candidate pair, each written
    out from its definition. Differences are base minus candidate with each
    side's expectation taken under its own distribution; a NaN profile cost
    is recomputed from the distribution."""
    y = s.y.as_array()
    p0, b0 = base.dist.as_array(), base.contract.as_array()
    p1, b1 = candidate.dist.as_array(), candidate.contract.as_array()
    d_out = float(p0 @ y - p1 @ y)
    d_pay = float(p0 @ b0 - p1 @ b1)
    c0 = base.cost if math.isfinite(base.cost) else cost(s, p0)
    c1 = candidate.cost if math.isfinite(candidate.cost) else cost(s, p1)
    return InequalitySlacks(
        output_payment=d_out - d_pay,
        payment_scaled_output=d_pay - alpha * d_out,
        scaled_output=alpha * d_out,
        participation=(c0 - c1) - d_pay,
        d_output=d_out,
        d_payment=d_pay,
    )


def make_profile(agent_utility, principal_payoff, tag):
    """Synthetic profile for selection tests; the tag, its first payment,
    tells profiles with equal payoffs apart."""
    return Profile(
        contract=Contract((float(tag), 0.0)),
        dist=Distribution((1.0, 0.0)),
        agent_utility=float(agent_utility),
        principal_payoff=float(principal_payoff),
        capacity_binding=False,
    )


def fd_gradient(f, x, h=1e-6):
    x = np.asarray(x, dtype=float)
    g = np.empty_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (f(x + e) - f(x - e)) / (2 * h)
    return g


def fd_hessian(f, x, h=1e-5):
    x = np.asarray(x, dtype=float)
    n = x.size
    out = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            ei = np.zeros(n)
            ej = np.zeros(n)
            ei[i] = h
            ej[j] = h
            out[i, j] = (
                f(x + ei + ej) - f(x + ei - ej) - f(x - ei + ej) + f(x - ei - ej)
            ) / (4 * h * h)
    return out


# ---------------------------------------------------------------------------
# The stationarity solve one point at a time: ``kkt``'s evaluation, finite
# differences and backtracking as they stood before they took stacks of
# points, with the cost formulas of that time.

ORACLE_FD_STEP = 1e-7
ORACLE_DAMPING_FLOOR = 2.0 ** -20


def oracle_cost_parts(cost, p):
    """(gradient, Hessian, value) of a smooth cost at the point p, by the
    one-point formulas: 2 Q d, 2 Q and d @ Q @ d for a quadratic, and for
    relative entropy theta (log(p / q0) + 1), diag(theta / p) and the
    lattice kernel on one row."""
    if cost.kind == "quadratic":
        Q, q0 = np.array(cost.Q, dtype=float), np.array(cost.q0, dtype=float)
        d = p - q0
        return 2.0 * Q @ d, 2.0 * Q, float(d @ Q @ d)
    q0 = np.array(cost.q0, dtype=float)
    value = float(cost.value_many(p[None, :])[0])
    return cost.theta * (np.log(p / q0) + 1.0), np.diag(cost.theta / p), value


def oracle_rows(s, x):
    """The stationarity system at one packed point x, as (contract row,
    multiplier row, orthogonality, agent row, simplex gap, c(p), E_p[u(b)])."""
    n = s.n
    b, p, phi = x[:n], x[n : 2 * n], x[2 * n : 3 * n]
    rho, tau, delta, zeta = x[3 * n :]
    y = s.y.as_array()
    if not s.cost.convex_smooth:
        raise UnsupportedCostError("the stationarity system needs a twice differentiable cost")
    if p.min() <= 0.0:
        raise InteriorityError("p must assign positive probability to every state")
    g, h, c = oracle_cost_parts(s.cost, p)
    u = np.asarray(s.utility.apply(b), dtype=float)
    up = np.asarray(s.utility.derivative(b), dtype=float)
    return (
        (y - b) - (tau + delta * g - h @ phi + zeta * (u - g)),
        (-p) - (phi * up + zeta * p * up),
        float(phi @ g),
        u - g - rho,
        p.sum() - 1.0,
        c,
        float(p @ u),
    )


def oracle_system(s, x, capacity_active, participation_active):
    r_b, r_p, r_orth, r_agent, simplex, c, eu = oracle_rows(s, x)
    delta, zeta = x[3 * s.n + 2], x[3 * s.n + 3]
    rows = [r_b, r_p, [r_orth], r_agent, [simplex]]
    if capacity_active:
        rows.append([c - s.capacity])
    else:
        rows.append([delta])
    if participation_active:
        rows.append([eu - c])
    else:
        rows.append([zeta])
    return np.concatenate([np.atleast_1d(np.asarray(r, dtype=float)) for r in rows])


def oracle_fd_jacobian(fun, x, r0):
    jac = np.empty((r0.size, x.size))
    for j in range(x.size):
        h = ORACLE_FD_STEP * (1.0 + abs(x[j]))
        xj = x.copy()
        xj[j] += h
        jac[:, j] = (fun(xj) - r0) / h
    return jac


def oracle_line_search(fun, x, step, norm0, n):
    """The backtracking loop: (point, rows) of the first accepted step
    length, or None. A candidate off the interior or the utility's domain
    is skipped; one that overflows has a non-finite norm and is rejected."""
    lam = 1.0
    while lam >= ORACLE_DAMPING_FLOOR:
        xt = x + lam * step
        xt[n:2 * n] -= (xt[n:2 * n].sum() - 1.0) / n
        lam *= 0.5
        try:
            with np.errstate(all="ignore"):
                rt = fun(xt)
                norm = float(np.linalg.norm(rt))
        except (InteriorityError, ValidationError):
            continue
        if norm < norm0:
            return xt, rt
    return None


def oracle_solve(s, x, max_iter=200, tol=1e-10, capacity_active=False, participation_active=True):
    """Damped Gauss-Newton from the packed point x: (point, converged,
    system residual, iterations)."""

    def fun(z):
        return oracle_system(s, z, capacity_active, participation_active)

    r = fun(x)
    iterations = 0
    for _ in range(max_iter):
        if np.max(np.abs(r)) <= tol:
            break
        iterations += 1
        jac = oracle_fd_jacobian(fun, x, r)
        step, _, rank, sv = np.linalg.lstsq(jac, -r, rcond=None)
        finite = np.all(np.isfinite(step))
        if not finite or rank < min(jac.shape):
            cond = float(sv[0] / sv[-1]) if sv.size and sv[-1] > 0 else float("inf")
            reason = f"rank deficient ({rank} < {min(jac.shape)})" if finite else "numerically singular"
            raise SingularJacobianError(f"stationarity Jacobian is {reason}", condition_number=cond)
        accepted = oracle_line_search(fun, x, step, float(np.linalg.norm(r)), s.n)
        if accepted is None:
            break
        x, r = accepted
    system_residual = float(np.max(np.abs(r)))
    return x, bool(system_residual <= tol), system_residual, iterations


def same_bits(a, b) -> bool:
    """True when a and b hold the same float64 values bit for bit, signed
    zeros and NaN payloads included."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


# ---------------------------------------------------------------------------
# A referee for the principal's program under a capacity that does not call
# ``kkt``, for a relative-entropy cost and a CARA agent: the agent's capped
# best response in closed form, participation binding against a zero outside
# option, and a search over the utility spreads the contract gives the agent.


def capped_gibbs_response(cost, v, k):
    """The agent's best response to the state utilities v under c(p) <= k,
    for c(p) = theta KL(p || q0): p ~ q0 exp(t v / theta), with t = 1 when
    that is within capacity and otherwise t = 1 / (1 + mu) bisected to
    c(p) = k from the feasible side."""
    logq = np.log(np.asarray(cost.q0, dtype=float))

    def tilted(t):
        return gibbs_reference(v[None, :], logq, np.array([t / cost.theta]))[0][0]

    lo, hi = 0.0, 1.0
    if cost.value(tilted(hi)) <= k:
        return tilted(hi)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if cost.value(tilted(mid)) <= k:
            lo = mid
        else:
            hi = mid
    return tilted(lo)


def referee_payoff(s, v):
    """The principal's payoff from the contract that gives the agent the
    utilities v plus the constant at which participation binds,
    E_p[u(b)] = c(p); -inf where no CARA payment has that utility."""
    p = capped_gibbs_response(s.cost, v, s.capacity)
    u = v + (s.cost.value(p) - p @ v)
    a = s.utility.a
    if (a * u >= 1.0).any():
        return -np.inf
    b = -np.log1p(-a * u) / a
    return float(p @ (s.y.as_array() - b))


def referee_best_payoff(s):
    """The best payoff found by a compass search over the spreads v
    (v_0 = 0, one coordinate per other state, steps halved down to 1e-10)
    from the best spread proportional to output on a grid. On two states it
    is a 1-D search, and once the spread is wide enough for the capacity to
    bind, p is pinned by c(p) = k on the side the spread points to."""
    y = s.y.as_array() - s.y.as_array()[0]
    v = max((t * y for t in np.linspace(0.0, 2.0, 201)), key=lambda w: referee_payoff(s, w))
    best, step = referee_payoff(s, v), 0.01
    while step > 1e-10:
        trials = [v + sign * step * e for e in np.eye(s.n)[1:] for sign in (1.0, -1.0)]
        payoffs = [referee_payoff(s, w) for w in trials]
        i = int(np.argmax(payoffs))
        if payoffs[i] > best:
            best, v = payoffs[i], trials[i]
        else:
            step /= 2.0
    return best
