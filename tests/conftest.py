"""Shared scenario builders and independent oracles for the test suite.

The builders here are the fixed instances every module test and the
acceptance checks run against; the oracles (brute-force Pareto scan, the
slack chain of one profile pair, finite differences) are written
independently of the package internals so the tests have something to
disagree with.
"""

import dataclasses
import math

import numpy as np
import pytest

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
    simplex_lattice,
)
from agentcap.errors import (
    ConfigurationError,
    EmptySelectionError,
    InteriorityError,
    SingularJacobianError,
    UnsupportedCostError,
)
from agentcap.pareto import Enumeration, _cluster_levels
from agentcap.scaling import DEFAULT_EPS_ALPHA, AlphaStarResult, InequalitySlacks, alpha_star


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
    s = tangent_slopes()
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
    rho, mu, tau, delta, zeta = x[3 * n :]
    y = s.y.as_array()
    if not s.cost.convex_smooth:
        raise UnsupportedCostError("the stationarity system needs a twice differentiable cost")
    if p.min() <= 0.0:
        raise InteriorityError("p must assign positive probability to every state")
    g, h, c = oracle_cost_parts(s.cost, p)
    u = np.asarray(s.utility.apply(b), dtype=float)
    up = np.asarray(s.utility.derivative(b), dtype=float)
    return (
        (y - b) - (tau + delta * g - (mu + 1.0) * (h @ phi) + zeta * (u - g)),
        (-p) - (phi * up + zeta * p * up),
        float(phi @ g),
        u - g - rho - mu * g,
        p.sum() - 1.0,
        c,
        float(p @ u),
    )


def oracle_system(s, x, capacity_active, participation_active):
    r_b, r_p, r_orth, r_agent, simplex, c, eu = oracle_rows(s, x)
    mu, delta, zeta = x[3 * s.n + 1], x[3 * s.n + 3], x[3 * s.n + 4]
    rows = [r_b, r_p, [r_orth], r_agent, [simplex]]
    if capacity_active:
        rows.append([c - s.capacity])
    else:
        rows.append([mu, delta])
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
    length, or None."""
    lam = 1.0
    while lam >= ORACLE_DAMPING_FLOOR:
        xt = x + lam * step
        xt[n:2 * n] -= (xt[n:2 * n].sum() - 1.0) / n
        try:
            rt = fun(xt)
        except InteriorityError:
            lam *= 0.5
            continue
        if float(np.linalg.norm(rt)) < norm0:
            return xt, rt
        lam *= 0.5
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
