"""The ball route of the best-response scan against the full scan.

``agent.scan_balls`` scores only the lattice points inside each contract's
certified strong-concavity ball. Its ties, binding flags and row maxima must
be the full scan's; its agent utilities may differ in the last bit. The
certificate and the ball enumeration are checked against brute force over
the whole lattice.
"""

import dataclasses
import itertools
import math

import numpy as np
import pytest

from agentcap import agent
from agentcap.cli import main, save_scenario
from agentcap.model import (
    FEASIBILITY_SLACK,
    AgentUtility,
    GridFamily,
    OutputFunction,
    QuadraticCost,
    RelativeEntropyCost,
    Scenario,
    StateSpace,
    TableCost,
    simplex_lattice,
)
from agentcap.pareto import Enumeration

from conftest import smooth_scenario, tangent_scenario


def random_case(n, kind, m, binding, seed=0, per_state=4, lam_min=None):
    """An n-state instance with a random payment grid and a random CARA
    agent; with ``binding`` the agent is risk neutral, payments are larger
    and the capacity is a lattice point's cost near the 30% quantile, so
    the capacity binds for most contracts; otherwise it sits midway between
    two neighbouring costs near the 60% quantile. ``lam_min`` gives
    a quadratic whose curvature on the sum-zero subspace is that small in
    one direction."""
    rng = np.random.default_rng(seed)
    counts = rng.integers(1, 6, n)
    q0 = tuple(counts / counts.sum())
    if kind == "entropy":
        cost = RelativeEntropyCost(float(rng.uniform(0.3, 1.0)), q0)
    else:
        basis = np.linalg.eigh(np.eye(n) - 1.0 / n)[1][:, 1:]
        curv = rng.uniform(0.5, 2.0, n - 1)
        if lam_min is not None:
            curv[0] = lam_min
        rot = np.linalg.qr(rng.normal(size=(n - 1, n - 1)))[0]
        Q = basis @ rot @ np.diag(curv) @ rot.T @ basis.T + 0.3 * np.ones((n, n))
        cost = QuadraticCost(tuple(map(tuple, (Q + Q.T) / 2)), q0)
    costs = np.unique(cost.value_many(simplex_lattice(n, m)))
    if binding:
        k = float(costs[int(0.3 * costs.size)])
    else:
        j = int(0.6 * costs.size)
        k = float(0.5 * (costs[j] + costs[j + 1]))
    y = np.round(np.cumsum(rng.uniform(0.3, 1.0, n)) - 0.3, 2)
    top = (3.0 if binding else 1.2) * y[-1]
    grids = tuple(tuple(np.round(np.sort(rng.uniform(0.0, top, per_state)), 3)) for _ in range(n))
    utility = AgentUtility("risk_neutral") if binding else AgentUtility("cara", a=float(rng.uniform(0.5, 2.0)))
    return Scenario(
        states=StateSpace(tuple(f"s{i}" for i in range(n))),
        y=OutputFunction(tuple(y)),
        cost=cost,
        capacity=k,
        family=GridFamily(grids),
        utility=utility,
        reservation=0.0,
        m=m,
    )


CASES = {f"smooth-{i}": (lambda i=i: smooth_scenario(i)[0]) for i in range(6)}
CASES["tangent"] = lambda: tangent_scenario(0.04, m=1000)
for _n, _m in ((3, 60), (4, 24), (5, 14)):
    for _kind in ("entropy", "quadratic"):
        for _binding in (False, True):
            CASES[f"{_kind}-{_n}-{'binding' if _binding else 'generic'}"] = (
                lambda n=_n, m=_m, kind=_kind, b=_binding: random_case(n, kind, m, b, seed=n)
            )
CASES["quadratic-3-flat"] = lambda: random_case(3, "quadratic", 60, True, seed=7, lam_min=1e-3)


def both_routes(s, monkeypatch):
    """(full-scan enumeration, ball-route enumeration) of ``s``: the route
    flips when contracts x feasible points exceed one ``_CHUNK`` block."""
    full = Enumeration(s)
    nominal = full.nominal_evaluations
    assert nominal <= agent._CHUNK and full.evaluations == nominal
    with monkeypatch.context() as mp:
        mp.setattr(agent, "_CHUNK", nominal - 1)
        ball = Enumeration(s)
    return full, ball


@pytest.mark.parametrize("case", list(CASES))
def test_ball_route_matches_full_scan(case, monkeypatch):
    s = CASES[case]()
    full, ball = both_routes(s, monkeypatch)
    for name in ("contract_id", "point_id", "binding"):
        assert np.array_equal(getattr(ball, name), getattr(full, name)), name
    assert np.abs(ball.row_max - full.row_max).max() <= 1e-12
    assert np.abs(ball.agent_u - full.agent_u).max() <= 1e-12
    if case.endswith("binding"):
        assert ball.binding.any()
    if not case.startswith("smooth") and not case.endswith("flat"):
        # a flat direction makes wide balls, whose rows are scanned in full
        assert ball.evaluations < full.evaluations


def test_ball_route_dyadic_tie_at_the_cut(monkeypatch):
    # payoffs and coordinates in multiples of 1/8 and an identity Q: every
    # value is a multiple of 1/64 and exact, so both routes must agree bit
    # for bit, including a tie exactly at row max - tol_u
    payments = (0.0, 0.25, 0.5, 0.875)
    s = Scenario(
        states=StateSpace(("a", "b", "c")),
        y=OutputFunction((0.0, 0.5, 1.0)),
        cost=QuadraticCost(((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)), (0.375, 0.375, 0.25)),
        capacity=10.0,
        family=GridFamily((payments, payments, payments)),
        utility=AgentUtility("risk_neutral"),
        reservation=0.0,
        m=8,
        tol_u=1.0 / 64,
    )
    full, ball = both_routes(s, monkeypatch)
    assert np.any(full.agent_u == full.row_max[full.contract_id] - s.tol_u)
    assert np.array_equal(ball.contract_id, full.contract_id)
    assert np.array_equal(ball.point_id, full.point_id)
    assert ball.agent_u.tobytes() == full.agent_u.tobytes()
    assert ball.row_max.tobytes() == full.row_max.tobytes()


@pytest.mark.parametrize("q", [0.3, 0.7, 1.1, 1.7, 2.9, 1 / 3, 0.1])
def test_ties_on_the_ball_boundary_are_kept(q):
    # u = 0 and Q = qI centred on a lattice point: the bound is tight, so a
    # tie whose cost is exactly tol_u lies on the ball's boundary up to
    # rounding, which the rounding allowance has to cover
    m = 10
    s = Scenario(
        states=StateSpace(("a", "b", "c")),
        y=OutputFunction((0.0, 0.5, 1.0)),
        cost=QuadraticCost(tuple(tuple(q * float(i == j) for j in range(3)) for i in range(3)), (0.2, 0.3, 0.5)),
        capacity=10.0,
        family=GridFamily(((0.0,), (0.0,), (0.0,))),
        utility=AgentUtility("risk_neutral"),
        reservation=0.0,
        m=m,
    )
    points = simplex_lattice(3, m)
    costs = s.lattice.costs
    for ring in (1, 2):
        # a neighbour `ring` steps away sets the tolerance
        at = int(np.flatnonzero(np.all(np.isclose(points, [0.2 + ring / m, 0.3 - ring / m, 0.5]), axis=1))[0])
        sk = dataclasses.replace(s, tol_u=float(costs[at]))
        ids, mask = agent.feasible_lattice(sk)
        running = np.full(1, -np.inf)
        expect = agent.scan_grid(sk.lattice.util, points[ids], costs[ids], sk.tol_u, running)
        got = agent.scan_balls(sk, sk.lattice.util, ids, mask)
        assert at in ids[expect[1]]
        assert np.array_equal(got[1], ids[expect[1]])
        assert got[3][0] == running[0]


def test_route_flip_keeps_cli_bytes(tmp_path, monkeypatch):
    scenarios = {
        "tangent": tangent_scenario(0.04, m=400),
        "smooth": smooth_scenario(0)[0],
        "entropy4": random_case(4, "entropy", 16, True, seed=3),
    }
    commands = {"solve": [], "alpha-star": [], "verify": ["--alpha-grid", "0.3,0.6,0.9"]}

    def run(path, command, out):
        assert main([command, "--scenario", str(path), "--out", str(out), *commands[command]]) == 0
        return {p.name: p.read_bytes() for p in sorted(out.glob("*.csv"))}

    for name, s in scenarios.items():
        path = tmp_path / f"{name}.json"
        save_scenario(s, path)
        nominal = len(s.lattice.contracts[0]) * len(agent.feasible_lattice(s)[0])
        for command in commands:
            full = run(path, command, tmp_path / f"{name}-{command}-full")
            with monkeypatch.context() as mp:
                mp.setattr(agent, "_CHUNK", nominal - 1)
                ball = run(path, command, tmp_path / f"{name}-{command}-ball")
            assert ball == full, (name, command)


# -- the certificate --------------------------------------------------------


def lagrangian(s, u, mu, points):
    kbar = s.capacity + FEASIBILITY_SLACK
    return points @ u - (1.0 + mu) * s.cost.value_many(points) + mu * kbar


@pytest.mark.parametrize("kind", ["entropy", "quadratic"])
def test_bound_holds_for_any_multiplier_and_centre(kind):
    # the ball's inequality sigma/2 |p - centre|^2 <= UB - L(p) holds at
    # every lattice point, for the solved (mu, centre) and for crude ones
    s = random_case(3, kind, 30, True, seed=11)
    norm, sigma0 = agent.strong_concavity(s.cost)
    points = simplex_lattice(3, 30)
    rng = np.random.default_rng(5)
    u = s.lattice.util[rng.choice(len(s.lattice.util), 6, replace=False)]
    kbar = s.capacity + FEASIBILITY_SLACK
    trials = [agent._entropy_centres(u, s.cost, kbar) if kind == "entropy"
              else agent._quadratic_centres(u, s.cost, kbar)]
    for _ in range(4):
        t = rng.uniform(0.05, 1.0, len(u))
        if kind == "entropy":
            trials.append(agent._entropy_bound(u, s.cost, t / s.cost.theta, kbar))
        else:
            trials.append(agent._quadratic_bound(u, s.cost, t, rng.dirichlet(np.ones(3), len(u)), kbar))
    for mu, centre, ub in trials:
        for r in range(len(u)):
            dev = points - centre[r]
            dist = np.abs(dev).sum(axis=1) ** 2 if norm == 1 else (dev**2).sum(axis=1)
            slack = ub[r] - lagrangian(s, u[r], mu[r], points) - 0.5 * (1.0 + mu[r]) * sigma0 * dist
            assert slack.min() >= -1e-12


def test_routing_rule():
    big = agent._CHUNK + 1
    ent = random_case(3, "entropy", 30, False)
    assert agent.ball_route(ent, big, 1)
    assert not agent.ball_route(ent, agent._CHUNK, 1)  # one value block: full scan
    quad = random_case(5, "quadratic", 10, False)
    assert agent.ball_route(quad, big, 32)
    assert not agent.ball_route(quad, big, 31)  # fewer points than the 2^5 faces
    flat = dataclasses.replace(quad, cost=QuadraticCost(tuple((1.0,) * 5 for _ in range(5)), quad.cost.q0))
    assert not agent.ball_route(flat, big, 1000)
    table = dataclasses.replace(ent, cost=TableCost(((1.0, 0.0, 0.0),), (0.0,)))
    assert not agent.ball_route(table, big, 1000)


def test_strong_concavity_by_cost_kind():
    n = 3
    assert agent.strong_concavity(RelativeEntropyCost(0.7, (0.2, 0.3, 0.5))) == (1, 0.7)
    norm, sigma0 = agent.strong_concavity(QuadraticCost(((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)), (0.2, 0.3, 0.5)))
    assert norm == 2 and sigma0 == pytest.approx(2.0, abs=1e-9) and sigma0 < 2.0
    # all ones: flat on the simplex, so no ball
    assert agent.strong_concavity(QuadraticCost(tuple((1.0,) * n for _ in range(n)), (0.2, 0.3, 0.5))) is None
    # the tangent fixture's Q = diag(0, 1) is strictly convex along p_L + p_H = 1
    assert agent.strong_concavity(tangent_scenario(0.04).cost)[0] == 2


# -- lattice ranks and ball enumeration --------------------------------------


@pytest.mark.parametrize("n,m", [(2, 7), (3, 9), (4, 6), (5, 4)])
def test_lattice_rank_is_lattice_order(n, m):
    points = simplex_lattice(n, m)
    counts = np.rint(points * m).astype(np.int64)
    binom = agent._binomials(m + n, n)
    assert np.array_equal(agent._lattice_rank(counts, m, binom), np.arange(len(points)))


@pytest.mark.parametrize("top,k", [(0, 0), (7, 0), (0, 4), (12, 3), (3058, 3), (45, 12), (60, 30)])
def test_binomials_are_math_comb(top, k):
    table = agent._binomials(top, k)
    assert table.dtype == np.int64 and table.shape == (top + 1, k + 1)
    assert table.tolist() == [[math.comb(x, j) for j in range(k + 1)] for x in range(top + 1)]


def test_binomials_stay_well_inside_int64_for_any_lattice_that_fits_in_memory():
    """``scan_balls`` builds ``_binomials(m + n, n)``, whose largest entry,
    and, as the table is built by sums alone, whose largest intermediate, is
    C(m + n, n). For each n take the largest m whose lattice, C(m + n - 1,
    n - 1) float64 points of n coordinates, takes at most 16 GiB: the entry
    stays below 2^60, an eighth of int64's range. The tightest is n = 2,
    where m = 2^30 - 1 gives about 2^59."""
    for n in range(2, 41):
        lo, hi = 1, 1 << 31
        while lo < hi:  # the largest m that fits
            mid = (lo + hi + 1) // 2
            lo, hi = (mid, hi) if math.comb(mid + n - 1, n - 1) * n * 8 <= 1 << 34 else (lo, mid - 1)
        assert math.comb(lo + n, n) < 1 << 60, n


@pytest.mark.parametrize("norm", [1, 2])
@pytest.mark.parametrize("n,m", [(2, 12), (3, 10), (4, 7), (5, 5)])
def test_ball_points_match_brute_force(norm, n, m):
    rng = np.random.default_rng(n * 10 + m + norm)
    points = simplex_lattice(n, m)
    centre = rng.dirichlet(np.ones(n), 12)
    centre[0] = points[len(points) // 3]  # a lattice point as a centre
    bound = rng.uniform(0.0, 0.6, 12) ** norm
    bound[1] = 0.0
    binom = agent._binomials(m + n, n)
    row, rank = agent._ball_points(centre, bound, norm, m, binom)
    expect_row, expect_rank = [], []
    for r in range(len(centre)):
        dist = np.zeros(len(points))
        for j in range(n):  # summed in coordinate order, as the enumeration does
            dist = dist + np.abs(points[:, j] - centre[r, j]) ** norm
        inside = np.flatnonzero(dist <= bound[r])
        expect_row += [r] * inside.size
        expect_rank += list(inside)
    assert np.array_equal(row, expect_row)
    assert np.array_equal(rank, expect_rank)
    assert rank[row == 0].size >= 1  # the lattice centre is inside its own ball


def test_evaluations_count_ball_route_values(monkeypatch):
    s = random_case(4, "quadratic", 24, True, seed=4)
    computed = []
    pair_values, scan_grid = agent._pair_values, agent.scan_grid

    def values_spy(payoffs, points, costs):
        computed.append(len(payoffs))
        return pair_values(payoffs, points, costs)

    def scan_spy(payoffs, points, costs, tol_u, running=None):
        computed.append(len(payoffs) * len(points))
        return scan_grid(payoffs, points, costs, tol_u, running)

    monkeypatch.setattr(agent, "_pair_values", values_spy)
    monkeypatch.setattr(agent, "scan_grid", scan_spy)
    n_c = len(s.lattice.contracts[0])
    n_p = len(agent.feasible_lattice(s)[0])
    monkeypatch.setattr(agent, "_CHUNK", n_c * n_p - 1)
    enum = Enumeration(s)
    assert enum.evaluations == sum(computed) < n_c * n_p
    assert enum.evaluations >= enum.agent_u.size


def test_chunked_ball_route_matches_one_chunk(monkeypatch):
    # contracts in chunks of a few rows, and ball enumerations in groups,
    # give the rows of one chunk
    s = random_case(3, "entropy", 40, True, seed=2)
    nominal = len(s.lattice.contracts[0]) * len(agent.feasible_lattice(s)[0])
    with monkeypatch.context() as mp:
        mp.setattr(agent, "_CHUNK", nominal - 1)
        one = Enumeration(s)
    monkeypatch.setattr(agent, "_CHUNK", 200)
    many = Enumeration(s)
    for name in ("contract_id", "point_id", "agent_u", "row_max"):
        assert getattr(many, name).tobytes() == getattr(one, name).tobytes(), name
    assert list(itertools.islice(agent._groups(np.array([3.0, 1.0, 5.0, 1.0, 1.0]), 4.0), 5)) == [
        slice(0, 2), slice(2, 3), slice(3, 5)
    ]
