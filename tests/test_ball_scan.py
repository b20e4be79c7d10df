"""The ball route of the best-response scan against the full scan.

``agent.scan_balls`` scores only the lattice points inside each contract's
certified strong-concavity ball. Its ties, binding flags and row maxima must
be the full scan's; its agent utilities may differ in the last bit. The
certificate and the ball enumeration are checked against brute force over
the whole lattice, and so is ``model``'s lattice kernel: the builder, the
ranks, the nearest point and the one-step moves.
"""

import dataclasses
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agentcap import agent, model
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

from conftest import (
    dyadic_scenario,
    gibbs_reference,
    nearest_counts_reference,
    same_bits,
    smooth_scenario,
    tangent_scenario,
)


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


@pytest.mark.parametrize("case", list(CASES))
def test_rounding_scale_is_the_largest_vertex_cost(case):
    # scan_balls takes max |c| over the lattice from the n simplex vertices
    s = CASES[case]()
    costs = s.lattice.costs
    assert s.cost.value_many(np.eye(s.n)).max() == max(costs.max(), -costs.min())


def both_routes(s, monkeypatch):
    """(full-scan enumeration, ball-route enumeration, the row count of each
    ``scan_grid`` call the ball route made) of ``s``: the route flips when
    contracts x feasible points exceed one ``_CHUNK`` block."""
    full = Enumeration(s)
    nominal = full.nominal_evaluations
    assert nominal <= agent._CHUNK and full.evaluations == nominal
    scans = []
    scan_grid = agent.scan_grid

    def spy(payoffs, *args):
        scans.append(len(payoffs))
        return scan_grid(payoffs, *args)

    with monkeypatch.context() as mp:
        mp.setattr(agent, "_CHUNK", nominal - 1)
        mp.setattr(agent, "scan_grid", spy)
        ball = Enumeration(s)
    return full, ball, scans


@pytest.mark.parametrize("case", list(CASES))
def test_ball_route_matches_full_scan(case, monkeypatch):
    s = CASES[case]()
    full, ball, scans = both_routes(s, monkeypatch)
    for name in ("contract_id", "point_id", "binding"):
        assert np.array_equal(getattr(ball, name), getattr(full, name)), name
    assert np.abs(ball.row_max - full.row_max).max() <= 1e-12
    assert np.abs(ball.agent_u - full.agent_u).max() <= 1e-12
    if case.endswith("binding"):
        assert ball.binding.any()
    # rows whose balls are too wide go to one full scan together
    assert len(scans) <= 1
    if case in ("quadratic-5-binding", "entropy-4-binding"):
        # some rows by ball and some in full: their ties are merged
        assert len(scans) == 1 and 0 < scans[0] < len(full.row_max)
    if case.endswith("flat"):
        # a flat direction makes every ball too wide: all rows go in full
        assert scans == [len(full.row_max)]
    elif not case.startswith("smooth"):
        assert ball.evaluations < full.evaluations


def test_ball_route_dyadic_tie_at_the_cut(monkeypatch):
    # every value is exact, so both routes must agree bit for bit,
    # including a tie exactly at row max - tol_u
    s = dyadic_scenario()
    full, ball, _ = both_routes(s, monkeypatch)
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
        got = agent.scan_balls(sk, ids, mask, agent.strong_concavity(sk.cost))
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
              else agent._quadratic_centres(u, s.cost, kbar, (norm, sigma0))]
    for _ in range(4):
        t = rng.uniform(0.05, 1.0, len(u))
        if kind == "entropy":
            p, logz = agent._gibbs(u, np.log(np.array(s.cost.q0)), t / s.cost.theta)
            trials.append(agent._entropy_bound(p, logz, t / s.cost.theta, s.cost.theta, kbar))
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


def test_strict_convexity_is_decided_once(monkeypatch):
    # one eigendecomposition per quadratic ball-route enumeration and per
    # continuous best response; none for an enumeration within one block
    s = random_case(4, "quadratic", 24, True, seed=4)
    calls = []
    strong_concavity = agent.strong_concavity

    def counted(cost):
        calls.append(cost.kind)
        return strong_concavity(cost)

    monkeypatch.setattr(agent, "strong_concavity", counted)
    full = Enumeration(s)
    assert calls == []
    monkeypatch.setattr(agent, "_CHUNK", full.nominal_evaluations - 1)
    assert Enumeration(s).evaluations < full.nominal_evaluations
    assert calls == ["quadratic"]
    agent.best_response_convex(s, s.lattice.contracts[1][-1])
    assert calls == ["quadratic"] * 2


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


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5), st.integers(1, 12))
def test_lattice_builder_lists_the_compositions_in_lexicographic_order(n, m):
    want = np.array([c for c in itertools.product(range(m + 1), repeat=n) if sum(c) == m], dtype=np.uint8)
    got = model._lattice_cached.__wrapped__(n, m)
    assert got.dtype == want.dtype == np.min_scalar_type(m) and np.array_equal(got, want)
    assert not got.flags.writeable
    assert simplex_lattice(n, m).tobytes() == (want / m).tobytes()


def test_lattice_builder_memory_peak():
    """The (L, n) counts are 3.18 MB at (5, 60), one byte a coordinate; the
    build adds ``_expand``'s three intp arrays of L entries at the last
    coordinate, 15.2 MB. (The float lattice alone would be 25.4 MB.)"""
    n, m = 5, 60
    size = math.comb(m + n - 1, n - 1)
    tracemalloc.start()
    try:
        counts = model._lattice_cached.__wrapped__(n, m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert counts.nbytes == size * n
    assert peak <= size * (n + 3 * np.dtype(np.intp).itemsize)


def quadratic_row(n, seed=3):
    """A strictly convex n-state quadratic cost, uniform q0, and one payoff
    row whose unconstrained optimum leaves the whole simplex."""
    rng = np.random.default_rng(seed)
    cost = QuadraticCost(Q=tuple(map(tuple, np.diag(rng.uniform(0.5, 2.0, n)))), q0=tuple(np.full(n, 1.0 / n)))
    return cost, rng.uniform(0.0, 3.0, (1, n))


@pytest.mark.parametrize("n", [7, 9])
def test_quadratic_centres_of_rows_together_and_apart_agree(n):
    # rows solved together share each step's solve of the faces they are
    # on; each reaches the centre and bound it reaches alone
    cost, _ = quadratic_row(n)
    rng = np.random.default_rng(n)
    u = rng.uniform(-1.0, 3.0, ((1 << n) // 64, n))
    concavity = agent.strong_concavity(cost)
    together = agent._quadratic_centres(u, cost, 0.05, concavity)
    apart = [agent._quadratic_centres(row[None], cost, 0.05, concavity) for row in u]
    for got, want in zip(together, map(np.concatenate, zip(*apart))):
        assert np.allclose(got, want, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("n", [7, 9])
@pytest.mark.parametrize("kbar", [0.3, 10.0])
def test_quadratic_centres_of_rows_on_many_faces_agree(n, kbar):
    # at these capacities the rows leave the whole simplex for tens of
    # faces at each step, so each row must be solved on its own face among
    # the step's others; each reaches the centre and bound it reaches alone
    cost, _ = quadratic_row(n)
    u = np.random.default_rng(n).uniform(-1.0, 3.0, (64, n))
    concavity = agent.strong_concavity(cost)
    together = agent._quadratic_centres(u, cost, kbar, concavity)
    apart = [agent._quadratic_centres(row[None], cost, kbar, concavity) for row in u]
    for got, want in zip(together, map(np.concatenate, zip(*apart))):
        assert np.allclose(got, want, rtol=1e-12, atol=1e-12)


def test_quadratic_centre_memory_follows_the_faces_visited():
    """One row at 20 states: each step solves only the faces its rows are
    on, so the solver holds no table over the 2^20 faces (one peaks at
    17 MB); at 30 states, where such a table would take gigabytes, it still
    runs."""
    cost, u = quadratic_row(20)
    concavity = agent.strong_concavity(cost)
    tracemalloc.start()
    try:
        mu, centre, ub = agent._quadratic_centres(u, cost, 0.05, concavity)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2e6
    assert np.isfinite(ub).all() and abs(centre.sum() - 1.0) <= 1e-9 and (centre >= -1e-12).all()
    cost, u = quadratic_row(30)
    mu, centre, ub = agent._quadratic_centres(u, cost, 0.05, agent.strong_concavity(cost))
    assert np.isfinite(ub).all() and abs(centre.sum() - 1.0) <= 1e-9 and (centre >= -1e-12).all()


def test_quadratic_centre_memory_follows_one_steps_faces():
    """2000 rows at 20 states: each step solves the faces its rows are on
    and keeps none for the next, so the peak (about 17 MB) does not grow
    with every face the rows have visited (a cache of those peaked at
    74 MB)."""
    cost, _ = quadratic_row(20)
    u = np.random.default_rng(0).uniform(0.0, 3.0, (2000, 20))
    concavity = agent.strong_concavity(cost)
    tracemalloc.start()
    try:
        mu, centre, ub = agent._quadratic_centres(u, cost, 0.05, concavity)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 30e6
    assert np.isfinite(ub).all() and np.allclose(centre.sum(axis=1), 1.0, rtol=0, atol=1e-9)


@pytest.mark.parametrize("n,m", [(2, 1), (2, 7), (3, 5), (4, 4), (5, 3)])
def test_neighbours_are_the_one_step_moves_that_stay_on_the_lattice(n, m):
    counts = np.rint(simplex_lattice(n, m) * m).astype(np.int64)
    index = {c: i for i, c in enumerate(map(tuple, counts.tolist()))}
    rows = np.concatenate([counts, counts[:2] + 1, -counts[-1:]])  # and rows off the lattice
    eye = np.eye(n, dtype=np.int64)
    want = [(r, index[tuple(probe)]) for r, c in enumerate(rows.tolist())
            for i in range(n) for j in range(n) if i != j
            for probe in [np.array(c) + eye[j] - eye[i]]
            if (probe >= 0).all() and probe.sum() == m]
    row, rank = model._neighbours(rows, m, model._binomials(m + n, n))
    assert list(zip(row.tolist(), rank.tolist())) == want


@pytest.mark.parametrize("n,m", [(2, 7), (3, 9), (4, 6), (5, 4)])
def test_lattice_rank_is_lattice_order(n, m):
    points = simplex_lattice(n, m)
    counts = np.rint(points * m).astype(np.int64)
    binom = model._binomials(m + n, n)
    assert np.array_equal(model._lattice_rank(counts, m, binom), np.arange(len(points)))


@pytest.mark.parametrize("top,k", [(0, 0), (7, 0), (0, 4), (12, 3), (3058, 3), (45, 12), (60, 30)])
def test_binomials_are_math_comb(top, k):
    table = model._binomials(top, k)
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
    binom = model._binomials(m + n, n)
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


def test_ball_route_working_memory():
    """The ball route over 7776 contracts (a 6^5 grid) and the 99% quantile
    of the n = 5, m = 40 entropy lattice holds one ``_BALL_BLOCK`` of probes
    and ball prefixes at a time: under 4.2 MB traced above the priced
    lattice. Chunks of ``_CHUNK`` values would take every row at once
    (6.9 MB)."""
    n, grid = 5, tuple(np.linspace(0.0, 1.0, 6).tolist())
    s = Scenario(
        states=StateSpace(tuple(f"s{i}" for i in range(n))), y=OutputFunction(tuple(np.linspace(0.0, 1.0, n))),
        cost=RelativeEntropyCost(0.5, (1.0 / n,) * n), capacity=0.0, family=GridFamily((grid,) * n),
        utility=AgentUtility("risk_neutral"), reservation=0.0, m=40,
    )
    s = s.at_capacity(float(np.quantile(s.lattice.costs, 0.99)))
    s.lattice.util
    ids, mask = agent.feasible_lattice(s)
    assert agent.ball_route(s, len(s.lattice.util), len(ids))
    tracemalloc.start()
    try:
        agent.best_responses(s, ids, mask)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4.2e6


def test_chunked_ball_route_matches_one_chunk(monkeypatch):
    # contracts in chunks of a few rows or of one, and ball enumerations in
    # groups or one row at a time, give the rows of one chunk, and no row
    # falls back to the full scan
    scans = []
    scan_grid = agent.scan_grid

    def spy(payoffs, *args):
        scans.append(len(payoffs))
        return scan_grid(payoffs, *args)

    monkeypatch.setattr(agent, "scan_grid", spy)
    for s in (random_case(3, "entropy", 40, True, seed=2), tangent_scenario(0.04, m=400)):
        nominal = len(s.lattice.contracts[0]) * len(agent.feasible_lattice(s)[0])
        built = {}
        for chunk in (nominal - 1, 200, 1):
            with monkeypatch.context() as mp:
                mp.setattr(agent, "_CHUNK", nominal - 1)
                mp.setattr(agent, "_BALL_BLOCK", chunk)
                built[chunk] = Enumeration(s)
        one = built.pop(nominal - 1)
        assert one.evaluations < nominal
        for chunk, many in built.items():
            for name in ("contract_id", "point_id", "agent_u", "row_max"):
                assert getattr(many, name).tobytes() == getattr(one, name).tobytes(), (chunk, name)
            assert many.evaluations == one.evaluations, chunk
    assert scans == []
    assert list(itertools.islice(agent._groups(np.array([3.0, 1.0, 5.0, 1.0, 1.0]), 4.0), 5)) == [
        slice(0, 2), slice(2, 3), slice(3, 5)
    ]


@st.composite
def centre_rows(draw):
    """(rows, m): points near the simplex with tied remainders, zero and
    negative coordinates, and coordinates on the lattice."""
    n, m, h = draw(st.integers(2, 9)), draw(st.integers(1, 400)), draw(st.integers(1, 12))
    rows = []
    for _ in range(h):
        kind = draw(st.sampled_from(["random", "ties", "halves", "lattice"]))
        if kind == "random":
            row = draw(st.lists(st.floats(-0.1, 1.1), min_size=n, max_size=n))
        elif kind == "ties":
            # repeated coordinates: their remainders tie exactly
            values = draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=2))
            row = [draw(st.sampled_from(values)) for _ in range(n)]
        elif kind == "halves":
            # the same remainder over different whole counts
            frac = draw(st.sampled_from([0.25, 0.5, 1 / 3, 0.75]))
            row = [(draw(st.integers(0, 3)) + frac) / m for _ in range(n)]
        else:
            row = [draw(st.integers(0, m)) / m for _ in range(n)]
        zeros = draw(st.lists(st.integers(0, n - 1), max_size=n))
        for j in zeros:
            row[j] = draw(st.sampled_from([0.0, -0.0]))
        rows.append(row)
    return np.array(rows, dtype=float), m


@settings(max_examples=300, deadline=None)
@given(centre_rows())
def test_nearest_counts_match_the_argsort_reference(case):
    p, m = case
    want = nearest_counts_reference(p, m)
    got = model._nearest_counts(p, m)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_nearest_counts_on_simplex_rows_are_lattice_points():
    rng = np.random.default_rng(4)
    for n, m in ((2, 1), (3, 400), (9, 7), (9, 400)):
        p = rng.dirichlet(np.ones(n), 200)
        counts = model._nearest_counts(p, m)
        assert np.array_equal(counts, nearest_counts_reference(p, m))
        assert (counts >= 0).all() and (counts.sum(axis=1) == m).all()
        assert model._compositions(counts, m).all()
        bad = counts.copy()
        bad[0, 0] += 1
        bad[1, :2] = (-1, counts[1, 0] + counts[1, 1] + 1)
        assert model._compositions(bad, m).tolist()[:3] == [False, False, True]


@pytest.mark.parametrize("n", range(2, 13))
def test_gibbs_matches_the_2d_formula_bit_for_bit(n):
    # numpy sums a row of 8 or more terms pairwise, in 8 partial sums
    rng = np.random.default_rng(n)
    u = rng.normal(size=(300, n)) * rng.choice([1.0, 1e-3, 30.0], size=(300, n))
    u[:5] = 0.0
    u[5:10, 0] = 700.0  # one dominant term: the others underflow
    logq = np.log(rng.dirichlet(np.ones(n)))
    beta = rng.choice([0.5, 1.0, 20.0, 1e-9], size=300)
    p, logz = agent._gibbs(u, logq, beta)
    want_p, want_logz = gibbs_reference(u, logq, beta)
    assert same_bits(p, want_p) and same_bits(logz, want_logz)
    assert p.flags.c_contiguous
