"""The benchmark's own arithmetic for scenarios, independent of ``agentcap``.

The generator uses it to shape instances (capacities, reservation levels,
evaluation counts) and the output checker uses it as the referee: simplex
lattice by stars and bars, the cost, utility and family kinds the generator
emits, exhaustive best responses, and the tolerance dominance rule.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

import numpy as np

FEASIBILITY_SLACK = 1e-12  # the program's feasibility rule: c(p) <= k + 1e-12
TOL_U = 1e-9


@lru_cache(maxsize=8)
def lattice_counts(n: int, m: int) -> np.ndarray:
    """All integer compositions of m into n nonnegative parts, shape (L, n),
    by stars and bars: n - 1 bar positions among m + n - 1 slots."""
    flat = np.fromiter(
        itertools.chain.from_iterable(itertools.combinations(range(m + n - 1), n - 1)),
        dtype=np.int64,
    )
    bars = flat.reshape(-1, n - 1) if n > 1 else np.zeros((1, 0), dtype=np.int64)
    edges = np.column_stack([np.full(len(bars), -1), bars, np.full(len(bars), m + n - 1)])
    out = np.diff(edges, axis=1) - 1
    out.setflags(write=False)
    return out


def lattice(n: int, m: int) -> np.ndarray:
    return lattice_counts(n, m) / m


def cost_values(cost: dict, points: np.ndarray) -> np.ndarray:
    kind, params = cost["kind"], cost["params"]
    q0 = np.asarray(params["q0"], dtype=float)
    if kind == "quadratic":
        d = points - q0
        return np.sum((d @ np.asarray(params["Q"], dtype=float)) * d, axis=1)
    if kind == "relative-entropy":
        safe = np.where(points > 0.0, points, 1.0)
        return params["theta"] * np.sum(np.where(points > 0.0, points * np.log(safe / q0), 0.0), axis=1)
    raise ValueError(f"generator does not model cost kind {kind!r}")


def utility_values(utility: dict, x: np.ndarray) -> np.ndarray:
    kind = utility["kind"]
    if kind == "risk_neutral":
        return np.asarray(x, dtype=float)
    if kind == "cara":
        a = utility["params"]["a"]
        return (1.0 - np.exp(-a * np.asarray(x, dtype=float))) / a
    raise ValueError(f"generator does not model utility kind {kind!r}")


def family_payments(family: dict, y: np.ndarray) -> np.ndarray:
    """Payment matrix (contracts, n) of the families the generator emits."""
    kind, params = family["kind"], family["params"]
    if kind == "grid":
        grids = [np.asarray(g, dtype=float) for g in params["values"]]
        mesh = np.meshgrid(*grids, indexing="ij")
        return np.column_stack([g.ravel() for g in mesh])
    if kind == "linear-share":
        betas = np.asarray(params["betas"], dtype=float)
        ws = np.asarray(params["ws"], dtype=float)
        return (betas[:, None, None] * y[None, None, :] + ws[None, :, None]).reshape(-1, y.size)
    raise ValueError(f"generator does not model family kind {kind!r}")


def feasible(scenario: dict, capacity: float | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Feasible lattice points and their costs under the program's rule."""
    n, m = len(scenario["states"]), scenario["simplex_grid"]
    pts = lattice(n, m)
    costs = cost_values(scenario["cost"], pts)
    k = scenario["capacity"] if capacity is None else capacity
    mask = costs <= k + FEASIBILITY_SLACK
    return pts[mask], costs[mask]


def best_response_value(scenario: dict, payments: np.ndarray, points, costs) -> np.ndarray:
    """max_p u(b).p - c(p) over the given points, one value per contract row."""
    util = utility_values(scenario["utility"], np.atleast_2d(payments))
    return (util @ points.T - costs[None, :]).max(axis=1)


def profiles(scenario: dict, pts: np.ndarray, costs: np.ndarray, payments: np.ndarray) -> dict:
    """Every (contract, maximizer) pair, ties within tol_u kept."""
    tol = scenario["tolerances"]["tol_u"]
    util = utility_values(scenario["utility"], payments)
    vals = util @ pts.T - costs[None, :]
    ci, pi = np.nonzero(vals >= vals.max(axis=1, keepdims=True) - tol)
    y = np.asarray(scenario["output"], dtype=float)
    return {
        "contract": ci,
        "point": pi,
        "agent": vals[ci, pi],
        "output": pts[pi] @ y,
        "payment": np.einsum("ij,ij->i", payments[ci], pts[pi]),
        "cost": costs[pi],
    }


def dominated(agent: np.ndarray, principal: np.ndarray, tol: float, slack: float = 0.0) -> np.ndarray:
    """x is dominated when some q is strictly better than tol in one payoff
    and no worse than tol in the other (pairwise, quadratic in the rows).

    For payoffs known only to within ``slack``, both margins move against
    domination (better by tol + slack, no worse than tol - slack), so a pair
    is flagged only when every value the payoffs could stand for dominates.
    """
    a_better = agent[None, :] > agent[:, None] + tol + slack
    p_better = principal[None, :] > principal[:, None] + tol + slack
    a_ok = agent[None, :] >= agent[:, None] - tol + slack
    p_ok = principal[None, :] >= principal[:, None] - tol + slack
    return ((a_better & p_ok) | (p_better & a_ok)).any(axis=1)


def cluster_levels(values: np.ndarray, tol: float) -> np.ndarray:
    """Ascending levels; a value opens a new level when it exceeds the current
    level's lowest member by more than tol."""
    reps: list[float] = []
    for v in np.sort(values):
        if not reps or v - reps[-1] > tol:
            reps.append(float(v))
    return np.array(reps)


def frontier(prof: dict, alpha: float, tol: float) -> np.ndarray:
    """Indices of the Pareto optimal rows of ``profiles`` at output scale alpha."""
    principal = alpha * prof["output"] - prof["payment"]
    return np.flatnonzero(~dominated(prof["agent"], principal, tol))
