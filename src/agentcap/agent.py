"""Agent best responses and the agent-side first-order condition.

Two routes to the agent's problem max E_p[u(b)] - c(p) over the feasible set
D = {p : c(p) <= k}: an exhaustive scan of the enumeration grid, and a convex
interior solver for the smooth cost kinds. The scan is the ground truth the
solver is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigurationError,
    ConvergenceError,
    EmptyFeasibleSetError,
    UnsupportedCostError,
)
from .model import (
    Contract,
    Distribution,
    Scenario,
    _as_payments,
    _as_probs,
    feasible_mask,
)

_CHUNK = 1 << 21  # cap on rows x points handled per value block


@dataclass(frozen=True)
class BestResponseSet:
    """All grid maximizers within tol_u of the best value (the convex solver
    returns a single one). ``any_binding`` is true when some maximizer is
    capacity-binding (see ``capacity_binding``)."""

    maximizers: tuple[Distribution, ...]
    value: float
    any_binding: bool

    def points(self) -> np.ndarray:
        return np.array([d.probs for d in self.maximizers])


@dataclass(frozen=True)
class AgentFocResidual:
    """Residuals of the agent's stationarity condition at (p, rho, mu).

    residual(w) = u(b(w)) - dc/dp(w) - rho - mu * dc/dp(w), written with the
    cost derivative on both sides exactly as displayed; equivalently
    u(b) - (1 + mu) dc/dp - rho. ``complementarity_gap`` is mu * (k - c(p));
    ``capacity_slack`` is k - c(p) with ``slack`` flagging a strict gap.
    """

    rho: float
    mu: float
    residual: tuple[float, ...]
    complementarity_gap: float
    capacity_slack: float
    slack: bool

    @property
    def max_abs(self) -> float:
        return float(np.max(np.abs(self.residual)))


def feasible_lattice(s: Scenario) -> tuple[np.ndarray, np.ndarray]:
    """Enumeration points inside D with their costs, in lattice order.

    Reads ``s.lattice``, which ``Scenario.at_capacity`` shares across
    capacities. Raises EmptyFeasibleSetError when capacity excludes every
    point.
    """
    lattice = s.lattice
    mask = feasible_mask(lattice.costs, s.capacity)
    if not mask.any():
        raise EmptyFeasibleSetError("capacity excludes every enumeration point")
    return lattice.points[mask], lattice.costs[mask]


def capacity_binding(cost, capacity: float, tol_u: float):
    """The capacity-binding rule: a cost within tol_u of the capacity.

    Elementwise over arrays; every binding flag in the package comes from
    here.
    """
    return np.abs(cost - capacity) <= tol_u


def scan_grid(
    payoffs: np.ndarray,
    points: np.ndarray,
    costs: np.ndarray,
    tol_u: float,
    running: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Grid best responses of every payoff row, ties kept.

    Row r scores ``payoffs[r] . p - c(p)`` at every point; the result is
    (row ids, point ids, values) of each point within tol_u of its row's
    best, rows ascending and points in lattice order within a row. Values
    are computed in blocks of at most ``_CHUNK`` rows x points, so only one
    block's value matrix is alive at a time; the costs are subtracted in
    place, and ties are found as flat indices into the block, split into
    (row, point) pairs in row-major order. The block height is part of the
    result: BLAS may round a matmul differently for another height.

    ``running``, when given, holds one best value per row found over other
    points, and is updated in place to the best over those and these: a
    row's floor is then max(running, best here) - tol_u. Scanning a set of
    points in parts this way finds the ties of the whole set among the last
    part; a caller keeps the earlier parts' ties that reach the final floor.
    """
    rows_per_block = max(1, _CHUNK // max(1, len(points)))
    r_ids: list[np.ndarray] = []
    p_ids: list[np.ndarray] = []
    values: list[np.ndarray] = []
    for start in range(0, len(payoffs), rows_per_block):
        stop = start + rows_per_block
        vals = payoffs[start:stop] @ points.T
        np.subtract(vals, costs, out=vals)
        floor = vals.max(axis=1)
        if running is not None:
            np.maximum(floor, running[start:stop], out=floor)
            running[start:stop] = floor
        floor -= tol_u
        flat = np.flatnonzero(vals >= floor[:, None])
        ri, pi = np.divmod(flat, vals.shape[1])
        r_ids.append(ri + start)
        p_ids.append(pi)
        values.append(vals.ravel()[flat])
    return np.concatenate(r_ids), np.concatenate(p_ids), np.concatenate(values)


def grid_best_response(s: Scenario, payoff: np.ndarray) -> BestResponseSet:
    """Best responses over the feasible grid to a per-state payoff vector
    (the agent's utility of each state's payment)."""
    points, costs = feasible_lattice(s)
    _, idx, values = scan_grid(payoff[None, :], points, costs, s.tol_u)
    return BestResponseSet(
        maximizers=tuple(Distribution(tuple(points[i])) for i in idx),
        value=float(values.max()),
        any_binding=bool(capacity_binding(costs[idx], s.capacity, s.tol_u).any()),
    )


def best_response_grid(s: Scenario, b) -> BestResponseSet:
    """Exhaustive best response over the enumeration grid, ties kept.

    Maximizers come back in the grid's lexicographic order.
    """
    return grid_best_response(s, s.utility.apply(_as_payments(b)))


# ---------------------------------------------------------------------------
# Convex route


def _project_simplex(z: np.ndarray) -> np.ndarray:
    u = np.sort(z)[::-1]
    css = np.cumsum(u) - 1.0
    ind = np.arange(1, z.size + 1)
    pos = np.flatnonzero(u - css / ind > 0)
    theta = css[pos[-1]] / (pos[-1] + 1)
    return np.maximum(z - theta, 0.0)


def _inner_entropy(s: Scenario, payoff: np.ndarray, mu: float) -> np.ndarray:
    # closed form: argmax payoff.p - (1+mu) theta KL(p||q0)
    lam = (1.0 + mu) * s.cost.theta
    logits = np.log(np.array(s.cost.q0)) + payoff / lam
    logits -= logits.max()
    w = np.exp(logits)
    return w / w.sum()


def _inner_quadratic(
    s: Scenario, payoff: np.ndarray, mu: float, max_iter: int, tol: float
) -> np.ndarray:
    lam = 1.0 + mu
    Q = np.array(s.cost.Q)
    q0 = np.array(s.cost.q0)
    lip = 2.0 * lam * float(np.linalg.eigvalsh(Q).max())
    if lip < 1e-14:
        # zero cost: linear objective, any argmax vertex works
        p = np.zeros_like(payoff)
        p[int(np.argmax(payoff))] = 1.0
        return p
    step = 1.0 / lip
    p = _project_simplex(q0.copy())
    for _ in range(max_iter):
        grad = payoff - 2.0 * lam * Q @ (p - q0)
        nxt = _project_simplex(p + step * grad)
        if np.abs(nxt - p).max() * lip <= tol:
            return nxt
        p = nxt
    raise ConvergenceError(
        "projected ascent did not converge", last_iterate=p, residual=float(np.abs(nxt - p).max() * lip)
    )


def best_response_convex(s: Scenario, b, max_iter: int = 2000, tol: float = 1e-10) -> BestResponseSet:
    """Interior best response for the smooth convex cost kinds.

    Runs a scalar bisection on the capacity multiplier mu over an inner
    simplex-constrained maximization of E_p[u(b)] - (1+mu) c(p); the inner
    problem has a closed form for relative entropy and is solved by projected
    gradient ascent for quadratics. Agrees with best_response_grid within the
    lattice resolution.
    """
    if not s.cost.convex_smooth:
        raise UnsupportedCostError(f"convex solver needs a smooth convex cost, got {s.cost.kind!r}")
    payoff = np.asarray(s.utility.apply(_as_payments(b)), dtype=float)

    def inner(mu: float) -> np.ndarray:
        if s.cost.kind == "relative-entropy":
            return _inner_entropy(s, payoff, mu)
        return _inner_quadratic(s, payoff, mu, max_iter, tol)

    k = s.capacity
    p = inner(0.0)
    if not feasible_mask(s.cost.value(p), k):
        lo, hi = 0.0, 1.0
        for _ in range(70):
            if feasible_mask(s.cost.value(inner(hi)), k):
                break
            lo, hi = hi, 2.0 * hi
        else:
            raise EmptyFeasibleSetError("capacity below the attainable cost range")
        for _ in range(100):
            mid = 0.5 * (lo + hi)
            if not feasible_mask(s.cost.value(inner(mid)), k):
                lo = mid
            else:
                hi = mid
            if hi - lo <= 1e-13 * max(1.0, hi):
                break
        p = inner(hi)

    value = float(payoff @ p - s.cost.value(p))
    binding = bool(capacity_binding(s.cost.value(p), k, s.tol_u))
    return BestResponseSet(maximizers=(Distribution(tuple(p)),), value=value, any_binding=binding)


# ---------------------------------------------------------------------------
# First-order condition


def agent_foc_residual(s: Scenario, b, p, rho: float, mu: float) -> AgentFocResidual:
    """Evaluate the agent's stationarity residuals at (b, p, rho, mu)."""
    if mu < 0:
        raise ConfigurationError("capacity multiplier mu must be nonnegative")
    parr = _as_probs(p)
    g = s.cost.gradient(parr)  # raises for non-differentiable kinds / boundary
    ub = s.utility.apply(_as_payments(b))
    residual = ub - g - rho - mu * g
    c = s.cost.value(parr)
    slack_amount = s.capacity - c
    return AgentFocResidual(
        rho=float(rho),
        mu=float(mu),
        residual=tuple(float(r) for r in residual),
        complementarity_gap=float(mu * slack_amount),
        capacity_slack=float(slack_amount),
        slack=bool(slack_amount > s.tol_u),
    )


def fit_agent_multipliers(s: Scenario, b, p) -> tuple[float, float]:
    """Least-squares (rho, mu) for the stationarity system, mu clamped at 0."""
    parr = _as_probs(p)
    g = s.cost.gradient(parr)
    ub = np.asarray(s.utility.apply(_as_payments(b)), dtype=float)
    design = np.column_stack([np.ones_like(g), g])
    coef, *_ = np.linalg.lstsq(design, ub, rcond=None)
    rho, slope = float(coef[0]), float(coef[1])
    mu = slope - 1.0
    if mu < 0.0:
        mu = 0.0
        rho = float(np.mean(ub - g))
    return rho, mu
