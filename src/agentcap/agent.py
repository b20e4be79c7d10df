"""Agent best responses and the agent-side first-order condition.

The agent's problem is max E_p[u(b)] - c(p) over the feasible set
D = {p : c(p) <= k}. On the enumeration grid it is solved exactly by a scan;
over the whole simplex, for the smooth cost kinds, by the centre solvers
``_entropy_centres`` and ``_quadratic_centres``, which ``best_response_convex``
calls with one payoff row and the ball route with many. The scan is the
ground truth the continuous response is tested against.

The scan has two producers of the same (row, point, value) ties. ``scan_grid``
scores every row against every point. ``scan_balls``, for the costs that are
strictly convex on the simplex (relative entropy, and a quadratic whose Q is
positive definite on the sum-zero subspace), scores only the lattice points
inside each row's strong-concavity ball around its continuous optimum, which
provably holds every tie; it finds the same ties, and its values may differ
from the full scan's in the last bit. Both apply the one tie cut,
``tie_floor``, and name a point by its index in ``s.lattice.points``, which
``Scenario.at_capacity`` shares, so an id is the same at every capacity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigurationError,
    ConvergenceError,
    EmptyFeasibleSetError,
    UnsupportedCostError,
    ValidationError,
)
from .model import (
    FEASIBILITY_SLACK,
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
    """All grid maximizers within tol_u of the best value (the continuous
    response, ``best_response_convex``, returns its single one).
    ``any_binding`` is true when some maximizer is capacity-binding (see
    ``capacity_binding``)."""

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
    """(ids, mask): the lattice indices of the points inside D, ascending,
    and the mask over the whole lattice. Raises EmptyFeasibleSetError when
    capacity excludes every point."""
    mask = feasible_mask(s.lattice.costs, s.capacity)
    if not mask.any():
        raise EmptyFeasibleSetError("capacity excludes every enumeration point")
    return np.flatnonzero(mask), mask


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
    are computed in blocks of at most ``_CHUNK`` rows x points, each written
    into one buffer allocated for the first block; the costs are subtracted in
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
    buf = np.empty((min(rows_per_block, len(payoffs)), len(points)))
    r_ids: list[np.ndarray] = []
    p_ids: list[np.ndarray] = []
    values: list[np.ndarray] = []
    for start in range(0, len(payoffs), rows_per_block):
        stop = start + rows_per_block
        block = payoffs[start:stop]
        vals = np.matmul(block, points.T, out=buf[: len(block)])
        np.subtract(vals, costs, out=vals)
        best = vals.max(axis=1)
        if running is not None:
            np.maximum(best, running[start:stop], out=best)
            running[start:stop] = best
        flat = np.flatnonzero(vals >= tie_floor(best, tol_u)[:, None])
        ri, pi = np.divmod(flat, vals.shape[1])
        r_ids.append(ri + start)
        p_ids.append(pi)
        values.append(vals.ravel()[flat])
    return np.concatenate(r_ids), np.concatenate(p_ids), np.concatenate(values)


def grid_best_response(s: Scenario, payoff: np.ndarray) -> BestResponseSet:
    """Best responses over the feasible grid to a per-state payoff vector
    (the agent's utility of each state's payment)."""
    ids, _ = feasible_lattice(s)
    points, costs = s.lattice.points[ids], s.lattice.costs[ids]
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
# Ball route: exact lattice best responses from strong concavity
#
# For a cost that is strictly convex on the simplex, a contract's objective
# f(p) = u.p - c(p) is bounded above on the feasible set by the Lagrangian
# L(p) = u.p - (1+mu) c(p) + mu kbar, kbar = k + FEASIBILITY_SLACK, for any
# mu >= 0, and L is sigma-strongly concave with sigma = (1+mu) sigma0. With
# UB >= L(centre) + (the linear gain available from the centre), every tie
# p, whose value is at least LB - tol_u for the value LB of any feasible
# lattice point, satisfies sigma/2 |p - centre|^2 <= UB - LB + tol_u. Only
# the lattice points inside that ball are scored. The bound holds for any
# mu and any centre; how well they are solved for changes only the ball's
# size.

# Rounding allowance, relative to the magnitudes a bound is built from: the
# bound's terms carry errors of a few ulps (about 1e-16 relative each), and
# this widens a ball by far less than one lattice step.
_ROUND = 1e-10


def tie_floor(best, tol_u: float):
    """The tie cut: a point ties its row's best value ``best`` when it
    scores at least this. Both producers and the capacity chain use it."""
    return best - tol_u


def strong_concavity(cost) -> tuple[int, float] | None:
    """(norm, sigma0) such that u.p - (1+mu) c(p) is (1+mu) sigma0-strongly
    concave on the simplex in the l1 (1) or l2 (2) norm, or None when c is
    not strictly convex there.

    Relative entropy: sigma0 = theta in l1 (Pinsker). Quadratic: sigma0 =
    2 lambda_min(V'QV) in l2, V an orthonormal basis of the sum-zero
    subspace, less eigvalsh's rounding; a Q singular on that subspace gives
    None. Table and effort costs give None.
    """
    if cost.kind == "relative-entropy":
        return 1, cost.theta
    if cost.kind == "quadratic":
        n = len(cost.q0)
        basis = np.linalg.eigh(np.eye(n) - 1.0 / n)[1][:, 1:]
        eig = np.linalg.eigvalsh(basis.T @ np.array(cost.Q) @ basis)
        low = eig[0] - _ROUND * abs(eig[-1])
        return (2, 2.0 * low) if low > 0 else None
    return None


def ball_route(s: Scenario, n_contracts: int, n_feasible: int) -> bool:
    """The routing rule between the two producers of a fresh enumeration:
    ``scan_balls`` when the cost is strictly convex on the simplex
    (``strong_concavity``) and contracts x feasible points exceed one value
    block (``_CHUNK``), else ``scan_grid``. A quadratic also needs fewer
    faces of the simplex, 2^n - 1, than feasible points: its centre solver
    may solve one system per face."""
    if n_contracts * n_feasible <= _CHUNK or strong_concavity(s.cost) is None:
        return False
    return s.cost.kind != "quadratic" or (1 << s.n) <= n_feasible


def _gibbs(u: np.ndarray, logq: np.ndarray, beta: np.ndarray):
    """Rows p ~ q0 exp(beta u), and their log normalisers
    log sum q0 exp(beta u)."""
    z = logq + beta[:, None] * u
    top = z.max(axis=1)
    w = np.exp(z - top[:, None])
    total = w.sum(axis=1)
    return w / total[:, None], top + np.log(total)


def _entropy_bound(u: np.ndarray, cost, beta: np.ndarray, kbar: float):
    """(mu, centre, UB) per row at beta = 1 / ((1+mu) theta) <= 1/theta.

    With lam = 1/beta, the maximum over the simplex of u.p - lam KL(p||q0)
    is lam log sum q0 exp(u/lam), attained at the centre p ~ q0 exp(u/lam);
    UB adds mu kbar.
    """
    p, logz = _gibbs(u, np.log(np.array(cost.q0)), beta)
    lam = 1.0 / beta
    mu = np.maximum(lam / cost.theta - 1.0, 0.0)
    return mu, p, lam * logz + mu * kbar


def _entropy_centres(u: np.ndarray, cost, kbar: float):
    """(mu, centre, UB) per payoff row for relative entropy: mu solves
    theta KL(p_mu||q0) = kbar, by safeguarded Newton on beta, when the
    unconstrained optimum is infeasible, and is 0 otherwise."""
    theta = cost.theta
    logq = np.log(np.array(cost.q0))
    beta = np.full(len(u), 1.0 / theta)
    p, logz = _gibbs(u, logq, beta)
    # KL(p_beta||q0) = beta E[u] - log Z; it rises with beta from 0
    target = kbar / theta
    todo = np.flatnonzero(beta * np.einsum("ij,ij->i", p, u) - logz > target)
    lo, hi = np.zeros(todo.size), beta[todo]
    for _ in range(200):
        if not todo.size:
            break
        uu, b = u[todo], beta[todo]
        q, lz = _gibbs(uu, logq, b)
        eu = np.einsum("ij,ij->i", q, uu)
        gap = b * eu - lz - target
        slope = b * (np.einsum("ij,ij->i", q, uu * uu) - eu * eu)
        hi = np.where(gap > 0, b, hi)
        lo = np.where(gap > 0, lo, b)
        with np.errstate(divide="ignore", invalid="ignore"):
            nxt = b - gap / slope
        nxt = np.where((nxt > lo) & (nxt < hi), nxt, 0.5 * (lo + hi))
        beta[todo] = nxt
        moving = np.abs(nxt - b) > 1e-13 * b
        todo, lo, hi = todo[moving], lo[moving], hi[moving]
    return _entropy_bound(u, cost, beta, kbar)


def _quadratic_faces(Q: np.ndarray, q0: np.ndarray, masks: np.ndarray, flat: bool):
    """Per face (support bitmask in ``masks``), the affine solution of the
    face's stationarity system t u_F - 2 (Q (p - q0))_F = nu, sum p = 1:
    p = b + t A u and nu = nu0 + t w.u, zero off the face, with Qe and c0,
    Q (p - q0) and c(p) at t = 0. Faces of one size are solved as one
    stacked inverse.

    For a ``flat`` cost (``strong_concavity`` None), a face's system is
    singular when the face holds a direction d with sum d = 0 and Q d = 0.
    Such faces are solved by pseudo-inverse, which drops the part of u
    along those directions, and ``null`` holds each face's projector onto
    them (None for a cost that is not flat)."""
    n = len(q0)
    member = (masks[:, None] >> np.arange(n)) & 1 == 1
    sizes = member.sum(axis=1)
    A = np.zeros((masks.size, n, n))
    b = np.zeros((masks.size, n))
    w = np.zeros((masks.size, n))
    nu0 = np.zeros(masks.size)
    null = np.zeros((masks.size, n, n)) if flat else None
    shift = 2.0 * Q @ q0
    for size in sorted(set(sizes.tolist())):
        faces = np.flatnonzero(sizes == size)
        idx = np.nonzero(member[faces])[1].reshape(faces.size, size)
        M = np.ones((faces.size, size + 1, size + 1))
        M[:, :size, :size] = 2.0 * Q[idx[:, :, None], idx[:, None, :]]
        M[:, size, size] = 0.0
        rows = faces[:, None]
        if flat:
            inv = np.linalg.pinv(M, _ROUND, hermitian=True)
            null[rows[:, :, None], idx[:, :, None], idx[:, None, :]] = (np.eye(size + 1) - inv @ M)[:, :size, :size]
        else:
            inv = np.linalg.inv(M)
        X, y, z = inv[:, :size, :size], inv[:, :size, size], inv[:, size, size]
        sh = shift[idx]
        A[rows[:, :, None], idx[:, :, None], idx[:, None, :]] = X
        b[rows, idx] = np.einsum("fij,fj->fi", X, sh) + y
        w[rows, idx] = inv[:, size, :size]
        nu0[faces] = np.einsum("fj,fj->f", inv[:, size, :size], sh) + z
    Qe = (b - q0) @ Q
    return A, b, w, nu0, Qe, np.einsum("fi,fi->f", Qe, b - q0), null


# A row's active set visits one face per step; past this many steps it
# stops where it is, with a bound that still holds.
_FACE_STEPS = 1 << 10


def _quadratic_centres(u: np.ndarray, cost, kbar: float):
    """(mu, centre, UB) per payoff row for a quadratic cost.

    Primal-dual active-set iterations on the support, from the whole
    simplex; each step solves only the faces its rows are on. On a face,
    the optimum of t u.p - c(p) is affine in t = 1/(1+mu), so its cost is
    a quadratic in t and the t meeting the capacity is a closed-form root.
    On a face with null directions (see ``_quadratic_faces``) the cost is
    constant along d, the projection of u on them, and u.p rises: the row
    steps along d to the simplex's boundary, the first coordinate to reach
    zero (the lowest on ties) leaves the face and none joins it. So such
    steps end on a face without null directions, where some optimum lies.
    UB is L(centre) plus the Frank-Wolfe gap at the centre, which bounds L
    over the simplex whether or not the iterations converged.
    """
    Q, q0 = np.array(cost.Q), np.array(cost.q0)
    flat = strong_concavity(cost) is None
    h, n = u.shape
    bits = 1 << np.arange(n)
    face = np.full(h, (1 << n) - 1)
    t = np.zeros(h)
    centre = np.empty((h, n))
    todo = np.arange(h)
    for step in range(min(1 << n, _FACE_STEPS)):
        F, uu = face[todo], u[todo]
        masks, slot = np.unique(F, return_inverse=True)
        A, b, w, nu0, Qe, c0_face, null = _quadratic_faces(Q, q0, masks, flat)
        d = np.einsum("rij,rj->ri", A[slot], uu)
        Qd = d @ Q
        c2 = np.einsum("ij,ij->i", d, Qd)
        c1 = 2.0 * np.einsum("ij,ij->i", d, Qe[slot])
        c0 = c0_face[slot]
        root = np.sqrt(np.maximum(c1 * c1 - 4.0 * c2 * (c0 - kbar), 0.0))
        with np.errstate(divide="ignore", invalid="ignore"):
            tt = np.where(c0 + c1 + c2 <= kbar, 1.0, 2.0 * (kbar - c0) / (c1 + root))
        tt = np.where(c0 > kbar, 0.0, np.clip(np.nan_to_num(tt), 0.0, 1.0))
        p = b[slot] + tt[:, None] * d
        nu = nu0[slot] + tt * np.einsum("ij,ij->i", w[slot], uu)
        g = tt[:, None] * (uu - 2.0 * Qd) - 2.0 * Qe[slot]
        on = (F[:, None] & bits) != 0
        keep = np.where(on, p > 0, g > nu[:, None])
        if flat:
            up = np.einsum("rij,rj->ri", null[slot], uu)
            up[np.abs(up).max(axis=1) <= _ROUND * np.abs(uu).max(axis=1)] = 0.0
            with np.errstate(divide="ignore", invalid="ignore"):
                ratio = np.where(up < 0, np.maximum(p, 0.0) / -up, np.inf)
            out = ratio.argmin(axis=1)
            r = np.flatnonzero(np.isfinite(ratio[np.arange(len(out)), out]))
            p[r] += ratio[r, out[r], None] * up[r]
            p[r, out[r]] = 0.0
            keep[r] = on[r] & (p[r] > 0)
        nxt = keep @ bits
        if step >= n:
            # least-index rule: change only the lowest index that wants to
            nxt = F ^ ((nxt ^ F) & -(nxt ^ F))
        t[todo], centre[todo], face[todo] = tt, p, nxt
        todo = todo[nxt != F]
        if not todo.size:
            break
    return _quadratic_bound(u, cost, t, centre, kbar)


def _quadratic_bound(u: np.ndarray, cost, t: np.ndarray, centre: np.ndarray, kbar: float):
    """(mu, centre, UB) per row at t = 1/(1+mu) in (0, 1], for any centre
    summing to 1: L is concave, so over the simplex it is at most L(centre)
    plus the Frank-Wolfe gap max_i grad L_i - grad L . centre. A row with
    t = 0 gets an infinite or NaN bound."""
    Q, q0 = np.array(cost.Q), np.array(cost.q0)
    with np.errstate(divide="ignore", invalid="ignore"):
        lam = 1.0 / t
        mu = lam - 1.0
        dev = centre - q0
        grad = u - 2.0 * lam[:, None] * (dev @ Q)
        fw_gap = grad.max(axis=1) - np.einsum("ij,ij->i", grad, centre)
        value = np.einsum("ij,ij->i", u, centre) - lam * np.einsum("ij,ij->i", dev @ Q, dev) + mu * kbar
    return mu, centre, value + np.maximum(fw_gap, 0.0)


def _binomials(top: int, k: int) -> np.ndarray:
    """C(x, j) for 0 <= x <= top and 0 <= j <= k, as int64, a column at a
    time: C(x, j) is the sum of C(t, j - 1) over t < x. Only sums are
    formed, so no intermediate exceeds the largest entry, C(top, k)."""
    table = np.zeros((top + 1, k + 1), dtype=np.int64)
    table[:, 0] = 1
    for j in range(1, k + 1):
        np.cumsum(table[:-1, j - 1], out=table[1:, j])
    return table


def _lattice_rank(counts: np.ndarray, m: int, binom: np.ndarray) -> np.ndarray:
    """Index in ``simplex_lattice(n, m)`` (lexicographic order) of each row
    of compositions of m, by the combinatorial number system: placing a_j
    of the ``left`` units at coordinate j skips the C(left + k, k) -
    C(left - a_j + k, k) compositions with a smaller a_j, k = n - 1 - j."""
    n = counts.shape[1]
    table, width = binom.ravel(), binom.shape[1]
    rank = np.zeros(len(counts), dtype=np.int64)
    left = np.full(len(counts), m, dtype=np.int64)
    for j in range(n - 1):
        k = n - 1 - j
        rank += table[(left + k) * width + k] - table[(left - counts[:, j] + k) * width + k]
        left -= counts[:, j]
    return rank


def _ball_points(centre: np.ndarray, bound: np.ndarray, norm: int, m: int, binom: np.ndarray):
    """(row, lattice rank) of every lattice point p with
    sum_i |p_i - centre_i|^norm <= bound[row], summed in coordinate order,
    rows ascending and points in lattice order within a row.

    Coordinates are placed one at a time. A prefix is kept only while the
    rest of the point can still land inside the ball, given that the
    remaining deviations have a known sum.
    """
    h, n = centre.shape
    rest = np.cumsum(centre[:, ::-1], axis=1)[:, ::-1]  # rest[:, j] = sum_{i>=j}
    table, span = binom.ravel(), binom.shape[1]
    row = np.arange(h)
    left = np.full(h, m)
    dist = np.zeros(h)
    rank = np.zeros(h, dtype=np.int64)
    for j in range(n - 1):
        k = n - 1 - j
        c, gap = centre[row, j], left / m - rest[row, j + 1]
        room = bound[row] - dist + _ROUND * (1.0 + bound[row])
        if norm == 2:
            # (x - c)^2 + (gap - x)^2 / k is smallest at x0
            least = (gap - c) ** 2 / (k + 1)
            mid = (k * c + gap) / (k + 1)
            half = np.sqrt(np.maximum(room - least, 0.0) * k / (k + 1))
        else:
            # |x - c| + |gap - x| is smallest, |gap - c|, between them
            least = np.abs(gap - c)
            mid = 0.5 * (c + gap)
            half = 0.5 * room
        lo = np.maximum(np.ceil(m * (mid - half) - m * _ROUND), 0).astype(np.int64)
        hi = np.minimum(np.floor(m * (mid + half) + m * _ROUND), left).astype(np.int64)
        width = np.where(room >= least, np.maximum(hi - lo + 1, 0), 0)
        parent = np.repeat(np.arange(row.size), width)
        a = lo[parent] + np.arange(parent.size) - np.repeat(np.cumsum(width) - width, width)
        left, row = left[parent], row[parent]
        dist = dist[parent] + np.abs(a / m - c[parent]) ** norm
        rank = rank[parent] + table[(left + k) * span + k] - table[(left - a + k) * span + k]
        left = left - a
    inside = dist + np.abs(left / m - centre[row, n - 1]) ** norm <= bound[row]
    return row[inside], rank[inside]


def _nearest_counts(p: np.ndarray, m: int) -> np.ndarray:
    """Lattice counts (summing to m) nearest to each row of m p, by largest
    remainder."""
    x = np.maximum(p, 0.0) * m
    counts = np.floor(x)
    order = np.argsort(counts - x, axis=1, kind="stable")
    place = np.empty_like(order)
    np.put_along_axis(place, order, np.arange(p.shape[1])[None, :], axis=1)
    counts += place < (m - counts.sum(axis=1))[:, None]
    return counts.astype(np.int64)


def _pair_values(payoffs: np.ndarray, points: np.ndarray, costs: np.ndarray) -> np.ndarray:
    """payoffs[i] . points[i] - costs[i] for each i. Each dot product is a
    matmul of its own, summed in coordinate order; the full scan's blocked
    matmul sums the same way on common BLAS builds, but need not."""
    vals = np.matmul(payoffs[:, None, :], points[:, :, None])[:, 0, 0]
    return np.subtract(vals, costs, out=vals)


def _segment_max(owner: np.ndarray, vals: np.ndarray, out: np.ndarray) -> None:
    """out[o] = the largest of ``vals`` over each run of equal ``owner``
    entries (owners ascending)."""
    if vals.size:
        first = np.flatnonzero(np.diff(owner, prepend=-1))
        out[owner[first]] = np.maximum.reduceat(vals, first)


def _groups(sizes: np.ndarray, cap: float):
    """Consecutive slices of ``sizes`` whose sums stay within cap (a slice
    holds at least one entry)."""
    ends = np.cumsum(sizes)
    i = 0
    while i < sizes.size:
        j = max(i + 1, int(np.searchsorted(ends, (ends[i - 1] if i else 0.0) + cap, side="right")))
        yield slice(i, j)
        i = j


def scan_balls(s: Scenario, payoffs: np.ndarray, ids: np.ndarray, mask: np.ndarray):
    """``scan_grid``'s ties over the feasible points of ``s``, given as
    ``feasible_lattice``'s (ids, mask), for a cost that ``strong_concavity``
    accepts, scoring only the lattice points inside each row's certified
    ball; also returns each row's best value and the number of values
    computed.

    A row gets (mu, centre, UB) from its cost kind's centre solver, and LB
    from the best feasible point among its rounded centre and that point's
    one-step neighbours. Its ball is sigma/2 |p - centre|^2 <= UB - LB +
    tol_u + a rounding allowance; every tie lies in it. A row is scanned in
    full by ``scan_grid`` when it has no finite bound or no feasible probe,
    or when enumerating its ball could visit more prefixes than the
    feasible set has points: up to the lattice points of the ball's
    bounding box at each of n - 1 levels. Rows are processed in chunks
    whose probe arrays, and groups whose ball enumerations, stay within one
    ``_CHUNK`` block.

    Values are single matmuls per (row, point) pair and may differ from
    ``scan_grid``'s blocked matmul in the last bit.
    """
    norm, sigma0 = strong_concavity(s.cost)
    n, m, tol_u = s.n, s.m, s.tol_u
    kbar = s.capacity + FEASIBILITY_SLACK
    points, costs = s.lattice.points, s.lattice.costs
    binom = _binomials(m + n, n)
    cscale = float(np.abs(costs).max()) + abs(kbar)
    if s.cost.kind == "relative-entropy":
        cscale += s.cost.theta * float(np.abs(np.log(s.cost.q0)).max())

        def centres(u):
            return _entropy_centres(u, s.cost, kbar)
    else:
        def centres(u):
            return _quadratic_centres(u, s.cost, kbar)

    eye = np.eye(n, dtype=np.int64)
    moves = np.array([eye[j] - eye[i] for i in range(n) for j in range(n) if i != j])
    n_c, n_p = len(payoffs), len(ids)
    row_max = np.full(n_c, -np.inf)
    parts, full = [], []
    evaluations = 0
    per = max(1, _CHUNK // (len(moves) * n))
    for start in range(0, n_c, per):
        u = payoffs[start:start + per]
        mu, centre, ub = centres(u)
        # LB: the rounded centre's value where it is feasible, else the best
        # feasible one-step neighbour's
        base = _nearest_counts(centre, m)
        lb = np.full(len(u), -np.inf)
        rows, probes = np.arange(len(u)), base
        for stage in range(2):
            at = np.flatnonzero((probes >= 0).all(axis=1) & (probes.sum(axis=1) == m))
            rank = _lattice_rank(probes[at], m, binom)
            feasible = mask[rank]
            at, rank = at[feasible], rank[feasible]
            vals = _pair_values(u[rows[at]], points[rank], costs[rank])
            evaluations += vals.size
            _segment_max(rows[at], vals, lb)
            if stage == 0:
                rows = np.repeat(np.flatnonzero(lb == -np.inf), len(moves))
                probes = (base[rows].reshape(-1, len(moves), n) + moves).reshape(-1, n)
        lam = 1.0 + mu
        margin = _ROUND * (1.0 + np.abs(ub) + np.abs(lb) + np.abs(u).max(axis=1) + lam * cscale)
        with np.errstate(invalid="ignore", over="ignore"):
            r2 = 2.0 * (ub - lb + tol_u + margin) / (lam * sigma0)
            reach = np.sqrt(r2) / (2.0 if norm == 1 else 1.0)
            width = np.floor(m * (centre + reach[:, None])) - np.ceil(m * (centre - reach[:, None])) + 1
            bound = r2 if norm == 2 else np.sqrt(r2)
        size = np.prod(np.clip(width[:, :-1], 1, m + 1), axis=1)
        ok = np.isfinite(r2) & ((n - 1) * size <= n_p)
        full.append(start + np.flatnonzero(~ok))
        rows = np.flatnonzero(ok)
        for part in _groups(size[rows], _CHUNK / n):
            g = rows[part]
            owner, rank = _ball_points(centre[g], bound[g], norm, m, binom)
            feasible = mask[rank]
            owner, rank = owner[feasible], rank[feasible]
            vals = _pair_values(u[g[owner]], points[rank], costs[rank])
            evaluations += vals.size
            # every row's ball holds its LB point, so each row has a value
            best = np.full(g.size, -np.inf)
            _segment_max(owner, vals, best)
            tie = vals >= tie_floor(best, tol_u)[owner]
            row_max[start + g] = best
            parts.append((start + g[owner[tie]], rank[tie], vals[tie]))
    fb = np.concatenate(full)
    if fb.size:
        running = np.full(fb.size, -np.inf)
        ri, pi, vals = scan_grid(payoffs[fb], points[ids], costs[ids], tol_u, running)
        row_max[fb] = running
        parts.append((fb[ri], ids[pi], vals))
        evaluations += fb.size * n_p
    cid, pid, vals = (np.concatenate(x) for x in zip(*parts))
    order = np.argsort(cid, kind="stable")
    return cid[order], pid[order], vals[order], row_max, evaluations


# ---------------------------------------------------------------------------
# Continuous best response


def best_response_convex(s: Scenario, b) -> BestResponseSet:
    """The agent's best response over the whole simplex for the smooth
    convex cost kinds: a one-row call of the ball route's centre solver.
    Agrees with best_response_grid within the lattice resolution.

    The capacity root aims at k + FEASIBILITY_SLACK / 2, so that rounding
    leaves the point inside ``feasible_mask`` and a face whose least cost
    is k keeps t > 0. When that target is at or below the least cost, the
    root leaves t = 0 (mu infinite) at the least-cost point; the root then
    aims halfway between that cost and k + FEASIBILITY_SLACK instead. If
    that is the least cost, a strictly convex cost admits only that point.
    Raises EmptyFeasibleSetError when a linear bound puts the least cost
    above k, and ConvergenceError unless the point is a feasible
    distribution within tol_u of the solver's bound on the optimum at
    capacity k, UB - mu (target - k) (its duality gap).
    """
    if not s.cost.convex_smooth:
        raise UnsupportedCostError(f"convex solver needs a smooth convex cost, got {s.cost.kind!r}")
    payoff = np.asarray(s.utility.apply(_as_payments(b)), dtype=float)
    k = s.capacity
    centres = _entropy_centres if s.cost.kind == "relative-entropy" else _quadratic_centres
    margin = 0.5 * FEASIBILITY_SLACK
    mu, centre, ub = centres(payoff[None, :], s.cost, k + margin)
    if np.isinf(mu[0]):
        margin = 0.5 * (s.cost.value(centre[0]) - k + FEASIBILITY_SLACK)
        mu, centre, ub = centres(payoff[None, :], s.cost, k + margin)
    p = centre[0]
    c = s.cost.value(p)
    value = float(payoff @ p - c)
    if np.isinf(mu[0]) and strong_concavity(s.cost) is not None:
        gap = 0.0  # t = 0 again: p alone attains the least cost, the target
    else:
        gap = float(ub[0] - margin * mu[0] - value)
    if not feasible_mask(c, k):
        # c is convex: no point costs less than c(p) - (grad c . p - min grad c)
        g = s.cost.gradient(p)
        if not feasible_mask(c - (g @ p - g.min()), k):
            raise EmptyFeasibleSetError("capacity below the attainable cost range")
    try:
        dist = Distribution(tuple(p))
    except ValidationError:
        dist = None
    if dist is None or not (feasible_mask(c, k) and gap <= s.tol_u):
        raise ConvergenceError(
            f"continuous best response did not settle (cost {c:.6g} at capacity {k:.6g}, duality gap {gap:.3g})",
            last_iterate=p, residual=gap)
    return BestResponseSet(maximizers=(dist,), value=value, any_binding=bool(capacity_binding(c, k, s.tol_u)))


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
