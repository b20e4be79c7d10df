"""Agent best responses and the agent-side first-order condition.

The agent's problem is max E_p[u(b)] - c(p) over the feasible set
D = {p : c(p) <= k}. On the enumeration grid it is solved exactly by a scan;
over the whole simplex, for the smooth cost kinds, by the centre solvers
``_entropy_centres`` and ``_quadratic_centres``, which ``best_response_convex``
calls with one payoff row and the ball route with many. The quadratic
solver's active-set steps each solve the faces their rows are on, once per
face, and keep no face for the next step. The scan is the ground truth the
continuous response is tested against.

Every lattice best response of an enumeration comes from one call,
``best_responses``, which holds the route rule and returns the same
(contract, point, value) ties whichever of its three routes runs.
``scan_grid`` scores every contract against every point. ``scan_balls``, for
the costs that are strictly convex on the simplex (relative entropy, and a
quadratic whose Q is positive definite on the sum-zero subspace), scores
only the lattice points inside each contract's strong-concavity ball around
its continuous optimum, which provably holds every tie; ``ball_route``
decides when it runs. The band step of a capacity sweep
(``pareto.capacity_chain``) scans only the points that became feasible
since the capacity below, against each contract's best value carried up
from there. Values scored apart from a full scan may differ from it in the
last bit. Every route applies the one tie cut,
``tie_floor``, joins tie parts with ``_merged``, and names a point by its
index in ``s.lattice.points``, which ``Scenario.at_capacity`` shares, so an
id is the same at every capacity. This module holds the balls' geometry;
the lattice order they walk (ranks, nearest points, one-step moves) is
``model``'s.
"""

from __future__ import annotations

import functools
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
    Distribution,
    Scenario,
    _as_payments,
    _as_probs,
    _binomials,
    _compositions,
    _expand,
    _fold,
    _lattice_rank,
    _nearest_counts,
    _neighbours,
    _rank_step,
    _row_sums,
    feasible_mask,
)

# The ball route's threshold (``ball_route``) and its probe chunks and ball
# groups (``scan_balls``), in values; also the most values one ``scan_grid``
# block may hold.
_CHUNK = 1 << 21

# ``scan_grid``'s block: about this many values (1 MB), so that the matmul,
# the cost subtraction, the row max and the tie cut each pass over a block
# in cache. On 2 cores (OpenBLAS 0.3.31, one BLAS thread, best of 9), blocks
# of 2^16 / 2^17 / 2^18 / 2^21 values took 1.96 / 1.89 / 2.08 / 2.65 ms on
# a 900 x 1069 scan and 4.43 / 4.26 / 5.30 / 8.20 ms on a 700 x 4781 one.
# With BLAS's default threads the first scan took 1.9 ms in 2^17-value
# blocks and 17.0 ms in 2^21-value ones.
_SCAN_BLOCK = 1 << 17
# ...but at least this many rows: each block's matmul packs every point
# anew, a cost that blocks of a row or two on a wide lattice pay over and
# over (216 x 44694 points, n = 5: 24.6 ms in 2-row blocks, 20.7 in 16-row
# ones, 20.4 in the 46-row blocks of 2^21 values).
_SCAN_ROWS = 16
# ``scan_grid`` finds each row's best value one point column at a time over
# at most this many points, and with one ``max`` over more: numpy reduces a
# short row one row at a time (2 cores, 900 rows: 3 / 20 / 58 / 234 points
# took 3.7 / 26 / 71 / 337 us column by column against 45 / 56 / 62 / 102
# us with ``max``). A sweep's bands are often that narrow.
_FOLD_POINTS = 32


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


def capacity_binding(s: Scenario, point_ids: np.ndarray) -> np.ndarray:
    """The one lattice binding rule: which points ``point_ids`` of
    ``s.lattice.points`` cost within tol_u of the capacity. Table and effort
    costs keep it whatever rule the simplex lattice takes: their points are
    listed, so a point has no one-step neighbours to bind against."""
    return np.abs(s.lattice.costs[point_ids] - s.capacity) <= s.tol_u


def _block_rows(n_points: int) -> int:
    """``scan_grid``'s rows per block over ``n_points`` points: about
    ``_SCAN_BLOCK`` values, at least ``_SCAN_ROWS`` rows, and at most
    ``_CHUNK`` values, yet at least one row."""
    n_points = max(1, n_points)
    return max(1, min(max(_SCAN_ROWS, _SCAN_BLOCK // n_points), _CHUNK // n_points))


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
    are computed in blocks of ``_block_rows`` rows, each written into one
    buffer allocated for the first block; the costs are subtracted in place,
    and ties are found, through one tie mask allocated with that buffer, as
    flat indices into the block, split into (row, point) pairs in row-major
    order. The block height is part of the result: BLAS may round a matmul
    differently for another height, and a one-row block, a matrix-vector
    product, moves some values in the last bit; a tie moves only with a
    value that close to its cut. Against blocks of ``_CHUNK`` values, these
    heights kept every byte of the golden summaries and of the benchmark
    ops' CSV files.

    ``running``, when given, holds one best value per row found over other
    points, and is updated in place to the best over those and these: a
    row's floor is then max(running, best here) - tol_u. Scanning a set of
    points in parts this way finds the ties of the whole set among the last
    part; a caller keeps the earlier parts' ties that reach the final floor.
    """
    rows_per_block = _block_rows(len(points))
    buf = np.empty((min(rows_per_block, len(payoffs)), len(points)))
    cut = np.empty(buf.shape, dtype=bool)
    r_ids: list[np.ndarray] = []
    p_ids: list[np.ndarray] = []
    values: list[np.ndarray] = []
    for start in range(0, len(payoffs), rows_per_block):
        stop = start + rows_per_block
        block = payoffs[start:stop]
        vals = np.matmul(block, points.T, out=buf[: len(block)])
        np.subtract(vals, costs, out=vals)
        best = _fold(np.maximum, vals) if vals.shape[1] <= _FOLD_POINTS else vals.max(axis=1)
        if running is not None:
            np.maximum(best, running[start:stop], out=best)
            running[start:stop] = best
        flat = np.flatnonzero(np.greater_equal(vals, tie_floor(best, tol_u)[:, None], out=cut[: len(block)]))
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
        any_binding=bool(capacity_binding(s, ids[idx]).any()),
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
    scores at least this. Every route of ``best_responses`` uses it."""
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


def ball_route(s: Scenario, n_contracts: int, n_feasible: int) -> tuple[int, float] | None:
    """``best_responses``' rule between its two routes without a lower
    enumeration: ``scan_balls`` when the cost is strictly convex on the simplex
    (``strong_concavity``) and contracts x feasible points exceed one value
    block (``_CHUNK``), else ``scan_grid``. A quadratic also needs fewer
    faces of the simplex, 2^n - 1, than feasible points: its centre solver
    may solve one system per face. Returns what ``scan_balls`` takes, the
    ``strong_concavity`` result, or None for ``scan_grid``."""
    if n_contracts * n_feasible <= _CHUNK or (s.cost.kind == "quadratic" and (1 << s.n) > n_feasible):
        return None
    return strong_concavity(s.cost)


def _gibbs(u: np.ndarray, logq: np.ndarray, beta: np.ndarray):
    """Rows p ~ q0 exp(beta u), and their log normalisers
    log sum q0 exp(beta u). Worked one state at a time, on (n, rows)
    arrays; the bits are those of the 2-D formula, ``_row_sums`` adding as
    ``sum(axis=1)`` does."""
    z = np.multiply(u.T, beta, order="C")
    z += logq[:, None]
    top = _fold(np.maximum, z.T)
    z -= top
    w = np.exp(z, out=z)
    total = _row_sums(w)
    w /= total
    return w.T.copy(), top + np.log(total)


def _entropy_bound(p: np.ndarray, logz: np.ndarray, beta: np.ndarray, theta: float, kbar: float):
    """(mu, centre, UB) per row at beta = 1 / ((1+mu) theta) <= 1/theta,
    from that beta's ``_gibbs`` rows p and log normalisers logz.

    With lam = 1/beta, the maximum over the simplex of u.p - lam KL(p||q0)
    is lam log sum q0 exp(u/lam), attained at the centre p ~ q0 exp(u/lam);
    UB adds mu kbar.
    """
    lam = 1.0 / beta
    mu = np.maximum(lam / theta - 1.0, 0.0)
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
    todo = newton = np.flatnonzero(beta * np.einsum("ij,ij->i", p, u) - logz > target)
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
    # _gibbs works row by row: the rows outside the Newton loop keep their bits
    p[newton], logz[newton] = _gibbs(u[newton], logq, beta[newton])
    return _entropy_bound(p, logz, beta, theta, kbar)


def _quadratic_faces(Q: np.ndarray, q0: np.ndarray, masks: np.ndarray, flat: bool):
    """Per face (support bitmask in ``masks``), the affine solution of the
    face's stationarity system t u_F - 2 (Q (p - q0))_F = nu, sum p = 1:
    p = b + t A u and nu = nu0 + t w.u, zero off the face, with Qe and c0,
    Q (p - q0) and c(p) at t = 0. ``_quadratic_centres`` passes one active-set
    step's distinct faces; faces of one size are solved as one stacked
    inverse.

    For a ``flat`` cost (``strong_concavity`` None), a face's system is
    singular when the face holds a direction d with sum d = 0 and Q d = 0.
    Such faces are solved by pseudo-inverse, which drops the part of u
    along those directions, and ``null`` holds each face's projector onto
    them; for a cost that is not flat ``null`` is None."""
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


def _quadratic_centres(u: np.ndarray, cost, kbar: float, concavity: tuple[int, float] | None):
    """(mu, centre, UB) per payoff row for a quadratic cost, given its
    ``strong_concavity``.

    Primal-dual active-set iterations on the support, from the whole
    simplex. Each step solves the faces its moving rows are on, each once,
    and keeps no face for the next step: a row that returns to a face
    has it solved again, and memory follows one step's faces. On a face,
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
    flat = concavity is None
    h, n = u.shape
    bits = 1 << np.arange(n)
    face = np.full(h, (1 << n) - 1)
    t = np.zeros(h)
    centre = np.empty((h, n))
    todo = np.arange(h)
    for step in range(min(1 << n, _FACE_STEPS)):
        F, uu = face[todo], u[todo]
        # this step's faces, each once, and each row's slot among them, by
        # the stable argsort ``_merged`` runs too: another kind of sort
        # would page its own code into the process
        order = np.argsort(F, kind="stable")
        grouped = F[order]
        first = np.concatenate(([True], grouped[1:] != grouped[:-1]))
        slot = np.empty_like(order)
        slot[order] = np.cumsum(first) - 1
        A, b, w, nu0, Qe, c0_face, null = _quadratic_faces(Q, q0, grouped[first], flat)
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
        fw_gap = _fold(np.maximum, grad) - np.einsum("ij,ij->i", grad, centre)
        value = np.einsum("ij,ij->i", u, centre) - lam * np.einsum("ij,ij->i", dev @ Q, dev) + mu * kbar
    return mu, centre, value + np.maximum(fw_gap, 0.0)


def _centre_solver(cost, concavity: tuple[int, float] | None):
    """The centre solver of the cost's kind, given its ``strong_concavity``."""
    if cost.kind == "relative-entropy":
        return _entropy_centres
    return functools.partial(_quadratic_centres, concavity=concavity)


def _ball_points(centre: np.ndarray, bound: np.ndarray, norm: int, m: int, binom: np.ndarray):
    """(row, lattice rank) of every lattice point p with
    sum_i |p_i - centre_i|^norm <= bound[row], summed in coordinate order,
    rows ascending and points in lattice order within a row.

    Coordinates are placed one at a time. A prefix is kept only while the
    rest of the point can still land inside the ball, given that the
    remaining deviations have a known sum.
    """
    h, n = centre.shape
    # rest[j] = sum_{i>=j} centre_i, added from the last coordinate down, as
    # a cumsum of the reversed rows adds
    rest = np.empty((n, h))
    rest[-1] = centre[:, -1]
    for j in range(n - 2, -1, -1):
        np.add(rest[j + 1], centre[:, j], out=rest[j])
    row = np.arange(h)
    left = np.full(h, m)
    dist = np.zeros(h)
    rank = np.zeros(h, dtype=np.int64)
    for j in range(n - 1):
        k = n - 1 - j
        c, gap = centre[row, j], left / m - rest[j + 1][row]
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
        parent, a = _expand(lo, np.where(room >= least, np.maximum(hi - lo + 1, 0), 0))
        left, row = left[parent], row[parent]
        dist = dist[parent] + np.abs(a / m - c[parent]) ** norm
        rank = rank[parent] + _rank_step(binom, left, a, k)
        left = left - a
    inside = dist + np.abs(left / m - centre[row, n - 1]) ** norm <= bound[row]
    return row[inside], rank[inside]


def _pair_values(payoffs: np.ndarray, points: np.ndarray, costs: np.ndarray) -> np.ndarray:
    """payoffs[i] . points[i] - costs[i] for each i. Each dot product is a
    matmul of its own, summed in coordinate order; the full scan's blocked
    matmul sums the same way on common BLAS builds, but need not."""
    vals = np.matmul(payoffs[:, None, :], points[:, :, None])[:, 0, 0]
    return np.subtract(vals, costs, out=vals)


def _groups(sizes: np.ndarray, cap: float):
    """Consecutive slices of ``sizes`` whose sums stay within cap (a slice
    holds at least one entry)."""
    ends = np.cumsum(sizes)
    i = 0
    while i < sizes.size:
        j = max(i + 1, int(np.searchsorted(ends, (ends[i - 1] if i else 0.0) + cap, side="right")))
        yield slice(i, j)
        i = j


def scan_balls(s: Scenario, ids: np.ndarray, mask: np.ndarray, concavity: tuple[int, float]):
    """``scan_grid``'s ties of the payoff rows ``s.lattice.util`` over the
    feasible points of ``s``, given as ``feasible_lattice``'s (ids, mask),
    for a cost with ``strong_concavity`` ``concavity``, scoring only the
    lattice points inside each row's certified ball; also returns each
    row's best value and the number of values computed.

    A row gets (mu, centre, UB) from its cost kind's centre solver, and LB
    from its rounded centre where that is feasible, else from the best
    feasible of that point's ``_neighbours``. Its ball is sigma/2 |p -
    centre|^2 <= UB - LB + tol_u + a rounding allowance; every tie lies in
    it. A row is scanned in full by ``scan_grid`` when it has no finite
    bound, or when its ball could visit more prefixes than the feasible set
    has points: up to its bounding box's lattice points at each of n - 1
    levels. Chunks of rows keep their probes, and groups of rows their ball
    enumerations, within one ``_CHUNK`` block.

    Values are single matmuls per (row, point) pair and may differ from
    ``scan_grid``'s blocked matmul in the last bit.
    """
    norm, sigma0 = concavity
    n, m, tol_u = s.n, s.m, s.tol_u
    kbar = s.capacity + FEASIBILITY_SLACK
    points, costs, payoffs = s.lattice.points, s.lattice.costs, s.lattice.util
    binom = _binomials(m + n, n)
    cscale = float(np.abs(costs).max()) + abs(kbar)
    centres = _centre_solver(s.cost, concavity)
    if s.cost.kind == "relative-entropy":
        cscale += s.cost.theta * float(np.abs(np.log(s.cost.q0)).max())

    def scored(u, rows, rank, best):
        """The (rows, rank) pairs whose point is feasible, rows ascending,
        and their values; best[r] becomes row r's best value among them."""
        nonlocal evaluations
        keep = mask[rank]
        rows, rank = rows[keep], rank[keep]
        vals = _pair_values(u[rows], points[rank], costs[rank])
        evaluations += vals.size
        if vals.size:
            first = np.flatnonzero(np.diff(rows, prepend=-1))
            best[rows[first]] = np.maximum.reduceat(vals, first)
        return rows, rank, vals

    n_c, n_p = len(payoffs), len(ids)
    row_max = np.full(n_c, -np.inf)
    parts, full = [], []
    evaluations = 0
    per = max(1, _CHUNK // (n * n * (n - 1)))
    for start in range(0, n_c, per):
        u = payoffs[start:start + per]
        mu, centre, ub = centres(u, s.cost, kbar)
        base = _nearest_counts(centre, m)
        lb = np.full(len(u), -np.inf)
        at = np.flatnonzero(_compositions(base, m))
        scored(u, at, _lattice_rank(base[at], m, binom), lb)
        far = np.flatnonzero(lb == -np.inf)
        row, rank = _neighbours(base[far], m, binom)
        scored(u, far[row], rank, lb)
        lam = 1.0 + mu
        margin = _ROUND * (1.0 + np.abs(ub) + np.abs(lb) + _fold(np.maximum, np.abs(u)) + lam * cscale)
        with np.errstate(invalid="ignore", over="ignore"):
            r2 = 2.0 * (ub - lb + tol_u + margin) / (lam * sigma0)
            reach = np.sqrt(r2) / (2.0 if norm == 1 else 1.0)
            width = np.floor(m * (centre + reach[:, None])) - np.ceil(m * (centre - reach[:, None])) + 1
            bound = r2 if norm == 2 else np.sqrt(r2)
        # the product over the first n - 1 columns, left to right as prod multiplies
        size = _fold(np.multiply, np.clip(width[:, :-1], 1, m + 1))
        ok = np.isfinite(r2) & ((n - 1) * size <= n_p)
        full.append(start + np.flatnonzero(~ok))
        rows = np.flatnonzero(ok)
        for part in _groups(size[rows], _CHUNK / n):
            g = rows[part]
            # every row's ball holds its LB point, so each row has a value
            best = np.full(g.size, -np.inf)
            owner, rank, vals = scored(u[g], *_ball_points(centre[g], bound[g], norm, m, binom), best)
            tie = vals >= tie_floor(best, tol_u)[owner]
            row_max[start + g] = best
            parts.append((start + g[owner[tie]], rank[tie], vals[tie]))
    # the balls' ties come in row order; the full scans' rows join them
    ties = [tuple(np.concatenate(x) for x in zip(*parts))] if parts else []
    fb = np.concatenate(full)
    if fb.size:
        running = np.full(fb.size, -np.inf)
        ri, pi, vals = scan_grid(payoffs[fb], points[ids], costs[ids], tol_u, running)
        row_max[fb] = running
        ties.append((fb[ri], ids[pi], vals))
        evaluations += fb.size * n_p
    return (*_merged(ties, len(points)), row_max, evaluations)


def _merged(parts, n_points: int):
    """One (contract ids, point ids, values, ...) from tie ``parts`` that
    share no (contract, point) pair, each ascending in (contract, point):
    joined and sorted so, stably, every further column with them. A single
    part is returned as it is."""
    if len(parts) == 1:
        return parts[0]
    columns = [np.concatenate(x) for x in zip(*parts)]
    order = np.argsort(columns[0] * n_points + columns[1], kind="stable")
    return tuple(c[order] for c in columns)


def best_responses(s: Scenario, ids: np.ndarray, mask: np.ndarray | None, running: np.ndarray | None = None):
    """The lattice best responses of every contract of ``s`` over the
    points ``ids``: (contract ids, point ids, values) of the ties,
    ascending in (contract, point), each contract's best value, and the
    number of values computed.

    The one route rule. Without ``running``, ``ids`` and ``mask`` are
    ``feasible_lattice``'s, and ``ball_route`` picks ``scan_balls`` or a
    full ``scan_grid``. With ``running``, each contract's best value over
    the points feasible at a lower capacity of a sweep, ``ids`` are the
    points feasible here but not there (a band, ``mask`` unused): a
    ``scan_grid`` of them updates ``running`` in place and returns their
    ties at its new floor, the band step of ``pareto.capacity_chain``.
    Every route gives the same ties; their values may differ from a fresh
    full scan's in the last bit."""
    points, costs, util = s.lattice.points, s.lattice.costs, s.lattice.util
    if running is None:
        if concavity := ball_route(s, len(util), len(ids)):
            return scan_balls(s, ids, mask, concavity)
        running = np.full(len(util), -np.inf)
    ci, pi, vals = scan_grid(util, points.take(ids, axis=0), costs[ids], s.tol_u, running)
    return ci, ids[pi], vals, running, len(util) * len(ids)


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
    capacity k, UB - mu (target - k) (its duality gap). ``any_binding``
    is |c(p) - k| <= tol_u, not ``capacity_binding``: p has no lattice
    index, and off the lattice binding means mu > 0.
    """
    if not s.cost.convex_smooth:
        raise UnsupportedCostError(f"convex solver needs a smooth convex cost, got {s.cost.kind!r}")
    payoff = np.asarray(s.utility.apply(_as_payments(b)), dtype=float)
    k = s.capacity
    concavity = strong_concavity(s.cost)
    centres = _centre_solver(s.cost, concavity)
    margin = 0.5 * FEASIBILITY_SLACK
    mu, centre, ub = centres(payoff[None, :], s.cost, k + margin)
    if np.isinf(mu[0]):
        margin = 0.5 * (s.cost.value(centre[0]) - k + FEASIBILITY_SLACK)
        mu, centre, ub = centres(payoff[None, :], s.cost, k + margin)
    p = centre[0]
    c = s.cost.value(p)
    value = float(payoff @ p - c)
    if np.isinf(mu[0]) and concavity is not None:
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
            f"continuous best response did not settle (cost {c:.6g} at capacity {k:.6g}, duality gap {gap:.3g})")
    return BestResponseSet(maximizers=(dist,), value=value, any_binding=bool(abs(c - k) <= s.tol_u))


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
