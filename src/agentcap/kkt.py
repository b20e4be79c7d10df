"""First-order conditions for the principal's program with a risk-averse agent.

The agent's incentive constraint is replaced by its own first-order condition,
which enters the principal's Lagrangian with multiplier phi per state. One
function, ``_rows``, writes the stationarity system that the damped
Gauss-Newton solve and ``principal_foc_residual`` evaluate, at each point of a
stack of packed points; one point is a stack of one. Each Newton iteration
makes one stacked call for all columns of its finite-difference Jacobian and
one for all step lengths of its line search, with the iterates, and so the
results, of a point-by-point evaluation. A trial step that is not
interior, leaves the utility's domain or overflows is skipped or rejected,
and never raises or warns. Its multiplier row gives the one phi identity,
phi = -p (1/u'(b) + zeta), behind ``phi_identity_gap`` and the curvature
regressor of the affine readout, which for a risk-neutral agent reads the
solved contract as affine in output.

Participation enters as E_p[u(b)] - c(p) >= 0 against a zero outside option
(the scenario's reservation is not read), and capacity as c(p) <= k with
multiplier delta. The agent's own capacity multiplier mu is 0: among the
contracts u(b) = rho + (1 + mu) grad c(p), mu >= 0, that implement a p with
c(p) = k, E_p[b] at binding participation is convex in mu with zero slope at
mu = -1, so mu = 0 is the cheapest.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# best_response_grid is unused here but bound by name in perfbench/child.py
from .agent import best_response_convex, best_response_grid  # noqa: F401
from .errors import (ConfigurationError, DegenerateFitError, DifferentiabilityError,
                     InteriorityError, SingularJacobianError, UnsupportedCostError)
from .model import Contract, Distribution, Scenario

FD_STEP = 1e-7
DAMPING_FLOOR = 2.0 ** -20


@dataclass(frozen=True)
class FocResiduals:
    """Residuals of the stationarity system at a candidate point.

    ``stationarity_b`` and ``stationarity_p`` are the contract and multiplier
    stationarity rows, ``orthogonality`` the scalar phi-gradient condition,
    ``agent_foc`` the agent's own condition. The three gaps are feasibility
    diagnostics: whether they must vanish depends on the declared active set,
    so ``max_abs`` covers the unconditional rows plus the simplex gap only.
    """

    stationarity_b: tuple[float, ...]
    stationarity_p: tuple[float, ...]
    orthogonality: float
    agent_foc: tuple[float, ...]
    simplex_gap: float
    capacity_gap: float
    participation_gap: float

    @property
    def max_abs(self) -> float:
        blocks = (
            max(abs(v) for v in self.stationarity_b),
            max(abs(v) for v in self.stationarity_p),
            abs(self.orthogonality),
            max(abs(v) for v in self.agent_foc),
            abs(self.simplex_gap),
        )
        return max(blocks)


@dataclass(frozen=True)
class PrincipalFocPoint:
    """A candidate solution: contract, distribution, and multipliers.

    rho belongs to the agent's condition, tau and delta to the adding-up and
    capacity constraints, phi to the agent's first-order condition, zeta to
    participation; the agent's own capacity multiplier is 0. At a solution
    delta is nonnegative; the solver reports what it found and leaves that to
    the caller to assert.
    """

    b: Contract
    p: Distribution
    rho: float
    tau: float
    delta: float
    zeta: float
    phi: tuple[float, ...]
    residuals: FocResiduals | None = None
    converged: bool = False
    system_residual: float = float("nan")


@dataclass(frozen=True)
class AffineRepresentation:
    """Least-squares fit of b against output, a constant, and the curvature
    term; ``slope`` multiplies y, ``intercept`` and ``curvature`` are the
    constants A and B in b = slope*y - A - B*(curvature term)."""

    slope: float
    intercept: float
    curvature: float
    fit_residual: float


def _derivative_parts(s: Scenario, b: np.ndarray, p: np.ndarray):
    if not s.cost.convex_smooth:
        raise UnsupportedCostError("the stationarity system needs a twice differentiable cost")
    if p.min() <= 0.0:
        raise InteriorityError("p must assign positive probability to every state")
    g = s.cost.gradient(p)
    h = s.cost.hessian(p)
    u = np.asarray(s.utility.apply(b), dtype=float)
    up = np.asarray(s.utility.derivative(b), dtype=float)
    return g, h, u, up


def _pack(point: PrincipalFocPoint) -> np.ndarray:
    return np.concatenate([
        point.b.as_array(),
        point.p.as_array(),
        np.asarray(point.phi, dtype=float),
        [point.rho, point.tau, point.delta, point.zeta],
    ])


def _unpack(x: np.ndarray, n: int):
    """(b, p, phi, rho, tau, delta, zeta) of a packed point, or of each
    point of a (k, 3n + 4) stack: the vectors as (k, n) blocks and the
    multipliers as (k,) columns."""
    b, p, phi = x[..., :n], x[..., n : 2 * n], x[..., 2 * n : 3 * n]
    rho, tau, delta, zeta = x[..., 3 * n :].T
    return b, p, phi, rho, tau, delta, zeta


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a_i . b_i for each row i, each the bits of the 1-D ``a_i @ b_i``."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def _norms(r: np.ndarray) -> np.ndarray:
    """The Euclidean norm of each row, each the bits of ``np.linalg.norm``."""
    return np.sqrt(_dot(r, r))


def _rows(s: Scenario, x: np.ndarray):
    """The stationarity system at each point of the (k, 3n + 4) stack x, as
    (contract rows, multiplier rows, orthogonality, agent rows, simplex gap,
    c(p), E_p[u(b)]), one row or entry per point. Raises for the whole stack
    if any point fails a check. Products are matmuls with explicit
    singleton axes, which keep the bits of the one-point products."""
    b, p, phi, *scalars = _unpack(x, s.n)
    rho, tau, delta, zeta = (v[:, None] for v in scalars)
    y = s.y.as_array()
    g, h, u, up = _derivative_parts(s, b, p)
    h_phi = (h @ phi[:, :, None])[:, :, 0]
    return (
        (y - b) - (tau + delta * g - h_phi + zeta * (u - g)),
        (-p) - (phi * up + zeta * p * up),
        _dot(phi, g),
        u - g - rho,
        p.sum(axis=1) - 1.0,
        s.cost.value(p),
        _dot(p, u),
    )


def _residuals(s: Scenario, x: np.ndarray) -> FocResiduals:
    r_b, r_p, r_orth, r_agent, simplex, c, eu = (r[0] for r in _rows(s, x[None]))
    return FocResiduals(
        stationarity_b=tuple(float(v) for v in r_b),
        stationarity_p=tuple(float(v) for v in r_p),
        orthogonality=float(r_orth),
        agent_foc=tuple(float(v) for v in r_agent),
        simplex_gap=float(simplex),
        capacity_gap=float(s.capacity - c),
        participation_gap=float(eu - c),
    )


def principal_foc_residual(s: Scenario, point: PrincipalFocPoint) -> FocResiduals:
    """The rows the solver drives to zero, at any point: nothing ties them
    together, so a point off the solution simply gives nonzero residuals."""
    if not len(point.b.payments) == len(point.p.probs) == len(point.phi) == s.n:
        raise ConfigurationError("point dimensions must match the state count")
    return _residuals(s, _pack(point))


def _phi_identity(p: np.ndarray, up: np.ndarray, zeta: float) -> np.ndarray:
    """phi = -p (1/u'(b) + zeta), the value that zeroes the multiplier row."""
    return -p * (1.0 / up + zeta)


def phi_identity_gap(s: Scenario, point: PrincipalFocPoint) -> float:
    """Max deviation of phi from -p (1/u'(b) + zeta), the solution of the
    multiplier stationarity row; zero wherever that row holds."""
    p = point.p.as_array()
    up = np.asarray(s.utility.derivative(point.b.as_array()), dtype=float)
    phi = np.asarray(point.phi, dtype=float)
    return float(np.max(np.abs(phi - _phi_identity(p, up, point.zeta))))


# -- solver -----------------------------------------------------------------


def _system(s: Scenario, x: np.ndarray, capacity_active: bool, participation_active: bool) -> np.ndarray:
    """The solver's square system at each point of the stack x, one row per
    point: an active constraint's own row, an inactive one's multiplier."""
    r_b, r_p, r_orth, r_agent, simplex, c, eu = _rows(s, x)
    delta, zeta = _unpack(x, s.n)[-2:]
    tail = [c - s.capacity if capacity_active else delta, eu - c if participation_active else zeta]
    columns = [r_b, r_p, r_orth[:, None], r_agent, simplex[:, None], *(v[:, None] for v in tail)]
    return np.concatenate(columns, axis=1)


def _finite_difference_jacobian(fun, x: np.ndarray, r0: np.ndarray) -> np.ndarray:
    """Forward differences, all columns in one stacked call: point j of the
    stack is x with entry j stepped by FD_STEP (1 + |x_j|)."""
    h = FD_STEP * (1.0 + np.abs(x))
    stack = np.tile(x, (x.size, 1))
    j = np.arange(x.size)
    stack[j, j] += h
    return ((fun(stack) - r0) / h[:, None]).T


# the line search's step lengths: 1, 1/2, ..., DAMPING_FLOOR
_STEP_LENGTHS = 0.5 ** np.arange(1 + round(-np.log2(DAMPING_FLOOR)))


def _line_search(s: Scenario, fun, x: np.ndarray, step: np.ndarray, norm0: float):
    """(point, rows) at the first step length in 1, 1/2, ..., DAMPING_FLOOR
    whose candidate x + lam step, moved back onto the adding-up row, has
    residual norm below norm0; None when none has.

    A trial step is a candidate, never an error: one whose p is not interior
    or whose payments leave the utility's domain is skipped, and the rest
    are evaluated with floating-point flags ignored, so that one which
    overflows has a non-finite norm and is rejected like any other that
    does not improve. Every step length is tried in one stack, with the
    outcome of trying them one at a time, in order."""
    n = s.n
    xt = x + _STEP_LENGTHS[:, None] * step
    # the lstsq step keeps the adding-up row only approximately;
    # remove the uniform drift so the iterate stays a distribution
    xt[:, n:2 * n] -= ((xt[:, n:2 * n].sum(axis=1) - 1.0) / n)[:, None]
    tried = np.flatnonzero(~(xt[:, n:2 * n].min(axis=1) <= 0.0)
                           & ~s.utility.outside_domain(xt[:, :n]).any(axis=1))
    if tried.size:
        with np.errstate(all="ignore"):
            rt = fun(xt[tried])
            better = np.flatnonzero(_norms(rt) < norm0)
        if better.size:
            return xt[tried[better[0]]], rt[better[0]]
    return None


def make_initial_point(s: Scenario) -> PrincipalFocPoint:
    """Seed for the solver: agent best response to the half-share contract,
    multipliers at zero except rho, which is fitted so the agent rows start
    small. The response is nudged toward uniform if it touches the boundary.
    A cost without a gradient raises DifferentiabilityError before any
    best response is computed.
    """
    if not s.cost.convex_smooth:
        raise DifferentiabilityError(f"{s.cost.kind} cost has no gradient")
    y = s.y.as_array()
    b = 0.5 * y + 0.0  # + 0.0 turns a -0.0 payment into 0.0
    p = best_response_convex(s, b).maximizers[0].as_array().copy()
    if p.min() <= 1e-9:
        p = 0.98 * p + 0.02 * np.full(s.n, 1.0 / s.n)
    g = s.cost.gradient(p)
    u = np.asarray(s.utility.apply(b), dtype=float)
    rho = float(np.mean(u - g))
    return PrincipalFocPoint(
        b=Contract(tuple(b)),
        p=Distribution(tuple(p)),
        rho=rho,
        tau=0.0,
        delta=0.0,
        zeta=0.0,
        phi=tuple(0.0 for _ in range(s.n)),
    )


def solve_principal_foc(
    s: Scenario,
    initial: PrincipalFocPoint,
    max_iter: int = 200,
    tol: float = 1e-10,
    capacity_active: bool = False,
    participation_active: bool = True,
) -> PrincipalFocPoint:
    """Damped Gauss-Newton on the stacked stationarity system.

    The caller declares which of capacity and participation bind; declared
    constraints are enforced as equalities and the multipliers of undeclared
    ones are pinned at zero, so the system is square in every active set.

    Returns the last iterate with ``converged`` False when the iteration
    stalls or the budget runs out; raises for a bad ``tol`` or ``max_iter``,
    a singular Jacobian or a non-interior start.
    """
    if not 0.0 < tol < np.inf:
        raise ConfigurationError("tol must be positive and finite")
    if max_iter < 0:
        raise ConfigurationError("max_iter must be nonnegative")

    def fun(z: np.ndarray) -> np.ndarray:
        return _system(s, z, capacity_active, participation_active)

    x = _pack(initial)
    r = fun(x[None])[0]

    for _ in range(max_iter):
        if np.max(np.abs(r)) <= tol:
            break
        jac = _finite_difference_jacobian(fun, x, r)
        step, _, rank, sv = np.linalg.lstsq(jac, -r, rcond=None)
        finite = np.all(np.isfinite(step))
        if not finite or rank < min(jac.shape):
            cond = float(sv[0] / sv[-1]) if sv.size and sv[-1] > 0 else float("inf")
            reason = f"rank deficient ({rank} < {min(jac.shape)})" if finite else "numerically singular"
            raise SingularJacobianError(f"stationarity Jacobian is {reason}", condition_number=cond)
        accepted = _line_search(s, fun, x, step, _norms(r[None])[0])
        if accepted is None:
            break
        x, r = accepted

    b, p, phi, rho, tau, delta, zeta = _unpack(x, s.n)
    system_residual = float(np.max(np.abs(r)))
    return PrincipalFocPoint(
        b=Contract(tuple(b)),
        p=Distribution(tuple(p)),
        rho=float(rho),
        tau=float(tau),
        delta=float(delta),
        zeta=float(zeta),
        phi=tuple(float(v) for v in phi),
        residuals=_residuals(s, x),
        converged=bool(system_residual <= tol),
        system_residual=system_residual,
    )


def affine_representation_check(s: Scenario, point: PrincipalFocPoint) -> AffineRepresentation:
    """Fit b against {y, 1, curvature term} and score the fit.

    The curvature regressor is -phi from the phi identity times the row sums
    of the cost Hessian. A zero regressor (as at zeta = -1 with a risk-neutral
    agent) simply gets coefficient zero; only constant output is an error,
    because then the slope is unidentified.
    """
    y = s.y.as_array()
    if np.ptp(y) <= 1e-12:
        raise DegenerateFitError("constant output leaves the slope unidentified")
    b = point.b.as_array()
    p = point.p.as_array()
    g, h, u, up = _derivative_parts(s, b, p)
    curvature_term = -_phi_identity(p, up, point.zeta) * (h @ np.ones(s.n))
    design = np.column_stack([y, np.ones(s.n), curvature_term])
    coef, _, _, _ = np.linalg.lstsq(design, b, rcond=None)
    fit_residual = float(np.linalg.norm(design @ coef - b))
    return AffineRepresentation(
        slope=float(coef[0]),
        intercept=float(-coef[1]),
        curvature=float(-coef[2]),
        fit_residual=fit_residual,
    )
