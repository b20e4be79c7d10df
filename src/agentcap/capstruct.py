"""Capital-structure readings of the scaling threshold.

With output scaled by alpha*, a debt contract with face value F splits output
into a debt leg, a retained-equity leg, and the agent's residual; a live-or-die
contract splits it at a threshold. Both decompositions add up to y state by
state, and sweeping the capacity k traces how alpha* (and with it the
debt/equity mix) moves: the sweep enumerates every capacity in one pass
(``pareto.capacity_chain``), solves all their thresholds in one lockstep
bisection (``scaling.alpha_stars``), then reads each capacity's threshold
with ``alpha_star``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateScalingError, ValidationError
from .model import Contract, OutputFunction, Scenario, check_alpha, validate_scenario
from .pareto import EvaluationTally, capacity_chain
from .scaling import alpha_star, alpha_stars


@dataclass(frozen=True)
class DebtEquityDecomposition:
    """Per-state split of output under a scaled debt contract.

    ``face_scaled`` is F divided by alpha*; the agent holds
    alpha* * max{0, y - F/alpha*}, the principal holds the debt piece
    min{y, F/alpha*} plus the fraction 1 - alpha* of the residual equity.
    """

    F: float
    alpha_star: float
    face_scaled: float
    agent_leg: tuple[float, ...]
    debt_leg: tuple[float, ...]
    equity_leg: tuple[float, ...]


@dataclass(frozen=True)
class LiveOrDieDecomposition:
    """Per-state split under a scaled live-or-die contract: the agent gets
    alpha* * y at or above the threshold and nothing below it."""

    l: float
    alpha_star: float
    agent_leg: tuple[float, ...]
    principal_leg: tuple[float, ...]


def check_face(F: float) -> None:
    """Raises ValidationError unless the face value is finite and
    nonnegative; NaN fails the comparison too."""
    if not 0.0 <= F < np.inf:
        raise ValidationError("face value must be nonnegative and finite")


def check_threshold(l: float) -> None:
    """Raises ValidationError unless the threshold is finite (not NaN or
    an infinity)."""
    if not np.isfinite(l):
        raise ValidationError("threshold must be a number and finite")


def scaled_debt_contract(y: OutputFunction, F: float, alpha: float) -> Contract:
    """The agent leg max{0, alpha*y - F} of a debt contract on scaled output."""
    check_alpha(alpha)
    check_face(F)
    if alpha == 0.0 and F > 0.0:
        raise DegenerateScalingError("face value cannot be scaled by alpha = 0")
    arr = y.as_array()
    return Contract(tuple(np.maximum(0.0, alpha * arr - F)))


def debt_equity_decompose(y: OutputFunction, F: float, alpha_star: float) -> DebtEquityDecomposition:
    """Split y into debt, retained equity, and the agent's piece.

    Uses the factored form alpha* * max{0, y - F/alpha*} for the agent leg, so
    the adding-up identity holds per state up to float rounding.
    """
    check_alpha(alpha_star)
    check_face(F)
    if alpha_star == 0.0:
        raise DegenerateScalingError("face value cannot be scaled by alpha = 0")
    arr = y.as_array()
    face_scaled = F / alpha_star
    residual = np.maximum(0.0, arr - face_scaled)
    return DebtEquityDecomposition(
        F=float(F),
        alpha_star=float(alpha_star),
        face_scaled=float(face_scaled),
        agent_leg=tuple(alpha_star * residual),
        debt_leg=tuple(np.minimum(arr, face_scaled)),
        equity_leg=tuple((1.0 - alpha_star) * residual),
    )


def live_or_die_decompose(y: OutputFunction, l: float, alpha_star: float) -> LiveOrDieDecomposition:
    """Split y at the threshold l: below it the principal keeps everything,
    at or above it the agent takes the fraction alpha*."""
    check_alpha(alpha_star)
    check_threshold(l)
    arr = y.as_array()
    alive = arr >= l
    return LiveOrDieDecomposition(
        l=float(l),
        alpha_star=float(alpha_star),
        agent_leg=tuple(np.where(alive, alpha_star * arr, 0.0)),
        principal_leg=tuple(np.where(alive, (1.0 - alpha_star) * arr, arr)),
    )


def sweep_alpha_star(
    s: Scenario, k_grid, budget: int | None = None, tally: EvaluationTally | None = None
) -> list[tuple[float, float]]:
    """alpha* as a function of capacity, sorted by k.

    Only the feasibility mask depends on k, so every capacity's scenario is
    ``s.at_capacity(k)``, and they all share ``s``'s lattice: the points
    with their costs and the contracts with their payments and utilities are
    priced once. The lowest k is validated as its own scenario would be,
    and each higher k for the one check that depends on it alone, so
    ``s``'s own capacity is neither used nor checked, and a failure that
    depends on the capacity names it. ``capacity_chain`` builds every
    capacity's enumeration in one pass: the first scans in full, each
    higher one scans only the points that became feasible, and each is cut
    on its own from one table of ties. Every capacity is then solved, with
    its own base level, in one lockstep bisection (``alpha_stars``), which
    keeps each threshold on its enumeration, and each capacity's is read
    back with ``alpha_star``, one call per k as a sequential sweep makes
    them (the per-capacity span perfbench's tracer records). The grid is
    sorted stably with NaN last, so the first failure in ascending k wins
    whatever the grid's order: a capacity with no selection raises before
    any k above it, or any NaN, that fails to validate or enumerate.
    ``budget`` caps each k's contracts times feasible points; ``tally``
    sums the evaluation counts of the whole chain.
    """
    ks = np.sort(np.array([float(k) for k in k_grid]), kind="stable").tolist()
    if ks:
        validate_scenario(s.at_capacity(ks[0]))
    enums, failure = capacity_chain(s, ks, budget)
    if tally is not None:
        for enum in enums:
            tally.add(enum)
    alpha_stars(enums)
    if failure is not None:
        raise failure
    return [(k, alpha_star(e.scenario, enum=e).alpha_star) for k, e in zip(ks, enums)]
