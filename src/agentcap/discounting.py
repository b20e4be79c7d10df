"""Two-date payoffs: discounted evaluation, single-date reduction, and the
discounted comparison chain.

Payments at a single date reduce to the static model by dividing the cost
function by the agent's discount factor, and best responses carry over
exactly. With payments at both dates and different discount factors no such
reduction exists; ``discounted_inequality_diagnostic`` evaluates the
comparison chain anyway and flags whether its signs are guaranteed.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .agent import BestResponseSet, grid_best_response
from .errors import ConfigurationError, DegenerateDiscountError, ValidationError
from .model import Distribution, Scenario, check_alpha, cost
from .scaling import InequalitySlacks


@dataclass(frozen=True)
class DatedSchedule:
    """State-contingent values at dates 0 and 1, stored as a (2, n) table."""

    values: tuple[tuple[float, ...], tuple[float, ...]]

    def __post_init__(self):
        rows = tuple(tuple(float(v) for v in row) for row in self.values)
        if len(rows) != 2 or len(rows[0]) != len(rows[1]):
            raise ValidationError("a dated schedule needs two rows of equal length")
        if not all(np.isfinite(v) for row in rows for v in row):
            raise ValidationError("dated schedule entries must be finite")
        object.__setattr__(self, "values", rows)

    @staticmethod
    def at_date(date: int, values) -> "DatedSchedule":
        """A schedule paying ``values`` at one date and zero at the other."""
        vals = tuple(float(v) for v in values)
        zero = (0.0,) * len(vals)
        return DatedSchedule((vals, zero) if date == 0 else (zero, vals))

    def as_array(self) -> np.ndarray:
        return np.array(self.values, dtype=float)

    @property
    def n(self) -> int:
        return len(self.values[0])


@dataclass(frozen=True)
class DiscountPair:
    delta_P: float
    delta_A: float

    def __post_init__(self):
        for name, v in (("delta_P", self.delta_P), ("delta_A", self.delta_A)):
            if not 0.0 <= float(v) <= 1.0:
                raise ValidationError(f"{name} must lie in [0,1]")
        object.__setattr__(self, "delta_P", float(self.delta_P))
        object.__setattr__(self, "delta_A", float(self.delta_A))


@dataclass(frozen=True)
class DatedProfile:
    """A two-date contract together with the induced distribution."""

    b: DatedSchedule
    dist: Distribution


@dataclass(frozen=True)
class DiscountedSlacks(InequalitySlacks):
    """The discounted comparison chain between a base and a candidate.

    Differences are base minus candidate. The output difference discounts
    with the principal's factor, the payment difference with the agent's, and
    the pairing is explicit: the base contract under the base distribution
    against the candidate contract under the candidate distribution.
    ``sign_guaranteed`` is False when payments span both dates and the two
    discount factors differ; the chain's signs are then not implied and
    negative slacks are informative rather than errors.
    """

    sign_guaranteed: bool


def discounted_values(d: DiscountPair, y2: DatedSchedule, b2: DatedSchedule, p) -> tuple[float, float]:
    """(principal, agent gross) under two-date discounting.

    The principal nets payments out of output date by date; the agent's value
    is gross of effort cost, which the caller subtracts.
    """
    pa = p.as_array() if isinstance(p, Distribution) else np.asarray(p, dtype=float)
    y = y2.as_array()
    b = b2.as_array()
    if y.shape[1] != pa.size or b.shape[1] != pa.size:
        raise ValidationError("schedule width must match the state count")
    principal = (pa @ y[0] - pa @ b[0]) + d.delta_P * (pa @ y[1] - pa @ b[1])
    agent_gross = pa @ b[0] + d.delta_A * (pa @ b[1])
    return float(principal), float(agent_gross)


def dated_best_response(s: Scenario, d: DiscountPair, b2: DatedSchedule) -> BestResponseSet:
    """Best responses to a two-date contract.

    The agent values state omega at u(b(0, omega)) + delta_A * u(b(1, omega))
    and then faces the usual cost-capped choice of distribution; the scan runs
    through the same code path as the static grid solver so that degenerate
    inputs reproduce static outputs exactly.
    """
    b = b2.as_array()
    if b.shape[1] != s.n:
        raise ValidationError("schedule width must match the state count")
    u0 = np.asarray(s.utility.apply(b[0]), dtype=float)
    u1 = np.asarray(s.utility.apply(b[1]), dtype=float)
    return grid_best_response(s, u0 + d.delta_A * u1)


def reduce_single_date(s: Scenario, d: DiscountPair, date: int) -> Scenario:
    """The equivalent static scenario when all payments sit at one date.

    At date 1 the agent maximizes delta_A * E_p[u(b)] - c(p); dividing through
    by delta_A leaves the maximizers untouched and turns the cost into
    c / delta_A, with the capacity cap and the reservation level rescaled the
    same way. Date 0 needs no change.
    """
    if date not in (0, 1):
        raise ConfigurationError("date must be 0 or 1")
    if date == 0:
        return s
    if d.delta_A == 0.0:
        raise DegenerateDiscountError("date-1 payments have no value to an agent with delta_A = 0")
    scale = 1.0 / d.delta_A
    return dataclasses.replace(
        s,
        cost=s.cost.scaled(scale),
        capacity=s.capacity * scale,
        reservation=s.reservation * scale,
    )


def discounted_inequality_diagnostic(
    s: Scenario,
    d: DiscountPair,
    y2: DatedSchedule,
    base: DatedProfile,
    candidate: DatedProfile,
    alpha: float,
) -> DiscountedSlacks:
    """Evaluate the four discounted chain slacks for one base/candidate pair."""
    check_alpha(alpha)
    y = y2.as_array()
    p0 = base.dist.as_array()
    p1 = candidate.dist.as_array()
    b0 = base.b.as_array()
    b1 = candidate.b.as_array()
    wy = y[0] + d.delta_P * y[1]
    d_out = float(p0 @ wy - p1 @ wy)
    d_pay = float(p0 @ (b0[0] + d.delta_A * b0[1]) - p1 @ (b1[0] + d.delta_A * b1[1]))
    c0 = cost(s, p0)
    c1 = cost(s, p1)
    some_date0 = bool(np.any(b0[0] != 0.0) or np.any(b1[0] != 0.0))
    some_date1 = bool(np.any(b0[1] != 0.0) or np.any(b1[1] != 0.0))
    spans = some_date0 and some_date1
    return DiscountedSlacks.chain(
        alpha, d_out, d_pay, c0 - c1, sign_guaranteed=not (spans and d.delta_P != d.delta_A)
    )
