"""Output scaling: the capacity-slack threshold alpha* and its certificate.

alpha* is the largest output scale at which the selected Pareto profiles all
leave the capacity constraint slack. Above it some selected profile pins the
constraint, and the payoff comparisons in ``verify_theorem`` certify how the
scaled problem relates to the unscaled one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from functools import cached_property

import numpy as np

from .errors import ConfigurationError, EmptySelectionError
from .model import Profile, Scenario, check_alpha
from .pareto import Enumeration, EvaluationTally

DEFAULT_EPS_ALPHA = 1e-4
STEP2_TOL = 1e-6


@dataclass(frozen=True)
class AlphaStarResult:
    """Bisection output for the capacity-slack threshold.

    ``bracket`` is (last alpha where the predicate held, first where it
    failed); the two coincide only in the degenerate all-true or all-false
    cases. ``slack_witness`` is the selected profile with cost closest to
    capacity at the bracket's low end, i.e. the profile exhibiting how the
    constraint tightens as alpha approaches the threshold; it is built on
    first read from ``witness_row``, its row in ``enumeration``.
    """

    alpha_star: float
    bracket: tuple[float, float]
    u_bar: float
    predicate_trace: tuple[tuple[float, bool], ...]
    witness_row: int | None
    witness_alpha: float | None
    monotone_warning: bool
    enumeration: Enumeration = field(compare=False, repr=False)

    @cached_property
    def slack_witness(self) -> Profile | None:
        if self.witness_row is None:
            return None
        return self.enumeration.profile(self.witness_row, self.witness_alpha)


@dataclass(frozen=True)
class InequalitySlacks:
    """Slacks of the payoff-comparison chain between a base profile and a
    candidate from the scaled problem. All four should be nonnegative:

      output_payment        output difference minus payment difference
      payment_scaled_output payment difference minus scaled output difference
      scaled_output         alpha times the output difference
      participation         cost difference minus payment difference

    ``d_output`` and ``d_payment`` are the raw differences (base minus
    candidate, each under its own distribution).
    """

    output_payment: float
    payment_scaled_output: float
    scaled_output: float
    participation: float
    d_output: float
    d_payment: float

    @classmethod
    def chain(cls, alpha: float, d_output: float, d_payment: float, d_cost: float, **extra):
        """The four slacks from the output, payment and cost differences;
        ``extra`` fills the fields a subclass adds."""
        return cls(
            output_payment=d_output - d_payment,
            payment_scaled_output=d_payment - alpha * d_output,
            scaled_output=alpha * d_output,
            participation=d_cost - d_payment,
            d_output=d_output,
            d_payment=d_payment,
            **extra,
        )

    def min_slack(self) -> float:
        return min(
            self.output_payment,
            self.payment_scaled_output,
            self.scaled_output,
            self.participation,
        )


@dataclass(frozen=True)
class AlphaCheck:
    """Verification outcome at one alpha grid point."""

    alpha: float
    tested: bool
    reason: str
    inclusion_ok: bool | None
    converse_ok: bool | None
    n_candidates: int
    n_binding: int
    worst: InequalitySlacks | None
    step2_dev: float


@dataclass(frozen=True)
class TheoremReport:
    base_row: int
    base_level: float
    u_bar: float
    alpha_result: AlphaStarResult
    checks: tuple[AlphaCheck, ...]
    inclusion_ok: bool
    converse_ok: bool
    worst_slacks: InequalitySlacks | None
    step2_max_dev: float
    slack_witness_ok: bool

    @cached_property
    def base_profile(self) -> Profile:
        """Built on first read from ``base_row``, its enumeration row."""
        return self.alpha_result.enumeration.profile(self.base_row, 1.0)


def _base_index(enum: Enumeration, r: float) -> tuple[int, float, np.ndarray]:
    """Deterministic base pick: highest principal payoff in the unscaled
    selection, ties broken by contract then point id. Returns the pick, the
    selection's level and its profile indices."""
    chosen, ids, _ = enum.selection_ids(1.0, r)
    pr = enum.principal_at(1.0)[ids]
    order = np.lexsort((enum.point_id[ids], enum.contract_id[ids], -pr))
    return int(ids[order[0]]), chosen, ids


def _risk_neutral_level(enum: Enumeration, i: int) -> float:
    return float(enum.exp_payment[i] - enum.cost[i])


def _keys(enum: Enumeration, ids: np.ndarray) -> set[tuple[int, int]]:
    """The (contract_id, point_id) identities of the given profile rows."""
    return {(int(c), int(p)) for c, p in zip(enum.contract_id[ids], enum.point_id[ids])}


def _alpha_impl(enum: Enumeration, u_bar: float, eps: float) -> AlphaStarResult:
    trace: list[tuple[float, bool]] = []
    held: dict[float, np.ndarray] = {}  # the slack selections, by alpha

    def pred(alpha: float) -> bool:
        """True when no row selected at (alpha, u_bar) is capacity-binding."""
        _, ids, binding = enum.selection_ids(alpha, u_bar)
        if slack := not binding.any():
            held[alpha] = ids
        trace.append((float(alpha), slack))
        return slack

    if pred(1.0):
        star, bracket = 1.0, (1.0, 1.0)
    elif not pred(0.0):
        # the slack region is empty; sup over an empty set, reported as 0
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
    # the witness is the member of highest cost, so closest to capacity, of
    # the selection made where the predicate last held
    wit_alpha = star if star in held else None
    wit = None if wit_alpha is None else int(held[star][np.argmax(enum.cost[held[star]])])

    seen_false = False
    warning = False
    for _, ok in sorted(trace):
        if not ok:
            seen_false = True
        elif seen_false:
            warning = True
            break

    return AlphaStarResult(
        alpha_star=star,
        bracket=bracket,
        u_bar=u_bar,
        predicate_trace=tuple(trace),
        witness_row=wit,
        witness_alpha=wit_alpha,
        monotone_warning=warning,
        enumeration=enum,
    )


def _check_eps(eps: float) -> None:
    """Raises ConfigurationError unless the bisection width is positive and
    finite; NaN fails too. An infinite width would stop the bisection
    before its first predicate call."""
    if not 0.0 < eps < math.inf:
        raise ConfigurationError("bisection width must be positive and finite")


def alpha_star(
    s: Scenario,
    u_bar: float | None = None,
    eps: float = DEFAULT_EPS_ALPHA,
    budget: int | None = None,
    enum: Enumeration | None = None,
    tally: EvaluationTally | None = None,
) -> AlphaStarResult:
    """Bisect for the largest alpha whose selection is capacity slack.

    When ``u_bar`` is omitted it is the risk-neutral utility of the base
    profile, the selection of the unscaled problem at the scenario's
    reservation level. ``enum`` is an enumeration of ``s`` built beforehand
    (a capacity sweep chains them); ``budget`` and ``tally`` apply only when
    it is built here.
    """
    _check_eps(eps)
    if enum is None:
        enum = Enumeration(s, budget, tally=tally)
    elif enum.scenario != s:
        raise ConfigurationError("enumeration was built for another scenario")
    if u_bar is None:
        u_bar = _risk_neutral_level(enum, _base_index(enum, s.reservation)[0])
    return _alpha_impl(enum, float(u_bar), eps)


def _fieldwise_min(slacks: list[InequalitySlacks]) -> InequalitySlacks:
    """Each field's minimum over the given slacks, whose fields may be
    arrays (one entry per candidate)."""
    names = [f.name for f in fields(InequalitySlacks)]
    return InequalitySlacks(
        **{name: float(min(np.min(getattr(sl, name)) for sl in slacks)) for name in names}
    )


def _skipped(alpha: float, reason: str) -> AlphaCheck:
    return AlphaCheck(
        alpha=alpha,
        tested=False,
        reason=reason,
        inclusion_ok=None,
        converse_ok=None,
        n_candidates=0,
        n_binding=0,
        worst=None,
        step2_dev=0.0,
    )


def verify_theorem(
    s: Scenario,
    r: float | None = None,
    alphas: "np.ndarray | list[float] | None" = None,
    eps: float = DEFAULT_EPS_ALPHA,
    budget: int | None = None,
    tally: EvaluationTally | None = None,
) -> TheoremReport:
    """Brute-force certificate for the scaling comparison.

    At each tested alpha the selection of the scaled problem at the base's
    risk-neutral level is compared with the unscaled selection: the base
    profiles must reappear (inclusion), every capacity-binding candidate must
    be a base profile (converse), the four chain slacks must be nonnegative,
    and when a candidate pins the capacity the base must pin it too with
    vanishing payoff differences (``step2_dev``).

    An alpha below the threshold bracket, or whose selection has no binding
    member, is reported untested with the reason; the comparisons are only
    meaningful past the threshold. ``tally`` receives the enumeration's
    evaluation counts.
    """
    _check_eps(eps)
    enum = Enumeration(s, budget, tally=tally)
    if r is None:
        r = s.reservation
    i_base, base_level, base_ids = _base_index(enum, r)
    u_bar = _risk_neutral_level(enum, i_base)
    base_gap = abs(float(enum.cost[i_base]) - s.capacity)
    result = _alpha_impl(enum, u_bar, eps)
    base_keys = _keys(enum, base_ids)

    if alphas is None:
        alphas = np.round(np.linspace(0.0, 1.0, 11), 12)

    checks: list[AlphaCheck] = []
    for alpha in alphas:
        alpha = check_alpha(float(alpha))
        if alpha < result.bracket[1]:
            checks.append(_skipped(alpha, "below the capacity-slack threshold bracket"))
            continue
        try:
            _, ids, binding = enum.selection_ids(alpha, u_bar)
        except EmptySelectionError:
            checks.append(_skipped(alpha, "selection empty at this alpha"))
            continue
        if not binding.any():
            checks.append(_skipped(alpha, "selection has no capacity-binding member"))
            continue

        inclusion = base_keys <= _keys(enum, ids)
        converse = _keys(enum, ids[binding]) <= base_keys

        # each difference is the base's value minus the candidate's
        slacks = InequalitySlacks.chain(
            alpha,
            enum.exp_output[i_base] - enum.exp_output[ids],
            enum.exp_payment[i_base] - enum.exp_payment[ids],
            enum.cost[i_base] - enum.cost[ids],
        )
        step2 = max(
            base_gap,
            float(np.abs(slacks.d_payment[binding]).max()),
            float(np.abs(slacks.d_output[binding]).max()),
        )
        checks.append(
            AlphaCheck(
                alpha=alpha,
                tested=True,
                reason="",
                inclusion_ok=inclusion,
                converse_ok=converse,
                n_candidates=len(ids),
                n_binding=int(binding.sum()),
                worst=_fieldwise_min([slacks]),
                step2_dev=step2,
            )
        )

    tested = [c for c in checks if c.tested]
    witness_ok = result.witness_row is not None and float(enum.cost[result.witness_row]) < s.capacity

    return TheoremReport(
        base_row=i_base,
        base_level=base_level,
        u_bar=u_bar,
        alpha_result=result,
        checks=tuple(checks),
        inclusion_ok=all(c.inclusion_ok for c in tested),
        converse_ok=all(c.converse_ok for c in tested),
        worst_slacks=_fieldwise_min([c.worst for c in tested]) if tested else None,
        step2_max_dev=max((c.step2_dev for c in tested), default=0.0),
        slack_witness_ok=witness_ok,
    )
