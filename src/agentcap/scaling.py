"""Output scaling: the capacity-slack threshold alpha* and its certificate.

alpha* is the largest output scale at which the selected Pareto profiles all
leave the capacity constraint slack. Above it some selected profile pins the
constraint, and the payoff comparisons in ``verify_theorem`` certify how the
scaled problem relates to the unscaled one.

``alpha_stars`` is the one threshold solve: after each enumeration's base
pick it bisects the thresholds of several enumerations (the capacities of a
sweep) in lockstep, every round one dominance pass and one selection over a
stack of their agent orders, one alpha per row, and keeps each threshold on
its enumeration. Between rounds the solve holds, by enumeration, the next
alpha, the bracket ends, the trace and the rows selected where the predicate
last held; ``_AgentOrder.stack`` builds the stack again only when
thresholds close, since the rows still bisecting close together.
``alpha_star`` solves one enumeration with it, or reads the threshold
already kept there, and ``verify_theorem`` selects at every tested alpha in
one more pass over the enumeration repeated, one alpha per row.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field, fields
from functools import cached_property

import numpy as np

from .errors import ConfigurationError, EmptySelectionError
from .model import Profile, Scenario, check_alpha
from .pareto import Enumeration, _AgentOrder, empty_selection

DEFAULT_EPS_ALPHA = 1e-4


@dataclass(frozen=True)
class AlphaStarResult:
    """Bisection output for the capacity-slack threshold.

    ``base_rows`` is the unscaled selection at the scenario's reservation
    level, chosen at ``base_level``; ``base_row`` is its member of highest
    principal payoff, the first in row order on a tie, and ``u_bar`` that
    profile's risk-neutral utility, the level of every selection the
    bisection makes. ``bracket`` is (last alpha where the predicate held,
    first where it failed); the two coincide only in the degenerate
    all-true or all-false cases. ``slack_witness`` is the selected profile
    with cost closest to capacity at the bracket's low end, i.e. the
    profile exhibiting how the constraint tightens as alpha approaches the
    threshold; it is built on first read from ``witness_row``, its row in
    ``enumeration``.
    """

    alpha_star: float
    bracket: tuple[float, float]
    base_row: int
    base_level: float
    u_bar: float
    predicate_trace: tuple[tuple[float, bool], ...]
    witness_row: int | None
    witness_alpha: float | None
    monotone_warning: bool
    enumeration: Enumeration = field(compare=False, repr=False)
    base_rows: np.ndarray = field(compare=False, repr=False)

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
    """Verification outcome at one alpha grid point; an untested point
    carries only its ``reason``."""

    alpha: float
    tested: bool = False
    reason: str = ""
    inclusion_ok: bool | None = None
    converse_ok: bool | None = None
    n_candidates: int = 0
    n_binding: int = 0
    worst: InequalitySlacks | None = None
    step2_dev: float = 0.0


@dataclass(frozen=True)
class TheoremReport:
    alpha_result: AlphaStarResult
    checks: tuple[AlphaCheck, ...]
    inclusion_ok: bool
    converse_ok: bool
    worst_slacks: InequalitySlacks | None
    step2_max_dev: float
    slack_witness_ok: bool

    @cached_property
    def base_profile(self) -> Profile:
        """Built on first read from the threshold's ``base_row``."""
        res = self.alpha_result
        return res.enumeration.profile(res.base_row, 1.0)


def check_eps(eps: float) -> None:
    """Raises ConfigurationError unless the bisection width ``eps`` is
    positive and finite (NaN fails too; an infinite width would stop the
    bisection before its first predicate call)."""
    if not 0.0 < eps < math.inf:
        raise ConfigurationError("bisection width must be positive and finite")


def alpha_star(
    s: Scenario,
    eps: float = DEFAULT_EPS_ALPHA,
    budget: int | None = None,
    enum: Enumeration | None = None,
) -> AlphaStarResult:
    """Bisect for the largest alpha whose selection at the base's
    risk-neutral level is capacity slack: ``alpha_stars`` of one
    enumeration.

    ``enum`` is an enumeration of ``s`` built beforehand; ``budget`` applies
    only when it is built here. A threshold already solved on ``enum`` at
    ``eps`` (a sweep solves its capacities together) is read, not solved
    again. ``eps`` passes ``check_eps`` before anything is built.
    """
    check_eps(eps)
    if enum is None:
        enum = Enumeration(s, budget)
    elif enum.scenario != s:
        raise ConfigurationError("enumeration was built for another scenario")
    return alpha_stars([enum], eps)[0]


def alpha_stars(enums: Sequence[Enumeration], eps: float = DEFAULT_EPS_ALPHA) -> list[AlphaStarResult]:
    """The threshold of every enumeration's scenario, bisected in lockstep.

    Each enumeration first picks its base: ``selection_ids`` at alpha = 1
    and its scenario's reservation. Then each round makes one dominance
    pass and one selection for every threshold still open, one alpha and
    one reservation per row (``_AgentOrder.stack``): the predicate at 1, at
    0 and at each bisection step, at the base's risk-neutral level. Every
    bisection halves [0, 1], so the rows still bisecting close together,
    and a solve makes at most 2 + ceil(log2(1 / eps)) rounds, or until the
    bracket's ends are adjacent floats, however many enumerations it takes.
    A row with no selection drops out; once every row is done, the first
    such row in the order given raises its EmptySelectionError, as solving
    them one after another would.

    Each threshold solved is kept on its enumeration
    (``Enumeration.thresholds``, by ``eps``), and one kept there is read
    instead of solved again.
    """
    check_eps(eps)
    todo = [e for e in enums if eps not in e.thresholds]
    if todo:
        _bisect(todo, eps)
    return [AlphaStarResult(**e.thresholds[eps], enumeration=e) for e in enums]


def _bisect(enums: Sequence[Enumeration], eps: float) -> None:
    """``alpha_stars``'s solve: records the threshold of every enumeration
    whose selections never come up empty in ``thresholds[eps]``, then
    raises the first row's EmptySelectionError, if any."""
    failures: dict[int, EmptySelectionError] = {}

    # the base picks: rows ascend in (contract_id, point_id), so argmax's
    # first maximum is the tie-break by contract, then point
    bases = {}
    for k, e in enumerate(enums):
        try:
            level, rows, _ = e.selection_ids(1.0, e.scenario.reservation)
        except EmptySelectionError as exc:
            failures[k] = exc
            continue
        row = int(rows[np.argmax(e._principal(1.0, rows))])
        bases[k] = (level, rows, row, float(e.exp_payment[row] - e.cost[row]))

    # the predicate rounds, on one stack cut at each u_bar whose rows are the
    # enumerations in ``live``, built again only when that set changes; by
    # enumeration: the alpha each open one asks next, its bracket ends, its
    # trace, and the rows selected where its predicate last held
    live: list[int] = []
    pending = dict.fromkeys(bases, 1.0)
    lo, hi = dict.fromkeys(bases, 0.0), dict.fromkeys(bases, 1.0)
    traces: dict[int, list[tuple[float, bool]]] = {k: [] for k in bases}
    held: dict[int, np.ndarray] = {}
    while pending:
        if len(pending) != len(live):
            live = list(pending)
            st = _AgentOrder.stack([(enums[k].agent_order, bases[k][3]) for k in live])
        alphas = [pending.pop(k) for k in live]
        levels, chosen = st.select(np.array(alphas)[:, None])
        binds = np.logical_or.reduce(chosen & st.binding, axis=1)
        for j, (k, alpha, level, bind) in enumerate(zip(live, alphas, levels.tolist(), binds.tolist())):
            if math.isnan(level):
                failures[k] = empty_selection(bases[k][3])
                continue
            traces[k].append((alpha, not bind))
            if not bind:
                held[k] = st.order[j][chosen[j]]
            # the bracket closes at (1, 1) when slack at alpha = 1, and at
            # (0, 0) when binding at 1 and at 0: the slack region is empty,
            # its sup reported as 0
            (hi if bind else lo)[k] = alpha
            if bind and len(traces[k]) == 1:
                pending[k] = 0.0
            elif hi[k] - lo[k] > eps and lo[k] < (mid := 0.5 * (lo[k] + hi[k])) < hi[k]:
                pending[k] = mid

    for k, e in enumerate(enums):
        if k in failures:
            continue
        level, rows, row, u = bases[k]
        star, trace = lo[k], traces[k]
        # the witness is the member of highest cost, so closest to capacity,
        # of the selection made where the predicate last held, at the star
        wit = wit_alpha = None
        if k in held:
            ids = np.sort(held[k])
            wit, wit_alpha = int(ids[np.argmax(e.cost[ids])]), star
        e.thresholds[eps] = dict(
            alpha_star=star,
            bracket=(lo[k], hi[k]),
            base_row=row,
            base_level=level,
            u_bar=u,
            predicate_trace=tuple(trace),
            witness_row=wit,
            witness_alpha=wit_alpha,
            # never True: slack raises lo, binding lowers hi, midpoints lie inside
            monotone_warning=False,
            base_rows=rows,
        )
    if failures:
        raise failures[min(failures)]


def _fieldwise_min(slacks: list[InequalitySlacks]) -> InequalitySlacks:
    """Each field's minimum over the given slacks, whose fields may be
    arrays (one entry per candidate)."""
    names = [f.name for f in fields(InequalitySlacks)]
    return InequalitySlacks(
        **{name: float(min(np.min(getattr(sl, name)) for sl in slacks)) for name in names}
    )


def verify_theorem(
    s: Scenario,
    alphas: "np.ndarray | list[float] | None" = None,
    eps: float = DEFAULT_EPS_ALPHA,
    budget: int | None = None,
) -> TheoremReport:
    """Brute-force certificate for the scaling comparison.

    ``alpha_star(s, eps, budget)`` solves the threshold and picks the base.
    At each tested alpha the selection of the scaled problem at the base's
    risk-neutral level is compared with the unscaled selection: the base
    profiles must reappear (inclusion), every capacity-binding candidate must
    be a base profile (converse), the four chain slacks must be nonnegative,
    and when a candidate pins the capacity the base must pin it too with
    vanishing payoff differences (``step2_dev``).

    An alpha below the threshold bracket, or whose selection has no binding
    member, is reported untested with the reason; the comparisons are only
    meaningful past the threshold.
    """
    res = alpha_star(s, eps, budget)
    enum, i_base = res.enumeration, res.base_row
    base_gap = abs(float(enum.cost[i_base]) - s.capacity)
    # a row index is a profile's identity within one enumeration
    base_set = set(res.base_rows.tolist())

    if alphas is None:
        alphas = np.round(np.linspace(0.0, 1.0, 11), 12)

    alphas = [check_alpha(float(alpha)) for alpha in alphas]
    # the selections at every alpha past the bracket, from one pass over the
    # enumeration repeated, one alpha per row
    past = [alpha for alpha in alphas if alpha >= res.bracket[1]]
    stack = _AgentOrder.stack([(enum.agent_order, res.u_bar)] * len(past))
    levels, chosen = stack.select(np.array(past)[:, None])
    picks = zip(levels.tolist(), stack.order, chosen)

    checks: list[AlphaCheck] = []
    for alpha in alphas:
        if alpha < res.bracket[1]:
            checks.append(AlphaCheck(alpha, reason="below the capacity-slack threshold bracket"))
            continue
        level, order, selected = next(picks)
        if math.isnan(level):
            checks.append(AlphaCheck(alpha, reason="selection empty at this alpha"))
            continue
        ids = np.sort(order[selected])
        binding = enum.binding[ids]
        if not binding.any():
            checks.append(AlphaCheck(alpha, reason="selection has no capacity-binding member"))
            continue

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
                inclusion_ok=base_set.issubset(ids.tolist()),
                converse_ok=base_set.issuperset(ids[binding].tolist()),
                n_candidates=len(ids),
                n_binding=int(binding.sum()),
                worst=_fieldwise_min([slacks]),
                step2_dev=step2,
            )
        )

    tested = [c for c in checks if c.tested]
    witness_ok = res.witness_row is not None and float(enum.cost[res.witness_row]) < s.capacity

    return TheoremReport(
        alpha_result=res,
        checks=tuple(checks),
        inclusion_ok=all(c.inclusion_ok for c in tested),
        converse_ok=all(c.converse_ok for c in tested),
        worst_slacks=_fieldwise_min([c.worst for c in tested]) if tested else None,
        step2_max_dev=max((c.step2_dev for c in tested), default=0.0),
        slack_witness_ok=witness_ok,
    )
