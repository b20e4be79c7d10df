"""Feasible-profile enumeration, Pareto filtering, and level selection.

The enumeration pairs every family contract with every agent best response;
best responses do not depend on the output scale alpha, so one enumeration
serves all alpha. Per-alpha principal payoffs are then linear updates. The
agent utilities do not move with alpha either, so the enumeration sorts its
rows by agent utility once, when the first alpha query asks
(``_AgentOrder.row``), with the two tolerance cut positions of every
profile and the row's cuts, and every alpha query runs
one dominance pass in that order: the frontier and the mask through
``Enumeration._kept``, the selection through a stack of that one row. The
pass works on a stack of such orders, one row per enumeration, each with its
own alpha and reservation, padded to one width by ``_AgentOrder.stack``, the
one stack builder. The selection rule is said once: a selection at
reservation r takes the first clustered level (``_cluster_levels``, the one
greedy walk) of the undominated agent utilities at or above r - tol_u, and
the undominated profiles within tol_u of it; ``_selection_level`` finds it
on a stack or on a frontier's agent utilities (``select``). A threshold solve
(``scaling.alpha_stars``) picks each capacity's base with ``selection_ids``,
then bisects the thresholds of every capacity of a sweep with one pass per
round. That keeps repeated queries (bisection on alpha) cheap.

Best responses do depend on the capacity, but only through the feasible set,
which grows with it. An enumeration takes its rows from
``agent.best_responses``, which chooses the route. An enumeration built for
one alpha (``solve``'s) lets the ball route drop the contracts whose every
row some other contract's rows dominate at that alpha, by more than tol_u
in agent utility and at least as much principal payoff: those rows are
never on the frontier, and every weak or strict set that held one holds a
dominating row with at least its payoff, so every other row keeps its
status and the frontier and selections at that alpha are unchanged. A capacity sweep builds
all its capacities in one pass (``capacity_chain``): each band of newly
feasible points is scanned once, every tie is kept once in one table of
ties only, and each capacity's ties are cut from it, one capacity at a
time, so a sweep scores each lattice point once. Every route gives the
same ties, hands them to ``Enumeration._set_rows``, the one row builder,
and names a point by its index in the scenario's lattice, the same at
every capacity.

Frontiers and selections are row indices into the enumeration's arrays, in
frontier order, with their principal payoffs. A row is rendered from one
checked gather, ``Enumeration.columns``: the CLI writes its tables and
summaries from it, and ``Profile`` objects, with their validated ``Contract``
and ``Distribution``, are built from it only when a caller reads ``.profiles``.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .agent import _merged, best_responses, capacity_binding, feasible_lattice, tie_floor
from .errors import BudgetExceededError, ConfigurationError, EmptySelectionError, ValidationError
from .model import Contract, Distribution, Profile, Scenario, capacity_failure, check_alpha, feasible_from
from .model import check_payments, check_probabilities

DEFAULT_BUDGET = 10**7


def check_budget(budget: int | None) -> int:
    """``budget`` as an int, or DEFAULT_BUDGET when it is None. Raises
    ConfigurationError unless it is a nonnegative integer (bools are not)."""
    if budget is None:
        return DEFAULT_BUDGET
    if isinstance(budget, bool) or not isinstance(budget, numbers.Integral) or budget < 0:
        raise ConfigurationError("budget must be a nonnegative integer")
    return int(budget)


def _check_nominal(nominal: int, budget: int) -> None:
    """Raises BudgetExceededError when an enumeration's nominal count,
    contracts times feasible points, exceeds the budget."""
    if nominal > budget:
        raise BudgetExceededError(
            f"enumeration needs {nominal} evaluations, budget is {budget}", required=nominal, budget=budget
        )


@dataclass
class EvaluationTally:
    """Best-response values computed by the enumerations of one run
    (``Enumeration.evaluations``), the nominal count they stand for
    (contracts times feasible points, what the budget caps) and the budget
    each was checked against. ``add`` takes one enumeration's counts; a run
    of one enumeration reads them off it, a capacity sweep's chain sums."""

    evaluations: int = 0
    nominal_evaluations: int = 0
    budget: int | None = None

    def add(self, enum: Enumeration) -> None:
        self.evaluations += int(enum.evaluations)
        self.nominal_evaluations += enum.nominal_evaluations
        self.budget = enum.budget


@dataclass(frozen=True, eq=False)
class ParetoSet:
    """The Pareto optimal rows of an enumeration at a fixed alpha.

    ``rows`` are the enumeration's row indices in frontier order: agent
    utility, then principal payoff, both descending, then row index.
    ``principal`` holds their principal payoffs at ``alpha``.
    ``agent_utility_levels`` lists the distinct agent-utility levels present,
    ascending, after merging values closer than tol_u. ``profiles`` builds
    the rows' Profile objects, in the same order, on first read.
    """

    enumeration: Enumeration
    alpha: float
    rows: np.ndarray
    principal: np.ndarray
    agent_utility_levels: tuple[float, ...]
    tol_u: float

    @cached_property
    def profiles(self) -> tuple[Profile, ...]:
        return self.enumeration._profiles(self.rows, self.principal)


@dataclass(frozen=True, eq=False)
class Selection:
    """The rows of the parent set at the lowest utility level >= r - tol_u,
    in the parent's order, with their principal payoffs; ``profiles`` as in
    ``ParetoSet``."""

    parent: ParetoSet
    r: float
    chosen_level: float
    rows: np.ndarray
    principal: np.ndarray

    @cached_property
    def profiles(self) -> tuple[Profile, ...]:
        return self.parent.enumeration._profiles(self.rows, self.principal)


class Columns(NamedTuple):
    """The rendered fields of some enumeration rows, row i of each field the
    i-th row asked for; the names are the keys of a summary's profile."""

    contract: list[str]
    payments: np.ndarray
    probs: np.ndarray
    agent_utility: np.ndarray
    principal_payoff: np.ndarray
    capacity_binding: np.ndarray
    cost: np.ndarray


def _cluster_levels(values: np.ndarray, tol: float) -> np.ndarray:
    """Ascending distinct levels of finite values; a value joins the current
    cluster when it is within tol of the cluster's first (lowest) member,
    i.e. when ``v - first <= tol``: the greedy walk over the sorted values.
    """
    levels = []
    for v in np.sort(values).tolist():
        if not levels or v - levels[-1] > tol:
            levels.append(v)
    return np.array(levels)


class _AgentOrder:
    """The alpha-invariant half of every alpha query, on a stack of K rows.

    Row k holds profiles of one enumeration sorted by agent utility,
    ascending and stable, then padding to the stack's width (at least one
    position): ``order`` maps each position to its enumeration row, and
    ``agent``, ``output``, ``payment`` and ``binding`` hold the agent
    utility, expected output, expected payment and capacity-binding flag
    there; ``tol`` is the rows' tol_u, one float when they share it, else a
    column. Padding has no agent utility (NaN), no binding flag and a
    principal payoff of -inf at every alpha, so no query keeps or selects
    it. At position i the weak set {q: q.a >= agent[i] - tol} is the row's
    suffix from some position w and the strict set
    {q: q.a > agent[i] + tol} its suffix from some s (the padding when the
    set is empty); ``weak[i]`` and ``strict[i]`` index the largest
    principal payoff over those suffixes in ``keep``'s running maxima of
    the reversed rows, flattened. Counted from the row's end, an index does
    not move when the row loses positions at its start.

    ``row``, the one row builder, makes the one row of every profile of an
    enumeration, for ``Enumeration.agent_order``, with its ``cuts`` (see
    ``stack``); a stack has none. ``stack``, the one
    stack builder, puts such rows together, each with the reservation it is
    selected at (``above``, ``near``), so that ``keep`` and
    ``_selection_level`` answer every row, at its own alpha, in one pass. A
    selection stays in the agent order, since the kept agent utilities
    already ascend, and only the rows chosen are mapped back to row
    indices.
    """

    # the fields by position, in ``__init__``'s order, with the value padding holds
    FIELDS = {"order": 0, "agent": np.nan, "weak": 0, "strict": 0,
              "output": 0.0, "payment": np.inf, "binding": False}
    __slots__ = ("tol", "cuts", "above", "near", *FIELDS)

    def __init__(self, tol, order, agent, weak, strict, output, payment, binding):
        self.tol, self.order, self.agent, self.weak, self.strict = tol, order, agent, weak, strict
        self.output, self.payment, self.binding = output, payment, binding
        self.cuts = self.above = self.near = None

    @classmethod
    def row(cls, enum: Enumeration) -> _AgentOrder:
        """The one-row order of ``enum``: its profiles sorted by agent
        utility, ascending and stable, each field followed by its padding
        position, with the row's tolerance sets and ``cuts``."""
        tol = enum.scenario.tol_u
        order = np.argsort(enum.agent_u, kind="stable")
        n = order.size
        o = {name: np.full((1, n + 1), pad) for name, pad in cls.FIELDS.items()}
        o["order"][0, :n] = order
        # order is a permutation, so "clip" clips nothing; unlike the default
        # "raise", it lets take write into the row without a buffer
        for name, src in (("agent", enum.agent_u), ("output", enum.exp_output), ("payment", enum.exp_payment),
                          ("binding", enum.binding)):
            src.take(order, out=o[name][0, :n], mode="clip")
        # weak[p] and strict[p], which count from the row's end the first
        # position of p's weak and strict sets, start from p and p + 1
        a, weak, strict = o["agent"][0, :n], o["weak"][0], o["strict"][0]
        weak[:] = np.arange(n, -1, -1)
        strict[:n] = weak[1:]
        # Only a profile within tol of its lower (upper) neighbour has its
        # weak (strict) set start below itself (past that neighbour); those
        # profiles are searched for
        d = a[1:] - tol
        apart = d > a[:-1]
        near = np.flatnonzero(a[:-1] >= d) + 1
        weak[near] = n - a.searchsorted(a[near] - tol, side="left")
        near = np.flatnonzero(a[1:] <= np.add(a[:-1], tol, out=d))
        strict[near] = n - a.searchsorted(a[near] + tol, side="right")
        row = cls(tol, *o.values())
        # a cut: a profile further than tol above its lower neighbour, whose
        # weak set leaves that neighbour out; the first position is one
        apart &= np.subtract(a[1:], a[:-1], out=d) > tol
        row.cuts = np.concatenate(([0], np.flatnonzero(apart) + 1))
        return row

    @classmethod
    def stack(cls, rows: Sequence[tuple[_AgentOrder, float]]) -> _AgentOrder:
        """The one-row orders ``o`` of ``rows``, selected at reservation
        ``r``: ``above`` marks the profiles >= r - tol, and ``near`` lists
        the rows whose last profile below r - tol lies within tol of the
        first one above, where a selection may need ``_cluster_levels``.

        One row is ``o``'s arrays. Several are padded to one width, each
        from its highest cut at or below the first profile >= r - tol, with
        its indices shifted to the stack's flattened rows. A cut is position
        0, or one whose gap to its lower neighbour is wider than tol and puts
        that neighbour outside its weak set: nothing below it can be
        selected at r, dominate a profile above it or join a cluster with
        one. ``rows`` finds a row's cuts."""
        floors = [r - o.tol for o, r in rows]
        firsts = [int(o.agent[0].searchsorted(f, side="left")) for (o, _), f in zip(rows, floors)]
        # at p = 0, or past the last profile, one side is the padding (NaN),
        # so the test fails
        near = [k for k, ((o, _), p) in enumerate(zip(rows, firsts))
                if o.agent[0, p] - o.agent[0, p - 1] <= o.tol]
        if len(rows) == 1:
            o = rows[0][0]
            st = cls(o.tol, o.order, o.agent, o.weak, o.strict, o.output, o.payment, o.binding)
        else:
            starts = [int(o.cuts[o.cuts.searchsorted(p, side="right") - 1])
                      for (o, _), p in zip(rows, firsts)]
            tols = {o.tol for o, _ in rows}
            tol = tols.pop() if len(tols) == 1 else np.array([[o.tol] for o, _ in rows])
            lengths = [o.order.shape[1] - 1 - g for (o, _), g in zip(rows, starts)]
            width = max(lengths, default=0) + 1
            filled = np.arange(width) < np.array(lengths, dtype=np.intp).reshape(-1, 1)
            # a row's indices count from its end, which moves to the stack's end
            shift = np.repeat([(i + 1) * width - 1 - n for i, n in enumerate(lengths)], lengths)
            fields = []
            for name, pad in cls.FIELDS.items():
                fields.append(field := np.full((len(rows), width), pad))
                values = np.concatenate([np.empty(0, field.dtype),
                                         *(getattr(o, name)[0, g:-1] for (o, _), g in zip(rows, starts))])
                field[filled] = values + shift if name in ("weak", "strict") else values
            st = cls(tol, *fields)
        st.above, st.near = st.agent >= np.array(floors).reshape(-1, 1), near
        return st

    def principal(self, alpha) -> np.ndarray:
        """Principal payoffs at output scale ``alpha``: one scale for every
        row, or a column of one per row."""
        return alpha * self.output - self.payment

    def keep(self, principal: np.ndarray) -> np.ndarray:
        """Mask, by position, of the profiles not dominated under the
        tolerance rule, for principal payoffs in this order: q dominates x
        when q is weakly better in both coordinates (within tol) and strictly
        better than tol in at least one. With ``best`` the largest principal
        payoff over a suffix of the row, x is dominated when best over its
        strict set is >= x.p - tol, or best over its weak set is > x.p + tol."""
        best = np.maximum.accumulate(principal[:, ::-1], axis=1).ravel()
        return (best[self.strict] < principal - self.tol) & (best[self.weak] <= principal + self.tol)

    def select(self, alpha: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Every row's selection at its reservation, and at its own output
        scale, given as a column, from one ``keep`` pass:
        ``_selection_level``'s levels and mask."""
        return _selection_level(self.agent, self.keep(self.principal(alpha)), self.above, self.tol,
                                self.near)


def empty_selection(r: float) -> EmptySelectionError:
    """The error of a selection at reservation ``r`` with no level."""
    return EmptySelectionError(f"no Pareto profile meets reservation {r!r}")


def _selection_level(agent: np.ndarray, kept, above: np.ndarray, tol, near) -> tuple[np.ndarray, np.ndarray]:
    """The selection rule on K rows of ascending agent utilities, of which
    ``kept`` marks the ones that count and ``above`` those >= the row's
    r - tol, for a reservation r and a tolerance ``tol`` per row (a float,
    or a column): each row's lowest level (``_cluster_levels`` of its kept
    values) >= r - tol, NaN when none qualifies, and the mask of the kept
    values within tol of it.

    Levels below the first kept value >= r - tol cannot qualify, and a gap
    wider than tol always opens a cluster, so that value is the level
    unless a kept value below r - tol lies within tol of it, which only
    the rows listed in ``near`` can have. There the level is the first of
    ``_cluster_levels`` of the row's kept values at or above that value.
    No level is the case the underlying theory leaves undefined; callers
    signal it (``empty_selection``) rather than guess.
    """
    first = np.where(kept & above, agent, np.nan)
    level = np.fmin.reduce(first, axis=1, initial=np.nan)
    at = first - level[:, None] <= tol
    for k in near:
        t = tol[k, 0] if isinstance(tol, np.ndarray) else tol
        if not (kept[k] & ~above[k] & (np.abs(agent[k] - level[k]) <= t)).any():
            continue
        levels = _cluster_levels(agent[k][kept[k]], t)
        i = int(levels.searchsorted(level[k], side="left"))
        level[k] = levels[i] if i < levels.size else np.nan
        at[k] = kept[k] & (np.abs(agent[k] - level[k]) <= t)
    return level, at


class Enumeration:
    """Shared engine: contracts x best responses with cached payoff pieces.

    Built once per scenario, with one read side: ``pareto_at``,
    ``pareto_mask`` and ``selection_ids`` each make one dominance pass in
    the agent order (``agent_order``, built on the first of them) for any
    alpha, the first two through ``_kept``, the last through a stack of one
    row, and ``columns`` gathers the
    rendered fields of any rows, so exact (contract, point) identities are
    comparable across alpha. Rows run strictly ascending in (contract_id,
    point_id), and the agent order is stable, so that order is the
    frontier's final tie-break.

    ``point_id`` indexes ``s.lattice``, so an id names the same point at
    every capacity of a sweep; the rows' probabilities are gathered from it
    by ``PricedLattice.at``, and ``points``, the whole lattice as floats, is
    built only when read. The rows' ids, agent
    utilities, ``row_max`` and ``evaluations`` come from
    ``agent.best_responses``, which picks the route: one call here, or, for
    the capacities of a sweep, the band steps of ``capacity_chain``, which
    cuts each capacity's ties, one capacity at a time, from one table of
    all their ties. ``_set_rows``, the one row builder, derives the other
    fields from the ids, ``binding`` by ``agent.capacity_binding``. Ties,
    binding flags and ids are those of a fresh enumeration whichever route
    ran. The budget check is on the nominal count, contracts times feasible
    points, whichever route runs.
    ``evaluations`` is the number of values computed: contracts times
    feasible points for a full scan, contracts times the band's points for
    a sweep's later capacity, and the probes and ball points scored (plus
    any rows scanned in full) for the ball route; ``nominal_evaluations``
    is contracts times feasible points. ``budget`` passes ``check_budget``.

    An enumeration built with ``alpha`` is bound to that output scale, the
    only one ``solve`` queries: the ball route drops every contract that
    cannot reach the frontier there (``agent.scan_balls``), which then has
    no rows and a NaN ``row_max``, and the frontier and selections at that
    alpha are the unbound enumeration's. A query at another alpha raises
    ConfigurationError.
    """

    # the output scale every query must ask for, or None for any
    alpha: float | None = None

    def __init__(self, s: Scenario, budget: int | None = None, alpha: float | None = None):
        budget = check_budget(budget)
        if alpha is not None:
            self.alpha = check_alpha(alpha)
        ids, mask = feasible_lattice(s)
        _check_nominal(len(s.lattice.contracts[0]) * len(ids), budget)
        self._set_rows(s, budget, len(ids), *best_responses(s, ids, mask, alpha=self.alpha))

    def _set_rows(self, s: Scenario, budget: int, n_feasible: int, contract_id, point_id, agent_u, row_max,
                  evaluations) -> None:
        """The one row builder: every field, from the ties' ids and agent
        utilities, each contract's best value and the values computed;
        cost, binding flag and expected payment and output are derived here."""
        self.scenario = s
        self.budget = budget
        self.labels, self.payments = s.lattice.contracts
        self.nominal_evaluations = len(self.labels) * n_feasible
        self.contract_id, self.point_id, self.agent_u = contract_id, point_id, agent_u
        self.row_max, self.evaluations = row_max, evaluations
        self.cost = s.lattice.costs[point_id]
        self.binding = capacity_binding(s, point_id)
        probs = s.lattice.at(point_id)
        # einsum sums each row on its own, so a row keeps its bits in any
        # subset of rows
        self.exp_payment = np.einsum("ij,ij->i", self.payments.take(contract_id, axis=0), probs)
        # a matrix-vector product: BLAS may round a row differently in
        # another block, so each enumeration takes its own
        self.exp_output = probs @ s.y.as_array()

    @property
    def points(self) -> np.ndarray:
        """``PricedLattice.points``, the float coordinates of every point
        ``point_id`` may name, built on first read; no enumeration step
        reads it."""
        return self.scenario.lattice.points

    # -- queries ----------------------------------------------------------

    def _query(self, alpha: float) -> float:
        """``alpha`` as a float; raises ConfigurationError unless it lies in
        [0, 1] and, on an enumeration bound to one alpha, is that one."""
        alpha = check_alpha(alpha)
        if self.alpha is not None and alpha != self.alpha:
            raise ConfigurationError(f"enumeration is bound to alpha {self.alpha!r}, queried at {alpha!r}")
        return alpha

    def _principal(self, alpha: float, rows) -> np.ndarray:
        """Principal payoffs of ``rows`` (any index) at output scale
        ``alpha``, which passes ``_query``."""
        return self._query(alpha) * self.exp_output[rows] - self.exp_payment[rows]

    @cached_property
    def thresholds(self) -> dict[float, dict]:
        """The capacity-slack thresholds solved on this enumeration, by
        bisection width: ``scaling.alpha_stars`` records each as the fields
        of its ``AlphaStarResult`` but the enumeration, and reads it back
        instead of solving again."""
        return {}

    @cached_property
    def agent_order(self) -> _AgentOrder:
        """The agent-utility order every alpha query reuses, built by
        ``_AgentOrder.row`` the first time one asks for it."""
        return _AgentOrder.row(self)

    def _kept(self, alpha: float) -> tuple[np.ndarray, np.ndarray]:
        """The one dominance pass of the frontier and the mask: the mask of
        the undominated positions of ``agent_order``'s row, and every
        profile's principal payoff at ``alpha`` in that order."""
        ao = self.agent_order
        principal = ao.principal(self._query(alpha))
        return ao.keep(principal), principal

    def pareto_mask(self, alpha: float) -> np.ndarray:
        """The undominated rows at ``alpha``, as a mask by row."""
        keep = np.zeros(self.agent_u.size, dtype=bool)
        keep[self.agent_order.order[self._kept(alpha)[0]]] = True
        return keep

    def pareto_at(self, alpha: float) -> ParetoSet:
        """The frontier at ``alpha``. The kept agent utilities ascend and
        the agent order is stable, so a stable sort by agent utility, then
        principal payoff, both descending, leaves exact ties in row order."""
        ao, tol = self.agent_order, self.scenario.tol_u
        kept, principal = self._kept(alpha)
        agent, principal = ao.agent[kept], principal[kept]
        at = np.lexsort((-principal, -agent))
        return ParetoSet(
            enumeration=self,
            alpha=float(alpha),
            rows=ao.order[kept][at],
            principal=principal[at],
            agent_utility_levels=tuple(_cluster_levels(agent, tol).tolist()),
            tol_u=tol,
        )

    def selection_ids(self, alpha: float, r: float) -> tuple[float, np.ndarray, np.ndarray]:
        """(chosen_level, profile indices at that level, binding flags).

        The rows of select(pareto_at(alpha), r), ascending instead of in
        frontier order, from the stack of ``agent_order`` alone at r: the
        pass and the selection every lockstep round makes."""
        ao = _AgentOrder.stack([(self.agent_order, r)])
        (level,), at = ao.select(self._query(alpha))
        if math.isnan(level):
            raise empty_selection(r)
        rows = np.sort(ao.order[at])
        return float(level), rows, self.binding[rows]

    def columns(self, rows: np.ndarray, principal: np.ndarray) -> Columns:
        """The rendered fields of ``rows``, whose principal payoffs are
        ``principal``: the one gather every table, summary and ``Profile``
        reads. The payments and probabilities pass ``Contract``'s and
        ``Distribution``'s checks, run once over the gathered block."""
        cid = self.contract_id[rows]
        payments, probs = self.payments[cid], self.scenario.lattice.at(self.point_id[rows])
        check_payments(payments)
        check_probabilities(probs)
        return Columns(
            [self.labels[c] for c in cid.tolist()], payments, probs,
            self.agent_u[rows], principal, self.binding[rows], self.cost[rows],
        )

    def _profiles(self, rows: np.ndarray, principal: np.ndarray) -> tuple[Profile, ...]:
        """The Profiles of ``rows``, whose principal payoffs are ``principal``,
        built from their ``columns``."""
        c = self.columns(rows, principal)
        fields = zip(c.contract, *(v.tolist() for v in c[1:]),
                     self.contract_id[rows].tolist(), self.point_id[rows].tolist())
        return tuple(
            Profile(Contract(tuple(b)), Distribution(tuple(p)), u, v, bind, cost, ci, pi, label)
            for label, b, p, u, v, bind, cost, ci, pi in fields
        )

    def profile(self, i: int, alpha: float) -> Profile:
        return self._profiles(np.array([i]), self._principal(alpha, [i]))[0]


def capacity_chain(s: Scenario, ks: Sequence[float], budget: int | None = None):
    """The enumerations of ``s.at_capacity(k)`` for the capacities of the
    ascending ``ks``, all built in one pass, and the error of the first
    capacity that fails (None when none does): the enumerations below it
    are returned. ``s`` must pass ``validate_scenario`` at ``ks[0]``, as a
    sweep checks first.

    The first is a fresh ``Enumeration``. Feasible sets grow with k, so
    each later capacity adds a band, the lattice points feasible there but
    not at the capacity below (``feasible_from``), which the band step of
    ``best_responses`` scans against each contract's best value so far:
    one ``scan_grid`` of every contract and the band's points. The bands
    stay apart, since BLAS may round one matmul over several differently.
    A band scan reads only the capacity-independent lattice and tol_u, so
    it prices against ``s``. Each tie is kept once, in one table of ties
    only, from its band on; floors only rise with k, so it is live at each
    capacity from there up to the first whose floor it misses. The table
    is sorted once by (contract, point). Each capacity is then cut on its
    own: its ties are those live there, a mask over the table, in that
    order, so that building a capacity takes no merge, argsort, scenario
    comparison or pass over the lattice, and no array spans capacities and
    ties at once; ``Enumeration._set_rows`` derives their other fields at
    ``s.at_capacity(k)``. Each enumeration builds its own agent order when
    the first alpha query asks for it (``Enumeration.agent_order``).

    A later k is checked for what depends on it alone, as
    ``validate_scenario`` and ``Enumeration`` would check it: that it is
    finite (``capacity_failure``), then the budget, contracts times the
    points feasible at k.
    """
    if not ks:
        return [], None
    first = Enumeration(s.at_capacity(ks[0]), budget)
    n_c, budget = len(first.labels), first.budget
    failure = None
    ascending = [first.scenario.capacity]
    for k in ks[1:]:
        if (text := capacity_failure(k)) is not None:
            failure = ValidationError(text)
            break
        if k < ascending[-1]:
            raise ConfigurationError("capacities must ascend")
        ascending.append(float(k))
    level = feasible_from(s.lattice.costs, ascending)
    ends = np.cumsum(np.bincount(level, minlength=len(ascending)))[: len(ascending)].tolist()
    for i, n_p in enumerate(ends[1:], 1):
        try:
            _check_nominal(n_c * n_p, budget)
        except BudgetExceededError as exc:
            failure, ascending = exc, ascending[:i]
            break

    running = np.empty((len(ascending), n_c))
    running[0] = first.row_max
    # the tie table: contract ids, point ids, values and the band found in
    parts = [(first.contract_id, first.point_id, first.agent_u, np.zeros(first.agent_u.size, np.intp))]
    bands = np.argsort(level, kind="stable")
    for i in range(1, len(ascending)):
        running[i] = running[i - 1]
        if ends[i] > ends[i - 1]:
            ci, pi, vals, _, _ = best_responses(s, bands[ends[i - 1]:ends[i]], None, running[i])
            parts.append((ci, pi, vals, np.full(ci.size, i)))
    cid, pid, agent_u, found = _merged(parts, len(s.lattice.costs))
    del parts
    floors = tie_floor(running, s.tol_u)
    enums = [first]
    for i in range(1, len(ascending)):
        ties = np.flatnonzero((found <= i) & (agent_u >= floors[i, cid]))
        enum = Enumeration.__new__(Enumeration)
        enum._set_rows(s.at_capacity(ascending[i]), budget, ends[i], cid[ties], pid[ties], agent_u[ties],
                       running[i], n_c * (ends[i] - ends[i - 1]))
        enums.append(enum)
    return enums, failure


# ---------------------------------------------------------------------------
# Operation-level API


def select(ps: ParetoSet, r: float) -> Selection:
    """The selection at the lowest utility level >= r - tol_u:
    ``_selection_level`` on the frontier's agent utilities, ascending, and
    the frontier rows within tol_u of that level, in frontier order.

    Raises EmptySelectionError when no level qualifies; the underlying theory
    leaves that case undefined, so it is signalled rather than guessed.
    """
    agent = ps.enumeration.agent_u[ps.rows[::-1]][None]
    (level,), (at,) = _selection_level(agent, np.ones_like(agent, bool), agent >= r - ps.tol_u, ps.tol_u, [0])
    if math.isnan(level):
        raise empty_selection(r)
    at = at[::-1]
    return Selection(
        parent=ps, r=float(r), chosen_level=float(level), rows=ps.rows[at], principal=ps.principal[at]
    )
