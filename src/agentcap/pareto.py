"""Feasible-profile enumeration, Pareto filtering, and level selection.

The enumeration pairs every family contract with every agent best response;
best responses do not depend on the output scale alpha, so one enumeration
serves all alpha. Per-alpha principal payoffs are then linear updates. The
agent utilities do not move with alpha either, so the enumeration sorts its
rows by agent utility once (``_AgentOrder``), with the two tolerance cut
positions of every profile and the row's cuts, and every alpha query runs
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
``agent.best_responses``, which chooses the route. A capacity sweep builds
all its capacities in one pass (``capacity_chain``): each band of newly
feasible points is scanned once, every tie is kept once in one table, and
each capacity's rows and agent order are cut from that table, one capacity
at a time, so a sweep scores each lattice point once and sorts its ties
once. Every route gives the same rows and names a point by its index in the
scenario's lattice, the same at every capacity.

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

    ``rows``, the one row builder, makes the one row of every profile of
    each of several enumerations (every capacity of a sweep,
    ``capacity_chain``, or one alone, ``Enumeration.agent_order``), with
    its ``cuts`` (see ``stack``); a stack has none. ``stack``, the one
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
    # the padding's values in ``rows``' three blocks
    _PADDING = (np.array([[FIELDS["agent"]], [FIELDS["output"]], [FIELDS["payment"]]]),
                np.array([[FIELDS["order"]], [FIELDS["weak"]], [FIELDS["strict"]]]), FIELDS["binding"])

    def __init__(self, tol, order, agent, weak, strict, output, payment, binding):
        self.tol, self.order, self.agent, self.weak, self.strict = tol, order, agent, weak, strict
        self.output, self.payment, self.binding = output, payment, binding
        self.cuts = self.above = self.near = None

    @classmethod
    def rows(cls, enums: Sequence[Enumeration], orders: Sequence[np.ndarray]) -> list[_AgentOrder]:
        """The one-row orders of several enumerations that share tol_u, each
        of its profiles in its ``order``, which sorts them by agent utility,
        ascending and stable (for a sweep, each capacity's cut of one such
        order of all its ties, ``capacity_chain``). The rows are laid out in
        one buffer per field kind, each followed by its padding position, so
        that their tolerance sets and cuts are found in one pass over all of
        them."""
        tol = enums[0].scenario.tol_u
        lengths = [order.size for order in orders]
        pads = np.cumsum([n + 1 for n in lengths]) - 1
        size = int(pads[-1]) + 1
        # the fields as rows of three blocks, each row with its padding
        # position; weak[p] and strict[p], which count from the row's end
        # the first position of p's weak and strict sets, start from p and
        # p + 1, ramps down to 0 and -1
        f, i, binding = np.empty((3, size)), np.empty((3, size), np.intp), np.empty((1, size), bool)
        top = max(lengths)
        ramp = np.arange(top, -2, -1)
        rows = []
        for enum, order, pad, n in zip(enums, orders, pads.tolist(), lengths):
            at, whole = slice(pad - n, pad), slice(pad - n, pad + 1)
            for src, out in ((enum.agent_u, f[0, at]), (enum.exp_output, f[1, at]),
                             (enum.exp_payment, f[2, at]), (enum.binding, binding[0, at])):
                src.take(order, out=out)
            i[0, at] = order
            i[1, whole], i[2, whole] = ramp[top - n:top + 1], ramp[top - n + 1:]
            rows.append(cls(tol, i[:1, whole], f[:1, whole], i[1:2, whole], i[2:, whole], f[1:2, whole],
                            f[2:, whole], binding[:, whole]))
        f[:, pads], i[:, pads], binding[0, pads] = cls._PADDING
        # Only a profile within tol of its lower (upper) neighbour has its
        # weak (strict) set start below itself (past that neighbour). A
        # padding position's NaN fails every test here, so no test crosses
        # from one row to the next. Those profiles are searched for in their
        # own rows.
        a = f[0]
        d = a[1:] - tol
        apart = d > a[:-1]
        near = [np.flatnonzero(a[:-1] >= d) + 1]
        near.append(np.flatnonzero(a[1:] <= np.add(a[:-1], tol, out=d)))
        # a cut: a profile further than tol above its lower neighbour, whose
        # weak set leaves that neighbour out; a row's first position is one
        apart &= np.subtract(a[1:], a[:-1], out=d) > tol
        wide = np.flatnonzero(apart) + 1
        for block, side, shift, at in ((i[1], "left", -tol, near[0]), (i[2], "right", tol, near[1])):
            splits = at.searchsorted(pads).tolist()
            for pad, n, lo, hi in zip(pads.tolist(), lengths, [0, *splits], splits):
                if lo < hi:
                    row, found = a[pad - n:pad], at[lo:hi]
                    block[found] = n - row.searchsorted(a[found] + shift, side=side)
        ends = wide.searchsorted(pads).tolist()
        for row, pad, n, lo, hi in zip(rows, pads.tolist(), lengths, [0, *ends], ends):
            row.cuts = np.concatenate(([0], wide[lo:hi] - (pad - n)))
        return rows

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
    the agent order for any alpha, the first two through ``_kept``, the
    last through a stack of one row, and ``columns`` gathers the
    rendered fields of any rows, so exact (contract, point) identities are
    comparable across alpha. Rows run strictly ascending in (contract_id,
    point_id), and the agent order is stable, so that order is the
    frontier's final tie-break.

    ``points`` is ``s.lattice.points``, which ``point_id`` indexes, so an id
    names the same point at every capacity of a sweep. The rows' ids, agent
    utilities, ``row_max`` and ``evaluations`` come from
    ``agent.best_responses``, which picks the route: one call here, or, for
    the capacities of a sweep, the band steps of ``capacity_chain``, which
    cuts each capacity's rows and agent order, one capacity at a time, from
    one table of all their ties. The other fields are derived from the ids
    after it, ``binding`` by ``agent.capacity_binding``. Ties, binding
    flags and ids are those of a fresh enumeration whichever route ran. The
    budget check is on the nominal count, contracts times feasible points,
    whichever route runs.
    ``evaluations`` is the number of values computed: contracts times
    feasible points for a full scan, contracts times the band's points for
    a sweep's later capacity, and the probes and ball points scored (plus
    any rows scanned in full) for the ball route; ``nominal_evaluations``
    is contracts times feasible points. ``budget`` passes ``check_budget``.
    """

    def __init__(self, s: Scenario, budget: int | None = None):
        budget = check_budget(budget)
        ids, mask = feasible_lattice(s)
        _check_nominal(len(s.lattice.contracts[0]) * len(ids), budget)
        cid, pid, agent_u, row_max, evaluations = best_responses(s, ids, mask)
        self._set_rows(s, budget, len(ids), cid, pid, agent_u, _expected_payments(s, cid, pid), row_max,
                       evaluations)

    def _set_rows(self, s: Scenario, budget: int, n_feasible: int, contract_id, point_id, agent_u,
                  exp_payment, row_max, evaluations) -> None:
        """Every field, from the rows' ids, agent utilities and expected
        payments, each contract's best value and the values computed to
        find them; the fields that depend on the capacity are derived here."""
        self.scenario = s
        self.budget = budget
        self.labels, self.payments = s.lattice.contracts
        self.nominal_evaluations = len(self.labels) * n_feasible
        self.points = s.lattice.points
        self.contract_id, self.point_id, self.agent_u = contract_id, point_id, agent_u
        self.exp_payment, self.row_max, self.evaluations = exp_payment, row_max, evaluations
        self.cost = s.lattice.costs[point_id]
        self.binding = capacity_binding(s, point_id)
        # a matrix-vector product: BLAS may round a row differently in
        # another block, so each enumeration takes its own
        self.exp_output = self.points.take(point_id, axis=0) @ s.y.as_array()

    # -- queries ----------------------------------------------------------

    def _principal(self, alpha: float, rows) -> np.ndarray:
        """Principal payoffs of ``rows`` (any index) at output scale
        ``alpha``; raises ConfigurationError unless alpha lies in [0, 1]."""
        return check_alpha(alpha) * self.exp_output[rows] - self.exp_payment[rows]

    @cached_property
    def thresholds(self) -> dict[float, dict]:
        """The capacity-slack thresholds solved on this enumeration, by
        bisection width: ``scaling.alpha_stars`` records each as the fields
        of its ``AlphaStarResult`` but the enumeration, and reads it back
        instead of solving again."""
        return {}

    @cached_property
    def agent_order(self) -> _AgentOrder:
        """The agent-utility order every alpha query reuses: the one row
        ``_AgentOrder.rows`` makes of this enumeration alone."""
        return _AgentOrder.rows([self], [np.argsort(self.agent_u, kind="stable")])[0]

    def _kept(self, alpha: float) -> tuple[np.ndarray, np.ndarray]:
        """The one dominance pass of the frontier and the mask: the mask of
        the undominated positions of ``agent_order``'s row, and every
        profile's principal payoff at ``alpha`` in that order."""
        ao = self.agent_order
        principal = ao.principal(check_alpha(alpha))
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
        (level,), at = ao.select(check_alpha(alpha))
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
        payments, probs = self.payments[cid], self.points[self.point_id[rows]]
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


def _expected_payments(s: Scenario, contract_id: np.ndarray, point_id: np.ndarray) -> np.ndarray:
    """E_p[b] of each (contract, point) row. einsum sums each row on its
    own, so a row keeps its bits in any subset of rows."""
    payments, points = s.lattice.contracts[1], s.lattice.points
    return np.einsum("ij,ij->i", payments.take(contract_id, axis=0), points.take(point_id, axis=0))


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
    Each tie is kept once, in one table, from its band on; floors only
    rise with k, so it is live at each capacity from there up to the first
    whose floor it misses. The table is sorted once by (contract, point),
    and once, stably, by agent utility. Each capacity is then cut on its
    own: its rows are the ties live there, a mask over the table, in the
    first order, and its agent order those in the second, so that building
    a capacity takes no merge, argsort, scenario comparison or pass over
    the lattice, and no array spans capacities and ties at once. The table
    is freed before ``_AgentOrder.rows`` builds every capacity's agent
    order in one pass.

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

    scenarios = [first.scenario, *(s.at_capacity(k) for k in ascending[1:])]
    running = np.empty((len(scenarios), n_c))
    running[0] = first.row_max
    # the tie table: contract ids, point ids, values and the band found in
    parts = [(first.contract_id, first.point_id, first.agent_u, np.zeros(first.agent_u.size, np.intp))]
    bands = np.argsort(level, kind="stable")
    for i in range(1, len(scenarios)):
        running[i] = running[i - 1]
        if ends[i] > ends[i - 1]:
            ci, pi, vals, _, _ = best_responses(scenarios[i], bands[ends[i - 1]:ends[i]], None, running[i])
            parts.append((ci, pi, vals, np.full(ci.size, i)))
    cid, pid, agent_u, found = _merged(parts, len(first.points))
    del parts
    by_agent = np.argsort(agent_u, kind="stable")
    columns = (cid, pid, agent_u, _expected_payments(first.scenario, cid, pid))
    # a live tie's row at the capacity being cut
    row_of = np.empty(cid.size, np.intp)
    enums, orders = [first], []
    for i, floor in enumerate(tie_floor(running, first.scenario.tol_u)):
        live = (found <= i) & (agent_u >= floor[cid])
        ties = np.flatnonzero(live)
        row_of[ties] = np.arange(ties.size)
        orders.append(row_of.take(by_agent[live.take(by_agent)]))
        if i:
            enum = Enumeration.__new__(Enumeration)
            enum._set_rows(scenarios[i], budget, ends[i], *(c.take(ties) for c in columns), running[i],
                           n_c * (ends[i] - ends[i - 1]))
            enums.append(enum)
    del cid, pid, agent_u, found, columns, by_agent, row_of, live, ties
    for enum, order in zip(enums, _AgentOrder.rows(enums, orders)):
        enum.agent_order = order
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
