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
on a stack, ``select`` off the frontier's levels. A threshold solve
(``scaling.alpha_stars``) picks each capacity's base with ``selection_ids``,
then bisects the thresholds of every capacity of a sweep with one pass per
round. That keeps repeated queries (bisection on alpha) cheap.

Best responses do depend on the capacity, but only through the feasible set,
which grows with it. An enumeration built on the one at the next lower
capacity scans only the points that became feasible, against each contract's
best value carried up from below, and keeps the lower ties that still reach
the new floor; a capacity sweep scores each lattice point once.

A fresh enumeration whose cost is strictly convex on the simplex, and whose
contracts times feasible points exceed one value block (``agent._CHUNK``),
scores only the lattice points in each contract's certified ball
(``agent.scan_balls``); the rows are the same either way. Every route names
a point by its index in the scenario's lattice, the same at every capacity.

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
from dataclasses import dataclass, replace
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .agent import (
    ball_route,
    capacity_binding,
    feasible_lattice,
    scan_balls,
    scan_grid,
    tie_floor,
)
from .errors import BudgetExceededError, ConfigurationError, EmptySelectionError
from .model import Contract, Distribution, Profile, Scenario, check_alpha, feasible_mask
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
    i.e. when ``v - first <= tol``.

    A gap wider than tol between sorted neighbours always opens a cluster,
    and a run of narrow gaps whose last member is within tol of its first is
    a single cluster. The greedy walk runs only inside the remaining runs, one
    searchsorted per cluster.
    """
    if values.size == 0:
        return values
    s = np.sort(values)
    is_first = np.empty(s.size, dtype=bool)
    is_first[0] = True
    np.greater(np.diff(s), tol, out=is_first[1:])
    starts = np.flatnonzero(is_first)
    ends = np.append(starts[1:], s.size)
    walk = s[ends - 1] - s[starts] > tol
    for a, b in zip(starts[walk], ends[walk]):
        j = a
        while (j := j + int(np.searchsorted(s[j:b] - s[j], tol, side="right"))) < b:
            is_first[j] = True
    return s[is_first]


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

    ``sort`` makes the one row of every profile of an enumeration
    (``Enumeration.agent_order``), with its ``cuts`` (see ``stack``); a
    stack has none. ``stack``, the one stack builder, puts such rows
    together, each with the reservation it is selected at (``above``,
    ``near``), so that ``keep`` and ``_selection_level`` answer every row,
    at its own alpha, in one pass. A selection stays in the agent order,
    since the kept agent utilities already ascend, and only the rows chosen
    are mapped back to row indices.
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
    def sort(cls, enum: Enumeration) -> _AgentOrder:
        """One row: every profile of ``enum``."""
        tol = enum.scenario.tol_u
        order = np.argsort(enum.agent_u, kind="stable")
        n = order.size
        # the fields as rows of three blocks, each with its padding position
        f, i, binding = np.empty((3, n + 1)), np.empty((3, n + 1), np.intp), np.empty((1, n + 1), bool)
        f[:, n] = [cls.FIELDS[name] for name in ("agent", "output", "payment")]
        i[:, n], binding[0, n] = cls.FIELDS["order"], cls.FIELDS["binding"]
        a_s = f[0, :n]
        for src, out in ((enum.agent_u, a_s), (enum.exp_output, f[1, :n]),
                         (enum.exp_payment, f[2, :n]), (enum.binding, binding[0, :n])):
            src.take(order, out=out)
        i[0, :n] = order
        np.subtract(n, a_s.searchsorted(a_s - tol, side="left"), out=i[1, :n])
        np.subtract(n, a_s.searchsorted(a_s + tol, side="right"), out=i[2, :n])
        ao = cls(tol, i[:1], f[:1], i[1:2], i[2:], f[1:2], f[2:], binding)
        wide = (a_s[1:] - a_s[:-1] > tol) & (a_s[1:] - tol > a_s[:-1])
        ao.cuts = np.concatenate(([0], wide.nonzero()[0] + 1))
        return ao

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
        one. ``sort`` finds a row's cuts."""
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
    names the same point at every capacity of a sweep. A producer below
    yields the rows' ids and agent utilities; the other fields are derived
    from the ids after it, ``binding`` by ``agent.capacity_binding``.

    ``below`` is an enumeration, at a capacity no higher than ``s``'s, of a
    scenario differing from ``s`` only in capacity; building ``s`` with
    ``below.scenario.at_capacity`` shares the lattice, so it is priced once.
    Feasible sets are nested in the capacity, so only the points feasible
    here but not there are scanned, against each contract's best value
    carried up from ``below``; ``below``'s ties that still reach the new
    floor are kept. Ties, binding flags and ids are those of a fresh
    enumeration; agent utilities of the newly scanned points come from a
    narrower matmul and may differ from a fresh scan's in the last bit.

    Without ``below``, the route is a property of the input
    (``agent.ball_route``): when the cost is strictly convex on the simplex
    and contracts times feasible points exceed one value block,
    ``agent.scan_balls`` scores only each contract's certified ball;
    otherwise ``agent.scan_grid`` scores every pair. Both
    give the same rows and ``row_max``, so a chain may start from either;
    ball-route agent utilities may differ in the last bit. The budget check
    is on the nominal count, contracts times feasible points, whichever
    route runs. ``evaluations`` is the number of values computed: contracts
    times feasible points for a full scan, contracts times newly feasible
    points for a chained one, and the probes and ball points scored (plus
    any rows scanned in full) for the ball route; ``nominal_evaluations`` is
    contracts times feasible points. ``budget`` passes ``check_budget``.
    """

    def __init__(
        self,
        s: Scenario,
        budget: int | None = None,
        below: Enumeration | None = None,
    ):
        budget = check_budget(budget)
        if below is not None:
            if replace(below.scenario, capacity=s.capacity) != s:
                raise ConfigurationError("lower enumeration was built for another scenario")
            if below.scenario.capacity > s.capacity:
                raise ConfigurationError("lower enumeration has a higher capacity")
        ids, mask = feasible_lattice(s)
        points, costs = s.lattice.points, s.lattice.costs
        labels, payments = s.lattice.contracts
        n_c, n_p = len(labels), len(ids)
        if n_c * n_p > budget:
            raise BudgetExceededError(
                f"enumeration needs {n_c * n_p} evaluations, budget is {budget}",
                required=n_c * n_p,
                budget=budget,
            )

        self.scenario = s
        self.budget = budget
        self.nominal_evaluations = n_c * n_p
        self.labels = labels
        self.payments = payments
        self.points = points

        # row_max: each contract's best value over the feasible points;
        # evaluations: the values computed to find the ties
        if below is not None:
            self._scan_above(below, ids)
        elif concavity := ball_route(s, n_c, n_p):
            (self.contract_id, self.point_id, self.agent_u,
             self.row_max, self.evaluations) = scan_balls(s, s.lattice.util, ids, mask, concavity)
        else:
            self.row_max = np.full(n_c, -np.inf)
            self.contract_id, pi, self.agent_u = scan_grid(
                s.lattice.util, points[ids], costs[ids], s.tol_u, self.row_max
            )
            self.point_id = ids[pi]
            self.evaluations = n_c * n_p
        self.cost = costs[self.point_id]
        self.binding = capacity_binding(s, self.point_id)
        self.exp_output = points[self.point_id] @ s.y.as_array()
        self.exp_payment = np.einsum(
            "ij,ij->i", payments[self.contract_id], points[self.point_id]
        )

    def _scan_above(self, below: Enumeration, ids: np.ndarray) -> None:
        """Ties at this capacity from ``below``'s and a scan of the feasible
        ``ids`` that ``below`` lacks, ordered by contract, then point."""
        costs = self.scenario.lattice.costs
        new = ids[~feasible_mask(costs[ids], below.scenario.capacity)]
        cid, pid, val = below.contract_id, below.point_id, below.agent_u
        self.evaluations = len(self.labels) * new.size
        if not new.size:
            self.row_max = below.row_max
            self.contract_id, self.point_id, self.agent_u = cid, pid, val
            return
        self.row_max = below.row_max.copy()
        c_new, p_new, v_new = scan_grid(
            self.scenario.lattice.util, self.points[new], costs[new],
            self.scenario.tol_u, self.row_max,
        )
        keep = val >= tie_floor(self.row_max, self.scenario.tol_u)[cid]
        cid = np.concatenate((cid[keep], c_new))
        pid = np.concatenate((pid[keep], new[p_new]))
        order = np.argsort(cid * len(self.points) + pid, kind="stable")
        self.contract_id, self.point_id = cid[order], pid[order]
        self.agent_u = np.concatenate((val[keep], v_new))[order]

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
        """The agent-utility order every alpha query reuses: one row."""
        return _AgentOrder.sort(self)

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


# ---------------------------------------------------------------------------
# Operation-level API


def select(ps: ParetoSet, r: float) -> Selection:
    """The selection at the lowest utility level >= r - tol_u: the first
    of the frontier's ``agent_utility_levels`` there, and the frontier rows
    within tol_u of it, in frontier order.

    Raises EmptySelectionError when no level qualifies; the underlying theory
    leaves that case undefined, so it is signalled rather than guessed.
    """
    floor = r - ps.tol_u
    level = next((v for v in ps.agent_utility_levels if v >= floor), None)
    if level is None:
        raise empty_selection(r)
    at = np.abs(ps.enumeration.agent_u[ps.rows] - level) <= ps.tol_u
    return Selection(
        parent=ps, r=float(r), chosen_level=level, rows=ps.rows[at], principal=ps.principal[at]
    )
