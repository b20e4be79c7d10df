"""Feasible-profile enumeration, Pareto filtering, and level selection.

The enumeration pairs every family contract with every agent best response;
best responses do not depend on the output scale alpha, so one enumeration
serves all alpha. Per-alpha principal payoffs are then linear updates. The
agent utilities do not move with alpha either, so the enumeration sorts its
rows by agent utility once (``_AgentOrder``), with the two tolerance cut
positions of every profile, and every alpha query (frontier, mask and
selection) runs one pass in that order (``Enumeration._kept``): the Pareto
filter is linear in the principal payoffs, and a selection finds only its
own level among the undominated agent utilities, which already ascend
(``_selection_level``, the one selection rule). That keeps repeated queries
(bisection on alpha) cheap.

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

import numbers
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
    """The alpha-invariant half of every alpha query.

    ``order`` sorts the agent utilities ascending (stable) and ``agent``
    holds them in that order. At sorted position i, the weak set
    {q: q.a >= agent[i] - tol} is the suffix from ``weak[i]`` and the strict
    set {q: q.a > agent[i] + tol} the suffix from ``strict[i]``. ``keep``
    decides dominance in this order; a selection stays in it, since the kept
    agent utilities are already ascending, and only the rows chosen are
    mapped back to row indices.
    """

    __slots__ = ("order", "agent", "tol", "weak", "strict")

    def __init__(self, agent: np.ndarray, tol: float):
        self.order = np.argsort(agent, kind="stable")
        self.agent = a_s = agent[self.order]
        self.tol = tol
        self.weak = np.searchsorted(a_s, a_s - tol, side="left")
        self.strict = np.searchsorted(a_s, a_s + tol, side="right")

    def keep(self, principal: np.ndarray) -> np.ndarray:
        """Mask, by sorted position, of the profiles not dominated under the
        tolerance rule, for principal payoffs in this order: q dominates x
        when q is weakly better in both coordinates (within tol) and strictly
        better than tol in at least one. With ``best`` the largest principal
        payoff over a suffix, x is dominated when best over its strict set
        is >= x.p - tol, or best over its weak set is > x.p + tol."""
        n = principal.size
        best = np.empty(n + 1)
        best[n] = -np.inf
        np.maximum.accumulate(principal[::-1], out=best[:n][::-1])
        dominated = best[self.strict] >= principal - self.tol
        dominated |= best[self.weak] > principal + self.tol
        return ~dominated


def _selection_level(agent: np.ndarray, r: float, tol: float) -> tuple[float, np.ndarray]:
    """The selection rule on ascending agent utilities: the lowest level
    (``_cluster_levels`` of ``agent``) >= r - tol, and the mask of the
    values within tol of it.

    Levels below the first value >= r - tol cannot qualify, and a gap wider
    than tol always opens a cluster, so the greedy walk starts at the narrow
    run holding that value and stops at the first cluster start from it on.

    Raises EmptySelectionError when no level qualifies; the underlying theory
    leaves that case undefined, so it is signalled rather than guessed.
    """
    n = agent.size
    c = j = int(np.searchsorted(agent, r - tol, side="left"))
    if j < n:
        wide = np.flatnonzero(np.diff(agent[: j + 1]) > tol)
        c = int(wide[-1]) + 1 if wide.size else 0
        while c < j:
            c += int(np.searchsorted(agent[c:] - agent[c], tol, side="right"))
    if c == n:
        raise EmptySelectionError(f"no Pareto profile meets reservation {r!r}")
    chosen = float(agent[c])
    return chosen, np.abs(agent - chosen) <= tol


class Enumeration:
    """Shared engine: contracts x best responses with cached payoff pieces.

    Built once per scenario, with one read side: ``pareto_at``,
    ``pareto_mask`` and ``selection_ids`` each make one dominance pass in
    the agent order (``_kept``) for any alpha, and ``columns`` gathers the
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
        ``alpha``, entry by entry those of ``principal_at``; raises
        ConfigurationError unless alpha lies in [0, 1]."""
        return check_alpha(alpha) * self.exp_output[rows] - self.exp_payment[rows]

    def principal_at(self, alpha: float) -> np.ndarray:
        """Principal payoffs of every row at output scale ``alpha``. The
        alpha queries compute the same values in the agent order
        (``_kept``)."""
        return self._principal(alpha, slice(None))

    @cached_property
    def agent_order(self) -> _AgentOrder:
        """The agent-utility order every alpha query reuses."""
        return _AgentOrder(self.agent_u, self.scenario.tol_u)

    @cached_property
    def _sorted_payoff_parts(self) -> tuple[np.ndarray, np.ndarray]:
        """``exp_output`` and ``exp_payment`` in the agent order."""
        order = self.agent_order.order
        return self.exp_output[order], self.exp_payment[order]

    def _kept(self, alpha: float) -> tuple[np.ndarray, np.ndarray]:
        """The one dominance pass of every alpha query: the ascending
        agent-order positions of the undominated rows, and every row's
        principal payoff at ``alpha`` in the agent order."""
        y, pay = self._sorted_payoff_parts
        principal = check_alpha(alpha) * y - pay
        return np.flatnonzero(self.agent_order.keep(principal)), principal

    def pareto_mask(self, alpha: float) -> np.ndarray:
        """The undominated rows at ``alpha``, as a mask by row."""
        keep = np.zeros(self.agent_u.size, dtype=bool)
        keep[self.agent_order.order[self._kept(alpha)[0]]] = True
        return keep

    def pareto_at(self, alpha: float) -> ParetoSet:
        """The frontier at ``alpha``. The kept agent utilities ascend and
        the agent order is stable, so a stable sort by agent utility, then
        principal payoff, both descending, leaves exact ties in row order."""
        ao = self.agent_order
        kept, principal = self._kept(alpha)
        agent, principal = ao.agent[kept], principal[kept]
        at = np.lexsort((-principal, -agent))
        return ParetoSet(
            enumeration=self,
            alpha=float(alpha),
            rows=ao.order[kept][at],
            principal=principal[at],
            agent_utility_levels=tuple(_cluster_levels(agent, ao.tol).tolist()),
            tol_u=ao.tol,
        )

    def selection_ids(self, alpha: float, r: float) -> tuple[float, np.ndarray, np.ndarray]:
        """(chosen_level, profile indices at that level, binding flags).

        The rows of select(pareto_at(alpha), r), ascending instead of in
        frontier order; the scaling predicate needs only ids and binding
        flags. The level is found among ``_kept``'s agent utilities, which
        already ascend."""
        ao = self.agent_order
        kept, _ = self._kept(alpha)
        chosen, at = _selection_level(ao.agent[kept], r, ao.tol)
        rows = np.sort(ao.order[kept[at]])
        return chosen, rows, self.binding[rows]

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
    """The selection at the lowest utility level >= r - tol_u.

    Raises EmptySelectionError when no level qualifies; the underlying theory
    leaves that case undefined, so it is signalled rather than guessed.
    """
    # frontier order runs by agent utility descending, so reversed it ascends
    chosen, at = _selection_level(ps.enumeration.agent_u[ps.rows[::-1]], r, ps.tol_u)
    at = at[::-1]
    return Selection(
        parent=ps, r=float(r), chosen_level=chosen, rows=ps.rows[at], principal=ps.principal[at]
    )
