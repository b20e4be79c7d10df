"""Relations that follow from the model's symmetries, checked without an
oracle, on every route of ``agent.best_responses``.

Relabelling the states permutes y, the cost's q0 and, for a quadratic, Q's
rows and columns; the lattice points are permuted with them. A linear-share
contract's payments follow y, so contract ids do not move. The set of
(contract, point) ties, alpha* and its bracket are then the same up to the
relabelling. Point ids are mapped through the points' counts, not through
the rank arithmetic the ball route uses.

Three more relations hold on every route. Reordering a family's contracts,
or listing one of them twice, leaves the set of frontier (payments,
probabilities) rows, alpha* and its bracket unchanged. Scaling the output y
by c scales alpha* by 1/c, up to the bisection's eps, where payments do not
depend on y (a grid family). Shifting every payment and the reservation by a
constant, for a risk-neutral agent, leaves the ties, the frontier rows, the
selection, alpha* and its bracket unchanged; a case with a value within
CUT_GAP of a tol_u cut, where rounding may move it across, is skipped, with
the number of such values in the reason.
"""

import dataclasses

import numpy as np
import pytest

from agentcap import agent
from agentcap.model import GridFamily, OutputFunction, StateSpace
from agentcap.pareto import Enumeration, select
from agentcap.scaling import DEFAULT_EPS_ALPHA, alpha_stars

from conftest import chain, smooth_scenario, tangent_scenario

SCENARIOS = [("panel", i) for i in range(20)] + [("smooth", i) for i in range(10)]
TANGENT_K = (0.01, 0.04, 0.09, 0.05, 0.2)
CONTRACT_CASES = [("tangent", k) for k in TANGENT_K] + SCENARIOS
ROUTES = ["full", "ball", "chain"]
# a payment shift by SHIFT moves values by a few ulps, which can cross a
# tol_u cut only from within CUT_GAP of it
SHIFT = 0.3
CUT_GAP = 1e-12


def case_scenario(which, panel):
    """The scenario a case names: the tangent fixture (m = 400) at a
    capacity, a random-panel member or a ``smooth_scenario``."""
    kind, i = which
    if kind == "tangent":
        return tangent_scenario(i, m=400)
    return panel[i][1] if kind == "panel" else smooth_scenario(i)[0]


def relabelled(s, perm):
    """``s`` with its state i taken from state ``perm[i]``."""
    fields = {"q0": tuple(np.array(s.cost.q0)[perm])}
    if s.cost.kind == "quadratic":
        fields["Q"] = tuple(map(tuple, np.array(s.cost.Q)[np.ix_(perm, perm)]))
    return dataclasses.replace(
        s,
        states=StateSpace(tuple(np.array(s.states.labels)[perm])),
        y=OutputFunction(tuple(np.array(s.y.values)[perm])),
        cost=dataclasses.replace(s.cost, **fields),
    )


def point_map(s, perm):
    """The relabelled lattice's id of each point of ``s``'s lattice."""
    counts = np.rint(s.lattice.points * s.m).astype(np.int64)
    index = {c: i for i, c in enumerate(map(tuple, counts.tolist()))}
    return np.array([index[c] for c in map(tuple, counts[:, perm].tolist())])


def tie_keys(enum, ids=None):
    """The enumeration's (contract, point) ties as sorted keys, its point
    ids mapped through ``ids`` when given."""
    pid = enum.point_id if ids is None else ids[enum.point_id]
    return np.sort(enum.contract_id * len(enum.points) + pid)


def enumerations(s, route):
    """The enumerations of ``s`` a route builds, lowest capacity first: one
    for the full scan and the ball route, and for the chain one at the
    lower and one, built on it, at the higher of the 30% lattice-cost
    quantile and ``s``'s capacity. Where the two are equal, the largest
    lattice cost below them takes the quantile's place."""
    if route != "chain":
        return [Enumeration(s)]
    costs = s.lattice.costs
    low = float(np.quantile(costs, 0.3, method="lower"))
    if low == s.capacity:
        low = float(costs[costs < low].max())
    return chain(s, [low, s.capacity])


def thresholds(enums):
    """(alpha*, bracket) of each enumeration."""
    return [(r.alpha_star, r.bracket) for r in alpha_stars(enums)]


def routed(s, route, monkeypatch):
    """``enumerations(s, route)``, the route checked to be the one taken:
    the ball route forced by a one-value ``agent._CHUNK``, which stays set
    for the rest of the test, the full scan taken by default, and the chain
    built of two enumerations."""
    if route == "ball":
        monkeypatch.setattr(agent, "_CHUNK", 1)
        assert agent.ball_route(s, len(s.lattice.util), len(agent.feasible_lattice(s)[0]))
    enums = enumerations(s, route)
    if route == "full":
        assert enums[0].evaluations == enums[0].nominal_evaluations <= agent._CHUNK
    if route == "chain":
        assert len(enums) == 2 and enums[0].scenario.capacity < enums[1].scenario.capacity
    return enums


def on_routes(cases, ids):
    """pytest params of each case on each route: a case keeps its id on the
    full scan, the default route of every case here, and gains the route's
    name on the others."""
    return [pytest.param(*case, route, id=i if route == "full" else f"{i}-{route}")
            for route in ROUTES for case, i in zip(cases, ids)]


@pytest.mark.parametrize("route", ROUTES)
@pytest.mark.parametrize("which", SCENARIOS, ids=[f"{k}-{i}" for k, i in SCENARIOS])
def test_relabelling_the_states(which, route, random_scenario_panel, monkeypatch):
    s = case_scenario(which, random_scenario_panel)
    enums = routed(s, route, monkeypatch)
    for perm in (np.arange(s.n)[::-1], np.roll(np.arange(s.n), 1)):
        rs = relabelled(s, perm)
        ids = point_map(s, perm)
        renums = enumerations(rs, route)
        assert len(renums) == len(enums)
        for e, r in zip(enums, renums):
            assert np.array_equal(tie_keys(e, ids), tie_keys(r))
        assert thresholds(renums) == thresholds(enums)


def on_axes(s, edit):
    """``s`` with ``edit`` applied to every axis of its contract family."""
    f = s.family
    if isinstance(f, GridFamily):
        return dataclasses.replace(s, family=GridFamily(tuple(map(edit, f.grids))))
    return dataclasses.replace(s, family=dataclasses.replace(f, betas=edit(f.betas), ws=edit(f.ws)))


def frontier_rows(enum):
    """The set of (payments, probabilities) rows of ``enum``'s frontier at 1."""
    ps = enum.pareto_at(1.0)
    c = enum.columns(ps.rows, ps.principal)
    return set(zip(map(tuple, c.payments.tolist()), map(tuple, c.probs.tolist())))


EDITS = {"reversed": lambda axis: axis[::-1], "duplicated": lambda axis: (*axis, axis[0])}
EDIT_CASES = [(which, edit) for which in CONTRACT_CASES for edit in EDITS]


@pytest.mark.parametrize("which,edit,route", on_routes(
    EDIT_CASES, [f"{k}-{i}-{edit}" for (k, i), edit in EDIT_CASES]))
def test_reordering_and_duplicating_contracts(which, edit, route, random_scenario_panel, monkeypatch):
    s = case_scenario(which, random_scenario_panel)
    enums = routed(s, route, monkeypatch)
    edited = enumerations(on_axes(s, EDITS[edit]), route)
    assert [frontier_rows(e) for e in edited] == [frontier_rows(e) for e in enums]
    assert thresholds(edited) == thresholds(enums)


SCALE_CASES = [(k, c) for k in TANGENT_K for c in (2, 4)]


@pytest.mark.parametrize("k,c,route", on_routes(SCALE_CASES, [f"{k}-{c}" for k, c in SCALE_CASES]))
def test_scaling_the_output(k, c, route, monkeypatch):
    """alpha*(c y) = alpha*(y) / c, under its premise.

    The tangent family's payments do not depend on y, so the principal's
    payoff at alpha on c y is its payoff at c alpha on y, and the agent
    side, every selection's level and binding flags, is the same on both.
    The bisection runs at the risk-neutral level u_bar of the base pick at
    alpha = 1, and that pick is made on each output's own payoffs. So the
    relation holds when u_bar is the same on y and on c y, as when the base
    pick is the same member; where u_bar moves with y the relation need not
    hold. A threshold off the relation must be one whose u_bar moved, and
    such cases are skipped with their count in the reason."""
    s = tangent_scenario(k, m=400)
    scaled = dataclasses.replace(s, y=OutputFunction(tuple(c * v for v in s.y.values)))
    wants = alpha_stars(routed(s, route, monkeypatch))
    gots = alpha_stars(enumerations(scaled, route))
    eps = DEFAULT_EPS_ALPHA
    off = 0
    for want, got in zip(wants, gots, strict=True):
        if want.bracket == (1.0, 1.0):
            # slack up to 1 on y is slack up to 1/c on c y
            holds = got.alpha_star >= 1 / c - eps
        else:
            holds = abs(c * got.alpha_star - want.alpha_star) <= c * eps
        if not holds:
            assert got.u_bar != want.u_bar, (want, got)
            off += 1
    if off:
        pytest.skip(f"{off} of {len(wants)} thresholds off the relation where u_bar moved with y")


def shifted(s, w):
    """``s`` with every payment and the reservation raised by w."""
    f = s.family
    if isinstance(f, GridFamily):
        family = GridFamily(tuple(tuple(v + w for v in g) for g in f.grids))
    else:
        family = dataclasses.replace(f, ws=tuple(v + w for v in f.ws))
    return dataclasses.replace(s, family=family, reservation=s.reservation + w)


def near(values, cuts):
    """Mask of the ``values`` within CUT_GAP of any of ``cuts``."""
    cuts = np.sort(cuts)
    return cuts.searchsorted(values - CUT_GAP, "left") < cuts.searchsorted(values + CUT_GAP, "right")


def values_near_cuts(enum):
    """How many of ``enum``'s values lie within CUT_GAP of a tol_u cut: a
    (contract, feasible point) value near its contract's tie cut, and a tie
    whose agent utility lies near r - tol_u, or whose agent utility or
    principal payoff at 1 lies near another tie's, plus or minus tol_u."""
    s, tol = enum.scenario, enum.scenario.tol_u
    ids, _ = agent.feasible_lattice(s)
    values = s.lattice.util @ s.lattice.points[ids].T - s.lattice.costs[ids]
    ties = near(values - values.max(axis=1, keepdims=True), [-tol]).sum()
    a, v = enum.agent_u, enum._principal(1.0, slice(None))
    return int(ties + (near(a, [*(a - tol), *(a + tol), s.reservation - tol])
                       | near(v, [*(v - tol), *(v + tol)])).sum())


@pytest.mark.parametrize("route", ROUTES)
@pytest.mark.parametrize("which", CONTRACT_CASES, ids=[f"{k}-{i}" for k, i in CONTRACT_CASES])
def test_shifting_the_payments(which, route, random_scenario_panel, monkeypatch):
    # a risk-neutral agent's utility and the principal's payoff move by w and
    # -w on every row, which no tol_u comparison sees, away from the cuts
    s = case_scenario(which, random_scenario_panel)
    enums = routed(s, route, monkeypatch)
    count = sum(map(values_near_cuts, enums))
    if count:
        pytest.skip(f"{count} values within {CUT_GAP} of a tol_u cut")
    shifts = enumerations(shifted(s, SHIFT), route)
    for e, f in zip(enums, shifts, strict=True):
        assert np.array_equal(tie_keys(f), tie_keys(e))
        ps, qs = e.pareto_at(1.0), f.pareto_at(1.0)
        assert np.array_equal(np.sort(qs.rows), np.sort(ps.rows))
        want = select(ps, e.scenario.reservation)
        assert np.array_equal(np.sort(select(qs, f.scenario.reservation).rows), np.sort(want.rows))
    assert thresholds(shifts) == thresholds(enums)
