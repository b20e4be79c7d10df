"""Relations that follow from the model's symmetries, checked without an
oracle, on every route of ``agent.best_responses``.

Relabelling the states permutes y, the cost's q0 and, for a quadratic, Q's
rows and columns; the lattice points are permuted with them. A linear-share
contract's payments follow y, so contract ids do not move. The set of
(contract, point) ties, alpha* and its bracket are then the same up to the
relabelling. Point ids are mapped through the points' counts, not through
the rank arithmetic the ball route uses.

On the default route two more relations hold. Reordering a family's
contracts, or listing one of them twice, leaves the set of frontier
(payments, probabilities) rows, alpha* and its bracket unchanged. Scaling
the output y by c scales alpha* by 1/c, up to the bisection's eps, where
payments do not depend on y (a grid family).
"""

import dataclasses

import numpy as np
import pytest

from agentcap import agent
from agentcap.model import GridFamily, OutputFunction, StateSpace
from agentcap.pareto import Enumeration
from agentcap.scaling import DEFAULT_EPS_ALPHA, alpha_star, alpha_stars

from conftest import smooth_scenario, tangent_scenario

SCENARIOS = [("panel", i) for i in range(20)] + [("smooth", i) for i in range(10)]
TANGENT_K = (0.01, 0.04, 0.09, 0.05, 0.2)
CONTRACT_CASES = [("tangent", k) for k in TANGENT_K] + SCENARIOS


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
    for the full scan and the ball route, and for the chain one at the 30%
    lattice-cost quantile and one, built on it, at ``s``'s capacity."""
    if route != "chain":
        return [Enumeration(s)]
    low = float(np.quantile(s.lattice.costs, 0.3, method="lower"))
    chain = []
    for k in sorted({low, s.capacity}):
        chain.append(Enumeration(s.at_capacity(k), below=chain[-1] if chain else None))
    return chain


def thresholds(enums):
    """(alpha*, bracket) of each enumeration."""
    return [(r.alpha_star, r.bracket) for r in alpha_stars(enums)]


@pytest.mark.parametrize("route", ["full", "ball", "chain"])
@pytest.mark.parametrize("which", SCENARIOS, ids=[f"{k}-{i}" for k, i in SCENARIOS])
def test_relabelling_the_states(which, route, random_scenario_panel, monkeypatch):
    s = case_scenario(which, random_scenario_panel)
    if route == "ball":
        monkeypatch.setattr(agent, "_CHUNK", 1)
        assert agent.ball_route(s, len(s.lattice.util), len(agent.feasible_lattice(s)[0]))
    enums = enumerations(s, route)
    if route == "full":
        assert enums[0].evaluations == enums[0].nominal_evaluations <= agent._CHUNK
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


def frontier_rows(s):
    """The set of (payments, probabilities) rows of ``s``'s frontier at 1."""
    enum = Enumeration(s)
    ps = enum.pareto_at(1.0)
    c = enum.columns(ps.rows, ps.principal)
    return set(zip(map(tuple, c.payments.tolist()), map(tuple, c.probs.tolist())))


@pytest.mark.parametrize("edit", [lambda axis: axis[::-1], lambda axis: (*axis, axis[0])],
                         ids=["reversed", "duplicated"])
@pytest.mark.parametrize("which", CONTRACT_CASES, ids=[f"{k}-{i}" for k, i in CONTRACT_CASES])
def test_reordering_and_duplicating_contracts(which, edit, random_scenario_panel):
    s = case_scenario(which, random_scenario_panel)
    t = on_axes(s, edit)
    assert frontier_rows(t) == frontier_rows(s)
    want, got = alpha_star(s), alpha_star(t)
    assert (got.alpha_star, got.bracket) == (want.alpha_star, want.bracket)


@pytest.mark.parametrize("c", [2, 4])
@pytest.mark.parametrize("k", TANGENT_K)
def test_scaling_the_output(k, c):
    # the tangent family's payments do not depend on y, so the principal's
    # payoff at alpha on c y is its payoff at c alpha on y
    s = tangent_scenario(k, m=400)
    scaled = dataclasses.replace(s, y=OutputFunction(tuple(c * v for v in s.y.values)))
    want, got = alpha_star(s), alpha_star(scaled)
    eps = DEFAULT_EPS_ALPHA
    if want.bracket == (1.0, 1.0):
        # slack up to 1 on y is slack up to 1/c on c y
        assert got.alpha_star >= 1 / c - eps
    else:
        assert abs(c * got.alpha_star - want.alpha_star) <= c * eps
