"""Relations that follow from the model's symmetries, checked without an
oracle, on every route of ``agent.best_responses``.

Relabelling the states permutes y, the cost's q0 and, for a quadratic, Q's
rows and columns; the lattice points are permuted with them. A linear-share
contract's payments follow y, so contract ids do not move. The set of
(contract, point) ties, alpha* and its bracket are then the same up to the
relabelling. Point ids are mapped through the points' counts, not through
the rank arithmetic the ball route uses.
"""

import dataclasses

import numpy as np
import pytest

from agentcap import agent
from agentcap.model import OutputFunction, StateSpace
from agentcap.pareto import Enumeration
from agentcap.scaling import alpha_stars

from conftest import smooth_scenario

SCENARIOS = [("panel", i) for i in range(20)] + [("smooth", i) for i in range(10)]


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
    kind, i = which
    s = random_scenario_panel[i][1] if kind == "panel" else smooth_scenario(i)[0]
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
