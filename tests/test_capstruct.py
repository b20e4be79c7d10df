"""Debt and live-or-die decompositions of scaled output, and capacity sweeps."""

import dataclasses
import math

import numpy as np
import pytest

from agentcap import agent, capstruct
from agentcap.capstruct import (
    debt_equity_decompose,
    live_or_die_decompose,
    scaled_debt_contract,
    sweep_alpha_star,
)
from agentcap.errors import (
    BudgetExceededError,
    ConfigurationError,
    DegenerateScalingError,
    ValidationError,
)
from agentcap.model import OutputFunction
from agentcap.pareto import Enumeration
from agentcap.scaling import DEFAULT_EPS_ALPHA, alpha_star

from conftest import smooth_scenario, tangent_scenario

Y3 = OutputFunction((0.0, 1.0, 2.0))


# -- debt -------------------------------------------------------------------


def test_scaled_debt_contract_hand_values():
    assert scaled_debt_contract(Y3, 0.5, 1.0).payments == (0.0, 0.5, 1.5)
    assert scaled_debt_contract(Y3, 0.5, 0.5).payments == (0.0, 0.0, 0.5)
    assert scaled_debt_contract(Y3, 0.0, 0.0).payments == (0.0, 0.0, 0.0)


def test_scaled_debt_contract_guards():
    with pytest.raises(DegenerateScalingError):
        scaled_debt_contract(Y3, 0.5, 0.0)
    with pytest.raises(ValidationError):
        scaled_debt_contract(Y3, -0.5, 1.0)
    with pytest.raises(ValidationError, match="face value must be nonnegative"):
        scaled_debt_contract(Y3, math.nan, 1.0)
    with pytest.raises(ConfigurationError):
        scaled_debt_contract(Y3, 0.5, 1.5)


def test_debt_equity_decompose_hand_values():
    dec = debt_equity_decompose(Y3, 0.5, 0.5)
    assert dec.face_scaled == 1.0
    assert dec.agent_leg == (0.0, 0.0, 0.5)
    assert dec.debt_leg == (0.0, 1.0, 1.0)
    assert dec.equity_leg == (0.0, 0.0, 0.5)


def test_debt_equity_decompose_edge_cases():
    full = debt_equity_decompose(Y3, 0.5, 1.0)
    assert full.equity_leg == (0.0, 0.0, 0.0)
    assert full.agent_leg == (0.0, 0.5, 1.5)
    underwater = debt_equity_decompose(Y3, 5.0, 1.0)
    assert underwater.agent_leg == (0.0, 0.0, 0.0)
    assert underwater.equity_leg == (0.0, 0.0, 0.0)
    assert underwater.debt_leg == (0.0, 1.0, 2.0)
    with pytest.raises(DegenerateScalingError):
        debt_equity_decompose(Y3, 0.5, 0.0)
    with pytest.raises(ValidationError, match="face value must be nonnegative"):
        debt_equity_decompose(Y3, math.nan, 0.5)


def test_debt_legs_add_up_and_forms_agree():
    rng = np.random.default_rng(11)
    for _ in range(200):
        n = int(rng.integers(2, 5))
        y = OutputFunction(tuple(np.sort(rng.uniform(0.0, 3.0, n))))
        F = float(rng.uniform(0.0, 3.0))
        a = float(rng.uniform(0.05, 1.0))
        dec = debt_equity_decompose(y, F, a)
        total = np.array(dec.agent_leg) + np.array(dec.debt_leg) + np.array(dec.equity_leg)
        assert np.abs(total - y.as_array()).max() <= 1e-12
        direct = np.array(scaled_debt_contract(y, F, a).payments)
        assert np.abs(direct - np.array(dec.agent_leg)).max() <= 1e-12


# -- live or die ------------------------------------------------------------


def test_live_or_die_hand_values():
    y = OutputFunction((0.5, 1.5))
    full = live_or_die_decompose(y, 1.0, 1.0)
    assert full.agent_leg == (0.0, 1.5)
    assert full.principal_leg == (0.5, 0.0)
    part = live_or_die_decompose(y, 1.0, 0.6)
    assert part.agent_leg == (0.0, pytest.approx(0.9))
    assert part.principal_leg == (0.5, pytest.approx(0.6))
    with pytest.raises(ConfigurationError):
        live_or_die_decompose(y, 1.0, 1.5)
    with pytest.raises(ValidationError, match="threshold must be a number"):
        live_or_die_decompose(y, math.nan, 0.5)


def test_live_or_die_adds_up():
    rng = np.random.default_rng(12)
    for _ in range(200):
        n = int(rng.integers(2, 5))
        y = OutputFunction(tuple(np.sort(rng.uniform(0.0, 3.0, n))))
        dec = live_or_die_decompose(y, float(rng.uniform(0.0, 3.0)), float(rng.uniform(0.0, 1.0)))
        total = np.array(dec.agent_leg) + np.array(dec.principal_leg)
        assert np.abs(total - y.as_array()).max() <= 1e-12


# -- capacity sweep ---------------------------------------------------------


def test_sweep_matches_single_solves_and_sorts():
    s = tangent_scenario(0.04, m=400)
    got = sweep_alpha_star(s, [0.09, 0.01, 0.04])
    assert [k for k, _ in got] == [0.01, 0.04, 0.09]
    for k, a in got:
        solo = alpha_star(dataclasses.replace(s, capacity=k))
        assert a == solo.alpha_star
    vals = [a for _, a in got]
    assert vals == sorted(vals)


def test_sweep_validates_each_capacity():
    s = tangent_scenario(0.04, m=400)
    with pytest.raises(ValidationError, match="capacity -1"):
        sweep_alpha_star(s, [0.04, -1.0])
    with pytest.raises(ValidationError, match="^capacity inf: capacity must be finite$"):
        sweep_alpha_star(s, [0.04, math.inf])
    with pytest.raises(ValidationError, match="^capacity nan: capacity must be finite$"):
        sweep_alpha_star(s, [math.nan])


def test_sweep_off_lattice_capacities_match_single_solves():
    # tangency capacities (0.01, 0.04) mixed with generic ones, and a
    # scenario capacity that is not the largest k of the grid
    s = tangent_scenario(0.02, m=400)
    ks = [0.07, 0.0399, 0.01, 0.05, 0.04]
    got = sweep_alpha_star(s, ks)
    assert [k for k, _ in got] == sorted(ks)
    for k, a in got:
        assert a == alpha_star(dataclasses.replace(s, capacity=k)).alpha_star


def test_sweep_budget_applies_to_each_capacity():
    s = tangent_scenario(0.04, m=400)
    contracts = len(s.family.payment_matrix(s.y.as_array())[0])
    # c(p) = p_H^2 on the 1/400 lattice: 41 points at k = 0.01, 81 at 0.04
    assert sweep_alpha_star(s, [0.01], budget=contracts * 41) == sweep_alpha_star(s, [0.01])
    with pytest.raises(BudgetExceededError, match=str(contracts * 81)):
        sweep_alpha_star(s, [0.01, 0.04], budget=contracts * 41)


def _between_costs(s, q):
    """Two capacities strictly between the same two neighbouring lattice
    costs, near the q-quantile of the costs."""
    costs = np.unique(s.lattice.costs)
    j = int(q * (costs.size - 2))
    lo, gap = costs[j], costs[j + 1] - costs[j]
    return [float(lo + gap / 3), float(lo + 2 * gap / 3)]


def _sweep_cases():
    tangent = tangent_scenario(0.02, m=400)
    smooth, _ = smooth_scenario(0)  # three states, relative-entropy cost
    costs = np.unique(smooth.lattice.costs)
    quantiles = [float(k) for k in np.quantile(costs, [0.05, 0.3, 0.6, 0.9])]
    return {
        "tangent-generic": (tangent, [0.07, 0.0399, 0.05, 0.0401, 0.2], None),
        "smooth-entropy": (smooth, quantiles, None),
        "repeated-k": (tangent, [0.05, 0.01, 0.05, 0.05], None),
        "between-same-costs": (smooth, [*_between_costs(smooth, 0.5), quantiles[0]], None),
        "small-blocks": (smooth, [*quantiles, *_between_costs(smooth, 0.7)], 64),
    }


@pytest.mark.parametrize("case", list(_sweep_cases()))
def test_sweep_enumerations_match_fresh_ones(case, monkeypatch):
    s, ks, chunk = _sweep_cases()[case]
    if chunk is not None:
        monkeypatch.setattr(agent, "_CHUNK", chunk)
    seen = []
    solve = capstruct.alpha_stars

    def spy(enums):
        seen.extend(enums)
        return solve(enums)

    monkeypatch.setattr(capstruct, "alpha_stars", spy)
    got = sweep_alpha_star(s, ks)
    assert [e.scenario.capacity for e in seen] == [k for k, _ in got] == sorted(ks)
    for chained in seen:
        fresh = Enumeration(chained.scenario)
        for name in ("contract_id", "point_id", "binding"):
            assert np.array_equal(getattr(chained, name), getattr(fresh, name)), name
        assert np.abs(chained.agent_u - fresh.agent_u).max() <= 1e-12


def test_sweep_reads_each_capacity_with_alpha_star(monkeypatch):
    # one lockstep solve, then one alpha_star call per capacity, in ascending
    # k, on that capacity's enumeration, which finds its threshold solved
    s = tangent_scenario(0.02, m=400)
    ks = [0.07, 0.0399, 0.05, 0.05, 0.01]
    calls, solves = [], []
    read, solve = capstruct.alpha_star, capstruct.alpha_stars

    def spy_read(sk, enum):
        calls.append((sk.capacity, enum.scenario is sk, set(enum.thresholds)))
        return read(sk, enum=enum)

    def spy_solve(enums):
        solves.append(len(enums))
        return solve(enums)

    monkeypatch.setattr(capstruct, "alpha_star", spy_read)
    monkeypatch.setattr(capstruct, "alpha_stars", spy_solve)
    got = sweep_alpha_star(s, ks)
    assert solves == [len(ks)]
    solved = {DEFAULT_EPS_ALPHA}
    assert calls == [(k, True, solved) for k in sorted(ks)]
    assert got == [(k, alpha_star(s.at_capacity(k)).alpha_star) for k in sorted(ks)]
