"""Debt and live-or-die decompositions of scaled output, and capacity sweeps."""

import contextlib
import dataclasses
import gc
import io
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from agentcap import agent, capstruct
from agentcap.capstruct import (
    debt_equity_decompose,
    live_or_die_decompose,
    scaled_debt_contract,
    sweep_alpha_star,
)
from agentcap.cli import main, save_scenario
from agentcap.errors import (
    BudgetExceededError,
    ConfigurationError,
    DegenerateScalingError,
    EmptySelectionError,
    ValidationError,
)
from agentcap.model import OutputFunction
from agentcap.model import validate_scenario
from agentcap.pareto import Enumeration, capacity_chain
from agentcap.scaling import DEFAULT_EPS_ALPHA, alpha_star

from conftest import (
    assert_agent_order_matches_oracle,
    collect_random_scenarios,
    dyadic_scenario,
    replayed_chain,
    set_scan_block,
    share_scenario,
    smooth_scenario,
    tangent_scenario,
)

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


def test_sweep_failure_does_not_depend_on_the_grid_order(tmp_path):
    # NaN sorts last, so the lowest capacity's empty selection wins in every
    # order of the grid, through the library and the CLI
    s = dataclasses.replace(tangent_scenario(0.04, m=200), reservation=0.001)
    path = tmp_path / "scenario.json"
    save_scenario(s, path)
    for ks in itertools.permutations([0.0, 0.04, math.nan]):
        with pytest.raises(EmptySelectionError, match="^no Pareto profile meets reservation 0.001$"):
            sweep_alpha_star(s, ks)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(["sweep", "--scenario", str(path), "--k-grid", ",".join(map(str, ks)),
                         "--out", str(tmp_path / "out")])
        assert (code, err.getvalue()) == (5, "agentcap: no Pareto profile meets reservation 0.001\n")


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
    many = [*quantiles, *_between_costs(smooth, 0.7)]
    return {
        "tangent-generic": (tangent, [0.07, 0.0399, 0.05, 0.0401, 0.2], None),
        "smooth-entropy": (smooth, quantiles, None),
        "repeated-k": (tangent, [0.05, 0.01, 0.05, 0.05], None),
        "between-same-costs": (smooth, [*_between_costs(smooth, 0.5), quantiles[0]], None),
        "small-blocks": (smooth, many, lambda mp: set_scan_block(mp, 64)),
        # a small _CHUNK sends every fresh enumeration of a strictly convex
        # cost down the ball route, the sweep's first link included
        "ball-route": (smooth, many, lambda mp: mp.setattr(agent, "_CHUNK", 64)),
    }


@pytest.mark.parametrize("case", list(_sweep_cases()))
def test_sweep_enumerations_match_fresh_ones(case, monkeypatch):
    s, ks, patch = _sweep_cases()[case]
    if patch is not None:
        patch(monkeypatch)
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


# -- the one-pass sweep against fresh and replayed enumerations -------------


def _quantiles(s, qs):
    return [float(k) for k in np.quantile(np.unique(s.lattice.costs), qs)]


def _referee_cases():
    tangent = tangent_scenario(0.02, m=400)
    share = share_scenario(0.2, m=200)
    cases = {
        "tangent-generic": (tangent, [0.07, 0.0399, 0.01, 0.05, 0.04, 0.0401, 0.2], None),
        "tangent-repeated-k": (tangent, [0.05, 0.01, 0.05, 0.05, 0.01], None),
        "share": (share, _quantiles(share, [0.1, 0.35, 0.6, 0.9]), None),
        # a small _CHUNK sends the first link of a strictly convex cost down
        # the ball route; the bands stay full scans
        "ball-route-first-link": (tangent_scenario(0.04, m=400), [0.04, 0.0401, 0.09, 0.2],
                                  lambda mp: mp.setattr(agent, "_CHUNK", 64)),
    }
    # every lattice breakpoint near a tangency: 40 consecutive distinct costs
    near = tangent_scenario(0.04, m=400)
    costs = np.unique(near.lattice.costs)
    j = int(costs.searchsorted(0.04))
    cases["tangent-breakpoints"] = (near, costs[j - 20:j + 20].tolist(), None)
    # every value exact, with ties exactly at their floor: a lower tie is
    # kept when it equals a higher capacity's best value less tol_u
    dyadic = dyadic_scenario()
    cases["dyadic-ties-at-the-cut"] = (dyadic, [float(k) for k in np.unique(dyadic.lattice.costs)[::4]], None)
    for seed, s in collect_random_scenarios(count=4):
        cases[f"random-{seed}"] = (s, _quantiles(s, [0.15, 0.4, 0.7, 0.95]), None)
    return cases


REFEREE_CASES = _referee_cases()


@pytest.mark.parametrize("case", list(REFEREE_CASES))
def test_one_pass_sweep_matches_fresh_and_replayed_enumerations(case, monkeypatch):
    # every capacity's enumeration, cut from one table of ties, has a fresh
    # enumeration's ids and binding flags, and the per-band replay's values
    # bit for bit, row maxima and evaluation counts; its agent order is the
    # one a full sort and search of it gives
    s, ks, patch = REFEREE_CASES[case]
    if patch is not None:
        patch(monkeypatch)
    enums, failure = capacity_chain(s, sorted(ks))
    assert failure is None
    assert [e.scenario.capacity for e in enums] == sorted(ks)
    replay = replayed_chain(s, ks)
    if patch is not None:
        assert enums[0].evaluations < enums[0].nominal_evaluations
    for enum, (cid, pid, vals, row_max, evaluations) in zip(enums, replay, strict=True):
        fresh = Enumeration(enum.scenario)
        for name in ("contract_id", "point_id", "binding", "cost"):
            assert np.array_equal(getattr(enum, name), getattr(fresh, name)), name
        assert np.array_equal(enum.contract_id, cid) and np.array_equal(enum.point_id, pid)
        assert enum.agent_u.tobytes() == vals.tobytes()
        assert enum.row_max.tobytes() == row_max.tobytes()
        assert enum.evaluations == evaluations
        assert enum.nominal_evaluations == fresh.nominal_evaluations
        assert enum.exp_output.tobytes() == fresh.exp_output.tobytes()
        assert enum.exp_payment.tobytes() == fresh.exp_payment.tobytes()
        assert_agent_order_matches_oracle(enum)


def test_one_pass_sweep_memory_does_not_grow_with_capacities_times_ties():
    # a sweep's whole build: the chain, then every capacity's agent order,
    # as the threshold solve asks for them. Each capacity is cut on its own
    # and each order built on its own, so the transient memory stays a
    # small fraction of what the enumerations keep; a capacities x ties
    # mask (200 x the tie table here) would be most of it again
    s = tangent_scenario(0.04, m=1000)
    ks = np.linspace(0.005, 0.1, 200).tolist()
    capacity_chain(s, ks[:1])  # prices the lattice outside the measurement
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        enums, failure = capacity_chain(s, ks)
        for enum in enums:
            enum.agent_order
        retained, peak = (m - base for m in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    assert failure is None and len(enums) == len(ks)
    assert peak <= 1.2 * retained, (peak, retained)


def test_one_pass_sweep_stops_at_the_first_failing_capacity():
    # the error-order cases of a sweep: the enumerations below the first
    # capacity that fails, then the error that capacity's own validation or
    # enumeration raises
    s = dataclasses.replace(tangent_scenario(0.04, m=200), reservation=0.001)
    contracts = len(s.family.payment_matrix(s.y.as_array())[0])
    enums, failure = capacity_chain(s, [0.0, 0.04, math.inf])
    assert [e.scenario.capacity for e in enums] == [0.0, 0.04]
    with pytest.raises(ValidationError) as own:
        validate_scenario(s.at_capacity(math.inf))
    assert isinstance(failure, ValidationError) and str(failure) == str(own.value)
    enums, failure = capacity_chain(s, [0.0, 0.04], budget=contracts)
    assert [e.scenario.capacity for e in enums] == [0.0]
    with pytest.raises(BudgetExceededError) as own:
        Enumeration(s.at_capacity(0.04), budget=contracts)
    assert isinstance(failure, BudgetExceededError) and str(failure) == str(own.value)
    assert (failure.required, failure.budget) == (own.value.required, own.value.budget)
    with pytest.raises(BudgetExceededError):
        capacity_chain(s, [0.04, 0.09], budget=contracts * 10)
    # c(p) = p_H^2 on the 1/200 lattice: 21 points at k = 0.01
    enums, failure = capacity_chain(s, [0.0, 0.01, 0.04, 0.09], budget=contracts * 21)
    assert [e.scenario.capacity for e in enums] == [0.0, 0.01]
    assert isinstance(failure, BudgetExceededError) and failure.required == contracts * 41
    for enum, (cid, pid, vals, row_max, evaluations) in zip(enums, replayed_chain(s, [0.0])):
        assert enum.agent_u.tobytes() == vals.tobytes() and enum.evaluations == evaluations
        assert_agent_order_matches_oracle(enum)
