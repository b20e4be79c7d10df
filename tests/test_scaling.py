"""The capacity-slack threshold alpha*, the slack chain, and its certificate."""

import dataclasses
import math

import numpy as np
import pytest

from agentcap import capstruct, pareto
from agentcap.cli import main, save_scenario
from agentcap.errors import ConfigurationError, EmptySelectionError
from agentcap.model import Contract, Distribution, Profile
from agentcap.pareto import Enumeration
from agentcap.scaling import InequalitySlacks, alpha_star, verify_theorem

from conftest import (
    all_slack,
    base_row_oracle,
    effort_scenario,
    ladder_scenario,
    row_keys,
    share_scenario,
    smooth_scenario,
    tangent_scenario,
    verify_inequalities,
)


def tangent_profile(s, slope, alpha):
    """The tangent-family member for one slope together with its clamped best
    response, evaluated from first principles."""
    m = s.m
    phat = round(slope / 2 * m) / m
    v = slope * phat - phat**2
    b = (-v, slope - v)
    q = min(phat, math.sqrt(s.capacity))
    dist = (1.0 - q, q)
    p, pay = np.array(dist), np.array(b)
    return Profile(
        contract=Contract(b),
        dist=Distribution(dist),
        agent_utility=float(p @ pay - s.cost.value(p)),
        principal_payoff=float(p @ (alpha * s.y.as_array() - pay)),
        capacity_binding=abs(q * q - s.capacity) <= s.tol_u,
        cost=q * q,
    )


# -- predicate and threshold ------------------------------------------------


def test_predicate_hand_values():
    enum = Enumeration(tangent_scenario(0.04))
    assert all_slack(enum, 0.2, 0.0)
    assert not all_slack(enum, 0.8, 0.0)


def test_alpha_queries_use_neither_the_row_mask_nor_every_level(tmp_path, monkeypatch):
    s = tangent_scenario(0.04)
    path = tmp_path / "tangent.json"
    save_scenario(s, path)

    def sweep(out):
        """sweep.csv's bytes and the alpha_star result of every capacity."""
        runs = []

        def recorded(*args, **kwargs):
            runs.append(alpha_star(*args, **kwargs))
            return runs[-1]

        monkeypatch.setattr(capstruct, "alpha_star", recorded)
        argv = ["sweep", "--scenario", str(path), "--out", str(out),
                "--k-grid", "0.09,0.01,0.04,0.0399,0.05"]
        assert main(argv) == 0
        return (out / "sweep.csv").read_bytes(), runs

    want = alpha_star(s)
    want_sweep = sweep(tmp_path / "want")

    def refuse(*args, **kwargs):
        raise AssertionError("an alpha query left the agent order")

    monkeypatch.setattr(pareto, "_cluster_levels", refuse)
    monkeypatch.setattr(Enumeration, "pareto_mask", refuse)
    calls = []
    selection_ids = Enumeration.selection_ids

    def counted(self, *args):
        calls.append(args)
        return selection_ids(self, *args)

    monkeypatch.setattr(Enumeration, "selection_ids", counted)
    got = alpha_star(s)
    assert got == want
    # one base pick, then one selection per predicate; the witness reuses one
    assert len(calls) == len(got.predicate_trace) + 1
    calls.clear()
    assert sweep(tmp_path / "got") == want_sweep
    assert len(calls) == sum(len(res.predicate_trace) + 1 for res in want_sweep[1])


def test_alpha_star_tangent_threshold():
    for k in (0.01, 0.04, 0.09):
        res = alpha_star(tangent_scenario(k))
        assert abs(res.alpha_star - 2.0 * math.sqrt(k)) <= 2e-3
        lo, hi = res.bracket
        assert 0.0 < hi - lo <= 1e-4 + 1e-12
        assert res.alpha_star == lo
        assert abs(res.u_bar) <= 1e-9
        assert not res.monotone_warning
        assert res.witness_alpha == lo
        assert res.slack_witness is not None
        assert res.slack_witness.cost < k


def test_alpha_star_never_binding():
    res = alpha_star(tangent_scenario(2.0))
    assert res.alpha_star == 1.0
    assert res.bracket == (1.0, 1.0)
    assert res.slack_witness is not None


@pytest.mark.xfail(raises=EmptySelectionError, reason=(
    "u_bar is the base's risk-neutral level, selection compares CRRA utilities"))
def test_alpha_star_risk_averse_agent():
    # the CRRA agent's only utility level is 0.0405, while E[b] - c is 0.1
    res = alpha_star(effort_scenario())
    assert 0.0 <= res.alpha_star <= 1.0


def test_sweep_builds_no_profile_and_the_witness_is_built_on_read(tmp_path, monkeypatch):
    s = tangent_scenario(0.04, m=400)
    path = tmp_path / "scenario.json"
    save_scenario(s, path)
    built = []
    init = Profile.__init__

    def counted(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Profile, "__init__", counted)
    assert main(["sweep", "--scenario", str(path), "--out", str(tmp_path / "out"),
                 "--k-grid", "0.09,0.01,0.0399,0.05"]) == 0
    assert built == []
    enum = Enumeration(s)
    res = alpha_star(s, enum=enum)
    assert built == []
    witness = res.slack_witness
    assert built == [1] and res.slack_witness is witness
    # the selection at the bracket's low end, its member of highest cost
    _, ids, binding = enum.selection_ids(res.witness_alpha, res.u_bar)
    assert not binding.any()
    assert witness == enum.profile(int(ids[np.argmax(enum.cost[ids])]), res.witness_alpha)


def test_alpha_star_always_binding():
    res = alpha_star(tangent_scenario(0.0))
    assert res.alpha_star == 0.0
    assert res.bracket == (0.0, 0.0)
    assert res.slack_witness is None
    assert res.witness_alpha is None


def test_alpha_star_guards():
    s = tangent_scenario(0.04)
    with pytest.raises(ConfigurationError):
        alpha_star(s, eps=0.0)
    with pytest.raises(EmptySelectionError):
        alpha_star(dataclasses.replace(s, reservation=99.0))


def test_alpha_star_on_a_prebuilt_enumeration():
    s = tangent_scenario(0.04, m=400)
    assert alpha_star(s, enum=Enumeration(s)) == alpha_star(s)
    with pytest.raises(ConfigurationError, match="another scenario"):
        alpha_star(dataclasses.replace(s, capacity=0.09), enum=Enumeration(s))


def test_predicate_trace_is_recorded():
    res = alpha_star(tangent_scenario(0.04))
    assert len(res.predicate_trace) >= 3
    alphas = [a for a, _ in res.predicate_trace]
    assert all(0.0 <= a <= 1.0 for a in alphas)
    flags = dict(res.predicate_trace)
    assert flags[1.0] is False


def test_rendering_one_profile_reads_only_its_row(tmp_path, monkeypatch):
    s = tangent_scenario(0.04, m=400)
    path = tmp_path / "scenario.json"
    save_scenario(s, path)
    want = alpha_star(s)
    enum = want.enumeration
    witness_payoff = enum.principal_at(want.witness_alpha)[want.witness_row]
    base_payoff = enum.principal_at(1.0)[want.base_row]

    def refuse(self, alpha):
        raise AssertionError("a one-row read priced every row")

    monkeypatch.setattr(Enumeration, "principal_at", refuse)
    res = alpha_star(s, enum=enum)
    assert res == want
    assert res.slack_witness.principal_payoff == witness_payoff
    assert verify_theorem(s).base_profile.principal_payoff == base_payoff
    for command in ("alpha-star", "verify"):
        assert main([command, "--scenario", str(path), "--out", str(tmp_path / command)]) == 0


# -- slack chain ------------------------------------------------------------


def test_slacks_identical_profiles_are_zero():
    s = tangent_scenario(0.04)
    base = tangent_profile(s, 0.4, 1.0)
    slacks = verify_inequalities(s, 0.7, base, base)
    assert slacks.output_payment == 0.0
    assert slacks.payment_scaled_output == 0.0
    assert slacks.scaled_output == 0.0
    assert slacks.participation == 0.0
    assert slacks.d_output == 0.0 and slacks.d_payment == 0.0
    assert slacks.min_slack() == 0.0


def test_slacks_hand_case():
    s = tangent_scenario(0.04)
    base = tangent_profile(s, 0.4, 1.0)  # binding, E[y] = 0.2, E[b] = 0.04
    cand = tangent_profile(s, 0.2, 0.2)  # slack, E[y] = 0.1, E[b] = 0.01
    slacks = verify_inequalities(s, 0.2, base, cand)
    assert slacks.d_output == pytest.approx(0.1, abs=1e-12)
    assert slacks.d_payment == pytest.approx(0.03, abs=1e-12)
    assert slacks.output_payment == pytest.approx(0.07, abs=1e-12)
    assert slacks.payment_scaled_output == pytest.approx(0.01, abs=1e-12)
    assert slacks.scaled_output == pytest.approx(0.02, abs=1e-12)
    assert slacks.participation == pytest.approx(0.0, abs=1e-12)
    assert slacks.min_slack() >= -1e-12


def test_slacks_recompute_missing_cost():
    s = tangent_scenario(0.04)
    base = tangent_profile(s, 0.4, 1.0)
    nocost = dataclasses.replace(base, cost=math.nan)
    a = verify_inequalities(s, 0.5, base, base)
    b = verify_inequalities(s, 0.5, nocost, nocost)
    assert a.participation == b.participation == 0.0


# -- certificate ------------------------------------------------------------


def test_verify_theorem_tangent():
    rep = verify_theorem(tangent_scenario(0.04), alphas=[0.2, 0.4, 0.6, 0.8, 1.0])
    by_alpha = {c.alpha: c for c in rep.checks}
    assert not by_alpha[0.2].tested
    assert by_alpha[0.2].reason == "below the capacity-slack threshold bracket"
    for a in (0.4, 0.6, 0.8, 1.0):
        c = by_alpha[a]
        assert c.tested and c.reason == ""
        assert c.inclusion_ok and c.converse_ok
        assert c.n_binding >= 1
        assert c.worst.min_slack() >= -1e-7
        assert c.step2_dev <= 1e-6
    assert rep.inclusion_ok and rep.converse_ok
    assert rep.worst_slacks.min_slack() >= -1e-7
    assert rep.step2_max_dev <= 1e-6
    assert rep.slack_witness_ok
    assert abs(rep.base_profile.cost - 0.04) <= 1e-9
    assert abs(rep.alpha_result.u_bar) <= 1e-9


def test_verify_theorem_always_binding_capacity():
    # with k = 0 only the zero-cost point is feasible: every alpha is past the
    # (empty) slack region, every candidate binds, and no slack witness exists
    rep = verify_theorem(tangent_scenario(0.0), alphas=[0.0, 0.5, 1.0])
    assert rep.alpha_result.alpha_star == 0.0
    assert all(c.tested for c in rep.checks)
    assert rep.inclusion_ok and rep.converse_ok
    assert rep.worst_slacks.min_slack() == 0.0
    assert rep.step2_max_dev == 0.0
    assert not rep.slack_witness_ok


def test_verify_theorem_alpha_guard():
    with pytest.raises(ConfigurationError):
        verify_theorem(tangent_scenario(0.04), alphas=[0.5, 1.2])


def _per_candidate_reference(s, rep):
    """The per-alpha worst slacks and step2 deviations from one
    verify_inequalities call per selected candidate, folded pairwise."""
    enum = Enumeration(s)
    base = rep.base_profile
    out = []
    for chk in rep.checks:
        if not chk.tested:
            out.append((None, 0.0))
            continue
        _, ids, binding = enum.selection_ids(chk.alpha, rep.alpha_result.u_bar)
        worst, step2 = None, 0.0
        for j, is_binding in zip(ids, binding):
            sl = verify_inequalities(s, chk.alpha, base, enum.profile(int(j), chk.alpha))
            if worst is None:
                worst = sl
            else:
                worst = dataclasses.replace(worst, **{
                    f.name: min(getattr(worst, f.name), getattr(sl, f.name))
                    for f in dataclasses.fields(sl)
                })
            if is_binding:
                step2 = max(step2, abs(base.cost - s.capacity), abs(sl.d_payment), abs(sl.d_output))
        out.append((worst, step2))
    return out


def _assert_matches_reference(s):
    # the alpha grid of acceptance test 04
    rep = verify_theorem(s, alphas=np.round(np.arange(0.0, 1.0001, 0.05), 12))
    ref = _per_candidate_reference(s, rep)
    tested = 0
    for chk, (worst, step2) in zip(rep.checks, ref):
        assert chk.worst == worst, chk.alpha
        assert chk.step2_dev == step2, chk.alpha
        tested += chk.tested
    worsts = [w for w, _ in ref if w is not None]
    if worsts:
        assert rep.worst_slacks == InequalitySlacks(*(
            min(getattr(w, f.name) for w in worsts) for f in dataclasses.fields(InequalitySlacks)
        ))
    return tested


@pytest.mark.parametrize("make", [ladder_scenario, lambda: tangent_scenario(0.04)], ids=["ladder", "tangent"])
def test_verify_theorem_slacks_equal_per_candidate_loop(make):
    assert _assert_matches_reference(make()) > 0


def test_verify_theorem_slacks_equal_per_candidate_loop_on_random_panel(random_scenario_panel):
    assert sum(_assert_matches_reference(s) for _, s in random_scenario_panel) > 0


# -- one threshold solve ----------------------------------------------------


def _assert_matches_oracles(s, alphas):
    """alpha_star's base pick against the three-key sort, verify_theorem's
    threshold against alpha_star's, and its row-index inclusion and
    converse against (contract_id, point_id) sets; returns the number of
    tested alphas."""
    want = alpha_star(s)
    enum = want.enumeration
    assert want.base_row == base_row_oracle(enum, s.reservation)
    rep = verify_theorem(s, alphas=alphas)
    res = rep.alpha_result
    assert res == want
    assert np.array_equal(res.base_rows, want.base_rows)
    base_keys = row_keys(enum, want.base_rows)
    tested = [c for c in rep.checks if c.tested]
    for chk in tested:
        _, ids, binding = enum.selection_ids(chk.alpha, want.u_bar)
        assert chk.inclusion_ok == (base_keys <= row_keys(enum, ids)), chk.alpha
        assert chk.converse_ok == (row_keys(enum, ids[binding]) <= base_keys), chk.alpha
    return len(tested)


ORACLE_CASES = {
    "ladder": ladder_scenario,
    "tangent": lambda: tangent_scenario(0.04),
    "share": lambda: share_scenario(0.02),
    "smooth": lambda: smooth_scenario(0)[0],
}
ORACLE_ALPHAS = np.round(np.arange(0.0, 1.0001, 0.05), 12)


@pytest.mark.parametrize("name", list(ORACLE_CASES))
def test_one_threshold_solve_matches_the_oracles(name):
    _assert_matches_oracles(ORACLE_CASES[name](), ORACLE_ALPHAS)


def test_one_threshold_solve_matches_the_oracles_on_random_panel(random_scenario_panel):
    assert sum(_assert_matches_oracles(s, ORACLE_ALPHAS) for _, s in random_scenario_panel) > 0
