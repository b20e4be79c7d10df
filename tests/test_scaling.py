"""The capacity-slack threshold alpha*, the slack chain, and its certificate."""

import dataclasses
import functools
import math

import numpy as np
import pytest

from agentcap import agent, capstruct, pareto
from agentcap.cli import main, save_scenario
from agentcap.errors import (
    BudgetExceededError,
    ConfigurationError,
    EmptySelectionError,
    ValidationError,
)
from agentcap.model import Contract, Distribution, Profile
from agentcap.pareto import Enumeration, _AgentOrder
from agentcap.scaling import (
    DEFAULT_EPS_ALPHA,
    InequalitySlacks,
    alpha_star,
    alpha_stars,
    verify_theorem,
)

from conftest import (
    all_slack,
    chain,
    alpha_star_oracle,
    base_row_oracle,
    dense_tangent_scenario,
    effort_scenario,
    ladder_scenario,
    narrow_enumeration,
    principal_at,
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
        """sweep.csv's bytes and the threshold of every capacity."""
        runs = []

        def recorded(enums):
            runs.extend(alpha_stars(enums))
            return runs

        monkeypatch.setattr(capstruct, "alpha_stars", recorded)
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
    passes, picks = [], []
    keep, selection_ids = _AgentOrder.keep, Enumeration.selection_ids

    def counted(self, principal):
        passes.append(principal.shape[0])
        return keep(self, principal)

    def base_pick(self, alpha, r):
        picks.append((alpha, r))
        return selection_ids(self, alpha, r)

    monkeypatch.setattr(_AgentOrder, "keep", counted)
    monkeypatch.setattr(Enumeration, "selection_ids", base_pick)
    got = alpha_star(s)
    assert got == want
    # one pass for the base pick, then one per predicate; the witness reuses one
    assert picks == [(1.0, s.reservation)]
    assert passes == [1] * (len(got.predicate_trace) + 1)
    passes.clear()
    picks.clear()
    assert sweep(tmp_path / "got") == want_sweep
    # a base pick per capacity, then the capacities in lockstep: one pass
    # per round of predicates, as many rounds as the longest trace
    assert picks == [(1.0, s.reservation)] * 5
    assert passes[:5] == [1] * 5 and passes[5] == 5
    assert len(passes) == 5 + max(len(res.predicate_trace) for res in want_sweep[1])


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


# capacities no lattice cost of the dense tangent family lies near, at
# m = 200 or m = 1000, where the paper's threshold is 2 sqrt(k)
GENERIC_K = (0.0399, 0.0401, 0.05, 0.07, 0.11, 0.2)
GENERIC_REASON = ("ROADMAP item 1: a profile is capacity-binding only when a lattice cost lies within "
                  "tol_u of k, so alpha* is 1.0 at every generic k")


@functools.cache
def dense_errors(m):
    """alpha* - 2 sqrt(k) on ``dense_tangent_scenario(k, m)``, per GENERIC_K."""
    return np.array([alpha_star(dense_tangent_scenario(k, m)).alpha_star - 2 * math.sqrt(k) for k in GENERIC_K])


@pytest.mark.parametrize("m", [200, 1000])
def test_dense_tangent_family_is_generic_and_tangent(m):
    for k in GENERIC_K:
        s = dense_tangent_scenario(k, m)
        # 0.0399 and 0.0401 lie 1e-4 from the lattice cost 0.04 exactly, so
        # the check allows the rounding of that difference
        assert np.abs(s.lattice.costs - k).min() >= 1e-4 * (1 - 1e-9), k
        # each diagonal member's best response is its tangency point alone,
        # worth 0 to the agent, as in tangent_scenario
        slack = s.at_capacity(1.0)
        slopes = 2 * math.sqrt(k) + 2 * np.arange(-12, 5) / m
        for slope, b in zip(slopes, zip(*s.family.grids)):
            br = agent.best_response_grid(slack, b)
            assert [p.probs[1] for p in br.maximizers] == [np.round(slope / 2 * m) / m], (k, slope)
            assert abs(br.value) <= s.tol_u


@pytest.mark.xfail(raises=AssertionError, strict=True, reason=GENERIC_REASON)
@pytest.mark.parametrize("m", [200, 1000])
def test_alpha_star_follows_two_root_k_from_below_at_generic_k(m):
    err = dense_errors(m)
    assert ((-4 / m <= err) & (err <= 1e-4)).all(), err.tolist()


@pytest.mark.xfail(raises=AssertionError, strict=True, reason=GENERIC_REASON)
def test_alpha_star_error_at_generic_k_shrinks_with_m():
    assert np.abs(dense_errors(1000)).max() < np.abs(dense_errors(200)).max()


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
    witness_payoff = principal_at(enum, want.witness_alpha)[want.witness_row]
    base_payoff = principal_at(enum, 1.0)[want.base_row]
    priced = Enumeration._principal

    def few(self, alpha, rows):
        assert len(rows) < self.agent_u.size, "a one-row read priced every row"
        return priced(self, alpha, rows)

    monkeypatch.setattr(Enumeration, "_principal", few)
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


# -- lockstep solve ---------------------------------------------------------


def assert_lockstep_matches_oracle(enums, eps=DEFAULT_EPS_ALPHA):
    """``alpha_stars`` on ``enums`` against ``alpha_star_oracle`` on each in
    turn, field by field; when a row has no selection, both raise the same
    first EmptySelectionError. Returns the number of thresholds solved."""
    try:
        want = [alpha_star_oracle(e, eps) for e in enums]
    except EmptySelectionError as exc:
        with pytest.raises(EmptySelectionError) as got:
            alpha_stars(enums, eps)
        assert str(got.value) == str(exc)
        return 0
    got = alpha_stars(enums, eps)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g == w
        assert g.enumeration is w.enumeration
        assert np.array_equal(g.base_rows, w.base_rows)
    return len(got)


@pytest.mark.parametrize("name", list(ORACLE_CASES))
def test_lockstep_matches_the_sequential_oracle(name):
    assert assert_lockstep_matches_oracle([Enumeration(ORACLE_CASES[name]())]) == 1


def test_lockstep_matches_the_sequential_oracle_on_stacked_panels(random_scenario_panel):
    # rows of different scenarios, widths and bisection lengths in one solve
    fixed = [Enumeration(make()) for make in ORACLE_CASES.values()]
    assert assert_lockstep_matches_oracle(fixed) == len(fixed)
    panel = [Enumeration(s) for _, s in random_scenario_panel]
    assert assert_lockstep_matches_oracle(panel) == len(panel)
    assert assert_lockstep_matches_oracle([*panel[:3], *fixed, *panel[3:6]]) == 10


def test_lockstep_raises_the_first_empty_selection():
    effort = Enumeration(effort_scenario())
    with pytest.raises(EmptySelectionError, match="no Pareto profile meets reservation"):
        alpha_stars([effort])
    assert assert_lockstep_matches_oracle([effort]) == 0
    ladder = Enumeration(ladder_scenario())
    high = Enumeration(dataclasses.replace(ladder_scenario(), reservation=99.0))
    assert assert_lockstep_matches_oracle([ladder, effort, high]) == 0
    assert assert_lockstep_matches_oracle([ladder, high, effort]) == 0
    with pytest.raises(EmptySelectionError, match="99.0"):
        alpha_stars([ladder, high, effort])


@pytest.mark.parametrize("eps", [1e-3, 1e-4, 1e-6])
def test_lockstep_matches_the_oracle_on_a_mixed_capacity_chain(eps):
    # tangency capacities 0.01, 0.04, 0.09 bisect; the generic ones stop at
    # the first predicate
    s = tangent_scenario(0.02, m=400)
    enums = chain(s, [0.07, 0.0399, 0.01, 0.05, 0.04, 0.09, 0.0401, 0.2, 0.04])
    assert assert_lockstep_matches_oracle(enums, eps) == len(enums)
    assert len({len(res.predicate_trace) for res in alpha_stars(enums, eps)}) > 1


def test_lockstep_matches_the_oracle_on_a_ball_route_first_link(monkeypatch):
    monkeypatch.setattr(agent, "_CHUNK", 64)
    s = tangent_scenario(0.04, m=400)
    enums = chain(s, [0.0399, 0.04, 0.09, 0.01])
    assert enums[0].evaluations < enums[0].nominal_evaluations
    assert assert_lockstep_matches_oracle(enums) == len(enums)
    smooth, _ = smooth_scenario(1)
    costs = np.unique(smooth.lattice.costs)
    enums = chain(smooth, [float(k) for k in np.quantile(costs, [0.2, 0.5, 0.9])])
    assert assert_lockstep_matches_oracle(enums) == len(enums)


def test_lockstep_takes_the_greedy_walk_on_narrow_gaps():
    enum = narrow_enumeration()
    res = alpha_stars([enum])[0]
    assert res.u_bar == 0.15 and res.base_row == 1 and res.base_level == 0.16
    assert 0.79 < res.alpha_star < 0.8
    for alpha, _ in res.predicate_trace:
        kept = enum.agent_u[enum.pareto_mask(alpha)]
        first = kept[kept >= res.u_bar - 0.1][0]
        assert first == 0.08 and first - kept[kept < first][-1] <= 0.1
    assert assert_lockstep_matches_oracle([enum]) == 1
    # next to rows of another tolerance, padded to a wider stack
    assert assert_lockstep_matches_oracle([Enumeration(ladder_scenario()), enum]) == 2


def test_every_trace_is_slack_below_binding(random_scenario_panel):
    # the bisection only narrows its bracket, so sorted by alpha no slack
    # answer lies above a binding one: what monotone_warning would flag
    scenarios = [tangent_scenario(0.04), ladder_scenario(), *(s for _, s in random_scenario_panel)]
    results = [alpha_star(s) for s in scenarios]
    results += alpha_stars(chain(tangent_scenario(0.04, m=200), [0.005, 0.01, 0.0399, 0.04, 0.09]))
    for res in results:
        slack = [flag for _, flag in sorted(res.predicate_trace)]
        assert slack == sorted(slack, reverse=True), res.predicate_trace
        assert res.monotone_warning is False


def test_a_solved_threshold_is_read_not_solved_again(monkeypatch):
    passes = []
    keep = _AgentOrder.keep

    def counted(self, principal):
        passes.append(principal.shape[0])
        return keep(self, principal)

    monkeypatch.setattr(_AgentOrder, "keep", counted)
    s = tangent_scenario(0.04, m=400)
    enums = chain(s, [0.01, 0.04, 0.09])
    want = alpha_stars(enums[:2])
    assert set(enums[0].thresholds) == {DEFAULT_EPS_ALPHA} and not enums[2].thresholds
    passes.clear()
    got = alpha_star(enums[1].scenario, enum=enums[1])
    assert passes == [] and got == want[1] and got.enumeration is enums[1]
    assert np.array_equal(got.base_rows, want[1].base_rows)
    # only the unsolved capacity is bisected, as a stack of one row
    res = alpha_stars(enums)
    assert res[:2] == want and passes == [1] * (len(res[2].predicate_trace) + 1)
    assert res[2] == alpha_star_oracle(enums[2])
    # another bisection width is another threshold
    passes.clear()
    coarse = alpha_star(enums[1].scenario, 1e-2, enum=enums[1])
    assert coarse == alpha_star_oracle(enums[1], 1e-2) and passes
    assert set(enums[1].thresholds) == {DEFAULT_EPS_ALPHA, 1e-2}


@pytest.mark.parametrize("ks", [[0.04], [0.01, 0.04, 0.09, 0.0399], np.linspace(0.005, 0.1, 10)])
@pytest.mark.parametrize("eps", [1e-3, 1e-4])
def test_a_sweep_makes_one_keep_pass_per_round(ks, eps, monkeypatch):
    passes, builds = [], []
    keep, stack = _AgentOrder.keep, _AgentOrder.stack.__func__

    def counted(self, principal):
        passes.append(principal.shape[0])
        return keep(self, principal)

    def built(cls, rows):
        builds.append(len(rows))
        return stack(cls, rows)

    monkeypatch.setattr(_AgentOrder, "keep", counted)
    monkeypatch.setattr(_AgentOrder, "stack", classmethod(built))
    enums = chain(tangent_scenario(0.04, m=400), ks)
    passes.clear()
    builds.clear()
    results = alpha_stars(enums, eps)
    # one one-row pass per base pick, then one pass per round for every
    # capacity still open, at most 2 + ceil(log2(1 / eps)) rounds
    k = len(enums)
    assert passes[:k] == [1] * k and passes[k] == k
    assert len(passes) - k == max(len(res.predicate_trace) for res in results)
    assert len(passes) - k <= 2 + math.ceil(math.log2(1 / eps))
    # one one-row stack per base pick; the rounds build theirs again only
    # when rows close at alpha = 1 or 0, as the rows bisecting close together
    assert builds[:k] == [1] * k and builds[k] == k
    assert 1 <= len(builds) - k <= 3
    passes.clear()
    capstruct.sweep_alpha_star(tangent_scenario(0.04, m=400), ks)
    assert len(passes) - k <= 2 + math.ceil(math.log2(1 / DEFAULT_EPS_ALPHA))


def test_sweep_raises_the_lowest_failing_capacity_first():
    s = dataclasses.replace(tangent_scenario(0.04, m=200), reservation=0.001)
    contracts = len(s.family.payment_matrix(s.y.as_array())[0])
    # at k = 0 only the zero-cost point is feasible, and no profile meets 0.001
    with pytest.raises(EmptySelectionError, match="reservation 0.001"):
        capstruct.sweep_alpha_star(s, [0.04, 0.0, math.inf])
    with pytest.raises(EmptySelectionError, match="reservation 0.001"):
        capstruct.sweep_alpha_star(s, [0.0, 0.04], budget=contracts)
    with pytest.raises(ValidationError, match="capacity inf"):
        capstruct.sweep_alpha_star(s, [0.04, math.inf])
    with pytest.raises(BudgetExceededError):
        capstruct.sweep_alpha_star(s, [0.04, 0.09], budget=contracts * 10)


def _reasons_one_alpha_at_a_time(s, alphas):
    """verify_theorem's (tested, reason) per alpha, each alpha's selection
    from its own ``selection_ids``."""
    res = alpha_star_oracle(Enumeration(s))
    out = []
    for alpha in alphas:
        if alpha < res.bracket[1]:
            out.append((False, "below the capacity-slack threshold bracket"))
            continue
        try:
            _, _, binding = res.enumeration.selection_ids(alpha, res.u_bar)
        except EmptySelectionError:
            out.append((False, "selection empty at this alpha"))
            continue
        out.append((True, "") if binding.any() else (False, "selection has no capacity-binding member"))
    return out


def test_verify_checks_every_alpha_in_one_pass(random_scenario_panel, monkeypatch):
    passes = []
    keep = _AgentOrder.keep

    def counted(self, principal):
        passes.append(principal.shape[0])
        return keep(self, principal)

    monkeypatch.setattr(_AgentOrder, "keep", counted)
    reasons = set()
    for s in (*ORACLE_CASES.values(), *(lambda s=s: s for _, s in random_scenario_panel)):
        s = s()
        want = _reasons_one_alpha_at_a_time(s, [*ORACLE_ALPHAS, 1.0, 0.5])
        passes.clear()
        rep = verify_theorem(s, alphas=[*ORACLE_ALPHAS, 1.0, 0.5])
        got = [(c.tested, c.reason) for c in rep.checks]
        assert got == want
        reasons.update(r for _, r in got)
        past = sum(c.alpha >= rep.alpha_result.bracket[1] for c in rep.checks)
        # the threshold's passes, then one for every alpha past its bracket
        assert passes[len(rep.alpha_result.predicate_trace) + 1:] == [past]
    assert "selection has no capacity-binding member" in reasons
