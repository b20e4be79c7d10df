"""End-to-end checks of the package's headline guarantees.

Each test prints a single [PASS]/[FAIL] line so a full run reads as a
checklist; the assertions enforce exactly the printed condition. Shared
expensive computations (the theorem reports over the fixture panel) are
cached at module level inside the first test that needs them.
"""

import csv
import json
import math
import time

import numpy as np

from agentcap.agent import (
    agent_foc_residual,
    best_response_convex,
    best_response_grid,
    fit_agent_multipliers,
)
from agentcap.capstruct import (
    debt_equity_decompose,
    live_or_die_decompose,
    scaled_debt_contract,
)
from agentcap.cli import (
    load_scenario,
    main,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
)
from agentcap.discounting import (
    DatedSchedule,
    DiscountPair,
    dated_best_response,
    reduce_single_date,
)
from agentcap.kkt import (
    affine_representation_check,
    make_initial_point,
    solve_principal_foc,
)
from agentcap.model import (
    AgentUtility,
    DebtFamily,
    EffortCost,
    LiveOrDieFamily,
    MonotoneBoundedSlopeFamily,
    OutputFunction,
    RelativeEntropyCost,
    Scenario,
    TableCost,
    simplex_lattice,
)
from agentcap.pareto import Enumeration
from agentcap.scaling import alpha_star, verify_theorem

from conftest import (
    SHARE_WS,
    collect_random_scenarios,
    dated_case,
    ladder_scenario,
    principal_at,
    share_scenario,
    share_scenario3,
    smooth_scenario,
    tangent_scenario,
)

TANGENT_KS = (0.01, 0.04, 0.09)
ALPHA_GRID = tuple(float(a) for a in np.round(np.arange(0.0, 1.0001, 0.05), 12))
W_STEP = round(SHARE_WS[1] - SHARE_WS[0], 12)  # contract lattice resolution


def emit(capsys, num, text, ok, detail):
    with capsys.disabled():
        print(f"\n[{'PASS' if ok else 'FAIL'}] {num:02d} {text}: {detail}")


_REPORTS = None


def theorem_reports():
    """verify_theorem over the tangent fixture and the 20-scenario random
    panel, at the 0.05 alpha grid; computed once per session."""
    global _REPORTS
    if _REPORTS is None:
        cases = [
            (f"tangent k={k:g}", verify_theorem(tangent_scenario(k), alphas=ALPHA_GRID))
            for k in TANGENT_KS
        ]
        for seed, sc in collect_random_scenarios():
            cases.append((f"random seed={seed}", verify_theorem(sc, alphas=ALPHA_GRID)))
        _REPORTS = cases
    return _REPORTS


def test_01_threshold_matches_closed_form(capsys):
    ok, details = True, []
    try:
        for k in TANGENT_KS:
            t0 = time.perf_counter()
            s = tangent_scenario(k)
            res = alpha_star(s)
            # independent confirmation: evaluate the slackness predicate on a
            # dense alpha grid straight off the enumeration, no bisection
            enum = Enumeration(s)
            grid = np.round(np.arange(0.0, 1.0 + 1e-9, 1e-3), 12)
            flags = [
                not bool(enum.selection_ids(float(a), 0.0)[2].any()) for a in grid
            ]
            dt = time.perf_counter() - t0
            cut = next((i for i, f in enumerate(flags) if not f), len(flags))
            scan_lo = float(grid[cut - 1]) if cut else 0.0
            closed = 2.0 * math.sqrt(k)
            dev = abs(res.alpha_star - closed)
            conds = [
                dev <= 2e-3,
                not any(flags[cut:]),  # one switch: slack below, binding above
                scan_lo - 1e-9 <= res.alpha_star <= scan_lo + 1e-3 + 1e-9,
                scan_lo <= closed + 2e-3,
                scan_lo + 1e-3 >= closed - 2e-3,
                dt < 10.0,
            ]
            ok = ok and all(conds)
            details.append(f"k={k:g} dev={dev:.1e} scan=[{scan_lo:g},{scan_lo + 1e-3:g}] {dt:.2f}s")
        detail = "; ".join(details)
    except Exception as exc:
        ok, detail = False, f"{type(exc).__name__}: {exc}"
    emit(capsys, 1, "scaling threshold equals 2*sqrt(k) on the tangent fixture, "
         "confirmed by a step-1e-3 predicate scan, under 10s per k", ok, detail)
    assert ok, detail


def test_02_frontier_inclusion_above_threshold(capsys):
    try:
        bad, n_tested = [], 0
        for name, rep in theorem_reports():
            tested = [c for c in rep.checks if c.tested]
            n_tested += len(tested)
            if not tested or not rep.inclusion_ok or not all(c.inclusion_ok for c in tested):
                bad.append(name)
        ok = not bad
        detail = (
            f"{len(theorem_reports())} scenarios, {n_tested} tested grid alphas, "
            "exact profile-id inclusion everywhere"
            if ok else f"failures: {', '.join(bad)}"
        )
    except Exception as exc:
        ok, detail = False, f"{type(exc).__name__}: {exc}"
    emit(capsys, 2, "every unscaled selection profile reappears in the scaled "
         "selection at each tested alpha above the threshold", ok, detail)
    assert ok, detail


def test_03_binding_profiles_are_unscaled_optima(capsys):
    try:
        bad, n_binding = [], 0
        for name, rep in theorem_reports():
            n_binding += sum(c.n_binding for c in rep.checks if c.tested)
            if not rep.converse_ok or not all(c.converse_ok for c in rep.checks if c.tested):
                bad.append(name)
        ok = not bad and n_binding > 0
        detail = (
            f"{n_binding} capacity-binding candidates across the panel, zero violations"
            if ok else (f"failures: {', '.join(bad)}" if bad else "no binding candidates seen")
        )
    except Exception as exc:
        ok, detail = False, f"{type(exc).__name__}: {exc}"
    emit(capsys, 3, "every capacity-binding member of a scaled selection "
         "belongs to the unscaled selection", ok, detail)
    assert ok, detail


def test_04_inequality_slacks_and_matching_step(capsys):
    try:
        worst_slack, worst_step2, bad = math.inf, 0.0, []
        for name, rep in theorem_reports():
            if rep.worst_slacks is None:
                bad.append(name)
                continue
            worst_slack = min(worst_slack, rep.worst_slacks.min_slack())
            worst_step2 = max(worst_step2, rep.step2_max_dev)
        ok = not bad and worst_slack >= -1e-7 and worst_step2 <= 1e-6
        detail = (
            f"min slack {worst_slack:.2e} >= -1e-7, max matching deviation {worst_step2:.2e} <= 1e-6"
            if not bad else f"no slack records for: {', '.join(bad)}"
        )
    except Exception as exc:
        ok, detail = False, f"{type(exc).__name__}: {exc}"
    emit(capsys, 4, "payment/output comparison inequalities hold for every "
         "base-candidate pair, with equalities at binding cost", ok, detail)
    assert ok, detail


def test_05_threshold_nondecreasing_in_capacity(capsys, tmp_path):
    try:
        f = tmp_path / "tangent.json"
        save_scenario(tangent_scenario(0.04), f)
        out = tmp_path / "sweep"
        rc = main(["sweep", "--scenario", str(f), "--out", str(out),
                   "--k-grid", "0.01,0.04,0.09,0.16,0.2"])
        with open(out / "sweep.csv", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        ks = [float(r[0]) for r in rows]
        stars = [float(r[1]) for r in rows]
        with open(out / "summary.json") as fh:
            summary = json.load(fh)
        conds = [
            rc == 0,
            ks == sorted(ks),
            all(b >= a - 1e-4 for a, b in zip(stars, stars[1:])),
            summary["nondecreasing"] is True,
        ]
        ok = all(conds)
        detail = "alpha* " + " -> ".join(f"{v:g}" for v in stars) + f" over k={ks}"
    except Exception as exc:
        ok, detail = False, f"{type(exc).__name__}: {exc}"
    emit(capsys, 5, "swept scaling threshold is nondecreasing in capacity "
         "(tolerance 1e-4)", ok, detail)
    assert ok, detail


def test_06_decomposition_identities(capsys):
    try:
        rng = np.random.default_rng(2026)
        worst_sum, worst_forms = 0.0, 0.0
        for _ in range(10_000):
            n = int(rng.integers(2, 5))
            y = OutputFunction(tuple(np.sort(rng.uniform(0.0, 3.0, n))))
            F = float(rng.uniform(0.0, 3.0))
            a = float(rng.uniform(0.05, 1.0))
            de = debt_equity_decompose(y, F, a)
            total = np.array(de.agent_leg) + np.array(de.debt_leg) + np.array(de.equity_leg)
            worst_sum = max(worst_sum, float(np.abs(total - y.as_array()).max()))
            direct = np.array(scaled_debt_contract(y, F, a).payments)
            worst_forms = max(worst_forms, float(np.abs(direct - np.array(de.agent_leg)).max()))
            lod = live_or_die_decompose(
                y, float(rng.uniform(0.0, 3.0)), float(rng.uniform(0.0, 1.0))
            )
            total = np.array(lod.agent_leg) + np.array(lod.principal_leg)
            worst_sum = max(worst_sum, float(np.abs(total - y.as_array()).max()))
        ok = worst_sum <= 1e-12 and worst_forms <= 1e-12
        detail = f"10^4 draws, worst per-state gap {worst_sum:.1e}, worst debt-form gap {worst_forms:.1e}"
    except Exception as exc:
        ok, detail = False, f"{type(exc).__name__}: {exc}"
    emit(capsys, 6, "debt+equity and live-or-die legs rebuild output state by "
         "state and the two debt forms agree", ok, detail)
    assert ok, detail


def test_07_convex_solver_matches_grid_and_multipliers_fit(capsys):
    try:
        worst_gap, worst_res = 0.0, 0.0
        for seed in range(100):
            sc, b = smooth_scenario(seed)
            conv = best_response_convex(sc, b)
            grid = best_response_grid(sc, b)
            gap = abs(conv.value - grid.value)
            worst_gap = max(worst_gap, gap * sc.m / 2.0)
            if gap > 2.0 / sc.m:
                raise AssertionError(f"seed {seed}: value gap {gap:g} > 2/m")
            p = conv.maximizers[0]
            rho, mu = fit_agent_multipliers(sc, b, p)
            res = agent_foc_residual(sc, b, p, rho=rho, mu=mu)
            worst_res = max(worst_res, res.max_abs)
        ok = worst_res <= 1e-6
        detail = (f"100 scenarios, worst value gap {worst_gap:.3f} of the 2/m budget, "
                  f"worst stationarity residual {worst_res:.1e}")
    except Exception as exc:
        ok, detail = False, f"{type(exc).__name__}: {exc}"
    emit(capsys, 7, "continuous best response matches the lattice solver "
         "within 2/m and its fitted multipliers zero the agent FOC", ok, detail)
    assert ok, detail


def test_08_stationarity_system_and_affine_form(capsys):
    try:
        cases = (
            ("2-state slack", share_scenario(0.2), False),
            ("2-state binding", share_scenario(0.05), True),
            ("3-state slack", share_scenario3(0.2), False),
            ("3-state binding", share_scenario3(0.05), True),
        )
        details, ok = [], True
        for name, sc, cap_active in cases:
            pt = solve_principal_foc(sc, make_initial_point(sc), capacity_active=cap_active)
            aff = affine_representation_check(sc, pt)
            b = np.array(pt.b.payments)
            p = np.array(pt.p.probs)
            pr_kkt = float(p @ (sc.y.as_array() - b))
            enum = Enumeration(sc)
            _, ids, _ = enum.selection_ids(1.0, sc.reservation)
            j = int(ids[np.argmax(principal_at(enum, 1.0)[ids])])
            prof = enum.profile(j, 1.0)
            db = float(np.abs(np.array(prof.contract.payments) - b).max())
            dp = float(np.abs(np.array(prof.dist.probs) - p).max())
            dpr = abs(prof.principal_payoff - pr_kkt)
            conds = [pt.converged, pt.residuals.max_abs <= 1e-8, aff.fit_residual <= 1e-6]
            if cap_active:
                # the continuum slope leaves the share grid once capacity
                # binds; agreement is through the distribution and the payoff
                conds += [dp <= 1.0 / sc.m + 1e-9, dpr <= 2.0 / sc.m]
                gaps = f"dp={dp:.4f} dpr={dpr:.4f}"
            else:
                conds += [db <= W_STEP + 1e-9, dpr <= W_STEP + 1e-9]
                gaps = f"db={db:.4f} dpr={dpr:.4f}"
            ok = ok and all(conds)
            details.append(f"{name}: res={pt.residuals.max_abs:.0e} fit={aff.fit_residual:.0e} {gaps}")
        detail = "; ".join(details)
    except Exception as exc:
        ok, detail = False, f"{type(exc).__name__}: {exc}"
    emit(capsys, 8, "principal stationarity system converges to 1e-8, the "
         "risk-neutral contract is affine in output, and the solved point "
         "matches the enumeration optimum at lattice resolution", ok, detail)
    assert ok, detail


def test_09_dated_payments_reduce_to_static(capsys):
    try:
        mismatches = []
        for seed in range(50):
            sc, d, sched, date, b = dated_case(seed)
            dated = dated_best_response(sc, d, sched)
            static = best_response_grid(reduce_single_date(sc, d, date), tuple(b))
            if dated.maximizers != static.maximizers:
                mismatches.append(seed)
        exact = True
        for seed in range(5):
            sc, _, _, _, b = dated_case(seed)
            dated = dated_best_response(
                sc, DiscountPair(1.0, 1.0), DatedSchedule.at_date(0, tuple(b))
            )
            static = best_response_grid(sc, tuple(b))
            exact = exact and (
                dated.maximizers == static.maximizers
                and dated.value == static.value
                and dated.any_binding == static.any_binding
            )
        ok = not mismatches and exact
        detail = (
            "50 single-date instances reduce exactly; unit discounting with no "
            "second-date payments is bit-for-bit static"
            if ok else f"mismatched seeds: {mismatches}, bit-for-bit: {exact}"
        )
    except Exception as exc:
        ok, detail = False, f"{type(exc).__name__}: {exc}"
    emit(capsys, 9, "two-date problems with single-date payments have the same "
         "best-response sets as their reduced static form", ok, detail)
    assert ok, detail


def _round_trip_battery():
    yield ladder_scenario()
    yield share_scenario3(0.1)
    base = ladder_scenario()
    yield Scenario(
        states=base.states, y=base.y,
        cost=RelativeEntropyCost(1.5, (0.5, 0.5)), capacity=0.5,
        family=DebtFamily((0.0, 0.5)),
        utility=AgentUtility("cara", a=2.0), reservation=0.0, m=30,
    )
    pts = simplex_lattice(2, 8)
    yield Scenario(
        states=base.states, y=base.y,
        cost=TableCost(tuple(map(tuple, pts)), tuple(float(p[1] ** 2) for p in pts)),
        capacity=0.5, family=LiveOrDieFamily((0.5,)),
        utility=AgentUtility("crra", gamma=2.0), reservation=0.0, m=8,
    )
    yield Scenario(
        states=base.states, y=base.y,
        cost=EffortCost((0.0, 1.0), ((0.9, 0.1), (0.4, 0.6)), (0.0, 0.3)),
        capacity=0.5, family=MonotoneBoundedSlopeFamily(((0.0, 0.1), (0.0, 0.1, 0.6))),
        utility=AgentUtility("crra", gamma=1.0, shift=2.0), reservation=0.0, m=8,
    )


def test_10_round_trip_and_byte_determinism(capsys, tmp_path):
    try:
        n_cases = 0
        for i, s in enumerate(_round_trip_battery()):
            n_cases += 1
            assert scenario_from_dict(scenario_to_dict(s)) == s
            path = tmp_path / f"case{i}.json"
            save_scenario(s, path)
            assert load_scenario(path) == s

        ladder = tmp_path / "ladder.json"
        save_scenario(ladder_scenario(), ladder)
        tangent = tmp_path / "tangent.json"
        save_scenario(tangent_scenario(0.04, m=400), tangent)
        runs = (
            (["solve", "--scenario", str(ladder)], ("pareto.csv", "selection.csv")),
            (["alpha-star", "--scenario", str(tangent)], ("trace.csv",)),
        )
        n_files = 0
        for args, files in runs:
            out1, out2 = tmp_path / f"a{n_files}", tmp_path / f"b{n_files}"
            for out in (out1, out2):
                assert main(args + ["--out", str(out)]) == 0
            for name in files:
                n_files += 1
                assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
        ok = True
        detail = (f"{n_cases} scenarios round-trip through dict and file forms; "
                  f"{n_files} result CSVs byte-identical across reruns")
    except Exception as exc:
        ok, detail = False, f"{type(exc).__name__}: {exc}"
    emit(capsys, 10, "scenario serialization round-trips and repeated runs "
         "write byte-identical CSVs", ok, detail)
    assert ok, detail
