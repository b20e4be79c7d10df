"""Independent checks of one op's CLI outputs.

``check_op`` reads the scenario file the benchmark wrote, the flags it passed
and the files the program wrote, and returns a list of failures (empty when
the outputs hold). The referee is the benchmark's own ``oracle`` arithmetic,
never ``agentcap``. CSV cells carry 12 significant digits, so recomputed
payoffs are compared within ``ROUND`` on top of the scenario's ``tol_u``, and
printed payoffs compared with each other allow for their own rounding.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from oracle import cluster_levels, cost_values, dominated, feasible, utility_values

ROUND = 1e-8  # slack for values read back from 12-significant-digit cells


def _cell_slack(values: np.ndarray) -> float:
    """Bound on the error of a difference of two printed payoffs: each cell
    is off by at most half a unit in its 12th significant digit."""
    return 1e-11 * max(1.0, float(np.abs(values).max()))


def read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise ValueError(f"{path.name} is empty")
    return rows[0], rows[1:]


def _flag(flags: list[str], name: str, default=None):
    return flags[flags.index(name) + 1] if name in flags else default


def check_op(op: dict, scenario: dict, out: Path, code: int) -> list[str]:
    """Failures of one op; exit code 0 is required for every command."""
    if code != 0:
        return [f"exit code {code}"]
    try:
        return _CHECKS[op["command"]](op, scenario, out)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]


def _profile_table(path: Path, n: int) -> tuple[list[list[str]], np.ndarray, np.ndarray, np.ndarray]:
    header, rows = read_csv(path)
    if len(header) != 2 * n + 4:
        raise ValueError(f"{path.name}: {len(header)} columns for {n} states")
    table = np.array([[float(v) for v in r[1 : 2 * n + 3]] for r in rows]).reshape(len(rows), 2 * n + 2)
    return rows, table[:, :n], table[:, n : 2 * n], table[:, 2 * n :]


def check_solve(op: dict, scenario: dict, out: Path) -> list[str]:
    n, m = len(scenario["states"]), scenario["simplex_grid"]
    tol = scenario["tolerances"]["tol_u"]
    k = scenario["capacity"]
    alpha = float(_flag(op["flags"], "--alpha", 1.0))
    y = np.asarray(scenario["output"], dtype=float)
    rows, b, p, payoffs = _profile_table(out / "pareto.csv", n)
    sel_rows, *_ = _profile_table(out / "selection.csv", n)
    if not rows:
        return ["empty frontier"]
    fails = []

    counts = p * m
    if np.abs(counts - np.round(counts)).max() > 1e-6 or np.abs(p.sum(axis=1) - 1.0).max() > 1e-9:
        fails.append("frontier row off the simplex lattice")
    costs = cost_values(scenario["cost"], p)
    if (costs > k + 1e-9).any():
        fails.append("frontier row violates the capacity")

    util = utility_values(scenario["utility"], b)
    agent = np.einsum("ij,ij->i", util, p) - costs
    principal = alpha * (p @ y) - np.einsum("ij,ij->i", b, p)
    if np.abs(agent - payoffs[:, 0]).max() > ROUND or np.abs(principal - payoffs[:, 1]).max() > ROUND:
        fails.append("reported payoffs disagree with the row's contract and distribution")

    # best response: no feasible lattice point beats the row by more than tol_u
    pts, pt_costs = feasible(scenario)
    contracts, inverse = np.unique(b, axis=0, return_inverse=True)
    best = (utility_values(scenario["utility"], contracts) @ pts.T - pt_costs[None, :]).max(axis=1)
    gap = best[inverse.ravel()] - agent
    if gap.max() > tol + ROUND:
        fails.append(f"row {int(gap.argmax())} is not a best response (gap {gap.max():.3g})")

    # the program compares unrounded payoffs by the same rule; compared as
    # printed, only a pair dominating beyond the cells' rounding is a failure
    slack = _cell_slack(payoffs)
    if dominated(payoffs[:, 0], payoffs[:, 1], tol, slack).any():
        fails.append("frontier rows dominate each other")

    frontier_set = {tuple(r) for r in rows}
    if any(tuple(r) not in frontier_set for r in sel_rows):
        fails.append("selection row missing from the frontier")
    levels = cluster_levels(payoffs[:, 0], tol)
    qualifying = levels[levels >= scenario["reservation"] - tol]
    if qualifying.size == 0:
        fails.append("no frontier level meets the reservation, yet the command succeeded")
    else:
        # rows within tol of the level are selected; a row within the cells'
        # rounding of that margin may fall either way
        dist = np.abs(payoffs[:, 0] - qualifying[0])
        must = {tuple(r) for r, d in zip(rows, dist) if d <= tol - slack}
        may = {tuple(r) for r, d in zip(rows, dist) if d <= tol + slack}
        chosen = {tuple(r) for r in sel_rows}
        if len(chosen) != len(sel_rows) or not must <= chosen <= may:
            fails.append("selection is not the frontier's lowest level at or above the reservation")
    return fails


def check_alpha_star(op: dict, scenario: dict, out: Path) -> list[str]:
    summary = json.loads((out / "summary.json").read_text())
    _, rows = read_csv(out / "trace.csv")
    eps = float(_flag(op["flags"], "--eps", 1e-4))
    lo, hi, star = summary["bracket_low"], summary["bracket_high"], summary["alpha_star"]
    trace = [(float(a), ok == "true") for a, ok in rows]
    fails = []
    if not trace:
        return ["empty predicate trace"]
    if hi - lo > eps * (1 + 1e-12):
        fails.append(f"bracket width {hi - lo:.3g} exceeds eps {eps:g}")
    if star != lo:
        fails.append("alpha_star is not the bracket's low end")
    slack = [a for a, ok in trace if ok]
    tight = [a for a, ok in trace if not ok]
    if trace[0] == (1.0, True):
        expect = (1.0, 1.0)
    elif not slack:
        expect = (0.0, 0.0)
    else:
        expect = (max(slack), min((a for a in tight if a > max(slack)), default=max(slack)))
    if abs(expect[0] - lo) > 1e-11 or abs(expect[1] - hi) > 1e-11:
        fails.append(f"bracket ({lo}, {hi}) disagrees with trace.csv {expect}")
    return fails


def check_verify(op: dict, scenario: dict, out: Path) -> list[str]:
    header, rows = read_csv(out / "checks.csv")
    col = {name: i for i, name in enumerate(header)}
    fails = []
    if not rows:
        fails.append("no alpha checks")
    for r in rows:
        if r[col["tested"]] == "true" and (r[col["inclusion_ok"]] != "true" or r[col["converse_ok"]] != "true"):
            fails.append(f"alpha {r[col['alpha']]}: inclusion or converse fails")
    return fails


def check_sweep(op: dict, scenario: dict, out: Path) -> list[str]:
    _, rows = read_csv(out / "sweep.csv")
    ks = sorted(float(v) for v in _flag(op["flags"], "--k-grid").split(","))
    got = [float(r[0]) for r in rows]
    fails = []
    if len(got) != len(ks) or any(abs(a - b) > 1e-11 * max(1.0, abs(b)) for a, b in zip(got, ks)):
        fails.append("sweep rows are not one sorted row per k")
    if any(not 0.0 <= float(r[1]) <= 1.0 for r in rows):
        fails.append("alpha_star outside [0, 1]")
    return fails


def check_capstruct(op: dict, scenario: dict, out: Path) -> list[str]:
    header, rows = read_csv(out / "legs.csv")
    y = scenario["output"]
    fails = []
    if [r[0] for r in rows] != list(scenario["states"]):
        fails.append("legs.csv does not list every state once")
    for r, yi in zip(rows, y):
        legs = [float(v) for v in r[2:]]
        if abs(float(r[1]) - yi) > 1e-9 or abs(sum(legs) - yi) > 1e-9:
            fails.append(f"state {r[0]}: legs do not add up to output")
    return fails


def check_kkt(op: dict, scenario: dict, out: Path) -> list[str]:
    summary = json.loads((out / "summary.json").read_text())
    tol = float(_flag(op["flags"], "--tol", 1e-10))
    _, rows = read_csv(out / "residuals.csv")
    fails = []
    if not summary["converged"]:
        fails.append("converged is false")
    if not summary["max_residual"] <= tol:
        fails.append(f"max_residual {summary['max_residual']:.3g} above tol {tol:g}")
    if len(rows) != len(scenario["states"]):
        fails.append("residuals.csv does not have one row per state")
    return fails


_CHECKS = {
    "solve": check_solve,
    "alpha-star": check_alpha_star,
    "verify": check_verify,
    "sweep": check_sweep,
    "capstruct": check_capstruct,
    "kkt": check_kkt,
}
