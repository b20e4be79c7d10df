"""The output checker accepts real CLI outputs and rejects tampered ones.

Run from the repository root: python3 -m pytest perfbench/tests
"""

import csv
import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import gen  # noqa: E402
from agentcap import cli  # noqa: E402
from check import check_op  # noqa: E402
from oracle import dominated  # noqa: E402


def _run(tmp_path: Path, op) -> tuple[dict, dict, Path]:
    scenario_path = tmp_path / "scenario.json"
    scenario_path.write_text(json.dumps(op.scenario))
    out = tmp_path / "out"
    code = cli.main([op.command, "--scenario", str(scenario_path), "--out", str(out), *op.flags])
    assert code == 0
    meta = {"command": op.command, "flags": op.flags}
    assert check_op(meta, op.scenario, out, code) == []
    return meta, op.scenario, out


def _small(command: str, seed: int = 3):
    for i in range(gen.SMALL_COMMANDS.index(command), 200, len(gen.SMALL_COMMANDS)):
        op = gen.make_op("small-queries", seed, i)
        if op.meta["binding_level"]:
            return op
    raise AssertionError("no instance with a capacity-binding level")


def _fails_with(meta: dict, scenario: dict, out: Path, text: str) -> None:
    failures = check_op(meta, scenario, out, 0)
    assert any(text in f for f in failures), failures


def _rewrite(path: Path, edit) -> None:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    rows = edit(rows)
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def test_solve_tampered_frontier_row_fails(tmp_path):
    meta, scenario, out = _run(tmp_path, _small("solve"))
    step = 1.0 / scenario["simplex_grid"]

    def shift(rows):
        # move one lattice step of mass between two states of the first row:
        # the row stays on the lattice but is no longer a best response
        header, first = rows[0], list(rows[1])
        cols = [j for j, h in enumerate(header) if h.startswith("p_")]
        src = max(cols, key=lambda j: float(first[j]))
        dst = cols[0] if src != cols[0] else cols[1]
        first[src] = format(float(first[src]) - step, ".12g")
        first[dst] = format(float(first[dst]) + step, ".12g")
        return [header, first, *rows[2:]]

    _rewrite(out / "pareto.csv", shift)
    _fails_with(meta, scenario, out, "not a best response")


def test_solve_dropped_selection_row_fails(tmp_path):
    meta, scenario, out = _run(tmp_path, _small("solve"))
    _rewrite(out / "selection.csv", lambda rows: rows[:1])
    _fails_with(meta, scenario, out, "selection is not the frontier")


# (302, 4): two frontier rows 6.4e-9 apart in agent utility, beyond tol_u = 1e-9
@pytest.mark.parametrize("seed,index", [(1, 5), (302, 4)])
def test_large_solve_output_passes(tmp_path, seed, index):
    _run(tmp_path, gen.make_op("large-solve", seed, index))


def test_dominance_margins_allow_only_for_cell_rounding():
    tol, slack = 1e-9, 1e-11
    # worse by more than tol in one payoff: neither row dominates
    assert not dominated(np.array([0.0, -6.4e-9]), np.array([0.0, 5e-3]), tol, slack).any()
    # a tie in one payoff and better by more than tol in the other dominates
    assert dominated(np.array([0.0, 2e-9]), np.array([0.0, 0.0]), tol, slack).tolist() == [True, False]
    # within the cells' rounding of the margin: not flagged
    assert not dominated(np.array([0.0, tol + slack / 2]), np.array([0.0, 0.0]), tol, slack).any()


def test_alpha_star_widened_bracket_fails(tmp_path):
    meta, scenario, out = _run(tmp_path, _small("alpha-star"))
    summary = json.loads((out / "summary.json").read_text())
    summary["bracket_high"] = min(1.0, summary["bracket_low"] + 0.5)
    (out / "summary.json").write_text(json.dumps(summary))
    _fails_with(meta, scenario, out, "bracket width")


def test_verify_reported_converse_failure_fails(tmp_path):
    meta, scenario, out = _run(tmp_path, _small("verify"))

    def flip(rows):
        col = rows[0].index("converse_ok")
        tested = rows[0].index("tested")
        rows[1][tested], rows[1][col] = "true", "false"
        return rows

    _rewrite(out / "checks.csv", flip)
    _fails_with(meta, scenario, out, "inclusion or converse fails")


def test_sweep_duplicate_row_fails(tmp_path):
    meta, scenario, out = _run(tmp_path, gen.make_op("k-sweep", 1, 0))
    _rewrite(out / "sweep.csv", lambda rows: rows + [rows[-1]])
    _fails_with(meta, scenario, out, "one sorted row per k")


def test_capstruct_legs_not_adding_up_fails(tmp_path):
    meta, scenario, out = _run(tmp_path, _small("capstruct"))

    def bump(rows):
        rows[1][2] = format(float(rows[1][2]) + 1e-3, ".12g")
        return rows

    _rewrite(out / "legs.csv", bump)
    _fails_with(meta, scenario, out, "do not add up")


@pytest.mark.parametrize("field,value", [("converged", False), ("max_residual", 1.0)])
def test_kkt_unconverged_summary_fails(tmp_path, field, value):
    op = gen.make_op("small-queries", 1, 9)
    meta, scenario, out = _run(tmp_path, op)
    summary = json.loads((out / "summary.json").read_text())
    summary[field] = value
    (out / "summary.json").write_text(json.dumps(summary))
    _fails_with(meta, scenario, out, field)


def test_nonzero_exit_is_a_failure(tmp_path):
    assert check_op({"command": "kkt", "flags": []}, {}, tmp_path, 6) == ["exit code 6"]
