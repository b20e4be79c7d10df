"""Mutants of ``src/agentcap/`` and the tests that must kill them, with the
standard library alone.

Each ``Mutant`` names a file under ``src/``, a text that occurs in it
exactly once, the text that replaces it, and the test ids that must catch
the change. The runner copies ``src/`` to a temporary directory, applies one
mutant there and runs its tests (``pytest -x``) from the repository root
with ``PYTHONPATH`` pointing at the copy first. A mutant is killed when a
test fails, and survives when they all pass. The runner prints one line per
mutant and exits 1 when a mutant survives or its tests could not run (a
collection error, say), else 0. ``tests/test_mutants.py`` checks in tier-1
that each text still occurs exactly once and each test still exists.

    python tests/mutants.py              # every mutant
    python tests/mutants.py NAME ...     # the named ones
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    file: str  # under src/
    text: str
    replacement: str
    tests: tuple[str, ...]


CENTRES = "tests/test_ball_scan.py::test_quadratic_centres_of_rows_on_many_faces_agree"
FLAT = ("tests/test_agent.py::test_convex_singular_q_panel",)
SHIFTS = ("tests/test_relations.py::test_shifting_the_payments",)
BOUND = "tests/test_ball_scan.py::test_bound_enumeration_keeps_the_frontier_and_selections"
REFEREE = ("tests/test_capstruct.py::test_one_pass_sweep_matches_fresh_and_replayed_enumerations",)

MUTANTS = [
    # the quadratic centre solver's faces of one active-set step
    Mutant("face-slots-in-sorted-order", "agentcap/agent.py",
           "slot[order] = np.cumsum(first) - 1", "slot[:] = np.cumsum(first) - 1", (CENTRES,)),
    Mutant("faces-not-distinct", "agentcap/agent.py",
           "_quadratic_faces(Q, q0, grouped[first], flat)", "_quadratic_faces(Q, q0, grouped, flat)",
           (CENTRES,)),
    Mutant("flat-null-projector-complement", "agentcap/agent.py",
           "(np.eye(size + 1) - inv @ M)[:, :size, :size]", "(inv @ M)[:, :size, :size]", FLAT),
    Mutant("flat-null-never-built", "agentcap/agent.py",
           "null = np.zeros((masks.size, n, n)) if flat else None", "null = None", FLAT),
    Mutant("flat-null-step-skipped", "agentcap/agent.py",
           "        if flat:\n            up = ", "        if False:\n            up = ", FLAT),
    # the routes' row maxima and tie cuts
    Mutant("full-scan-row-max-at-zero", "agentcap/agent.py",
           "running = np.full(len(util), -np.inf)", "running = np.zeros(len(util))", SHIFTS),
    Mutant("ball-tie-floor-of-abs", "agentcap/agent.py",
           "tie_floor(best, tol_u)[owner]", "tie_floor(np.abs(best), tol_u)[owner]", SHIFTS),
    Mutant("ball-chunks-stop-a-row-early", "agentcap/agent.py",
           "for start in range(0, n_c, per):", "for start in range(0, n_c - 1, per):",
           ("tests/test_ball_scan.py::test_chunked_ball_route_matches_one_chunk",)),
    Mutant("ball-points-lo-off-by-one", "agentcap/agent.py",
           "np.ceil(m * (mid - half) - m * _ROUND), 0)", "np.ceil(m * (mid - half) - m * _ROUND) + 1, 0)",
           ("tests/test_ball_scan.py",)),
    Mutant("lattice-rank-swaps-first-two", "agentcap/model.py",
           "rank += _rank_step(binom, left, counts[:, j], n - 1 - j)\n        left = left - counts[:, j]",
           "c = counts[:, [1, 0, *range(2, n)][j]]\n"
           "        rank += _rank_step(binom, left, c, n - 1 - j)\n        left = left - c",
           ("tests/test_ball_scan.py::test_lattice_rank_is_lattice_order",)),
    # the lattice as counts: the one gather and the blocked pricing
    Mutant("at-divides-by-m-minus-one", "agentcap/model.py",
           "[ids], self.m)", "[ids], self.m - 1)",
           ("tests/test_model.py::test_at_gathers_the_coordinates_simplex_lattice_holds",)),
    Mutant("pricing-stride-skips-a-row", "agentcap/model.py",
           "for start in range(0, size, rows):", "for start in range(0, size, rows + 1):",
           ("tests/test_model.py::test_blocked_pricing_equals_one_call",)),
    Mutant("pricing-builds-a-table-per-block", "agentcap/model.py",
           "return partial(self._priced, table=self._lookup())", "return self.value_many",
           ("tests/test_model.py::test_blocked_pricing_builds_a_lookup_table_once",)),
    # the bound enumeration's drop step, and the bound it rests on
    Mutant("drop-without-agent-tol", "agentcap/agent.py",
           "(lb - tol_u, ub + margin + tol_u,", "(lb, ub + margin,", (BOUND,)),
    Mutant("payoff-range-without-radius", "agentcap/agent.py",
           "reach = np.sqrt(r2) * spread", "reach = 0.0 * spread", (BOUND,)),
    Mutant("quadratic-bound-without-frank-wolfe", "agentcap/agent.py",
           "return mu, centre, value + np.maximum(fw_gap, 0.0)", "return mu, centre, value",
           ("tests/test_ball_scan.py::test_ball_route_with_crude_centres",
            "tests/test_ball_scan.py::test_bound_holds_for_any_multiplier_and_centre")),
    Mutant("ball-block-is-the-route-chunk", "agentcap/agent.py",
           "_BALL_BLOCK = 1 << 18", "_BALL_BLOCK = _CHUNK",
           ("tests/test_ball_scan.py::test_ball_route_working_memory",)),
    # the sweep's one pass
    Mutant("chain-row-max-floored-at-zero", "agentcap/pareto.py",
           "running[0] = first.row_max", "running[0] = np.maximum(first.row_max, 0.0)", SHIFTS),
    Mutant("chain-floor-of-previous-contract", "agentcap/pareto.py",
           "agent_u >= floors[i, cid]", "agent_u >= floors[i, cid - 1]", REFEREE),
    Mutant("chain-floor-test-strict", "agentcap/pareto.py",
           "agent_u >= floors[i, cid]", "agent_u > floors[i, cid]", REFEREE),
    Mutant("chain-ties-of-the-band-above", "agentcap/pareto.py",
           "(found <= i)", "(found <= i + 1)", REFEREE),
    Mutant("chain-budget-keeps-the-failing-capacity", "agentcap/pareto.py",
           "failure, ascending = exc, ascending[:i]", "failure, ascending = exc, ascending[:i + 1]",
           ("tests/test_capstruct.py::test_one_pass_sweep_stops_at_the_first_failing_capacity",)),
    Mutant("sweep-grid-sorted-with-nan-in-place", "agentcap/capstruct.py",
           'np.sort(np.array([float(k) for k in k_grid]), kind="stable").tolist()',
           "sorted(float(k) for k in k_grid)",
           ("tests/test_capstruct.py::test_sweep_failure_does_not_depend_on_the_grid_order",)),
    # the alpha layer
    Mutant("bisect-level-from-output", "agentcap/scaling.py",
           "float(e.exp_payment[row] - e.cost[row])", "float(e.exp_output[row] - e.cost[row])",
           ("tests/test_relations.py::test_scaling_the_output",)),
    Mutant("selection-near-emptied", "agentcap/pareto.py",
           "st.agent >= np.array(floors).reshape(-1, 1), near",
           "st.agent >= np.array(floors).reshape(-1, 1), []",
           ("tests/test_pareto.py::test_stacked_selection_is_the_first_clustered_level_above",)),
    Mutant("agent-order-cuts-at-a-quarter-tol", "agentcap/pareto.py",
           "apart &= np.subtract(a[1:], a[:-1], out=d) > tol", "apart = np.subtract(a[1:], a[:-1], out=d) > tol / 4",
           ("tests/test_pareto.py::test_stacked_selection_is_the_first_clustered_level_above",)),
    Mutant("affine-curvature-noise-never-dropped", "agentcap/kkt.py",
           "<= CURVATURE_NOISE * point.system_residual", "<= 0.0 * point.system_residual",
           ("tests/test_kkt.py::test_affine_readout_counts_solve_noise_as_no_curvature",)),
    # the scenario's checks and the kinds' interface
    Mutant("effort-distribution-lengths-unchecked", "agentcap/model.py",
           "if len({len(d) for d in self.distributions}) != 1:", "if False:",
           ("tests/test_model.py::test_effort_distributions_must_share_one_length",
            "tests/test_cli.py::test_exit_code_cost_shape")),
    Mutant("cost-dimension-unchecked", "agentcap/model.py",
           "    if _cost_dimension(s.cost) != n:", "    if False:",
           ("tests/test_cli.py::test_exit_code_cost_shape",)),
    Mutant("table-hessian-is-zeros", "agentcap/model.py",
           'raise DifferentiabilityError(f"{self.kind} cost has no hessian")',
           "return np.zeros(np.shape(p) + np.shape(p)[-1:])",
           ("tests/test_model.py::test_table_cost_lookup",)),
    # labels, lattice rounding and the CSV cell rule
    Mutant("product-labels-first-axis-fastest", "agentcap/model.py",
           "for axis in reversed(self.axes):", "for axis in self.axes:",
           ("tests/test_model.py::test_label_of_every_id_is_the_eager_label",)),
    Mutant("nearest-counts-strict-tie-order", "agentcap/model.py",
           "ahead = key[i] <= key[j]", "ahead = key[i] < key[j]",
           ("tests/test_ball_scan.py::test_nearest_counts_match_the_argsort_reference",)),
    Mutant("csv-empty-record-unquoted", "agentcap/cli.py",
           "[c or '\"\"' for c in cells[0]]", "list(cells[0])",
           ("tests/test_cli.py::test_table_writer_matches_csv_writer_on_the_cell_rule",)),
    Mutant("csv-nan-not-blanked", "agentcap/cli.py",
           '["" if v != v else c for v, c in zip(values, cells)]', "cells[:len(values)]",
           ("tests/test_cli.py::test_table_writer_matches_csv_writer_on_the_cell_rule",)),
]


def run(mutant: Mutant) -> str:
    """'killed', 'survived' or 'error' (pytest exit code other than 0 or 1)
    for one mutant, its tests run on a mutated copy of ``src/``."""
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        path = src / mutant.file
        text = path.read_text()
        if text.count(mutant.text) != 1:
            return "error"
        path.write_text(text.replace(mutant.text, mutant.replacement))
        paths = [str(src), *filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep))]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths), "PYTHONDONTWRITEBYTECODE": "1"}
        code = subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                               *mutant.tests], cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL).returncode
    return {0: "survived", 1: "killed"}.get(code, "error")


def main(names: list[str]) -> int:
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {', '.join(sorted(unknown))}")
        return 2
    results = {}
    for mutant in MUTANTS:
        if not names or mutant.name in names:
            results[mutant.name] = run(mutant)
            print(f"{results[mutant.name]:8} {mutant.name}", flush=True)
    killed = sum(r == "killed" for r in results.values())
    print(f"{killed} of {len(results)} mutants killed")
    return 0 if killed == len(results) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
