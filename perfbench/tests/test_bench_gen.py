"""The generator is deterministic and keeps each workload's stated properties.

Run from the repository root: python3 -m pytest perfbench/tests
"""

import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(HERE)]

import gen  # noqa: E402
from oracle import cost_values, feasible, lattice  # noqa: E402


@pytest.mark.parametrize("seed", [1, 210])
def test_large_solve_shapes_are_distinct_and_evaluations_in_band(seed):
    ops = [gen.make_op("large-solve", seed, i) for i in range(141)]
    shapes = [(o.meta["n"], o.meta["m"]) for o in ops]
    warm = gen.warmup_op("large-solve", seed)
    assert len(set(shapes)) == len(shapes)
    assert (warm.meta["n"], warm.meta["m"]) not in shapes
    for o in ops:
        assert 0.9 * gen.BUDGET <= o.nominal < gen.BUDGET
        pts, _ = feasible(o.scenario)
        assert o.nominal == o.meta["contracts"] * len(pts)


def test_same_seed_same_ops():
    for workload in gen.WORKLOADS:
        a, b = gen.make_op(workload, 5, 7), gen.make_op(workload, 5, 7)
        assert (a.scenario, a.flags, a.nominal) == (b.scenario, b.flags, b.nominal)


def test_small_queries_alternate_aligned_and_generic_capacities():
    for i in range(40):
        op = gen.make_op("small-queries", 2, i)
        s = op.scenario
        costs = cost_values(s["cost"], lattice(len(s["states"]), s["simplex_grid"]))
        nearest = np.abs(costs - s["capacity"]).min()
        if op.meta["aligned"]:
            assert nearest <= 1e-12
        else:
            assert nearest > 1e-8
        assert 30 <= op.meta["contracts"] <= 300 and 40 <= s["simplex_grid"] <= 100


def test_k_sweep_grid_mixes_tangency_and_generic_capacities():
    op = gen.make_op("k-sweep", 1, 3)
    m = op.scenario["simplex_grid"]
    lattice_costs = (np.arange(m + 1) / m) ** 2
    ks = [float(k) for k in op.flags[op.flags.index("--k-grid") + 1].split(",")]
    assert len(ks) >= 9 and len(set(ks)) == len(ks)
    on_lattice = [np.abs(lattice_costs - k).min() <= 1e-12 for k in ks]
    assert sum(on_lattice) == gen.SWEEP_K_ALIGNED
    assert sum(not x for x in on_lattice) == gen.SWEEP_K_GENERIC
    assert op.meta["contracts"] == 900 and 1000 <= m <= 4000
