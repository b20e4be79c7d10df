"""End-to-end time metrics are scaled by the yardstick samples taken before
each op, and the yardstick task is fixed, runs and cleans up after itself.

Run from the repository root: python3 -m pytest perfbench/tests
"""

import gc
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(HERE)]

import gen  # noqa: E402
from metrics import end_to_end  # noqa: E402
from yardstick import Yardstick  # noqa: E402


def _op(latency, yardstick, nominal=0, ok=True, command="solve"):
    return {"command": command, "latency_s": latency, "yardstick_s": yardstick,
            "nominal": nominal, "ok": ok}


def test_latencies_are_scaled_to_the_reference_speed():
    # the host ran the yardstick in twice the reference time, then at it
    ops = [_op(0.4, 0.02, nominal=100), _op(0.1, 0.01, nominal=100), _op(9.0, 0.01, ok=False)]
    metrics, info = end_to_end(ops, [0.3, 0.5, 0.4], 2048.0, yardstick_ref_s=0.01)
    assert metrics["op_s.p50"][0] == pytest.approx(0.15)
    assert metrics["solve_s"][0] == pytest.approx(0.15)
    assert metrics["exact_evals_per_s"][0] == pytest.approx(200 / 0.3)
    assert info["unscaled"]["op_s.p50"] == pytest.approx(0.25)
    assert info["unscaled"]["exact_evals_per_s"] == pytest.approx(200 / 0.5)
    assert info["host_speed"] == {"median": 0.75, "min": 0.5, "max": 1.0}
    # set-up time, memory and failures are not scaled
    assert metrics["setup_s"][0] == 0.4
    assert metrics["peak_rss_mb"][0] == 2.0
    assert metrics["fail_ratio"][0] == pytest.approx(1 / 3)


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_yardstick_is_fixed_and_leaves_nothing_behind(tmp_path, workload):
    scenario, capacities = gen.yardstick_op(workload)
    assert gen.yardstick_op(workload) == (scenario, capacities)
    (tmp_path / "scenario.json").write_text(json.dumps(scenario))
    (tmp_path / "yardstick.json").write_text(json.dumps({"capacities": capacities}))
    stick = Yardstick(tmp_path, tmp_path / "yardstick.csv")
    assert gc.isenabled()
    assert 0.0 < stick.run() < 5.0
    assert gc.isenabled()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["scenario.json", "yardstick.json"]
