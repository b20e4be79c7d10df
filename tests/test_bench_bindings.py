"""The benchmark's tracer wraps package attributes by name; a renamed or
removed one would only surface in a traced benchmark run."""

import importlib.util
from pathlib import Path

from agentcap.pareto import Enumeration

from conftest import ladder_scenario

CHILD = Path(__file__).resolve().parents[1] / "perfbench" / "child.py"


def test_every_traced_binding_exists():
    spec = importlib.util.spec_from_file_location("perfbench_child", CHILD)
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    targets = child.layer_targets()
    assert targets
    for owner, attr, layer, _ in targets:
        assert callable(vars(owner)[attr]), (owner, attr, layer)
    # the enumeration span reads the profile arrays off the instance
    (scan,) = [fn for _, _, layer, fn in targets if layer == "pareto.enumeration"]
    enum = Enumeration(ladder_scenario())
    assert scan((enum,), {}, None) == {
        "evals": len(enum.labels) * len(enum.points), "rows": enum.agent_u.size}
