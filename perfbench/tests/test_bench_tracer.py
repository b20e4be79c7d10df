"""The outside-in tracer records spans, links parents across threads,
computes self time from the union of child intervals and restores every
wrapped attribute.

Run from the repository root: python3 -m pytest perfbench/tests
"""

import json
import sys
import time
import types
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

HERE = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import gen  # noqa: E402
from child import layer_targets  # noqa: E402
from tracer import Tracer, self_times  # noqa: E402


def _toy():
    mod = types.SimpleNamespace()

    def leaf(d):
        time.sleep(d)
        return d

    def fan_out():
        with ThreadPoolExecutor(max_workers=2) as pool:
            return list(pool.map(mod.leaf, [0.05, 0.05]))

    class Box:
        def run(self):
            return mod.fan_out()

    mod.leaf, mod.fan_out, mod.Box = leaf, fan_out, Box
    return mod


def test_worker_spans_hang_off_the_span_that_started_them():
    mod = _toy()
    targets = [(mod.Box, "run", "box.run", None), (mod, "fan_out", "fan_out", None),
               (mod, "leaf", "leaf", lambda a, k, r: {"d": r})]
    with Tracer(targets) as tr:
        tr.begin_op(0)
        mod.Box().run()
    by_name = {}
    for s in tr.spans:
        by_name.setdefault(s[3], []).append(s)
    (fan,) = by_name["fan_out"]
    (box,) = by_name["box.run"]
    assert fan[2] == box[1]
    assert [s[2] for s in by_name["leaf"]] == [fan[1], fan[1]]
    assert all(s[0] == 0 and s[6] == {"d": 0.05} for s in by_name["leaf"])
    selfs = self_times(tr.spans)
    # the two leaves overlap in time; subtracting them one by one would
    # make fan_out's self time negative
    assert 0.0 <= selfs[fan[1]] < 0.04


def test_self_time_subtracts_the_union_of_children():
    spans = [[0, 1, None, "p", 0.0, 10.0, None],
             [0, 2, 1, "a", 1.0, 4.0, None],
             [0, 3, 1, "b", 3.0, 6.0, None],
             [0, 4, 1, "c", 8.0, 12.0, None]]
    selfs = self_times(spans)
    assert selfs[1] == 10.0 - 5.0 - 2.0
    assert selfs[2] == 3.0 and selfs[4] == 4.0


def test_wrappers_are_restored_on_exit():
    mod = _toy()
    originals = (mod.leaf, mod.fan_out, vars(mod.Box)["run"])
    targets = [(mod.Box, "run", "box.run", None), (mod, "fan_out", "fan_out", None),
               (mod, "leaf", "leaf", None)]
    try:
        with Tracer(targets):
            assert mod.leaf is not originals[0]
            raise RuntimeError("leave the block by an exception")
    except RuntimeError:
        pass
    assert (mod.leaf, mod.fan_out, vars(mod.Box)["run"]) == originals


def test_agentcap_layers_are_traced_and_restored(tmp_path):
    from agentcap import cli

    targets = layer_targets()
    before = [vars(owner)[attr] for owner, attr, _, _ in targets]
    op = gen.make_op("k-sweep", 1, 0)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(op.scenario))
    with Tracer(targets) as tr:
        tr.begin_op(0)
        assert cli.main([op.command, "--scenario", str(path), "--out", str(tmp_path / "out"), *op.flags]) == 0
    assert [vars(owner)[attr] for owner, attr, _, _ in targets] == before
    names = {s[3] for s in tr.spans}
    assert {"cli.main", "cli.load", "model.validate", "capstruct.sweep", "scaling.alpha_star",
            "pareto.enumeration", "pareto.select", "model.lattice", "model.cost_eval"} <= names
    sweep = next(s for s in tr.spans if s[3] == "capstruct.sweep")
    per_k = [s for s in tr.spans if s[3] == "scaling.alpha_star"]
    assert len(per_k) == len(op.meta["k_grid"]) and all(s[2] == sweep[1] for s in per_k)
    assert all(s[5] >= s[4] for s in tr.spans)
