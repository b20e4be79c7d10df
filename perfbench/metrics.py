"""End-to-end and per-layer metrics from op records and spans.

End-to-end metrics come from untraced children: per-op latencies scaled to
the reference host speed by the yardstick samples taken before each op, the
nominal evaluation counts the generator computed, set-up samples and the
children's peak memory. Per-layer metrics come from a traced child's spans and
are per op (mean over the traced ops) unless they are ratios or rates.
"""

from __future__ import annotations

import math
import statistics

from tracer import ancestors, self_times

COMMAND_METRIC = {
    "solve": "solve_s",
    "alpha-star": "alpha_star_s",
    "verify": "verify_s",
    "sweep": "sweep_s",
    "capstruct": "capstruct_s",
    "kkt": "kkt_s",
}

TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def tail(latencies: list[float]) -> tuple[float, float]:
    """(percentile, value) for the highest ladder percentile that leaves at
    least ten samples above it; the median when there are too few samples."""
    xs = sorted(latencies)
    n = len(xs)
    for pct in TAIL_LADDER:
        rank = math.ceil(pct / 100.0 * n)
        if n - rank >= 10:
            return pct, xs[rank - 1]
    return 50.0, statistics.median(xs)


def _timing(done: list[dict], key: str) -> tuple[float, float, float, float]:
    """(p50, tail percentile, tail value, evaluations per second) of the
    latencies ``o[key]``."""
    lat = [o[key] for o in done]
    pct, tail_value = tail(lat)
    enum = [o for o in done if o["nominal"] > 0]
    rate = sum(o["nominal"] for o in enum) / sum(o[key] for o in enum) if enum else 0.0
    return statistics.median(lat), pct, tail_value, rate


def end_to_end(ops: list[dict], setup_samples: list[float], peak_rss_kb: float,
               yardstick_ref_s: float) -> dict:
    """``ops``: dicts with command, latency_s, yardstick_s, nominal and ok.
    Latencies are those of the successful ops; failures are counted in
    fail_ratio. An op's latency is scaled by yardstick_ref_s over its
    yardstick time (the median of the last samples before it): the time it
    would have taken on a host running the yardstick in yardstick_ref_s."""
    done = [o for o in ops if o["ok"]] or ops
    speeds = [yardstick_ref_s / o["yardstick_s"] for o in done]
    for o, speed in zip(done, speeds):
        o["scaled_s"] = o["latency_s"] * speed
    p50, pct, tail_value, rate = _timing(done, "scaled_s")
    raw_p50, _, raw_tail, raw_rate = _timing(done, "latency_s")
    out = {
        "op_s.p50": (p50, "s"),
        "op_s.tail": (tail_value, "s"),
        "exact_evals_per_s": (rate, "1/s"),
        "setup_s": (statistics.median(setup_samples), "s"),
        "peak_rss_mb": (peak_rss_kb / 1024.0, "MB"),
    }
    for command, name in COMMAND_METRIC.items():
        xs = [o["scaled_s"] for o in done if o["command"] == command]
        if xs:
            out[name] = (statistics.median(xs), "s")
    out["fail_ratio"] = (sum(1 for o in ops if not o["ok"]) / len(ops), "ratio")
    info = {"op_s.tail_percentile": pct, "op_s.samples": len(done),
            "setup_samples": len(setup_samples),
            "host_speed": {"median": statistics.median(speeds), "min": min(speeds), "max": max(speeds)},
            "unscaled": {"op_s.p50": raw_p50, "op_s.tail": raw_tail, "exact_evals_per_s": raw_rate}}
    return out, info


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(spans: list[list], n_ops: int, cache_hits: int, cache_misses: int,
              rows_out: int, bytes_out: int) -> dict:
    """Per-layer metrics over ``n_ops`` traced ops; layers an op never
    reaches read 0."""
    selfs = self_times(spans)
    anc = ancestors(spans)
    time_of: dict[str, float] = {}
    calls: dict[str, int] = {}
    attr: dict[tuple[str, str], float] = {}
    predicate_calls = 0
    lattice_under_feasible = 0
    for s in spans:
        name, sid, extra = s[3], s[1], s[6]
        time_of[name] = time_of.get(name, 0.0) + selfs[sid]
        calls[name] = calls.get(name, 0) + 1
        for key, value in (extra or {}).items():
            attr[name, key] = attr.get((name, key), 0.0) + value
        if name == "pareto.select" and "scaling.alpha_star" in anc[sid]:
            predicate_calls += 1
        if name == "model.cost_eval" and anc[sid][:1] == ["agent.feasible_lattice"]:
            lattice_under_feasible += (extra or {}).get("points", 0)

    def per_op(x: float) -> float:
        return x / n_ops

    def t(name: str) -> float:
        return per_op(time_of.get(name, 0.0))

    evals = attr.get(("pareto.enumeration", "evals"), 0.0)
    return {
        "pareto.scan_s": (t("pareto.enumeration"), "s"),
        "pareto.scan_evals_per_s": (_ratio(evals, time_of.get("pareto.enumeration", 0.0)), "1/s"),
        "pareto.scan_tie_ratio": (_ratio(attr.get(("pareto.enumeration", "rows"), 0.0), evals), "ratio"),
        "pareto.enumerations": (per_op(calls.get("pareto.enumeration", 0)), "count"),
        "pareto.frontier_s": (t("pareto.frontier"), "s"),
        "pareto.frontier_rows": (per_op(attr.get(("pareto.frontier", "rows"), 0.0)), "count"),
        "pareto.mask_calls": (per_op(calls.get("pareto.mask", 0)), "count"),
        "pareto.mask_s": (t("pareto.mask"), "s"),
        "pareto.select_calls": (per_op(calls.get("pareto.select", 0)), "count"),
        "pareto.select_s": (t("pareto.select"), "s"),
        "model.lattice_s": (t("model.lattice"), "s"),
        "model.lattice_points": (per_op(attr.get(("model.lattice", "points"), 0.0)), "count"),
        "model.lattice_cache_hit_ratio": (_ratio(cache_hits, cache_hits + cache_misses), "ratio"),
        "model.validate_s": (t("model.validate"), "s"),
        "model.cost_eval_s": (t("model.cost_eval"), "s"),
        "model.cost_eval_points": (per_op(attr.get(("model.cost_eval", "points"), 0.0)), "count"),
        "model.payment_matrix_s": (t("model.payment_matrix"), "s"),
        "model.payment_matrix_contracts": (per_op(attr.get(("model.payment_matrix", "contracts"), 0.0)), "count"),
        "agent.feasible_lattice_s": (t("agent.feasible_lattice"), "s"),
        "agent.feasible_ratio": (
            _ratio(attr.get(("agent.feasible_lattice", "feasible"), 0.0), lattice_under_feasible), "ratio"),
        "agent.best_response_s": (t("agent.best_response"), "s"),
        "scaling.alpha_star_s": (t("scaling.alpha_star"), "s"),
        "scaling.predicate_calls": (per_op(predicate_calls), "count"),
        "scaling.verify_s": (t("scaling.verify"), "s"),
        "scaling.verify_tested_ratio": (
            _ratio(attr.get(("scaling.verify", "tested"), 0.0), attr.get(("scaling.verify", "checks"), 0.0)),
            "ratio"),
        "capstruct.sweep_s": (t("capstruct.sweep"), "s"),
        "capstruct.sweep_k": (per_op(attr.get(("capstruct.sweep", "k"), 0.0)), "count"),
        "kkt.init_s": (t("kkt.init"), "s"),
        "kkt.solve_s": (t("kkt.solve"), "s"),
        "kkt.affine_s": (t("kkt.affine"), "s"),
        "kkt.converged_ratio": (
            _ratio(attr.get(("kkt.solve", "converged"), 0.0), calls.get("kkt.solve", 0)), "ratio"),
        "cli.self_s": (t("cli.main"), "s"),
        "cli.load_s": (t("cli.load"), "s"),
        "cli.rows_out": (per_op(rows_out), "count"),
        "cli.bytes_out": (per_op(bytes_out), "B"),
    }
