"""Outside-in benchmark of the ``agentcap`` CLI.

    python3 perfbench/run.py --workload large-solve --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all      # every workload, untraced and traced

A run generates its scenario files from the seed, drives the public CLI entry
point in fresh child processes, checks every op's outputs with the
benchmark's own referee, and prints two JSON lines: a detail record (mix,
environment, per-command latencies, digests, tail percentile) and, last, the
result ``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` a second child runs
the same ops under the tracer and the metrics are the per-layer ones plus
the tracing overhead. ``--workload all`` prints every metric as a table.

A run executes a fixed number of ops, ``--seconds`` times the workload's
calibrated rate, so that one seed always gives the same inputs, counts and
failures; ``--seconds`` sets how much work is measured. The end-to-end time
metrics are scaled to a reference host speed by a yardstick task that runs
between ops (``yardstick.py``); the detail line keeps the raw figures.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import gen  # noqa: E402
from check import check_op, read_csv  # noqa: E402
from metrics import end_to_end, per_layer  # noqa: E402

DEFAULT_SEED = 1
END_TO_END = ("op_s.p50", "op_s.tail", "exact_evals_per_s", "setup_s", "peak_rss_mb")
# ops per second of --seconds, sized on a 2-core x86 box so that a whole run,
# generation, yardstick samples and checks included, takes about --seconds
RATE = {"large-solve": 4.7, "small-queries": 60.0, "k-sweep": 4.5}
# fresh processes that share an untraced run's ops in contiguous blocks; each
# gives one set-up sample and one peak-memory sample, and their medians are
# reported, because a sweep's peak memory varies from process to process with
# how its thread pool's workers overlap
MEASURING_PROCESSES = 7
# the yardstick runs before every K-th op; small-queries' ops take a few
# milliseconds, so it samples every fourth, and on every workload the samples
# cost under a tenth of the ops' time
YARDSTICK_EVERY = {"large-solve": 1, "small-queries": 4, "k-sweep": 1}
# a yardstick time measured on the 2-core x86 box where the bounds were set:
# the time metrics are reported as if the host ran the yardstick this fast
YARDSTICK_REF_S = {"large-solve": 0.005, "small-queries": 0.0015, "k-sweep": 0.015}
DEADLINE_S = 170.0
DIGESTS = HERE / "reference_digests.json"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
WORK = ROOT / ".perfbench_work"


class BenchError(RuntimeError):
    pass


def n_ops(workload: str, seconds: float) -> int:
    return max(5, round(seconds * RATE[workload]))


# ---------------------------------------------------------------------------
# Child processes


def _child(args: list[str], work: Path, deadline: float) -> None:
    work.mkdir(parents=True, exist_ok=True)
    cmd = [sys.executable, str(HERE / "child.py"), "--root", str(ROOT), "--work", str(work), *args]
    with open(work / "stderr.txt", "ab") as err:
        try:
            proc = subprocess.run(cmd, stdout=err, stderr=err, cwd=ROOT,
                                  timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            raise BenchError("child process timed out") from None
    if proc.returncode != 0:
        tail_text = (work / "stderr.txt").read_text(errors="replace")[-2000:]
        raise BenchError(f"child exited {proc.returncode}:\n{tail_text}")


def _write_op(d: Path, op: gen.Op) -> None:
    d.mkdir(parents=True)
    (d / "scenario.json").write_text(json.dumps(op.scenario))
    (d / "op.json").write_text(json.dumps(
        {"index": op.index, "command": op.command, "flags": op.flags,
         "nominal": op.nominal, "meta": op.meta}))


def generate(workload: str, seed: int, count: int, work: Path) -> int:
    """Write the yardstick, the warm-up op and ops 0..count-1; returns how
    many ops exist (fewer than count only when large-solve runs out of
    distinct shapes)."""
    scenario, capacities = gen.yardstick_op(workload)
    (work / "yardstick").mkdir(parents=True)
    (work / "yardstick" / "scenario.json").write_text(json.dumps(scenario))
    (work / "yardstick" / "yardstick.json").write_text(json.dumps({"capacities": capacities}))
    _write_op(work / "warmup", gen.warmup_op(workload, seed))
    for i in range(count):
        op = gen.make_op(workload, seed, i)
        if op is None:
            return i
        _write_op(work / "ops" / str(i), op)
    return count


# ---------------------------------------------------------------------------
# Checking a child's ops


def _csv_outputs(out: Path) -> list[Path]:
    return sorted(out.glob("*.csv")) if out.is_dir() else []


def _digest(files: list[Path]) -> str:
    h = hashlib.sha256()
    for f in files:
        h.update(f.name.encode() + b"\0" + f.read_bytes() + b"\0")
    return h.hexdigest()


def collect(work: Path, ops_dir: Path) -> dict:
    """Check every op a child ran; returns per-op outcomes and counters."""
    doc = json.loads((work / "child.json").read_text())
    ops = []
    for rec in doc["ops"]:
        d = ops_dir / str(rec["index"])
        out = work / "out" / str(rec["index"])
        op = json.loads((d / "op.json").read_text())
        scenario = json.loads((d / "scenario.json").read_text())
        failures = check_op(op, scenario, out, rec["code"])
        files = _csv_outputs(out)
        rows = sum(len(read_csv(f)[1]) for f in files)
        ops.append({
            **op, **rec,
            "ok": not failures,
            "failures": failures,
            "documented": rec["code"] == 6 and op["command"] == "kkt",
            "digest": _digest(files),
            "rows_out": rows,
            "bytes_out": sum(f.stat().st_size for f in files),
            "mix": _op_mix(op, out) if rec["code"] == 0 else {},
        })
    return {"ops": ops, "setup_s": doc["setup_s"], "peak_rss_kb": doc["peak_rss_kb"]}


def _op_mix(op: dict, out: Path) -> dict:
    """What the outputs say about the instance: how each threshold was found."""
    if op["command"] == "alpha-star":
        _, rows = read_csv(out / "trace.csv")
        kind = "first-call" if len(rows) == 1 else "empty-slack" if len(rows) == 2 else "bisection"
        return {"alpha_star_by": kind}
    if op["command"] == "sweep":
        _, rows = read_csv(out / "sweep.csv")
        ks = np.array([float(k) for k, _ in rows])
        stars = np.array([float(a) for _, a in rows])

        def bisected(grid):
            # sweep.csv rounds k to 12 significant digits; match the nearest row
            return sum(1 for k in grid if 0.0 < stars[np.abs(ks - k).argmin()] < 1.0)

        aligned, generic = op["meta"]["aligned_k"], op["meta"]["generic_k"]
        return {"aligned_bisected": bisected(aligned), "aligned": len(aligned),
                "generic_bisected": bisected(generic), "generic": len(generic)}
    return {}


def _mix(ops: list[dict]) -> dict:
    by_cmd: dict[str, int] = {}
    for o in ops:
        by_cmd[o["command"]] = by_cmd.get(o["command"], 0) + 1
    mix = {"commands": by_cmd,
           "nominal_evals": {"min": min(o["nominal"] for o in ops), "max": max(o["nominal"] for o in ops)}}
    if any("aligned" in o["meta"] for o in ops):
        mix["aligned_capacity_share"] = sum(bool(o["meta"].get("aligned")) for o in ops) / len(ops)
        mix["binding_level_share"] = sum(bool(o["meta"].get("binding_level")) for o in ops) / len(ops)
    astar = [o["mix"]["alpha_star_by"] for o in ops if "alpha_star_by" in o["mix"]]
    if astar:
        mix["alpha_star_ops_by"] = {k: astar.count(k) / len(astar) for k in sorted(set(astar))}
    sweeps = [o["mix"] for o in ops if "aligned_bisected" in o["mix"]]
    if sweeps:
        mix["sweep_aligned_k_bisected_share"] = (
            sum(s["aligned_bisected"] for s in sweeps) / sum(s["aligned"] for s in sweeps))
        mix["sweep_generic_k_bisected_share"] = (
            sum(s["generic_bisected"] for s in sweeps) / sum(s["generic"] for s in sweeps))
    if "n" in ops[0]["meta"]:
        ns = [o["meta"]["n"] for o in ops]
        mix["states"] = {str(n): ns.count(n) for n in sorted(set(ns))}
    mix["kkt_exit_6"] = sum(1 for o in ops if o["documented"])
    return mix


def _outputs_changed(workload: str, seed: int, ops: list[dict]) -> int | None:
    """Ops whose CSV bytes differ from the recorded default-seed run."""
    if seed != DEFAULT_SEED or not DIGESTS.exists():
        return None
    ref = json.loads(DIGESTS.read_text()).get(workload, [])
    return sum(1 for o, d in zip(ops, ref) if o["digest"] != d)


def environment() -> dict:
    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = {k: deps.get(k, {}).get("name") for k in ("blas", "lapack")}
    except (TypeError, KeyError):
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_thread_env": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "agentcap_threads_unset": "AGENTCAP_THREADS" not in os.environ,
        "not_measured": ["hardware performance counters", "machine-wide tracing"],
    }


# ---------------------------------------------------------------------------
# One workload run


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    if not (ROOT / "src" / "agentcap").is_dir():
        raise BenchError(f"no agentcap sources under {ROOT / 'src'}")
    deadline = time.monotonic() + DEADLINE_S
    work = WORK / f"{workload}-s{seed}-t{trace}-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    try:
        count = generate(workload, seed, n_ops(workload, seconds) // (2 if trace else 1), work)
        ops_dir = work / "ops"
        common = ["--warmup", str(work / "warmup"), "--ops-dir", str(ops_dir)]
        detail = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
                  "closed_loop_clients": 1}
        if trace == 0:
            bounds = np.linspace(0, count, MEASURING_PROCESSES + 1).round().astype(int)
            runs = []
            yard = ["--yardstick", str(work / "yardstick"), "--yardstick-every", str(YARDSTICK_EVERY[workload])]
            for j, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
                _child([*common, *yard, "--start", str(lo), "--ops", str(hi - lo)], work / f"run{j}", deadline)
                runs.append(collect(work / f"run{j}", ops_dir))
            ops = [o for run in runs for o in run["ops"]]
            setup = [run["setup_s"] for run in runs]
            peaks = [run["peak_rss_kb"] for run in runs]
            metrics, info = end_to_end(ops, setup, statistics.median(peaks), YARDSTICK_REF_S[workload])
            detail.update(info)
            detail["measuring_processes"] = MEASURING_PROCESSES
            detail["setup_s_samples"] = setup
            detail["peak_rss_mb_samples"] = [kb / 1024.0 for kb in peaks]
            shown = {k: v for k, v in metrics.items() if k not in END_TO_END}
            metrics = {k: v for k, v in metrics.items() if k in END_TO_END}
        else:
            common += ["--ops", str(count)]
            _child(common, work / "plain", deadline)
            _child([*common, "--trace", "1"], work / "traced", deadline)
            plain, traced = collect(work / "plain", ops_dir), collect(work / "traced", ops_dir)
            spans = json.loads((work / "traced" / "spans.json").read_text())
            t_ops = traced["ops"]
            metrics = per_layer(
                spans, len(t_ops),
                sum(o["cache_hits"] for o in t_ops), sum(o["cache_misses"] for o in t_ops),
                sum(o["rows_out"] for o in t_ops), sum(o["bytes_out"] for o in t_ops))
            p50_plain = statistics.median(o["latency_s"] for o in plain["ops"])
            p50_traced = statistics.median(o["latency_s"] for o in t_ops)
            metrics["trace.overhead_s"] = (p50_traced - p50_plain, "s")
            detail["op_s.p50_untraced"] = p50_plain
            detail["op_s.p50_traced"] = p50_traced
            detail["spans"] = len(spans)
            ops = plain["ops"] + t_ops
            shown = {}
            if [o["digest"] for o in plain["ops"]] != [o["digest"] for o in t_ops]:
                ops.append({"ok": False, "documented": False,
                            "failures": ["traced outputs differ from untraced outputs"], "index": -1})
        window = ops if trace == 0 else plain["ops"]
        failed = [o for o in ops if not o["ok"]]
        correct = all(o["documented"] for o in failed)
        detail["metrics_not_in_benchmark_json"] = {k: {"value": v, "unit": u} for k, (v, u) in shown.items()}
        detail["mix"] = _mix(window)
        detail["counts"] = {"attempted": len(ops), "failed": len(failed),
                            "documented_failures": sum(o["documented"] for o in failed)}
        detail["check_failures"] = [
            {"index": o["index"], "command": o.get("command"), "failures": o["failures"]}
            for o in failed if not o["documented"]][:10]
        detail["outputs_digest"] = hashlib.sha256("".join(o["digest"] for o in window).encode()).hexdigest()
        detail["outputs_changed"] = _outputs_changed(workload, seed, window)
        detail["environment"] = environment()
        result = {
            "correct": correct,
            "attempted": len(ops),
            "failed": len(failed),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
        return result, detail | {"digests": [o["digest"] for o in window]}
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()  # only when no other run's files are left


# ---------------------------------------------------------------------------
# Entry point


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=(*gen.WORKLOADS, "all"))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record-digests", action="store_true",
                   help="store this run's output digests as the default seed's reference")
    return p.parse_args(argv)


def _record(workload: str, detail: dict) -> None:
    ref = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    ref[workload] = detail["digests"]
    DIGESTS.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")


def _table(results: dict) -> None:
    for workload, runs in results.items():
        print(f"\n== {workload}")
        for trace, (result, detail) in sorted(runs.items()):
            rows = dict(result["metrics"]) | detail.get("metrics_not_in_benchmark_json", {})
            for name, m in rows.items():
                print(f"  {name:34s} {m['value']:>14.6g} {m['unit']}")
            if "unscaled" in detail:
                for name, value in detail["unscaled"].items():
                    print(f"  {name + ' unscaled':34s} {value:>14.6g}")
                print(f"  {'host speed (median)':34s} {detail['host_speed']['median']:>14.3f}")
            if "op_s.tail_percentile" in detail:
                print(f"  {'op_s.tail is':34s} {'p%g' % detail['op_s.tail_percentile']:>14} "
                      f"of {detail['op_s.samples']} ops")
            print(f"  {'correct':34s} {result['correct']!s:>14} "
                  f"({result['failed']} of {result['attempted']} ops failed)")


def main(argv=None) -> int:
    args = _parse(argv)
    if args.record_digests and (args.seed != DEFAULT_SEED or args.trace or args.workload == "all"):
        print("--record-digests needs one workload, the default seed and --trace 0", file=sys.stderr)
        return 2
    try:
        if args.workload != "all":
            result, detail = run_workload(args.workload, args.seed, args.seconds, args.trace)
            if args.record_digests:
                _record(args.workload, detail)
            detail.pop("digests")
            print(json.dumps(detail, sort_keys=True))
            print(json.dumps(result))
            return 0
        results: dict = {}
        for workload in gen.WORKLOADS:
            for trace in (0, 1):
                result, detail = run_workload(workload, args.seed, args.seconds, trace)
                detail.pop("digests")
                results.setdefault(workload, {})[trace] = (result, detail)
        _table(results)
        print(json.dumps({w: {t: {"result": r, "detail": d} for t, (r, d) in runs.items()}
                          for w, runs in results.items()}, sort_keys=True))
        return 0
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
