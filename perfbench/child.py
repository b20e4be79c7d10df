"""One fresh process per workload run: import ``agentcap`` from the checkout,
run the warm-up op, then the workload's ops in a closed loop with one client.

    python3 perfbench/child.py --root DIR --work DIR --warmup DIR
                               --ops-dir DIR --start I --ops N --trace 0|1
                               [--yardstick DIR --yardstick-every K]

Every op is a call to the public CLI entry point ``agentcap.cli.main`` with a
scenario file the parent generated from the workload seed
(``<ops-dir>/<i>/scenario.json``, flags in ``op.json``, for i from ``--start``
on); the program sees only that file and CLI flags, and this process holds no
generator state that would count toward its memory. With ``--yardstick``,
the host-speed yardstick (``yardstick.py``) runs before every K-th op, outside
the timed region, and each op's record carries the median of the last
``YARDSTICK_WINDOW`` samples, so that one sample disturbed by a hiccup of the
host does not rescale the ops after it. Results go to ``<work>/child.json``,
spans of a traced run to ``<work>/spans.json``.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import json
import os
import statistics
import sys
import time
import traceback
from pathlib import Path

T_START = time.perf_counter()
YARDSTICK_WINDOW = 3


def _parse(argv):
    p = argparse.ArgumentParser()
    p.add_argument("--root", required=True)
    p.add_argument("--work", required=True)
    p.add_argument("--warmup", required=True)
    p.add_argument("--ops-dir", required=True)
    p.add_argument("--start", type=int, default=0)
    p.add_argument("--ops", type=int, required=True)
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--yardstick")
    p.add_argument("--yardstick-every", type=int, default=1)
    return p.parse_args(argv)


def _import_agentcap(root: Path):
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    import agentcap.cli

    where = Path(agentcap.__file__).resolve()
    if src not in where.parents:
        raise SystemExit(f"agentcap imported from {where}, not from {src}")
    return agentcap


def peak_rss_kb() -> int:
    """Peak resident memory of this process image (``VmHWM``). Linux carries
    ``ru_maxrss`` across exec, so it can report the parent's footprint at
    fork; ``VmHWM`` belongs to the current address space alone."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise OSError("no VmHWM line in /proc/self/status")


def run_cli(cli, argv) -> int:
    """One op through the public entry point; a crash is exit code 1."""
    try:
        return int(cli.main(argv))
    except SystemExit as exc:  # argparse rejects flags by exiting
        return exc.code if isinstance(exc.code, int) else 2
    except Exception:
        traceback.print_exc()
        return 1


def layer_targets():
    """Every layer boundary the CLI reaches, once per namespace binding it.

    ``discounting`` is absent: no CLI command calls into it.
    """
    from agentcap import agent, capstruct, cli, kkt, model, pareto, scaling

    def n_out(args, kwargs, result):
        return {"points": len(result)}

    def n_in(args, kwargs, result):
        return {"points": len(args[1])}

    def n_contracts(args, kwargs, result):
        return {"contracts": len(result[0])}

    def n_feasible(args, kwargs, result):
        return {"feasible": len(result[0])}

    def scan(args, kwargs, result):
        enum = args[0]
        return {"evals": len(enum.labels) * len(enum.points), "rows": int(enum.agent_u.size)}

    def rows(args, kwargs, result):
        return {"rows": len(result.profiles)}

    def verified(args, kwargs, result):
        return {"checks": len(result.checks), "tested": sum(1 for c in result.checks if c.tested)}

    def converged(args, kwargs, result):
        return {"converged": int(bool(result.converged))}

    def n_k(args, kwargs, result):
        return {"k": len(result)}

    def code(args, kwargs, result):
        return {"code": result}

    targets = [
        (cli, "main", "cli.main", code),
        (cli, "load_scenario", "cli.load", None),
        (cli, "validate_scenario", "model.validate", None),
        (cli, "select", "pareto.select", None),
        (model, "validate_scenario", "model.validate", None),
        (model, "simplex_lattice", "model.lattice", n_out),
        (model.ContractFamily, "payment_matrix", "model.payment_matrix", n_contracts),
        (agent, "feasible_lattice", "agent.feasible_lattice", n_feasible),
        (agent, "best_response_convex", "agent.best_response", None),
        (agent, "best_response_grid", "agent.best_response", None),
        (pareto, "feasible_lattice", "agent.feasible_lattice", n_feasible),
        (pareto, "select", "pareto.select", None),
        (pareto.Enumeration, "__init__", "pareto.enumeration", scan),
        (pareto.Enumeration, "pareto_at", "pareto.frontier", rows),
        (pareto.Enumeration, "pareto_mask", "pareto.mask", None),
        (pareto.Enumeration, "selection_ids", "pareto.select", None),
        (scaling, "alpha_star", "scaling.alpha_star", None),
        (scaling, "verify_theorem", "scaling.verify", verified),
        (capstruct, "alpha_star", "scaling.alpha_star", None),
        (capstruct, "validate_scenario", "model.validate", None),
        (capstruct, "sweep_alpha_star", "capstruct.sweep", n_k),
        (capstruct, "debt_equity_decompose", "capstruct.decompose", None),
        (capstruct, "live_or_die_decompose", "capstruct.decompose", None),
        (kkt, "best_response_convex", "agent.best_response", None),
        (kkt, "best_response_grid", "agent.best_response", None),
        (kkt, "make_initial_point", "kkt.init", None),
        (kkt, "solve_principal_foc", "kkt.solve", converged),
        (kkt, "affine_representation_check", "kkt.affine", None),
    ]
    # value_many is overridden per cost kind; wrap each class defining it
    for cls in (model.CostFunction, *model.CostFunction.__subclasses__()):
        if "value_many" in vars(cls):
            targets.append((cls, "value_many", "model.cost_eval", n_in))
    return targets


def main(argv=None) -> int:
    args = _parse(argv)
    root, work = Path(args.root), Path(args.work)
    _import_agentcap(root)
    from agentcap import cli, model

    warmup = Path(args.warmup)
    warm = json.loads((warmup / "op.json").read_text())
    warm_argv = [warm["command"], "--scenario", str(warmup / "scenario.json"),
                 "--out", str(warmup / f"out-{os.getpid()}"), *warm["flags"]]
    warm_code = run_cli(cli, warm_argv)
    setup_s = time.perf_counter() - T_START
    if warm_code != 0:
        print(f"warm-up op exited {warm_code}", file=sys.stderr)
        return 3

    doc = {"setup_s": setup_s, "pid": os.getpid()}
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from tracer import Tracer
    from yardstick import Yardstick

    yardstick = None
    if args.yardstick:
        yardstick = Yardstick(Path(args.yardstick), work / "yardstick.csv")
        for _ in range(2):  # untimed warm-up of the task itself
            yardstick.run()
    tracer = Tracer(layer_targets()) if args.trace else None
    ops_dir = Path(args.ops_dir)
    records = []
    samples: collections.deque[float] = collections.deque(maxlen=YARDSTICK_WINDOW)
    with tracer if tracer is not None else contextlib.nullcontext():
        for i in range(args.start, args.start + args.ops):
            op = json.loads((ops_dir / str(i) / "op.json").read_text())
            op_argv = [op["command"], "--scenario", str(ops_dir / str(i) / "scenario.json"),
                       "--out", str(work / "out" / str(i)), *op["flags"]]
            if yardstick is not None and (i - args.start) % args.yardstick_every == 0:
                samples.append(yardstick.run())
            # every op starts with an empty lattice cache, as in a fresh CLI
            # process; clearing also zeroes the cache's hit and miss counts
            model._lattice_cached.cache_clear()
            if tracer is not None:
                tracer.begin_op(i)
            t0 = time.perf_counter()
            exit_code = run_cli(cli, op_argv)
            latency = time.perf_counter() - t0
            cache = model._lattice_cached.cache_info()
            records.append({"index": i, "code": exit_code, "latency_s": latency,
                            "cache_hits": cache.hits, "cache_misses": cache.misses,
                            "yardstick_s": statistics.median(samples) if samples else None})
    doc["ops"] = records
    doc["peak_rss_kb"] = peak_rss_kb()
    if tracer is not None:
        (work / "spans.json").write_text(json.dumps(tracer.spans))
    (work / "child.json").write_text(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
