"""A fixed reference task that measures how fast the host runs right now.

On a shared host the speed of the same code drifts by a quarter and more
over minutes, so raw op latencies of two runs of one commit can differ by
more than any useful bound. A measuring process therefore runs this task
between ops, outside the timed region, and the end-to-end time metrics are
scaled op by op by ``reference time / measured time`` of the task, taken as
the median of the last few samples before the op (``child.py``,
``metrics.end_to_end``).

The task is a frozen replica of a workload's op, written with the benchmark's
own arithmetic (``oracle``), never with ``agentcap``: parse a scenario, build
its simplex lattice cold, evaluate costs and payments, find every contract's
best responses and the Pareto frontier at each capacity, format the rows with
12 significant digits, write them to a file and digest it. Its instance comes
from ``gen.yardstick_op`` and does not depend on the seed, so a program change
cannot move it; only the host can.
"""

from __future__ import annotations

import csv
import gc
import hashlib
import io
import json
import os
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

import oracle

COLUMNS = ("agent", "output", "payment", "cost")


def _frontier_rows(data: dict, pts: np.ndarray, costs: np.ndarray, payments: np.ndarray, k: float) -> list:
    mask = costs <= k + oracle.FEASIBILITY_SLACK
    prof = oracle.profiles(data, pts[mask], costs[mask], payments)
    front = oracle.frontier(prof, 1.0, oracle.TOL_U)
    return [[format(float(prof[c][i]), ".12g") for c in COLUMNS] for i in front]


class Yardstick:
    """``run()`` performs the task once and returns its wall time in seconds.

    With several capacities the task spreads them over a thread pool of one
    worker per core, as the program's sweep does, so that the sample sees
    how busy every core of the host is.
    """

    def __init__(self, directory: Path, out: Path):
        self.text = (directory / "scenario.json").read_text()
        self.ks = json.loads((directory / "yardstick.json").read_text())["capacities"]
        self.out = out
        self.workers = min(os.cpu_count() or 1, len(self.ks))

    def _task(self) -> None:
        data = json.loads(self.text)
        n, m = len(data["states"]), data["simplex_grid"]
        pts = oracle.lattice_counts.__wrapped__(n, m) / m  # cold, as each op's lattice
        costs = oracle.cost_values(data["cost"], pts)
        payments = oracle.family_payments(data["contract_family"], np.asarray(data["output"], dtype=float))
        if self.workers > 1:
            with ThreadPoolExecutor(max_workers=self.workers) as pool:
                parts = list(pool.map(lambda k: _frontier_rows(data, pts, costs, payments, k), self.ks))
        else:
            parts = [_frontier_rows(data, pts, costs, payments, k) for k in self.ks]
        buf = io.StringIO()
        writer = csv.writer(buf)
        for rows in parts:
            writer.writerows(rows)
        self.out.write_text(buf.getvalue())
        hashlib.sha256(self.out.read_bytes()).hexdigest()
        self.out.unlink()

    def run(self) -> float:
        # the collector would walk the program's heap too; with it off, the
        # sample does not depend on how many objects the program keeps
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            self._task()
            return time.perf_counter() - t0
        finally:
            if enabled:
                gc.enable()
