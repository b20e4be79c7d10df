"""A scale smoke for ``solve``, with the standard library and numpy alone.

Builds the scale panel's n = 6, m = 60 instance (8.26M lattice points):
relative entropy with theta = 0.5 and uniform q0, output evenly spaced on
[0, 1], a risk-neutral agent with reservation 0, the grid family of
{0, 1/3, 2/3, 1} per state (4^6 contracts), and k = 0.484553661645953, the
99% quantile of the lattice's costs. It runs ``solve --budget 1e11``
through ``cli.main`` in a fresh process, prints the wall time and that
process's peak resident set (``VmHWM``, Linux only), and exits 1 when the
solve fails or the peak is above 450 MB, else 0.

    python tests/scale.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
LIMIT_MB = 450.0

N, M, K, BUDGET = 6, 60, 0.484553661645953, 100_000_000_000

# run in the fresh process: the solve, then its wall time and peak RSS
CHILD = """
import json, sys, time
t0 = time.perf_counter()
from agentcap import cli
code = cli.main(sys.argv[1:])
wall = time.perf_counter() - t0
status = dict(line.split(":", 1) for line in open("/proc/self/status"))
print(json.dumps({"code": code, "wall_s": wall, "vmhwm_mb": int(status["VmHWM"].split()[0]) / 1024}))
"""


def scenario(n: int, m: int, k: float) -> dict:
    """The scale panel's instance at n states, grid m and capacity k, as a
    scenario file's document."""
    grid = np.linspace(0.0, 1.0, 4).tolist()
    return {
        "capacity": k,
        "contract_family": {"kind": "grid", "params": {"values": [grid] * n}},
        "cost": {"kind": "relative-entropy", "params": {"q0": [1.0 / n] * n, "theta": 0.5}},
        "output": np.linspace(0.0, 1.0, n).tolist(),
        "reservation": 0.0,
        "simplex_grid": m,
        "states": [f"s{i}" for i in range(n)],
        "utility": {"kind": "risk_neutral", "params": {}},
    }


def run() -> dict:
    """``solve`` on ``scenario(N, M, K)`` in a fresh process: its exit code,
    wall time in seconds and peak RSS in MB."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scale.json"
        path.write_text(json.dumps(scenario(N, M, K)))
        argv = ["solve", "--scenario", str(path), "--out", str(Path(tmp) / "out"), "--budget", str(BUDGET)]
        paths = [str(ROOT / "src"), *filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep))]
        proc = subprocess.run([sys.executable, "-c", CHILD, *argv], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": os.pathsep.join(paths)})
    if proc.returncode:
        sys.stderr.write(proc.stderr)
        return {"code": proc.returncode, "wall_s": float("nan"), "vmhwm_mb": float("nan")}
    return json.loads(proc.stdout.splitlines()[-1])


def main() -> int:
    got = run()
    print(f"solve n={N} m={M}: exit {got['code']}, {got['wall_s']:.2f} s, peak RSS {got['vmhwm_mb']:.0f} MB"
          f" (limit {LIMIT_MB:.0f} MB)")
    return 0 if got["code"] == 0 and got["vmhwm_mb"] <= LIMIT_MB else 1


if __name__ == "__main__":
    sys.exit(main())
