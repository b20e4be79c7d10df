"""Seeded scenario generator for the three benchmark workloads.

``make_op(workload, seed, index)`` returns one operation: a scenario dict to
write as JSON, the CLI command and flags, the nominal evaluation count
(contracts x feasible lattice points, computed here from the scenario and
never read back from the program), and metadata describing the instance.
The same (workload, seed, index) always gives the same operation, so two
runs of one seed see identical inputs.

Scenario arithmetic (lattice, costs, best responses, frontiers) comes from
the benchmark's own ``oracle`` module, never from ``agentcap``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from oracle import (
    FEASIBILITY_SLACK,
    TOL_U,
    best_response_value,
    cost_values,
    family_payments,
    feasible,
    frontier,
    lattice,
    profiles,
)

WORKLOADS = ("large-solve", "small-queries", "k-sweep")
_WORKLOAD_ID = {w: i for i, w in enumerate(WORKLOADS)}

BUDGET = 10**7  # the CLI's default enumeration budget

# large-solve: nominal evaluations fall in [NOMINAL_BAND[0], 1) x BUDGET
NOMINAL_BAND = (0.9, 0.93, 0.995)  # enforced floor, then the drawn target range
# lattice shapes per state count; every (n, m) is used at most once per run.
# Ops cycle through LARGE_STATES, weighted by how many shapes each n offers.
LARGE_M = {3: range(60, 401), 4: range(20, 73), 5: range(10, 37)}
LARGE_STATES = (3, 4, 3, 5, 3, 4)

WARMUP_INDEX = 10**6
WARMUP_SHAPE = (3, 420)

STRATA = 8  # bins that spread shapes and lattice densities over a run

SMALL_COMMANDS = ("alpha-star", "verify", "solve", "capstruct", "kkt")

SWEEP_M = (1000, 4000)
SWEEP_K_ALIGNED = 5
SWEEP_K_GENERIC = 5


@dataclass
class Op:
    index: int
    command: str
    scenario: dict
    flags: list[str]
    nominal: int  # contracts x feasible points summed over enumerations; 0 if none
    meta: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Workload generators


def _rng(seed: int, workload: str, *extra: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), _WORKLOAD_ID[workload], *extra])


def _states(n: int) -> list[str]:
    return [f"s{i}" for i in range(n)]


def _output(rng, n: int) -> list[float]:
    incs = np.round(rng.uniform(0.3, 1.0, n - 1), 2)
    return [0.0] + [float(v) for v in np.round(np.cumsum(incs), 2)]


def _interior_q0(rng, n: int) -> list[float]:
    counts = rng.integers(1, 6, n)
    return [float(c) for c in counts / counts.sum()]


def _quadratic(rng, n: int, q0: list[float]) -> dict:
    for _ in range(100):
        q = np.diag(rng.choice([0.5, 1.0, 1.5, 2.0], n))
        for i in range(n):
            for j in range(i + 1, n):
                q[i, j] = q[j, i] = rng.choice([-0.25, 0.0, 0.25])
        if np.linalg.eigvalsh(q).min() >= 0.1:
            break
    else:
        q = np.eye(n)
    return {"kind": "quadratic", "params": {"Q": q.tolist(), "q0": q0}}


def _gap_capacity(sorted_costs: np.ndarray, count: int) -> tuple[float, int]:
    """A capacity strictly between two distinct lattice costs, admitting the
    lowest ``count`` points (or the nearest count below with a real gap)."""
    for c in range(min(count, sorted_costs.size - 1), 0, -1):
        lo, hi = sorted_costs[c - 1], sorted_costs[c]
        if hi - lo > 1e-7:
            return float(0.5 * (lo + hi)), c
    raise ValueError("no gap between lattice costs below the requested count")


def _grid_sizes(rng, n: int, target: float) -> list[int]:
    """Per-state grid sizes whose product is at most target and close to it."""
    sizes = [max(2, int(target ** (1.0 / n)))] * n
    while math.prod(sizes) > target and max(sizes) > 2:
        sizes[sizes.index(max(sizes))] -= 1
    grown = True
    while grown:
        grown = False
        for i in rng.permutation(n):
            trial = sizes.copy()
            trial[i] += 1
            if math.prod(trial) <= target:
                sizes, grown = trial, True
    return sizes


def _reservation(rng, scenario: dict, payments: np.ndarray, pts, costs) -> float:
    """The best-response value of one random family member: the frontier's top
    level is at least this, so the selection is never empty."""
    b0 = payments[int(rng.integers(len(payments)))]
    return float(np.round(best_response_value(scenario, b0, pts, costs)[0], 9) - 1e-6)



@lru_cache(maxsize=8)
def _shape_order(seed: int, n: int) -> tuple[int, ...]:
    """The m values of LARGE_M[n] in an order whose every prefix of r * STRATA
    entries takes r from each of STRATA equal bins, so a short run still
    spans the whole range of lattice sizes."""
    rng = _rng(seed, "large-solve", 0, n)
    bins = [list(rng.permutation(b)) for b in np.array_split(np.array(LARGE_M[n]), STRATA)]
    order: list[int] = []
    for r in range(max(len(b) for b in bins)):
        order.extend(int(bins[j][r]) for j in rng.permutation(STRATA) if r < len(bins[j]))
    return tuple(order)


def _stratified(seed: int, workload: str, index: int) -> float:
    """A draw in [0, 1) from stratum (index mod STRATA) of a per-block
    permutation, so every block of STRATA ops covers [0, 1) evenly."""
    block = _rng(seed, workload, 0, index // STRATA).permutation(STRATA)
    u = _rng(seed, workload, 1, index).uniform()
    return (block[index % STRATA] + u) / STRATA


def _large_solve(seed: int, index: int, shape: tuple[int, int] | None = None) -> Op | None:
    if shape is None:
        pos, rnd = index % len(LARGE_STATES), index // len(LARGE_STATES)
        n = LARGE_STATES[pos]
        slot = rnd * LARGE_STATES.count(n) + LARGE_STATES[:pos].count(n)
        pool = _shape_order(seed, n)
        if slot >= len(pool):
            return None  # every shape of this state count is used
        m = pool[slot]
    else:
        (n, m), slot = shape, index
    rng = _rng(seed, "large-solve", 1, index)
    entropy = slot % 2 == 0
    q0 = _interior_q0(rng, n)
    if entropy:
        cost = {"kind": "relative-entropy", "params": {"theta": float(np.round(rng.uniform(0.3, 1.0), 3)), "q0": q0}}
        utility = {"kind": "cara", "params": {"a": float(np.round(rng.uniform(0.5, 2.0), 3))}}
    else:
        cost = _quadratic(rng, n, q0)
        utility = {"kind": "risk_neutral", "params": {}}
    pts_all = lattice(n, m)
    total = len(pts_all)
    sorted_costs = np.sort(cost_values(cost, pts_all))
    # grid sizes come in coarse products, so a drawn feasible share can leave
    # the band out of reach; draw again from the same stream until it fits
    for _ in range(50):
        share = rng.uniform(0.35, 0.85)
        sizes = _grid_sizes(rng, n, BUDGET / (share * total))
        contracts = math.prod(sizes)
        want = min(total - 1, int(rng.uniform(*NOMINAL_BAND[1:]) * BUDGET / contracts))
        capacity, n_feasible = _gap_capacity(sorted_costs, want)
        if NOMINAL_BAND[0] * BUDGET <= contracts * n_feasible < BUDGET:
            break
    else:
        raise ValueError(f"large-solve op {index}: no contract grid fits the evaluation band")
    y = _output(rng, n)
    top = float(y[-1])
    grids = []
    for g in sizes:
        lo = float(np.round(rng.uniform(0.0, 0.2 * top), 3))
        hi = float(np.round(rng.uniform(0.6 * top, 1.2 * top), 3))
        grids.append([float(v) for v in np.round(np.linspace(lo, hi, g), 6)])
    scenario = {
        "states": _states(n),
        "output": y,
        "cost": cost,
        "capacity": capacity,
        "contract_family": {"kind": "grid", "params": {"values": grids}},
        "utility": utility,
        "reservation": 0.0,
        "simplex_grid": m,
        "tolerances": {"tol_u": TOL_U},
    }
    pts, costs = feasible(scenario)
    payments = family_payments(scenario["contract_family"], np.asarray(y))
    scenario["reservation"] = _reservation(rng, scenario, payments, pts, costs)
    alpha = 1.0 if rng.random() < 0.5 else float(np.round(rng.uniform(0.5, 1.0), 3))
    return Op(
        index=index,
        command="solve",
        scenario=scenario,
        flags=["--alpha", repr(alpha)],
        nominal=contracts * n_feasible,
        meta={"n": n, "m": m, "contracts": contracts, "feasible": n_feasible,
              "lattice": total, "cost": cost["kind"]},
    )


def _small_query(seed: int, index: int) -> Op:
    command = SMALL_COMMANDS[index % len(SMALL_COMMANDS)]
    aligned = (index // len(SMALL_COMMANDS)) % 2 == 0
    rng = _rng(seed, "small-queries", index)
    n = int(rng.choice([2, 3]))
    m = int(rng.integers(40, 101))
    y = _output(rng, n)
    counts = rng.multinomial(m, np.ones(n) / n)
    cost = _quadratic(rng, n, [float(c) for c in counts / m])
    betas = np.round(np.sort(rng.choice(np.arange(0.0, 1.0001, 0.05), int(rng.integers(3, 11)), replace=False)), 12)
    ws = np.round(np.sort(rng.choice(np.arange(-1.0, 0.5, 0.025), int(rng.integers(10, 31)), replace=False)), 12)
    scenario = {
        "states": _states(n),
        "output": y,
        "cost": cost,
        "capacity": 0.0,
        "contract_family": {"kind": "linear-share", "params": {"betas": betas.tolist(), "ws": ws.tolist()}},
        "utility": {"kind": "risk_neutral", "params": {}},
        "reservation": 0.0,
        "simplex_grid": m,
        "tolerances": {"tol_u": TOL_U},
    }
    payments = family_payments(scenario["contract_family"], np.asarray(y))
    pts_all = lattice(n, m)
    all_costs = cost_values(cost, pts_all)
    sorted_costs = np.sort(all_costs)
    lo_k, hi_k = np.quantile(sorted_costs, [0.2, 0.8])
    if aligned:
        # k is the cost of some member's unconstrained best response, so that
        # lattice point is feasible, sits exactly on the capacity and is that
        # member's best response: a capacity-binding profile exists
        values = payments @ pts_all.T - all_costs[None, :]
        candidates = np.unique(all_costs[values.argmax(axis=1)])
        candidates = candidates[(candidates >= lo_k) & (candidates <= hi_k)]
        if candidates.size == 0:
            candidates = sorted_costs[[int(0.5 * (sorted_costs.size - 1))]]
        tries = [float(c) for c in rng.permutation(candidates)[:8]]
    else:
        pos = int(rng.uniform(0.3, 0.7) * (sorted_costs.size - 1))
        tries = [_gap_capacity(sorted_costs, max(pos, 1))[0]]
    for capacity in tries:
        scenario["capacity"] = capacity
        pts, costs = feasible(scenario)
        prof = profiles(scenario, pts, costs, payments)
        front = frontier(prof, 1.0, TOL_U)
        binding = front[np.abs(prof["cost"][front] - capacity) <= TOL_U]
        if binding.size:
            break
    # the reservation sits on a frontier level, a capacity-binding one when
    # one exists, so the threshold search has something to bisect
    pick = binding if binding.size else front
    scenario["reservation"] = float(prof["agent"][pick[int(rng.integers(pick.size))]])
    nominal = len(payments) * len(pts)
    if command == "solve":
        flags = ["--alpha", repr(float(np.round(rng.uniform(0.3, 1.0), 3)))]
    elif command == "alpha-star":
        flags = ["--eps", repr(float(rng.choice([1e-3, 1e-4, 1e-5])))]
    elif command == "verify":
        flags = []
    elif command == "capstruct":
        if rng.random() < 0.5:
            flags = ["--threshold", repr(float(y[int(rng.integers(1, n))]))]
        else:
            # a debt face needs alpha* > 0, which an empty slack region does
            # not give; pin the scale instead of solving for it
            flags = ["--face", repr(float(np.round(rng.uniform(0.0, 0.5 * y[-1]), 3))),
                     "--alpha-star", repr(float(np.round(rng.uniform(0.2, 1.0), 3)))]
            nominal = 0
    else:
        flags = ["--tol", "1e-10"]
        nominal = 0  # the stationarity solve does not enumerate
    return Op(
        index=index,
        command=command,
        scenario=scenario,
        flags=flags,
        nominal=nominal,
        meta={"n": n, "m": m, "contracts": len(payments), "feasible": len(pts),
              "aligned": aligned, "binding_level": bool(binding.size)},
    )


def tangent_slopes() -> np.ndarray:
    """Slopes of the tangent family: a coarse sweep plus fine windows ending
    at 0.2, 0.4 and 0.6 in steps of 0.002 (30 slopes, 900 contracts)."""
    coarse = np.arange(0.0, 1.0001, 0.2)
    windows = [2 * r - 0.002 * np.arange(0, 9) for r in (0.1, 0.2, 0.3)]
    s = np.unique(np.round(np.concatenate([coarse, *windows]), 12))
    return s[(s >= 0) & (s <= 1 + 1e-12)]


def _k_sweep(seed: int, index: int) -> Op:
    rng = _rng(seed, "k-sweep", index)
    m = SWEEP_M[0] + int(_stratified(seed, "k-sweep", index) * (SWEEP_M[1] - SWEEP_M[0] + 1))
    s = tangent_slopes()
    phat = np.round(s / 2 * m) / m
    v = s * phat - phat**2
    # capacities where a tangency point sits exactly on the capacity
    tangencies = np.unique(phat[(phat > 0.05) & (phat < 0.35)])
    aligned = [float(p * p) for p in rng.choice(tangencies, SWEEP_K_ALIGNED, replace=False)]
    lattice_costs = (np.arange(m + 1) / m) ** 2
    generic: list[float] = []
    while len(generic) < SWEEP_K_GENERIC:
        k = float(np.round(rng.uniform(0.005, 0.1), 6))
        if np.abs(lattice_costs - k).min() > 1e-7 and k not in generic:
            generic.append(k)
    ks = aligned + generic
    ks = [ks[i] for i in rng.permutation(len(ks))]
    scenario = {
        "states": ["L", "H"],
        "output": [0.0, 1.0],
        "cost": {"kind": "quadratic", "params": {"Q": [[0.0, 0.0], [0.0, 1.0]], "q0": [0.0, 0.0]}},
        "capacity": max(ks),
        "contract_family": {"kind": "grid", "params": {"values": [(-v).tolist(), (s - v).tolist()]}},
        "utility": {"kind": "risk_neutral", "params": {}},
        "reservation": 0.0,
        "simplex_grid": m,
        "tolerances": {"tol_u": TOL_U},
    }
    contracts = len(s) ** 2
    nominal = sum(contracts * int(np.sum(lattice_costs <= k + FEASIBILITY_SLACK)) for k in ks)
    return Op(
        index=index,
        command="sweep",
        scenario=scenario,
        flags=["--k-grid", ",".join(repr(k) for k in ks)],
        nominal=nominal,
        meta={"n": 2, "m": m, "contracts": contracts, "k_grid": ks,
              "aligned_k": sorted(aligned), "generic_k": sorted(generic)},
    )


def make_op(workload: str, seed: int, index: int) -> Op | None:
    """Operation ``index`` of a workload; None once the workload's distinct
    inputs are used up (only large-solve has a finite shape pool)."""
    if workload == "large-solve":
        return _large_solve(seed, index)
    if workload == "small-queries":
        return _small_query(seed, index)
    if workload == "k-sweep":
        return _k_sweep(seed, index)
    raise ValueError(f"unknown workload {workload!r}")


def warmup_op(workload: str, seed: int) -> Op:
    """The untimed warm-up op: drawn like the workload's ops but from an index
    no timed op uses; for large-solve its lattice shape is outside every pool,
    so the warm-up leaves no lattice cache entry a timed op could hit."""
    if workload == "large-solve":
        return _large_solve(seed, WARMUP_INDEX, shape=WARMUP_SHAPE)
    return make_op(workload, seed, WARMUP_INDEX)


YARDSTICK_SEED = 0


def yardstick_op(workload: str) -> tuple[dict, list[float]]:
    """The scenario and capacities of the workload's host-speed yardstick
    (``yardstick.py``): a fixed, seed-independent instance of the workload's
    kind, a few milliseconds of work. large-solve keeps every third value of
    each payment grid, so about 4e5 evaluations instead of 1e7; k-sweep
    keeps every second slope (225 contracts) and five capacities of one
    sweep, on a lattice of m = 3000."""
    if workload == "large-solve":
        scenario = _large_solve(YARDSTICK_SEED, 0, shape=(3, 120)).scenario
        params = scenario["contract_family"]["params"]
        params["values"] = [v[::3] for v in params["values"]]
        return scenario, [scenario["capacity"]]
    if workload == "small-queries":
        scenario = _small_query(YARDSTICK_SEED, 0).scenario
        return scenario, [scenario["capacity"]]
    if workload == "k-sweep":
        op = _k_sweep(YARDSTICK_SEED, 0)
        scenario = dict(op.scenario, simplex_grid=3000)
        params = scenario["contract_family"]["params"]
        scenario["contract_family"] = {"kind": "grid", "params": {"values": [v[::2] for v in params["values"]]}}
        return scenario, sorted(op.meta["k_grid"])[::2]
    raise ValueError(f"unknown workload {workload!r}")
