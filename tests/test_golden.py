"""Byte-for-byte CSV outputs of every CLI command, pinned by sha256.

The digests were recorded from the package before the capacity-independent
lattice data moved into ``model``; a refactor that claims unchanged outputs
must reproduce them exactly. A change that alters outputs on purpose
re-records them and says so. The ``share``, ``table`` and ``effort`` solve
digests were recorded from the Profile-per-row writer, before ``solve``
wrote its tables from the enumeration arrays: the share family's
``beta=...,w=...`` labels need CSV quoting, and the table and effort costs
are the row sources off the simplex lattice's own pricing.
"""

import hashlib
import json
from pathlib import Path

import pytest

from agentcap.cli import main, save_scenario

from conftest import (
    effort_scenario,
    share_scenario,
    smooth_scenario,
    table_scenario,
    tangent_scenario,
)

SCENARIOS = {
    "tangent": lambda: tangent_scenario(0.04, m=400),
    # three states, relative-entropy cost
    "smooth": lambda: smooth_scenario(0)[0],
    "share": lambda: share_scenario(0.2),
    "table": table_scenario,
    "effort": effort_scenario,
}

COMMANDS = {
    "solve": [],
    "alpha-star": [],
    "verify": [],
    "sweep": {
        "tangent": ["--k-grid", "0.09,0.01,0.0399,0.05"],
        "smooth": ["--k-grid", "0.1,0.05,0.2"],
        "share": ["--k-grid", "0.2,0.02,0.05,0.005"],
    },
    "capstruct": ["--face", "0.1"],
    "kkt": [],
}

GOLDEN = {
    ("tangent", "solve"): {
        "pareto.csv": "4f84bd263f7de426373a2d0357ffac8bc680ab8f46695318193e1bf099dba727",
        "selection.csv": "ea4d4ba8a4b6dd63d05044b38d0011e30841dc1b836a9029110cdf446f841d36",
    },
    ("tangent", "alpha-star"): {
        "trace.csv": "d21d30e9dac8b3b8470108f33a714d0b27d6e6db2bf1a18ab827cf1e1b2989dc",
    },
    ("tangent", "verify"): {
        "checks.csv": "387b94d3f4418cc5f4cccacb912f8c546eeebb7b7ef9b12ebdf6ba0ecb267b5e",
    },
    ("tangent", "sweep"): {
        "sweep.csv": "79c9632eba058ba8f32fadaaab971b0a5bc42007bede591ff992fd5f711907da",
    },
    ("tangent", "capstruct"): {
        "legs.csv": "8f5dff90e0f4f86e96359cb009f36c933bbd89e87e2a27358ada14b609f2169b",
    },
    ("tangent", "kkt"): {
        "residuals.csv": "b75d1128e24b584441b1dd62426669994c2e16386d635276b28d3c3aacc4a4c2",
    },
    ("smooth", "solve"): {
        "pareto.csv": "7721ba95795db9f00028f336d4bdac2d26e986307183dc4959b8d4483bd93659",
        "selection.csv": "0a8270bab84148814371a536f537160af5f909e33af13f68583e0350acc6876c",
    },
    ("smooth", "alpha-star"): {
        "trace.csv": "4da47daa9ccd799881635618782954b4f25fcda710361d170a4d0fb7db91e0f1",
    },
    ("smooth", "verify"): {
        "checks.csv": "31bd1ac947725b16ab2ad7e23f0cec5803af8a861e0b1a0b2012764b7a76e183",
    },
    ("smooth", "sweep"): {
        "sweep.csv": "bf1175426487cbd2641581324e8467232a2b5546cf659a4e30c1c7ddd2c31731",
    },
    ("smooth", "capstruct"): {
        "legs.csv": "288813e4261b6dc1412ae28c4fdaaa65deeb94437c41440031a0f70bb0072c9f",
    },
    ("smooth", "kkt"): {
        "residuals.csv": "c4773f73c1db3127c0bf1979ce56d34fe358dc9e2082ba2c501d40bd2cde39f3",
    },
    ("share", "solve"): {
        "pareto.csv": "cdf657d064ec471f138664cde2ec8904f4dd7c57421a349947069da1a2becfd7",
        "selection.csv": "7a624a7eca873a0b90b013f6aadac2358d4fe05f0329c9663228c2b92daea43c",
    },
    ("table", "solve"): {
        "pareto.csv": "e33464c0bd23295000a4c3c33296cf0ea2b304ededbe196651fb24ad11162d96",
        "selection.csv": "5ead574a2854f4494f5cd4f5b2863fabbfb7f2faaa216000f3122d12b2a8150d",
    },
    ("effort", "solve"): {
        "pareto.csv": "3dd5809a7aaa3e8b6317bb842faeefb86dfd718eb5120cdca3f19f90e8976a7d",
        "selection.csv": "3dd5809a7aaa3e8b6317bb842faeefb86dfd718eb5120cdca3f19f90e8976a7d",
    },
}


# ``kkt``'s summary.json less its run time and the scenario's path: the
# solved multipliers, the stationarity residuals and the affine fit, which
# residuals.csv does not show. Recorded before the Jacobian columns and the
# damped step lengths were evaluated as stacks; both entries, and their
# residuals.csv digests, re-recorded when the agent's capacity multiplier mu
# left the packed point. That dropped the ``mu`` field and moved no value by
# more than 2e-15 (the tangent ones by at most 5.6e-17), with the b and p
# columns of residuals.csv byte for byte unchanged.
SUMMARIES = {
    ("tangent", "kkt"): {
        "active_set": ["participation"],
        "affine": {"curvature": -0.0, "fit_residual": 3.1401849173675503e-16,
                   "intercept": 0.24999999999999978, "slope": 1.0},
        "capacity_gap": -0.21,
        "command": "kkt",
        "converged": True,
        "delta": 2.6458235882282716e-22,
        "max_residual": 5.551115123125783e-17,
        "orthogonality": 2.93996230320844e-22,
        "participation_gap": 0.0,
        "rho": -0.25,
        "scenario_digest": "66feeaad43ef4e4ad939eb30147be54ec4dddf92b0913f5115284f8a14c1b29b",
        "schema_version": "1",
        "simplex_gap": 0.0,
        "system_residual": 5.551115123125783e-17,
        "tau": 3.079049466564107e-17,
        "zeta": -1.0,
    },
    ("smooth", "kkt"): {
        "active_set": ["participation"],
        "affine": {"curvature": -9.324650558446774e-14, "fit_residual": 2.3693543832238953e-13,
                   "intercept": 0.729455761746581, "slope": 1.0000000000005707},
        "capacity_gap": 0.23959271140314878,
        "command": "kkt",
        "converged": True,
        "delta": -4.02673831046755e-22,
        "max_residual": 1.3247181129827368e-12,
        "orthogonality": 1.0257826499118495e-13,
        "participation_gap": -7.671224766525597e-13,
        "rho": -0.5247914532936246,
        "scenario_digest": "6b6e336f1ee5690fe93ae5330e2af9b4d22f1f0f878c424c0c4670c7ccd0b8a2",
        "schema_version": "1",
        "simplex_gap": 0.0,
        "system_residual": 1.3247181129827368e-12,
        "tau": 0.2046643084526905,
        "zeta": -1.0000000000002436,
    },
}

# The summaries of ``solve``, ``alpha-star``, ``verify``, ``sweep`` and
# ``capstruct`` on tangent, smooth and share, keyed "scenario command" and
# recorded, less the same two fields, before ``verify_theorem`` ran its
# threshold through ``alpha_star``: the thresholds, base and witness
# profiles, checks and evaluation counts.
GOLDEN_SUMMARIES = Path(__file__).with_name("golden_summaries.json")
SUMMARIES.update(
    (tuple(key.split()), doc) for key, doc in json.loads(GOLDEN_SUMMARIES.read_text()).items()
)


def _run(name, command, tmp_path):
    """Run ``command`` on the named scenario; returns the output folder."""
    path = tmp_path / "scenario.json"
    save_scenario(SCENARIOS[name](), path)
    flags = COMMANDS[command]
    if isinstance(flags, dict):
        flags = flags[name]
    out = tmp_path / "out"
    assert main([command, "--scenario", str(path), "--out", str(out), *flags]) == 0
    return out


@pytest.mark.parametrize("name,command", list(GOLDEN))
def test_csv_digests_match_golden(name, command, tmp_path):
    out = _run(name, command, tmp_path)
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.glob("*.csv"))}
    assert got == GOLDEN[name, command]


@pytest.mark.parametrize("name,command", list(SUMMARIES))
def test_summary_matches_golden(name, command, tmp_path):
    summary = json.loads((_run(name, command, tmp_path) / "summary.json").read_text())
    del summary["runtime_seconds"], summary["scenario"]
    # compared as JSON text, where a signed zero and every digit count
    assert json.dumps(summary, sort_keys=True) == json.dumps(SUMMARIES[name, command], sort_keys=True)
