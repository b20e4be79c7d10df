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
    "sweep": {"tangent": ["--k-grid", "0.09,0.01,0.0399,0.05"], "smooth": ["--k-grid", "0.1,0.05,0.2"]},
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
        "residuals.csv": "bf2ac17771c916cf844ed16b1b51f38abf4d20dbd163c735a59d2d449e4073b2",
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
        "residuals.csv": "e293f99804a840fc09055caf72716c4b24244d9bd2577669badbfa378dd2ee3c",
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


@pytest.mark.parametrize("name,command", list(GOLDEN))
def test_csv_digests_match_golden(name, command, tmp_path):
    path = tmp_path / "scenario.json"
    save_scenario(SCENARIOS[name](), path)
    flags = COMMANDS[command]
    if isinstance(flags, dict):
        flags = flags[name]
    out = tmp_path / "out"
    assert main([command, "--scenario", str(path), "--out", str(out), *flags]) == 0
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.glob("*.csv"))}
    assert got == GOLDEN[name, command]
