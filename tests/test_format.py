"""The scenario file format: pinned bytes, parse errors and the rules that
hold every section's numbers.

The files under ``tests/scenario_format`` are ``save_scenario``'s bytes for
one scenario of every cost, contract-family and utility kind, recorded
before the format was read and written from the kind tables; a change that
alters the format on purpose re-records them and says so.
"""

import dataclasses
import json
import math
import re
from pathlib import Path

import pytest

from agentcap.cli import load_scenario, main, save_scenario, scenario_from_dict, scenario_to_dict
from agentcap.model import (
    AgentUtility,
    DebtFamily,
    EffortCost,
    GridFamily,
    LinearShareFamily,
    LiveOrDieFamily,
    MonotoneBoundedSlopeFamily,
    OutputFunction,
    QuadraticCost,
    RelativeEntropyCost,
    Scenario,
    StateSpace,
    TableCost,
)

FORMAT_DIR = Path(__file__).parent / "scenario_format"
README = Path(__file__).parent.parent / "README.md"

TWO, Y = StateSpace(("L", "H")), OutputFunction((0.0, 1.5))

# every cost kind (4), contract-family kind (5) and utility kind (3)
CASES = {
    "quadratic-grid-risk_neutral": Scenario(
        states=TWO, y=Y, cost=QuadraticCost(((0.0, 0.0), (0.0, 1.0)), (0.3, 0.7)),
        capacity=0.04, family=GridFamily(((0.0,), (0.0, 0.5))),
        utility=AgentUtility(), reservation=0.0, m=10),
    "entropy-share-cara": Scenario(
        states=TWO, y=Y, cost=RelativeEntropyCost(1.5, (0.5, 0.5)), capacity=0.5,
        family=LinearShareFamily((0.0, 1.0), (-0.1, 0.0)),
        utility=AgentUtility("cara", a=2.0), reservation=-0.25, m=10),
    "table-debt-crra": Scenario(
        states=TWO, y=Y, cost=TableCost(((1.0, 0.0), (0.5, 0.5), (0.0, 1.0)), (0.0, 0.25, 1.0)),
        capacity=0.5, family=DebtFamily((0.0, 0.5)),
        utility=AgentUtility("crra", gamma=2.0), reservation=0.0, m=2),
    "effort-live-or-die-crra": Scenario(
        states=TWO, y=Y, cost=EffortCost((0.0, 1.0), ((0.9, 0.1), (0.4, 0.6)), (0.0, 0.3)),
        capacity=0.5, family=LiveOrDieFamily((0.5, 1.5)),
        utility=AgentUtility("crra", gamma=1.0, shift=2.0), reservation=0.0, m=8),
    "quadratic-monotone-risk_neutral": Scenario(
        states=StateSpace(("L", "M", "H")), y=OutputFunction((0.0, 0.5, 1.0)),
        cost=QuadraticCost(((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)), (1 / 3, 1 / 3, 1 / 3)),
        capacity=0.1, family=MonotoneBoundedSlopeFamily(((0.0,), (0.0, 0.25), (0.0, 0.5))),
        utility=AgentUtility(), reservation=0.0, m=6, tol_u=1e-8),
}

# the params each kind requires, by the case that holds it
REQUIRED = {
    "quadratic-grid-risk_neutral": {"cost": ["Q", "q0"], "contract_family": ["values"]},
    "entropy-share-cara": {"cost": ["theta", "q0"], "contract_family": ["betas", "ws"], "utility": ["a"]},
    "table-debt-crra": {"cost": ["points", "values"], "contract_family": ["faces"], "utility": ["gamma"]},
    "effort-live-or-die-crra": {
        "cost": ["efforts", "distributions", "costs"],
        "contract_family": ["thresholds"],
        "utility": ["gamma"],
    },
    "quadratic-monotone-risk_neutral": {"contract_family": ["values"]},
}


def run_solve(d, tmp_path):
    path, out = tmp_path / "scenario.json", tmp_path / "out"
    path.write_text(json.dumps(d))
    return main(["solve", "--scenario", str(path), "--out", str(out)]), out


@pytest.mark.parametrize("name", CASES)
def test_saved_bytes_and_round_trip(name, tmp_path):
    s = CASES[name]
    path = tmp_path / f"{name}.json"
    save_scenario(s, path)
    assert path.read_bytes() == (FORMAT_DIR / f"{name}.json").read_bytes()
    assert scenario_from_dict(scenario_to_dict(s)) == s
    got, _ = load_scenario(FORMAT_DIR / f"{name}.json")
    assert got == s
    # params no kind takes are ignored
    d = scenario_to_dict(s)
    for section in ("cost", "contract_family", "utility"):
        d[section]["params"]["extra"] = 1.0
    assert scenario_from_dict(d) == s


def parse_error_cases():
    base = "quadratic-grid-risk_neutral"
    for section, kind, text in [
        ("cost", "exotic", "unknown cost kind 'exotic'"),
        ("cost", "grid", "unknown cost kind 'grid'"),
        ("contract_family", "exotic", "unknown contract family kind 'exotic'"),
        ("contract_family", "quadratic", "unknown contract family kind 'quadratic'"),
        ("utility", "exotic", "unknown utility kind 'exotic'"),
        ("utility", "grid", "unknown utility kind 'grid'"),
    ]:
        yield pytest.param(base, section, lambda sec, k=kind: {**sec, "kind": k}, text,
                           id=f"{section}-{kind}")
    for name, sections in REQUIRED.items():
        for section, keys in sections.items():
            for key in keys:
                def drop(p, key=key):
                    del p["params"][key]
                    return p
                yield pytest.param(name, section, drop, f"scenario missing key {key!r}",
                                   id=f"{name}-{section}-{key}")
    # the nested params must nest: points and distributions are lists of lists
    for name, key, value in [
        ("table-debt-crra", "points", [1.0, 0.0, 0.5, 0.5, 0.0, 1.0]),
        ("table-debt-crra", "points", 1.0),
        ("effort-live-or-die-crra", "distributions", [[0.9, 0.1], 0.4]),
    ]:
        def set_(p, key=key, value=value):
            p["params"][key] = value
            return p
        yield pytest.param(name, "cost", set_, "scenario structure: 'float' object is not iterable",
                           id=f"{name}-{key}-{value!r}")


@pytest.mark.parametrize("name,section,mutate,text", parse_error_cases())
def test_parse_error_exit_code_and_text(name, section, mutate, text, tmp_path, capsys):
    d = scenario_to_dict(CASES[name])
    d[section] = mutate(d[section])
    code, out = run_solve(d, tmp_path)
    assert code == 2
    assert capsys.readouterr().err == f"agentcap: {text}\n"
    assert not out.exists()


def set_at(path, value):
    """A mutation writing ``value`` at ``path`` inside a section's params."""
    def mutate(sec):
        target = sec["params"]
        for step in path[:-1]:
            target = target[step]
        target[path[-1]] = value
        return sec
    return mutate


# every number a cost or utility kind takes, by (case, section, path in params)
NUMBERS = [
    ("quadratic-grid-risk_neutral", "cost", ("Q", 1, 1)),
    ("quadratic-grid-risk_neutral", "cost", ("q0", 0)),
    ("entropy-share-cara", "cost", ("theta",)),
    ("entropy-share-cara", "cost", ("q0", 0)),
    ("table-debt-crra", "cost", ("points", 0, 0)),
    ("table-debt-crra", "cost", ("values", 1)),
    ("effort-live-or-die-crra", "cost", ("efforts", 1)),
    ("effort-live-or-die-crra", "cost", ("distributions", 0, 0)),
    ("effort-live-or-die-crra", "cost", ("costs", 1)),
    ("entropy-share-cara", "utility", ("a",)),
    ("table-debt-crra", "utility", ("gamma",)),
    ("effort-live-or-die-crra", "utility", ("shift",)),
]


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("name,section,path", NUMBERS,
                         ids=[f"{CASES[n].cost.kind if s == 'cost' else CASES[n].utility.kind}-{p[0]}"
                              for n, s, p in NUMBERS])
def test_nonfinite_cost_and_utility_numbers_exit_3(name, section, path, value, tmp_path, capsys):
    # refused by the constructor, before any arithmetic: a RuntimeWarning
    # fails the test (warnings are errors), and so does a traceback
    d = scenario_to_dict(CASES[name])
    d[section] = set_at(path, value)(d[section])
    code, out = run_solve(d, tmp_path)
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("agentcap: ") and err.count("\n") == 1
    assert not out.exists()


def test_readme_names_every_kind_and_param():
    """Every kind in the reader's tables and every param it reads is named,
    in backticks, in README's "Scenario format" section."""
    from agentcap import cli

    text = README.read_text(encoding="utf-8")
    section = text.split("## Scenario format", 1)[1].split("\n## ", 1)[0]
    named = set(re.findall(r"`([^`\n]+)`", section))
    for kinds in cli._KINDS.values():
        for kind, cls in kinds.items():
            assert kind in named
            for name in cli._fields(cls):
                assert cli._PARAM_KEYS.get(name, name) in named, (kind, name)
    for field in dataclasses.fields(AgentUtility):
        assert field.name == "kind" or field.name in named
