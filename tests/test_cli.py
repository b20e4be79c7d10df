"""Scenario file round trips, command outputs, determinism, and exit codes."""

import argparse
import csv
import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agentcap import agent, cli, scaling
from agentcap.cli import (
    _cell,
    _write_csv,
    load_scenario,
    main,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
)
from agentcap.errors import ScenarioParseError, ValidationError
from agentcap.model import (
    AgentUtility,
    ContractFamily,
    GridFamily,
    LinearShareFamily,
    MonotoneBoundedSlopeFamily,
    OutputFunction,
    PricedLattice,
    Profile,
    QuadraticCost,
    RelativeEntropyCost,
    Scenario,
    StateSpace,
    validate_scenario,
)
from agentcap.pareto import Enumeration, select

from conftest import (
    chain,
    effort_scenario,
    ladder_scenario,
    profile_dict,
    share_scenario,
    smooth_scenario,
    table_scenario,
    tangent_scenario,
)


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def read_summary(path):
    with open(path / "summary.json") as fh:
        return json.load(fh)


@pytest.fixture
def ladder_file(tmp_path):
    path = tmp_path / "ladder.json"
    save_scenario(ladder_scenario(), path)
    return path


@pytest.fixture
def share_file(tmp_path):
    path = tmp_path / "share.json"
    save_scenario(share_scenario(0.2), path)
    return path


@pytest.fixture
def tangent_file(tmp_path):
    path = tmp_path / "tangent.json"
    save_scenario(tangent_scenario(0.04, m=400), path)
    return path


def three_state_scenario():
    return Scenario(
        states=StateSpace(("L", "M", "H")),
        y=OutputFunction((0.0, 1.0, 2.0)),
        cost=QuadraticCost(
            ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)),
            (1 / 3, 1 / 3, 1 / 3),
        ),
        capacity=0.1,
        family=LinearShareFamily((0.0, 0.5), (0.0,)),
        utility=AgentUtility("risk_neutral"),
        reservation=0.0,
        m=20,
    )


# -- serialization ----------------------------------------------------------


def trip_cases():
    yield ladder_scenario()
    yield share_scenario(0.2)
    s = ladder_scenario()
    yield Scenario(
        states=s.states, y=s.y,
        cost=RelativeEntropyCost(1.5, (0.5, 0.5)), capacity=0.5,
        family=LinearShareFamily((0.0, 1.0), (-0.1, 0.0)),
        utility=AgentUtility("cara", a=2.0), reservation=0.0, m=30,
    )
    yield table_scenario()
    yield effort_scenario()
    yield Scenario(
        states=s.states, y=s.y, cost=s.cost, capacity=s.capacity,
        family=MonotoneBoundedSlopeFamily(((0.0, 0.1), (0.0, 0.1, 0.6))),
        utility=AgentUtility("risk_neutral"), reservation=0.01, m=40,
    )


def test_round_trip_identity(tmp_path):
    for i, s in enumerate(trip_cases()):
        assert scenario_from_dict(scenario_to_dict(s)) == s
        path = tmp_path / f"case{i}.json"
        save_scenario(s, path)
        assert load_scenario(path) == (s, hashlib.sha256(path.read_bytes()).hexdigest())


def test_grid_spec_shared_forms():
    d = scenario_to_dict(ladder_scenario())
    d["contract_family"] = {"kind": "grid", "params": {"values": {"min": 0.0, "max": 1.0, "step": 0.5}}}
    s = scenario_from_dict(d)
    assert s.family.grids == ((0.0, 0.5, 1.0), (0.0, 0.5, 1.0))
    d["contract_family"] = {"kind": "grid", "params": {"values": [0.0, 0.25]}}
    s = scenario_from_dict(d)
    assert s.family.grids == ((0.0, 0.25), (0.0, 0.25))


@pytest.mark.parametrize("utility", [
    AgentUtility(),
    AgentUtility("cara", a=2.0),
    AgentUtility("crra", gamma=2.0),
    AgentUtility("crra", gamma=1.0, shift=2.0),
], ids=["risk_neutral", "cara", "crra", "crra-shift"])
def test_every_utility_kind_round_trips(utility):
    # a utility holds only its kind's params, so its document reads back equal
    s = dataclasses.replace(ladder_scenario(), utility=utility)
    assert scenario_from_dict(scenario_to_dict(s)) == s


def test_crra_shift_defaults_on_parse():
    d = scenario_to_dict(ladder_scenario())
    d["utility"] = {"kind": "crra", "params": {"gamma": 2.0}}
    assert scenario_from_dict(d).utility.shift == 1.0


def test_parse_errors():
    good = scenario_to_dict(ladder_scenario())
    for mutate in (
        lambda d: d.pop("cost"),
        lambda d: d["cost"].update(kind="exotic"),
        lambda d: d.update(cost="not-a-section"),
        lambda d: d["contract_family"]["params"].pop("values"),
        lambda d: d["utility"].update(kind="exotic"),
        lambda d: d.update(tolerances=[1]),
        lambda d: d.update(tolerances=1),
        lambda d: d.update(tolerances="tol_u"),
        lambda d: d.update(simplex_grid=2.5),
        lambda d: d.update(simplex_grid=True),
        lambda d: d.update(states="LH"),
    ):
        d = json.loads(json.dumps(good))
        mutate(d)
        with pytest.raises(ScenarioParseError):
            scenario_from_dict(d)


def test_load_scenario_errors(tmp_path):
    with pytest.raises(ScenarioParseError, match="cannot read"):
        load_scenario(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{\n]")
    with pytest.raises(ScenarioParseError, match="line 2"):
        load_scenario(bad)
    latin = tmp_path / "latin.json"
    latin.write_bytes(b'{"states": ["\xff"]}')
    with pytest.raises(ScenarioParseError, match="not UTF-8"):
        load_scenario(latin)
    invalid = tmp_path / "invalid.json"
    d = scenario_to_dict(ladder_scenario())
    d["capacity"] = -1.0
    invalid.write_text(json.dumps(d))
    # reading only parses; the commands validate
    s, _ = load_scenario(invalid)
    assert s.capacity == -1.0
    with pytest.raises(ValidationError, match=r"^capacity -1: feasible distribution set empty$"):
        validate_scenario(s)


@pytest.mark.parametrize("end", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
def test_parse_errors_name_the_line_whatever_the_line_ends(tmp_path, end):
    # the file is read as bytes once; its line ends are read as read_text does
    path = tmp_path / "bad.json"
    path.write_bytes(end.join(["{", '"states": ["L", "H"],', '"output": [0.0, 1.0,]', "}"]).encode())
    with pytest.raises(ScenarioParseError, match=r"bad\.json: line 3 column 21: Expecting value$"):
        load_scenario(path)


def test_scenario_digest_is_of_the_bytes_parsed(share_file, tmp_path):
    data = share_file.read_bytes()
    out = tmp_path / "out"
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    argv = ["solve", "--scenario", "/dev/stdin", "--out", str(out)]
    code = "import sys; from agentcap.cli import main; sys.exit(main(sys.argv[1:]))"
    subprocess.run([sys.executable, "-c", code, *argv], input=data, env=env, capture_output=True, check=True)
    assert read_summary(out)["scenario_digest"] == hashlib.sha256(data).hexdigest()



def test_module_run_warns_nothing(tmp_path):
    # runpy imports the package before it runs agentcap.cli as __main__; a
    # package that imported agentcap.cli itself made runpy warn (an error
    # under -W error, exit 1) and the module run twice
    scenario = Path(__file__).resolve().parent / "scenario_format" / "quadratic-grid-risk_neutral.json"
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    argv = ["solve", "--scenario", str(scenario), "--out", str(tmp_path / "out")]
    run = subprocess.run([sys.executable, "-W", "error", "-m", "agentcap.cli", *argv], env=env,
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert read_summary(tmp_path / "out")["n_frontier"] > 0


# -- solve ------------------------------------------------------------------


def test_solve_golden_outputs(ladder_file, tmp_path):
    out = tmp_path / "out"
    assert main(["solve", "--scenario", str(ladder_file), "--out", str(out)]) == 0

    header, rows = read_csv(out / "pareto.csv")
    assert header == ["contract", "b_L", "b_H", "p_L", "p_H", "agent_utility", "principal_payoff", "capacity_binding"]
    assert len(rows) == 7
    assert rows[0][0] == "b=(0,1)"
    # descending agent utility, everything pinned at p_H = 0.2
    agent = [float(r[5]) for r in rows]
    assert agent == sorted(agent, reverse=True)
    assert all(r[4] == "0.2" for r in rows)
    assert all(r[7] == "true" for r in rows)

    header, rows = read_csv(out / "selection.csv")
    assert len(rows) == 1
    assert float(rows[0][2]) == pytest.approx(0.4)  # b_H of the chosen contract
    assert float(rows[0][5]) == pytest.approx(0.04)
    assert float(rows[0][6]) == pytest.approx(0.12)

    doc = read_summary(out)
    assert doc["schema_version"] == "1"
    assert doc["command"] == "solve"
    assert doc["scenario_digest"] == hashlib.sha256(ladder_file.read_bytes()).hexdigest()
    assert doc["n_frontier"] == 7 and doc["n_selected"] == 1
    assert doc["chosen_level"] == pytest.approx(0.04)
    assert len(doc["agent_utility_levels"]) == 7
    assert doc["runtime_seconds"] >= 0.0


def test_solve_deterministic_bytes(ladder_file, tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        assert main(["solve", "--scenario", str(ladder_file), "--out", str(out)]) == 0
    for name in ("pareto.csv", "selection.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    d1, d2 = read_summary(out1), read_summary(out2)
    d1.pop("runtime_seconds")
    d2.pop("runtime_seconds")
    assert d1 == d2


def _cell_of_the_row_writer(v) -> str:
    """The cell rule as the Profile-per-row writer applied it, kept here
    verbatim as the reference for the column formatter."""
    if v is None:
        return ""
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (float, np.floating)):
        return "" if math.isnan(v) else format(float(v), ".12g")
    return str(v)


EDGE_FLOATS = [-0.0, 1e-5, 9.99999999999e11, 1e16, float("nan"), 0.1, 1 / 3, -2.5e-300]


def _row_writer_bytes(path, header, columns) -> bytes:
    """The table as csv.writer writes it, row by row, every cell through
    the row writer's rule: the reference for ``_write_csv``."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in zip(*columns):
            writer.writerow([_cell_of_the_row_writer(v) for v in row])
    return path.read_bytes()


def test_column_formatter_matches_the_row_writer_rule(tmp_path):
    bools = [True, False, False]
    columns = [
        np.array(EDGE_FLOATS),
        EDGE_FLOATS,
        [np.float64(v) for v in EDGE_FLOATS],
        np.array(EDGE_FLOATS, dtype=np.float32),
        np.array(bools),
        bools,
        [np.bool_(b) for b in bools],
        ["beta=1,w=0.475", 'say "x"', None, 3, np.int64(-4)],
        np.arange(3),
        np.array(EDGE_FLOATS)[::-2],  # a strided view, as a transposed block gives
    ]
    for col in columns:
        for table in ([col], [col, col[::-1]], [np.arange(len(col)), col]):
            _write_csv(tmp_path / "cols.csv", ["x", "y"][:len(table)], table)
            expected = _row_writer_bytes(tmp_path / "rows.csv", ["x", "y"][:len(table)], table)
            assert (tmp_path / "cols.csv").read_bytes() == expected
    for col, cells in ((np.array(EDGE_FLOATS[:5]), ["-0", "1e-05", "999999999999", "1e+16", ""]),
                       (np.array(bools), ["true", "false", "false"])):
        _write_csv(tmp_path / "cols.csv", ["x", "n"], [col, range(len(col))])
        assert [row[0] for row in read_csv(tmp_path / "cols.csv")[1]] == cells
    # the file: a table given by columns equals the row writer's bytes
    table = [np.array(EDGE_FLOATS[:3]), np.array(bools), ["a,b", "c", 'd"e']]
    _write_csv(tmp_path / "cols.csv", ["x", "flag", "label"], table)
    expected = _row_writer_bytes(tmp_path / "rows.csv", ["x", "flag", "label"], table)
    assert (tmp_path / "cols.csv").read_bytes() == expected


# float64 values the cell rule must render as the row writer does
_EDGE = st.sampled_from([float("nan"), -float("nan"), float("inf"), -float("inf"), -0.0, 0.0,
                         5e-324, -5e-324, 2.2250738585072014e-308, 1e300, -1e300,
                         1.7976931348623157e308, 9.99999999999e11, 1e16, 0.1])
_FLOATS = st.one_of(st.floats(allow_nan=True, allow_infinity=True),
                    st.floats(min_value=-1e-300, max_value=1e-300), _EDGE)
# strings with each character csv.writer treats specially, and a few it does not
_TEXT = st.text(st.sampled_from([",", '"', "\r", "\n", " ", "a", "Z", "0", "é", "△", "%"]), max_size=6)
_VALUES = st.one_of(_FLOATS, st.integers(-10**20, 10**20), st.booleans(), st.none(), _TEXT)


@st.composite
def _tables(draw):
    """A header and columns of one length, each column a float64 array, a
    bool array, a tuple of Python floats or bools only, or a tuple of mixed
    Python values; the header cells are built from state labels as the
    commands build theirs."""
    rows = draw(st.integers(0, 6))
    kinds = draw(st.lists(st.sampled_from(["float", "bool", "values", "floats", "bools"]), min_size=1, max_size=5))
    columns = []
    for kind in kinds:
        if kind == "float":
            columns.append(np.array(draw(st.lists(_FLOATS, min_size=rows, max_size=rows)), dtype=float))
        elif kind == "bool":
            columns.append(np.array(draw(st.lists(st.booleans(), min_size=rows, max_size=rows)), dtype=bool))
        elif kind == "floats":
            columns.append(tuple(draw(st.lists(_FLOATS, min_size=rows, max_size=rows))))
        elif kind == "bools":
            columns.append(tuple(draw(st.lists(st.booleans(), min_size=rows, max_size=rows))))
        else:
            columns.append(tuple(draw(st.lists(_VALUES, min_size=rows, max_size=rows))))
    labels = draw(st.lists(st.one_of(_TEXT, _FLOATS, st.integers(), st.booleans()),
                           min_size=len(columns), max_size=len(columns)))
    prefix = draw(st.sampled_from(["", "b_", "p_"]))
    return [prefix + str(lab) for lab in labels], columns


@settings(max_examples=300, deadline=None)
@given(_tables())
def test_table_writer_matches_csv_writer_on_the_cell_rule(tmp_path_factory, table):
    header, columns = table
    path = tmp_path_factory.mktemp("csv")
    _write_csv(path / "cols.csv", header, columns)
    assert (path / "cols.csv").read_bytes() == _row_writer_bytes(path / "rows.csv", header, columns)


@pytest.mark.parametrize("make", [
    ladder_scenario, lambda: share_scenario(0.2), table_scenario, effort_scenario,
    lambda: smooth_scenario(0)[0],
], ids=["ladder", "share", "table", "effort", "smooth"])
def test_solve_builds_no_profile_and_writes_what_profiles_read(make, tmp_path, monkeypatch):
    s = make()
    path = tmp_path / "scenario.json"
    save_scenario(s, path)
    built = []
    init = Profile.__init__

    def counted(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Profile, "__init__", counted)
    out = tmp_path / "out"
    assert main(["solve", "--scenario", str(path), "--out", str(out)]) == 0
    assert built == []

    ps = Enumeration(s).pareto_at(1.0)
    sel = select(ps, s.reservation)
    for name, profiles in (("pareto.csv", ps.profiles), ("selection.csv", sel.profiles)):
        _, rows = read_csv(out / name)
        assert rows == [
            [_cell(v) for v in (
                p.contract_label, *p.contract.payments, *p.dist.probs,
                p.agent_utility, p.principal_payoff, p.capacity_binding,
            )]
            for p in profiles
        ]
    assert len(built) == len(ps.rows) + len(sel.rows) > 0
    # .profiles is built once and then kept
    assert ps.profiles is ps.profiles and sel.profiles is sel.profiles
    assert len(built) == len(ps.rows) + len(sel.rows)


@pytest.mark.parametrize("make", [
    ladder_scenario, lambda: share_scenario(0.2), table_scenario, lambda: smooth_scenario(0)[0],
    lambda: tangent_scenario(0.04, m=400),
], ids=["ladder", "share", "table", "smooth", "tangent"])
@pytest.mark.parametrize("command,flags", [
    ("alpha-star", []),
    ("verify", []),
    ("sweep", ["--k-grid", "0.09,0.01,0.04"]),
    ("capstruct", ["--threshold", "0.5"]),
])
def test_threshold_commands_build_no_profile_and_summarise_what_profiles_read(
        make, command, flags, tmp_path, monkeypatch):
    s = make()
    path = tmp_path / "scenario.json"
    save_scenario(s, path)
    built = []
    init = Profile.__init__

    def counted(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Profile, "__init__", counted)
    out = tmp_path / "out"
    assert main([command, "--scenario", str(path), "--out", str(out), *flags]) == 0
    assert built == []
    # the summary's profiles are the Profile objects' own rendering
    doc = read_summary(out)
    if command == "alpha-star":
        assert doc["slack_witness"] == profile_dict(scaling.alpha_star(s).slack_witness)
    if command == "verify":
        assert doc["base_profile"] == profile_dict(scaling.verify_theorem(s).base_profile)
        assert doc["base_profile"] is not None


def test_solve_checks_the_written_rows(tmp_path, monkeypatch, capsys):
    """The value objects' invariants still hold for every written row,
    checked on the gathered arrays: a frontier point whose probabilities no
    longer sum to 1, or a non-finite payment, exits 3 and writes nothing."""
    path = tmp_path / "ladder.json"
    save_scenario(ladder_scenario(), path)
    init, at = Enumeration.__init__, PricedLattice.at

    def tampered_at(self, ids):
        bad = at(self, ids)
        bad[:, 0] += 1e-11
        return bad

    def tampered_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        self.payments = self.payments.copy()
        self.payments[:, 0] += np.nan

    for (owner, name, tampered), message in (((PricedLattice, "at", tampered_at), "sum to 1"),
                                             ((Enumeration, "__init__", tampered_init), "finite")):
        with monkeypatch.context() as mp:
            mp.setattr(owner, name, tampered)
            out = tmp_path / name
            assert main(["solve", "--scenario", str(path), "--out", str(out)]) == 3
            assert message in capsys.readouterr().err
            assert not out.exists()


FORMAT_DIR = Path(__file__).resolve().parent / "scenario_format"
# the fixtures whose points are the simplex lattice: all but the effort
# cost's, whose points are its listed distributions
LATTICE_FIXTURES = [p for p in sorted(FORMAT_DIR.glob("*.json"))
                    if json.loads(p.read_text())["cost"]["kind"] != "effort"]


@pytest.mark.parametrize("path", LATTICE_FIXTURES, ids=[p.stem for p in LATTICE_FIXTURES])
def test_commands_build_no_float_lattice(path, tmp_path, monkeypatch):
    """Every command gathers the float coordinates of the points it reads
    through ``PricedLattice.at``: none builds ``PricedLattice.points``, and
    each ends with the exit code it has when the property is left alone."""
    k = json.loads(path.read_text())["capacity"]
    commands = [["solve"], ["alpha-star"], ["verify"], ["sweep", "--k-grid", f"{k!r},{2 * k!r}"],
                ["capstruct", "--face", "0.1"], ["capstruct", "--threshold", "0.5"], ["kkt"]]

    def run(tag):
        return [main([argv[0], "--scenario", str(path), "--out", str(tmp_path / f"{tag}{i}"), *argv[1:]])
                for i, argv in enumerate(commands)]

    want = run("free")
    assert want[0] == 0
    read = []

    def points(self):
        read.append(self)
        raise AssertionError("PricedLattice.points was built")

    monkeypatch.setattr(PricedLattice, "points", property(points))
    assert run("patched") == want
    assert not read


# -- exit codes and stderr --------------------------------------------------


def test_exit_code_parse(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["solve", "--scenario", str(tmp_path / "nope.json"), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("agentcap: cannot read")
    bad = tmp_path / "bad.json"
    bad.write_text("not json")
    assert main(["solve", "--scenario", str(bad), "--out", str(out)]) == 2
    assert "line 1" in capsys.readouterr().err
    bad.write_bytes(b"\xff")
    assert main(["solve", "--scenario", str(bad), "--out", str(out)]) == 2
    assert "not UTF-8" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("mutate", [
    lambda d: d.update(capacity=True),
    lambda d: d.update(reservation=False),
    lambda d: d["tolerances"].update(tol_u=True),
    lambda d: d.update(output=[False, True]),
    lambda d: d["cost"]["params"]["Q"][1].__setitem__(1, True),
    lambda d: d["contract_family"]["params"]["values"][1].__setitem__(0, False),
], ids=["capacity", "reservation", "tol_u", "output", "cost", "family"])
def test_exit_code_parse_boolean(mutate, tmp_path, capsys):
    # JSON true and false are no numbers: each would read as 1 or 0
    d = scenario_to_dict(ladder_scenario())
    mutate(d)
    path, out = tmp_path / "bool.json", tmp_path / "out"
    path.write_text(json.dumps(d))
    assert main(["solve", "--scenario", str(path), "--out", str(out)]) == 2
    assert "boolean" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("mutate", [
    lambda d: d.update(capacity="0.04"),
    lambda d: d.update(reservation="0"),
    lambda d: d.update(output=["0", "1"]),
    lambda d: d["tolerances"].update(tol_u="1e-9"),
    lambda d: d["contract_family"]["params"].update(values={"min": "0", "max": "1", "step": "0.1"}),
    lambda d: d["cost"]["params"].update(Q=[["0", "0"], ["0", "1"]]),
    lambda d: d.update(utility={"kind": "cara", "params": {"a": "2"}}),
], ids=["capacity", "reservation", "output", "tol_u", "grid-spec", "cost", "utility"])
def test_exit_code_parse_numeric_string(mutate, tmp_path, capsys):
    # a number written as a JSON string is refused, not parsed
    d = scenario_to_dict(tangent_scenario(0.04, m=400))
    mutate(d)
    path, out = tmp_path / "string.json", tmp_path / "out"
    path.write_text(json.dumps(d))
    assert main(["solve", "--scenario", str(path), "--out", str(out)]) == 2
    assert "a string" in capsys.readouterr().err
    assert not out.exists()


def test_exit_code_overflowing_grid_spec(tmp_path, capsys):
    # (max - min) / step overflows: no point count, and nothing allocated
    d = scenario_to_dict(tangent_scenario(0.04, m=400))
    d["contract_family"] = {"kind": "linear-share",
                            "params": {"betas": {"min": 0, "max": 1, "step": 1e-320}, "ws": [0.0]}}
    path, out = tmp_path / "overflow.json", tmp_path / "out"
    path.write_text(json.dumps(d))
    assert main(["solve", "--scenario", str(path), "--out", str(out)]) == 3
    assert "grid spec step is too small" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("tol_u", [math.inf, -math.inf])
@pytest.mark.parametrize("command,flags", [
    ("solve", []),
    ("alpha-star", []),
    ("sweep", ["--k-grid", "0.01,0.04"]),
])
def test_exit_code_infinite_tol_u(tmp_path, capsys, command, flags, tol_u):
    # refused before any comparison adds it to a payoff: warnings are errors here
    d = scenario_to_dict(tangent_scenario(0.04, m=400))
    d["tolerances"]["tol_u"] = tol_u
    path, out = tmp_path / "tol.json", tmp_path / "out"
    path.write_text(json.dumps(d))
    assert main([command, "--scenario", str(path), "--out", str(out), *flags]) == 3
    assert capsys.readouterr().err == "agentcap: tol_u must be positive and finite\n"
    assert not out.exists()


def test_huge_finite_tol_u_ties_every_profile(tmp_path):
    # a finite tolerance is legal however large: every profile then ties
    d = scenario_to_dict(tangent_scenario(0.04, m=40))
    d["tolerances"]["tol_u"] = 1e300
    path, out = tmp_path / "tol.json", tmp_path / "out"
    path.write_text(json.dumps(d))
    assert main(["solve", "--scenario", str(path), "--out", str(out)]) == 0
    summary = read_summary(out)
    assert len(summary["agent_utility_levels"]) == 1
    assert summary["n_frontier"] == summary["n_selected"] == summary["evaluations"]


def test_exit_code_configuration(ladder_file, tmp_path, capsys):
    out = tmp_path / "out"
    rc = main(["solve", "--scenario", str(ladder_file), "--out", str(out), "--alpha", "1.5"])
    assert rc == 3
    assert "alpha out of [0,1]" in capsys.readouterr().err
    rc = main(["verify", "--scenario", str(ladder_file), "--out", str(out), "--alpha-grid", "0.5,bogus"])
    assert rc == 3
    assert "--alpha-grid" in capsys.readouterr().err
    rc = main(["sweep", "--scenario", str(ladder_file), "--out", str(out), "--k-grid", "x"])
    assert rc == 3
    assert "--k-grid" in capsys.readouterr().err
    rc = main(["sweep", "--scenario", str(ladder_file), "--out", str(out), "--k-grid", ","])
    assert rc == 3
    assert "--k-grid expects at least one value" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_exit_code_nonfinite_alpha(ladder_file, tmp_path, capsys, value):
    out = tmp_path / "out"
    for flags in (
        ["solve", f"--alpha={value}"],
        ["verify", f"--alpha-grid=0.5,{value}"],
        ["capstruct", "--face", "0.1", f"--alpha-star={value}"],
    ):
        rc = main([flags[0], "--scenario", str(ladder_file), "--out", str(out), *flags[1:]])
        assert rc == 3
        assert "alpha out of [0,1]" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("eps", ["0", "-1", "nan", "inf"])
def test_exit_code_bad_eps(tangent_file, tmp_path, capsys, eps):
    out = tmp_path / "out"
    # the width is checked before the enumeration, so before its budget
    for command in ("alpha-star", "verify"):
        for budget in (["--budget", "10"], []):
            rc = main([command, "--scenario", str(tangent_file), "--out", str(out), f"--eps={eps}", *budget])
            assert rc == 3
            assert "bisection width must be positive and finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("eps", ["1e-17", "5e-324"])
def test_eps_below_the_float_spacing_ends_at_adjacent_floats(tmp_path, eps):
    # the spacing of floats near alpha* = 0.395 is 5.6e-17: once the midpoint
    # rounds to an end of the bracket, the bisection stops there
    path = tmp_path / "tangent.json"
    save_scenario(tangent_scenario(0.04, m=200), path)
    for command in ("alpha-star", "verify"):
        out = tmp_path / command
        assert main([command, "--scenario", str(path), "--out", str(out), f"--eps={eps}"]) == 0
        doc = read_summary(out)
        assert doc["predicate_calls"] <= 2 + 1075
        assert np.nextafter(doc["bracket_low"], 1.0) == doc["bracket_high"]


@pytest.mark.parametrize("flag,text", [
    ("--face", "face value must be nonnegative"),
    ("--threshold", "threshold must be a number"),
])
def test_exit_code_capstruct_nan_split(tmp_path, capsys, flag, text):
    f = tmp_path / "three.json"
    save_scenario(three_state_scenario(), f)
    # the split flag is checked before alpha* is solved, so before its budget
    for value in ("nan", "inf", "-inf"):
        for solve in (["--alpha-star", "0.5"], [], ["--budget", "10"]):
            rc = main(["capstruct", "--scenario", str(f), "--out", str(tmp_path / "out"), f"{flag}={value}", *solve])
            assert rc == 3
            assert text in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_exit_code_validation(tmp_path, capsys):
    d = scenario_to_dict(ladder_scenario())
    d["output"] = [0.0, 1.0, 2.0]
    f = tmp_path / "invalid.json"
    f.write_text(json.dumps(d))
    assert main(["solve", "--scenario", str(f), "--out", str(tmp_path / "out")]) == 3
    assert "state count" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_exit_code_unwritable_out(ladder_file, tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("keep me\n")
    assert main(["solve", "--scenario", str(ladder_file), "--out", str(taken)]) == 3
    assert capsys.readouterr().err.startswith(f"agentcap: cannot write outputs to {taken}")
    assert taken.read_text() == "keep me\n"


def test_exit_code_budget(ladder_file, tmp_path, capsys):
    rc = main(["solve", "--scenario", str(ladder_file), "--out", str(tmp_path / "out"), "--budget", "10"])
    assert rc == 4
    assert "budget" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_exit_code_budget_sweep(tangent_file, tmp_path, capsys):
    rc = main([
        "sweep", "--scenario", str(tangent_file), "--out", str(tmp_path / "out"),
        "--k-grid", "0.01,0.04", "--budget", "10",
    ])
    assert rc == 4
    assert "budget" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command,flags", [
    ("solve", []),
    ("alpha-star", []),
    ("verify", []),
    ("sweep", ["--k-grid", "0.01,0.04"]),
    ("capstruct", ["--face", "0.1"]),
])
def test_exit_code_negative_budget(tangent_file, tmp_path, capsys, command, flags):
    out = tmp_path / "out"
    rc = main([command, "--scenario", str(tangent_file), "--out", str(out), "--budget", "-1", *flags])
    assert rc == 3
    assert "budget must be a nonnegative integer" in capsys.readouterr().err
    assert not out.exists()
    # zero is a budget, and no enumeration fits in it
    assert main([command, "--scenario", str(tangent_file), "--out", str(out), "--budget", "0", *flags]) == 4
    assert not out.exists()


@pytest.mark.parametrize("split", [["--face", "1"], ["--threshold", "1"]])
def test_exit_code_negative_budget_with_pinned_alpha_star(tangent_file, tmp_path, capsys, split):
    # a pinned alpha* builds no enumeration, and the budget is still checked
    out = tmp_path / "out"
    argv = ["capstruct", "--scenario", str(tangent_file), "--out", str(out), *split, "--alpha-star", "0.5"]
    assert main([*argv, "--budget", "-5"]) == 3
    assert "budget must be a nonnegative integer" in capsys.readouterr().err
    assert not out.exists()
    assert main([*argv, "--budget", "0"]) == 0


def test_exit_code_empty_selection(tmp_path, capsys):
    d = scenario_to_dict(ladder_scenario())
    d["reservation"] = 99.0
    f = tmp_path / "high.json"
    f.write_text(json.dumps(d))
    assert main(["solve", "--scenario", str(f), "--out", str(tmp_path / "out")]) == 5
    assert "no Pareto profile meets reservation" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.fixture
def tight_file(tmp_path):
    """The tangent fixture with reservation 0.001, which no profile meets
    at capacity 0, where only the zero-cost point is feasible."""
    path = tmp_path / "tight.json"
    save_scenario(dataclasses.replace(tangent_scenario(0.04, m=200), reservation=0.001), path)
    return path


@pytest.mark.parametrize("flags", [
    ["--k-grid", "0.04,0,inf"],
    ["--k-grid", "0.04,0", "--budget", "900"],
], ids=["validation-above", "budget-above"])
def test_exit_code_sweep_raises_the_lowest_failing_capacity(tight_file, tmp_path, capsys, flags):
    # solved one capacity after another, k = 0 fails before the k above it is
    # validated or enumerated (900 contracts fit the budget only at k = 0)
    out = tmp_path / "out"
    assert main(["sweep", "--scenario", str(tight_file), "--out", str(out), *flags]) == 5
    assert capsys.readouterr().err == "agentcap: no Pareto profile meets reservation 0.001\n"
    assert not out.exists()


def test_exit_code_sweep_with_a_repeated_failing_capacity(tight_file, tmp_path, capsys):
    out = tmp_path / "out"
    argv = ["sweep", "--scenario", str(tight_file), "--out", str(out), "--k-grid", "inf,0,0.04,0"]
    assert main(argv) == 5
    assert capsys.readouterr().err == "agentcap: no Pareto profile meets reservation 0.001\n"
    assert not out.exists()
    argv[-1] = "0.04,0.01,0.04,0.01"
    assert main(argv) == 0
    _, rows = read_csv(out / "sweep.csv")
    assert [r[0] for r in rows] == ["0.01", "0.01", "0.04", "0.04"]
    assert rows[0] == rows[1] and rows[2] == rows[3]


def test_exit_code_solver_failures(share_file, tmp_path, capsys):
    out = tmp_path / "out"
    rc = main(["kkt", "--scenario", str(share_file), "--out", str(out), "--max-iter", "0"])
    assert rc == 6
    assert capsys.readouterr().err == "agentcap: stationarity solve did not converge (residual 0.625)\n"
    # the outputs are still written for inspection
    assert (out / "summary.json").exists() and (out / "residuals.csv").exists()
    assert read_summary(out)["converged"] is False
    # a singular Jacobian leaves no point to inspect, so nothing is written
    singular = tmp_path / "singular"
    rc = main(["kkt", "--scenario", str(share_file), "--out", str(singular), "--active-set", "none"])
    assert rc == 6
    assert "Jacobian" in capsys.readouterr().err
    assert not singular.exists()


@pytest.mark.parametrize("flag,value,text", [
    ("--tol", "nan", "tol must be positive and finite"),
    ("--tol", "-1", "tol must be positive and finite"),
    ("--tol", "inf", "tol must be positive and finite"),
    ("--max-iter", "-1", "max_iter must be nonnegative"),
])
def test_exit_code_kkt_stopping_flags(share_file, tmp_path, capsys, flag, value, text):
    rc = main(["kkt", "--scenario", str(share_file), "--out", str(tmp_path / "out"), f"{flag}={value}"])
    assert rc == 3
    assert text in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_argparse_usage_errors(ladder_file):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--scenario", str(ladder_file)])  # --out missing
    assert exc.value.code == 2


def _outputs(out):
    """A run's CSV bytes by file name, and its summary less the runtime."""
    files = {f.name: f.read_bytes() for f in sorted(out.iterdir()) if f.suffix == ".csv"}
    summary = read_summary(out)
    summary.pop("runtime_seconds")
    return files, summary


def test_main_builds_its_parser_once_and_carries_no_state(tmp_path, monkeypatch):
    f = tmp_path / "three.json"
    save_scenario(three_state_scenario(), f)
    calls = [
        ["solve", "--alpha", "0.5"],
        ["solve"],
        ["capstruct", "--face", "0.5", "--alpha-star", "0.5"],
        ["capstruct", "--threshold", "1.0", "--alpha-star", "0.5"],
    ]

    def run(i, flags, root):
        out = root / str(i)
        assert main([flags[0], "--scenario", str(f), "--out", str(out), *flags[1:]]) == 0
        return _outputs(out)

    main(["solve", "--scenario", str(f), "--out", str(tmp_path / "warm")])
    built = []
    init = argparse.ArgumentParser.__init__

    def spy(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    # the calls in one process, a usage error after each
    with monkeypatch.context() as mp:
        mp.setattr(argparse.ArgumentParser, "__init__", spy)
        reused = []
        for i, flags in enumerate(calls):
            reused.append(run(i, flags, tmp_path / "reused"))
            with pytest.raises(SystemExit) as exc:
                main([flags[0], "--scenario", str(f)])  # --out missing
            assert exc.value.code == 2
    assert built == []
    # each call gives what it gives first, on a parser built for it alone
    for i, flags in enumerate(calls):
        cli._build_parser.cache_clear()
        assert run(i, flags, tmp_path / "fresh") == reused[i]
    # the plain solve took the default alpha, not the 0.5 before it
    assert reused[0][1]["alpha"] == 0.5 and reused[1][1]["alpha"] == 1.0
    assert reused[0][0] != reused[1][0]


# -- threshold commands -----------------------------------------------------


def test_alpha_star_command(tangent_file, tmp_path):
    out = tmp_path / "out"
    assert main(["alpha-star", "--scenario", str(tangent_file), "--out", str(out)]) == 0
    doc = read_summary(out)
    assert abs(doc["alpha_star"] - 0.4) <= 5e-3
    assert 0.0 < doc["bracket_high"] - doc["bracket_low"] <= doc["eps"] + 1e-12
    assert doc["witness_alpha"] == doc["bracket_low"]
    assert doc["slack_witness"]["cost"] < 0.04
    assert doc["monotone_warning"] is False
    header, rows = read_csv(out / "trace.csv")
    assert header == ["alpha", "all_slack"]
    assert {r[1] for r in rows} == {"true", "false"}


def test_verify_command(tangent_file, tmp_path):
    out = tmp_path / "out"
    rc = main(["verify", "--scenario", str(tangent_file), "--out", str(out), "--alpha-grid", "0.2,0.6,1"])
    assert rc == 0
    header, rows = read_csv(out / "checks.csv")
    assert header[:7] == ["alpha", "tested", "reason", "inclusion_ok", "converse_ok", "n_candidates", "n_binding"]
    assert len(rows) == 3
    skipped = rows[0]
    assert skipped[1] == "false"
    assert skipped[2] == "below the capacity-slack threshold bracket"
    assert skipped[7] == ""  # no slack columns for untested alphas
    for row in rows[1:]:
        assert row[1] == "true" and row[3] == "true" and row[4] == "true"
        assert float(row[13]) <= 1e-6
    doc = read_summary(out)
    assert doc["inclusion_ok"] and doc["converse_ok"] and doc["slack_witness_ok"]
    assert doc["n_checks"] == 3 and doc["n_tested"] == 2


@pytest.mark.parametrize("eps", ["1e-4", "0.05"])
def test_summary_counts_predicate_calls(tangent_file, tmp_path, eps):
    trace = tmp_path / "trace"
    assert main(["alpha-star", "--scenario", str(tangent_file), "--out", str(trace), "--eps", eps]) == 0
    _, rows = read_csv(trace / "trace.csv")
    assert read_summary(trace)["predicate_calls"] == len(rows) > 2
    # verify bisects at the same level with the same width
    checks = tmp_path / "checks"
    assert main(["verify", "--scenario", str(tangent_file), "--out", str(checks), "--eps", eps]) == 0
    assert read_summary(checks)["predicate_calls"] == len(rows)


def test_sweep_command(tangent_file, tmp_path):
    out = tmp_path / "out"
    rc = main(["sweep", "--scenario", str(tangent_file), "--out", str(out), "--k-grid", "0.09,0.01,0.04"])
    assert rc == 0
    header, rows = read_csv(out / "sweep.csv")
    assert header == ["k", "alpha_star"]
    assert [float(r[0]) for r in rows] == [0.01, 0.04, 0.09]
    stars = [float(r[1]) for r in rows]
    assert stars == sorted(stars)
    assert read_summary(out)["nondecreasing"] is True


def test_sweep_csv_equals_single_alpha_star_runs(tmp_path):
    s = tangent_scenario(0.02, m=400)
    f = tmp_path / "tangent.json"
    save_scenario(s, f)
    ks = [0.07, 0.0399, 0.01, 0.05, 0.04]
    out = tmp_path / "sweep"
    assert main(["sweep", "--scenario", str(f), "--out", str(out), "--k-grid", ",".join(map(repr, ks))]) == 0
    pairs = []
    for k in sorted(ks):
        fk = tmp_path / f"k{k!r}.json"
        save_scenario(dataclasses.replace(s, capacity=k), fk)
        outk = tmp_path / f"alpha{k!r}"
        assert main(["alpha-star", "--scenario", str(fk), "--out", str(outk)]) == 0
        pairs.append((k, read_summary(outk)["alpha_star"]))
    _write_csv(tmp_path / "expected.csv", ["k", "alpha_star"], zip(*pairs))
    assert (out / "sweep.csv").read_bytes() == (tmp_path / "expected.csv").read_bytes()


def test_sweep_csv_rows_equal_alpha_star_runs_on_uneven_grid(tmp_path):
    # unsorted, with a repeated k and two k between the lattice costs
    # (81/400)^2 and (82/400)^2, which add no feasible point to each other
    s = tangent_scenario(0.02, m=400)
    f = tmp_path / "tangent.json"
    save_scenario(s, f)
    ks = [0.05, 0.0412, 0.01, 0.05, 0.0418, 0.0399]
    out = tmp_path / "sweep"
    assert main(["sweep", "--scenario", str(f), "--out", str(out), "--k-grid", ",".join(map(repr, ks))]) == 0
    for k, row in zip(sorted(ks), (out / "sweep.csv").read_bytes().splitlines(keepends=True)[1:]):
        fk = tmp_path / f"k{k!r}.json"
        save_scenario(dataclasses.replace(s, capacity=k), fk)
        outk = tmp_path / f"alpha{k!r}"
        assert main(["alpha-star", "--scenario", str(fk), "--out", str(outk)]) == 0
        _write_csv(tmp_path / "one.csv", ["k", "alpha_star"], [[k], [read_summary(outk)["alpha_star"]]])
        assert row == (tmp_path / "one.csv").read_bytes().splitlines(keepends=True)[1]


@pytest.mark.parametrize("command,flags,most", [
    ("solve", [], 1),
    ("alpha-star", [], 1),
    ("verify", [], 1),
    ("capstruct", ["--face", "0.1"], 1),
    ("kkt", [], 1),
    ("sweep", ["--k-grid", "0.09,0.01,0.04"], 1),
])
def test_each_command_prices_the_lattice_once(tangent_file, tmp_path, monkeypatch, command, flags, most):
    calls = {"payment_matrix": 0, "value_many": 0}
    for owner, name in ((ContractFamily, "payment_matrix"), (QuadraticCost, "value_many")):
        def counted(*args, _inner=getattr(owner, name), _name=name):
            calls[_name] += 1
            return _inner(*args)

        monkeypatch.setattr(owner, name, counted)
    assert main([command, "--scenario", str(tangent_file), "--out", str(tmp_path / "out"), *flags]) == 0
    assert 1 <= calls["payment_matrix"] <= most and 1 <= calls["value_many"] <= most, calls


@pytest.mark.parametrize("command,flags", [
    ("solve", []),
    ("alpha-star", []),
    ("verify", ["--alpha-grid", "0.3,0.9"]),
])
@pytest.mark.parametrize("route", ["full", "ball"])
def test_summary_counts_evaluations_against_the_budget(tmp_path, monkeypatch, command, flags, route):
    s = smooth_scenario(0)[0]
    path = tmp_path / "smooth.json"
    save_scenario(s, path)
    nominal = len(s.lattice.contracts[0]) * len(agent.feasible_lattice(s)[0])
    if route == "ball":
        monkeypatch.setattr(agent, "_CHUNK", nominal - 1)
    out = tmp_path / "out"
    assert main([command, "--scenario", str(path), "--out", str(out), *flags]) == 0
    doc = read_summary(out)
    enum = Enumeration(s)
    assert doc["evaluations"] == enum.evaluations
    assert doc["nominal_evaluations"] == enum.nominal_evaluations == nominal
    assert doc["budget"] == 10**7
    if route == "ball":
        assert doc["evaluations"] < nominal
    else:
        assert doc["evaluations"] == nominal


def test_sweep_summary_sums_its_chain(tangent_file, tmp_path):
    out = tmp_path / "out"
    ks = [0.09, 0.01, 0.04]
    flags = ["--k-grid", ",".join(map(str, ks)), "--budget", "123456"]
    assert main(["sweep", "--scenario", str(tangent_file), "--out", str(out), *flags]) == 0
    doc = read_summary(out)
    s, _ = load_scenario(tangent_file)
    evaluations = nominal = 0
    for enum in chain(s, ks):
        evaluations += enum.evaluations
        nominal += enum.nominal_evaluations
    assert doc["evaluations"] == evaluations
    assert doc["nominal_evaluations"] == nominal > evaluations
    assert doc["budget"] == 123456


# file capacities no command can solve at, and what a command that solves
# at the file's own capacity says of each
BAD_CAPACITIES = [
    (-1.0, "capacity -1: feasible distribution set empty"),
    (math.nan, "capacity nan: capacity must be finite"),
    (math.inf, "capacity inf: capacity must be finite"),
]


@pytest.mark.parametrize("capacity", [c for c, _ in BAD_CAPACITIES])
def test_sweep_ignores_the_file_capacity(tangent_file, tmp_path, capacity):
    # every --k-grid value leaves the lattice feasible; the file's own does not
    path = tmp_path / "scenario.json"
    save_scenario(load_scenario(tangent_file)[0].at_capacity(capacity), path)
    for name, scenario in (("a", tangent_file), ("b", path)):
        argv = ["sweep", "--scenario", str(scenario), "--out", str(tmp_path / name)]
        assert main([*argv, "--k-grid", "0.01,0.04"]) == 0, name
    assert (tmp_path / "a" / "sweep.csv").read_bytes() == (tmp_path / "b" / "sweep.csv").read_bytes()


@pytest.mark.parametrize("capacity,text", BAD_CAPACITIES)
def test_solving_commands_validate_the_file_capacity(tangent_file, tmp_path, capsys, capacity, text):
    path = tmp_path / "scenario.json"
    save_scenario(load_scenario(tangent_file)[0].at_capacity(capacity), path)
    out = tmp_path / "out"
    for command in (
        ["solve"],
        ["alpha-star"],
        ["verify"],
        ["capstruct", "--face", "0.5", "--alpha-star", "0.5"],
        ["kkt"],
    ):
        assert main([command[0], "--scenario", str(path), "--out", str(out), *command[1:]]) == 3, command
        assert capsys.readouterr().err == f"agentcap: {text}\n"
        assert not out.exists()


def test_capstruct_debt_with_override(tmp_path):
    f = tmp_path / "three.json"
    save_scenario(three_state_scenario(), f)
    out = tmp_path / "out"
    rc = main([
        "capstruct", "--scenario", str(f), "--out", str(out),
        "--face", "0.5", "--alpha-star", "0.5",
    ])
    assert rc == 0
    header, rows = read_csv(out / "legs.csv")
    assert header == ["state", "output", "agent_leg", "debt_leg", "equity_leg"]
    assert rows == [
        ["L", "0", "0", "0", "0"],
        ["M", "1", "0", "1", "0"],
        ["H", "2", "0.5", "1", "0.5"],
    ]
    doc = read_summary(out)
    assert doc["mode"] == "debt-equity"
    assert doc["face"] == 0.5 and doc["face_scaled"] == 1.0
    assert doc["alpha_star"] == 0.5
    assert doc["alpha_star_solved"] is False


def test_capstruct_summary_counts_its_threshold_search(tangent_file, tmp_path):
    keys = ["alpha_star", "bracket_low", "bracket_high", "u_bar", "monotone_warning",
            "predicate_calls", "evaluations", "nominal_evaluations", "budget"]
    star = tmp_path / "star"
    assert main(["alpha-star", "--scenario", str(tangent_file), "--out", str(star), "--budget", "123456"]) == 0
    solved = tmp_path / "solved"
    argv = ["capstruct", "--scenario", str(tangent_file), "--face", "0.1", "--budget", "123456"]
    assert main([*argv, "--out", str(solved)]) == 0
    doc = read_summary(solved)
    assert {k: doc[k] for k in keys} == {k: read_summary(star)[k] for k in keys}
    assert doc["alpha_star_solved"] is True and doc["evaluations"] > 0
    # a pinned alpha* enumerates nothing: zero counts and no budget
    pinned = tmp_path / "pinned"
    assert main([*argv, "--out", str(pinned), "--alpha-star", "0.5"]) == 0
    doc = read_summary(pinned)
    assert doc["alpha_star_solved"] is False and doc["alpha_star"] == 0.5
    assert (doc["evaluations"], doc["nominal_evaluations"], doc["budget"]) == (0, 0, None)
    assert "predicate_calls" not in doc and "bracket_low" not in doc


def test_capstruct_threshold_solves_alpha(tmp_path):
    f = tmp_path / "three.json"
    save_scenario(three_state_scenario(), f)
    out = tmp_path / "out"
    rc = main(["capstruct", "--scenario", str(f), "--out", str(out), "--threshold", "1.0"])
    assert rc == 0
    doc = read_summary(out)
    assert doc["mode"] == "live-or-die"
    assert doc["alpha_star_solved"] is True
    assert 0.0 <= doc["alpha_star"] <= 1.0
    header, rows = read_csv(out / "legs.csv")
    assert header == ["state", "output", "agent_leg", "principal_leg"]
    for row in rows:
        assert float(row[2]) + float(row[3]) == pytest.approx(float(row[1]), abs=1e-12)


@pytest.mark.parametrize("make", [table_scenario, effort_scenario], ids=["table", "effort"])
def test_kkt_rejects_a_cost_without_gradient_before_any_scan(make, tmp_path, capsys, monkeypatch):
    s = make()
    path = tmp_path / "scenario.json"
    save_scenario(s, path)
    scanned = []
    scan_grid = agent.scan_grid

    def spy(*args, **kwargs):
        scanned.append(len(args[1]))
        return scan_grid(*args, **kwargs)

    monkeypatch.setattr(agent, "scan_grid", spy)
    assert main(["kkt", "--scenario", str(path), "--out", str(tmp_path / "out")]) == 3
    assert f"{s.cost.kind} cost has no gradient" in capsys.readouterr().err
    assert scanned == []


def test_kkt_command_golden(share_file, tmp_path):
    out = tmp_path / "out"
    assert main(["kkt", "--scenario", str(share_file), "--out", str(out)]) == 0
    doc = read_summary(out)
    assert doc["converged"] is True
    assert doc["active_set"] == ["participation"]
    assert doc["max_residual"] <= 1e-8
    assert "mu" not in doc
    assert doc["zeta"] == pytest.approx(-1.0, abs=1e-6)
    assert doc["affine"]["slope"] == pytest.approx(1.0, abs=1e-6)
    assert doc["affine"]["intercept"] == pytest.approx(0.625, abs=1e-6)
    header, rows = read_csv(out / "residuals.csv")
    assert header == ["state", "b", "p", "phi", "stationarity_b", "stationarity_p", "agent_foc"]
    assert len(rows) == 2
    assert float(rows[1][1]) == pytest.approx(0.375, abs=1e-6)


def test_kkt_active_set_parsing(share_file, tmp_path, capsys):
    out = tmp_path / "out"
    rc = main(["kkt", "--scenario", str(share_file), "--out", str(out), "--active-set", "warp"])
    assert rc == 3
    assert "unknown --active-set entry" in capsys.readouterr().err
    for empty in ("", ","):
        rc = main(["kkt", "--scenario", str(share_file), "--out", str(out), f"--active-set={empty}"])
        assert rc == 3
        assert "--active-set expects none or at least one constraint" in capsys.readouterr().err
    assert not out.exists()
    f = tmp_path / "binding.json"
    save_scenario(share_scenario(0.05), f)
    rc = main([
        "kkt", "--scenario", str(f), "--out", str(out),
        "--active-set", "capacity,participation",
    ])
    assert rc == 0
    doc = read_summary(out)
    assert doc["active_set"] == ["capacity", "participation"]
    assert abs(doc["capacity_gap"]) <= 1e-8
