"""The CLI's exit-code contract, fuzzed: scenario files mutated from the
fixtures, and the fixtures under drawn flag values, run through every
command in process, and each run ends with exit 0 or an error class's
``exit_code``, writes --out only when it should, and repeats itself byte
for byte."""

import contextlib
import io
import json
import math
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from agentcap import cli, errors
from agentcap.cli import _KINDS, main, scenario_to_dict

from conftest import (
    effort_scenario,
    ladder_scenario,
    share_scenario,
    smooth_scenario,
    table_scenario,
    tangent_scenario,
)

FORMAT_DIR = Path(__file__).resolve().parent / "scenario_format"

BASES = [
    scenario_to_dict(s)
    for s in (
        ladder_scenario(m=20),
        tangent_scenario(0.04, m=40),
        share_scenario(0.2, m=20),
        table_scenario(),
        effort_scenario(),
        smooth_scenario(0)[0],
    )
] + [json.loads(p.read_text(encoding="utf-8")) for p in sorted(FORMAT_DIR.glob("*.json"))]

ERROR_CLASSES = [c for c in vars(errors).values() if isinstance(c, type) and hasattr(c, "exit_code")]
# success, or the code of the error class that ended the run
CODES = {0} | {c.exit_code for c in ERROR_CLASSES}

BUDGET = ["--budget", "100000"]
COMMANDS = [
    ["solve", *BUDGET],
    ["alpha-star", *BUDGET],
    ["verify", *BUDGET],
    ["sweep", "--k-grid", "0.05,0.5", *BUDGET],
    ["capstruct", "--face", "0.1", *BUDGET],
    ["capstruct", "--threshold", "0.5", *BUDGET],
    ["kkt"],  # enumerates nothing, so takes no budget
]

# Sizes a mutation may reach. Larger lattices and grids are refused only once
# they are built (a MemoryError under a small address space), which a size
# bound checked before building has yet to fix; n stays at most the largest
# fixture's, so no product family outgrows 100 ** 3 members.
MAX_M, MAX_AXIS, MAX_STATES = 200, 100, 3

SECTION_KINDS = {
    "cost": sorted(_KINDS["cost"]),
    "contract_family": sorted(_KINDS["contract_family"]),
    "utility": ["cara", "crra", "risk_neutral"],
}

NONFINITE = st.sampled_from([math.nan, math.inf, -math.inf])
# negative, zero and large numbers, none beyond 1e6
FINITE = st.one_of(st.sampled_from([0, -0.0, -1e-9, 1e6, -1e6]), st.integers(-10**6, 10**6), st.floats(-1e6, 1e6))
NUMBERS = st.one_of(NONFINITE, FINITE)
# what a simplex_grid number may become: an integer m <= 200, or a number
# the reader refuses as no integer
GRID_NUMBERS = st.one_of(st.integers(-2, MAX_M), st.sampled_from([math.nan, math.inf, 2.5, 1e6]))
STRINGS = st.sampled_from(["", "x", "1", "0.5", "grid", "NaN"])
# byte runs that are no UTF-8, wherever they land
NON_UTF8 = st.sampled_from([b"\xff", b"\xc3", b"\x80\x80", b"\xed\xa0\x80"])


def _paths(node, path=()):
    """The path of every node in a parsed document, the root included."""
    yield path
    if isinstance(node, dict):
        for key in sorted(node):
            yield from _paths(node[key], (*path, key))
    elif isinstance(node, list):
        for i, v in enumerate(node):
            yield from _paths(v, (*path, i))


def _field(path) -> tuple:
    """A path's field: its keys, less the list indices."""
    return tuple(k for k in path if isinstance(k, str))


def _pick(draw, paths):
    """One of ``paths``, its field drawn first, so that ``tol_u`` is drawn
    as often as the whole of a cost's matrix."""
    field = draw(st.sampled_from(sorted({_field(p) for p in paths})))
    return draw(st.sampled_from([p for p in paths if _field(p) == field]))


def _get(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _set(doc, path, value):
    """``doc`` with the node at ``path`` replaced (the root, when empty)."""
    if not path:
        return value
    _get(doc, path[:-1])[path[-1]] = value
    return doc


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


@st.composite
def _grid_specs(draw):
    """A {min, max, step} grid spec, of at most MAX_AXIS values when valid."""
    lo, hi, step = draw(NUMBERS), draw(NUMBERS), draw(NUMBERS)
    if all(map(math.isfinite, (lo, hi, step))) and step > 0 and (hi - lo) / step >= MAX_AXIS - 1:
        hi = lo + step * (MAX_AXIS - 2)
    return {"min": lo, "max": hi, "step": step}


def _other_value(draw, key):
    """A value of any JSON type: number, string, list, object, null or boolean."""
    kind = draw(st.sampled_from(["number", "string", "list", "object", "null", "boolean"]))
    if kind == "number":
        return draw(GRID_NUMBERS if key == "simplex_grid" else NUMBERS)
    if kind == "string":
        return draw(STRINGS)
    if kind == "list":
        return draw(st.lists(st.one_of(NUMBERS, STRINGS), max_size=3))
    if kind == "object":
        return draw(st.one_of(st.just({}), st.just({"kind": "grid"}), _grid_specs()))
    return None if kind == "null" else draw(st.booleans())


def _reshaped(draw, value: list) -> list:
    """A list given another shape: wrapped, flattened by one level, with
    its last entry dropped or repeated, or each entry wrapped."""
    how = draw(st.sampled_from(["wrap", "flatten", "drop-last", "repeat-last", "wrap-each"]))
    if how == "wrap":
        return [value]
    if how == "flatten":
        return [w for v in value for w in (v if isinstance(v, list) else [v])]
    if how == "drop-last":
        return value[:-1]
    if how == "repeat-last":
        return value + value[-1:]
    return [[v] for v in value]


def _sized(doc) -> bool:
    """Whether the document stays within the sizes mutations may reach."""
    if not isinstance(doc, dict):
        return True
    m, states = doc.get("simplex_grid"), doc.get("states")
    if isinstance(m, int) and m > MAX_M or isinstance(states, list) and len(states) > MAX_STATES:
        return False
    for path in _paths(doc):
        spec = _get(doc, path)
        if isinstance(spec, dict) and all(_is_number(spec.get(k)) for k in ("min", "max", "step")):
            lo, hi, step = spec["min"], spec["max"], spec["step"]
            if all(map(math.isfinite, (lo, hi, step))) and step > 0 and (hi - lo) / step >= MAX_AXIS:
                return False
    return True


@st.composite
def scenario_files(draw):
    """The bytes of a fixture's scenario file after one to three mutations:
    a key or list entry dropped, a value of another type, a number made NaN
    or infinite, or negative, zero or large, a list of another shape, a
    cost, family or utility of another kind or from another fixture; and at
    times a run of non-UTF-8 bytes."""
    doc = json.loads(json.dumps(draw(st.sampled_from(BASES))))
    for _ in range(draw(st.integers(1, 3))):
        paths = list(_paths(doc))
        how = draw(st.sampled_from(["drop", "type", "nonfinite", "number", "shape", "kind", "section"]))
        if how == "drop":
            path = _pick(draw, [p for p in paths if p] or [()])
            if path:
                del _get(doc, path[:-1])[path[-1]]
        elif how == "type":
            path = _pick(draw, paths)
            doc = _set(doc, path, _other_value(draw, path[-1] if path else None))
        elif how in ("nonfinite", "number"):
            path = _pick(draw, [p for p in paths if _is_number(_get(doc, p))] or [()])
            if how == "nonfinite":
                doc = _set(doc, path, draw(NONFINITE))
            else:
                doc = _set(doc, path, draw(GRID_NUMBERS if path and path[-1] == "simplex_grid" else FINITE))
        elif how == "shape":
            lists = [p for p in paths if isinstance(_get(doc, p), list)] or [()]
            path = _pick(draw, lists)
            if isinstance(_get(doc, path), list):
                doc = _set(doc, path, _reshaped(draw, _get(doc, path)))
        elif isinstance(doc, dict):
            key = draw(st.sampled_from(sorted(SECTION_KINDS)))
            if how == "kind" and isinstance(doc.get(key), dict):
                doc[key]["kind"] = draw(st.sampled_from(SECTION_KINDS[key]))
            elif how == "section":
                donor = draw(st.sampled_from(BASES))
                doc[key] = json.loads(json.dumps(donor.get(key, {"kind": "risk_neutral", "params": {}})))
    assume(_sized(doc))
    data = json.dumps(doc).encode()
    if draw(st.integers(0, 9)) == 0:
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(NON_UTF8) + data[at:]
    return data


def _run(argv, out: Path):
    """Exit code, stderr, and --out's CSV bytes and summary less its runtime
    (None when --out was not created) of one in-process run."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main([*argv, "--out", str(out)])
    written = None
    if out.exists():
        summary = json.loads((out / "summary.json").read_text())
        summary.pop("runtime_seconds")
        written = ({f.name: f.read_bytes() for f in sorted(out.glob("*.csv"))}, summary)
    return code, err.getvalue(), written


def _check_run(tmp_path_factory, data: bytes, command: list[str]):
    """Runs ``command`` on the scenario file ``data`` twice: it exits 0 or
    with a class's code, writes --out only when it should, and repeats
    itself byte for byte. Warnings are errors here, so one raised in a run
    escapes main too."""
    work = tmp_path_factory.mktemp("fuzz")
    path = work / "scenario.json"
    path.write_bytes(data)
    argv = [command[0], "--scenario", str(path), *command[1:]]
    code, err, written = _run(argv, work / "first")
    assert code in CODES, err
    if code == 0:
        assert err == "" and written is not None
    else:
        assert err.startswith("agentcap: ") and err.endswith("\n")
        # only a kkt solve that stopped short writes its point, then exits 6
        stalled = command[0] == "kkt" and err.startswith("agentcap: stationarity solve did not converge")
        assert (written is not None) == stalled, err
    assert _run(argv, work / "second") == (code, err, written)


# the same cases on every run, so that a rare failure cannot come and go;
# a case a wider random search finds is pinned below as a test of its own
@settings(max_examples=1000, deadline=None, derandomize=True)
@given(data=scenario_files(), command=st.sampled_from(COMMANDS))
def test_every_run_exits_with_a_documented_code(tmp_path_factory, data, command):
    _check_run(tmp_path_factory, data, command)


# what a numeric flag may be: the least subnormal, a width below the float
# spacing at 1, small, half, one and just past it, the largest order of
# magnitude, signed zeros, a negative, NaN and the infinities
FLAG_NUMBERS = st.sampled_from([5e-324, 1e-17, 1e-4, 0.5, 1.0, 1.1, 1e308, 0.0, -0.0, -1e-4,
                                math.nan, math.inf, -math.inf]).map(str)
FLAG_VALUES = {
    **dict.fromkeys(["--alpha", "--eps", "--face", "--threshold", "--alpha-star", "--tol"], FLAG_NUMBERS),
    **dict.fromkeys(["--alpha-grid", "--k-grid"], st.lists(FLAG_NUMBERS, min_size=1, max_size=5).map(",".join)),
    "--max-iter": st.sampled_from(["-1", "0", "1", "200"]),
    "--budget": st.sampled_from(["-1", "0", "100000"]),
    "--active-set": st.sampled_from(["none", "capacity", "participation", "capacity,participation", "", "x"]),
}
# by command: the flags it always gets (one of each group; --budget too,
# so that no enumeration outgrows 100000), and those it may get
COMMAND_FLAGS = {
    "solve": ([("--budget",)], ["--alpha"]),
    "alpha-star": ([("--budget",)], ["--eps"]),
    "verify": ([("--budget",)], ["--alpha-grid", "--eps"]),
    "sweep": ([("--budget",), ("--k-grid",)], []),
    "capstruct": ([("--budget",), ("--face", "--threshold")], ["--alpha-star"]),
    "kkt": ([], ["--active-set", "--tol", "--max-iter"]),
}


@st.composite
def command_lines(draw):
    """A command and its drawn flags, each written --flag=value, since
    argparse reads a bare -1e-4 or -inf as a flag name."""
    command = draw(st.sampled_from(sorted(COMMAND_FLAGS)))
    required, optional = COMMAND_FLAGS[command]
    flags = [draw(st.sampled_from(group)) for group in required]
    flags += [flag for flag in optional if draw(st.booleans())]
    return [command, *(f"{flag}={draw(FLAG_VALUES[flag])}" for flag in flags)]


@settings(max_examples=500, deadline=None, derandomize=True)
@given(data=st.sampled_from(BASES).map(lambda d: json.dumps(d).encode()), command=command_lines())
def test_every_flag_value_exits_with_a_documented_code(tmp_path_factory, data, command):
    _check_run(tmp_path_factory, data, command)


@pytest.mark.parametrize("cls", ERROR_CLASSES, ids=lambda c: c.__name__)
def test_main_exits_with_the_code_of_the_error_that_ended_the_run(tmp_path, capsys, monkeypatch, cls):
    def load_scenario(path):
        raise cls("stopped")

    monkeypatch.setattr(cli, "load_scenario", load_scenario)
    out = tmp_path / "out"
    assert main(["solve", "--scenario", str(tmp_path / "s.json"), "--out", str(out)]) == cls.exit_code
    assert capsys.readouterr().err == "agentcap: stopped\n"
    assert not out.exists()


# sweep never solves at the file's own capacity, so none of these, valid or
# not, may change its run
FILE_CAPACITIES = [-1.0, 0.0, math.nan, math.inf, -math.inf, 1e308]


@pytest.mark.parametrize("doc", BASES, ids=range(len(BASES)))
def test_sweep_reads_no_file_capacity(tmp_path, doc):
    # sweep validates and solves at its --k-grid values only
    runs = []
    for i, capacity in enumerate([doc["capacity"], *FILE_CAPACITIES]):
        path = tmp_path / f"{i}.json"
        path.write_text(json.dumps({**doc, "capacity": capacity}))
        argv = ["sweep", "--scenario", str(path), "--k-grid", "0.05,0.5", *BUDGET]
        code, err, written = _run(argv, tmp_path / f"out{i}")
        runs.append((code, err, written and written[0]))
    assert runs == runs[:1] * len(runs)


# -- cases the fuzzer found -------------------------------------------------


def _format_doc(name: str) -> dict:
    return json.loads((FORMAT_DIR / name).read_text(encoding="utf-8"))


@pytest.mark.parametrize("name,key,params,text", [
    # CARA: exp(-a b) overflows at the payment b = w = -860000
    ("entropy-share-cara.json", "contract_family", {"ws": [-860000.0, 0.0]},
     "cara utility overflows at a contract payment"),
    # CRRA: (b + shift) ** (1 - gamma) overflows at b + shift = 0.5
    ("table-debt-crra.json", "utility", {"gamma": 2000.0, "shift": 0.5},
     "crra utility overflows at a contract payment"),
])
def test_exit_code_overflowing_utility(tmp_path, capsys, name, key, params, text):
    # refused while validating, before the warning the enumeration's
    # utilities would raise here
    d = _format_doc(name)
    d[key]["params"].update(params)
    path, out = tmp_path / "scenario.json", tmp_path / "out"
    path.write_text(json.dumps(d))
    for command in COMMANDS:
        assert main([command[0], "--scenario", str(path), "--out", str(out), *command[1:]]) == 3
        assert capsys.readouterr().err == f"agentcap: {text}\n"
    assert not out.exists()


def _kkt(tmp_path, doc, *flags):
    """Exit code and summary of one ``kkt`` run on the document ``doc``."""
    path, out = tmp_path / "scenario.json", tmp_path / "out"
    path.write_text(json.dumps(doc))
    code = main(["kkt", "--scenario", str(path), "--out", str(out), *flags])
    return code, json.loads((out / "summary.json").read_text()) if out.exists() else None


# warnings are errors here, so each of these also shows that no trial step
# of the line search warns


def test_kkt_on_a_steep_entropy_cost_raises_no_warning(tmp_path):
    # theta = 200 makes the full Newton step drive b far below zero, where the
    # CARA utility's exp overflows; the step is rejected and the solve converges
    d = _format_doc("entropy-share-cara.json")
    d["cost"]["params"]["theta"] = 200
    assert _kkt(tmp_path, d)[0] == 0


def test_kkt_skips_a_trial_step_outside_the_crra_domain(tmp_path):
    # trial steps take b_L + shift below zero; they are skipped, not an exit 3
    d = _format_doc("entropy-share-cara.json")
    d["cost"]["params"]["theta"] = 0.5
    d["utility"] = {"kind": "crra", "params": {"gamma": 5.0, "shift": 1.0}}
    code, summary = _kkt(tmp_path, d)
    assert code == 0 and summary["converged"] is True


def test_kkt_on_a_constant_output_reports_the_affine_fit_unidentified(tmp_path):
    d = _format_doc("entropy-share-cara.json")
    d["output"] = [1.0, 1.0]
    code, summary = _kkt(tmp_path, d)
    assert code == 0
    assert summary["affine_error"] == "constant output leaves the slope unidentified"
    assert "affine" not in summary


def test_kkt_below_reachable_tolerance_stops_without_a_warning(tmp_path, capsys):
    # no iterate reaches tol = 5e-324, and the trial steps on the way overflow
    d = _format_doc("entropy-share-cara.json")
    code, summary = _kkt(tmp_path, d, "--tol=5e-324", "--active-set", "capacity,participation")
    assert code == 6 and summary["converged"] is False
    assert capsys.readouterr().err.startswith("agentcap: stationarity solve did not converge")
