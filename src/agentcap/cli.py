"""Command line interface: batch analyses over scenario files.

    agentcap <solve|alpha-star|verify|sweep|capstruct|kkt>
             --scenario PATH [flags] --out DIR

``main`` drives every command the same way: it reads and parses the
scenario, runs the command, which validates the scenario at the capacities
it solves at, checks its flags and computes its tables, column by column,
without touching a file, and only then creates --out and writes the CSV
tables plus a summary.json. So a failed run creates nothing, except a
``kkt`` solve that stops without converging: it writes its point, then fails
with ``ConvergenceError``. A run exits 0, or with the ``exit_code`` of the
``errors`` class that ended it. CSV cells use 12 significant digits and
newline-only line endings, so repeated runs on the same inputs are
byte-identical; the summary additionally carries runtime metadata, and for
the enumerating commands the evaluation counts against the budget.

The kind tables, ``_KINDS``, are the one statement of the scenario format:
a cost or contract-family ``kind`` names its ``model`` class, whose init
fields are the kind's params (``GridFamily.grids`` is written ``values``).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import itertools
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import capstruct, kkt, model, scaling
from .errors import (
    AgentcapError,
    ConfigurationError,
    ConvergenceError,
    DegenerateFitError,
    ScenarioParseError,
)
from .model import (
    AgentUtility,
    ContractFamily,
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
    check_alpha,
    grid_values,
    validate_scenario,
)
from .pareto import Enumeration, EvaluationTally, check_budget, select

SCHEMA_VERSION = "1"


# ---------------------------------------------------------------------------
# Scenario (de)serialization


def _section(data: dict, key: str) -> tuple[str, dict]:
    sec = data[key]
    if not isinstance(sec, dict) or "kind" not in sec:
        raise ScenarioParseError(f"{key} must be an object with 'kind' and 'params'")
    params = sec.get("params", {})
    if not isinstance(params, dict):
        raise ScenarioParseError(f"{key} params must be an object")
    if _holds(params, str):
        raise ScenarioParseError(f"{key} params hold a string; they take numbers")
    return str(sec["kind"]), params


# per section, each kind and its class: the scenario format (module docstring)
_KINDS = {
    "cost": {c.kind: c for c in (QuadraticCost, RelativeEntropyCost, TableCost, EffortCost)},
    "contract_family": {
        c.kind: c
        for c in (GridFamily, MonotoneBoundedSlopeFamily, LinearShareFamily, DebtFamily, LiveOrDieFamily)
    },
}
_PARAM_KEYS = {"grids": "values"}


def _fields(cls) -> list[str]:
    """The init fields of a cost or family class (or instance), by name."""
    return [f.name for f in dataclasses.fields(cls) if f.init]


def _per_state_grids(values, n: int) -> tuple[tuple[float, ...], ...]:
    """Per-state value grids; a single flat grid or {min,max,step} is shared."""
    if isinstance(values, dict):
        return tuple(grid_values(values) for _ in range(n))
    if isinstance(values, (list, tuple)) and values and not isinstance(values[0], (list, tuple, dict)):
        shared = grid_values(values)
        return tuple(shared for _ in range(n))
    return tuple(grid_values(v) for v in values)


def _field(cls, name: str, params: dict, n: int):
    """Init field ``name`` of ``cls`` read from its param: per-state grids,
    a grid for any other family field, tuples of tuples for points and
    distributions, any other cost field as given."""
    value = params[_PARAM_KEYS.get(name, name)]
    if name == "grids":
        return _per_state_grids(value, n)
    if issubclass(cls, ContractFamily):
        return grid_values(value)
    if name in ("points", "distributions"):
        return tuple(tuple(v) for v in value)
    return value


def _from_kind(key: str, kind: str, params: dict, n: int):
    """The section ``key``'s object of kind ``kind``, built from its params."""
    cls = _KINDS[key].get(kind)
    if cls is None:
        raise ScenarioParseError(f"unknown {key.replace('_', ' ')} kind {kind!r}")
    return cls(*(_field(cls, name, params, n) for name in _fields(cls)))


def _params(obj) -> dict:
    """The params of a cost or family: its init fields, nested tuples as lists."""
    return {_PARAM_KEYS.get(name, name): _plain(getattr(obj, name)) for name in _fields(obj)}


def _plain(value):
    """``value`` with its tuples, at any depth, as lists."""
    return [_plain(v) for v in value] if isinstance(value, tuple) else value


def _utility_from(kind: str, params: dict) -> AgentUtility:
    if kind == "risk_neutral":
        return AgentUtility()
    if kind == "cara":
        return AgentUtility("cara", a=params["a"])
    if kind == "crra":
        return AgentUtility("crra", gamma=params["gamma"], shift=params.get("shift"))
    raise ScenarioParseError(f"unknown utility kind {kind!r}")


def _integer(value, key: str) -> int:
    """A JSON integer; floats are rejected, not truncated (booleans never
    reach here, ``scenario_from_dict`` rejects them first)."""
    if not isinstance(value, int):
        raise ScenarioParseError(f"{key} must be an integer")
    return value


def _holds(value, kind: type) -> bool:
    """Whether a parsed JSON value is, or nests, a ``kind``."""
    todo = [value]
    while todo:
        v = todo.pop()
        if isinstance(v, kind):
            return True
        if isinstance(v, dict):
            todo.extend(v.values())
        elif isinstance(v, (list, tuple)):
            todo.extend(v)
    return False


def scenario_from_dict(data) -> Scenario:
    """The scenario of a parsed document. No field takes a boolean, and
    only state labels and section kinds take strings, so one elsewhere is
    rejected rather than read as a number."""
    if not isinstance(data, dict):
        raise ScenarioParseError("scenario must be a JSON object")
    for key, value in data.items():
        if _holds(value, bool):
            raise ScenarioParseError(f"{key} holds a boolean; no scenario field takes one")
        if key in ("output", "capacity", "reservation", "tolerances") and _holds(value, str):
            raise ScenarioParseError(f"{key} holds a string; it takes numbers")
    try:
        if not isinstance(data["states"], list):
            raise ScenarioParseError("states must be a list of labels")
        states = StateSpace(tuple(data["states"]))
        cost_kind, cost_params = _section(data, "cost")
        fam_kind, fam_params = _section(data, "contract_family")
        if "utility" in data:
            util_kind, util_params = _section(data, "utility")
        else:
            util_kind, util_params = "risk_neutral", {}
        tolerances = data.get("tolerances", {})
        if not isinstance(tolerances, dict):
            raise ScenarioParseError("tolerances must be an object")
        return Scenario(
            states=states,
            y=OutputFunction(tuple(data["output"])),
            cost=_from_kind("cost", cost_kind, cost_params, states.n),
            capacity=data["capacity"],
            family=_from_kind("contract_family", fam_kind, fam_params, states.n),
            utility=_utility_from(util_kind, util_params),
            reservation=data["reservation"],
            m=_integer(data["simplex_grid"], "simplex_grid"),
            tol_u=tolerances.get("tol_u", model.DEFAULT_TOL_U),
        )
    except KeyError as exc:
        raise ScenarioParseError(f"scenario missing key {exc}") from None
    except (TypeError, ValueError) as exc:
        raise ScenarioParseError(f"scenario structure: {exc}") from None


def scenario_to_dict(s: Scenario) -> dict:
    """The document of a scenario, in plain nested lists; the utility's
    params are the ``AgentUtility`` fields it sets."""
    utility = {k: v for k, v in dataclasses.asdict(s.utility).items() if v is not None}
    return {
        "states": list(s.states.labels),
        "output": list(s.y.values),
        "cost": {"kind": s.cost.kind, "params": _params(s.cost)},
        "capacity": s.capacity,
        "contract_family": {"kind": s.family.kind, "params": _params(s.family)},
        "utility": {"kind": utility.pop("kind"), "params": utility},
        "reservation": s.reservation,
        "simplex_grid": s.m,
        "tolerances": {"tol_u": s.tol_u},
    }


def load_scenario(path) -> Scenario:
    """Read and parse a scenario file; ``validate_scenario`` checks it."""
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except OSError as exc:
        raise ScenarioParseError(f"cannot read scenario {p}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise ScenarioParseError(f"{p}: not UTF-8 text: byte {exc.start}: {exc.reason}") from None
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioParseError(f"{p}: line {exc.lineno} column {exc.colno}: {exc.msg}") from None
    return scenario_from_dict(data)


def save_scenario(s: Scenario, path) -> None:
    with open(path, "w") as fh:
        json.dump(scenario_to_dict(s), fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# Output writers


def _cell(v) -> str:
    """The one cell rule: 12 significant digits, NaN and None empty,
    booleans as true/false, anything else through str."""
    if isinstance(v, (float, np.floating)):
        return "" if math.isnan(v) else format(float(v), ".12g")
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if v is None:
        return ""
    return str(v)


def _quoted(cells: list[str]) -> list[str]:
    """``cells`` as csv.writer writes them with a comma for the delimiter
    and a line feed for the line terminator (QUOTE_MINIMAL): a cell holding
    a comma, a double quote or a line feed is quoted, with its quotes
    doubled. One scan of the joined cells settles the common case of none."""
    joined = "".join(cells)
    if "," not in joined and '"' not in joined and "\n" not in joined:
        return cells
    return ['"' + c.replace('"', '""') + '"' if "," in c or '"' in c or "\n" in c else c for c in cells]


def _column(values) -> tuple[str, list]:
    """One column as its piece of the row format and the values that piece
    takes, row by row: floats (a float array, or a column of Python floats
    only) as ``%.12g`` of the floats, or as their cells when one is NaN,
    written empty; bools (a bool array, or Python bools only) as
    true/false; anything else through ``.tolist()`` (for an array) and
    ``_cell``, quoted. Each way gives ``_cell``'s text."""
    if isinstance(values, np.ndarray):
        kind = values.dtype.kind
        values = values.tolist()
    else:
        types = set(map(type, values))
        kind = "f" if types == {float} else "b" if types == {bool} else ""
    # a NaN makes the sum NaN (so may infinities of both signs)
    if kind == "f" and not math.isnan(sum(values)):
        return "%.12g", values
    if kind == "f":
        cells = ("%.12g\n" * len(values) % tuple(values)).split("\n")
        return "%s", ["" if v != v else c for v, c in zip(values, cells)]
    if kind == "b":
        return "%s", list(map(("false", "true").__getitem__, values))
    return "%s", _quoted(list(map(_cell, values)))


def _write_csv(path, header, columns) -> None:
    """Write a table given column by column, with the bytes csv.writer
    (line feeds ending the lines) writes for ``_cell`` of every value and
    for the header's strings: the body is one ``%`` format of a row
    format, made of each ``_column``'s piece, repeated over the rows. Rows
    stop at the shortest column, and a record of one empty field is
    written ``""``, as csv.writer does."""
    rendered = [_column(values) for values in columns]
    pieces, cells = zip(*rendered) if rendered else ((), ())
    if pieces == ("%s",):
        cells = ([c or '""' for c in cells[0]],)
    head = _quoted(list(header))
    rows = min(map(len, cells), default=0)
    body = (",".join(pieces) + "\n") * rows % tuple(itertools.chain.from_iterable(zip(*cells)))
    with open(path, "w", newline="") as fh:
        fh.write(",".join(head if head != [""] else ['""']) + "\n" + body)


def _digest(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _write_outputs(args, t0: float, tables: dict, fields: dict) -> None:
    """Create --out and write each table, {name: (header, columns)}, as CSV,
    then summary.json."""
    doc = {
        "schema_version": SCHEMA_VERSION,
        "command": args.command,
        "scenario": str(args.scenario),
        "scenario_digest": _digest(args.scenario),
        **fields,
    }
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
        for name, (header, rows) in tables.items():
            _write_csv(out / name, header, rows)
        doc["runtime_seconds"] = round(time.perf_counter() - t0, 6)
        with open(out / "summary.json", "w") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
    except OSError as exc:
        raise ConfigurationError(f"cannot write outputs to {out}: {exc.strerror or exc}") from None


def _profile_header(s: Scenario) -> list[str]:
    return (
        ["contract"]
        + [f"b_{lab}" for lab in s.states.labels]
        + [f"p_{lab}" for lab in s.states.labels]
        + ["agent_utility", "principal_payoff", "capacity_binding"]
    )


def _profile_columns(enum: Enumeration, rows: np.ndarray, principal: np.ndarray) -> list:
    """The profile table of enumeration ``rows`` with principal payoffs
    ``principal``, column by column, from ``Enumeration.columns``."""
    c = enum.columns(rows, principal)
    return [c.contract, *c.payments.T, *c.probs.T, c.agent_utility, c.principal_payoff,
            c.capacity_binding]


def _summary_profile(enum: Enumeration, row: int | None, alpha: float | None) -> dict | None:
    """Enumeration row ``row`` at output scale ``alpha`` as a summary dict
    (None for no row): its ``Enumeration.columns``, field by field."""
    if row is None:
        return None
    rows = np.array([row])
    c = enum.columns(rows, enum._principal(alpha, rows))
    return {k: (v.tolist() if isinstance(v, np.ndarray) else v)[0] for k, v in c._asdict().items()}


def _counts(enum: Enumeration | None = None) -> dict:
    """The summary's evaluation counts and budget: ``enum``'s, or zero
    counts and no budget when nothing was enumerated."""
    tally = EvaluationTally()
    if enum is not None:
        tally.add(enum)
    return dataclasses.asdict(tally)


def _threshold_fields(res: scaling.AlphaStarResult) -> dict:
    """The summary fields of a solved threshold, with the evaluation counts
    of its enumeration."""
    return {
        "alpha_star": res.alpha_star,
        "bracket_low": res.bracket[0],
        "bracket_high": res.bracket[1],
        "u_bar": res.u_bar,
        "monotone_warning": res.monotone_warning,
        "predicate_calls": len(res.predicate_trace),
        **_counts(res.enumeration),
    }


def _float_list(text: str, flag: str) -> list[float]:
    try:
        values = [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        raise ConfigurationError(f"{flag} expects comma-separated numbers, got {text!r}") from None
    if not values:
        raise ConfigurationError(f"{flag} expects at least one value")
    return values


# ---------------------------------------------------------------------------
# Commands
#
# Each command checks its flags and computes on the parsed scenario, which it
# validates at the capacities it solves at: ``sweep`` at each --k-grid value,
# every other command at the file's own, before anything else. It returns its
# tables, {file name: (header, columns)}, and its summary fields; ``main``
# writes them.


def cmd_solve(args, s: Scenario):
    validate_scenario(s)
    alpha = check_alpha(args.alpha)
    enum = Enumeration(s, budget=args.budget)
    ps = enum.pareto_at(alpha)
    sel = select(ps, s.reservation)
    header = _profile_header(s)
    tables = {
        "pareto.csv": (header, _profile_columns(enum, ps.rows, ps.principal)),
        "selection.csv": (header, _profile_columns(enum, sel.rows, sel.principal)),
    }
    return tables, {
        "alpha": alpha,
        "reservation": s.reservation,
        "n_frontier": len(ps.rows),
        "n_selected": len(sel.rows),
        "chosen_level": sel.chosen_level,
        "agent_utility_levels": list(ps.agent_utility_levels),
        **_counts(enum),
    }


def cmd_alpha_star(args, s: Scenario):
    validate_scenario(s)
    res = scaling.alpha_star(s, eps=args.eps, budget=args.budget)
    return {"trace.csv": (["alpha", "all_slack"], zip(*res.predicate_trace))}, {
        "eps": args.eps,
        "witness_alpha": res.witness_alpha,
        "slack_witness": _summary_profile(res.enumeration, res.witness_row, res.witness_alpha),
        **_threshold_fields(res),
    }


def cmd_verify(args, s: Scenario):
    validate_scenario(s)
    alphas = None
    if args.alpha_grid is not None:
        alphas = [check_alpha(a) for a in _float_list(args.alpha_grid, "--alpha-grid")]
    rep = scaling.verify_theorem(s, alphas=alphas, eps=args.eps, budget=args.budget)
    res = rep.alpha_result
    header = [
        "alpha",
        "tested",
        "reason",
        "inclusion_ok",
        "converse_ok",
        "n_candidates",
        "n_binding",
        "slack_output_payment",
        "slack_payment_scaled_output",
        "slack_scaled_output",
        "slack_participation",
        "d_output",
        "d_payment",
        "step2_dev",
    ]
    no_slacks = (None,) * len(dataclasses.fields(scaling.InequalitySlacks))
    rows = [
        [
            chk.alpha,
            chk.tested,
            chk.reason,
            chk.inclusion_ok,
            chk.converse_ok,
            chk.n_candidates,
            chk.n_binding,
            *(dataclasses.astuple(chk.worst) if chk.worst else no_slacks),
            chk.step2_dev,
        ]
        for chk in rep.checks
    ]
    return {"checks.csv": (header, zip(*rows))}, {
        "reservation": s.reservation,
        "base_profile": _summary_profile(res.enumeration, res.base_row, 1.0),
        "base_level": res.base_level,
        "n_checks": len(rep.checks),
        "n_tested": sum(1 for c in rep.checks if c.tested),
        "inclusion_ok": rep.inclusion_ok,
        "converse_ok": rep.converse_ok,
        "worst_slacks": None if rep.worst_slacks is None else dataclasses.asdict(rep.worst_slacks),
        "step2_max_dev": rep.step2_max_dev,
        "slack_witness_ok": rep.slack_witness_ok,
        **_threshold_fields(res),
    }


def cmd_sweep(args, s: Scenario):
    ks = _float_list(args.k_grid, "--k-grid")
    tally = EvaluationTally()
    pairs = capstruct.sweep_alpha_star(s, ks, args.budget, tally=tally)
    stars = [a for _, a in pairs]
    return {"sweep.csv": (["k", "alpha_star"], zip(*pairs))}, {
        "k_grid": [k for k, _ in pairs],
        "alpha_star": stars,
        "nondecreasing": all(b >= a - scaling.DEFAULT_EPS_ALPHA for a, b in zip(stars, stars[1:])),
        **dataclasses.asdict(tally),
    }


def cmd_capstruct(args, s: Scenario):
    validate_scenario(s)
    astar = None if args.alpha_star_override is None else check_alpha(args.alpha_star_override)
    # the split flag is checked before alpha* is solved, so before its budget;
    # the budget is checked even when a pinned alpha* builds no enumeration
    if args.face is not None:
        capstruct.check_face(args.face)
    else:
        capstruct.check_threshold(args.threshold)
    check_budget(args.budget)
    # a pinned alpha* enumerates nothing: zero counts and no budget
    fields = _counts()
    if astar is None:
        fields = _threshold_fields(scaling.alpha_star(s, budget=args.budget))
        astar = fields["alpha_star"]
    labels = s.states.labels
    if args.face is not None:
        dec = capstruct.debt_equity_decompose(s.y, args.face, astar)
        header = ["state", "output", "agent_leg", "debt_leg", "equity_leg"]
        columns = (labels, s.y.values, dec.agent_leg, dec.debt_leg, dec.equity_leg)
        fields.update(mode="debt-equity", face=dec.F, face_scaled=dec.face_scaled)
    else:
        dec = capstruct.live_or_die_decompose(s.y, args.threshold, astar)
        header = ["state", "output", "agent_leg", "principal_leg"]
        columns = (labels, s.y.values, dec.agent_leg, dec.principal_leg)
        fields.update(mode="live-or-die", threshold=dec.l)
    fields.update(alpha_star=astar, alpha_star_solved=args.alpha_star_override is None)
    return {"legs.csv": (header, columns)}, fields


def cmd_kkt(args, s: Scenario):
    """The summary's ``converged`` is False when the solve stalled; ``main``
    still writes the point, then fails with ``ConvergenceError``."""
    validate_scenario(s)
    tokens = set() if args.active_set == "none" else {t.strip() for t in args.active_set.split(",") if t.strip()}
    if not tokens and args.active_set != "none":
        raise ConfigurationError("--active-set expects none or at least one constraint")
    unknown = tokens - {"capacity", "participation"}
    if unknown:
        raise ConfigurationError(f"unknown --active-set entry {sorted(unknown)[0]!r}")
    point = kkt.solve_principal_foc(
        s,
        kkt.make_initial_point(s),
        max_iter=args.max_iter,
        tol=args.tol,
        capacity_active="capacity" in tokens,
        participation_active="participation" in tokens,
    )
    res = point.residuals
    header = ["state", "b", "p", "phi", "stationarity_b", "stationarity_p", "agent_foc"]
    columns = (
        s.states.labels,
        point.b.payments,
        point.p.probs,
        point.phi,
        res.stationarity_b,
        res.stationarity_p,
        res.agent_foc,
    )
    summary = {
        "active_set": sorted(tokens),
        "rho": point.rho,
        "mu": point.mu,
        "tau": point.tau,
        "delta": point.delta,
        "zeta": point.zeta,
        "orthogonality": res.orthogonality,
        "simplex_gap": res.simplex_gap,
        "capacity_gap": res.capacity_gap,
        "participation_gap": res.participation_gap,
        "system_residual": point.system_residual,
        "max_residual": res.max_abs,
        "converged": point.converged,
    }
    try:
        fit = kkt.affine_representation_check(s, point)
        summary["affine"] = {
            "slope": fit.slope,
            "intercept": fit.intercept,
            "curvature": fit.curvature,
            "fit_residual": fit.fit_residual,
        }
    except DegenerateFitError as exc:
        summary["affine_error"] = str(exc)
    return {"residuals.csv": (header, columns)}, summary


# ---------------------------------------------------------------------------
# Dispatch


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser, built on first use and shared by every ``main`` call
    in the process. Parsing only reads it: each ``parse_args`` returns a
    fresh namespace and takes the subcommand defaults from the parser."""
    parser = argparse.ArgumentParser(
        prog="agentcap",
        description="Capacity-constrained principal-agent solves over scenario files.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, budget=True):
        p.add_argument("--scenario", required=True, help="scenario JSON file")
        p.add_argument("--out", required=True, help="directory for CSV and summary outputs")
        if budget:
            p.add_argument(
                "--budget",
                type=int,
                default=None,
                help="enumeration budget, contracts times grid points (default 1e7)",
            )

    p = sub.add_parser("solve", help="Pareto frontier and reservation selection at one alpha")
    common(p)
    p.add_argument("--alpha", type=float, default=1.0, help="output scale in [0,1] (default 1)")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("alpha-star", help="capacity-slack threshold by bisection")
    common(p)
    p.add_argument("--eps", type=float, default=scaling.DEFAULT_EPS_ALPHA, help="bisection width")
    p.set_defaults(func=cmd_alpha_star)

    p = sub.add_parser("verify", help="frontier inclusion and payoff-chain checks over an alpha grid")
    common(p)
    p.add_argument("--alpha-grid", default=None, help="comma-separated alphas (default 0,0.1,...,1)")
    p.add_argument("--eps", type=float, default=scaling.DEFAULT_EPS_ALPHA, help="bisection width")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("sweep", help="capacity-slack threshold across capacity bounds")
    common(p)
    p.add_argument("--k-grid", required=True, help="comma-separated capacity values")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("capstruct", help="debt-plus-equity or live-or-die decomposition")
    common(p)
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--face", type=float, default=None, help="debt face value")
    g.add_argument("--threshold", type=float, default=None, help="live-or-die output threshold")
    p.add_argument(
        "--alpha-star",
        dest="alpha_star_override",
        type=float,
        default=None,
        help="use this scale instead of solving for the threshold",
    )
    p.set_defaults(func=cmd_capstruct)

    p = sub.add_parser("kkt", help="stationarity-system solve and affine payment fit")
    common(p, budget=False)
    p.add_argument(
        "--active-set",
        default="participation",
        help="binding constraints: none, capacity, participation, or capacity,participation",
    )
    p.add_argument("--tol", type=float, default=1e-10, help="convergence tolerance")
    p.add_argument("--max-iter", type=int, default=200, help="iteration cap")
    p.set_defaults(func=cmd_kkt)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    t0 = time.perf_counter()
    try:
        tables, fields = args.func(args, load_scenario(args.scenario))
        _write_outputs(args, t0, tables, fields)
        if not fields.get("converged", True):
            raise ConvergenceError(f"stationarity solve did not converge (residual {fields['system_residual']:g})")
    except AgentcapError as exc:
        print(f"agentcap: {exc}", file=sys.stderr)
        return exc.exit_code
    return 0


if __name__ == "__main__":
    sys.exit(main())
