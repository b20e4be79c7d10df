"""The package's public surface: what ``agentcap`` exports, what it no
longer carries, and which of its modules a process loads."""

import inspect
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import agentcap
from agentcap import agent, cli, discounting, errors, kkt, model, pareto, scaling
from agentcap.cli import save_scenario

from conftest import tangent_scenario

README = Path(__file__).resolve().parents[1] / "README.md"
FORMAT_DIR = Path(__file__).resolve().parent / "scenario_format"

# (module or class, name) of the Profile-list layer that was folded into
# Enumeration; none may come back under its old name
REMOVED = [
    (pareto, "feasible_profiles"),
    (pareto, "pareto_filter"),
    (pareto, "pareto_set"),
    (pareto.Enumeration, "profiles_at"),
    (pareto.Enumeration, "select_at"),
    (scaling, "capacity_slack_predicate"),
    (scaling, "verify_inequalities"),
    (model, "enumeration_points"),
    (model, "agent_value"),
    (model, "principal_value"),
    (scaling, "_base_index"),
    (scaling, "_keys"),
    (scaling, "_alpha_impl"),
    (scaling, "_risk_neutral_level"),
    (scaling, "_skipped"),
    (pareto, "_frontier"),
    (pareto, "_pareto_keep_mask"),
    (pareto.Enumeration, "_profile"),
    (pareto.Enumeration, "principal_at"),
    (pareto.Enumeration, "_sorted_payoff_parts"),
    (pareto, "_narrow"),
    (pareto._AgentOrder, "take"),
    (model.Profile, "identity"),
    (model.ContractFamily, "members"),
    (cli, "_fail"),
    (model, "ValidationReport"),
    (pareto.Enumeration, "_scan_above"),
    (agent, "_column_max"),
    (model.ContractFamily, "size"),
    (cli, "_digest"),
    (kkt, "_DAMPED"),
    (pareto, "_cut"),
    (pareto._AgentOrder, "sort"),
    (pareto._AgentOrder, "rows"),
]

# parameters no caller set to anything but their defaults; the threshold's
# evaluation counts are read off the enumeration it holds; and the per-link
# capacity chain, which ``pareto.capacity_chain`` replaced
REMOVED_PARAMETERS = [
    (scaling.alpha_star, ("u_bar", "tally")),
    (scaling.verify_theorem, ("r", "tally")),
    (pareto.Enumeration.__init__, ("tally", "below")),
    (agent.best_responses, ("below",)),
    (kkt.make_initial_point, ("beta", "w")),
    (kkt.PrincipalFocPoint, ("mu",)),
    (discounting.DatedSchedule.at_date, ("n",)),
    (discounting.discounted_values, ("s",)),
    (agent.scan_balls, ("payoffs",)),
    (agent._entropy_bound, ("u", "cost")),
]


def test_all_has_no_duplicates():
    assert len(agentcap.__all__) == len(set(agentcap.__all__))


def test_every_export_resolves():
    for name in agentcap.__all__:
        assert hasattr(agentcap, name), name


def test_removed_names_stay_removed():
    for owner, name in REMOVED:
        assert name not in agentcap.__all__, name
        assert not hasattr(agentcap, name), name
        assert not hasattr(owner, name), (owner.__name__, name)


def test_removed_parameters_stay_removed():
    for fn, names in REMOVED_PARAMETERS:
        params = inspect.signature(fn).parameters
        for name in names:
            assert name not in params, (fn.__qualname__, name)


def test_readme_library_example_runs(tmp_path, monkeypatch):
    # the first python block under "## Library", run next to a scenario file
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    save_scenario(tangent_scenario(0.04, m=200), tmp_path / "scenario.json")
    monkeypatch.chdir(tmp_path)
    ns = {}
    exec(code, ns)
    assert round(ns["res"].alpha_star, 5) == 0.39496
    assert ns["rep"].alpha_result == ns["res"]


def error_classes():
    """Every exception class ``agentcap.errors`` defines."""
    return [c for c in vars(errors).values()
            if isinstance(c, type) and issubclass(c, Exception) and c.__module__ == errors.__name__]


def test_every_error_class_but_the_base_carries_an_exit_code():
    # the base is never raised bare, so it has no code to give
    assert not hasattr(errors.AgentcapError, "exit_code")
    classes = [c for c in error_classes() if c is not errors.AgentcapError]
    # a subclass's code is its base's
    assert errors.EmptyFeasibleSetError in classes and errors.EmptyFeasibleSetError.exit_code == 3
    for cls in classes:
        assert issubclass(cls, errors.AgentcapError), cls.__name__
        assert cls.exit_code in {2, 3, 4, 5, 6}, cls.__name__


def test_readme_exit_codes_are_the_classes_codes():
    # README's "Exit codes:" paragraph names success and every class's code
    text = README.read_text(encoding="utf-8")
    paragraph = "Exit codes: " + text.split("\nExit codes: ", 1)[1].split("\n\n", 1)[0]
    named = {int(code) for code in re.findall(r"[:;]\s(\d+)\s", paragraph)}
    carried = {c.exit_code for c in error_classes() if c is not errors.AgentcapError}
    assert named == {0} | carried


def loaded_modules(code: str) -> dict:
    """Run ``code`` in a fresh interpreter on this checkout's package; it
    prints a JSON object, to which the ``agentcap`` modules then loaded are
    added under "modules"."""
    env = {**os.environ, "PYTHONPATH": str(Path(agentcap.__file__).resolve().parents[1])}
    report = ("; import json, sys; doc['modules'] = sorted(m for m in sys.modules"
              " if m == 'agentcap' or m.startswith('agentcap.')); print(json.dumps(doc))")
    run = subprocess.run([sys.executable, "-c", code + report], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    return json.loads(run.stdout.splitlines()[-1])


def test_bare_import_loads_only_errors():
    doc = loaded_modules("import agentcap; doc = {}")
    assert doc["modules"] == ["agentcap", "agentcap.errors"]


# per command: its flags, its scenario fixture, and the submodules it loads
# beyond the ones every command loads; none loads discounting
BASE_MODULES = {"agentcap", "agentcap.errors", "agentcap.model", "agentcap.agent", "agentcap.pareto", "agentcap.cli"}
COMMANDS = {
    "solve": ([], "quadratic-grid-risk_neutral", set()),
    "alpha-star": ([], "quadratic-grid-risk_neutral", {"scaling"}),
    "verify": ([], "quadratic-grid-risk_neutral", {"scaling"}),
    "sweep": (["--k-grid", "0.04,0.09"], "quadratic-grid-risk_neutral", {"scaling", "capstruct"}),
    "capstruct": (["--face", "0.5"], "quadratic-grid-risk_neutral", {"scaling", "capstruct"}),
    "kkt": ([], "entropy-share-cara", {"kkt"}),
}


@pytest.mark.parametrize("command", COMMANDS)
def test_each_command_loads_only_the_modules_it_runs(command, tmp_path):
    flags, fixture, extra = COMMANDS[command]
    argv = [command, "--scenario", str(FORMAT_DIR / f"{fixture}.json"), "--out", str(tmp_path / "out"), *flags]
    doc = loaded_modules(f"import agentcap.cli; doc = {{'code': agentcap.cli.main({argv!r})}}")
    assert doc["code"] == 0
    assert set(doc["modules"]) == BASE_MODULES | {f"agentcap.{m}" for m in extra}


def test_dir_and_star_import_cover_every_export():
    assert set(agentcap.__all__) <= set(dir(agentcap))
    ns = {}
    exec("from agentcap import *", ns)
    assert set(agentcap.__all__) <= set(ns)
