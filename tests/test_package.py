"""The package's public surface: what ``agentcap`` exports, and what it no
longer carries."""

import inspect
import re
from pathlib import Path

import agentcap
from agentcap import discounting, kkt, model, pareto, scaling
from agentcap.cli import save_scenario

from conftest import tangent_scenario

README = Path(__file__).resolve().parents[1] / "README.md"

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
]

# parameters no caller set to anything but their defaults; the threshold's
# evaluation counts are read off the enumeration it holds
REMOVED_PARAMETERS = [
    (scaling.alpha_star, ("u_bar", "tally")),
    (scaling.verify_theorem, ("r", "tally")),
    (pareto.Enumeration.__init__, ("tally",)),
    (kkt.make_initial_point, ("beta", "w")),
    (discounting.DatedSchedule.at_date, ("n",)),
    (discounting.discounted_values, ("s",)),
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
