"""Capacity-constrained principal-agent problems on finite state spaces.

The library enumerates contract/distribution profiles over a simplex lattice,
computes Pareto frontiers and reservation selections, locates the output
scale at which the agent's cost capacity starts to bind, verifies the payoff
comparisons that scale implies, decomposes outputs into debt-plus-equity or
live-or-die legs, and solves the principal's stationarity system. The
``agentcap`` command drives the same operations from scenario files.

``import agentcap`` loads only ``errors``; every other submodule is imported
the first time one of its exported names is read from the package (PEP 562),
and ``_EXPORTS`` says which submodule owns which name. A command of the CLI
loads ``model``, ``agent``, ``pareto`` and ``cli``, plus what it runs:
``scaling`` for ``alpha-star`` and ``verify``, ``scaling`` and
``capstruct`` for ``sweep`` and ``capstruct``, ``kkt`` for ``kkt``. No
command loads ``discounting``.
"""

import importlib

from . import errors  # noqa: F401  (every submodule imports it; it builds no dataclass)

__version__ = "0.1.0"

# {submodule: the names the package exports from it}, in ``__all__`` order
_EXPORTS = {
    "errors": (
        "AgentcapError",
        "BudgetExceededError",
        "ConfigurationError",
        "ConvergenceError",
        "DegenerateDiscountError",
        "DegenerateFitError",
        "DegenerateScalingError",
        "DifferentiabilityError",
        "EmptyFeasibleSetError",
        "EmptySelectionError",
        "InteriorityError",
        "ScenarioParseError",
        "SingularJacobianError",
        "UndefinedCostPointError",
        "UnsupportedCostError",
        "ValidationError",
    ),
    "model": (
        "AgentUtility",
        "Contract",
        "ContractFamily",
        "CostFunction",
        "DebtFamily",
        "Distribution",
        "EffortCost",
        "GridFamily",
        "LinearShareFamily",
        "LiveOrDieFamily",
        "MonotoneBoundedSlopeFamily",
        "OutputFunction",
        "PricedLattice",
        "Profile",
        "QuadraticCost",
        "RelativeEntropyCost",
        "Scenario",
        "StateSpace",
        "TableCost",
        "cost",
        "grid_values",
        "simplex_lattice",
        "validate_scenario",
    ),
    "agent": (
        "AgentFocResidual",
        "BestResponseSet",
        "agent_foc_residual",
        "best_response_convex",
        "best_response_grid",
        "fit_agent_multipliers",
    ),
    "pareto": (
        "Enumeration",
        "EvaluationTally",
        "ParetoSet",
        "Selection",
        "select",
    ),
    "scaling": (
        "AlphaCheck",
        "AlphaStarResult",
        "InequalitySlacks",
        "TheoremReport",
        "alpha_star",
        "alpha_stars",
        "verify_theorem",
    ),
    "capstruct": (
        "DebtEquityDecomposition",
        "LiveOrDieDecomposition",
        "debt_equity_decompose",
        "live_or_die_decompose",
        "scaled_debt_contract",
        "sweep_alpha_star",
    ),
    "kkt": (
        "AffineRepresentation",
        "FocResiduals",
        "PrincipalFocPoint",
        "affine_representation_check",
        "make_initial_point",
        "phi_identity_gap",
        "principal_foc_residual",
        "solve_principal_foc",
    ),
    "discounting": (
        "DatedProfile",
        "DatedSchedule",
        "DiscountPair",
        "DiscountedSlacks",
        "dated_best_response",
        "discounted_inequality_diagnostic",
        "discounted_values",
        "reduce_single_date",
    ),
    "cli": ("load_scenario", "save_scenario", "scenario_from_dict", "scenario_to_dict"),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*(name for names in _EXPORTS.values() for name in names), "__version__"]


def __getattr__(name):
    """An exported name, read from its submodule (imported on first use) and
    kept on the package, so the next read is a plain attribute lookup."""
    module = _OWNER.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f".{module}", __name__), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
