"""Exception hierarchy.

Every error raised by the library derives from AgentcapError, and each class
that can end a run carries ``exit_code``, the CLI's exit status for it.
Specialized errors subclass ValidationError or ConfigurationError and
inherit its code.
"""

from __future__ import annotations


class AgentcapError(Exception):
    """Base class for all library errors."""


class ScenarioParseError(AgentcapError):
    """Scenario file is missing, malformed, or schema-incompatible."""

    exit_code = 2


class ValidationError(AgentcapError):
    """Scenario contents violate a structural invariant."""

    exit_code = 3


class EmptyFeasibleSetError(ValidationError):
    """Capacity excludes every candidate distribution."""


class ConfigurationError(AgentcapError):
    """Operation arguments are inconsistent with the scenario."""

    exit_code = 3


class UndefinedCostPointError(ConfigurationError):
    """Cost queried at a distribution it is not defined on."""


class UnsupportedCostError(ConfigurationError):
    """Operation requires a cost capability this kind lacks."""


class InteriorityError(ConfigurationError):
    """Distribution has zero mass where a derivative is needed."""


class DifferentiabilityError(ConfigurationError):
    """Cost kind has no derivatives (table or effort grids)."""


class DegenerateScalingError(ConfigurationError):
    """Scaling factor zero where a scaled quantity is undefined."""


class DegenerateDiscountError(ConfigurationError):
    """Requested date reduction undefined (zero discount weight)."""


class DegenerateFitError(ConfigurationError):
    """Affine representation underdetermined (constant output)."""


class BudgetExceededError(AgentcapError):
    """Enumeration would exceed the configured evaluation budget."""

    exit_code = 4

    def __init__(self, message: str, required: int = 0, budget: int = 0):
        super().__init__(message)
        self.required = required
        self.budget = budget


class EmptySelectionError(AgentcapError):
    """No admissible profile at the requested reservation level."""

    exit_code = 5


class ConvergenceError(AgentcapError):
    """Iterative solve stopped without meeting its tolerance."""

    exit_code = 6


class SingularJacobianError(AgentcapError):
    """Linearized system too ill-conditioned to step."""

    exit_code = 6

    def __init__(self, message: str, condition_number=None):
        super().__init__(message)
        self.condition_number = condition_number
