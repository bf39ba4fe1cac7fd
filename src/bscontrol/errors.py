"""Error taxonomy.

Every message names the violated assumption (A1-A8 of the source paper) or
the module contract, so CLI exit codes and logs stay greppable.
"""


class BSControlError(Exception):
    """Base class for all toolkit errors."""


class ConfigurationError(BSControlError):
    """Invalid configuration value (exit code 2)."""


class GeometryAssumptionError(ConfigurationError):
    """A geometric assumption (A1-A3) is violated."""


class ResolutionError(ConfigurationError):
    """Grid or weight tables cannot resolve the requested setup."""


class ParameterError(ConfigurationError):
    """Weight parameters out of their admissible range."""

    def __init__(self, message: str, threshold: float | None = None):
        super().__init__(message)
        self.threshold = threshold


class ContractError(BSControlError):
    """An operation precondition was violated by the caller."""


class SmallnessViolationError(BSControlError):
    """Data too large for the small-data regime (exit code 3).

    Raised on Newton non-convergence, and by `synthesize` when a chord
    step does not halve ||h(.,0)|| or the chord runs out of steps.
    """

    def __init__(self, message: str, step: int | None = None,
                 residual: float | None = None):
        super().__init__(message)
        self.step = step
        self.residual = residual


class ConditioningError(BSControlError):
    """The least-squares factorization failed or its recovered fields
    overflow double range (exit code 4)."""
