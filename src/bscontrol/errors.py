"""Error taxonomy: one class per CLI exit code (2 configuration, 3
smallness, 4 conditioning; any other `BSControlError` exits 5).

Every message names the violated assumption (A1-A8 of the source paper) or
the module contract, so CLI exit codes and logs stay greppable.  A
`ConfigurationError` covers a bad value, a geometric assumption, the grid
resolution or a weight parameter alike, and its message names which.
"""


class BSControlError(Exception):
    """Base class for all toolkit errors."""


class ConfigurationError(BSControlError):
    """Invalid configuration value, geometric assumption (A1-A3), grid
    resolution or weight parameter (exit code 2)."""


class ContractError(BSControlError):
    """An operation precondition was violated by the caller."""


class SmallnessViolationError(BSControlError):
    """Data too large for the small-data regime (exit code 3).

    Raised on Newton non-convergence, and by `synthesize` when a chord
    step does not halve h(.,0) on the k modes it cancels, or the chord
    runs out of steps.
    """

    def __init__(self, message: str, step: int | None = None,
                 residual: float | None = None):
        super().__init__(message)
        self.step = step
        self.residual = residual


class ConditioningError(BSControlError):
    """The least-squares factorization failed or its recovered fields
    overflow double range (exit code 4)."""
