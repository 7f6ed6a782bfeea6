"""Exception taxonomy shared across the package.

Two broad families matter for callers (and for CLI exit codes): bad inputs
or setup (`ConfigurationError`) versus computations that went numerically
wrong (`NumericalError` and its subclasses).
"""


class ConfigurationError(ValueError):
    """Invalid sizes, inconsistent grids, unknown names, bad parameters."""


class NumericalError(RuntimeError):
    """A computation failed numerically (blow-up, singular system, ...)."""


class SingularSystemError(NumericalError):
    """A linear solve hit a zero or effectively-zero pivot, or a step matrix
    could not be symmetrized."""


class IllPosedError(NumericalError):
    """A regularized least-squares system could not be factorized, or no
    lambda up to the ceiling reaches the discrepancy target."""


class DataQualityError(NumericalError):
    """Measurement data too rough to differentiate; mollify it first."""


class DivergenceError(NumericalError):
    """The fixed-point iteration produced a non-finite iterate.

    Carries the partial `trace` so the run can be examined post mortem.
    """

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace
