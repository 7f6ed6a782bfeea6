"""Exception taxonomy: one class per decision a caller makes.

The CLI exits 2 on a `ConfigurationError` (bad input or setup) and 3 on a
`NumericalError`; `run_iteration` ends on a `NumericalError` from an update
and attaches its trace; `reconstruct` returns a `DivergenceError` (a failed
inversion) as its error message and partial trace, which `run_experiment`
records as a `failed` run that still writes its files; perfbench counts
`IllPosedError` (a failed smoothing step, raised before any file is
written) by name.
"""


class ConfigurationError(ValueError):
    """Invalid sizes, inconsistent grids, unknown names, bad parameters."""


class NumericalError(RuntimeError):
    """A computation failed numerically (blow-up, singular system, ...)."""


class IllPosedError(NumericalError):
    """No mollifier width up to the cap reaches the discrepancy target (the
    one the pipeline raises); or, in the library's Tikhonov solves, the
    normal equations could not be factorized, a search solve exceeded
    1e6 x ||g~||_inf, or no lambda up to the ceiling reaches the target."""


class DivergenceError(NumericalError):
    """The inversion failed: the data could not be differentiated, or an
    update left the drift bound |q| h < 2 or became non-finite.

    Carries the partial `trace` so the run can be examined post mortem; it
    is None when the data failed before any update ran.
    """

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace
