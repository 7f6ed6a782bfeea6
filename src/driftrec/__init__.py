"""Recovery of the spatially varying drift coefficient of a 1D parabolic
equation from final-time measurements.

The package bundles an implicit finite-difference forward solver, a
monotone fixed-point inversion loop, Gaussian mollification for noisy
data with a discrepancy-principle width, `reconstruct`, which mollifies
and inverts a measurement given only its noise level, and an experiment
harness that scores it on six reference reconstructions.
"""

__version__ = "0.1.0"

from .errors import (
    ConfigurationError,
    DivergenceError,
    IllPosedError,
    NumericalError,
)
from .model import (
    GridFunction,
    GridPair,
    ProblemSpec,
    SpatialGrid,
    TemporalGrid,
    build_grids,
    sample_on,
    validate_assumptions,
)
from .forward import assemble_step_matrix, solve_forward
from .inversion import (
    IterationConfig,
    IterationTrace,
    data_terms,
    drift_update,
    error_metrics,
    run_iteration,
)
from .mollify import (
    NoiseSpec,
    add_noise,
    assemble_rhs,
    build_design_matrix,
    build_regularization_matrix,
    noise_sigma,
    restrict,
    select_lambda,
    select_width,
    solve_tikhonov,
)
from .experiments import (
    PRESET_NAMES,
    ExperimentPreset,
    ResultBundle,
    emit_outputs,
    make_preset,
    reconstruct,
    run_experiment,
    run_suite,
    synthesize,
)

__all__ = [
    "__version__",
    "ConfigurationError",
    "NumericalError",
    "IllPosedError",
    "DivergenceError",
    "SpatialGrid",
    "TemporalGrid",
    "GridPair",
    "ProblemSpec",
    "GridFunction",
    "build_grids",
    "sample_on",
    "validate_assumptions",
    "assemble_step_matrix",
    "solve_forward",
    "IterationConfig",
    "IterationTrace",
    "data_terms",
    "drift_update",
    "run_iteration",
    "error_metrics",
    "NoiseSpec",
    "noise_sigma",
    "add_noise",
    "build_design_matrix",
    "build_regularization_matrix",
    "assemble_rhs",
    "solve_tikhonov",
    "select_lambda",
    "select_width",
    "restrict",
    "ExperimentPreset",
    "ResultBundle",
    "PRESET_NAMES",
    "make_preset",
    "synthesize",
    "reconstruct",
    "run_experiment",
    "emit_outputs",
    "run_suite",
]
