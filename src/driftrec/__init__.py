"""Recovery of the spatially varying drift coefficient of a 1D parabolic
equation from final-time measurements.

The package bundles an implicit finite-difference forward solver, a
monotone fixed-point inversion loop, Tikhonov mollification for noisy
data, and an experiment harness with six reference reconstructions.
"""

__version__ = "0.1.0"

from .errors import (
    ConfigurationError,
    DataQualityError,
    DivergenceError,
    IllPosedError,
    NumericalError,
    SingularSystemError,
)
from .model import (
    AssumptionReport,
    GridFunction,
    GridPair,
    ProblemSpec,
    SpatialGrid,
    TemporalGrid,
    apply_stencil,
    build_grids,
    sample_on,
    validate_assumptions,
)
from .forward import (
    FinalLevels,
    TridiagonalSystem,
    assemble_step_matrix,
    final_time_derivative,
    march,
    solve_forward,
    thomas_solve,
)
from .inversion import (
    IterationConfig,
    IterationTrace,
    data_terms,
    drift_update,
    error_metrics,
    initial_drift,
    run_iteration,
)
from .mollify import (
    NoiseSpec,
    TikhonovConfig,
    add_noise,
    assemble_rhs,
    build_design_matrix,
    build_regularization_matrix,
    noise_sigma,
    restrict,
    select_lambda,
    solve_tikhonov,
)
from .experiments import (
    FORMATS,
    PRESET_NAMES,
    ExperimentPreset,
    ResultBundle,
    emit_outputs,
    make_preset,
    mollify_data,
    run_experiment,
    run_suite,
    synthesize,
)

__all__ = [
    "__version__",
    "ConfigurationError",
    "NumericalError",
    "SingularSystemError",
    "IllPosedError",
    "DataQualityError",
    "DivergenceError",
    "SpatialGrid",
    "TemporalGrid",
    "GridPair",
    "ProblemSpec",
    "GridFunction",
    "AssumptionReport",
    "build_grids",
    "apply_stencil",
    "sample_on",
    "validate_assumptions",
    "TridiagonalSystem",
    "assemble_step_matrix",
    "thomas_solve",
    "FinalLevels",
    "march",
    "solve_forward",
    "final_time_derivative",
    "IterationConfig",
    "IterationTrace",
    "data_terms",
    "initial_drift",
    "drift_update",
    "run_iteration",
    "error_metrics",
    "NoiseSpec",
    "TikhonovConfig",
    "noise_sigma",
    "add_noise",
    "build_design_matrix",
    "build_regularization_matrix",
    "assemble_rhs",
    "solve_tikhonov",
    "select_lambda",
    "restrict",
    "ExperimentPreset",
    "ResultBundle",
    "PRESET_NAMES",
    "FORMATS",
    "make_preset",
    "synthesize",
    "mollify_data",
    "run_experiment",
    "emit_outputs",
    "run_suite",
]
