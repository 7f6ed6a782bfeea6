"""Experiment presets and the end-to-end reconstruction pipeline.

Six built-in presets cover the reference reconstructions: two smooth
drifts on a 100x100 grid with exact data (ex1a, ex1b), two drifts with
kinks at T=0.5 (ex2c, ex2d), and two rough drifts on a coarse 20x80 grid
recovered from noisy, mollified data (ex3e, ex3f).

A run is: synthesize data with an inverse-crime guard (forward solve on a
refined grid, sampled onto a fine data grid) and optionally add seeded
noise; `reconstruct` the drift from that measurement and its noise level
alone (mollify, restrict to the solver grid, iterate the fixed-point
update); score it against the truth; and emit CSV/JSON/SVG artifacts that
are byte-reproducible from the recorded provenance.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from . import __version__
from .errors import ConfigurationError, DivergenceError
from .forward import solve_forward
from .inversion import IterationConfig, IterationTrace, error_metrics, run_iteration
from .model import (GridFunction, GridPair, ProblemSpec, build_grids, sample_on,
                    validate_assumptions)
from .mollify import (
    NoiseSpec,
    add_noise,
    discrepancy_target,
    noise_sigma,
    restrict,
    select_lambda,  # noqa: F401 -- not called here; perfbench/spans.py wraps this name
    select_width,
    solve_tikhonov,  # noqa: F401 -- not called here; perfbench/spans.py wraps this name
)
from .svgplot import line_plot_svg


# ---------------------------------------------------------------------------
# Reference drifts
# ---------------------------------------------------------------------------

def drift_sine(x):
    return np.sin(x)


def drift_parabolic_join(x):
    return np.where(x <= 0.5, x**2, -(x**2) + 2.0 * x - 0.5)


def drift_hat(x):
    return np.where(x <= 0.5, x, 1.0 - x)


def drift_sawtooth(x):
    centers = 0.1 + 0.2 * np.clip(np.floor(x / 0.2), 0, 4)
    return 20.0 * np.abs(x - centers) - 1.0


def drift_staircase(x):
    on = ((x > 0.25) & (x <= 0.5)) | (x > 0.75)
    return np.where(on, 1.0, 0.0)


def drift_plateau_ramp(x):
    return np.where((x >= 0.2) & (x <= 0.8), 0.5 * x, -1.0)


def _reference_spec(horizon: float) -> ProblemSpec:
    """The shared coefficient set of all reference experiments."""
    return ProblemSpec(
        source=lambda x: 10.0 + 10.0 * x,
        potential=5.0,
        initial=lambda x: np.sin(np.pi * x),
        left_flux=1.0,
        right_flux=lambda t: 1.0 + t,
        horizon=horizon,
    )


@dataclass(frozen=True)
class ExperimentPreset:
    """Full description of one reconstruction run."""

    name: str
    spec: ProblemSpec
    q_true: Callable
    solver_grid: tuple[int, int]
    data_grid_refinement: int
    data_points: int
    noise: NoiseSpec | None
    mollify: bool
    iteration: IterationConfig

    def __post_init__(self):
        if not self.name or not self.name.isprintable():
            # the name is text in figure.svg and trace.json: XML and UTF-8 must hold it
            raise ConfigurationError(f"preset name must be non-empty printable text, "
                                     f"got {self.name!r}")
        r = self.data_grid_refinement
        if not isinstance(r, (int, np.integer)) or r < 1:
            raise ConfigurationError(f"data_grid_refinement must be an integer >= 1, got {r!r}")
        k = self.data_points
        if not isinstance(k, (int, np.integer)) or k < 3:
            raise ConfigurationError(f"data_points must be an integer >= 3, got {k!r}")
        if self.data_points < self.solver_grid[0] + 1:
            # fewer samples than solver nodes: restriction would hand the update a coarse polyline
            raise ConfigurationError(
                f"data_points must be >= grid_m + 1 = {self.solver_grid[0] + 1}, "
                f"got {self.data_points}"
            )
        if self.mollify and self.noise is None:
            # nothing to denoise: a run would skip the step yet record mollify=true
            raise ConfigurationError("mollify needs a noise level > 0")


_EXACT = dict(solver_grid=(100, 100), noise_level=0.0, max_iter=3)
_NOISY = dict(solver_grid=(20, 80), noise_level=0.01, max_iter=5)
_PRESET_TABLE = {
    "ex1a": dict(horizon=1.0, q_true=drift_sine, **_EXACT),
    "ex1b": dict(horizon=1.0, q_true=drift_parabolic_join, **_EXACT),
    "ex2c": dict(horizon=0.5, q_true=drift_hat, **_EXACT),
    "ex2d": dict(horizon=0.5, q_true=drift_sawtooth, **_EXACT),
    "ex3e": dict(horizon=1.0, q_true=drift_staircase, **_NOISY),
    "ex3f": dict(horizon=1.0, q_true=drift_plateau_ramp, **_NOISY),
}
PRESET_NAMES = tuple(_PRESET_TABLE)


def make_preset(
    name: str,
    *,
    grid_m: int | None = None,
    grid_n: int | None = None,
    refinement: int | None = None,
    data_points: int | None = None,
    noise_level: float | None = None,
    seed: int | None = None,
    mollify: bool | None = None,
    max_iter: int | None = None,
    tol_step: float | None = None,
) -> ExperimentPreset:
    """Build a named preset, optionally overriding individual fields.

    This is where every run default lives; a noise level of 0 means no noise.
    """
    if name not in _PRESET_TABLE:
        raise ConfigurationError(
            f"unknown preset {name!r}; valid presets: {', '.join(PRESET_NAMES)}"
        )
    base = _PRESET_TABLE[name]
    m, n = base["solver_grid"]
    level = base["noise_level"] if noise_level is None else noise_level
    return ExperimentPreset(
        name=name,
        spec=_reference_spec(base["horizon"]),
        q_true=base["q_true"],
        solver_grid=(m if grid_m is None else grid_m, n if grid_n is None else grid_n),
        data_grid_refinement=4 if refinement is None else refinement,
        data_points=10001 if data_points is None else data_points,
        noise=NoiseSpec(level=level, seed=7 if seed is None else seed) if level != 0.0 else None,
        mollify=level > 0.0 if mollify is None else mollify,
        iteration=IterationConfig(max_iter=base["max_iter"] if max_iter is None else max_iter,
                                  tol_step=1e-4 if tol_step is None else tol_step),
    )


# ---------------------------------------------------------------------------
# Pipeline
# ---------------------------------------------------------------------------

@dataclass
class ResultBundle:
    """Everything one run produced, plus the provenance to reproduce it."""

    preset: ExperimentPreset
    status: str
    error: str | None
    q_true_grid: GridFunction
    q_recovered: GridFunction | None
    trace: IterationTrace | None
    metrics: dict | None
    g_exact: np.ndarray
    g_noisy: np.ndarray
    g_mollified: np.ndarray
    mollification: dict | None
    assumptions: dict
    provenance: dict


def true_final_state(preset: ExperimentPreset, m: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The preset's problem solved with its true drift on an m x n grid: (nodes, u(., T))."""
    grids = build_grids(m, n, preset.spec.horizon)
    q_true = GridFunction.sample(grids.space, preset.q_true)
    u_T, _ = solve_forward(preset.spec, q_true, grids)
    return grids.space.nodes, u_T


def synthesize(preset: ExperimentPreset) -> tuple[np.ndarray, np.ndarray]:
    """Forward-solve on the refined grid and sample onto the data grid.

    Returns (exact samples, measured samples) at `preset.data_points`
    uniform points on [0, 1]; the measurement equals the exact samples
    when the preset carries no noise.
    """
    m, n = preset.solver_grid
    r = preset.data_grid_refinement
    nodes, g_fine = true_final_state(preset, m * r, n * r)

    x_data = np.linspace(0.0, 1.0, preset.data_points)
    g_exact = np.interp(x_data, nodes, g_fine)
    if preset.noise is not None:
        g_measured = add_noise(g_exact, preset.noise)
    else:
        g_measured = g_exact.copy()
    return g_exact, g_measured


def reconstruct(
    spec: ProblemSpec, grids: GridPair, g_measured: np.ndarray, sigma_abs: float | None,
    iteration: IterationConfig,
) -> tuple[np.ndarray, dict | None, GridFunction, GridFunction | None, IterationTrace | None,
           str | None]:
    """Recover the drift from the measurement alone: (mollify) -> restrict -> invert.

    With a noise level `sigma_abs` the data is mollified with the Gaussian
    width the discrepancy principle picks (`select_width`), and the record
    holds the mode (`"kernel"`), the width, the residual, the target, sigma
    and K; with None it is inverted as measured.  Returns (g*, record, g*
    restricted to the solver grid, q_rec, trace, error): a `DivergenceError`
    gives its message, no q_rec and the partial trace.  A width search that
    reaches no width up to the cap raises its `IllPosedError`.
    """
    if sigma_abs is None:
        g_star, mollification = g_measured, None
    else:
        b2_T = float(sample_on(spec.right_flux, [spec.horizon])[0])
        width, g_star = select_width(g_measured, spec.left_flux, b2_T, sigma_abs)
        mollification = {
            "mode": "kernel",
            "width": width,
            "residual": float(np.linalg.norm(g_star - g_measured)),
            "target": discrepancy_target(g_measured.size, sigma_abs),
            "sigma_abs": sigma_abs,
            "data_points": g_measured.size,
        }
    data = restrict(g_star, grids.space)
    try:
        q_rec, trace = run_iteration(data, spec, grids, iteration)
    except DivergenceError as exc:
        return g_star, mollification, data, None, exc.trace, str(exc)
    return g_star, mollification, data, q_rec, trace, None


def run_experiment(preset: ExperimentPreset, out_dir: str | Path | None = None) -> ResultBundle:
    """Execute synthesize -> `reconstruct` -> score against the true drift and data.

    A failed inversion (`DivergenceError`: divergence or hopeless data) is
    captured into the bundle rather than raised, so runs can be compared.  A
    width search that reaches the target at no width up to the cap raises
    its `IllPosedError` instead, before any file is written.  With an
    `out_dir` the run also writes its four output files there.
    """
    spec = preset.spec
    m, n = preset.solver_grid
    grids = build_grids(m, n, spec.horizon)
    q_true_grid = GridFunction.sample(grids.space, preset.q_true)

    g_exact, g_measured = synthesize(preset)
    sigma_abs = noise_sigma(g_exact, preset.noise) if preset.mollify else None
    g_star, mollification, data, q_rec, trace, error = reconstruct(
        spec, grids, g_measured, sigma_abs, preset.iteration)

    if mollification is not None:
        mollification["error_before"] = float(np.linalg.norm(g_measured - g_exact))
        mollification["error_after"] = float(np.linalg.norm(g_star - g_exact))
    metrics = error_metrics(q_rec, q_true_grid) if q_rec is not None else None
    assumptions = validate_assumptions(spec, q_true_grid, data=data)

    noise = preset.noise
    provenance = {
        "preset": preset.name,
        "tool_version": __version__,
        "grid_m": int(m),
        "grid_n": int(n),
        "horizon": float(spec.horizon),
        "refinement": int(preset.data_grid_refinement),
        "inverse_crime_guard": bool(preset.data_grid_refinement >= 2),
        "data_points": int(preset.data_points),
        "noise_level": float(noise.level) if noise is not None else 0.0,
        "seed": int(noise.seed) if noise is not None else None,
        "mollify": bool(preset.mollify),
        "max_iter": int(preset.iteration.max_iter),
        "tol_step": float(preset.iteration.tol_step),
    }

    bundle = ResultBundle(
        preset=preset,
        status="ok" if error is None else "failed",
        error=error,
        q_true_grid=q_true_grid,
        q_recovered=q_rec,
        trace=trace,
        metrics=metrics,
        g_exact=g_exact,
        g_noisy=g_measured,
        g_mollified=g_star,
        mollification=mollification,
        assumptions=assumptions,
        provenance=provenance,
    )
    if out_dir is not None:
        emit_outputs(bundle, out_dir)
    return bundle


# ---------------------------------------------------------------------------
# Output emission
# ---------------------------------------------------------------------------

def csv_lines(columns, formatted: dict | None = None) -> list[str]:
    """One comma-separated line per row of the equal-length columns.

    Each column becomes Python floats once (`tolist`), so every value is
    written as `repr(float(v))`, the shortest text that round-trips.  A
    column is formatted once per distinct bit pattern: `formatted` maps a
    column's bytes to its texts, and callers that share it across calls
    share the columns too.
    """
    if formatted is None:
        formatted = {}
    texts = []
    for col in columns:
        values = np.asarray(col, dtype=float)
        key = values.tobytes()
        if key not in formatted:
            formatted[key] = list(map(repr, values.tolist()))
        texts.append(formatted[key])
    return list(map(",".join, zip(*texts)))


def emit_outputs(bundle: ResultBundle, out_dir: str | Path) -> list[Path]:
    """Write drift.csv, solution.csv, trace.json and figure.svg.

    Returns their paths in that order.  All numbers are written with
    shortest round-trip formatting and stable key ordering, so identical
    bundles produce identical bytes.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    grid = bundle.q_true_grid.grid
    x = grid.nodes

    iterates = bundle.trace.iterates if bundle.trace is not None else []
    header = ["x", "q_true"] + [f"q_{k}" for k in range(len(iterates))]
    cols = [x, bundle.q_true_grid.values] + [it.values for it in iterates]
    # the node column, and g_noisy and g_mollified on a run without noise, are formatted once
    formatted: dict[bytes, list[str]] = {}
    drift_csv = [",".join(header)] + csv_lines(cols, formatted)

    g_exact = restrict(bundle.g_exact, grid).values
    g_noisy = restrict(bundle.g_noisy, grid).values
    g_moll = restrict(bundle.g_mollified, grid).values
    solution_csv = ["x,g_exact,g_noisy,g_mollified"] + csv_lines(
        [x, g_exact, g_noisy, g_moll], formatted
    )

    doc = {
        "status": bundle.status,
        "error": bundle.error,
        "provenance": bundle.provenance,
        "iteration": bundle.trace.as_dict() if bundle.trace is not None else None,
        "metrics": bundle.metrics,
        "mollification": bundle.mollification,
        "assumptions": bundle.assumptions,
    }

    series = [("true drift", x, bundle.q_true_grid.values)]
    if bundle.q_recovered is not None:
        series.append(("recovered drift", x, bundle.q_recovered.values))

    texts = {
        "drift.csv": "\n".join(drift_csv) + "\n",
        "solution.csv": "\n".join(solution_csv) + "\n",
        "trace.json": json.dumps(doc, indent=2, sort_keys=True) + "\n",
        "figure.svg": line_plot_svg(series, f"drift reconstruction: {bundle.preset.name}"),
    }
    written = [out / name for name in texts]
    for path, text in zip(written, texts.values()):
        path.write_text(text, encoding="utf-8")
    return written


def run_suite(out_root: str | Path, **overrides) -> dict[str, ResultBundle]:
    """Run every preset, each into its own subdirectory of `out_root`.

    `overrides` are `make_preset` keywords applied to every preset.  All six
    presets are built, and so checked, before the first run writes a file.
    """
    presets = [make_preset(name, **overrides) for name in PRESET_NAMES]
    return {p.name: run_experiment(p, Path(out_root) / p.name) for p in presets}
