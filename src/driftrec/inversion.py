"""Fixed-point recovery of the drift from final-time data.

The one-step update maps a drift guess to

    update(q) = [f - u_t(., T; q) + g'' - C_p g] / g'

evaluated with the discrete stencils, where u(.,.;q) is the forward
solution with drift q.  Drifts consistent with the data are exactly the
fixed points of this map, the map preserves the nodewise order of its
arguments, and iterating it from the upper-bound initial guess

    q_0 = [f + g'' - C_p g] / g'

produces a nodewise-decreasing sequence.  Each update costs one forward
solve.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, DivergenceError, NumericalError
from .forward import solve_forward
from .model import GridFunction, GridPair, ProblemSpec, centered_first, centered_second, sample_on

# The data slope g' is floored at this fraction of its largest interior value before
# any division, so noisy data cannot produce near-zero or negative denominators.
_DENOM_FLOOR = 1e-3


@dataclass(frozen=True)
class IterationConfig:
    """Knobs of the fixed-point loop."""

    max_iter: int
    tol_step: float

    def __post_init__(self):
        if not isinstance(self.max_iter, (int, np.integer)) or self.max_iter < 1:
            raise ConfigurationError(f"max_iter must be an integer >= 1, got {self.max_iter!r}")
        if not (self.tol_step > 0.0 and np.isfinite(self.tol_step)):
            raise ConfigurationError(f"tol_step must be finite and > 0, got {self.tol_step}")


@dataclass
class IterationTrace:
    """Everything the loop saw: iterates and per-step diagnostics.

    `mono_violations[n]` is the largest nodewise *increase* from iterate n
    to n+1; the theory predicts none beyond discretization noise.
    """

    iterates: list[GridFunction] = field(default_factory=list)
    step_norms: list[float] = field(default_factory=list)
    floor_hits: int = 0
    mono_violations: list[float] = field(default_factory=list)

    def as_dict(self) -> dict:
        return {
            "n_iterates": len(self.iterates),
            "step_norms": [float(v) for v in self.step_norms],
            "floor_hits": int(self.floor_hits),
            "mono_violations": [float(v) for v in self.mono_violations],
        }


def _fill_boundaries(interior: np.ndarray) -> np.ndarray:
    """Extend interior node values by linear extrapolation from the two
    nearest interior nodes on each side."""
    full = np.empty(interior.size + 2)
    full[1:-1] = interior
    full[0] = 2.0 * interior[0] - interior[1]
    full[-1] = 2.0 * interior[-1] - interior[-2]
    return full


def data_terms(data: GridFunction, spec: ProblemSpec) -> tuple[GridFunction, np.ndarray, int]:
    """The constants of the fixed-point map, computed from the data alone.

    Returns the upper-bound guess q0 = [f + g'' - C_p g] / g' on the data
    grid, the interior slopes g' with the positivity floor applied, and the
    number of nodes that hit the floor.  Raises `DivergenceError`, with no
    trace since no update ran, when no interior slope is positive or more
    than 20% of them sit at the floor; data that rough needs mollification
    first.
    """
    grid = data.grid
    slope = centered_first(data.values, grid.h)
    scale = float(np.max(slope))
    if scale <= 0.0:
        # every slope would sit below any positive floor
        raise DivergenceError("the data has no increasing interior slope; "
                              "mollify it or check that it is final-time data")
    floor = _DENOM_FLOOR * scale
    hits = int(np.count_nonzero(slope < floor))
    slope = np.maximum(slope, floor)
    n_int = grid.m - 1
    if hits > 0.2 * n_int:
        raise DivergenceError(
            f"{hits} of {n_int} interior data slopes hit the safeguard floor; "
            "the data is too rough to differentiate - mollify it first"
        )

    curvature = centered_second(data.values, grid.h)
    f_int = sample_on(spec.source, grid.nodes[1:-1])
    q_int = (f_int + curvature - spec.potential * data.values[1:-1]) / slope
    return GridFunction(grid, _fill_boundaries(q_int)), slope, hits


def drift_update(
    drift: GridFunction,
    q0: GridFunction,
    slope: np.ndarray,
    spec: ProblemSpec,
    grids: GridPair,
) -> GridFunction:
    """One application of the fixed-point map (one forward solve).

    `q0` and `slope` are the initial guess and floored interior data
    slopes from `data_terms`.  Nodewise the result is
    q0 - u_t(., T; drift) / slope at interior nodes, with boundary values
    linearly extrapolated.
    """
    _, u_t = solve_forward(spec, drift, grids)
    k_int = q0.values[1:-1] - u_t[1:-1] / slope
    values = _fill_boundaries(k_int)
    if not np.all(np.isfinite(values)):
        raise NumericalError("drift update produced non-finite values")
    return GridFunction(q0.grid, values)


def run_iteration(
    data: GridFunction,
    spec: ProblemSpec,
    grids: GridPair,
    cfg: IterationConfig,
) -> tuple[GridFunction, IterationTrace]:
    """Iterate the update from the upper-bound guess until the step norm
    drops below `tol_step` or `max_iter` updates have been taken.

    Returns the first iterate whose fixed-point residual is below the
    tolerance (the last computed iterate if the budget runs out), plus the
    full trace.  An update that fails numerically raises `DivergenceError`
    carrying the partial trace.
    """
    q0, slope, hits = data_terms(data, spec)
    q_cur = q0
    trace = IterationTrace(iterates=[q_cur], floor_hits=hits)

    for _ in range(cfg.max_iter):
        try:
            q_next = drift_update(q_cur, q0, slope, spec, grids)
        except NumericalError as exc:
            raise DivergenceError(f"iteration diverged: {exc}", trace=trace) from exc
        diff = q_next.values - q_cur.values
        step = float(np.max(np.abs(diff)))
        trace.iterates.append(q_next)
        trace.step_norms.append(step)
        trace.mono_violations.append(float(np.max(diff)))
        if step < cfg.tol_step:
            return q_cur, trace
        q_cur = q_next
    return q_cur, trace


def error_metrics(recovered: GridFunction, reference: GridFunction) -> dict:
    """Relative discrete L2 (trapezoidal weights) and sup-norm errors.

    When the reference has zero norm the absolute norms are returned and
    the `absolute` flag is set.
    """
    if recovered.grid != reference.grid:
        raise ConfigurationError("recovered and reference drifts live on different grids")
    h = reference.grid.h
    w = np.full(reference.grid.m + 1, h)
    w[0] = w[-1] = h / 2.0

    diff = recovered.values - reference.values
    err_l2 = float(np.sqrt(np.sum(w * diff**2)))
    err_inf = float(np.max(np.abs(diff)))
    ref_l2 = float(np.sqrt(np.sum(w * reference.values**2)))
    ref_inf = float(np.max(np.abs(reference.values)))

    if ref_l2 == 0.0 or ref_inf == 0.0:
        return {"rel_l2": err_l2, "rel_linf": err_inf, "absolute": True}
    return {"rel_l2": err_l2 / ref_l2, "rel_linf": err_inf / ref_inf, "absolute": False}
