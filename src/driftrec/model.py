"""Domain types, uniform grids, finite-difference stencils, and the
admissibility validator for the 1D drift-recovery problem.

The underlying model is the parabolic equation

    u_t - u_xx + q(x) u_x + C_p u = f(x)   on (0,1) x (0,T],
    u_x(0,t) = b1,  u_x(1,t) = b2(t),      u(x,0) = v(x),

with unknown drift q(x) and measurement g(x) = u(x,T).  Everything here is
pure and immutable after construction, so values can be shared freely
across concurrent callers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigurationError

# Uniform grid on which `validate_assumptions` samples its sup norms.
_AUDIT_POINTS = 1001


def sample_on(fn: Callable, xs: np.ndarray) -> np.ndarray:
    """Evaluate a scalar function on an array of points, tolerating
    callables that only accept scalars or that return scalars.

    A callable that gives anything but one value per point, even point by
    point, raises ConfigurationError naming it.
    """
    xs = np.asarray(xs, dtype=float)
    try:
        out = np.asarray(fn(xs), dtype=float)
    except (TypeError, ValueError):
        out = np.asarray([fn(float(x)) for x in xs], dtype=float)
    if out.ndim == 0:
        out = np.full(xs.shape, float(out))
    if out.shape != xs.shape:
        out = np.asarray([fn(float(x)) for x in xs], dtype=float)
    if out.shape != xs.shape:
        name = getattr(fn, "__qualname__", None) or repr(fn)
        raise ConfigurationError(
            f"{name} must give one value per point: {xs.shape} points gave shape {out.shape}"
        )
    return out


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float, copy=True)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class SpatialGrid:
    """Uniform grid of m intervals (m+1 nodes) on [0, 1]."""

    m: int

    def __post_init__(self):
        if not isinstance(self.m, (int, np.integer)) or self.m < 3:
            raise ConfigurationError(f"grid-interval count m must be an integer >= 3, got {self.m!r}")

    @property
    def h(self) -> float:
        return 1.0 / self.m

    @property
    def nodes(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.m + 1)


@dataclass(frozen=True)
class TemporalGrid:
    """Uniform grid of n_steps steps on [0, horizon]."""

    n_steps: int
    horizon: float

    def __post_init__(self):
        if not isinstance(self.n_steps, (int, np.integer)) or self.n_steps < 1:
            raise ConfigurationError(f"step count n_steps must be an integer >= 1, got {self.n_steps!r}")
        if not (self.horizon > 0.0 and np.isfinite(self.horizon)):
            raise ConfigurationError(f"horizon T must be finite and > 0, got {self.horizon!r}")

    @property
    def tau(self) -> float:
        return self.horizon / self.n_steps

    @property
    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.horizon, self.n_steps + 1)


@dataclass(frozen=True)
class GridPair:
    space: SpatialGrid
    time: TemporalGrid


def build_grids(m: int, n_steps: int, horizon: float) -> GridPair:
    """Construct the consistent spatial/temporal grid pair used everywhere."""
    return GridPair(SpatialGrid(m), TemporalGrid(n_steps, horizon))


@dataclass(frozen=True)
class ProblemSpec:
    """Coefficients and data of the forward model.

    The source f depends on x only: the forward solve samples it once, and
    the inversion's constants q0 = [f + g'' - C_p g]/g' read the same f.
    """

    source: Callable[[np.ndarray], np.ndarray]
    potential: float
    initial: Callable[[np.ndarray], np.ndarray]
    left_flux: float
    right_flux: Callable[[float], float]
    horizon: float

    def __post_init__(self):
        if not (self.potential > 0.0 and np.isfinite(self.potential)):
            raise ConfigurationError(f"potential C_p must be finite and > 0, got {self.potential!r}")
        if not np.isfinite(self.left_flux):
            raise ConfigurationError(f"left_flux b1 must be finite, got {self.left_flux!r}")
        if not (self.horizon > 0.0 and np.isfinite(self.horizon)):
            raise ConfigurationError(f"horizon T must be finite and > 0, got {self.horizon!r}")


@dataclass(frozen=True, eq=False)
class GridFunction:
    """Real values attached to the nodes of a spatial grid."""

    grid: SpatialGrid
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (self.grid.m + 1,):
            raise ConfigurationError(
                f"grid function needs {self.grid.m + 1} values, got shape {vals.shape}"
            )
        if not np.all(np.isfinite(vals)):
            raise ConfigurationError("grid function values must all be finite")
        object.__setattr__(self, "values", _readonly(vals))

    @classmethod
    def sample(cls, grid: SpatialGrid, fn: Callable) -> "GridFunction":
        return cls(grid, sample_on(fn, grid.nodes))


# The two centered differences of the discrete scheme, on node values of spacing h;
# its time and flux rows live in the step matrix (`forward.assemble_step_matrix`).

def centered_first(v: np.ndarray, h: float) -> np.ndarray:
    """(v_{i+1} - v_{i-1}) / (2h) at every interior point of spacing-h samples."""
    return (v[2:] - v[:-2]) / (2.0 * h)


def centered_second(v: np.ndarray, h: float) -> np.ndarray:
    """(v_{i+1} - 2 v_i + v_{i-1}) / h^2 at every interior point of spacing-h samples."""
    return (v[2:] - 2.0 * v[1:-1] + v[:-2]) / h**2


# ---------------------------------------------------------------------------
# Admissibility diagnostics
# ---------------------------------------------------------------------------

def validate_assumptions(
    spec: ProblemSpec,
    drift: GridFunction,
    data: GridFunction,
) -> dict:
    """Measure the admissibility clauses with discrete norms.

    Norms are sampled sup norms with centered divided differences on a
    uniform audit grid; the drift is linearly interpolated onto that grid.
    The minimum interior slope of the final-time `data` (the positive lower
    bound the theory requires) is recorded too.

    Returns the floats `c1_bound`, `c_v` and `lower_bound_m` and, per clause
    "a" to "f", a "pass"/"warn" verdict in `clause_results` and the measured
    numbers in `notes`.  Violations are reported, never enforced: several of
    the reference experiments intentionally run with a setup that fails
    clause (f), so the validator must not abort anything.
    """
    xa = np.linspace(0.0, 1.0, _AUDIT_POINTS)
    ha = xa[1] - xa[0]

    qa = np.interp(xa, drift.grid.nodes, drift.values)
    dqa = np.empty_like(qa)
    dqa[1:-1] = centered_first(qa, ha)
    dqa[0] = (qa[1] - qa[0]) / ha
    dqa[-1] = (qa[-1] - qa[-2]) / ha
    c1_bound = float(np.max(np.abs(qa)) + np.max(np.abs(dqa)))

    # v and its centered divided differences of order 1..3
    v_diffs = [sample_on(spec.initial, xa)]
    for _ in range(3):
        v_diffs.append(centered_first(v_diffs[-1], ha))
    c_v = max(float(np.max(np.abs(d))) for d in v_diffs)
    v_prime = v_diffs[1]

    fa = sample_on(spec.source, xa)
    f_prime = centered_first(fa, ha)

    T = spec.horizon
    ta = np.linspace(T / _AUDIT_POINTS, T, _AUDIT_POINTS)
    b2a = sample_on(spec.right_flux, ta)
    b2_prime = centered_first(b2a, ta[1] - ta[0])

    results: dict[str, str] = {}
    notes: dict[str, str] = {}

    results["a"] = "pass" if np.isfinite(c1_bound) else "warn"
    notes["a"] = f"measured |q| + |q'| sup = {c1_bound:.6g}"

    results["b"] = "pass" if spec.potential > c1_bound else "warn"
    notes["b"] = f"C_p = {spec.potential:.6g} vs drift C1 bound {c1_bound:.6g}"

    results["c"] = "pass" if spec.left_flux > 0.0 else "warn"
    notes["c"] = f"b1 = {spec.left_flux:.6g}"

    ok_d = bool(np.all(b2a > 0.0) and np.all(b2_prime > 0.0))
    results["d"] = "pass" if ok_d else "warn"
    notes["d"] = f"min b2 = {np.min(b2a):.6g}, min b2' = {np.min(b2_prime):.6g}"

    ok_e = bool(np.all(v_prime >= -1e-10) and np.isfinite(c_v))
    results["e"] = "pass" if ok_e else "warn"
    notes["e"] = f"min v' = {np.min(v_prime):.6g}, C_v = {c_v:.6g}"

    bound_f = (1.0 + c1_bound + spec.potential) * c_v
    bound_fp = (1.0 + 2.0 * c1_bound + spec.potential) * c_v
    ok_f = bool(np.all(fa >= bound_f) and np.all(f_prime >= bound_fp))
    results["f"] = "pass" if ok_f else "warn"
    notes["f"] = (
        f"min f = {np.min(fa):.6g} vs {bound_f:.6g}; "
        f"min f' = {np.min(f_prime):.6g} vs {bound_fp:.6g}"
    )

    return {
        "c1_bound": c1_bound,
        "c_v": c_v,
        "clause_results": results,
        "lower_bound_m": float(np.min(centered_first(data.values, data.grid.h))),
        "notes": notes,
    }
