"""Noise synthesis and penalized-least-squares mollification of the data.

Noisy final-time samples on a fine uniform grid of K points are smoothed by
solving

    min_g ||A g - g~||^2 + lambda ||R g||^2

where A is the identity on interior samples with the two boundary rows
replaced by first-difference Neumann constraints, R is the scaled
second-difference penalty, and g~ carries h*b1 and h*b2(T) in its first and
last entries.  The normal equations are pentadiagonal and symmetric
positive definite, so the solve is O(K) however large the data grid is.

Only lambda changes while the discrepancy principle searches for it, so
the bands of A^T A and R^T R and A^T g~ are built once per search and each
lambda costs one O(K) banded Cholesky solve (LAPACK dpbsv).  An 8-point
scan and a log-lambda bisection to a 5 % bracket take at most 17 solves;
the residual jitters by 1-2 % near the crossing, ruling out secant steps.
"""

from __future__ import annotations

import logging
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse
from scipy.linalg.lapack import dpbsv

from .errors import ConfigurationError, IllPosedError
from .model import GridFunction, SpatialGrid

_log = logging.getLogger(__name__)

# Bisection stops at hi/lo <= this: near the crossing the residual rises ~0.016*target
# per unit of ln(lambda), so a 5 % bracket moves it ~0.1 %, below the noise norm's
# own chi-square spread 1/sqrt(2K) = 0.7 % at K = 10001.
_BRACKET_RATIO = 1.05

# A search solve larger than this multiple of the data's sup norm counts as failed:
# the normal equations are near-singular there, so its residual measures rounding,
# not the fit.  On the paper presets every search solve stays within 1.0x the data.
_BLOWUP_RATIO = 1e6


@dataclass(frozen=True)
class NoiseSpec:
    """Seeded Gaussian measurement noise, relative to the data sup norm."""

    level: float
    seed: int = 7

    def __post_init__(self):
        if not (self.level >= 0.0 and np.isfinite(self.level)):
            raise ConfigurationError(f"noise level must be finite and >= 0, got {self.level!r}")
        if self.seed < 0:
            raise ConfigurationError(f"noise seed must be >= 0, got {self.seed!r}")


@dataclass(frozen=True)
class TikhonovConfig:
    """Penalty weight, fixed or selected by the discrepancy principle.

    `lambda_max=None` scales the search ceiling with the data-grid size:
    the penalty rows carry a 1/(K-1)^2 factor, so the weight that matters
    is lambda/(K-1)^4 and a fixed ceiling would stop smoothing anything
    already at modest K.
    """

    lam: float | None = None
    safety: float = 1.01
    lambda_min: float = 1e-12
    lambda_max: float | None = None
    grid_points: int = 8

    def __post_init__(self):
        if self.lam is not None and not (self.lam > 0.0 and np.isfinite(self.lam)):
            raise ConfigurationError(f"fixed lambda must be finite and > 0, got {self.lam!r}")
        if self.lambda_max is not None and not (0.0 < self.lambda_min < self.lambda_max < np.inf):
            raise ConfigurationError(
                f"need 0 < lambda_min < lambda_max < inf, got {self.lambda_min!r}, {self.lambda_max!r}"
            )
        if not (self.lambda_min > 0.0):
            raise ConfigurationError(f"lambda_min must be > 0, got {self.lambda_min!r}")
        if not isinstance(self.grid_points, (int, np.integer)) or self.grid_points < 2:
            raise ConfigurationError(f"grid_points must be an integer >= 2, got {self.grid_points!r}")

    def resolved_lambda_max(self, n_points: int) -> float:
        if self.lambda_max is not None:
            return self.lambda_max
        # effective weight on raw second differences is lambda/(K-1)^4;
        # beyond ~1e14 the normal equations stop being numerically definite
        return 1e14 * float(n_points - 1) ** 4

    def discrepancy_target(self, n_points: int, sigma_abs: float) -> float:
        """Fit residual the discrepancy principle aims for: safety * sqrt(K) * sigma."""
        return float(self.safety * np.sqrt(n_points) * sigma_abs)


def noise_sigma(g_exact: np.ndarray, noise: NoiseSpec) -> float:
    """Absolute noise standard deviation: level times sup of the data."""
    return noise.level * float(np.max(np.abs(np.asarray(g_exact, dtype=float))))


def add_noise(g_exact: np.ndarray, noise: NoiseSpec) -> np.ndarray:
    """Add i.i.d. Gaussian noise, reproducible for a given seed."""
    g = np.asarray(g_exact, dtype=float)
    if g.size < 3:
        raise ConfigurationError(f"need at least 3 data points, got {g.size}")
    if noise.level == 0.0:
        return g.copy()
    rng = np.random.default_rng(noise.seed)
    return g + noise_sigma(g, noise) * rng.standard_normal(g.shape)


def build_design_matrix(n_points: int) -> scipy.sparse.csr_matrix:
    """K x K data-fit matrix: identity on interior samples, first-difference
    Neumann rows first and last."""
    if n_points < 3:
        raise ConfigurationError(f"design matrix needs at least 3 data points, got {n_points}")
    main = np.ones(n_points)
    main[0] = -1.0
    sup = np.zeros(n_points - 1)
    sup[0] = 1.0
    sub = np.zeros(n_points - 1)
    sub[-1] = -1.0
    return scipy.sparse.diags([sub, main, sup], offsets=[-1, 0, 1], format="csr")


def build_regularization_matrix(n_points: int) -> scipy.sparse.csr_matrix:
    """(K-2) x K second-difference penalty rows (1, -2, 1) / (K-1)^2."""
    if n_points < 3:
        raise ConfigurationError(f"regularization matrix needs at least 3 data points, got {n_points}")
    s = 1.0 / (n_points - 1) ** 2
    rows = n_points - 2
    ones = np.full(rows, s)
    return scipy.sparse.diags(
        [ones, -2.0 * ones, ones], offsets=[0, 1, 2], shape=(rows, n_points), format="csr"
    )


def assemble_rhs(g_noisy: np.ndarray, left_flux: float, right_flux_at_T: float, h_data: float) -> np.ndarray:
    """Fit target: boundary entries become h*b1 and h*b2(T), interior
    entries are the (noisy) samples."""
    g = np.asarray(g_noisy, dtype=float)
    if g.size < 3:
        raise ConfigurationError(f"rhs needs at least 3 data points, got length {g.size}")
    if not (h_data > 0.0):
        raise ConfigurationError(f"data spacing must be > 0, got {h_data!r}")
    out = g.copy()
    out[0] = h_data * left_flux
    out[-1] = h_data * right_flux_at_T
    return out


def normal_equations(
    design: scipy.sparse.spmatrix,
    penalty: scipy.sparse.spmatrix,
    g_tilde: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The lambda-free parts of (A^T A + lambda R^T R) g = A^T g~.

    Returns (fit, pen, rhs): the bands of A^T A and of R^T R, and
    rhs = A^T g~.  The bands are in upper storage, the layout the banded
    Cholesky solver expects: row 2 is the main diagonal, row 1 the first
    superdiagonal (shifted right by one), row 0 the second (shifted by
    two).  `fit + lam * pen` rounds each entry exactly as the sparse sum
    A^T A + lam R^T R does, so a lambda search builds these once.
    """
    g_tilde = np.asarray(g_tilde, dtype=float)
    n = design.shape[0]
    if g_tilde.shape != (n,):
        raise ConfigurationError(f"rhs length {g_tilde.size} does not match matrix order {n}")
    if not np.all(np.isfinite(g_tilde)):
        raise ConfigurationError("fit target g_tilde must be finite")
    return _upper_bands(design.T @ design), _upper_bands(penalty.T @ penalty), design.T @ g_tilde


def _upper_bands(normal: scipy.sparse.spmatrix) -> np.ndarray:
    normal = normal.tocsr()
    bands = np.zeros((3, normal.shape[0]))
    bands[2] = normal.diagonal(0)
    bands[1, 1:] = normal.diagonal(1)
    bands[0, 2:] = normal.diagonal(2)
    return bands


def _solve_bands(fit: np.ndarray, pen: np.ndarray, rhs: np.ndarray, lam: float) -> np.ndarray:
    """One banded Cholesky solve (LAPACK dpbsv) of (fit + lam * pen) g = rhs."""
    if not (lam >= 0.0 and np.isfinite(lam)):
        raise ConfigurationError(f"lambda must be finite and >= 0, got {lam!r}")
    _, g, info = dpbsv(fit + lam * pen, rhs, lower=0, overwrite_ab=1)
    if info > 0:
        raise IllPosedError(
            f"normal equations not positive definite (lambda={lam!r}): "
            f"leading minor {info} is not positive"
        )
    if info < 0:
        raise ValueError(f"dpbsv rejected argument {-info}")
    return g


def solve_tikhonov(
    design: scipy.sparse.spmatrix,
    penalty: scipy.sparse.spmatrix,
    g_tilde: np.ndarray,
    lam: float,
) -> np.ndarray:
    """Minimize ||A g - g~||^2 + lambda ||R g||^2 via the banded normal
    equations; cost is linear in the number of data points."""
    return _solve_bands(*normal_equations(design, penalty, g_tilde), lam)


def select_lambda(
    design: scipy.sparse.spmatrix,
    penalty: scipy.sparse.spmatrix,
    g_tilde: np.ndarray,
    sigma_abs: float,
    config: TikhonovConfig | None = None,
) -> float:
    """Discrepancy-principle search for the penalty weight.

    Finds a lambda whose fit residual ||A g - g~|| reaches
    `config.discrepancy_target(K, sigma_abs)`: a geometric scan brackets
    the crossing, then log-lambda bisection shrinks the bracket to
    hi/lo <= 1.05, at most 8 + 9 solves at defaults.  Not Newton or regula
    falsi: near the crossing cond(A^T A + lambda R^T R) ~ 1e14 makes the
    residual jitter by 1-2 % and lose monotonicity.  If even the largest
    lambda falls short, the smallest grid value is returned with a warning;
    a `lambda_min` at or above the resolved ceiling raises ConfigurationError.
    A solve that fails on conditioning ends the scan or the bisection: one
    whose normal equations are not positive definite, or whose solution
    exceeds 1e6 times ||g~||_inf.  The search path is logged at DEBUG.
    """
    cfg = config or TikhonovConfig()
    fit, pen, rhs = normal_equations(design, penalty, g_tilde)
    g_tilde = np.asarray(g_tilde, dtype=float)
    n = g_tilde.size
    target = cfg.discrepancy_target(n, sigma_abs)
    g_bound = _BLOWUP_RATIO * float(np.max(np.abs(g_tilde)))
    residuals = {}

    def reached(lam: float) -> bool:
        g = _solve_bands(fit, pen, rhs, lam)
        if not np.max(np.abs(g)) <= g_bound:
            raise IllPosedError(
                f"solution exceeds {_BLOWUP_RATIO:g} x ||g~||_inf (lambda={lam!r}): near-singular"
            )
        residuals[lam] = float(np.linalg.norm(design @ g - g_tilde))
        return residuals[lam] >= target

    lam_max = cfg.resolved_lambda_max(n)
    if not cfg.lambda_min < lam_max:
        raise ConfigurationError(
            f"lambda_min {cfg.lambda_min:g} must lie below the search ceiling {lam_max:g} at K={n}"
        )
    lo = hi = None
    n_bisect = 0
    for n_grid, lam in enumerate(np.geomspace(cfg.lambda_min, lam_max, cfg.grid_points), 1):
        try:
            if reached(float(lam)):
                hi = float(lam)
                break
        except IllPosedError:
            break  # conditioning limit: treat as the end of the scan
        lo = float(lam)
    bracket = (lo, hi)
    if hi is None:
        warnings.warn(
            f"no lambda in [{cfg.lambda_min:g}, {lam_max:g}] reaches the discrepancy "
            f"target {target:g}; returning lambda_min",
            stacklevel=2,
        )
        hi = float(cfg.lambda_min)
    elif lo is not None:
        # residual is nondecreasing in lambda up to rounding; lo*hi may over- or underflow
        while hi > _BRACKET_RATIO * lo:
            mid = float(np.sqrt(lo) * np.sqrt(hi))
            n_bisect += 1
            try:
                if reached(mid):
                    hi = mid
                else:
                    lo = mid
            except IllPosedError:
                break  # keep the smallest lambda so far that solved and reached the target
    _log.debug(
        "lambda search: bracket %r, %d grid + %d bisection solves, final bracket %r, "
        "lambda %r, residual %r, target %r",
        bracket, n_grid, n_bisect, (lo, hi), hi, residuals.get(hi), target,
    )
    return hi


def restrict(
    g_star: np.ndarray,
    target: SpatialGrid,
    span: tuple[float, float] = (0.0, 1.0),
) -> GridFunction:
    """Piecewise-linear restriction of data-grid values onto solver nodes."""
    g = np.asarray(g_star, dtype=float)
    if g.size < 2:
        raise ConfigurationError(f"need at least 2 data values to interpolate, got {g.size}")
    lo, hi = span
    data_x = np.linspace(lo, hi, g.size)
    nodes = target.nodes
    if nodes[0] < lo or nodes[-1] > hi:
        raise ConfigurationError(
            f"target nodes [{nodes[0]:g}, {nodes[-1]:g}] fall outside the data range [{lo:g}, {hi:g}]"
        )
    return GridFunction(target, np.interp(nodes, data_x, g))
