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
the bands of A^T A and R^T R and A^T g~ are built once per run and each
lambda costs one O(K) banded Cholesky solve (LAPACK dpbsv).  An 8-point
scan from the ceiling down and a log-lambda bisection to a 5 % bracket take
2 + 9 solves on the paper presets, where lambda lies in the top scan
interval, and at most 8 + 9; the residual jitters by 1-2 % near the
crossing, ruling out secant steps.
The search returns its own solve at the chosen lambda, which is the
mollified data, so nothing is solved twice.
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

# The discrepancy search: target _SAFETY * sqrt(K) * sigma (Morozov's tau), and a
# geometric scan of _GRID_POINTS values between _LAMBDA_MIN and the ceiling.
_SAFETY = 1.01
_LAMBDA_MIN = 1e-12
_GRID_POINTS = 8


@dataclass(frozen=True)
class NoiseSpec:
    """Seeded Gaussian measurement noise, relative to the data sup norm.

    The level is > 0: a run without noise carries no NoiseSpec at all.
    """

    level: float
    seed: int

    def __post_init__(self):
        if not (self.level > 0.0 and np.isfinite(self.level)):
            raise ConfigurationError(f"noise level must be finite and > 0, got {self.level!r}")
        if not isinstance(self.seed, (int, np.integer)) or self.seed < 0:
            raise ConfigurationError(f"noise seed must be an integer >= 0, got {self.seed!r}")


@dataclass(frozen=True)
class TikhonovConfig:
    """Penalty weight: a fixed `lam`, or None for the discrepancy principle.

    The search ceiling scales with the data-grid size K: the penalty rows
    carry a 1/(K-1)^2 factor, so the weight that matters is lambda/(K-1)^4
    and a fixed ceiling would stop smoothing anything already at modest K.
    `ExperimentPreset` rejects a fixed `lam` above the ceiling.
    """

    lam: float | None

    def __post_init__(self):
        if self.lam is not None and not (self.lam > 0.0 and np.isfinite(self.lam)):
            raise ConfigurationError(f"fixed lambda must be finite and > 0, got {self.lam!r}")

    @staticmethod
    def resolved_lambda_max(n_points: int) -> float:
        # effective weight on raw second differences is lambda/(K-1)^4;
        # beyond ~1e14 the normal equations stop being numerically definite
        return 1e14 * float(n_points - 1) ** 4

    @staticmethod
    def discrepancy_target(n_points: int, sigma_abs: float) -> float:
        """Fit residual the discrepancy principle aims for: tau * sqrt(K) * sigma."""
        return float(_SAFETY * np.sqrt(n_points) * sigma_abs)


def noise_sigma(g_exact: np.ndarray, noise: NoiseSpec) -> float:
    """Absolute noise standard deviation: level times sup of the data."""
    return noise.level * float(np.max(np.abs(np.asarray(g_exact, dtype=float))))


def add_noise(g_exact: np.ndarray, noise: NoiseSpec) -> np.ndarray:
    """Add i.i.d. Gaussian noise, reproducible for a given seed."""
    g = np.asarray(g_exact, dtype=float)
    if g.size < 3:
        raise ConfigurationError(f"need at least 3 data points, got {g.size}")
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
) -> tuple[float, np.ndarray]:
    """Discrepancy-principle search for the penalty weight.

    Finds a lambda whose fit residual ||A g - g~|| reaches
    `TikhonovConfig.discrepancy_target(K, sigma_abs)`.  The 8 geometric
    values from 1e-12 to `TikhonovConfig.resolved_lambda_max(K)` are
    scanned from the ceiling down: a point that reaches the target becomes
    hi, and the first point below it that falls short becomes lo and ends
    the scan.  The residual is nondecreasing in lambda and the points are
    far apart (10^6 at K = 10001), so this is the bracket an ascending scan
    finds.  Log-lambda bisection then shrinks it to hi/lo <= 1.05: 2 + 9
    solves on the paper presets, whose lambda lies in the top interval, and
    at most 8 + 9.  Not Newton or regula falsi: near the crossing
    cond(A^T A + lambda R^T R) ~ 1e14 makes the residual jitter by 1-2 %
    and lose monotonicity.  Returns (lambda, g): g is the search's own
    solve at that lambda, so the mollified data costs no solve beyond the
    search.  If even the ceiling falls short, lambda_min = 1e-12 is
    returned with a warning after 1 + 1 solves: the scan's one, and one at
    lambda_min, without the blow-up check, that gives g; it raises
    `IllPosedError` if lambda_min cannot be factored.
    A solve fails on conditioning when its normal equations are not
    positive definite or its solution exceeds 1e6 times ||g~||_inf.  The
    scan passes over a failure above every reaching point and falls back to
    lambda_min at a failure below one, as an ascending scan that stops at
    its first failure would; a failure ends the bisection.  The search path
    is logged at DEBUG; in the fallback the scan bracket is (lo, None), lo
    being the point that fell short, if any.
    """
    fit, pen, rhs = normal_equations(design, penalty, g_tilde)
    g_tilde = np.asarray(g_tilde, dtype=float)
    n = g_tilde.size
    target = TikhonovConfig.discrepancy_target(n, sigma_abs)
    g_bound = _BLOWUP_RATIO * float(np.max(np.abs(g_tilde)))
    residuals = {}
    kept = None  # the solution at the smallest lambda so far that reached the target

    def reached(lam: float) -> bool:
        nonlocal kept
        g = _solve_bands(fit, pen, rhs, lam)
        if not np.max(np.abs(g)) <= g_bound:
            raise IllPosedError(
                f"solution exceeds {_BLOWUP_RATIO:g} x ||g~||_inf (lambda={lam!r}): near-singular"
            )
        residuals[lam] = float(np.linalg.norm(design @ g - g_tilde))
        if residuals[lam] < target:
            return False
        kept = g
        return True

    lam_max = TikhonovConfig.resolved_lambda_max(n)
    lo = hi = None
    n_bisect = 0
    for n_grid, lam in enumerate(np.geomspace(_LAMBDA_MIN, lam_max, _GRID_POINTS)[::-1], 1):
        try:
            if not reached(float(lam)):
                lo = float(lam)
                break
        except IllPosedError:
            if hi is None:
                continue  # above every reaching point: an ascending scan stops below it
            hi = None  # below a reaching point: an ascending scan stops here and falls back
            break
        hi = float(lam)
    bracket = (lo, hi)
    if hi is None:
        warnings.warn(
            f"no lambda in [{_LAMBDA_MIN:g}, {lam_max:g}] reaches the discrepancy "
            f"target {target:g}; returning lambda_min",
            stacklevel=2,
        )
        hi = _LAMBDA_MIN
        kept = _solve_bands(fit, pen, rhs, hi)
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
    return hi, kept


def restrict(g_star: np.ndarray, target: SpatialGrid) -> GridFunction:
    """Piecewise-linear restriction of data-grid values on [0, 1] onto solver nodes."""
    g = np.asarray(g_star, dtype=float)
    if g.size < 2:
        raise ConfigurationError(f"need at least 2 data values to interpolate, got {g.size}")
    return GridFunction(target, np.interp(target.nodes, np.linspace(0.0, 1.0, g.size), g))
