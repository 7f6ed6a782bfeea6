"""Noise synthesis and mollification of the data.

Noisy final-time samples g~ on a fine uniform grid of K points are smoothed
by mollification (Murio, *The Mollification Method and the Numerical
Solution of Ill-Posed Problems*, 1993): convolution with the Gaussian

    rho_delta(t) = exp(-t^2 / delta^2) / (delta sqrt(pi))

after reflecting the data across both ends.  With the Neumann data b1 and
b2(T), psi(x) = b1 x + (b2 - b1) x^2 / 2 takes up the end slopes, so the
remainder g~ - psi has none, and its even extension across x = 0 and x = 1
is the reflection g(-y) = g(y) - 2 b1 y, g(1 + y) = g(1 - y) + 2 b2 y.
One DCT-I of the remainder (an `rfft` of its even extension, length
2(K-1), no padding) gives its cosine series; rho_delta multiplies the
k-th term by exp(-(pi k delta / 2)^2), and applied to psi it adds
(b2 - b1) delta^2 / 4.  The residual ||g_delta - g~|| at a trial width
then follows from the damped coefficients by Parseval, in O(K) with no
transform.  `select_width(g~, b1, b2, sigma)` picks delta by the
discrepancy principle: log-bisection on [1e-3, 0.5] to a 5 % bracket,
8 trial widths, and one inverse transform in all, the smoothing at the
width it returns (1 rfft + 1 irfft, about 1.3 ms at K = 10001).

Penalized least squares, the Tikhonov smoother

    min_g ||A g - g~||^2 + lambda ||R g||^2

(A the identity on interior samples with first-difference Neumann rows
at both ends, R the scaled second-difference penalty, g~ carrying h*b1
and h*b2(T) in its end entries), is off the pipeline: `solve_tikhonov`
(one banded Cholesky solve of the pentadiagonal normal equations, dpbsv),
`select_lambda` and the sparse builders stay only for the names perfbench
reads.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
import scipy.sparse
from scipy.linalg.lapack import dpbsv

from .errors import ConfigurationError, IllPosedError
from .model import GridFunction, SpatialGrid

_log = logging.getLogger(__name__)

# Both bisections stop at hi/lo <= this.  Near the crossing the residual rises by about
# 0.016 x target per unit of ln(lambda) and 0.1 x target per unit of ln(width) (ex3e,
# K = 10001), so a 5 % bracket moves it by ~0.1 % and ~0.5 %, below the noise norm's own
# chi-square spread 1/sqrt(2K) = 0.7 % at K = 10001.
_BRACKET_RATIO = 1.05

# A search solve larger than this multiple of the data's sup norm raises IllPosedError:
# the normal equations are near-singular there, so its residual measures rounding,
# not the fit.  On the paper presets every search solve stays within 1.0x the data.
_BLOWUP_RATIO = 1e6

# The discrepancy target is tau * sqrt(K) * sigma (Morozov's tau > 1).  ||noise||^2 / (K sigma^2)
# has mean 1 and standard deviation sqrt(2/K) (chi-square), so tau^2 = 1 + _TAU_Z * sqrt(2/K)
# puts the target _TAU_Z standard deviations above the noise norm: 1.021 at K = 10001.
_TAU_Z = 3.0

# The lambda search: a geometric scan of _GRID_POINTS values between _LAMBDA_MIN and the ceiling.
_LAMBDA_MIN = 1e-12
_GRID_POINTS = 8

# The width search brackets delta in [_WIDTH_MIN, _WIDTH_MAX] on the unit interval: log-bisection
# from there to _BRACKET_RATIO takes 7 steps, since 500 ** (1 / 2**7) = 1.0497.
_WIDTH_MIN = 1e-3
_WIDTH_MAX = 0.5


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


def discrepancy_target(n_points: int, sigma_abs: float) -> float:
    """Fit residual the discrepancy principle aims for: tau * sqrt(K) * sigma with
    tau^2 = 1 + 3 sqrt(2/K), for a finite sigma >= 0 (a NaN or negative target is
    reached by every smoothing)."""
    if not (sigma_abs >= 0.0 and np.isfinite(sigma_abs)):
        raise ConfigurationError(f"noise sigma must be finite and >= 0, got {sigma_abs!r}")
    tau = np.sqrt(1.0 + _TAU_Z * np.sqrt(2.0 / n_points))
    return float(tau * np.sqrt(n_points) * sigma_abs)


def _lambda_max(n_points: int) -> float:
    """The lambda search's ceiling, 1e14 (K-1)^4: the penalty rows carry a 1/(K-1)^2
    factor, so the weight on raw second differences is lambda/(K-1)^4, and beyond
    ~1e14 the normal equations stop being numerically definite."""
    return 1e14 * float(n_points - 1) ** 4


def noise_sigma(g_exact: np.ndarray, noise: NoiseSpec) -> float:
    """Absolute noise standard deviation: level times sup of the data."""
    return noise.level * float(np.max(np.abs(np.asarray(g_exact, dtype=float))))


def add_noise(g_exact: np.ndarray, noise: NoiseSpec) -> np.ndarray:
    """Add i.i.d. Gaussian noise, reproducible for a given seed."""
    g = np.asarray(g_exact, dtype=float)
    if g.size < 3:
        raise ConfigurationError(f"need at least 3 data points, got {g.size}")
    rng = np.random.default_rng(noise.seed)
    with np.errstate(over="ignore"):
        error = noise_sigma(g, noise) * rng.standard_normal(g.shape)
        if not np.isfinite(error @ error):
            raise ConfigurationError(f"noise level {noise.level!r}: the squared 2-norm of the "
                                     "data error overflows")
    return g + error


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
    """The lambda-free parts of (A^T A + lambda R^T R) g = A^T g~, formed
    by sparse products of any design and penalty matrices.

    Returns (fit, pen, rhs): the bands of A^T A and of R^T R in the upper
    storage the banded Cholesky solver reads (row 2 the main diagonal, row 1
    the first superdiagonal shifted right by one, row 0 the second shifted
    by two), and rhs = A^T g~.
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
    if scipy.sparse.triu(normal, 3).count_nonzero():
        # the banded solver reads diagonals 0-2 only: a wider product would be cut silently
        raise ConfigurationError("normal equations must be pentadiagonal: a product has a "
                                 "nonzero above the second superdiagonal")
    bands = np.zeros((3, normal.shape[0]))
    bands[2] = normal.diagonal(0)
    bands[1, 1:] = normal.diagonal(1)
    bands[0, 2:] = normal.diagonal(2)
    return bands


def fit_residual(g: np.ndarray, g_tilde: np.ndarray) -> float:
    """||A g - g~|| from A's rows: g - g~ inside, the first differences
    minus g~ at the two ends; equal to the sparse product's norm bit for bit."""
    r = g - g_tilde
    r[0] = (g[1] - g[0]) - g_tilde[0]
    r[-1] = (g[-1] - g[-2]) - g_tilde[-1]
    return float(np.linalg.norm(r))


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


def select_lambda(g_tilde: np.ndarray, sigma_abs: float) -> tuple[float, np.ndarray]:
    """Discrepancy-principle search for the penalty weight.

    Finds a lambda whose fit residual ||A g - g~|| reaches
    `discrepancy_target(K, sigma_abs)`, on the normal equations of
    `build_design_matrix(K)` and `build_regularization_matrix(K)`.  The 8
    geometric values from 1e-12 to the ceiling 1e14 (K-1)^4 are scanned
    from the ceiling down: a point that reaches the target becomes hi, and
    the first point below it that falls short becomes lo and ends the scan.
    The residual is nondecreasing in lambda and the points are far apart
    (10^6 at K = 10001), so this is the bracket an ascending scan finds.
    Log-lambda bisection then shrinks it to hi/lo <= 1.05: 2 + 9 solves on
    ex3e's data, whose lambda lies in the top interval, and at most 8 + 9.
    Not Newton or regula falsi: near the crossing
    cond(A^T A + lambda R^T R) ~ 1e14 makes the residual jitter by 1-2 %
    and lose monotonicity.  Returns (lambda, g): g is the search's own
    solve at that lambda.  If even the ceiling falls short, no lambda
    reaches the target: the search raises `IllPosedError` after that one
    solve, naming the ceiling, its residual, the target and K.  Every solve
    must have positive definite normal equations and a solution within 1e6
    times ||g~||_inf; a solve that fails either raises `IllPosedError`
    naming its lambda.  The search path is logged once at DEBUG: the scan
    bracket, the solve counts and the final bracket, with the returned
    lambda's residual and the target.
    """
    g_tilde = np.asarray(g_tilde, dtype=float)
    n = g_tilde.size
    fit, pen, rhs = normal_equations(build_design_matrix(n), build_regularization_matrix(n), g_tilde)
    target = discrepancy_target(n, sigma_abs)
    g_bound = _BLOWUP_RATIO * float(np.max(np.abs(g_tilde)))
    residuals = {}

    def solve(lam: float) -> np.ndarray:
        g = _solve_bands(fit, pen, rhs, lam)
        if not np.max(np.abs(g)) <= g_bound:
            raise IllPosedError(
                f"solution exceeds {_BLOWUP_RATIO:g} x ||g~||_inf (lambda={lam!r}): near-singular"
            )
        residuals[lam] = fit_residual(g, g_tilde)
        return g

    lam_max = _lambda_max(n)
    lo = hi = kept = None  # kept: the solution at hi, the smallest lambda that reached
    n_bisect = 0
    scan = np.geomspace(_LAMBDA_MIN, lam_max, _GRID_POINTS)[::-1].tolist()
    for n_grid, lam in enumerate(scan, 1):
        g = solve(lam)
        if residuals[lam] < target:
            lo = lam
            break
        hi, kept = lam, g
    if hi is None:
        raise IllPosedError(
            f"no lambda up to the ceiling {lam!r} reaches the discrepancy target {target!r} "
            f"at K = {n}: the residual there is {residuals[lam]!r}"
        )
    bracket = (lo, hi)
    if lo is not None:
        # residual is nondecreasing in lambda up to rounding; lo*hi may over- or underflow
        while hi > _BRACKET_RATIO * lo:
            mid = float(np.sqrt(lo) * np.sqrt(hi))
            n_bisect += 1
            g = solve(mid)
            if residuals[mid] < target:
                lo = mid
            else:
                hi, kept = mid, g
    _log.debug(
        "lambda search: bracket %r, %d grid + %d bisection solves, final bracket %r, "
        "lambda %r, residual %r, target %r",
        bracket, n_grid, n_bisect, (lo, hi), hi, residuals[hi], target,
    )
    return hi, kept


class _gaussian_mollifier:
    """rho_delta applied to the K samples `g_measured` on [0, 1], whose end
    slopes are b1 and b2_T, reflected as the module docstring describes.

    Construction takes the one `rfft` of the remainder g - psi.  Calling
    the mollifier with a width returns g_delta at the K sample points, one
    `irfft` per call; `residual(width)` returns ||g_delta - g|| over the K
    samples from the spectrum alone, with no transform.  Named in lower
    case, as a function is, since callers use it as one.
    """

    def __init__(self, g_measured: np.ndarray, b1: float, b2_T: float):
        g = np.asarray(g_measured, dtype=float)
        n = g.size
        if n < 3:
            raise ConfigurationError(f"mollification needs at least 3 data points, got {n}")
        if not (np.all(np.isfinite(g)) and np.isfinite(b1) and np.isfinite(b2_T)):
            raise ConfigurationError("measured data and end slopes must be finite")
        x = np.linspace(0.0, 1.0, n)
        self._curvature = b2_T - b1
        self._psi = x * (b1 + 0.5 * self._curvature * x)
        remainder = g - self._psi
        # DCT-I: the even extension across both ends, one period N = 2(K - 1) samples long
        self._period = 2 * (n - 1)
        self._coef = np.fft.rfft(np.concatenate([remainder, remainder[-2:0:-1]]))
        self._decay = (0.5 * np.pi * np.arange(n)) ** 2
        # c_k / N, the real cosine coefficients over the period, and w_k c_k / N: the
        # full spectrum of the period holds the terms 0 and K - 1 once and every other twice
        self._spectrum = self._coef.real / self._period
        self._weighted = 2.0 * self._spectrum
        self._weighted[[0, -1]] = self._spectrum[[0, -1]]

    def __call__(self, width: float) -> np.ndarray:
        g_w = np.fft.irfft(self._coef * np.exp(-self._decay * width**2), self._period)
        g_w = g_w[:self._psi.size]
        g_w += self._psi + 0.25 * self._curvature * width**2
        return g_w

    def residual(self, width: float) -> float:
        """||g_delta - g|| over the K samples, by Parseval on the period.

        g_delta - g is the inverse transform y of X_k = c_k (exp(-(pi k delta / 2)^2) - 1),
        with X_0 = N (b2 - b1) delta^2 / 4, psi's shift.  Over one period y's squares sum
        to sum_k w_k X_k^2 / N.  The period holds y_0 = sum_k w_k X_k / N and
        y_{K-1} = sum_k (-1)^k w_k X_k / N once and every other sample twice, so the K
        samples' squares sum to half of that sum plus y_0^2 + y_{K-1}^2.
        """
        damp = np.expm1(-self._decay * width**2)
        x = self._spectrum * damp  # X_k / N
        wx = self._weighted * damp  # w_k X_k / N
        x[0] = wx[0] = 0.25 * self._curvature * width**2
        # y_0 = even + odd and y_{K-1} = even - odd
        even, odd = wx[::2].sum(), wx[1::2].sum()
        period_sum = self._period * float(wx @ x)
        return float(np.sqrt(0.5 * (period_sum + (even + odd) ** 2 + (even - odd) ** 2)))


def select_width(g_measured: np.ndarray, b1: float, b2_T: float,
                 sigma_abs: float) -> tuple[float, np.ndarray]:
    """Discrepancy-principle search for the mollifier width.

    Finds the width whose `_gaussian_mollifier` smoothing g_delta of the K
    samples `g_measured` has a residual ||g_delta - g|| over the K samples
    that reaches `discrepancy_target(K, sigma_abs)`: the cap
    0.5 first, then log-width bisection between 1e-3 and 0.5 down to
    hi/lo <= 1.05, always 8 trial widths.  Each trial's residual is read
    from the spectrum by Parseval, so the search makes one `rfft` and one
    `irfft` in all: the smoothing at the width it returns.  Returns
    (width, g_delta): hi, the smallest width that reached, and the
    smoothing at it.  If even the cap falls short, no width reaches the
    target: the search smooths at the cap once and raises `IllPosedError`
    naming the cap, that smoothing's residual, the target and K.  The
    search path is logged once at DEBUG: the target, each trial width in
    order with its residual, the final bracket, the width and the one
    inverse transform.
    """
    g = np.asarray(g_measured, dtype=float)
    mollifier = _gaussian_mollifier(g, b1, b2_T)
    target = discrepancy_target(g.size, sigma_abs)
    trials = []  # (width, residual) in search order

    def falls_short(width: float) -> bool:
        residual = mollifier.residual(width)
        trials.append((width, residual))
        return residual < target

    lo, hi = _WIDTH_MIN, _WIDTH_MAX
    if falls_short(hi):
        residual = float(np.linalg.norm(mollifier(hi) - g))
        raise IllPosedError(
            f"no width up to the cap {hi!r} reaches the discrepancy target {target!r} "
            f"at K = {g.size}: the residual there is {residual!r}"
        )
    while hi > _BRACKET_RATIO * lo:
        mid = float(np.sqrt(lo * hi))
        if falls_short(mid):
            lo = mid
        else:
            hi = mid
    _log.debug(
        "width search: target %r, (width, residual) %s, final bracket %r, width %r, "
        "1 inverse transform",
        target, trials, (lo, hi), hi,
    )
    return hi, mollifier(hi)


def restrict(g_star: np.ndarray, target: SpatialGrid) -> GridFunction:
    """Piecewise-linear restriction of data-grid values on [0, 1] onto solver nodes."""
    g = np.asarray(g_star, dtype=float)
    if g.size < 2:
        raise ConfigurationError(f"need at least 2 data values to interpolate, got {g.size}")
    return GridFunction(target, np.interp(target.nodes, np.linspace(0.0, 1.0, g.size), g))
