import os

import numpy as np
import pytest
import scipy.linalg
from hypothesis import settings

import driftrec as dr
from driftrec import svgplot
from driftrec.errors import IllPosedError

# CI runs with HYPOTHESIS_PROFILE=ci so that a failing example reproduces
settings.register_profile("ci", derandomize=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


def gauss_solve(matrix, rhs):
    """Dense Gaussian elimination with partial pivoting, written out in
    plain Python so library solvers can be checked against it."""
    a = [list(map(float, row)) for row in np.asarray(matrix, dtype=float)]
    b = [float(v) for v in np.asarray(rhs, dtype=float)]
    n = len(b)
    for k in range(n):
        p = max(range(k, n), key=lambda i: abs(a[i][k]))
        if abs(a[p][k]) == 0.0:
            raise ZeroDivisionError("singular matrix in elimination")
        a[k], a[p] = a[p], a[k]
        b[k], b[p] = b[p], b[k]
        for i in range(k + 1, n):
            factor = a[i][k] / a[k][k]
            for j in range(k, n):
                a[i][j] -= factor * a[k][j]
            b[i] -= factor * b[k]
    x = [0.0] * n
    for i in range(n - 1, -1, -1):
        s = b[i] - sum(a[i][j] * x[j] for j in range(i + 1, n))
        x[i] = s / a[i][i]
    return np.asarray(x)


@pytest.fixture(scope="session")
def dense_solve():
    return gauss_solve


def thomas_factor(lower, diag, upper):
    """Forward elimination of the Thomas algorithm (no pivoting), in plain
    Python; returns reusable multiplier lists.  Reference for the LAPACK
    factorization in `driftrec.forward`.  A zero pivot surfaces as
    ZeroDivisionError."""
    lo = [float(v) for v in lower]
    dg = [float(v) for v in diag]
    up = [float(v) for v in upper]
    n = len(dg)
    w = [0.0] * n
    cp = [0.0] * (n - 1)
    w[0] = dg[0]
    for i in range(1, n):
        cp[i - 1] = up[i - 1] / w[i - 1]
        w[i] = dg[i] - lo[i - 1] * cp[i - 1]
    return lo, w, cp


def thomas_apply(factor, rhs):
    lo, w, cp = factor
    n = len(w)
    r = [float(v) for v in rhs]
    y = [0.0] * n
    y[0] = r[0] / w[0]
    for i in range(1, n):
        y[i] = (r[i] - lo[i - 1] * y[i - 1]) / w[i]
    for i in range(n - 2, -1, -1):
        y[i] = y[i] - cp[i] * y[i + 1]
    return np.asarray(y)


@pytest.fixture(scope="session")
def thomas_reference():
    return thomas_factor, thomas_apply


def tikhonov_solve(design, penalty, g_tilde, lam):
    """Tikhonov solve that forms A^T A + lam R^T R with sparse products on
    every call.  Reference for the prebuilt bands in `driftrec.mollify`."""
    g_tilde = np.asarray(g_tilde, dtype=float)
    normal = (design.T @ design + lam * (penalty.T @ penalty)).tocsr()
    bands = np.zeros((3, design.shape[0]))
    bands[2] = normal.diagonal(0)
    bands[1, 1:] = normal.diagonal(1)
    bands[0, 2:] = normal.diagonal(2)
    try:
        return scipy.linalg.solveh_banded(bands, design.T @ g_tilde, lower=False)
    except np.linalg.LinAlgError as exc:
        raise IllPosedError(str(exc)) from exc


def tikhonov_search(design, penalty, g_tilde, sigma_abs):
    """Discrepancy search with one full reference solve and one sparse
    residual product per lambda: target tau * sqrt(K) * sigma with
    tau^2 = 1 + 3 sqrt(2/K), an 8-point
    geometric scan from 1e-12 to 1e14 * (K-1)^4, then log-lambda bisection
    until hi/lo <= 1.05.  Raises IllPosedError when nothing up to the
    ceiling reaches the target, and when a solve fails or its solution
    exceeds 1e6 times the data's sup norm."""
    g_tilde = np.asarray(g_tilde, dtype=float)
    n = g_tilde.size
    target = np.sqrt(1.0 + 3.0 * np.sqrt(2.0 / n)) * np.sqrt(n) * sigma_abs

    def reached(lam):
        g_star = tikhonov_solve(design, penalty, g_tilde, lam)
        if not np.max(np.abs(g_star)) <= 1e6 * np.max(np.abs(g_tilde)):
            raise IllPosedError(f"near-singular solve at lambda={lam!r}")
        return np.linalg.norm(design @ g_star - g_tilde) >= target

    lo = hi = None
    for lam in np.geomspace(1e-12, 1e14 * float(n - 1) ** 4, 8):
        if reached(float(lam)):
            hi = float(lam)
            break
        lo = float(lam)
    if hi is None:
        raise IllPosedError(f"no lambda up to the ceiling reaches the target {target!r}")
    if lo is None:
        return hi
    while hi > 1.05 * lo:
        mid = float(np.sqrt(lo) * np.sqrt(hi))
        if reached(mid):
            hi = mid
        else:
            lo = mid
    return hi


@pytest.fixture(scope="session")
def tikhonov_reference():
    return tikhonov_solve, tikhonov_search


def cosine_series_mollify(g, b1, b2, width):
    """The Gaussian mollifier of width delta applied to the K samples g on
    [0, 1] with end slopes b1 and b2, summed term by term from a dense K x K
    cosine matrix: psi = b1 x + (b2 - b1) x^2 / 2 takes up the end slopes,
    the DCT-I coefficients of the remainder g - psi are damped by
    exp(-(pi k delta / 2)^2), and psi's own smoothing adds
    (b2 - b1) delta^2 / 4.  Reference for the transforms in `driftrec.mollify`."""
    g = np.asarray(g, dtype=float)
    n = g.size
    x = np.linspace(0.0, 1.0, n)
    psi = b1 * x + 0.5 * (b2 - b1) * x**2
    k = np.arange(n)
    cosines = np.cos(np.pi * np.outer(k, k) / (n - 1))
    weights = np.full(n, 2.0)
    weights[0] = weights[-1] = 1.0
    coef = cosines @ (weights * (g - psi))
    damped = weights * coef * np.exp(-((0.5 * np.pi * k * width) ** 2))
    return cosines @ damped / (2 * (n - 1)) + psi + 0.25 * (b2 - b1) * width**2


def reflected_quadrature_mollify(g, b1, b2, width):
    """The same mollifier by direct trapezoid quadrature on the sample
    lattice: the data extended past both ends by the even reflection of
    g - psi, i.e. g(-y) = g(y) - 2 b1 y and g(1 + y) = g(1 - y) + 2 b2 y
    (reflected again wherever ten widths reach past the first reflection),
    summed against rho_delta(t) = exp(-t^2 / delta^2) / (delta sqrt(pi)) with
    weight h over ten widths each side."""
    g = np.asarray(g, dtype=float)
    n = g.size
    h = 1.0 / (n - 1)

    def psi(y):
        return b1 * y + 0.5 * (b2 - b1) * y**2

    remainder = g - psi(np.linspace(0.0, 1.0, n))
    reach = int(np.ceil(10.0 * width / h))
    j = np.arange(-reach, n + reach)
    period = 2 * (n - 1)
    mirrored = np.mod(j, period)
    mirrored = np.where(mirrored > n - 1, period - mirrored, mirrored)
    extended = remainder[mirrored] + psi(j * h)
    t = np.arange(-reach, reach + 1) * h
    weights = h * np.exp(-((t / width) ** 2)) / (width * np.sqrt(np.pi))
    return np.convolve(extended, weights, mode="valid")


def transform_width_search(g, b1, b2, sigma_abs):
    """The width search with one inverse transform per trial: the cap 0.5,
    then log-width bisection from [1e-3, 0.5] to hi/lo <= 1.05, each
    residual ||g_delta - g|| taken from the smoothing itself.  Returns
    (width, g_delta), the smoothing kept from the trial at hi, or raises
    IllPosedError when the cap falls short.  Reference for the spectral
    residuals of `driftrec.select_width`."""
    g = np.asarray(g, dtype=float)
    smooth = dr.mollify._gaussian_mollifier(g, b1, b2)
    target = dr.TikhonovConfig.discrepancy_target(g.size, sigma_abs)
    lo, hi = 1e-3, 0.5
    kept = smooth(hi)
    if np.linalg.norm(kept - g) < target:
        raise IllPosedError("no width up to the cap reaches the discrepancy target")
    while hi > 1.05 * lo:
        mid = float(np.sqrt(lo * hi))
        g_mid = smooth(mid)
        if np.linalg.norm(g_mid - g) < target:
            lo = mid
        else:
            hi, kept = mid, g_mid
    return hi, kept


@pytest.fixture(scope="session")
def mollifier_reference():
    return cosine_series_mollify, reflected_quadrature_mollify


@pytest.fixture(scope="session")
def width_search_reference():
    return transform_width_search


def csv_row_reference(values):
    """One CSV row, formatted one value at a time.  Reference for
    `driftrec.experiments.csv_lines`."""
    return ",".join(repr(float(v)) for v in values)


def svg_points_reference(series):
    """The polyline `points` text of each (label, x, y) series, mapped and
    formatted one point at a time with the ranges and padding of
    `driftrec.svgplot.line_plot_svg`.  Reference for its array mapping."""
    xs = np.concatenate([np.asarray(s[1], dtype=float) for s in series])
    ys = np.concatenate([np.asarray(s[2], dtype=float) for s in series])
    x_lo, x_hi = float(np.min(xs)), float(np.max(xs))
    y_lo, y_hi = float(np.min(ys)), float(np.max(ys))
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    pad = 0.05 * (y_hi - y_lo) if y_hi > y_lo else 0.5
    y_lo -= pad
    y_hi += pad
    plot_w = svgplot._WIDTH - svgplot._MARGIN_L - svgplot._MARGIN_R
    plot_h = svgplot._HEIGHT - svgplot._MARGIN_T - svgplot._MARGIN_B

    def px(x):
        return svgplot._MARGIN_L + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y):
        return svgplot._MARGIN_T + (y_hi - y) / (y_hi - y_lo) * plot_h

    return [
        " ".join(f"{px(float(x)):.3f},{py(float(y)):.3f}"
                 for x, y in zip(np.asarray(sx, dtype=float), np.asarray(sy, dtype=float)))
        for _, sx, sy in series
    ]


@pytest.fixture(scope="session")
def output_reference():
    return csv_row_reference, svg_points_reference


def reference_spec(horizon=1.0):
    return dr.ProblemSpec(
        source=lambda x: 10.0 + 10.0 * np.asarray(x, dtype=float),
        potential=5.0,
        initial=lambda x: np.sin(np.pi * np.asarray(x, dtype=float)),
        left_flux=1.0,
        right_flux=lambda t: 1.0 + t,
        horizon=horizon,
    )


def _manufactured_exact(x, t):
    return np.exp(-t) * np.cosh(2.0 * np.asarray(x, dtype=float)) + 2.0


@pytest.fixture(scope="session")
def manufactured():
    """A closed-form solution of the model and its spec: (spec, exact(x, t)).

    u*(x, t) = exp(-t) cosh(2x) + 2 with q = 0 and C_p = 5 solves the PDE with
    the constant source f = 2 C_p, because -phi'' + (C_p - 1) phi = 0 for
    phi = cosh(2x).  Its fluxes are b1 = 0 and b2(t) = 2 sinh(2) exp(-t).
    """
    c_p = 5.0
    spec = dr.ProblemSpec(
        source=lambda x: 2.0 * c_p,
        potential=c_p,
        initial=lambda x: _manufactured_exact(x, 0.0),
        left_flux=0.0,
        right_flux=lambda t: 2.0 * np.sinh(2.0) * np.exp(-t),
        horizon=1.0,
    )
    return spec, _manufactured_exact


@pytest.fixture(scope="session")
def ex1_spec():
    return reference_spec()


def _ex1_problem(spec, m):
    """Reference problem with drift sin(x): m x m solver grid plus exact
    final-time data generated on a 4x-refined grid."""
    grids = dr.build_grids(m, m, 1.0)
    fine = dr.build_grids(4 * m, 4 * m, 1.0)
    q_fine = dr.GridFunction.sample(fine.space, np.sin)
    g_fine, _ = dr.solve_forward(spec, q_fine, fine)
    data = dr.GridFunction(grids.space, np.interp(grids.space.nodes, fine.space.nodes, g_fine))
    q_true = dr.GridFunction.sample(grids.space, np.sin)
    return {"spec": spec, "grids": grids, "data": data, "q_true": q_true}


@pytest.fixture(scope="session")
def ex1_setup(ex1_spec):
    """The reference problem on a 100x100 solver grid."""
    return _ex1_problem(ex1_spec, 100)


@pytest.fixture(scope="session")
def ex1_setups(ex1_spec, ex1_setup):
    """The reference problem on m x m solver grids, m in {20, 50, 100}, keyed by m."""
    return {20: _ex1_problem(ex1_spec, 20), 50: _ex1_problem(ex1_spec, 50), 100: ex1_setup}
