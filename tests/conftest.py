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
    residual product per lambda: target 1.01 * sqrt(K) * sigma, an 8-point
    geometric scan from 1e-12 to 1e14 * (K-1)^4, then log-lambda bisection
    until hi/lo <= 1.05; returns 1e-12 when nothing reaches the target.
    A solve that fails, or whose solution exceeds 1e6 times the data's sup
    norm, ends the scan or the bisection."""
    g_tilde = np.asarray(g_tilde, dtype=float)
    n = g_tilde.size
    target = 1.01 * np.sqrt(n) * sigma_abs

    def reached(lam):
        g_star = tikhonov_solve(design, penalty, g_tilde, lam)
        if not np.max(np.abs(g_star)) <= 1e6 * np.max(np.abs(g_tilde)):
            raise IllPosedError(f"near-singular solve at lambda={lam!r}")
        return np.linalg.norm(design @ g_star - g_tilde) >= target

    lo = hi = None
    for lam in np.geomspace(1e-12, 1e14 * float(n - 1) ** 4, 8):
        try:
            if reached(float(lam)):
                hi = float(lam)
                break
        except IllPosedError:
            break
        lo = float(lam)
    if hi is None or lo is None:
        return 1e-12 if hi is None else hi
    while hi > 1.05 * lo:
        mid = float(np.sqrt(lo) * np.sqrt(hi))
        try:
            if reached(mid):
                hi = mid
            else:
                lo = mid
        except IllPosedError:
            break
    return hi


@pytest.fixture(scope="session")
def tikhonov_reference():
    return tikhonov_solve, tikhonov_search


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


@pytest.fixture(scope="session")
def ex1_spec():
    return reference_spec()


@pytest.fixture(scope="session")
def ex1_setup(ex1_spec):
    """Reference problem with drift sin(x): 100x100 solver grid plus exact
    final-time data generated on a 4x-refined grid."""
    grids = dr.build_grids(100, 100, 1.0)
    fine = dr.build_grids(400, 400, 1.0)
    q_fine = dr.GridFunction.sample(fine.space, np.sin)
    g_fine = dr.solve_forward(ex1_spec, q_fine, fine).values[-1]
    data = dr.GridFunction(grids.space, np.interp(grids.space.nodes, fine.space.nodes, g_fine))
    q_true = dr.GridFunction.sample(grids.space, np.sin)
    return {"spec": ex1_spec, "grids": grids, "data": data, "q_true": q_true}
