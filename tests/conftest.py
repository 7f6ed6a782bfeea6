import numpy as np
import pytest

import driftrec as dr


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
