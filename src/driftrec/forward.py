"""Implicit finite-difference forward solver.

One backward-Euler step of the discrete scheme reads, row by row,

    i = 0:        (u_1 - u_0)/h = b1
    0 < i < m:    u_i/tau - d2(u)_i + q_i d1(u)_i + C_p u_i
                      = u_i^{prev}/tau + f(x_i)
    i = m:        (u_m - u_{m-1})/h = b2(t_n)

with d1, d2 the centered first/second differences.  The matrix does not
depend on time, so each solve factorizes it once with LAPACK `dgttrf` and
calls `dgttrs` once per step, in place on that step's fresh right-hand
side.  Row 0 is stored times s = 2^ceil(log2(2/h)), which makes it
`dgttrf`'s pivot whenever |q| h <= 2 and, s being a power of two, rounds
exactly as eliminating the flux row (-1/h, 1/h) by hand.

`march` is the one time loop: it yields every level u^0, ..., u^N and
holds only the current one.  Whatever does not change from step to step is
computed once per solve: the factors, the source row (f depends on x
only, so it is sampled once, as one full-length vector), b[0] = s b1 and
the time levels as Python floats.  A step is then `b = u/tau; b += f`,
two scalar stores (b[0], b[m]), one `dgttrs` and one finiteness check,
`u @ zeros`, which is NaN exactly when u holds an inf or a NaN.

The inversion reads the solution only at the final time (g = u^N,
u_t ~ (u^N - u^{N-1})/tau), so `solve_forward` keeps just the last two
levels: memory is O(m), not O(nm).
"""

from __future__ import annotations

import math
from collections import deque
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dgttrf, dgttrs

from .errors import ConfigurationError, NumericalError, SingularSystemError
from .model import GridFunction, GridPair, ProblemSpec, sample_on

PIVOT_FLOOR = 1e-300


def assemble_step_matrix(
    spec: ProblemSpec, drift: GridFunction, grids: GridPair
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The bands (lower, diag, upper) of the time-independent step matrix.

    The bands have lengths m, m+1, m; lower[k] sits in row k+1 and
    upper[k] in row k.  Interior row i carries lower = -1/h^2 - q_i/(2h),
    diag = 1/tau + 2/h^2 + C_p, upper = -1/h^2 + q_i/(2h); the two
    boundary rows are the one-sided flux rows (-1/h, 1/h), row 0 times
    `_flux_row_scale(h)`.
    """
    space, time = grids.space, grids.time
    if drift.grid != space:
        raise ConfigurationError(
            f"drift lives on an m={drift.grid.m} grid but grids.space has m={space.m}"
        )
    m = space.m
    h = space.h
    tau = time.tau
    q_int = drift.values[1:-1]

    lower = np.empty(m)
    diag = np.empty(m + 1)
    upper = np.empty(m)

    s = _flux_row_scale(h)
    diag[0] = s * (-1.0 / h)
    upper[0] = s * (1.0 / h)
    lower[:-1] = -1.0 / h**2 - q_int / (2.0 * h)
    diag[1:-1] = 1.0 / tau + 2.0 / h**2 + spec.potential
    upper[1:] = -1.0 / h**2 + q_int / (2.0 * h)
    lower[-1] = -1.0 / h
    diag[-1] = 1.0 / h

    return lower, diag, upper


def _flux_row_scale(h: float) -> float:
    """s = 2^ceil(log2(2/h)), the factor on row 0 and b[0]: s/h >= 2/h^2 >= |lower[0]|
    whenever |q_1| h <= 2, so `dgttrf` pivots on row 0.  Row m needs no scale: the
    pivot of column m-1 is about 1/h^2, far above |lower[-1]| = 1/h."""
    return 2.0 ** math.ceil(math.log2(2.0 / h))


def _lu_factor(lower, diag, upper):
    """LU-factor the bands with `dgttrf`, overwriting them.

    A pivot below PIVOT_FLOOR in any row, dgttrf's exact zeros (info > 0)
    included, raises SingularSystemError naming the row.
    """
    dl, d, du, du2, ipiv, _ = dgttrf(lower, diag, upper,
                                     overwrite_dl=1, overwrite_d=1, overwrite_du=1)
    tiny = np.flatnonzero(np.abs(d) < PIVOT_FLOOR)
    if tiny.size:
        raise SingularSystemError(f"zero pivot in row {tiny[0]}")
    return dl, d, du, du2, ipiv


@dataclass(frozen=True, eq=False)
class FinalLevels:
    """The last two time levels of a forward solve over a grid pair.

    `values` has shape (2, m+1): row 0 is u^{N-1} (u^0 when n_steps = 1)
    and row 1 is u^N.  The array is not copied, only viewed read-only, and
    not checked for finiteness: `march` checks every level it yields.
    """

    grids: GridPair
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        shape = (2, self.grids.space.m + 1)
        if vals.shape != shape:
            raise ConfigurationError(f"final levels need shape {shape}, got {vals.shape}")
        vals = vals.view()
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)


def march(spec: ProblemSpec, drift: GridFunction, grids: GridPair) -> Iterator[np.ndarray]:
    """Yield the levels u^0, u^1, ..., u^N of the implicit scheme.

    Each level is a fresh read-only array of length m+1: a step fills a new
    right-hand side and `dgttrs` overwrites it with the solution, so a
    caller that keeps a level is never aliased by the next step.
    """
    space, time = grids.space, grids.time
    x = space.nodes
    tau = time.tau

    lu = _lu_factor(*assemble_step_matrix(spec, drift, grids))
    left_flux = _flux_row_scale(space.h) * float(spec.left_flux)

    u = np.array(sample_on(spec.initial, x))  # a copy: the callable may return an array it keeps
    if not np.all(np.isfinite(u)):
        raise ConfigurationError("initial condition sampled to non-finite values")
    u.setflags(write=False)
    yield u

    f = np.zeros(space.m + 1)  # the source row; b's boundary entries are overwritten
    f[1:-1] = sample_on(spec.source, x[1:-1])
    zeros = np.zeros(space.m + 1)

    for n, t_n in enumerate(time.times.tolist()[1:], start=1):
        b = u / tau
        b += f
        b[0] = left_flux
        b[-1] = float(spec.right_flux(t_n))
        u = dgttrs(*lu, b, overwrite_b=1)[0]
        if u @ zeros != 0.0:  # NaN exactly when u holds an inf or a NaN
            raise NumericalError(f"forward solution became non-finite at step {n}")
        u.setflags(write=False)
        yield u


def solve_forward(spec: ProblemSpec, drift: GridFunction, grids: GridPair) -> FinalLevels:
    """March the implicit scheme from the sampled initial condition to T,
    keeping only the last two levels."""
    return FinalLevels(grids, np.stack(deque(march(spec, drift, grids), maxlen=2)))


def final_time_derivative(field: FinalLevels) -> GridFunction:
    """Backward difference of the last two time levels, (u^N - u^{N-1})/tau."""
    tau = field.grids.time.tau
    vals = (field.values[-1] - field.values[-2]) / tau
    return GridFunction(field.grids.space, vals)
