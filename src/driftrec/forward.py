"""Implicit finite-difference forward solver.

One backward-Euler step of the discrete scheme reads, row by row,

    i = 0:        (u_0 - u_1)/h = -b1
    0 < i < m:    u_i/tau - d2(u)_i + q_i d1(u)_i + C_p u_i
                      = u_i^{prev}/tau + f(x_i)
    i = m:        (u_m - u_{m-1})/h = b2(t_n)

with d1, d2 the centered first/second differences.  Every off-diagonal of
this matrix M is negative while |q_i| h < 2 at each interior node; M is then
an M-matrix, so the scheme preserves order, and the diagonal matrix
D = diag(d), d_0 = 1, d_{i+1} = d_i sqrt(lower_i/upper_i), makes
S = D^-1 M D symmetric with M's positive spectrum (Golub & Van Loan,
Matrix Computations, 4.3 and 5).  S does not depend on time, so each solve
factors it once as L diag(p) L^T with LAPACK `dpttrf`; then
tau S = L diag(tau p) L^T.  (Factoring tau times S's bands instead gave
about ten times the rounding error in u.)  The march runs in w = D^-1 u,
where a step reads

    tau S w^n = P w^{n-1} + tau f/d - tau b1 e_0 + tau b2(t_n)/d_m e_m,

P the identity with the two flux rows zeroed.  Whatever does not change
from step to step is computed once per solve: d, the factors, tau f/d
(f depends on x only), the left-flux entry -tau b1 and the right-flux
entries tau b2(t_n)/d_m at every time level, sampled in one call.  The
sampled u^0, f and b2 must be finite before any LAPACK call.  A step is
then `w += tau f/d` (BLAS `daxpy`), two scalar stores and one `dpttrs` in
place on w: the loop allocates nothing.  The last two levels are checked
for finiteness once, after the loop.

The inversion reads the solution only at the final time, so `solve_forward`
returns g = u^N and u_t = (u^N - u^{N-1})/tau.  The loop holds just the
current level and copies it once, before the last step; only the levels
that are read are multiplied back by D.  Memory is O(m), not O(nm).
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg.blas import daxpy
from scipy.linalg.lapack import dpttrf, dpttrs

from .errors import ConfigurationError, NumericalError
from .model import GridFunction, GridPair, ProblemSpec, sample_on

PIVOT_FLOOR = 1e-300


def assemble_step_matrix(
    spec: ProblemSpec, drift: GridFunction, grids: GridPair
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The bands (lower, diag, upper) of the time-independent step matrix M.

    The bands have lengths m, m+1, m; lower[k] sits in row k+1 and
    upper[k] in row k.  Interior row i carries lower = -1/h^2 - q_i/(2h),
    diag = 1/tau + 2/h^2 + C_p, upper = -1/h^2 + q_i/(2h); the two
    boundary rows are the one-sided flux rows, (1/h, -1/h) in row 0 and
    (-1/h, 1/h) in row m, so that every off-diagonal is negative while
    |q_i| h < 2.
    """
    space, time = grids.space, grids.time
    if drift.grid != space:
        raise ConfigurationError(
            f"drift lives on an m={drift.grid.m} grid but grids.space has m={space.m}"
        )
    if time.horizon != spec.horizon:
        raise ConfigurationError(
            f"grids.time ends at T={time.horizon!r} but the problem's horizon is {spec.horizon!r}"
        )
    m = space.m
    h = space.h
    tau = time.tau
    q_int = drift.values[1:-1]

    lower = np.empty(m)
    diag = np.empty(m + 1)
    upper = np.empty(m)

    diag[0] = 1.0 / h
    upper[0] = -1.0 / h
    lower[:-1] = -1.0 / h**2 - q_int / (2.0 * h)
    diag[1:-1] = 1.0 / tau + 2.0 / h**2 + spec.potential
    upper[1:] = -1.0 / h**2 + q_int / (2.0 * h)
    lower[-1] = -1.0 / h
    diag[-1] = 1.0 / h

    return lower, diag, upper


def _ldl_factor(lower, diag, upper):
    """Symmetrize the bands of M and factor S = D^-1 M D with `dpttrf`.

    Returns D's diagonal d and the factors (p, l) of S = L diag(p) L^T that
    `dpttrs` takes.  Raises NumericalError naming the first row with
    an off-diagonal that is not negative (for a step matrix, the first
    node with |q| h >= 2), the first node where d is not finite and
    positive, or the first pivot below PIVOT_FLOOR (S not positive
    definite).  Each check tests the whole array and looks for the failing
    row only when it fails.  The bands are not modified.
    """
    if not (np.maximum(lower, upper) < 0.0).all():
        row = np.flatnonzero(~(np.r_[True, lower < 0.0] & np.r_[upper < 0.0, True]))[0]
        raise NumericalError(
            f"the step matrix cannot be symmetrized: an off-diagonal of row {row} is not "
            f"negative (|q| h >= 2 at node {row})"
        )
    ratio = np.sqrt(lower / upper)
    d = np.empty(ratio.size + 1)
    d[0] = 1.0
    with np.errstate(over="ignore"):
        np.cumprod(ratio, out=d[1:])
    positive = (d > 0.0) & (d < math.inf)
    if not positive.all():
        raise NumericalError(
            f"the step matrix cannot be symmetrized: d is not finite and positive at node "
            f"{np.flatnonzero(~positive)[0]}"
        )
    p, l, _ = dpttrf(diag, upper * ratio)
    if not (p >= PIVOT_FLOOR).all():
        raise NumericalError(f"non-positive pivot in row {np.flatnonzero(~(p >= PIVOT_FLOOR))[0]}")
    return d, p, l


def solve_forward(
    spec: ProblemSpec, drift: GridFunction, grids: GridPair
) -> tuple[np.ndarray, np.ndarray]:
    """March the implicit scheme from the sampled initial condition to T.

    Returns (u_T, u_t): the final level u^N and its backward difference
    (u^N - u^{N-1})/tau, with u^{N-1} = u^0 when n_steps = 1; both are
    plain arrays over the m+1 nodes.
    """
    lower, diag, upper = assemble_step_matrix(spec, drift, grids)
    x = grids.space.nodes
    tau = grids.time.tau
    u0 = sample_on(spec.initial, x)
    f_int = sample_on(spec.source, x[1:-1])
    b2 = sample_on(spec.right_flux, grids.time.times[1:])
    for name, values in (("initial condition", u0), ("source", f_int), ("right flux", b2)):
        if not np.isfinite(values).all():
            raise ConfigurationError(f"{name} sampled to non-finite values")
    d, p, l = _ldl_factor(lower, diag, upper)
    p *= tau  # the factors of tau S
    tau_f_d = np.zeros(x.size)  # tau f/d; a level's two flux entries are overwritten
    tau_f_d[1:-1] = tau * f_int / d[1:-1]
    left = -tau * float(spec.left_flux)
    *rights, last = (tau * b2 / d[-1]).tolist()

    # a step in place on w: BLAS daxpy is w += tau f/d without a ufunc's dispatch, and
    # dpttrs's overwrite_b is passed by position, which skips its keyword parsing
    w = u0 / d
    for right in rights:
        daxpy(tau_f_d, w)
        w[0] = left
        w[-1] = right
        dpttrs(p, l, w, 1)
    w_prev = w.copy()
    daxpy(tau_f_d, w)
    w[0] = left
    w[-1] = last
    dpttrs(p, l, w, 1)
    # With finite inputs only an overflow makes a level non-finite.  A step reads the
    # interior of the level before it, and dpttrs spreads a non-finite entry there to every
    # node (S's multipliers are nonzero), so the two levels the result is made of show any
    # that reaches it.  Checked before they are multiplied back by d, so no numpy warning
    # (inf - inf) comes first.
    if not (np.isfinite(w).all() and np.isfinite(w_prev).all()):
        raise NumericalError("forward solution became non-finite")
    u_T = w * d
    prev = u0 if grids.time.n_steps == 1 else w_prev * d
    return u_T, (u_T - prev) / tau
