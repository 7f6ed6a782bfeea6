import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.linalg.lapack import dpttrf, dpttrs

import driftrec as dr
from driftrec.errors import ConfigurationError, NumericalError
from driftrec.forward import _ldl_factor
from driftrec.model import centered_first


def _dense_from_bands(lower, diag, upper):
    n = diag.size
    a = np.zeros((n, n))
    a[np.arange(n), np.arange(n)] = diag
    a[np.arange(1, n), np.arange(n - 1)] = lower
    a[np.arange(n - 1), np.arange(1, n)] = upper
    return a


def _band_solve(lower, diag, upper, rhs):
    """Solve M x = rhs on the bands of M as a `solve_forward` step does: factor
    S = D^-1 M D with `_ldl_factor`, apply one `dpttrs` to D^-1 rhs and multiply
    back by D."""
    d, p, l = _ldl_factor(lower, diag, upper)
    return d * dpttrs(p, l, np.asarray(rhs, dtype=float) / d)[0]


def _constant(c):
    return lambda x: c + 0.0 * np.asarray(x, dtype=float)


@st.composite
def _dominant_bands(draw):
    """Row-diagonally dominant bands of random order with negative, non-symmetric
    off-diagonals (M-matrix bands, like the step matrix's), and rhs of random signs."""
    n = draw(st.integers(3, 30))
    negative = st.floats(-1.0, -1e-3)
    lower = draw(hnp.arrays(float, n - 1, elements=negative))
    upper = draw(hnp.arrays(float, n - 1, elements=negative))
    margin = draw(hnp.arrays(float, n, elements=st.floats(0.5, 5.0)))
    rhs = draw(hnp.arrays(float, n, elements=st.floats(-10.0, 10.0)))
    off = np.abs(np.r_[0.0, lower]) + np.abs(np.r_[upper, 0.0])
    return lower, off + margin, upper, rhs


def _step_bands(spec, m, rng):
    """Step-matrix bands on an m x 4 grid for a random drift with |q| h <= 1.99."""
    grids = dr.build_grids(m, 4, spec.horizon)
    q = dr.GridFunction(grids.space, (1.99 / grids.space.h) * rng.uniform(-1.0, 1.0, m + 1))
    return dr.assemble_step_matrix(spec, q, grids)


class TestAssembly:
    def test_interior_row_coefficients(self):
        # q = 0, C_p = 5, h = 0.1, tau = 0.1
        spec = dr.ProblemSpec(source=_constant(0.0), potential=5.0, initial=_constant(0.0),
                              left_flux=0.0, right_flux=_constant(0.0), horizon=1.0)
        grids = dr.build_grids(10, 10, 1.0)
        q = dr.GridFunction.sample(grids.space, _constant(0.0))
        lower, diag, upper = dr.assemble_step_matrix(spec, q, grids)
        assert lower[0] == pytest.approx(-100.0)
        assert diag[1] == pytest.approx(215.0)
        assert upper[1] == pytest.approx(-100.0)

    def test_boundary_rows(self):
        spec = dr.ProblemSpec(source=_constant(0.0), potential=5.0, initial=_constant(0.0),
                              left_flux=0.0, right_flux=_constant(0.0), horizon=1.0)
        grids = dr.build_grids(10, 10, 1.0)
        q = dr.GridFunction.sample(grids.space, _constant(0.0))
        lower, diag, upper = dr.assemble_step_matrix(spec, q, grids)
        # row 0 is the flux row (1/h, -1/h): every off-diagonal is negative
        assert (diag[0], upper[0]) == (10.0, -10.0)
        assert (lower[-1], diag[-1]) == (-10.0, 10.0)

    def test_interior_sign_pattern_and_dominance(self):
        # |q| h <= 2 keeps the interior rows an M-matrix pattern
        spec = dr.ProblemSpec(source=_constant(0.0), potential=5.0, initial=_constant(0.0),
                              left_flux=0.0, right_flux=_constant(0.0), horizon=1.0)
        grids = dr.build_grids(20, 10, 1.0)
        q = dr.GridFunction.sample(grids.space, _constant(1.0))
        lower, diag, upper = dr.assemble_step_matrix(spec, q, grids)
        assert np.all(lower[:-1] <= 0.0)
        assert np.all(upper[1:] <= 0.0)
        assert np.all(diag[1:-1] > 0.0)
        dominance = diag[1:-1] - (np.abs(lower[:-1]) + np.abs(upper[1:]))
        assert np.all(dominance > 0.0)

    def test_grid_mismatch(self):
        spec = dr.ProblemSpec(source=_constant(0.0), potential=5.0, initial=_constant(0.0),
                              left_flux=0.0, right_flux=_constant(0.0), horizon=1.0)
        grids = dr.build_grids(10, 10, 1.0)
        q = dr.GridFunction.sample(dr.SpatialGrid(12), _constant(0.0))
        with pytest.raises(ConfigurationError, match="grid"):
            dr.assemble_step_matrix(spec, q, grids)
        # grids that stop at T = 0.5 for a problem with T = 1
        short = dr.build_grids(10, 10, 0.5)
        q = dr.GridFunction.sample(short.space, _constant(0.0))
        with pytest.raises(ConfigurationError, match="horizon"):
            dr.assemble_step_matrix(spec, q, short)

    def test_assembly_is_bitwise_reproducible(self):
        spec = dr.ProblemSpec(source=_constant(0.0), potential=5.0, initial=_constant(0.0),
                              left_flux=0.0, right_flux=_constant(0.0), horizon=1.0)
        grids = dr.build_grids(30, 10, 1.0)
        q = dr.GridFunction.sample(grids.space, np.sin)
        s1 = dr.assemble_step_matrix(spec, q, grids)
        s2 = dr.assemble_step_matrix(spec, q, grids)
        for b1, b2 in zip(s1, s2, strict=True):
            assert np.array_equal(b1, b2)


class TestThomas:
    """`_ldl_factor` and one `dpttrs`: the Thomas algorithm on S = D^-1 M D."""

    def test_identity(self):
        # symmetric bands need no scaling: D is the identity and the factors are dpttrf's
        lower = upper = np.array([-1.0, -2.0, -0.5])
        diag = np.array([3.0, 4.0, 3.0, 1.0])
        d, p, l = _ldl_factor(lower, diag, upper)
        assert np.array_equal(d, np.ones(4))
        p_ref, l_ref, _ = dpttrf(diag, upper)
        assert np.array_equal(p, p_ref) and np.array_equal(l, l_ref)

    def test_against_dense_elimination(self, ex1_spec, dense_solve):
        rng = np.random.default_rng(11)
        for _ in range(10):
            lower, diag, upper = _step_bands(ex1_spec, 8, rng)
            rhs = rng.standard_normal(diag.size)
            x = _band_solve(lower, diag, upper, rhs)
            x_ref = dense_solve(_dense_from_bands(lower, diag, upper), rhs)
            assert np.max(np.abs(x - x_ref)) <= 1e-12 * max(1.0, np.max(np.abs(x_ref)))

    def test_residual_contract(self, ex1_spec):
        rng = np.random.default_rng(5)
        for _ in range(10):
            lower, diag, upper = _step_bands(ex1_spec, 25, rng)
            rhs = rng.standard_normal(diag.size)
            x = _band_solve(lower, diag, upper, rhs)
            res = _dense_from_bands(lower, diag, upper) @ x - rhs
            assert np.max(np.abs(res)) <= 1e-10 * max(1e-30, np.max(np.abs(rhs)))

    def test_zero_pivot(self):
        # symmetric bands that are not positive definite: the first pivot is -1
        with pytest.raises(NumericalError, match="pivot in row 0"):
            _ldl_factor(np.full(2, -1.0), np.array([-1.0, 1.0, 1.0]), np.full(2, -1.0))

    def test_zero_pivot_after_row_0(self):
        # the second pivot is 1 - (-2)^2 / 1 = -3
        with pytest.raises(NumericalError, match="pivot in row 1"):
            _ldl_factor(np.full(2, -2.0), np.ones(3), np.full(2, -2.0))

    @settings(max_examples=200, deadline=None)
    @given(system=_dominant_bands())
    def test_matches_references_on_dominant_bands(self, dense_solve, thomas_reference, system):
        factor, apply = thomas_reference
        lower, diag, upper, rhs = system
        x = _band_solve(lower, diag, upper, rhs)
        for x_ref in (apply(factor(lower, diag, upper), rhs),
                      dense_solve(_dense_from_bands(lower, diag, upper), rhs)):
            assert np.max(np.abs(x - x_ref)) <= 1e-12 * max(1.0, np.max(np.abs(x_ref)))


class TestForwardSolve:
    def test_constant_steady_state(self):
        spec = dr.ProblemSpec(source=_constant(5.0), potential=5.0, initial=_constant(1.0),
                              left_flux=0.0, right_flux=_constant(0.0), horizon=1.0)
        space = dr.SpatialGrid(25)
        q = dr.GridFunction.sample(space, _constant(0.0))
        for n_steps in range(1, 26):
            u_T, u_t = dr.solve_forward(spec, q, dr.build_grids(25, n_steps, 1.0))
            assert np.max(np.abs(u_T - 1.0)) <= 1e-12
            assert np.max(np.abs(u_t)) <= 1e-12

    def test_initial_row_is_sampled_initial_condition(self, ex1_spec):
        # one step: u_t is the difference from u^0 itself
        grids = dr.build_grids(20, 1, 1.0)
        q = dr.GridFunction.sample(grids.space, np.sin)
        u_T, u_t = dr.solve_forward(ex1_spec, q, grids)
        u0 = np.sin(np.pi * grids.space.nodes)
        assert np.array_equal(u_t, (u_T - u0) / grids.time.tau)

    def test_reference_setup_spatial_slope_positive(self, ex1_spec):
        grids = dr.build_grids(100, 100, 1.0)
        q = dr.GridFunction.sample(grids.space, np.sin)
        u_T, _ = dr.solve_forward(ex1_spec, q, grids)
        assert np.all(centered_first(u_T, grids.space.h) > 0.0)

    def test_manufactured_solution_error_is_small(self, manufactured):
        # the sup error is 3.28e-2 at m = n = 50; the bound keeps a 1.46x margin
        spec, exact = manufactured
        grids = dr.build_grids(50, 50, 1.0)
        q = dr.GridFunction.sample(grids.space, _constant(0.0))
        u_T, _ = dr.solve_forward(spec, q, grids)
        err = np.max(np.abs(u_T - exact(grids.space.nodes, 1.0)))
        assert err <= 0.048

    def test_scalar_source_matches_vectorized_constant(self, ex1_spec):
        grids = dr.build_grids(20, 10, 1.0)
        q = dr.GridFunction.sample(grids.space, np.sin)
        scalar = dr.solve_forward(replace(ex1_spec, source=lambda x: 10.0), q, grids)
        vector = dr.solve_forward(replace(ex1_spec, source=_constant(10.0)), q, grids)
        for got, want in zip(scalar, vector, strict=True):
            assert np.array_equal(got, want)

    def test_cached_factorization_matches_per_step_assembly(self, ex1_spec):
        grids = dr.build_grids(20, 10, 1.0)
        q = dr.GridFunction.sample(grids.space, np.sin)
        u_T, u_t = dr.solve_forward(ex1_spec, q, grids)

        # re-march in w = D^-1 u assembling, scaling and factoring the matrix at every step
        x = grids.space.nodes
        tau = grids.time.tau
        u0 = dr.sample_on(ex1_spec.initial, x)
        f_int = dr.sample_on(ex1_spec.source, x[1:-1])
        levels = [u0 / _ldl_factor(*dr.assemble_step_matrix(ex1_spec, q, grids))[0]]
        for n in range(1, grids.time.n_steps + 1):
            d, p, l = _ldl_factor(*dr.assemble_step_matrix(ex1_spec, q, grids))
            p = tau * p
            rhs = levels[-1].copy()
            rhs[1:-1] += tau * f_int / d[1:-1]
            rhs[0] = -tau * ex1_spec.left_flux
            rhs[-1] = tau * ex1_spec.right_flux(grids.time.times[n]) / d[-1]
            levels.append(dpttrs(p, l, rhs)[0])
        assert np.array_equal(u_T, levels[-1] * d)
        assert np.array_equal(u_t, (levels[-1] * d - levels[-2] * d) / tau)

    def test_steps_run_in_place(self, ex1_spec, monkeypatch):
        # every step solves in the one array w: the loop allocates no level
        grids = dr.build_grids(20, 10, 1.0)
        q = dr.GridFunction.sample(grids.space, np.sin)
        seen = []

        def spy(p, l, b, *args, **kwargs):
            w, info = dpttrs(p, l, b, *args, **kwargs)
            seen.append((b, w))
            return w, info

        monkeypatch.setattr("driftrec.forward.dpttrs", spy)
        dr.solve_forward(ex1_spec, q, grids)
        assert len(seen) == grids.time.n_steps
        assert all(b is w is seen[0][0] for b, w in seen)

    @settings(max_examples=60, deadline=None)
    @given(m=st.integers(3, 40), n_steps=st.integers(1, 40), a0=st.floats(-1.0, 1.0),
           a1=st.floats(0.0, 1.0), phase=st.floats(0.0, 2.0 * np.pi),
           potential=st.floats(1e-9, 10.0))
    @example(m=40, n_steps=5, a0=1.0, a1=0.0, phase=0.0, potential=5.0)  # |q| h = 1.99: d grows
    @example(m=40, n_steps=5, a0=-1.0, a1=0.0, phase=0.0, potential=5.0)  # or shrinks ~20 a node
    @example(m=3, n_steps=1, a0=0.0, a1=0.3, phase=0.0, potential=5.0)  # u^{N-1} is u^0
    @example(m=3, n_steps=40, a0=0.0, a1=0.3, phase=0.0, potential=5.0)  # 1/tau = 40 > 2/h^2
    @example(m=40, n_steps=40, a0=1.0, a1=0.0, phase=0.0, potential=5.0)  # |q| h = 1.99, 40 steps
    @example(m=40, n_steps=40, a0=-1.0, a1=0.0, phase=0.0, potential=5.0)
    # C_p -> 0: the steady state grows like 1/C_p while u^N stays of order 1
    @example(m=100, n_steps=100, a0=0.5, a1=0.5, phase=0.0, potential=1e-6)
    @example(m=100, n_steps=100, a0=0.5, a1=0.5, phase=0.0, potential=1e-9)
    def test_solve_forward_matches_reference_march(self, ex1_spec, thomas_reference, m,
                                                   n_steps, a0, a1, phase, potential):
        # q = (1.99/h) v with |v| <= 1: every drift with |q| h <= 1.99, not only admissible ones
        ex1_spec = replace(ex1_spec, potential=potential)
        grids = dr.build_grids(m, n_steps, ex1_spec.horizon)
        x = grids.space.nodes
        v = (a0 + a1 * np.sin(2.0 * np.pi * x + phase)) / max(1.0, abs(a0) + a1)
        q = dr.GridFunction(grids.space, (1.99 / grids.space.h) * v)
        u_T, u_t = dr.solve_forward(ex1_spec, q, grids)

        factor, apply = thomas_reference
        fac = factor(*dr.assemble_step_matrix(ex1_spec, q, grids))
        u0 = dr.sample_on(ex1_spec.initial, x)
        f_int = dr.sample_on(ex1_spec.source, x[1:-1])
        times = grids.time.times
        levels = [u0]
        for n in range(1, n_steps + 1):
            rhs = np.empty(x.size)
            rhs[0] = -ex1_spec.left_flux
            rhs[1:-1] = levels[-1][1:-1] / grids.time.tau + f_int
            rhs[-1] = ex1_spec.right_flux(times[n])
            levels.append(apply(fac, rhs))
        # each level within 1e-10 of its scale, so their difference within twice that
        scale = max(1.0, np.max(np.abs(levels[-1])), np.max(np.abs(levels[-2])))
        assert np.max(np.abs(u_T - levels[-1])) <= 1e-10 * scale
        ref_t = (levels[-1] - levels[-2]) / grids.time.tau
        assert np.max(np.abs(u_t - ref_t)) <= 2e-10 * scale / grids.time.tau
        if n_steps == 1:
            assert np.array_equal(u_t, (u_T - u0) / grids.time.tau)

    def test_drift_beyond_the_bound_raises(self, ex1_spec):
        grids = dr.build_grids(10, 10, 1.0)
        h = grids.space.h
        # q h = 5 > 2: the upper entry of row 1 is positive
        q = dr.GridFunction.sample(grids.space, _constant(5.0 / h))
        with pytest.raises(NumericalError, match=r"\|q\| h >= 2 at node 1\)"):
            dr.solve_forward(ex1_spec, q, grids)
        # q h = -2 at node 4 alone: the lower entry of row 4 rounds to 1.4e-14 >= 0
        values = np.zeros(11)
        values[4] = -2.0 / h
        with pytest.raises(NumericalError, match=r"\|q\| h >= 2 at node 4\)"):
            dr.solve_forward(ex1_spec, dr.GridFunction(grids.space, values), grids)
        # |q| h = 1.99 on 400 nodes: d grows or shrinks by ~20 a node, past the float range
        grids = dr.build_grids(400, 1, 1.0)
        for sign in (1.0, -1.0):
            q = dr.GridFunction.sample(grids.space, _constant(sign * 1.99 / grids.space.h))
            with pytest.raises(NumericalError, match="d is not finite and positive"):
                dr.solve_forward(ex1_spec, q, grids)

    def test_memory_is_linear_in_m(self, ex1_spec):
        # the stored field would take (n + 1)(m + 1) * 8 B = 5.1 MB
        m = 800
        grids = dr.build_grids(m, m, 1.0)
        q = dr.GridFunction.sample(grids.space, np.sin)
        tracemalloc.start()
        try:
            u_T, u_t = dr.solve_forward(ex1_spec, q, grids)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert u_T.shape == u_t.shape == (m + 1,)
        assert peak < 1e6

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("node", [0, 4, 8])
    def test_non_finite_step_raises(self, bad, node, monkeypatch):
        # the result is made of the last two levels; an earlier level reaches them
        # through its interior only (the flux rows overwrite b[0] and b[-1]), and the
        # next steps spread it to every node.  The one check after the loop raises
        # before any arithmetic that would warn (pytest turns a RuntimeWarning into an
        # error)
        grids = dr.build_grids(10, 10, 1.0)
        n = grids.time.n_steps
        q = dr.GridFunction.sample(grids.space, _constant(0.0))
        spec = dr.ProblemSpec(source=_constant(0.0), potential=5.0, initial=_constant(1.0),
                              left_flux=0.0, right_flux=_constant(0.0), horizon=1.0)
        for bad_step in (2, n - 1, n) if node else (n - 1, n):
            steps = []

            def spoiled(*args, **kwargs):
                w, info = dpttrs(*args, **kwargs)
                steps.append(info)
                if len(steps) == bad_step:
                    w[node] = bad
                return w, info

            monkeypatch.setattr("driftrec.forward.dpttrs", spoiled)
            with pytest.raises(NumericalError, match="non-finite"):
                dr.solve_forward(spec, q, grids)
            assert len(steps) == n

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("node", [0, 4, 8])  # first, middle and last of 9 interior nodes
    def test_non_finite_input_raises(self, bad, node, monkeypatch):
        # a non-finite source value at any interior node, or a right flux that turns
        # non-finite after the first step, is a configuration error before any step
        def no_step(*args, **kwargs):
            raise AssertionError("solve_forward stepped on non-finite input")

        monkeypatch.setattr("driftrec.forward.dpttrs", no_step)
        grids = dr.build_grids(10, 10, 1.0)
        tau = grids.time.tau
        q = dr.GridFunction.sample(grids.space, _constant(0.0))
        spec = dr.ProblemSpec(source=_constant(0.0), potential=5.0, initial=_constant(1.0),
                              left_flux=0.0, right_flux=lambda t: np.where(t > 1.5 * tau, bad, 0.0),
                              horizon=1.0)
        with pytest.raises(ConfigurationError, match="^right flux sampled to non-finite"):
            dr.solve_forward(spec, q, grids)

        def source(x):
            f = np.zeros_like(np.asarray(x, dtype=float))
            f[node] = bad
            return f

        with pytest.raises(ConfigurationError, match="^source sampled to non-finite"):
            dr.solve_forward(replace(spec, source=source, right_flux=_constant(0.0)), q, grids)

    def test_non_finite_initial_condition_raises(self):
        spec = dr.ProblemSpec(source=_constant(0.0), potential=5.0, initial=_constant(np.nan),
                              left_flux=0.0, right_flux=_constant(0.0), horizon=1.0)
        grids = dr.build_grids(10, 10, 1.0)
        q = dr.GridFunction.sample(grids.space, _constant(0.0))
        with pytest.raises(ConfigurationError, match="non-finite"):
            dr.solve_forward(spec, q, grids)

    def test_nonnegative_step_on_compliant_configurations(self):
        """M-matrix positivity: a step from nonnegative state with
        nonnegative rhs stays nonnegative for admissible, compatible data
        (corner slopes match the boundary fluxes at t=0)."""
        rng = np.random.default_rng(2024)
        for _ in range(20):
            m = int(rng.integers(8, 40))
            n_steps = int(rng.integers(5, 40))
            horizon = float(rng.uniform(0.5, 2.0))
            a0 = float(rng.uniform(-0.5, 0.5))
            a1 = float(rng.uniform(0.1, 0.8))
            phase = float(rng.uniform(0.0, 2.0 * np.pi))
            v0 = float(rng.uniform(0.1, 1.0))
            v1 = float(rng.uniform(0.1, 1.0))
            beta1 = float(rng.uniform(0.1, 1.0))
            c1_bound = abs(a0) + abs(a1) * (1.0 + 2.0 * np.pi)
            c_p = c1_bound + float(rng.uniform(0.5, 2.0))
            c_v = max(v0 + v1, v1)
            f0 = (1.0 + c1_bound + c_p) * c_v * 1.1 + 1.0
            f1 = (1.0 + 2.0 * c1_bound + c_p) * c_v * 1.1 + 1.0

            spec = dr.ProblemSpec(
                source=lambda x, f0=f0, f1=f1: f0 + f1 * np.asarray(x, dtype=float),
                potential=c_p,
                initial=lambda x, v0=v0, v1=v1: v0 + v1 * np.asarray(x, dtype=float),
                left_flux=v1,
                right_flux=lambda t, v1=v1, b=beta1: v1 + b * t,
                horizon=horizon,
            )
            grids = dr.build_grids(m, n_steps, horizon)
            q = dr.GridFunction(grids.space,
                                a0 + a1 * np.sin(2.0 * np.pi * grids.space.nodes + phase))
            assert grids.space.h * np.max(np.abs(q.values)) <= 2.0

            lower, diag, upper = dr.assemble_step_matrix(spec, q, grids)
            assert np.all(lower[:-1] <= 0.0)
            assert np.all(upper[1:] <= 0.0)
            assert np.all(diag[1:-1] > 0.0)

            u0 = dr.sample_on(spec.initial, grids.space.nodes)
            rhs = np.empty(m + 1)
            rhs[0] = -spec.left_flux  # the right-hand side of the flux row (1/h, -1/h)
            rhs[1:-1] = u0[1:-1] / grids.time.tau + dr.sample_on(spec.source, grids.space.nodes[1:-1])
            rhs[-1] = spec.right_flux(grids.time.tau)
            assert np.all(rhs[1:] >= 0.0) and np.all(u0 >= 0.0)
            step = _band_solve(lower, diag, upper, rhs)
            assert np.all(step >= 0.0)


class TestFinalTimeDerivative:
    def test_constant_in_time_field(self):
        # u = 1 solves the model with f = C_p and zero fluxes: every level is 1
        spec = dr.ProblemSpec(source=_constant(5.0), potential=5.0, initial=_constant(1.0),
                              left_flux=0.0, right_flux=_constant(0.0), horizon=1.0)
        grids = dr.build_grids(5, 3, 1.0)
        q = dr.GridFunction.sample(grids.space, _constant(0.0))
        _, u_t = dr.solve_forward(spec, q, grids)
        assert np.max(np.abs(u_t)) <= 1e-12

    def test_linear_in_time_field(self):
        # u = c - 3(T - t) with f = C_p c + 3 and zero fluxes: the one step
        # from u^0 = c - 3 tau lands on u^1 = c, so u_t = 3 at every node
        c, rate, potential = 2.0, 3.0, 5.0
        grids = dr.build_grids(5, 1, 0.5)
        tau = grids.time.tau
        spec = dr.ProblemSpec(source=_constant(potential * c + rate), potential=potential,
                              initial=_constant(c - rate * tau), left_flux=0.0,
                              right_flux=_constant(0.0), horizon=0.5)
        q = dr.GridFunction.sample(grids.space, _constant(0.0))
        u_T, u_t = dr.solve_forward(spec, q, grids)
        assert np.max(np.abs(u_T - c)) <= 1e-12
        assert np.max(np.abs(u_t - rate)) <= 1e-12

    def test_reference_setup_nonnegative(self, ex1_spec):
        grids = dr.build_grids(100, 100, 1.0)
        q = dr.GridFunction.sample(grids.space, np.sin)
        _, u_t = dr.solve_forward(ex1_spec, q, grids)
        assert np.min(u_t) >= -1e-8

    def test_mixed_difference_nonnegative(self, ex1_spec):
        grids = dr.build_grids(100, 100, 1.0)
        q = dr.GridFunction.sample(grids.space, np.sin)
        _, u_t = dr.solve_forward(ex1_spec, q, grids)
        mixed = centered_first(u_t, grids.space.h)
        assert np.min(mixed) >= -1e-6
