import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.linalg.lapack import dgttrf, dgttrs

import driftrec as dr
from driftrec.errors import ConfigurationError, NumericalError, SingularSystemError
from driftrec.forward import _flux_row_scale, _lu_factor
from driftrec.model import centered_first


def _dense_from_bands(lower, diag, upper):
    n = diag.size
    a = np.zeros((n, n))
    a[np.arange(n), np.arange(n)] = diag
    a[np.arange(1, n), np.arange(n - 1)] = lower
    a[np.arange(n - 1), np.arange(1, n)] = upper
    return a


def _band_solve(lower, diag, upper, rhs):
    """Factor copies of the bands with `_lu_factor`, which overwrites its
    input, and apply the factors to a copy of rhs as `march` does each step:
    one `dgttrs`."""
    lu = _lu_factor(*(np.array(band, dtype=float) for band in (lower, diag, upper)))
    return dgttrs(*lu, np.array(rhs, dtype=float), overwrite_b=1)[0]


def _constant(c):
    return lambda x: c + 0.0 * np.asarray(x, dtype=float)


@st.composite
def _dominant_bands(draw):
    """Row-diagonally dominant bands and rhs of random order and signs."""
    n = draw(st.integers(3, 30))
    unit = st.floats(-1.0, 1.0)
    lower = draw(hnp.arrays(float, n - 1, elements=unit))
    upper = draw(hnp.arrays(float, n - 1, elements=unit))
    margin = draw(hnp.arrays(float, n, elements=st.floats(0.5, 5.0)))
    sign = draw(hnp.arrays(float, n, elements=st.sampled_from([-1.0, 1.0])))
    rhs = draw(hnp.arrays(float, n, elements=st.floats(-10.0, 10.0)))
    off = np.abs(np.r_[0.0, lower]) + np.abs(np.r_[upper, 0.0])
    return lower, sign * (off + margin), upper, rhs


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
        # row 0 is the flux row (-1/h, 1/h) times 2^ceil(log2(2/h)) = 32
        assert (diag[0], upper[0]) == (-320.0, 320.0)
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
    def test_identity(self):
        rhs = np.array([3.0, -1.0, 2.0, 0.5])
        assert np.array_equal(_band_solve(np.zeros(3), np.ones(4), np.zeros(3), rhs), rhs)

    def test_against_dense_elimination(self, dense_solve):
        rng = np.random.default_rng(11)
        for _ in range(10):
            n = 6
            diag = rng.uniform(3.0, 6.0, n)
            lower = rng.uniform(-1.0, 1.0, n - 1)
            upper = rng.uniform(-1.0, 1.0, n - 1)
            rhs = rng.standard_normal(n)
            x = _band_solve(lower, diag, upper, rhs)
            x_ref = dense_solve(_dense_from_bands(lower, diag, upper), rhs)
            assert np.max(np.abs(x - x_ref)) <= 1e-12 * max(1.0, np.max(np.abs(x_ref)))

    def test_residual_contract(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            n = 25
            diag = rng.uniform(4.0, 8.0, n)
            lower = rng.uniform(-1.0, 1.0, n - 1)
            upper = rng.uniform(-1.0, 1.0, n - 1)
            rhs = rng.standard_normal(n)
            x = _band_solve(lower, diag, upper, rhs)
            res = _dense_from_bands(lower, diag, upper) @ x - rhs
            assert np.max(np.abs(res)) <= 1e-10 * max(1e-30, np.max(np.abs(rhs)))

    def test_zero_pivot(self):
        with pytest.raises(SingularSystemError, match="pivot"):
            _lu_factor(np.zeros(2), np.array([0.0, 1.0, 1.0]), np.zeros(2))

    def test_zero_pivot_after_row_0(self):
        with pytest.raises(SingularSystemError, match="pivot in row 1"):
            _lu_factor(np.zeros(2), np.array([1.0, 0.0, 1.0]), np.zeros(2))

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
        grids = dr.build_grids(25, 25, 1.0)
        q = dr.GridFunction.sample(grids.space, _constant(0.0))
        levels = np.array(list(dr.march(spec, q, grids)))
        assert np.max(np.abs(levels - 1.0)) <= 1e-12

    def test_initial_row_is_sampled_initial_condition(self, ex1_spec):
        grids = dr.build_grids(20, 5, 1.0)
        q = dr.GridFunction.sample(grids.space, np.sin)
        levels = list(dr.march(ex1_spec, q, grids))
        assert len(levels) == grids.time.n_steps + 1
        assert np.array_equal(levels[0], np.sin(np.pi * grids.space.nodes))

    def test_reference_setup_spatial_slope_positive(self, ex1_spec):
        grids = dr.build_grids(100, 100, 1.0)
        q = dr.GridFunction.sample(grids.space, np.sin)
        field = dr.solve_forward(ex1_spec, q, grids)
        assert np.all(centered_first(field.values[-1], grids.space.h) > 0.0)

    def test_manufactured_solution_error_is_small(self, manufactured):
        # the sup error is 3.28e-2 at m = n = 50; the bound keeps a 1.46x margin
        spec, exact = manufactured
        grids = dr.build_grids(50, 50, 1.0)
        q = dr.GridFunction.sample(grids.space, _constant(0.0))
        field = dr.solve_forward(spec, q, grids)
        err = np.max(np.abs(field.values[-1] - exact(grids.space.nodes, 1.0)))
        assert err <= 0.048

    def test_scalar_source_matches_vectorized_constant(self, ex1_spec):
        grids = dr.build_grids(20, 10, 1.0)
        q = dr.GridFunction.sample(grids.space, np.sin)
        scalar = list(dr.march(replace(ex1_spec, source=lambda x: 10.0), q, grids))
        vector = list(dr.march(replace(ex1_spec, source=_constant(10.0)), q, grids))
        for a, b in zip(scalar, vector, strict=True):
            assert np.array_equal(a, b)

    def test_cached_factorization_matches_per_step_assembly(self, ex1_spec):
        grids = dr.build_grids(20, 10, 1.0)
        q = dr.GridFunction.sample(grids.space, np.sin)
        levels = list(dr.march(ex1_spec, q, grids))

        # re-march assembling the matrix (and factorization) at every step
        x = grids.space.nodes
        tau = grids.time.tau
        u = dr.sample_on(ex1_spec.initial, x)
        f_int = dr.sample_on(ex1_spec.source, x[1:-1])
        for n in range(1, grids.time.n_steps + 1):
            bands = dr.assemble_step_matrix(ex1_spec, q, grids)
            rhs = np.empty(x.size)
            rhs[0] = _flux_row_scale(grids.space.h) * ex1_spec.left_flux
            rhs[1:-1] = u[1:-1] / tau + f_int
            rhs[-1] = ex1_spec.right_flux(grids.time.times[n])
            u = _band_solve(*bands, rhs)
            assert np.array_equal(u, levels[n])

    @settings(max_examples=60, deadline=None)
    @given(m=st.integers(3, 40), n_steps=st.integers(1, 40), a0=st.floats(-0.5, 0.5),
           a1=st.floats(0.0, 0.6), phase=st.floats(0.0, 2.0 * np.pi))
    def test_march_matches_reference_march(self, ex1_spec, thomas_reference, m, n_steps,
                                           a0, a1, phase):
        # |q| + |q'| <= 0.5 + 0.6 (1 + 2 pi) < C_p = 5: admissible drifts
        grids = dr.build_grids(m, n_steps, ex1_spec.horizon)
        x = grids.space.nodes
        q = dr.GridFunction(grids.space, a0 + a1 * np.sin(2.0 * np.pi * x + phase))
        levels = list(dr.march(ex1_spec, q, grids))

        factor, apply = thomas_reference
        fac = factor(*dr.assemble_step_matrix(ex1_spec, q, grids))
        u = dr.sample_on(ex1_spec.initial, x)
        assert np.array_equal(u, levels[0])
        f_int = dr.sample_on(ex1_spec.source, x[1:-1])
        times = grids.time.times
        for n in range(1, n_steps + 1):
            rhs = np.empty(x.size)
            rhs[0] = _flux_row_scale(grids.space.h) * ex1_spec.left_flux
            rhs[1:-1] = u[1:-1] / grids.time.tau + f_int
            rhs[-1] = ex1_spec.right_flux(times[n])
            u = apply(fac, rhs)
            assert np.max(np.abs(levels[n] - u)) <= 1e-10 * max(1.0, np.max(np.abs(u)))

    @settings(max_examples=60, deadline=None)
    @given(m=st.integers(3, 40), n_steps=st.integers(1, 40), a0=st.floats(-1.0, 1.0),
           a1=st.floats(0.0, 1.0), phase=st.floats(0.0, 2.0 * np.pi))
    @example(m=4, n_steps=3, a0=1.0, a1=0.0, phase=0.0)  # |q| h = 2: |diag[0]| = |lower[0]|
    @example(m=10, n_steps=5, a0=-1.0, a1=0.0, phase=0.0)  # lower[0] = 0
    def test_scaled_flux_row_matches_pre_eliminated_march(self, ex1_spec,
                                                          pre_eliminated_reference, m,
                                                          n_steps, a0, a1, phase):
        # q = (2/h) w with |w| <= 1: every drift with |q| h <= 2, not only admissible ones
        grids = dr.build_grids(m, n_steps, ex1_spec.horizon)
        x = grids.space.nodes
        w = (a0 + a1 * np.sin(2.0 * np.pi * x + phase)) / max(1.0, abs(a0) + a1)
        q = dr.GridFunction(grids.space, (2.0 / grids.space.h) * w)
        ipiv = dgttrf(*dr.assemble_step_matrix(ex1_spec, q, grids))[4]
        assert ipiv[0] == 1  # no row-0 interchange
        levels = list(dr.march(ex1_spec, q, grids))
        reference = pre_eliminated_reference(ex1_spec, q, grids)
        for level, ref in zip(levels, reference, strict=True):
            assert np.array_equal(level, ref)

    def test_row_0_interchange_beyond_the_drift_bound(self, ex1_spec, dense_solve):
        # q h = 5 > 2: |lower[0]| = 350 exceeds |diag[0]| = 320, so dgttrf swaps rows 0 and 1
        grids = dr.build_grids(10, 10, 1.0)
        h, tau = grids.space.h, grids.time.tau
        q = dr.GridFunction.sample(grids.space, _constant(5.0 / h))
        lower, diag, upper = dr.assemble_step_matrix(ex1_spec, q, grids)
        assert dgttrf(lower, diag, upper)[4][0] == 2
        u0, u1 = list(dr.march(ex1_spec, q, grids))[:2]

        a = _dense_from_bands(lower, diag, upper)
        a[0, :2] = (-1.0 / h, 1.0 / h)  # the unscaled flux row
        x = grids.space.nodes
        rhs = u0 / tau
        rhs[1:-1] += dr.sample_on(ex1_spec.source, x[1:-1])
        rhs[0] = ex1_spec.left_flux
        rhs[-1] = ex1_spec.right_flux(tau)
        u_ref = dense_solve(a, rhs)
        assert np.max(np.abs(u1 - u_ref)) <= 1e-12 * max(1.0, np.max(np.abs(u_ref)))

    @settings(max_examples=60, deadline=None)
    @given(m=st.integers(3, 40), n_steps=st.integers(1, 40), a0=st.floats(-0.5, 0.5),
           a1=st.floats(0.0, 0.6), phase=st.floats(0.0, 2.0 * np.pi))
    @example(m=3, n_steps=1, a0=0.0, a1=0.3, phase=0.0)  # previous level is u^0
    def test_solve_forward_keeps_last_two_levels_of_march(self, ex1_spec, m, n_steps, a0, a1,
                                                          phase):
        grids = dr.build_grids(m, n_steps, ex1_spec.horizon)
        q = dr.GridFunction(grids.space,
                            a0 + a1 * np.sin(2.0 * np.pi * grids.space.nodes + phase))
        levels = list(dr.march(ex1_spec, q, grids))
        field = dr.solve_forward(ex1_spec, q, grids)
        assert np.array_equal(field.values, np.array(levels[-2:]))
        assert not field.values.flags.writeable

    def test_march_levels_are_fresh_read_only_arrays(self, ex1_spec):
        grids = dr.build_grids(10, 4, 1.0)
        q = dr.GridFunction.sample(grids.space, np.sin)
        levels = list(dr.march(ex1_spec, q, grids))
        for a, b in zip(levels, levels[1:]):
            assert not np.shares_memory(a, b)
        assert not any(level.flags.writeable for level in levels)

    def test_memory_is_linear_in_m(self, ex1_spec):
        # the stored field would take (n + 1)(m + 1) * 8 B = 5.1 MB
        m = 800
        grids = dr.build_grids(m, m, 1.0)
        q = dr.GridFunction.sample(grids.space, np.sin)
        tracemalloc.start()
        try:
            field = dr.solve_forward(ex1_spec, q, grids)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert field.values.shape == (2, m + 1)
        assert peak < 1e6

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("node", [0, 4, 8])  # first, middle and last of 9 interior nodes
    def test_non_finite_step_raises(self, bad, node):
        grids = dr.build_grids(10, 10, 1.0)
        tau = grids.time.tau
        q = dr.GridFunction.sample(grids.space, _constant(0.0))
        # a bad right flux from t = 2 tau on: two levels come out before the error
        spec = dr.ProblemSpec(source=_constant(0.0), potential=5.0, initial=_constant(1.0),
                              left_flux=0.0, right_flux=lambda t: bad if t > 1.5 * tau else 0.0,
                              horizon=1.0)
        with pytest.raises(NumericalError, match="non-finite at step 2"):
            dr.solve_forward(spec, q, grids)
        levels = dr.march(spec, q, grids)
        assert len([next(levels), next(levels)]) == 2
        with pytest.raises(NumericalError, match="non-finite at step 2"):
            next(levels)

        # a bad source value at any interior node spoils the first step
        def source(x):
            f = np.zeros_like(np.asarray(x, dtype=float))
            f[node] = bad
            return f

        with pytest.raises(NumericalError, match="non-finite at step 1"):
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
            rhs[0] = _flux_row_scale(grids.space.h) * spec.left_flux
            rhs[1:-1] = u0[1:-1] / grids.time.tau + dr.sample_on(spec.source, grids.space.nodes[1:-1])
            rhs[-1] = spec.right_flux(grids.time.tau)
            assert np.all(rhs >= 0.0) and np.all(u0 >= 0.0)
            step = _band_solve(lower, diag, upper, rhs)
            assert np.all(step >= 0.0)


class TestFinalTimeDerivative:
    def test_constant_in_time_field(self):
        grids = dr.build_grids(5, 3, 1.0)
        vals = np.tile(np.linspace(0.0, 1.0, 6), (2, 1))
        field = dr.FinalLevels(grids, vals)
        out = dr.final_time_derivative(field)
        assert np.all(out.values == 0.0)

    def test_linear_in_time_field(self):
        grids = dr.build_grids(5, 4, 2.0)
        tau = grids.time.tau
        base = np.linspace(1.0, 2.0, 6)
        vals = np.stack([base + n * tau * 3.0 for n in (3, 4)])
        field = dr.FinalLevels(grids, vals)
        out = dr.final_time_derivative(field)
        assert np.max(np.abs(out.values - 3.0)) <= 1e-12

    def test_other_shapes_rejected(self):
        grids = dr.build_grids(5, 3, 1.0)
        with pytest.raises(ConfigurationError, match=r"shape \(2, 6\)"):
            dr.FinalLevels(grids, np.zeros((4, 6)))

    def test_reference_setup_nonnegative(self, ex1_spec):
        grids = dr.build_grids(100, 100, 1.0)
        q = dr.GridFunction.sample(grids.space, np.sin)
        field = dr.solve_forward(ex1_spec, q, grids)
        out = dr.final_time_derivative(field)
        assert np.min(out.values) >= -1e-8

    def test_mixed_difference_nonnegative(self, ex1_spec):
        grids = dr.build_grids(100, 100, 1.0)
        q = dr.GridFunction.sample(grids.space, np.sin)
        field = dr.solve_forward(ex1_spec, q, grids)
        mixed = centered_first(dr.final_time_derivative(field).values, grids.space.h)
        assert np.min(mixed) >= -1e-6
