import numpy as np
import pytest
from hypothesis import given, settings, target
from hypothesis import strategies as st

import driftrec as dr
from driftrec.errors import ConfigurationError, DataQualityError, DivergenceError, NumericalError


def _constant(c):
    return lambda x: c + 0.0 * np.asarray(x, dtype=float)


def _linear_data_spec():
    return dr.ProblemSpec(source=_constant(10.0), potential=5.0, initial=_constant(0.0),
                          left_flux=1.0, right_flux=lambda t: 1.0 + t, horizon=1.0)


class TestInitialDrift:
    def test_exact_on_linear_data(self):
        # g = x, f = 10, C_p = 5: slope 1, curvature 0 -> q0 = 10 - 5x,
        # and the boundary extrapolation is exact on a linear profile
        grid = dr.SpatialGrid(10)
        g = dr.GridFunction(grid, grid.nodes)
        q0 = dr.data_terms(g, _linear_data_spec())[0]
        expected = 10.0 - 5.0 * grid.nodes
        assert np.max(np.abs(q0.values - expected)) <= 1e-12

    def test_upper_bound_on_reference_data(self, ex1_setup):
        q0 = dr.data_terms(ex1_setup["data"], ex1_setup["spec"])[0]
        assert np.all(q0.values >= ex1_setup["q_true"].values - 0.05)

    def test_floor_activation(self):
        # flatten the slope at one interior node of otherwise linear data
        grid = dr.SpatialGrid(10)
        vals = grid.nodes.copy()
        vals[6] = vals[4] + 2.0 * grid.h * 1e-12
        g = dr.GridFunction(grid, vals)
        q0, slope, hits = dr.data_terms(g, _linear_data_spec())
        floor = 1e-3 * np.max((g.values[2:] - g.values[:-2]) / (2.0 * grid.h))
        assert hits >= 1
        assert slope[4] == floor  # slope index 4 is node 5
        assert np.isfinite(q0.values).all()

    def test_hopeless_data_raises(self):
        rng = np.random.default_rng(0)
        grid = dr.SpatialGrid(20)
        g = dr.GridFunction(grid, rng.standard_normal(21))
        with pytest.raises(DataQualityError, match="mollif"):
            dr.data_terms(g, _linear_data_spec())

    @pytest.mark.parametrize("values", [lambda x: np.full_like(x, 2.0), lambda x: 1.0 - x**2],
                             ids=["constant", "decreasing"])
    def test_no_increasing_slope_raises(self, values):
        grid = dr.SpatialGrid(20)
        g = dr.GridFunction(grid, values(grid.nodes))
        with pytest.raises(DataQualityError, match="no increasing interior slope.*mollif"):
            dr.data_terms(g, _linear_data_spec())


class TestDriftUpdate:
    def test_bounded_by_initial_guess(self, ex1_setup):
        setup = ex1_setup
        q0, slope, _ = dr.data_terms(setup["data"], setup["spec"])
        rng = np.random.default_rng(17)
        x = setup["grids"].space.nodes
        for _ in range(10):
            a0 = rng.uniform(-0.5, 0.5)
            a1 = rng.uniform(0.1, 0.6)
            vals = np.minimum(a0 + a1 * np.sin(2 * np.pi * x + rng.uniform(0, 2 * np.pi)),
                              q0.values - 0.1)
            q = dr.GridFunction(setup["grids"].space, vals)
            out = dr.drift_update(q, q0, slope, setup["spec"], setup["grids"])
            assert np.all(out.values <= q0.values + 1e-8)

    def test_fixed_point_residual_of_true_drift(self, ex1_setup):
        setup = ex1_setup
        q0, slope, _ = dr.data_terms(setup["data"], setup["spec"])
        out = dr.drift_update(setup["q_true"], q0, slope, setup["spec"], setup["grids"])
        assert np.max(np.abs(out.values - setup["q_true"].values)) <= 0.05

    @settings(deadline=None)
    @given(m=st.sampled_from([20, 50, 100]), offset=st.floats(-0.5, 0.5),
           amplitude=st.floats(0.2, 0.8), phase=st.floats(0.0, 2 * np.pi),
           bump=st.floats(0.05, 0.4), bump_phase=st.floats(0.0, 2 * np.pi))
    def test_order_preservation(self, ex1_setups, m, offset, amplitude, phase, bump, bump_phase):
        # lo <= hi below q0, built as acceptance criterion 4 builds its pairs: K(lo) <= K(hi)
        setup = ex1_setups[m]
        space = setup["grids"].space
        q0, slope, _ = dr.data_terms(setup["data"], setup["spec"])
        x = space.nodes
        lo = np.minimum(offset + amplitude * np.sin(2 * np.pi * x + phase), q0.values - 0.2)
        hi = np.minimum(lo + bump * (1.0 + np.cos(2 * np.pi * x + bump_phase)) / 2.0,
                        q0.values - 0.1)
        lo = np.minimum(lo, hi)
        k_lo = dr.drift_update(dr.GridFunction(space, lo), q0, slope, setup["spec"], setup["grids"])
        k_hi = dr.drift_update(dr.GridFunction(space, hi), q0, slope, setup["spec"], setup["grids"])
        violation = float(np.max(k_lo.values - k_hi.values))
        target(violation, label="order violation")
        assert violation <= 1e-6

    def test_overflow_raises(self, ex1_setup):
        # q0 - u_t/slope is finite, but the boundary extrapolation 2 k_1 - k_2 overflows:
        # a NumericalError, which ends the run as failed, not a GridFunction's ConfigurationError
        setup = ex1_setup
        space = setup["grids"].space
        q0 = dr.GridFunction(space, np.full(space.m + 1, -1.7e308))
        slope = np.full(space.m - 1, 1e-300)
        with np.errstate(over="ignore"), pytest.raises(NumericalError, match="non-finite"):
            dr.drift_update(setup["q_true"], q0, slope, setup["spec"], setup["grids"])

    def test_deterministic(self, ex1_setup):
        setup = ex1_setup
        q0, slope, _ = dr.data_terms(setup["data"], setup["spec"])
        a = dr.drift_update(setup["q_true"], q0, slope, setup["spec"], setup["grids"])
        b = dr.drift_update(setup["q_true"], q0, slope, setup["spec"], setup["grids"])
        assert np.array_equal(a.values, b.values)


class TestRunIteration:
    def test_huge_tolerance_returns_initial_guess(self, ex1_setup):
        setup = ex1_setup
        cfg = dr.IterationConfig(max_iter=10, tol_step=1e6)
        q_final, trace = dr.run_iteration(setup["data"], setup["spec"], setup["grids"], cfg)
        q0 = dr.data_terms(setup["data"], setup["spec"])[0]
        assert np.array_equal(q_final.values, q0.values)
        assert 1 <= len(trace.iterates) <= 2
        assert len(trace.step_norms) == 1

    def test_decreasing_iterates_on_exact_data(self, ex1_setup):
        setup = ex1_setup
        cfg = dr.IterationConfig(max_iter=3, tol_step=1e-12)
        _, trace = dr.run_iteration(setup["data"], setup["spec"], setup["grids"], cfg)
        assert len(trace.step_norms) == 3
        assert all(s2 < s1 for s1, s2 in zip(trace.step_norms, trace.step_norms[1:]))
        assert all(v <= 1e-6 for v in trace.mono_violations)

    def test_two_updates_reconstruct_smooth_drift(self, ex1_setup):
        setup = ex1_setup
        cfg = dr.IterationConfig(max_iter=2, tol_step=1e-15)
        q_final, trace = dr.run_iteration(setup["data"], setup["spec"], setup["grids"], cfg)
        assert len(trace.step_norms) == 2
        m = dr.error_metrics(q_final, setup["q_true"])
        assert m["rel_l2"] <= 0.05

    def test_sandwich_property(self, ex1_setup):
        # every iterate stays above the true drift up to discretization error
        setup = ex1_setup
        cfg = dr.IterationConfig(max_iter=5, tol_step=1e-12)
        _, trace = dr.run_iteration(setup["data"], setup["spec"], setup["grids"], cfg)
        interior = slice(1, -1)
        for it in trace.iterates:
            assert np.all(it.values[interior] >= setup["q_true"].values[interior] - 0.05)

    def test_divergence_carries_trace(self, ex1_setup, monkeypatch):
        setup = ex1_setup

        def explode(*args, **kwargs):
            raise NumericalError("forward solution became non-finite at step 1")

        monkeypatch.setattr("driftrec.inversion.solve_forward", explode)
        with pytest.raises(DivergenceError) as info:
            dr.run_iteration(setup["data"], setup["spec"], setup["grids"],
                             dr.IterationConfig(max_iter=3, tol_step=1e-4))
        assert info.value.trace is not None
        assert len(info.value.trace.iterates) == 1

    def test_config_validation(self):
        with pytest.raises(ConfigurationError, match="max_iter"):
            dr.IterationConfig(max_iter=0, tol_step=1e-4)
        with pytest.raises(ConfigurationError, match="max_iter must be an integer"):
            dr.IterationConfig(max_iter=2.5, tol_step=1e-4)
        with pytest.raises(ConfigurationError, match="tol_step"):
            dr.IterationConfig(max_iter=3, tol_step=0.0)
        # trace.json records tol_step, and JSON has no Infinity
        with pytest.raises(ConfigurationError, match="tol_step must be finite"):
            dr.IterationConfig(max_iter=3, tol_step=float("inf"))


class TestErrorMetrics:
    def test_identical_inputs(self):
        grid = dr.SpatialGrid(10)
        q = dr.GridFunction.sample(grid, np.sin)
        m = dr.error_metrics(q, q)
        assert m["rel_l2"] == 0.0 and m["rel_linf"] == 0.0 and not m["absolute"]

    def test_constant_offset_sup_norm(self):
        grid = dr.SpatialGrid(50)
        q_true = dr.GridFunction.sample(grid, np.sin)
        q_rec = dr.GridFunction(grid, q_true.values + 0.1)
        m = dr.error_metrics(q_rec, q_true)
        assert m["rel_linf"] == pytest.approx(0.1 / np.sin(1.0), rel=1e-12)

    def test_doubling_gives_unit_l2(self):
        grid = dr.SpatialGrid(30)
        q_true = dr.GridFunction.sample(grid, np.sin)
        q_rec = dr.GridFunction(grid, 2.0 * q_true.values)
        m = dr.error_metrics(q_rec, q_true)
        assert m["rel_l2"] == pytest.approx(1.0, rel=1e-12)

    def test_zero_reference_flags_absolute(self):
        grid = dr.SpatialGrid(10)
        zero = dr.GridFunction(grid, np.zeros(11))
        one = dr.GridFunction(grid, np.ones(11))
        m = dr.error_metrics(one, zero)
        assert m["absolute"]
        assert m["rel_linf"] == 1.0

    def test_grid_mismatch(self):
        a = dr.GridFunction.sample(dr.SpatialGrid(10), np.sin)
        b = dr.GridFunction.sample(dr.SpatialGrid(12), np.sin)
        with pytest.raises(ConfigurationError, match="grid"):
            dr.error_metrics(a, b)
