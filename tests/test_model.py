import json
import math
from dataclasses import replace

import numpy as np
import pytest

import driftrec as dr
from driftrec.errors import ConfigurationError
from driftrec.model import centered_first, centered_second


class TestBuildGrids:
    def test_reference_fine_grid(self):
        grids = dr.build_grids(100, 100, 1.0)
        assert grids.space.h == pytest.approx(0.01, abs=1e-15)
        assert grids.time.tau == pytest.approx(0.01, abs=1e-15)

    def test_reference_coarse_grid(self):
        grids = dr.build_grids(20, 80, 1.0)
        assert grids.space.h == pytest.approx(0.05, abs=1e-15)
        assert grids.time.tau == pytest.approx(0.0125, abs=1e-15)

    def test_small_grid_nodes(self):
        grids = dr.build_grids(4, 1, 1.0)
        assert np.array_equal(grids.space.nodes, [0.0, 0.25, 0.5, 0.75, 1.0])

    @pytest.mark.parametrize("m", [3, 7, 20, 100, 123])
    def test_spacing_consistency(self, m):
        grid = dr.SpatialGrid(m)
        assert abs(grid.h * m - 1.0) <= 1e-14
        nodes = grid.nodes
        assert np.all(np.diff(nodes) > 0)
        assert np.max(np.abs(np.diff(nodes) - grid.h)) <= 1e-14

    @pytest.mark.parametrize("n,T", [(1, 1.0), (80, 1.0), (33, 0.5), (7, 2.5)])
    def test_tau_consistency(self, n, T):
        t = dr.TemporalGrid(n, T)
        assert abs(t.tau * n - T) <= 1e-14 * T

    def test_invalid_sizes_name_the_field(self):
        with pytest.raises(ConfigurationError, match="m"):
            dr.build_grids(2, 10, 1.0)
        with pytest.raises(ConfigurationError, match="n_steps"):
            dr.build_grids(10, 0, 1.0)
        with pytest.raises(ConfigurationError, match="horizon"):
            dr.build_grids(10, 10, -1.0)


class TestStencils:
    def test_second_difference_annihilates_linear(self):
        grid = dr.SpatialGrid(4)
        out = centered_second(grid.nodes, grid.h)
        assert np.max(np.abs(out)) <= 1e-12

    def test_first_difference_exact_on_quadratic(self):
        grid = dr.SpatialGrid(10)
        out = centered_first(grid.nodes**2, grid.h)
        assert out.shape == (9,)  # interior points only
        assert np.max(np.abs(out - 2.0 * grid.nodes[1:-1])) <= 1e-12

    def test_second_difference_exact_on_quadratic(self):
        grid = dr.SpatialGrid(10)
        out = centered_second(3.0 * grid.nodes**2, grid.h)
        assert out.shape == (9,)  # interior points only
        assert np.max(np.abs(out - 6.0)) <= 1e-12 * 6.0

    def test_differences_annihilate_constants(self):
        grid = dr.SpatialGrid(9)
        u = np.full(10, 3.7)
        for stencil in (centered_first, centered_second):
            assert np.all(stencil(u, grid.h) == 0.0)

    @pytest.mark.parametrize("stencil", [centered_first, centered_second], ids=lambda f: f.__name__)
    def test_linearity(self, stencil):
        rng = np.random.default_rng(3)
        grid = dr.SpatialGrid(17)
        for _ in range(5):
            u = rng.standard_normal(18)
            w = rng.standard_normal(18)
            a, b = rng.standard_normal(2)
            lhs = stencil(a * u + b * w, grid.h)
            rhs = a * stencil(u, grid.h) + b * stencil(w, grid.h)
            assert np.max(np.abs(lhs - rhs)) <= 1e-12 * max(1.0, np.max(np.abs(rhs)))


class TestSampleOn:
    def test_scalar_result_is_broadcast(self):
        calls = []

        def fn(x):
            calls.append(x)
            return 10.0

        xs = np.linspace(0.0, 1.0, 7)
        out = dr.sample_on(fn, xs)
        assert out.dtype == float and np.array_equal(out, np.full(7, 10.0))
        assert len(calls) == 1  # one call on the whole array, not one per point

    def test_one_call_on_the_points(self):
        calls = []

        def fn(x):
            calls.append(x)
            return 2.0 * x

        xs = np.linspace(0.0, 1.0, 7)
        assert np.array_equal(dr.sample_on(fn, xs), 2.0 * xs)
        assert len(calls) == 1 and np.array_equal(calls[0], xs)

    def test_scalar_only_callable_is_evaluated_per_point(self):
        # no longer: a function that cannot take an array raises its own error
        xs = np.linspace(0.0, 1.0, 7)
        with pytest.raises(TypeError):
            dr.sample_on(math.sin, xs)

    def test_wrong_shape_falls_back_to_points(self):
        # no longer: a function written for scalars that gives an array a row vector
        # is called once and rejected, not retried point by point
        calls = []

        def fn(x):
            calls.append(x)
            return 2.0 * x if np.ndim(x) == 0 else np.atleast_2d(2.0 * x)

        xs = np.linspace(0.0, 1.0, 7)
        with pytest.raises(ConfigurationError, match=r"fn must give one value per point.*\(1, 7\)"):
            dr.sample_on(fn, xs)
        assert len(calls) == 1 and np.array_equal(calls[0], xs)

    def test_per_point_sequence_rejected(self):
        def pair(x):
            return [x, x]

        with pytest.raises(ConfigurationError, match=r"pair must give one value per point.*\(2, 5\)"):
            dr.sample_on(pair, np.linspace(0.0, 1.0, 5))
        spec = dr.ProblemSpec(source=lambda x: 10.0, potential=5.0, initial=np.sin,
                              left_flux=1.0, right_flux=lambda t: 1.0 + t, horizon=1.0)
        grids = dr.build_grids(20, 20, 1.0)
        q = dr.GridFunction.sample(grids.space, np.sin)
        for bad in (replace(spec, initial=pair), replace(spec, right_flux=pair)):
            with pytest.raises(ConfigurationError, match="pair"):
                dr.solve_forward(bad, q, grids)


class TestGridFunction:
    def test_length_mismatch(self):
        with pytest.raises(ConfigurationError, match="values"):
            dr.GridFunction(dr.SpatialGrid(4), np.ones(4))

    def test_non_finite_rejected(self):
        vals = np.ones(5)
        vals[2] = np.nan
        with pytest.raises(ConfigurationError, match="finite"):
            dr.GridFunction(dr.SpatialGrid(4), vals)

    def test_values_read_only(self):
        gf = dr.GridFunction.sample(dr.SpatialGrid(4), lambda x: x)
        with pytest.raises(ValueError):
            gf.values[0] = 1.0


class TestProblemSpec:
    def test_nonpositive_potential_rejected(self):
        with pytest.raises(ConfigurationError, match="potential"):
            dr.ProblemSpec(source=lambda x: x, potential=0.0, initial=lambda x: x,
                           left_flux=0.0, right_flux=lambda t: t, horizon=1.0)

    @pytest.mark.parametrize("left_flux", [np.nan, np.inf])
    def test_non_finite_left_flux_rejected(self, left_flux):
        with pytest.raises(ConfigurationError, match="left_flux"):
            dr.ProblemSpec(source=lambda x: x, potential=1.0, initial=lambda x: x,
                           left_flux=left_flux, right_flux=lambda t: t, horizon=1.0)

    @pytest.mark.parametrize("horizon", [0.0, -1.0, np.inf, np.nan])
    def test_bad_horizon_rejected(self, horizon):
        with pytest.raises(ConfigurationError, match="horizon"):
            dr.ProblemSpec(source=lambda x: x, potential=1.0, initial=lambda x: x,
                           left_flux=0.0, right_flux=lambda t: t, horizon=horizon)


class TestAssumptions:
    def test_reference_setup_clause_verdicts(self, ex1_spec):
        grid = dr.SpatialGrid(100)
        q = dr.GridFunction.sample(grid, np.sin)
        report = dr.validate_assumptions(ex1_spec, q, q)
        # |sin| + |cos| sup on (0,1) is sin(1) + 1
        assert report["c1_bound"] == pytest.approx(np.sin(1.0) + 1.0, abs=1e-2)
        # C_v is dominated by the third derivative of sin(pi x)
        assert report["c_v"] == pytest.approx(np.pi**3, abs=1e-2)
        assert report["clause_results"]["b"] == "pass"
        assert report["clause_results"]["c"] == "pass"
        assert report["clause_results"]["d"] == "pass"
        # f = 10 + 10x is far below (1 + M + C_p) * C_v ~ 243
        assert report["clause_results"]["f"] == "warn"
        # v' = pi cos(pi x) is negative beyond x = 1/2
        assert report["clause_results"]["e"] == "warn"

    def test_zero_drift_passes_bound_clause(self):
        spec = dr.ProblemSpec(source=lambda x: 1.0 + 0.0 * np.asarray(x), potential=1.0,
                              initial=lambda x: 0.0 * np.asarray(x), left_flux=1.0,
                              right_flux=lambda t: 1.0 + t, horizon=1.0)
        q = dr.GridFunction.sample(dr.SpatialGrid(10), lambda x: 0.0 * np.asarray(x))
        report = dr.validate_assumptions(spec, q, q)
        assert report["clause_results"]["b"] == "pass"

    def test_nonincreasing_boundary_flux_warns(self):
        spec = dr.ProblemSpec(source=lambda x: 1.0 + 0.0 * np.asarray(x), potential=1.0,
                              initial=lambda x: 0.0 * np.asarray(x), left_flux=1.0,
                              right_flux=lambda t: 1.0 - t, horizon=1.0)
        q = dr.GridFunction.sample(dr.SpatialGrid(10), lambda x: 0.0 * np.asarray(x))
        report = dr.validate_assumptions(spec, q, q)
        assert report["clause_results"]["d"] == "warn"

    def test_data_slope_bound_recorded(self, ex1_setup):
        report = dr.validate_assumptions(ex1_setup["spec"], ex1_setup["q_true"],
                                         data=ex1_setup["data"])
        assert report["lower_bound_m"] > 0.9

    def test_report_round_trips_to_dict(self, ex1_spec):
        q = dr.GridFunction.sample(dr.SpatialGrid(10), np.sin)
        doc = dr.validate_assumptions(ex1_spec, q, q)
        assert json.loads(json.dumps(doc)) == doc
        assert set(doc) == {"c1_bound", "c_v", "clause_results", "lower_bound_m", "notes"}
        assert set(doc["clause_results"]) == set(doc["notes"]) == set("abcdef")
        assert all(v in ("pass", "warn") for v in doc["clause_results"].values())
