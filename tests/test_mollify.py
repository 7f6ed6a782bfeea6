import logging
import re

import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st

import driftrec as dr
from driftrec import mollify
from driftrec.errors import ConfigurationError, IllPosedError


def _objective(design, penalty, g_tilde, lam, g):
    return (np.linalg.norm(design @ g - g_tilde) ** 2
            + lam * np.linalg.norm(penalty @ g) ** 2)


def _fail_off_the_scan_grid(monkeypatch, n, cfg, failed_solve):
    """Make every solve at a lambda off select_lambda's scan grid, that is
    every bisection solve, return `failed_solve(solve, *args)` instead."""
    grid = set(np.geomspace(cfg.lambda_min, cfg.resolved_lambda_max(n), cfg.grid_points).tolist())
    solve = mollify._solve_bands

    def patched(fit, pen, rhs, lam):
        if lam in grid:
            return solve(fit, pen, rhs, lam)
        return failed_solve(solve, fit, pen, rhs, lam)

    monkeypatch.setattr(mollify, "_solve_bands", patched)
    return grid


def _bisection_ended_at_first_solve(s, monkeypatch, caplog, failed_solve):
    cfg = dr.TikhonovConfig()
    grid = _fail_off_the_scan_grid(monkeypatch, s["g_tilde"].size, cfg, failed_solve)
    with caplog.at_level(logging.DEBUG, logger="driftrec.mollify"):
        lam = dr.select_lambda(s["design"], s["penalty"], s["g_tilde"], s["sigma"], cfg)
    n_bisect = int(re.search(r"(\d+) bisection", caplog.records[0].getMessage()).group(1))
    assert n_bisect == 1
    assert lam in grid  # the scan's upper end, which solved and reached the target
    g_star = dr.solve_tikhonov(s["design"], s["penalty"], s["g_tilde"], lam)
    target = cfg.discrepancy_target(s["g_tilde"].size, s["sigma"])
    assert np.linalg.norm(s["design"] @ g_star - s["g_tilde"]) >= target


@pytest.fixture(scope="module")
def ex3e_noisy_setup():
    preset = dr.make_preset("ex3e", noise_level=0.01, seed=7)
    x, g_exact, g_noisy = dr.synthesize(preset)
    n = preset.data_points
    design = dr.build_design_matrix(n)
    penalty = dr.build_regularization_matrix(n)
    g_tilde = dr.assemble_rhs(g_noisy, preset.spec.left_flux,
                              float(preset.spec.right_flux(1.0)), 1.0 / (n - 1))
    sigma = dr.noise_sigma(g_exact, preset.noise)
    return {"preset": preset, "g_exact": g_exact, "g_noisy": g_noisy,
            "design": design, "penalty": penalty, "g_tilde": g_tilde, "sigma": sigma}


class TestNoise:
    def test_zero_level_is_bitwise_copy(self):
        g = np.array([1.1, -2.2, 3.3, 0.0, -0.0])
        out = dr.add_noise(g, dr.NoiseSpec(level=0.0, seed=1))
        assert np.array_equal(out, g)
        assert np.array_equal(np.signbit(out), np.signbit(g))

    def test_same_seed_same_draw(self):
        g = np.linspace(0.0, 2.0, 100)
        a = dr.add_noise(g, dr.NoiseSpec(level=0.01, seed=42))
        b = dr.add_noise(g, dr.NoiseSpec(level=0.01, seed=42))
        assert np.array_equal(a, b)

    def test_noise_statistics(self):
        n = 100_000
        g = np.full(n, 2.0)
        noise = dr.NoiseSpec(level=0.01, seed=9)
        e = dr.add_noise(g, noise) - g
        sigma = dr.noise_sigma(g, noise)
        assert sigma == 0.02
        assert abs(np.std(e) - sigma) <= 0.02 * sigma
        assert abs(np.mean(e)) <= 3.0 * sigma / np.sqrt(n)

    def test_negative_level_rejected(self):
        with pytest.raises(ConfigurationError, match="level"):
            dr.NoiseSpec(level=-0.1)


class TestDesignMatrix:
    def test_three_point_rows(self):
        a = dr.build_design_matrix(3).toarray()
        assert np.array_equal(a, [[-1.0, 1.0, 0.0], [0.0, 1.0, 0.0], [0.0, -1.0, 1.0]])

    def test_constant_vector(self):
        a = dr.build_design_matrix(8)
        out = a @ np.full(8, 4.2)
        assert out[0] == 0.0 and out[-1] == 0.0
        assert np.all(out[1:-1] == 4.2)

    def test_linear_data_boundary_rows_give_spacing(self):
        n = 11
        h = 1.0 / (n - 1)
        a = dr.build_design_matrix(n)
        out = a @ np.linspace(0.0, 1.0, n)
        assert out[0] == pytest.approx(h, abs=1e-15)
        assert out[-1] == pytest.approx(h, abs=1e-15)

    def test_too_small(self):
        with pytest.raises(ConfigurationError, match="3"):
            dr.build_design_matrix(2)


class TestRegularizationMatrix:
    def test_annihilates_linear(self):
        g = dr.build_regularization_matrix(12)
        out = g @ np.linspace(-1.0, 3.0, 12)
        assert np.max(np.abs(out)) <= 1e-14

    def test_four_point_rows(self):
        g = dr.build_regularization_matrix(4).toarray()
        expected = np.array([[1.0, -2.0, 1.0, 0.0], [0.0, 1.0, -2.0, 1.0]]) / 9.0
        assert np.allclose(g, expected, atol=1e-16)

    def test_quadratic_with_unit_spacing(self):
        n = 9
        g = dr.build_regularization_matrix(n)
        out = g @ (np.arange(n, dtype=float) ** 2)
        assert np.max(np.abs(out - 2.0 / (n - 1) ** 2)) <= 1e-14


class TestAssembleRhs:
    def test_endpoints(self):
        g = np.linspace(0.0, 1.0, 5)
        out = dr.assemble_rhs(g, 1.0, 2.0, 0.01)
        assert out[0] == 0.01 and out[-1] == 0.02
        assert np.array_equal(out[1:-1], g[1:-1])

    def test_three_points(self):
        out = dr.assemble_rhs(np.array([5.0, 6.0, 7.0]), 1.0, 2.0, 0.1)
        assert np.array_equal(out, [0.1, 6.0, 0.2])

    def test_boundary_row_consistency_is_second_order(self):
        # with exact data whose slope matches b1 at 0, the first fit
        # residual row is O(h^2)
        for n in (101, 201, 401):
            h = 1.0 / (n - 1)
            x = np.linspace(0.0, 1.0, n)
            g = np.sin(x) + 2.0  # g'(0) = 1
            g_tilde = dr.assemble_rhs(g, 1.0, float(np.cos(1.0)), h)
            a = dr.build_design_matrix(n)
            row0 = (a @ g - g_tilde)[0]
            assert abs(row0) <= 0.6 * h**2  # |g''| <= 1 plus slack

    def test_length_check(self):
        with pytest.raises(ConfigurationError, match="3"):
            dr.assemble_rhs(np.array([1.0, 2.0]), 0.0, 0.0, 0.1)


class TestSolveTikhonov:
    def test_unregularized_limit_matches_data(self):
        n = 101
        x = np.linspace(0.0, 1.0, n)
        g = np.cos(2.0 * x) + 3.0
        g_tilde = dr.assemble_rhs(g, float(-2.0 * np.sin(0.0)), float(-2.0 * np.sin(2.0)),
                                  1.0 / (n - 1))
        design = dr.build_design_matrix(n)
        penalty = dr.build_regularization_matrix(n)
        out = dr.solve_tikhonov(design, penalty, g_tilde, 1e-14)
        assert np.max(np.abs(out[1:-1] - g[1:-1])) <= 1e-8

    def test_matches_dense_oracle_small(self, dense_solve):
        rng = np.random.default_rng(31)
        n = 8
        design = dr.build_design_matrix(n)
        penalty = dr.build_regularization_matrix(n)
        g_tilde = rng.standard_normal(n)
        lam = 0.1
        banded = dr.solve_tikhonov(design, penalty, g_tilde, lam)
        a = design.toarray()
        r = penalty.toarray()
        dense = dense_solve(a.T @ a + lam * (r.T @ r), a.T @ g_tilde)
        assert np.max(np.abs(banded - dense)) <= 1e-10

    def test_gradient_residual(self):
        rng = np.random.default_rng(7)
        n = 50
        design = dr.build_design_matrix(n)
        penalty = dr.build_regularization_matrix(n)
        g_tilde = rng.standard_normal(n)
        for lam in (1e-6, 1e-2, 1.0):
            g_star = dr.solve_tikhonov(design, penalty, g_tilde, lam)
            a = design.toarray()
            r = penalty.toarray()
            grad = (a.T @ a + lam * (r.T @ r)) @ g_star - a.T @ g_tilde
            assert np.max(np.abs(grad)) <= 1e-10 * max(1e-30, np.max(np.abs(a.T @ g_tilde)))

    def test_objective_optimality(self):
        rng = np.random.default_rng(12)
        n = 40
        design = dr.build_design_matrix(n)
        penalty = dr.build_regularization_matrix(n)
        g_tilde = rng.standard_normal(n)
        lam = 0.37
        g_star = dr.solve_tikhonov(design, penalty, g_tilde, lam)
        base = _objective(design, penalty, g_tilde, lam, g_star)
        for _ in range(10):
            d = rng.standard_normal(n)
            d /= np.linalg.norm(d)
            for sign in (1.0, -1.0):
                assert _objective(design, penalty, g_tilde, lam, g_star + sign * 1e-3 * d) > base

    def test_factorization_failure(self):
        zero = scipy.sparse.csr_matrix((4, 4))
        with pytest.raises(IllPosedError):
            dr.solve_tikhonov(zero, zero, np.ones(4), 0.0)

    def test_negative_lambda_rejected(self):
        design = dr.build_design_matrix(4)
        penalty = dr.build_regularization_matrix(4)
        with pytest.raises(ConfigurationError, match="lambda"):
            dr.solve_tikhonov(design, penalty, np.ones(4), -1.0)

    @pytest.mark.parametrize("lam", [float("inf"), float("-inf"), float("nan")])
    def test_non_finite_lambda_rejected(self, lam):
        design = dr.build_design_matrix(4)
        penalty = dr.build_regularization_matrix(4)
        with pytest.raises(ConfigurationError, match="lambda"):
            dr.solve_tikhonov(design, penalty, np.ones(4), lam)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_data_rejected(self, bad):
        design = dr.build_design_matrix(5)
        penalty = dr.build_regularization_matrix(5)
        g_tilde = np.array([0.1, 1.0, bad, 1.0, 0.1])
        with pytest.raises(ConfigurationError, match="finite"):
            dr.solve_tikhonov(design, penalty, g_tilde, 1.0)
        with pytest.raises(ConfigurationError, match="finite"):
            dr.select_lambda(design, penalty, g_tilde, 0.01)

    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(3, 200), log_lam=st.floats(-12.0, 20.0), seed=st.integers(0, 2**32 - 1))
    def test_matches_sparse_reference(self, tikhonov_reference, n, log_lam, seed):
        reference_solve, _ = tikhonov_reference
        design = dr.build_design_matrix(n)
        penalty = dr.build_regularization_matrix(n)
        g_tilde = np.random.default_rng(seed).standard_normal(n)
        lam = 10.0**log_lam
        try:
            expected = reference_solve(design, penalty, g_tilde, lam)
        except IllPosedError:
            with pytest.raises(IllPosedError):
                dr.solve_tikhonov(design, penalty, g_tilde, lam)
            return
        assert np.array_equal(dr.solve_tikhonov(design, penalty, g_tilde, lam), expected)


class TestSelectLambda:
    def test_zero_noise_returns_lambda_min(self):
        n = 51
        g = np.linspace(1.0, 2.0, n)
        design = dr.build_design_matrix(n)
        penalty = dr.build_regularization_matrix(n)
        lam = dr.select_lambda(design, penalty, g, 0.0)
        assert lam == 1e-12

    def test_residual_brackets_target(self, ex3e_noisy_setup):
        s = ex3e_noisy_setup
        lam = dr.select_lambda(s["design"], s["penalty"], s["g_tilde"], s["sigma"])
        g_star = dr.solve_tikhonov(s["design"], s["penalty"], s["g_tilde"], lam)
        residual = np.linalg.norm(s["design"] @ g_star - s["g_tilde"])
        target = 1.01 * np.sqrt(s["g_tilde"].size) * s["sigma"]
        assert residual >= target
        assert residual <= 1.1 * target

    def test_mollification_reduces_data_error(self, ex3e_noisy_setup):
        s = ex3e_noisy_setup
        lam = dr.select_lambda(s["design"], s["penalty"], s["g_tilde"], s["sigma"])
        g_star = dr.solve_tikhonov(s["design"], s["penalty"], s["g_tilde"], lam)
        assert (np.linalg.norm(g_star - s["g_exact"])
                < np.linalg.norm(s["g_noisy"] - s["g_exact"]))

    def test_residual_monotone_in_lambda(self, ex3e_noisy_setup):
        s = ex3e_noisy_setup
        cfg = dr.TikhonovConfig()
        lam_grid = np.geomspace(1e-12, cfg.resolved_lambda_max(s["g_tilde"].size), 20)
        residuals = []
        smoothness = []
        for lam in lam_grid:
            g_star = dr.solve_tikhonov(s["design"], s["penalty"], s["g_tilde"], float(lam))
            residuals.append(np.linalg.norm(s["design"] @ g_star - s["g_tilde"]))
            smoothness.append(np.linalg.norm(s["penalty"] @ g_star))
        tol = 1e-9
        assert all(r2 >= r1 - tol for r1, r2 in zip(residuals, residuals[1:]))
        assert all(s2 <= s1 + tol for s1, s2 in zip(smoothness, smoothness[1:]))

    def test_matches_sparse_reference(self, ex3e_noisy_setup, tikhonov_reference):
        s = ex3e_noisy_setup
        _, reference_search = tikhonov_reference
        lam = dr.select_lambda(s["design"], s["penalty"], s["g_tilde"], s["sigma"])
        assert lam == reference_search(s["design"], s["penalty"], s["g_tilde"], s["sigma"],
                                       dr.TikhonovConfig())

    def test_logs_search_once(self, ex3e_noisy_setup, caplog):
        s = ex3e_noisy_setup
        with caplog.at_level(logging.DEBUG, logger="driftrec.mollify"):
            lam = dr.select_lambda(s["design"], s["penalty"], s["g_tilde"], s["sigma"])
        assert len(caplog.records) == 1
        message = caplog.records[0].getMessage()
        assert "bracket" in message and "bisection solves" in message
        assert f"lambda {lam!r}" in message and "target" in message

    def test_factorization_failure_ends_scan(self, caplog):
        # zero data keeps the residual at 0, so only the conditioning limit
        # stops the scan before lambda_max
        n = 21
        design = dr.build_design_matrix(n)
        penalty = dr.build_regularization_matrix(n)
        cfg = dr.TikhonovConfig(lambda_max=1e80)
        with caplog.at_level(logging.DEBUG, logger="driftrec.mollify"):
            with pytest.warns(UserWarning, match="lambda_min"):
                lam = dr.select_lambda(design, penalty, np.zeros(n), 1.0, cfg)
        assert lam == 1e-12
        n_grid = int(re.search(r"(\d+) grid", caplog.records[0].getMessage()).group(1))
        assert n_grid < cfg.grid_points

    def test_factorization_failure_ends_bisection(self, ex3e_noisy_setup, monkeypatch, caplog):
        def not_positive_definite(solve, fit, pen, rhs, lam):
            raise IllPosedError(f"normal equations not positive definite (lambda={lam!r})")

        _bisection_ended_at_first_solve(ex3e_noisy_setup, monkeypatch, caplog,
                                        not_positive_definite)

    def test_blown_up_solve_ends_bisection(self, ex3e_noisy_setup, monkeypatch, caplog):
        def blown_up(solve, fit, pen, rhs, lam):
            return 1e7 * solve(fit, pen, rhs, lam)

        _bisection_ended_at_first_solve(ex3e_noisy_setup, monkeypatch, caplog, blown_up)

    def test_near_singular_solve_not_accepted(self):
        # the 60-point scan lands on lambda = 1.54e19, where the solution
        # reaches 5.3e11 for data of size 1e-3 and so "reaches" the target
        n = 5
        design = dr.build_design_matrix(n)
        penalty = dr.build_regularization_matrix(n)
        g = np.linspace(0.0, 1e-3, n)
        cfg = dr.TikhonovConfig(lambda_max=1e80, grid_points=60)
        with pytest.warns(UserWarning, match="returning lambda_min"):
            lam = dr.select_lambda(design, penalty, g, 10.0, cfg)
        assert lam == cfg.lambda_min
        g_star = dr.solve_tikhonov(design, penalty, g, lam)
        assert np.max(np.abs(g_star)) <= 1e6 * np.max(np.abs(g))

    def test_default_search_budget(self, ex3e_noisy_setup, caplog):
        s = ex3e_noisy_setup
        with caplog.at_level(logging.DEBUG, logger="driftrec.mollify"):
            lam = dr.select_lambda(s["design"], s["penalty"], s["g_tilde"], s["sigma"])
        message = caplog.records[0].getMessage()
        n_grid, n_bisect = map(int, re.search(r"(\d+) grid \+ (\d+) bisection", message).groups())
        lo, hi = map(float, re.search(r"final bracket \(([^,]+), ([^)]+)\)", message).groups())
        assert n_grid + n_bisect <= 17
        assert hi == lam and hi / lo <= 1.05
        g_star = dr.solve_tikhonov(s["design"], s["penalty"], s["g_tilde"], lam)
        target = dr.TikhonovConfig().discrepancy_target(s["g_tilde"].size, s["sigma"])
        assert np.linalg.norm(s["design"] @ g_star - s["g_tilde"]) >= target

    def test_no_qualifying_lambda_warns(self):
        # tiny search window, noise far larger than the data scale
        n = 21
        g = np.linspace(0.0, 1e-3, n)
        design = dr.build_design_matrix(n)
        penalty = dr.build_regularization_matrix(n)
        cfg = dr.TikhonovConfig(lambda_min=1e-12, lambda_max=1e-11)
        with pytest.warns(UserWarning, match="lambda_min"):
            lam = dr.select_lambda(design, penalty, g, 10.0, cfg)
        assert lam == 1e-12

    @pytest.mark.parametrize("factor", [1.0, 10.0])
    def test_lambda_min_at_or_above_ceiling_rejected(self, ex3e_noisy_setup, factor):
        # the default ceiling at K = 10001 is 1e30; scanning down from 1e31 returned
        # lambda = 1e31 with residual 60.6 against a target of 3.87, silently
        s = ex3e_noisy_setup
        ceiling = dr.TikhonovConfig().resolved_lambda_max(s["g_tilde"].size)
        cfg = dr.TikhonovConfig(lambda_min=factor * ceiling)
        with pytest.raises(ConfigurationError, match="lambda_min") as exc:
            dr.select_lambda(s["design"], s["penalty"], s["g_tilde"], s["sigma"], cfg)
        assert f"{cfg.lambda_min:g}" in str(exc.value) and f"{ceiling:g}" in str(exc.value)


class TestRestrict:
    def test_linear_data_exact(self):
        data = np.linspace(0.0, 1.0, 10_000)
        target = dr.SpatialGrid(20)
        out = dr.restrict(data, target)
        assert np.max(np.abs(out.values - target.nodes)) <= 1e-14

    def test_identity_on_matching_grid(self):
        target = dr.SpatialGrid(20)
        data = np.sin(np.linspace(0.0, 1.0, 21))
        out = dr.restrict(data, target)
        assert np.array_equal(out.values, data)

    def test_interpolation_error_bound(self):
        n = 10_001
        h = 1.0 / (n - 1)
        data = np.sin(np.pi * np.linspace(0.0, 1.0, n))
        target = dr.SpatialGrid(20)
        out = dr.restrict(data, target)
        exact = np.sin(np.pi * target.nodes)
        assert np.max(np.abs(out.values - exact)) <= (np.pi**2 / 8.0) * h**2

    def test_out_of_range_rejected(self):
        data = np.linspace(0.0, 1.0, 100)
        with pytest.raises(ConfigurationError, match="outside"):
            dr.restrict(data, dr.SpatialGrid(10), span=(0.2, 0.8))


class TestTikhonovConfig:
    def test_validation(self):
        with pytest.raises(ConfigurationError, match="lambda"):
            dr.TikhonovConfig(lam=0.0)
        with pytest.raises(ConfigurationError, match="lambda"):
            dr.TikhonovConfig(lambda_min=1.0, lambda_max=0.5)
        with pytest.raises(ConfigurationError, match="lambda"):
            dr.TikhonovConfig(lambda_max=float("inf"))
        with pytest.raises(ConfigurationError, match="grid_points must be an integer"):
            dr.TikhonovConfig(grid_points=2.5)

    def test_ceiling_scales_with_data_size(self):
        cfg = dr.TikhonovConfig()
        assert cfg.resolved_lambda_max(10_001) >= 1e29
        assert cfg.resolved_lambda_max(101) < cfg.resolved_lambda_max(10_001)
        assert dr.TikhonovConfig(lambda_max=2.0).resolved_lambda_max(10_001) == 2.0
