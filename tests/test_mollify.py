import contextlib
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


def _scan_grid(n):
    """The default scan: 8 geometric values from 1e-12 up to the ceiling at K = n."""
    return np.geomspace(1e-12, dr.TikhonovConfig.resolved_lambda_max(n), 8).tolist()


def _fail_solves(monkeypatch, failed_solve, fails):
    """Make every solve whose lambda satisfies `fails(lam)` return
    `failed_solve(solve, *args)` instead."""
    solve = mollify._solve_bands

    def patched(fit, pen, rhs, lam):
        if fails(lam):
            return failed_solve(solve, fit, pen, rhs, lam)
        return solve(fit, pen, rhs, lam)

    monkeypatch.setattr(mollify, "_solve_bands", patched)


def _not_positive_definite(solve, fit, pen, rhs, lam):
    raise IllPosedError(f"normal equations not positive definite (lambda={lam!r})")


def _blown_up(solve, fit, pen, rhs, lam):
    return 1e7 * solve(fit, pen, rhs, lam)


def _search_counts(caplog):
    message = caplog.records[0].getMessage()
    return tuple(map(int, re.search(r"(\d+) grid \+ (\d+) bisection", message).groups()))


def _bisection_ended_at_first_solve(s, monkeypatch, caplog, failed_solve):
    grid = set(_scan_grid(s["g_tilde"].size))
    _fail_solves(monkeypatch, failed_solve, lambda lam: lam not in grid)
    with caplog.at_level(logging.DEBUG, logger="driftrec.mollify"):
        lam, g_star = dr.select_lambda(s["design"], s["penalty"], s["g_tilde"], s["sigma"])
    assert _search_counts(caplog)[1] == 1
    assert lam in grid  # the scan's upper end, which solved and reached the target
    assert np.array_equal(g_star, dr.solve_tikhonov(s["design"], s["penalty"], s["g_tilde"], lam))
    target = dr.TikhonovConfig.discrepancy_target(s["g_tilde"].size, s["sigma"])
    assert np.linalg.norm(s["design"] @ g_star - s["g_tilde"]) >= target


def _scan_failing_from_third_point(monkeypatch, caplog, failed_solve):
    # noise far above the data scale: unpatched, all 8 scan points solve and
    # fall short.  The scan passes over the six failed solves from the ceiling
    # down, and the second point falls short and ends it in the fallback
    n = 21
    g_tilde = np.linspace(0.0, 1e-3, n)
    design = dr.build_design_matrix(n)
    penalty = dr.build_regularization_matrix(n)
    third = _scan_grid(n)[2]
    _fail_solves(monkeypatch, failed_solve, lambda lam: lam >= third)
    with caplog.at_level(logging.DEBUG, logger="driftrec.mollify"):
        with pytest.warns(UserWarning, match="returning lambda_min"):
            lam, g_star = dr.select_lambda(design, penalty, g_tilde, 10.0)
    assert lam == 1e-12
    assert _search_counts(caplog) == (7, 0)
    assert np.array_equal(g_star, dr.solve_tikhonov(design, penalty, g_tilde, lam))


@pytest.fixture(scope="module")
def ex3e_noisy_setup():
    preset = dr.make_preset("ex3e", noise_level=0.01, seed=7)
    g_exact, g_noisy = dr.synthesize(preset)
    n = preset.data_points
    design = dr.build_design_matrix(n)
    penalty = dr.build_regularization_matrix(n)
    g_tilde = dr.assemble_rhs(g_noisy, preset.spec.left_flux,
                              float(preset.spec.right_flux(1.0)), 1.0 / (n - 1))
    sigma = dr.noise_sigma(g_exact, preset.noise)
    return {"preset": preset, "g_exact": g_exact, "g_noisy": g_noisy,
            "design": design, "penalty": penalty, "g_tilde": g_tilde, "sigma": sigma}


class TestNoise:
    def test_zero_level_rejected(self):
        # "no noise" is a preset without a NoiseSpec, never a level of 0
        with pytest.raises(ConfigurationError, match="level must be finite and > 0"):
            dr.NoiseSpec(level=0.0, seed=1)

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
            dr.NoiseSpec(level=-0.1, seed=1)

    @pytest.mark.parametrize("seed", [-1, 2.5, 7.0])
    def test_seed_must_be_a_nonnegative_integer(self, seed):
        with pytest.raises(ConfigurationError, match="seed must be an integer >= 0"):
            dr.NoiseSpec(level=0.01, seed=seed)


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
        lam, _ = dr.select_lambda(design, penalty, g, 0.0)
        assert lam == 1e-12

    def test_residual_brackets_target(self, ex3e_noisy_setup):
        s = ex3e_noisy_setup
        _, g_star = dr.select_lambda(s["design"], s["penalty"], s["g_tilde"], s["sigma"])
        residual = np.linalg.norm(s["design"] @ g_star - s["g_tilde"])
        target = 1.01 * np.sqrt(s["g_tilde"].size) * s["sigma"]
        assert residual >= target
        assert residual <= 1.1 * target

    def test_mollification_reduces_data_error(self, ex3e_noisy_setup):
        s = ex3e_noisy_setup
        _, g_star = dr.select_lambda(s["design"], s["penalty"], s["g_tilde"], s["sigma"])
        assert (np.linalg.norm(g_star - s["g_exact"])
                < np.linalg.norm(s["g_noisy"] - s["g_exact"]))

    def test_residual_monotone_in_lambda(self, ex3e_noisy_setup):
        s = ex3e_noisy_setup
        lam_grid = np.geomspace(1e-12, dr.TikhonovConfig.resolved_lambda_max(s["g_tilde"].size), 20)
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
        lam, _ = dr.select_lambda(s["design"], s["penalty"], s["g_tilde"], s["sigma"])
        assert lam == reference_search(s["design"], s["penalty"], s["g_tilde"], s["sigma"])

    def test_logs_search_once(self, ex3e_noisy_setup, caplog):
        s = ex3e_noisy_setup
        with caplog.at_level(logging.DEBUG, logger="driftrec.mollify"):
            lam, g_star = dr.select_lambda(s["design"], s["penalty"], s["g_tilde"], s["sigma"])
        assert len(caplog.records) == 1
        message = caplog.records[0].getMessage()
        assert "bracket" in message and "bisection solves" in message
        residual = float(np.linalg.norm(s["design"] @ g_star - s["g_tilde"]))
        assert f"lambda {lam!r}, residual {residual!r}" in message and "target" in message

    def test_factorization_failure_ends_scan(self, monkeypatch, caplog):
        _scan_failing_from_third_point(monkeypatch, caplog, _not_positive_definite)

    def test_near_singular_solve_not_accepted(self, monkeypatch, caplog):
        # a blown-up solve would "reach" the target on its rounding residual
        _scan_failing_from_third_point(monkeypatch, caplog, _blown_up)

    def test_factorization_failure_ends_bisection(self, ex3e_noisy_setup, monkeypatch, caplog):
        _bisection_ended_at_first_solve(ex3e_noisy_setup, monkeypatch, caplog,
                                        _not_positive_definite)

    def test_blown_up_solve_ends_bisection(self, ex3e_noisy_setup, monkeypatch, caplog):
        _bisection_ended_at_first_solve(ex3e_noisy_setup, monkeypatch, caplog, _blown_up)

    def test_default_search_budget(self, ex3e_noisy_setup, caplog):
        s = ex3e_noisy_setup
        with caplog.at_level(logging.DEBUG, logger="driftrec.mollify"):
            lam, g_star = dr.select_lambda(s["design"], s["penalty"], s["g_tilde"], s["sigma"])
        message = caplog.records[0].getMessage()
        n_grid, n_bisect = _search_counts(caplog)
        lo, hi = map(float, re.search(r"final bracket \(([^,]+), ([^)]+)\)", message).groups())
        # lambda lies in the top scan interval: the ceiling and the point below it
        assert (n_grid, n_bisect) == (2, 9)
        assert hi == lam and hi / lo <= 1.05
        target = dr.TikhonovConfig.discrepancy_target(s["g_tilde"].size, s["sigma"])
        assert np.linalg.norm(s["design"] @ g_star - s["g_tilde"]) >= target

    def test_no_qualifying_lambda_warns(self, caplog):
        # noise far larger than the data scale: no lambda up to the ceiling reaches the target
        n = 21
        g = np.linspace(0.0, 1e-3, n)
        design = dr.build_design_matrix(n)
        penalty = dr.build_regularization_matrix(n)
        with caplog.at_level(logging.DEBUG, logger="driftrec.mollify"):
            with pytest.warns(UserWarning, match="no lambda in .* reaches .*returning lambda_min"):
                lam, _ = dr.select_lambda(design, penalty, g, 10.0)
        assert lam == 1e-12
        assert _search_counts(caplog) == (1, 0)

    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(3, 200), seed=st.integers(0, 2**32 - 1),
           noise=st.sampled_from((0.0, 0.05, 1e3)))
    def test_returns_the_solve_at_its_lambda(self, tikhonov_reference, n, seed, noise):
        # noise 0 stops at the first scan point, 0.05 of the data's scale
        # usually bisects, 1e3 never reaches the target and falls back
        _, reference_search = tikhonov_reference
        design = dr.build_design_matrix(n)
        penalty = dr.build_regularization_matrix(n)
        g_tilde = np.random.default_rng(seed).standard_normal(n)
        sigma = noise * np.max(np.abs(g_tilde))
        expected_lam = reference_search(design, penalty, g_tilde, sigma)
        falls_back = sigma > 0.0 and expected_lam == 1e-12
        with (pytest.warns(UserWarning, match="returning lambda_min") if falls_back
              else contextlib.nullcontext()):
            lam, g_star = dr.select_lambda(design, penalty, g_tilde, sigma)
        assert lam == expected_lam
        assert np.array_equal(g_star, dr.solve_tikhonov(design, penalty, g_tilde, lam))

    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(3, 200), seed=st.integers(0, 2**32 - 1),
           log_noise=st.floats(-8.0, 2.0))
    def test_descending_scan_matches_ascending_oracle(self, tikhonov_reference, n, seed,
                                                      log_noise):
        # noise log-uniform over ten decades of the data's scale: at K <= 200 the
        # crossing lands in the 2nd to 6th of the 7 scan intervals or past the
        # ceiling; the next test places it in each interval by construction
        _, reference_search = tikhonov_reference
        design = dr.build_design_matrix(n)
        penalty = dr.build_regularization_matrix(n)
        g_tilde = np.random.default_rng(seed).standard_normal(n)
        sigma = 10.0 ** log_noise * np.max(np.abs(g_tilde))
        expected_lam = reference_search(design, penalty, g_tilde, sigma)
        with (pytest.warns(UserWarning, match="returning lambda_min") if expected_lam == 1e-12
              else contextlib.nullcontext()):
            lam, g_star = dr.select_lambda(design, penalty, g_tilde, sigma)
        assert lam == expected_lam
        assert np.array_equal(g_star, dr.solve_tikhonov(design, penalty, g_tilde, lam))

    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(3, 200), seed=st.integers(0, 2**32 - 1),
           interval=st.integers(0, 7), where=st.floats(0.01, 0.99))
    def test_descending_scan_finds_each_interval(self, tikhonov_reference, n, seed,
                                                 interval, where):
        # the target sits inside scan interval `interval` (7: past the ceiling),
        # placed between the oracle's residuals at the grid points around it
        reference_solve, reference_search = tikhonov_reference
        design = dr.build_design_matrix(n)
        penalty = dr.build_regularization_matrix(n)
        g_tilde = np.random.default_rng(seed).standard_normal(n)
        grid = _scan_grid(n)
        residuals = [np.linalg.norm(design @ reference_solve(design, penalty, g_tilde, lam)
                                    - g_tilde) for lam in grid]
        if interval < 7:
            target = residuals[interval] + where * (residuals[interval + 1] - residuals[interval])
        else:
            target = (1.0 + where) * residuals[7]
        sigma = target / (1.01 * np.sqrt(n))
        expected_lam = reference_search(design, penalty, g_tilde, sigma)
        with (pytest.warns(UserWarning, match="returning lambda_min") if interval == 7
              else contextlib.nullcontext()):
            lam, g_star = dr.select_lambda(design, penalty, g_tilde, sigma)
        assert lam == expected_lam
        assert lam == 1e-12 if interval == 7 else grid[interval] < lam <= grid[interval + 1]
        assert np.array_equal(g_star, dr.solve_tikhonov(design, penalty, g_tilde, lam))

    def test_failed_ceiling_passed_over(self, tikhonov_reference, monkeypatch, caplog):
        # noise at 0.1 of the data's scale crosses between the 4th and 5th scan
        # points, so an ascending scan never solves at the ceiling and a ceiling
        # that fails to factor must change nothing
        _, reference_search = tikhonov_reference
        n = 21
        design = dr.build_design_matrix(n)
        penalty = dr.build_regularization_matrix(n)
        g_tilde = np.random.default_rng(3).standard_normal(n)
        sigma = 0.1 * np.max(np.abs(g_tilde))
        grid = _scan_grid(n)
        _fail_solves(monkeypatch, _not_positive_definite, lambda lam: lam == grid[-1])
        with caplog.at_level(logging.DEBUG, logger="driftrec.mollify"):
            lam, g_star = dr.select_lambda(design, penalty, g_tilde, sigma)
        assert _search_counts(caplog)[0] == 5  # the failed ceiling, three that reach, grid[3]
        assert grid[3] < lam <= grid[4]
        assert lam == reference_search(design, penalty, g_tilde, sigma)
        assert np.array_equal(g_star, dr.solve_tikhonov(design, penalty, g_tilde, lam))

    def test_failure_below_a_reaching_point_falls_back(self, ex3e_noisy_setup, monkeypatch,
                                                       caplog):
        # the ceiling reaches the target, the point below it fails: an ascending
        # scan stops at that failure and falls back to lambda_min
        s = ex3e_noisy_setup
        below_ceiling = _scan_grid(s["g_tilde"].size)[-2]
        _fail_solves(monkeypatch, _not_positive_definite, lambda lam: lam == below_ceiling)
        with caplog.at_level(logging.DEBUG, logger="driftrec.mollify"):
            with pytest.warns(UserWarning, match="returning lambda_min"):
                lam, g_star = dr.select_lambda(s["design"], s["penalty"], s["g_tilde"],
                                               s["sigma"])
        assert lam == 1e-12
        assert _search_counts(caplog) == (2, 0)
        assert np.array_equal(g_star, dr.solve_tikhonov(s["design"], s["penalty"],
                                                        s["g_tilde"], lam))

    def test_fallback_solve_failure_raises(self, monkeypatch):
        n = 21
        _fail_solves(monkeypatch, _not_positive_definite, lambda lam: True)
        with pytest.warns(UserWarning, match="returning lambda_min"):
            with pytest.raises(IllPosedError, match="not positive definite"):
                dr.select_lambda(dr.build_design_matrix(n), dr.build_regularization_matrix(n),
                                 np.linspace(0.0, 1.0, n), 0.01)

    def test_pipeline_solves_only_in_the_search(self, monkeypatch, caplog):
        # the mollified data is the search's own solution: one set of bands and
        # no solve beyond the scan and the bisection
        calls = {"normal_equations": 0, "_solve_bands": 0}
        for name in calls:
            original = getattr(mollify, name)

            def counted(*args, _name=name, _original=original):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(mollify, name, counted)
        preset = dr.make_preset("ex3e")
        g_exact, g_measured = dr.synthesize(preset)
        with caplog.at_level(logging.DEBUG, logger="driftrec.mollify"):
            _, record = dr.mollify_data(preset, g_exact, g_measured)
        assert record["mode"] == "discrepancy"
        assert calls == {"normal_equations": 1, "_solve_bands": sum(_search_counts(caplog))}

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_default_scan_solves_within_bound(self, data):
        # every default scan lambda factors and keeps the solution within the
        # blow-up bound 1e6 * ||g~||_inf, whatever the data's shape and scale
        n = data.draw(st.integers(3, 400), label="K")
        kind = data.draw(st.sampled_from(("uniform", "spike", "extreme", "linear")), label="kind")
        mag = st.floats(1e-300, 1e300).flatmap(lambda v: st.sampled_from((v, -v)))
        if kind == "uniform":
            g_tilde = np.full(n, data.draw(mag))
        elif kind == "spike":
            g_tilde = np.zeros(n)
            g_tilde[data.draw(st.integers(0, n - 1))] = data.draw(mag)
        elif kind == "extreme":
            g_tilde = np.array(data.draw(st.lists(st.sampled_from((1e300, -1e300, 1e-300, -1e-300)),
                                                  min_size=n, max_size=n)))
        else:
            g_tilde = np.linspace(data.draw(mag), data.draw(mag), n)
        bands = mollify.normal_equations(dr.build_design_matrix(n),
                                         dr.build_regularization_matrix(n), g_tilde)
        for lam in _scan_grid(n):
            g = mollify._solve_bands(*bands, lam)
            assert np.max(np.abs(g)) <= 1e6 * np.max(np.abs(g_tilde))


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


class TestTikhonovConfig:
    def test_validation(self):
        with pytest.raises(ConfigurationError, match="lambda"):
            dr.TikhonovConfig(lam=0.0)

    def test_ceiling_scales_with_data_size(self):
        ceiling = dr.TikhonovConfig.resolved_lambda_max
        assert ceiling(10_001) >= 1e29
        assert ceiling(101) < ceiling(10_001)
