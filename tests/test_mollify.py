import logging
import re

import numpy as np
import pytest
import scipy.sparse
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.linalg.lapack import dpbsv

import driftrec as dr
from driftrec import experiments, mollify
from driftrec.cli import main
from driftrec.errors import ConfigurationError, IllPosedError


def _objective(design, penalty, g_tilde, lam, g):
    return (np.linalg.norm(design @ g - g_tilde) ** 2
            + lam * np.linalg.norm(penalty @ g) ** 2)


def _scan_grid(n):
    """The default scan: 8 geometric values from 1e-12 up to the ceiling at K = n."""
    return np.geomspace(1e-12, dr.TikhonovConfig.resolved_lambda_max(n), 8).tolist()


def _fail_solve(monkeypatch, failure, call):
    """Make the `call`-th banded solve fail: `dpbsv` reports a leading minor
    that is not positive, or returns a solution scaled past the blow-up bound."""
    calls = []

    def patched(ab, b, **kwargs):
        ab, g, info = dpbsv(ab, b, **kwargs)
        calls.append(None)
        if len(calls) == call:
            if failure == "not positive definite":
                info = 7
            else:
                g = 1e7 * g
        return ab, g, info

    monkeypatch.setattr(mollify, "dpbsv", patched)
    return calls


def _matches_oracle(reference_search, g_tilde, sigma):
    """Run `select_lambda` against the ascending-scan oracle: the same lambda,
    with the search's own solve at it, or IllPosedError from both when no
    lambda up to the ceiling reaches the target.  Returns the lambda, or None."""
    n = g_tilde.size
    design = dr.build_design_matrix(n)
    penalty = dr.build_regularization_matrix(n)
    try:
        expected_lam = reference_search(design, penalty, g_tilde, sigma)
    except IllPosedError as exc:
        assert "no lambda up to the ceiling" in str(exc)
        with pytest.raises(IllPosedError, match="no lambda up to the ceiling"):
            dr.select_lambda(g_tilde, sigma)
        return None
    lam, g_star = dr.select_lambda(g_tilde, sigma)
    assert lam == expected_lam
    assert np.array_equal(g_star, dr.solve_tikhonov(design, penalty, g_tilde, lam))
    return lam


def _psi(n, b1, b2):
    """psi(x) = b1 x + (b2 - b1) x^2 / 2 at K = n samples, as the mollifier forms it."""
    x = np.linspace(0.0, 1.0, n)
    return x * (b1 + 0.5 * (b2 - b1) * x)


def _search_counts(caplog):
    message = caplog.records[0].getMessage()
    return tuple(map(int, re.search(r"(\d+) grid \+ (\d+) bisection", message).groups()))


@pytest.fixture(scope="module")
def ex3e_k2001_setup():
    """ex3e's data at K = 2001, 1 % noise and seed 7, as the lambda search takes it."""
    preset = dr.make_preset("ex3e", data_points=2001, seed=7)
    g_exact, g_noisy = dr.synthesize(preset)
    g_tilde = dr.assemble_rhs(g_noisy, preset.spec.left_flux,
                              float(preset.spec.right_flux(1.0)), 1.0 / 2000)
    return {"g_tilde": g_tilde, "sigma": dr.noise_sigma(g_exact, preset.noise)}


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


class TestNormalBands:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_closed_form_matches_sparse_products(self, data):
        # the search's closed-form bands and residual against the sparse products
        # they replace, bit for bit, at small K and at the paper presets' sizes
        n = data.draw(st.one_of(st.integers(3, 300), st.sampled_from((1001, 10001))), label="K")
        # finite, and small enough that the squared residual norm cannot overflow
        finite = st.floats(-1e150, 1e150)
        g_tilde = data.draw(hnp.arrays(np.float64, n, elements=finite), label="g_tilde")
        g = data.draw(hnp.arrays(np.float64, n, elements=finite), label="g")
        design = dr.build_design_matrix(n)
        bands = mollify.normal_bands(g_tilde)
        expected = mollify.normal_equations(design, dr.build_regularization_matrix(n), g_tilde)
        for got, want in zip(bands, expected):
            assert np.array_equal(got, want)
        assert bands[0].flags.f_contiguous and bands[1].flags.f_contiguous
        assert mollify.fit_residual(g, g_tilde) == np.linalg.norm(design @ g - g_tilde)

    def test_too_small(self):
        with pytest.raises(ConfigurationError, match="3"):
            mollify.normal_bands(np.ones(2))


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

    def test_wider_than_pentadiagonal_rejected(self):
        # a third-difference penalty: R^T R has a nonzero on the third superdiagonal,
        # which the banded solve would drop (2.1e-2 off the dense solve at lambda 1e-2)
        n = 12
        design = dr.build_design_matrix(n)
        penalty = scipy.sparse.diags([-1.0, 3.0, -3.0, 1.0], [0, 1, 2, 3], shape=(n - 3, n))
        g_tilde = np.random.default_rng(5).standard_normal(n)
        with pytest.raises(ConfigurationError, match="pentadiagonal"):
            dr.solve_tikhonov(design, penalty, g_tilde, 1e-2)

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
            dr.select_lambda(g_tilde, 0.01)

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
        g = np.linspace(1.0, 2.0, 51)
        lam, _ = dr.select_lambda(g, 0.0)
        assert lam == 1e-12

    @pytest.mark.parametrize("sigma", [np.nan, -1.0, np.inf])
    def test_invalid_sigma_rejected(self, sigma):
        # a NaN or negative target counts as reached at every lambda, so the search
        # would return lambda_min without a warning
        g = np.linspace(1.0, 2.0, 51)
        with pytest.raises(ConfigurationError, match="sigma must be finite and >= 0"):
            dr.select_lambda(g, sigma)

    def test_residual_brackets_target(self, ex3e_noisy_setup):
        s = ex3e_noisy_setup
        _, g_star = dr.select_lambda(s["g_tilde"], s["sigma"])
        residual = np.linalg.norm(s["design"] @ g_star - s["g_tilde"])
        target = dr.TikhonovConfig.discrepancy_target(s["g_tilde"].size, s["sigma"])
        assert residual >= target
        assert residual <= 1.1 * target

    def test_mollification_reduces_data_error(self, ex3e_noisy_setup):
        s = ex3e_noisy_setup
        _, g_star = dr.select_lambda(s["g_tilde"], s["sigma"])
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
        lam, _ = dr.select_lambda(s["g_tilde"], s["sigma"])
        assert lam == reference_search(s["design"], s["penalty"], s["g_tilde"], s["sigma"])

    def test_logs_search_once(self, ex3e_noisy_setup, caplog):
        s = ex3e_noisy_setup
        with caplog.at_level(logging.DEBUG, logger="driftrec.mollify"):
            lam, g_star = dr.select_lambda(s["g_tilde"], s["sigma"])
        assert len(caplog.records) == 1
        message = caplog.records[0].getMessage()
        assert "bracket" in message and "bisection solves" in message
        residual = float(np.linalg.norm(s["design"] @ g_star - s["g_tilde"]))
        assert f"lambda {lam!r}, residual {residual!r}" in message and "target" in message

    def test_default_search_budget(self, ex3e_noisy_setup, caplog):
        s = ex3e_noisy_setup
        with caplog.at_level(logging.DEBUG, logger="driftrec.mollify"):
            lam, g_star = dr.select_lambda(s["g_tilde"], s["sigma"])
        message = caplog.records[0].getMessage()
        n_grid, n_bisect = _search_counts(caplog)
        lo, hi = map(float, re.search(r"final bracket \(([^,]+), ([^)]+)\)", message).groups())
        # lambda lies in the top scan interval: the ceiling and the point below it
        assert (n_grid, n_bisect) == (2, 9)
        assert hi == lam and hi / lo <= 1.05
        target = dr.TikhonovConfig.discrepancy_target(s["g_tilde"].size, s["sigma"])
        assert np.linalg.norm(s["design"] @ g_star - s["g_tilde"]) >= target

    def test_no_qualifying_lambda_raises(self, monkeypatch):
        # noise far larger than the data scale: even the ceiling falls short of the target,
        # so no lambda reaches it and the search ends after that one solve
        n = 21
        g = np.linspace(0.0, 1e-3, n)
        design = dr.build_design_matrix(n)
        penalty = dr.build_regularization_matrix(n)
        ceiling = dr.TikhonovConfig.resolved_lambda_max(n)
        residual = float(np.linalg.norm(design @ dr.solve_tikhonov(design, penalty, g, ceiling)
                                         - g))
        target = dr.TikhonovConfig.discrepancy_target(n, 10.0)
        solved = []
        original = mollify._solve_bands

        def recorded(fit, pen, rhs, lam):
            solved.append(lam)
            return original(fit, pen, rhs, lam)

        monkeypatch.setattr(mollify, "_solve_bands", recorded)
        with pytest.raises(IllPosedError) as info:
            dr.select_lambda(g, 10.0)
        assert solved == [ceiling]
        assert str(info.value) == (
            f"no lambda up to the ceiling {ceiling!r} reaches the discrepancy target {target!r} "
            f"at K = {n}: the residual there is {residual!r}"
        )

    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(3, 200), seed=st.integers(0, 2**32 - 1),
           noise=st.sampled_from((0.0, 0.05, 1e3)))
    def test_returns_the_solve_at_its_lambda(self, tikhonov_reference, n, seed, noise):
        # noise 0 stops at the first scan point, 0.05 of the data's scale
        # usually bisects, 1e3 never reaches the target and raises
        _, reference_search = tikhonov_reference
        g_tilde = np.random.default_rng(seed).standard_normal(n)
        _matches_oracle(reference_search, g_tilde, noise * np.max(np.abs(g_tilde)))

    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(3, 200), seed=st.integers(0, 2**32 - 1),
           log_noise=st.floats(-8.0, 2.0))
    def test_descending_scan_matches_ascending_oracle(self, tikhonov_reference, n, seed,
                                                      log_noise):
        # noise log-uniform over ten decades of the data's scale: at K <= 200 the
        # crossing lands in the 2nd to 6th of the 7 scan intervals or past the
        # ceiling; the next test places it in each interval by construction
        _, reference_search = tikhonov_reference
        g_tilde = np.random.default_rng(seed).standard_normal(n)
        _matches_oracle(reference_search, g_tilde, 10.0 ** log_noise * np.max(np.abs(g_tilde)))

    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(3, 200), seed=st.integers(0, 2**32 - 1),
           interval=st.integers(0, 7), where=st.floats(0.01, 0.99))
    def test_descending_scan_finds_each_interval(self, tikhonov_reference, n, seed,
                                                 interval, where):
        # the target sits inside scan interval `interval` (7: past the ceiling, which
        # raises), placed between the oracle's residuals at the grid points around it
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
        tau = np.sqrt(1.0 + 3.0 * np.sqrt(2.0 / n))
        lam = _matches_oracle(reference_search, g_tilde, target / (tau * np.sqrt(n)))
        assert lam is None if interval == 7 else grid[interval] < lam <= grid[interval + 1]

    @pytest.mark.parametrize("where", ["ceiling", "below a reaching point",
                                       "first bisection point"])
    @pytest.mark.parametrize("failure", ["not positive definite", "blown up"])
    def test_search_failure_raises(self, monkeypatch, ex3e_k2001_setup, failure, where):
        # ex3e at K = 2001 and seed 7: the ceiling reaches the target, the scan point
        # below it falls short, and the bisection starts between them.  A solve that
        # fails either check there ends the search with IllPosedError naming its lambda
        s = ex3e_k2001_setup
        below, ceiling = _scan_grid(2001)[-2:]
        lam, call = {"ceiling": (ceiling, 1), "below a reaching point": (below, 2),
                     "first bisection point": (float(np.sqrt(below) * np.sqrt(ceiling)), 3)}[where]
        calls = _fail_solve(monkeypatch, failure, call)
        with pytest.raises(IllPosedError, match=re.escape(f"(lambda={lam!r})")):
            dr.select_lambda(s["g_tilde"], s["sigma"])
        assert len(calls) == call

    def test_no_qualifying_lambda_ends_the_run(self, capsys, tmp_path):
        # ex3e at K = 2001, 10 % noise and seed 7: even the width cap falls short of the
        # target.  The run ends with IllPosedError before any file is written, and the
        # CLI exits with code 3; unsmoothed data never reaches the inversion
        message = "no width up to the cap .* reaches the discrepancy target"
        preset = dr.make_preset("ex3e", data_points=2001, noise_level=0.1, seed=7)
        with pytest.raises(IllPosedError, match=message):
            dr.run_experiment(preset, tmp_path / "a")
        assert main(["invert", "ex3e", "--data-points", "2001", "--noise", "0.1", "--seed", "7",
                     "--out", str(tmp_path / "b")]) == 3
        assert re.search(message, capsys.readouterr().err)
        assert not any(tmp_path.iterdir())

    def test_pipeline_solves_only_in_the_search(self, monkeypatch):
        # a search run mollifies with the width search: one forward and one inverse transform,
        # and no Tikhonov solve, no normal-equation bands and no sparse matrix
        def tikhonov_path(*args, **kwargs):
            raise AssertionError("a search run reached the Tikhonov smoother")

        for module, name in ((mollify, "dpbsv"), (mollify, "normal_bands"),
                             (mollify, "normal_equations"),
                             (mollify, "build_design_matrix"),
                             (mollify, "build_regularization_matrix"),
                             (experiments, "build_design_matrix"),
                             (experiments, "build_regularization_matrix"),
                             (experiments, "solve_tikhonov")):
            monkeypatch.setattr(module, name, tikhonov_path)
        calls = {"rfft": 0, "irfft": 0}
        for name in calls:
            original = getattr(np.fft, name)

            def counted(*args, _name=name, _original=original):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(np.fft, name, counted)
        preset = dr.make_preset("ex3e")
        g_exact, g_measured = dr.synthesize(preset)
        _, record = dr.mollify_data(preset, g_exact, g_measured)
        assert record["mode"] == "kernel"
        assert calls == {"rfft": 1, "irfft": 1}

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_default_scan_solves_within_bound(self, data):
        # every default scan lambda, and lambdas drawn log-uniformly between 1e-12
        # and the ceiling, where the bisection solves, factor and keep the solution
        # within the blow-up bound 1e6 * ||g~||_inf, whatever the data's shape and scale
        n = data.draw(st.integers(3, 400), label="K")
        log_max = np.log10(dr.TikhonovConfig.resolved_lambda_max(n))
        drawn = data.draw(st.lists(st.floats(-12.0, log_max), min_size=1, max_size=8),
                          label="log10 lambda")
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
        bands = mollify.normal_bands(g_tilde)
        for lam in _scan_grid(n) + [10.0**e for e in drawn]:
            g = mollify._solve_bands(*bands, lam)
            assert np.max(np.abs(g)) <= 1e6 * np.max(np.abs(g_tilde))


class TestSelectWidth:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_transforms_match_dense_cosine_series(self, mollifier_reference, data):
        # one rfft and one irfft per width against the same cosine series summed densely
        cosine_series, _ = mollifier_reference
        n = data.draw(st.integers(3, 300), label="K")
        width = data.draw(st.floats(1e-3, 0.5), label="width")
        b1, b2 = data.draw(st.tuples(st.floats(-10.0, 10.0), st.floats(-10.0, 10.0)), label="b")
        g = data.draw(hnp.arrays(np.float64, n, elements=st.floats(-1e3, 1e3)), label="g")
        got = mollify._gaussian_mollifier(g, b1, b2)(width)
        want = cosine_series(g, b1, b2, width)
        scale = np.max(np.abs(g)) + abs(b1) + abs(b2)
        assert np.max(np.abs(got - want)) <= 1e-10 * max(scale, 1e-300)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(11, 300), where=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))
    def test_matches_quadrature_of_the_reflected_data(self, mollifier_reference, n, where, seed):
        # at widths of 5 samples and more, the transform's aliasing is below exp(-61)
        _, quadrature = mollifier_reference
        h = 1.0 / (n - 1)
        width = 5.0 * h * (0.5 / (5.0 * h)) ** where
        x = np.linspace(0.0, 1.0, n)
        rng = np.random.default_rng(seed)
        g = np.sin(3.0 * x) + 2.0 + 0.1 * rng.standard_normal(n)
        b1, b2 = rng.uniform(-3.0, 3.0, 2)
        got = mollify._gaussian_mollifier(g, b1, b2)(width)
        assert np.max(np.abs(got - quadrature(g, b1, b2, width))) <= 1e-8

    @pytest.mark.parametrize("width", [1e-3, 0.05, 0.5])
    def test_quadratic_comes_back_shifted(self, width):
        # psi itself has no remainder: rho_delta * psi = psi + (b2 - b1) delta^2 / 4
        x = np.linspace(0.0, 1.0, 1001)
        b1, b2 = 1.0, 2.0
        psi = b1 * x + 0.5 * (b2 - b1) * x**2
        got = mollify._gaussian_mollifier(psi, b1, b2)(width)
        assert np.max(np.abs(got - (psi + (b2 - b1) * width**2 / 4.0))) <= 1e-13

    @settings(max_examples=200, deadline=None)
    @given(g=hnp.arrays(np.float64, st.integers(3, 300), elements=st.floats(-1e3, 1e3)),
           width=st.floats(1e-3, 0.5), b1=st.floats(-10.0, 10.0), b2=st.floats(-10.0, 10.0))
    @example(g=np.full(3, 7.5), width=0.5, b1=0.0, b2=0.0)
    @example(g=np.full(300, -250.0), width=1e-3, b1=0.0, b2=0.0)
    @example(g=_psi(201, -2.0, 7.5), width=0.2, b1=-2.0, b2=7.5)
    @example(g=_psi(4, 3.0, -10.0), width=0.5, b1=3.0, b2=-10.0)
    def test_parseval_residual_matches_the_smoothing(self, g, width, b1, b2):
        # the residual read from the spectrum is the norm of the smoothing's own difference
        n = g.size
        mollifier = mollify._gaussian_mollifier(g, b1, b2)
        residual = mollifier.residual(width)
        direct = float(np.linalg.norm(mollifier(width) - g))
        floor = 1e-13 * np.sqrt(n) * (np.max(np.abs(g)) + abs(b1) + abs(b2))
        assert abs(residual - direct) <= 1e-12 * direct + floor
        if np.ptp(g - _psi(n, b1, b2)) == 0.0:
            # constant data and psi-only data: the difference is psi's shift at every sample
            shift = np.sqrt(n) * abs(b2 - b1) * width**2 / 4.0
            assert abs(residual - shift) <= 1e-12 * shift + floor

    def test_matches_the_per_trial_transform_search(self, width_search_reference):
        # the draws of the 40-seed preset test: the same width and the same smoothing,
        # bit for bit, as the search that inverse-transforms every trial
        for name in ("ex3e", "ex3f"):
            for seed in range(1, 41):
                preset = dr.make_preset(name, seed=seed)
                g_exact, g_measured = dr.synthesize(preset)
                args = (g_measured, preset.spec.left_flux, float(preset.spec.right_flux(1.0)),
                        dr.noise_sigma(g_exact, preset.noise))
                width, g_star = dr.select_width(*args)
                expected_width, expected = width_search_reference(*args)
                assert width == expected_width, (name, seed)
                assert np.array_equal(g_star, expected), (name, seed)

    def test_residual_nondecreasing_in_width(self, ex3e_noisy_setup):
        s = ex3e_noisy_setup
        smooth = mollify._gaussian_mollifier(s["g_noisy"], 1.0, 2.0)
        residuals = [np.linalg.norm(smooth(w) - s["g_noisy"]) for w in np.geomspace(1e-3, 0.5, 40)]
        assert all(r2 >= r1 for r1, r2 in zip(residuals, residuals[1:]))

    def test_returns_its_smoothing_at_the_crossing(self, ex3e_noisy_setup):
        # the width reaches the target and the bracket's lower end, 5 % below it, does not
        s = ex3e_noisy_setup
        width, g_star = dr.select_width(s["g_noisy"], 1.0, 2.0, s["sigma"])
        smooth = mollify._gaussian_mollifier(s["g_noisy"], 1.0, 2.0)
        assert np.array_equal(g_star, smooth(width))
        target = dr.TikhonovConfig.discrepancy_target(s["g_noisy"].size, s["sigma"])
        assert np.linalg.norm(g_star - s["g_noisy"]) >= target
        assert np.linalg.norm(smooth(width / 1.05) - s["g_noisy"]) < target
        assert (np.linalg.norm(g_star - s["g_exact"])
                < np.linalg.norm(s["g_noisy"] - s["g_exact"]))

    def test_logs_search_once(self, ex3e_noisy_setup, caplog):
        s = ex3e_noisy_setup
        with caplog.at_level(logging.DEBUG, logger="driftrec.mollify"):
            width, g_star = dr.select_width(s["g_noisy"], 1.0, 2.0, s["sigma"])
        assert len(caplog.records) == 1
        message = caplog.records[0].getMessage()
        target = dr.TikhonovConfig.discrepancy_target(s["g_noisy"].size, s["sigma"])
        assert message.startswith(f"width search: target {target!r}, (width, residual) [(0.5, ")
        path = message.split("(width, residual) ")[1].split(", final bracket")[0]
        trials = re.findall(r"\(([^,()]+), ([^,()]+)\)", path)
        assert len(trials) == 8
        residuals = {float(w): float(r) for w, r in trials}
        lo, hi = map(float, re.search(r"final bracket \(([^,]+), ([^)]+)\)", message).groups())
        assert hi == width and 1e-3 <= lo < hi <= 1.05 * lo
        # the kept width reached the target, and the bracket's lower end, a trial too, fell short
        assert residuals[hi] >= target > residuals[lo]
        assert message.endswith(f"width {width!r}, 1 inverse transform")

    def test_zero_noise_returns_the_narrowest_width(self):
        # every width reaches a target of 0: the bisection ends at the bracket's low end
        g = np.sin(np.linspace(0.0, 1.0, 51))
        width, _ = dr.select_width(g, 1.0, float(np.cos(1.0)), 0.0)
        assert 1e-3 < width <= 1.05e-3

    def test_no_qualifying_width_raises(self, monkeypatch):
        # noise far larger than the data: even the cap falls short, after one inverse transform
        n = 21
        g = np.linspace(0.0, 1e-3, n)
        cap = mollify._gaussian_mollifier(g, 1e-3, 1e-3)(0.5)
        residual = float(np.linalg.norm(cap - g))
        target = dr.TikhonovConfig.discrepancy_target(n, 10.0)
        calls = []
        original = np.fft.irfft

        def counted(*args):
            calls.append(None)
            return original(*args)

        monkeypatch.setattr(np.fft, "irfft", counted)
        with pytest.raises(IllPosedError) as info:
            dr.select_width(g, 1e-3, 1e-3, 10.0)
        assert len(calls) == 1
        assert str(info.value) == (
            f"no width up to the cap 0.5 reaches the discrepancy target {target!r} "
            f"at K = {n}: the residual there is {residual!r}"
        )

    @pytest.mark.parametrize("sigma", [np.nan, -1.0, np.inf])
    def test_invalid_sigma_rejected(self, sigma):
        with pytest.raises(ConfigurationError, match="sigma must be finite and >= 0"):
            dr.select_width(np.linspace(1.0, 2.0, 51), 1.0, 1.0, sigma)

    @pytest.mark.parametrize("bad", ["data", "slope"])
    def test_non_finite_input_rejected(self, bad):
        g = np.linspace(1.0, 2.0, 51)
        b1 = 1.0
        if bad == "data":
            g[7] = np.nan
        else:
            b1 = np.inf
        with pytest.raises(ConfigurationError, match="must be finite"):
            dr.select_width(g, b1, 1.0, 0.01)

    def test_too_small(self):
        with pytest.raises(ConfigurationError, match="3"):
            dr.select_width(np.ones(2), 0.0, 0.0, 0.01)


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
