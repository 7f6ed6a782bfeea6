"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and measured runtimes.
"""

import time

import numpy as np
import pytest

import driftrec as dr
from driftrec.cli import main
from driftrec.model import centered_first


def _constant(c):
    return lambda x: c + 0.0 * np.asarray(x, dtype=float)


def _report(num, label, elapsed, budget):
    print(f"ACCEPTANCE {num}: PASS - {label} ({elapsed:.2f}s < {budget:.0f}s)")
    assert elapsed < budget


def _masked_rel_l2(bundle, kinks):
    """Relative L2 error skipping each kink node and its two neighbours."""
    grid = bundle.q_true_grid.grid
    mask = np.ones(grid.m + 1, dtype=bool)
    for k in kinks:
        idx = int(round(k * grid.m))
        mask[max(0, idx - 1):min(grid.m, idx + 1) + 1] = False
    w = np.full(grid.m + 1, grid.h)
    w[0] = w[-1] = grid.h / 2.0
    diff = bundle.q_recovered.values - bundle.q_true_grid.values
    num = np.sqrt(np.sum(w[mask] * diff[mask] ** 2))
    den = np.sqrt(np.sum(w[mask] * bundle.q_true_grid.values[mask] ** 2))
    return num / den


def test_criterion_1_steady_state_exactness():
    start = time.perf_counter()
    spec = dr.ProblemSpec(source=_constant(5.0), potential=5.0, initial=_constant(1.0),
                          left_flux=0.0, right_flux=_constant(0.0), horizon=1.0)
    space = dr.SpatialGrid(100)
    q = dr.GridFunction.sample(space, _constant(0.0))
    dev = dev_t = 0.0
    for n_steps in range(1, 101):
        u_T, u_t = dr.solve_forward(spec, q, dr.build_grids(100, n_steps, 1.0))
        dev = max(dev, float(np.max(np.abs(u_T - 1.0))))
        dev_t = max(dev_t, float(np.max(np.abs(u_t))))
    assert dev <= 1e-12
    assert dev_t <= 1e-12
    _report(1, f"steady state reproduced, max deviation {dev:.2e}, max |u_t| {dev_t:.2e}",
            time.perf_counter() - start, 1.0)


def test_criterion_2_forward_convergence(manufactured):
    start = time.perf_counter()
    spec, exact = manufactured
    errors = []
    for m in (25, 50, 100):
        grids = dr.build_grids(m, m, 1.0)
        q = dr.GridFunction.sample(grids.space, _constant(0.0))
        u_T, _ = dr.solve_forward(spec, q, grids)
        errors.append(float(np.max(np.abs(u_T - exact(grids.space.nodes, 1.0)))))
    assert errors[0] > errors[1] > errors[2]
    orders = [np.log2(errors[i] / errors[i + 1]) for i in range(2)]
    assert min(orders) >= 1.0
    _report(2, f"sup errors {['%.2e' % e for e in errors]}, orders {['%.3f' % o for o in orders]}",
            time.perf_counter() - start, 5.0)


def test_criterion_3_discrete_positivity(ex1_setup):
    start = time.perf_counter()
    grids = ex1_setup["grids"]
    u_T, u_t = dr.solve_forward(ex1_setup["spec"], ex1_setup["q_true"], grids)
    slope = centered_first(u_T, grids.space.h)
    assert np.all(slope > 0.0)
    assert np.min(u_t) >= -1e-8
    _report(3, f"min slope {np.min(slope):.3f}, min u_t {np.min(u_t):.3e}",
            time.perf_counter() - start, 2.0)


def test_criterion_4_update_preserves_order(ex1_setup):
    start = time.perf_counter()
    setup = ex1_setup
    q0, slope, _ = dr.data_terms(setup["data"], setup["spec"])
    x = setup["grids"].space.nodes
    rng = np.random.default_rng(42)
    worst = -np.inf
    for _ in range(20):
        lo = np.minimum(rng.uniform(-0.5, 0.5)
                        + rng.uniform(0.2, 0.8) * np.sin(2 * np.pi * x + rng.uniform(0, 2 * np.pi)),
                        q0.values - 0.2)
        bump = rng.uniform(0.05, 0.4) * (1 + np.cos(2 * np.pi * x + rng.uniform(0, 2 * np.pi))) / 2
        hi = np.minimum(lo + bump, q0.values - 0.1)
        lo = np.minimum(lo, hi)
        k_lo = dr.drift_update(dr.GridFunction(setup["grids"].space, lo),
                               q0, slope, setup["spec"], setup["grids"])
        k_hi = dr.drift_update(dr.GridFunction(setup["grids"].space, hi),
                               q0, slope, setup["spec"], setup["grids"])
        worst = max(worst, float(np.max(k_lo.values - k_hi.values)))
    assert worst <= 1e-6
    _report(4, f"20 ordered pairs, worst violation {worst:.3e}",
            time.perf_counter() - start, 30.0)


def test_criterion_5_decreasing_iteration(ex1_setup):
    start = time.perf_counter()
    setup = ex1_setup
    cfg = dr.IterationConfig(max_iter=5, tol_step=1e-15)
    _, trace = dr.run_iteration(setup["data"], setup["spec"], setup["grids"], cfg)
    assert len(trace.step_norms) == 5
    assert max(trace.mono_violations) <= 1e-6
    assert all(s2 <= s1 for s1, s2 in zip(trace.step_norms, trace.step_norms[1:]))
    _report(5, f"steps {['%.2e' % s for s in trace.step_norms]}, "
               f"max increase {max(trace.mono_violations):.2e}",
            time.perf_counter() - start, 10.0)


@pytest.mark.parametrize("name", ["ex1a", "ex1b"])
def test_criterion_6_smooth_reconstruction(name):
    start = time.perf_counter()
    bundle = dr.run_experiment(dr.make_preset(name))
    assert bundle.status == "ok"
    assert len(bundle.trace.step_norms) <= 3
    assert bundle.metrics["rel_l2"] <= 0.05
    _report(6, f"{name} rel_l2 {bundle.metrics['rel_l2']:.4f} "
               f"in {len(bundle.trace.step_norms)} iterations",
            time.perf_counter() - start, 10.0)


@pytest.mark.parametrize("name,kinks", [("ex2c", (0.5,)),
                                        ("ex2d", (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9))])
def test_criterion_7_kinked_reconstruction(name, kinks):
    start = time.perf_counter()
    bundle = dr.run_experiment(dr.make_preset(name))
    assert bundle.status == "ok"
    err = _masked_rel_l2(bundle, kinks)
    assert err <= 0.10
    _report(7, f"{name} rel_l2 away from kinks {err:.4f}",
            time.perf_counter() - start, 10.0)


@pytest.mark.parametrize("level", [0.003, 0.01, 0.03])
def test_criterion_8_mollification_necessity(level):
    start = time.perf_counter()
    smooth = dr.run_experiment(dr.make_preset("ex3e", noise_level=level, seed=7, mollify=True))
    raw = dr.run_experiment(dr.make_preset("ex3e", noise_level=level, seed=7, mollify=False))
    assert smooth.status == "ok"
    if level == 0.003:
        # the one level where the raw pipeline runs through, so the ratio gate is reached
        assert raw.status == "ok"
    if raw.status == "ok":
        ratio = raw.metrics["rel_l2"] / smooth.metrics["rel_l2"]
        assert ratio >= 3.0
        detail = f"error ratio without/with mollification {ratio:.1f}"
    else:
        detail = f"raw pipeline failed as expected ({raw.error})"
    _report(8, f"noise {level:.1%}: {detail}", time.perf_counter() - start, 60.0)


def test_criterion_9_banded_tikhonov_against_dense_oracle(dense_solve):
    start = time.perf_counter()
    rng = np.random.default_rng(99)
    worst_sol = 0.0
    worst_grad = 0.0
    for _ in range(8):
        n = int(rng.integers(5, 51))
        design = dr.build_design_matrix(n)
        penalty = dr.build_regularization_matrix(n)
        g_tilde = rng.standard_normal(n)
        a = design.toarray()
        r = penalty.toarray()
        for lam in np.geomspace(1e-6, 1.0, 10):
            banded = dr.solve_tikhonov(design, penalty, g_tilde, float(lam))
            normal = a.T @ a + lam * (r.T @ r)
            rhs = a.T @ g_tilde
            dense = dense_solve(normal, rhs)
            worst_sol = max(worst_sol, float(np.max(np.abs(banded - dense))))
            grad = float(np.max(np.abs(normal @ banded - rhs)))
            worst_grad = max(worst_grad, grad / max(1e-30, float(np.max(np.abs(rhs)))))
    assert worst_sol <= 1e-10
    assert worst_grad <= 1e-10
    _report(9, f"worst solution gap {worst_sol:.2e}, worst gradient residual {worst_grad:.2e}",
            time.perf_counter() - start, 5.0)


def test_criterion_10_cli_determinism(tmp_path):
    start = time.perf_counter()
    for sub in ("a", "b"):
        code = main(["invert", "ex3e", "--seed", "7", "--out", str(tmp_path / sub)])
        assert code == 0
    for name in ("drift.csv", "trace.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    _report(10, "repeated seeded run produced byte-identical drift.csv and trace.json",
            time.perf_counter() - start, 60.0)
