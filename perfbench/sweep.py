"""Layer scaling sweeps: the forward solve and the Tikhonov solve alone, at
several problem sizes, so a change to either layer shows how its gain
scales and not only at preset sizes."""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

# size -> repetitions; the median of the repetitions is reported
FORWARD_SIZES = {100: 15, 400: 5, 1600: 2}
TIKHONOV_SIZES = {"k1e3": (1_000, 31), "k1e4": (10_000, 11), "k1e5": (100_000, 5)}


def _median_time(call, reps: int) -> float:
    times = []
    for _ in range(reps):
        t0 = perf_counter()
        call()
        times.append(perf_counter() - t0)
    return statistics.median(times)


def run_sweeps(dr, seed: int) -> dict[str, float]:
    """`dr` is the imported driftrec package."""
    metrics = {}
    preset = dr.make_preset("ex1a")
    for m, reps in FORWARD_SIZES.items():
        grids = dr.build_grids(m, m, preset.spec.horizon)
        drift = dr.GridFunction.sample(grids.space, preset.q_true)
        t = _median_time(lambda: dr.solve_forward(preset.spec, drift, grids), reps)
        metrics[f"forward.ns_per_cell.m{m}"] = t / (m * (m + 1)) * 1e9

    rng = np.random.default_rng(seed)
    for label, (k, reps) in TIKHONOV_SIZES.items():
        x = np.linspace(0.0, 1.0, k)
        g = np.sin(np.pi * x) + 0.01 * rng.standard_normal(k)
        g_tilde = dr.assemble_rhs(g, 1.0, 2.0, 1.0 / (k - 1))
        design = dr.build_design_matrix(k)
        penalty = dr.build_regularization_matrix(k)
        # an effective weight of 1 on the raw second differences
        lam = float(k - 1) ** 4
        t = _median_time(lambda: dr.solve_tikhonov(design, penalty, g_tilde, lam), reps)
        metrics[f"mollify.solve_s_p50.{label}"] = t
    return metrics
