import json
import re
import time
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import driftrec as dr
from driftrec.errors import ConfigurationError
from driftrec.experiments import (
    csv_lines,
    drift_hat,
    drift_parabolic_join,
    drift_plateau_ramp,
    drift_sawtooth,
    drift_sine,
    drift_staircase,
)
from driftrec.svgplot import line_plot_svg

# signed zeros, subnormals and values near the top of the range, mixed into ordinary draws
_EDGE_VALUES = (-0.0, 0.0, 5e-324, -5e-324, 1.1e-308, -2.5e-310, 1e300, -1e300)


def _values(**float_kwargs):
    return st.one_of(st.sampled_from(_EDGE_VALUES), st.floats(**float_kwargs))


class TestPresets:
    def test_registry_names(self):
        assert dr.PRESET_NAMES == ("ex1a", "ex1b", "ex2c", "ex2d", "ex3e", "ex3f")
        with pytest.raises(ConfigurationError, match="ex1a"):
            dr.make_preset("bogus")

    def test_shared_coefficients(self):
        p = dr.make_preset("ex1a")
        assert p.spec.potential == 5.0
        assert p.spec.left_flux == 1.0
        assert p.spec.right_flux(0.5) == 1.5
        assert float(p.spec.source(np.array([1.0]))[0]) == 20.0
        assert float(p.spec.initial(np.array([0.5]))[0]) == pytest.approx(1.0)
        assert p.spec.horizon == 1.0
        assert p.solver_grid == (100, 100)
        assert p.noise is None and not p.mollify

    def test_shorter_horizon_presets(self):
        for name in ("ex2c", "ex2d"):
            p = dr.make_preset(name)
            assert p.spec.horizon == 0.5
            assert p.solver_grid == (100, 100)

    def test_noisy_presets(self):
        for name in ("ex3e", "ex3f"):
            p = dr.make_preset(name)
            assert p.spec.horizon == 1.0
            assert p.solver_grid == (20, 80)
            assert p.noise is not None and p.noise.level == 0.01 and p.noise.seed == 7
            assert p.mollify

    def test_overrides(self):
        p = dr.make_preset("ex3e", noise_level=0.03, seed=11, mollify=False,
                           grid_m=40, grid_n=60, refinement=2, data_points=501,
                           max_iter=9, tol_step=1e-6)
        assert p.noise.level == 0.03 and p.noise.seed == 11
        assert not p.mollify
        assert p.solver_grid == (40, 60)
        assert p.data_grid_refinement == 2 and p.data_points == 501
        assert p.iteration.max_iter == 9 and p.iteration.tol_step == 1e-6

    def test_lambda_override(self):
        p = dr.make_preset("ex3e", lam=0.5)
        assert p.mollify and p.tikhonov.lam == 0.5

    @pytest.mark.parametrize("name, mollify", [("ex1a", None), ("ex3e", False)])
    def test_fixed_lambda_without_mollify_rejected(self, name, mollify):
        # only the mollifier reads lambda: a run that skips it would ignore the value
        with pytest.raises(ConfigurationError, match="fixed lambda 1 needs a run that mollifies"):
            dr.make_preset(name, mollify=mollify, lam=1.0)

    @pytest.mark.parametrize("noise_level", [None, 0.0])
    def test_mollify_without_noise_rejected(self, noise_level):
        with pytest.raises(ConfigurationError, match="noise"):
            dr.make_preset("ex1a", noise_level=noise_level, mollify=True)

    def test_data_grid_coarser_than_solver_grid_rejected(self):
        with pytest.raises(ConfigurationError, match="grid_m"):
            dr.make_preset("ex3e", data_points=20)
        assert dr.make_preset("ex3e", data_points=21).data_points == 21

    def test_fixed_lambda_bounded_by_search_ceiling(self):
        # above 1e14 * (K-1)^4 the normal equations are no longer numerically definite
        ceiling = 1e14 * 2000.0**4
        assert dr.make_preset("ex3e", data_points=2001, lam=ceiling).tikhonov.lam == ceiling
        with pytest.raises(ConfigurationError, match="lambda") as exc:
            dr.make_preset("ex3e", data_points=2001, lam=float(np.nextafter(ceiling, np.inf)))
        assert f"{ceiling:g}" in str(exc.value)

    def test_drift_shapes(self):
        x = np.array([0.0, 0.1, 0.25, 0.3, 0.5, 0.6, 0.75, 0.8, 0.9, 1.0])
        assert np.allclose(drift_sine(x), np.sin(x))
        assert drift_parabolic_join(0.5) == pytest.approx(0.25)
        assert drift_parabolic_join(1.0) == pytest.approx(0.5)
        assert drift_hat(0.5) == pytest.approx(0.5)
        assert drift_hat(1.0) == pytest.approx(0.0)
        # sawtooth: -1 at the segment centers, +1 at the joins
        assert np.allclose(drift_sawtooth(np.array([0.1, 0.3, 0.5, 0.7, 0.9])), -1.0)
        assert np.allclose(drift_sawtooth(np.array([0.0, 0.2, 0.4, 0.6, 0.8, 1.0])), 1.0)
        assert np.array_equal(drift_staircase(np.array([0.1, 0.25, 0.3, 0.5, 0.6, 0.8])),
                              [0.0, 0.0, 1.0, 1.0, 0.0, 1.0])
        assert np.allclose(drift_plateau_ramp(np.array([0.1, 0.2, 0.5, 0.8, 0.9])),
                           [-1.0, 0.1, 0.25, 0.4, -1.0])


class TestGenerateData:
    def test_deterministic(self):
        a = dr.synthesize(dr.make_preset("ex3e"))[2]
        b = dr.synthesize(dr.make_preset("ex3e"))[2]
        assert np.array_equal(a, b)

    def test_exact_data_has_positive_slope(self):
        preset = dr.make_preset("ex1a", data_points=2001)
        g = dr.synthesize(preset)[2]
        h = 1.0 / (g.size - 1)
        slope = (g[2:] - g[:-2]) / (2.0 * h)
        assert np.all(slope > 0.0)

    def test_refinement_changes_reconstruction(self):
        b1 = dr.run_experiment(dr.make_preset("ex1a", refinement=1, data_points=1001))
        b4 = dr.run_experiment(dr.make_preset("ex1a", refinement=4, data_points=1001))
        assert not np.array_equal(b1.q_recovered.values, b4.q_recovered.values)
        assert b1.provenance["inverse_crime_guard"] is False
        assert b4.provenance["inverse_crime_guard"] is True

    def test_refinement_below_one_rejected(self):
        with pytest.raises(ConfigurationError, match="refinement"):
            dr.make_preset("ex1a", refinement=0)

    @pytest.mark.parametrize("override", [dict(refinement=2.5), dict(refinement=4.0),
                                          dict(data_points=1001.0)])
    def test_non_integer_sizes_rejected(self, override):
        with pytest.raises(ConfigurationError, match="must be an integer"):
            dr.make_preset("ex3e", **override)


class TestMollifyData:
    def test_fixed_lambda_records_sigma_and_target(self):
        preset = dr.make_preset("ex3e", data_points=2001, lam=1e24)
        _, g_exact, g_measured = dr.synthesize(preset)
        g_star, record = dr.mollify_data(preset, g_exact, g_measured)
        assert record["mode"] == "fixed" and record["lambda"] == 1e24
        assert record["sigma_abs"] == dr.noise_sigma(g_exact, preset.noise)
        assert record["target"] == dr.TikhonovConfig.discrepancy_target(2001, record["sigma_abs"])
        assert np.all(np.isfinite(g_star))

    def test_discrepancy_search_without_noise_rejected(self):
        preset = dr.make_preset("ex1a", data_points=1001)
        _, g_exact, g_measured = dr.synthesize(preset)
        with pytest.raises(ConfigurationError, match="noise level > 0"):
            dr.mollify_data(preset, g_exact, g_measured)


class TestRunExperiment:
    def test_accepts_preset_name(self):
        bundle = dr.run_experiment("ex1a")
        assert bundle.status == "ok"
        assert bundle.metrics["rel_l2"] <= 0.05
        assert len(bundle.trace.step_norms) <= 3

    def test_bundle_embeds_assumption_report(self):
        bundle = dr.run_experiment("ex1a")
        assert bundle.assumptions.clause_results["f"] == "warn"
        assert bundle.provenance["preset"] == "ex1a"
        assert bundle.provenance["tool_version"] == dr.__version__

    def test_rough_data_failure_is_captured(self):
        preset = dr.make_preset("ex3e", noise_level=0.5, seed=3, mollify=False)
        bundle = dr.run_experiment(preset)
        assert bundle.status == "failed"
        assert bundle.error is not None
        assert bundle.metrics is None


@pytest.fixture(scope="module")
def bundle_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("bundle")
    bundle = dr.run_experiment("ex3e", out_dir=out)
    return bundle, out


class TestEmitOutputs:

    def test_drift_csv_shape(self, bundle_dir):
        bundle, out = bundle_dir
        lines = (out / "drift.csv").read_text().strip().splitlines()
        header = lines[0].split(",")
        assert header[:2] == ["x", "q_true"]
        assert header[2] == "q_0"
        assert len(lines) == 1 + 21
        for line in lines[1:]:
            for cell in line.split(","):
                float(cell)  # locale-independent '.' decimals

    def test_solution_csv_columns(self, bundle_dir):
        _, out = bundle_dir
        lines = (out / "solution.csv").read_text().strip().splitlines()
        assert lines[0] == "x,g_exact,g_noisy,g_mollified"
        assert len(lines) == 1 + 21

    def test_trace_json_round_trip(self, bundle_dir):
        bundle, out = bundle_dir
        doc = json.loads((out / "trace.json").read_text())
        assert doc["metrics"]["rel_l2"] == bundle.metrics["rel_l2"]
        assert doc["metrics"]["rel_linf"] == bundle.metrics["rel_linf"]
        assert doc["iteration"]["step_norms"] == [float(s) for s in bundle.trace.step_norms]
        assert doc["mollification"]["lambda"] == bundle.mollification["lambda"]
        assert doc["provenance"] == json.loads(json.dumps(bundle.provenance))

    def test_trace_json_iteration_keys(self, bundle_dir):
        _, out = bundle_dir
        doc = json.loads((out / "trace.json").read_text())
        assert set(doc["iteration"]) == {"floor_hits", "mono_violations", "n_iterates", "step_norms"}

    def test_svg_structure(self, bundle_dir):
        _, out = bundle_dir
        tree = ET.parse(out / "figure-ex3e.svg")
        ns = "{http://www.w3.org/2000/svg}"
        polylines = tree.getroot().findall(f".//{ns}polyline")
        assert len(polylines) == 2  # true and recovered drift

    def test_unknown_format_rejected(self, bundle_dir):
        bundle, out = bundle_dir
        with pytest.raises(ConfigurationError, match="format"):
            dr.emit_outputs(bundle, out, formats=("pdf",))

    def test_failed_run_still_emits(self, tmp_path):
        preset = dr.make_preset("ex3e", noise_level=0.5, seed=3, mollify=False)
        bundle = dr.run_experiment(preset, out_dir=tmp_path)
        doc = json.loads((tmp_path / "trace.json").read_text())
        assert doc["status"] == "failed"
        assert doc["metrics"] is None
        lines = (tmp_path / "drift.csv").read_text().strip().splitlines()
        assert lines[0] == "x,q_true"


class TestFormattersMatchReference:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), n_rows=st.integers(1, 12), n_cols=st.integers(1, 6))
    def test_csv_lines(self, output_reference, data, n_rows, n_cols):
        row_reference, _ = output_reference
        cols = [data.draw(hnp.arrays(float, n_rows, elements=_values())) for _ in range(n_cols)]
        expected = [row_reference(col[i] for col in cols) for i in range(n_rows)]
        assert csv_lines(cols) == expected

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), lengths=st.lists(st.integers(1, 12), min_size=1, max_size=3))
    def test_svg_points(self, output_reference, data, lengths):
        _, points_reference = output_reference
        finite = _values(min_value=-1e300, max_value=1e300)
        series = [(f"s{i}", data.draw(hnp.arrays(float, n, elements=finite)),
                   data.draw(hnp.arrays(float, n, elements=finite)))
                  for i, n in enumerate(lengths)]
        try:
            expected = points_reference(series)
        except ZeroDivisionError:  # a range that 1.0 or the padding cannot widen
            with pytest.raises(ZeroDivisionError):
                line_plot_svg(series, "t")
            return
        assert re.findall(r'points="([^"]*)"', line_plot_svg(series, "t")) == expected


class TestDeterminism:
    def test_bundle_files_identical(self, tmp_path):
        preset = dr.make_preset("ex3e", data_points=2001)
        dr.run_experiment(preset, out_dir=tmp_path / "a")
        dr.run_experiment(preset, out_dir=tmp_path / "b")
        for name in ("drift.csv", "solution.csv", "trace.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


class TestSuite:
    def test_all_presets_complete(self, tmp_path):
        start = time.perf_counter()
        results = dr.run_suite(tmp_path, formats=("json",))
        assert time.perf_counter() - start < 300.0
        assert set(results) == set(dr.PRESET_NAMES)
        for name, bundle in results.items():
            assert bundle.status == "ok", f"{name} failed: {bundle.error}"
            assert (tmp_path / name / "trace.json").exists()

    def test_overrides_reach_every_preset(self, tmp_path):
        results = dr.run_suite(tmp_path, formats=("json",), data_points=1001)
        assert set(results) == set(dr.PRESET_NAMES)
        for name, bundle in results.items():
            assert bundle.preset.data_points == 1001
            doc = json.loads((tmp_path / name / "trace.json").read_text())
            assert doc["provenance"]["data_points"] == 1001

    def test_noise_override_mollifies_by_default(self):
        p = dr.make_preset("ex1a", noise_level=0.01)
        assert p.mollify
        assert not dr.make_preset("ex1a", noise_level=0.01, mollify=False).mollify
