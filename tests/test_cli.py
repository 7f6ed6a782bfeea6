import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import driftrec as dr
from driftrec.cli import main
from driftrec.errors import NumericalError
from driftrec.experiments import true_final_state

_BUNDLE_FILES = ("drift.csv", "solution.csv", "trace.json", "figure.svg")


class TestExitCodes:
    def test_unknown_preset(self, capsys):
        assert main(["invert", "bogus"]) == 2
        assert "valid presets" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["experiment", "mollify"])
    def test_removed_subcommand(self, command, capsys):
        # `invert` runs the whole pipeline; `--out` writes what these commands wrote
        assert main([command, "ex3e"]) == 2
        assert "invalid choice" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["invert", "ex1a", "--data-points", "1001", "--seed", "11"],
        ["invert", "ex1a", "--data-points", "1001", "--noise", "0", "--seed", "11"],
        ["invert", "ex3e", "--data-points", "2001", "--noise", "0", "--seed", "11"],
    ])
    def test_seed_without_noise(self, argv, tmp_path, capsys):
        # the seed would be dropped: trace.json would record "seed": null
        assert main([*argv, "--out", str(tmp_path)]) == 2
        assert "--seed 11 has no effect" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_data_grid_coarser_than_solver_grid(self, capsys):
        assert main(["invert", "ex3e", "--data-points", "3"]) == 2
        assert "data_points" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [["--seed", "-1"], ["--noise", "-0.01"], ["--tol", "inf"],
                                       ["--tol", "1e400"]])
    def test_out_of_range_value(self, flags, capsys):
        assert main(["invert", "ex3e", *flags]) == 2
        assert "configuration error" in capsys.readouterr().err

    @pytest.mark.parametrize("extra", [[], ["--no-mollify"]], ids=["search", "no-mollify"])
    @pytest.mark.parametrize("level", ["1e153", "1e200", "1e308"])
    def test_noise_level_overflowing_the_data_error(self, level, extra, tmp_path, capsys):
        # rejected where the noise is drawn, before any file: not an Infinity in trace.json
        # and not an overflow warning in the smoothing step or the records
        assert main(["invert", "ex3e", "--noise", level, *extra,
                     "--out", str(tmp_path / "out")]) == 2
        assert f"noise level {float(level)!r}: the squared 2-norm" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("argv", [
        ["forward", "ex1a", "--noise", "0.05"],
        ["forward", "ex1a", "--formats", "json"],
        ["invert", "ex1a", "--formats", "json"],
        ["suite", "--formats", "json"],
        ["forward", "ex1a", "--seed", "7"],
        ["suite", "--noise", "0.01"],
        # the width search is the one smoother: there is no fixed Tikhonov weight to give
        ["invert", "ex3e", "--lambda", "1e24"],
        ["suite", "--lambda", "1e24"],
    ])
    def test_flag_the_subcommand_does_not_read(self, argv, capsys):
        assert main(argv) == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_numerical_failure_exit_code(self, tmp_path, capsys):
        code = main(["invert", "ex3e", "--noise", "0.5", "--seed", "3", "--no-mollify",
                     "--out", str(tmp_path)])
        assert code == 3
        assert "FAILED" in capsys.readouterr().err

    def test_out_is_a_regular_file(self, tmp_path, capsys):
        # --out names a directory: a regular file there is an i/o error, not a traceback
        out = tmp_path / "taken"
        out.write_text("")
        assert main(["forward", "ex1a", "--grid-m", "20", "--grid-n", "20", "--out", str(out)]) == 2
        assert "i/o error" in capsys.readouterr().err

    def test_suite_rejected_seed_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["suite", "--seed", "-1", "--out", str(out)]) == 2
        assert "configuration error" in capsys.readouterr().err
        assert not out.exists()

    def test_raised_numerical_error(self, monkeypatch, capsys):
        def singular(*args, **kwargs):
            raise NumericalError("x")

        monkeypatch.setattr("driftrec.experiments.solve_forward", singular)
        assert main(["forward", "ex1a", "--grid-m", "20", "--grid-n", "20"]) == 3
        assert "numerical failure: x" in capsys.readouterr().err


class TestCommands:
    def test_forward(self, tmp_path, capsys):
        code = main(["forward", "ex1a", "--grid-m", "20", "--grid-n", "20",
                     "--out", str(tmp_path)])
        assert code == 0
        lines = (tmp_path / "solution.csv").read_text().strip().splitlines()
        assert lines[0] == "x,u_final"
        assert len(lines) == 22

    def test_forward_reads_no_data_grid(self, tmp_path, capsys):
        # finer than the preset's 10001 data points: a rule for runs, not for a forward solve
        code = main(["forward", "ex1a", "--grid-m", "10001", "--grid-n", "1",
                     "--out", str(tmp_path)])
        assert code == 0
        lines = (tmp_path / "solution.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + 10002

    def test_forward_is_the_true_final_state(self, tmp_path, capsys):
        assert main(["forward", "ex1a", "--out", str(tmp_path)]) == 0
        table = np.loadtxt(tmp_path / "solution.csv", delimiter=",", skiprows=1)
        nodes, u_T = true_final_state(dr.make_preset("ex1a"), 100, 100)
        assert np.array_equal(table[:, 0], nodes)
        assert np.array_equal(table[:, 1], u_T)

    def test_invert_prints_metrics(self, capsys):
        code = main(["invert", "ex1a", "--grid-m", "40", "--grid-n", "40",
                     "--data-points", "1001"])
        assert code == 0
        out = capsys.readouterr().out
        assert "rel_l2=" in out

    def test_mollify_writes_metadata(self, tmp_path, capsys):
        code = main(["invert", "ex3e", "--data-points", "2001", "--seed", "7",
                     "--out", str(tmp_path)])
        assert code == 0
        record = json.loads((tmp_path / "trace.json").read_text())["mollification"]
        bundle = dr.run_experiment(dr.make_preset("ex3e", data_points=2001, seed=7))
        assert record == json.loads(json.dumps(bundle.mollification))
        assert record["error_before"] == float(np.linalg.norm(bundle.g_noisy - bundle.g_exact))
        assert record["error_after"] == float(np.linalg.norm(bundle.g_mollified - bundle.g_exact))
        assert record["error_after"] < record["error_before"]

    def test_mollify_matches_pipeline(self, tmp_path, capsys):
        # no --seed: the preset's own seed, and trace.json records the search the library runs
        code = main(["invert", "ex3e", "--data-points", "2001", "--out", str(tmp_path)])
        assert code == 0
        record = json.loads((tmp_path / "trace.json").read_text())["mollification"]
        bundle = dr.run_experiment(dr.make_preset("ex3e", data_points=2001))
        assert record == json.loads(json.dumps(bundle.mollification))
        assert record["error_before"] == float(np.linalg.norm(bundle.g_noisy - bundle.g_exact))
        assert record["error_after"] == float(np.linalg.norm(bundle.g_mollified - bundle.g_exact))
        assert record["error_after"] < record["error_before"]

    def test_invert_writes_the_four_files(self, tmp_path, capsys):
        code = main(["invert", "ex1b", "--data-points", "1001", "--out", str(tmp_path)])
        assert code == 0
        for name in _BUNDLE_FILES:
            assert (tmp_path / name).exists()

    def test_suite(self, tmp_path, capsys):
        code = main(["suite", "--data-points", "1001", "--seed", "5", "--out", str(tmp_path)])
        assert code == 0
        for name in ("ex1a", "ex1b", "ex2c", "ex2d", "ex3e", "ex3f"):
            for file in _BUNDLE_FILES:
                assert (tmp_path / name / file).exists()
            provenance = json.loads((tmp_path / name / "trace.json").read_text())["provenance"]
            assert provenance["data_points"] == 1001
        assert json.loads((tmp_path / "ex3e" / "trace.json").read_text())["provenance"]["seed"] == 5
        # the exact presets run without noise and take no seed, as before
        assert json.loads((tmp_path / "ex1a" / "trace.json").read_text())["provenance"]["seed"] is None


class TestModuleEntryPoint:
    """`python -m driftrec` runs `driftrec.__main__`, which exits with main's code."""

    def _run(self, argv, cwd):
        src = str(Path(dr.__file__).resolve().parents[1])
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
               "PYTHONWARNINGS": "error::UserWarning,error::RuntimeWarning"}
        return subprocess.run([sys.executable, "-m", "driftrec", *argv], cwd=cwd, env=env,
                              capture_output=True, text=True, timeout=120)

    def test_forward_exits_0(self, tmp_path):
        run = self._run(["forward", "ex1a", "--grid-m", "20", "--grid-n", "20"], tmp_path)
        assert run.returncode == 0, run.stderr
        assert run.stdout.startswith("forward ex1a: grid 20x20")

    def test_configuration_error_exits_2(self, tmp_path):
        run = self._run(["invert", "ex1a", "--data-points", "1001", "--seed", "11"], tmp_path)
        assert run.returncode == 2
        assert "--seed 11 has no effect" in run.stderr

    def test_search_reaching_no_lambda_exits_3(self, tmp_path):
        # no width up to the cap reaches the target: exit 3 under warnings as errors
        # too, since the search warns nothing, and no output directory
        run = self._run(["invert", "ex3e", "--data-points", "2001", "--noise", "0.1",
                         "--seed", "7", "--out", "out"], tmp_path)
        assert run.returncode == 3, run.stderr
        assert "numerical failure: no width up to the cap" in run.stderr
        assert not any(tmp_path.iterdir())
