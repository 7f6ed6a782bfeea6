import json

import pytest

import driftrec as dr
from driftrec.cli import main


class TestExitCodes:
    def test_unknown_preset(self, capsys):
        assert main(["experiment", "bogus"]) == 2
        assert "valid presets" in capsys.readouterr().err

    def test_bad_lambda(self, capsys):
        assert main(["invert", "ex1a", "--lambda", "huge"]) == 2

    def test_mollify_without_noise(self, capsys):
        assert main(["mollify", "ex1a"]) == 2
        assert "noise" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["invert", "ex1a", "--data-points", "1001", "--lambda", "1.0"],
        ["invert", "ex3e", "--data-points", "2001", "--lambda", "1e24", "--no-mollify"],
    ])
    def test_fixed_lambda_without_mollify(self, argv, capsys):
        assert main(argv) == 2
        assert "needs a run that mollifies its data" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["invert", "ex1a", "--data-points", "1001", "--seed", "11"],
        ["experiment", "ex1a", "--data-points", "1001", "--seed", "11"],
        ["invert", "ex3e", "--data-points", "2001", "--noise", "0", "--seed", "11"],
    ])
    def test_seed_without_noise(self, argv, tmp_path, capsys):
        # the seed would be dropped: trace.json would record "seed": null
        assert main([*argv, "--out", str(tmp_path)]) == 2
        assert "--seed 11 has no effect" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_bad_format(self, capsys):
        assert main(["experiment", "ex1a", "--formats", "csv,pdf"]) == 2

    def test_data_grid_coarser_than_solver_grid(self, capsys):
        assert main(["invert", "ex3e", "--data-points", "3"]) == 2
        assert "data_points" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [["--lambda", "inf"], ["--seed", "-1"], ["--noise", "-0.01"],
                                       ["--lambda", "1e31"]])
    def test_out_of_range_value(self, flags, capsys):
        assert main(["invert", "ex3e", *flags]) == 2
        assert "configuration error" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["forward", "ex1a", "--noise", "0.05"],
        ["forward", "ex1a", "--formats", "json"],
        ["mollify", "ex3e", "--no-mollify"],
        ["mollify", "ex3e", "--max-iter", "2"],
    ])
    def test_flag_the_subcommand_does_not_read(self, argv, capsys):
        assert main(argv) == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_numerical_failure_exit_code(self, tmp_path, capsys):
        code = main(["experiment", "ex3e", "--noise", "0.5", "--seed", "3", "--no-mollify",
                     "--out", str(tmp_path)])
        assert code == 3
        assert "FAILED" in capsys.readouterr().err


class TestCommands:
    def test_forward(self, tmp_path, capsys):
        code = main(["forward", "ex1a", "--grid-m", "20", "--grid-n", "20",
                     "--out", str(tmp_path)])
        assert code == 0
        lines = (tmp_path / "solution.csv").read_text().strip().splitlines()
        assert lines[0] == "x,u_final"
        assert len(lines) == 22

    def test_invert_prints_metrics(self, capsys):
        code = main(["invert", "ex1a", "--grid-m", "40", "--grid-n", "40",
                     "--data-points", "1001"])
        assert code == 0
        out = capsys.readouterr().out
        assert "rel_l2=" in out

    def test_mollify_writes_metadata(self, tmp_path, capsys):
        code = main(["mollify", "ex3e", "--noise", "0.01", "--seed", "7",
                     "--data-points", "2001", "--out", str(tmp_path)])
        assert code == 0
        doc = json.loads((tmp_path / "mollify.json").read_text())
        assert doc["noise_level"] == 0.01
        assert doc["error_after"] < doc["error_before"]

    def test_mollify_matches_pipeline(self, tmp_path, capsys):
        assert main(["mollify", "ex3e", "--data-points", "2001", "--out", str(tmp_path)]) == 0
        doc = json.loads((tmp_path / "mollify.json").read_text())
        record = dr.run_experiment(dr.make_preset("ex3e", data_points=2001)).mollification
        for key in ("lambda", "residual", "sigma_abs", "data_points"):
            assert doc[key] == record[key]

    def test_fixed_lambda_accepted(self, tmp_path):
        code = main(["experiment", "ex3e", "--lambda", "1e24", "--data-points", "2001",
                     "--out", str(tmp_path)])
        assert code == 0
        doc = json.loads((tmp_path / "trace.json").read_text())
        assert doc["mollification"]["mode"] == "fixed"
        assert doc["mollification"]["lambda"] == 1e24

    def test_experiment_writes_bundle(self, tmp_path, capsys):
        code = main(["experiment", "ex1b", "--data-points", "1001",
                     "--out", str(tmp_path), "--formats", "csv,json"])
        assert code == 0
        assert (tmp_path / "drift.csv").exists()
        assert (tmp_path / "trace.json").exists()
        assert not (tmp_path / "figure-ex1b.svg").exists()

    def test_suite(self, tmp_path, capsys):
        code = main(["suite", "--data-points", "1001", "--seed", "5", "--out", str(tmp_path),
                     "--formats", "json"])
        assert code == 0
        for name in ("ex1a", "ex1b", "ex2c", "ex2d", "ex3e", "ex3f"):
            assert (tmp_path / name / "trace.json").exists()
            provenance = json.loads((tmp_path / name / "trace.json").read_text())["provenance"]
            assert provenance["data_points"] == 1001
        assert json.loads((tmp_path / "ex3e" / "trace.json").read_text())["provenance"]["seed"] == 5
        # the exact presets run without noise and take no seed, as before
        assert json.loads((tmp_path / "ex1a" / "trace.json").read_text())["provenance"]["seed"] is None
