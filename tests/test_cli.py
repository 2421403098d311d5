"""Command-line pipeline: subcommands, artifact chaining, and exit codes."""

import json

import numpy as np
import pytest

from uavrank.cli import EXIT_INPUT, EXIT_OK, _write_all, main
from uavrank.covermap import rank_grid_from_json
from uavrank.scene import Scene, Tower, serialize_scene


@pytest.fixture
def scene_file(tmp_path):
    s = Scene(extent_m=(300.0, 300.0), grid_spacing_m=100.0,
              altitudes_m=(30.0, 70.0), towers=(Tower(id=1, x=150.0, y=150.0),))
    p = tmp_path / "scene.json"
    p.write_text(serialize_scene(s))
    return p


class TestCoverage:
    def test_writes_grid_heatmap_and_cdf(self, scene_file, tmp_path):
        out = tmp_path / "cov"
        rc = main(["coverage", "--scene", str(scene_file), "--out", str(out),
                   "--altitudes", "30"])
        assert rc == EXIT_OK
        assert (out / "coverage_siso_tower1_h30.csv").is_file()
        assert (out / "coverage_siso_tower1_h30.pgm").read_bytes().startswith(b"P5")
        assert (out / "coverage_siso_tower1_h30_cdf.csv").is_file()

    def test_joint_flag(self, scene_file, tmp_path):
        out = tmp_path / "cov"
        rc = main(["coverage", "--scene", str(scene_file), "--out", str(out),
                   "--altitudes", "30", "--joint"])
        assert rc == EXIT_OK
        assert (out / "coverage_siso_joint_h30.csv").is_file()

    def test_mimo_mode(self, scene_file, tmp_path):
        out = tmp_path / "cov"
        rc = main(["coverage", "--scene", str(scene_file), "--out", str(out),
                   "--altitudes", "30", "--mode", "MIMO"])
        assert rc == EXIT_OK
        assert (out / "coverage_mimo_tower1_h30.csv").is_file()

    def test_missing_scene_is_input_error(self, tmp_path):
        rc = main(["coverage", "--scene", str(tmp_path / "nope.json"),
                   "--out", str(tmp_path / "o")])
        assert rc == EXIT_INPUT

    def test_malformed_scene_is_input_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        rc = main(["coverage", "--scene", str(bad), "--out", str(tmp_path / "o")])
        assert rc == EXIT_INPUT


class TestRank:
    def test_writes_grid_and_histograms(self, scene_file, tmp_path):
        out = tmp_path / "rank"
        rc = main(["rank", "--scene", str(scene_file), "--out", str(out),
                   "--altitudes", "30", "--thresholds", "10,100"])
        assert rc == EXIT_OK
        rg = rank_grid_from_json((out / "rank_grid.json").read_text())
        assert rg.thresholds == (10.0, 100.0)
        assert (out / "rank_h30_K10.csv").is_file()
        assert (out / "rank_h30_K100_hist.csv").is_file()


class TestSynthFitInterpolate:
    def test_full_chain(self, tmp_path):
        synth_out = tmp_path / "synth"
        assert main(["synth", "--out", str(synth_out), "--seed", "3",
                     "--nx", "10", "--ny", "10", "--spacing", "30",
                     "--altitudes", "30,70,110", "--thresholds", "10,100"]) == EXIT_OK

        fit_out = tmp_path / "fit"
        assert main(["fit", "--rank-grid", str(synth_out),
                     "--out", str(fit_out)]) == EXIT_OK
        model = json.loads((fit_out / "correlation_model.json").read_text())
        assert set(model) >= {"c1", "c2", "c3", "c4", "rmse"}
        bins = (fit_out / "correlation_bins.csv").read_text().splitlines()
        assert bins[0] == "distance_m,mean_correlation,pair_count"
        assert len(bins) > 4

        itp_out = tmp_path / "itp"
        assert main(["interpolate", "--rank-grid", str(synth_out),
                     "--model", str(fit_out / "correlation_model.json"),
                     "--out", str(itp_out)]) == EXIT_OK
        report = (itp_out / "mae_report.csv").read_text().splitlines()
        assert report[0] == "method,altitude_m,K,mae,cells"
        methods = {line.split(",")[0] for line in report[1:]}
        assert methods == {"kriging", "spline", "makima"}

    def test_synth_deterministic(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        for out in (a, b):
            assert main(["synth", "--out", str(out), "--seed", "9",
                         "--nx", "6", "--ny", "6", "--spacing", "30"]) == EXIT_OK
        assert (a / "rank_grid.json").read_bytes() == (b / "rank_grid.json").read_bytes()

    def test_fit_failure_leaves_no_partial_artifacts(self, tmp_path):
        # two locations give only two distance bins: not enough to fit
        grid = {
            "positions": [[0.0, 0.0], [30.0, 0.0]],
            "altitudes_m": [30.0, 70.0],
            "thresholds": [10.0],
            "ranks": [[[1, 2]], [[2, 1]]],
            "serving_tower": [0, 0],
        }
        gpath = tmp_path / "rank_grid.json"
        gpath.write_text(json.dumps(grid))
        out = tmp_path / "fit"
        rc = main(["fit", "--rank-grid", str(gpath), "--out", str(out)])
        assert rc == EXIT_INPUT
        assert list(out.iterdir()) == []

    def test_missing_model_is_input_error(self, tmp_path):
        synth_out = tmp_path / "synth"
        main(["synth", "--out", str(synth_out), "--nx", "5", "--ny", "5",
              "--spacing", "30"])
        rc = main(["interpolate", "--rank-grid", str(synth_out),
                   "--model", str(tmp_path / "none.json"),
                   "--out", str(tmp_path / "o")])
        assert rc == EXIT_INPUT


class TestCalibrate:
    def _write_traces(self, tmp_path, offset):
        rng = np.random.default_rng(1)
        t = np.arange(0.0, 10.0, 0.1)
        sim = rng.uniform(-90.0, -50.0, size=len(t))
        rows_s = ["t_s,x_m,y_m,z_m,rss_dbm"]
        rows_m = ["t_s,x_m,y_m,z_m,rss_dbm"]
        for ti, v in zip(t, sim):
            rows_s.append(f"{ti:.3f},0,0,30,{v:.6f}")
            rows_m.append(f"{ti:.3f},0,0,30,{v + offset:.6f}")
        (tmp_path / "sim.csv").write_text("\n".join(rows_s) + "\n")
        (tmp_path / "meas.csv").write_text("\n".join(rows_m) + "\n")

    def test_offset_recovered(self, tmp_path):
        self._write_traces(tmp_path, 7.7)
        out = tmp_path / "cal"
        rc = main(["calibrate", "--measured", str(tmp_path / "meas.csv"),
                   "--simulated", str(tmp_path / "sim.csv"), "--out", str(out)])
        assert rc == EXIT_OK
        line = (out / "calibration.csv").read_text().splitlines()[1]
        offset = float(line.split(",")[0])
        assert offset == pytest.approx(7.7, abs=1e-9)

    def test_missing_trace_is_input_error(self, tmp_path):
        rc = main(["calibrate", "--measured", str(tmp_path / "nope.csv"),
                   "--simulated", str(tmp_path / "nope2.csv"),
                   "--out", str(tmp_path / "o")])
        assert rc == EXIT_INPUT


class TestMalformedArtifacts:
    """Malformed inputs end in exit 2 with a one-line message."""

    GRID = {
        "positions": [[0.0, 0.0], [30.0, 0.0]],
        "altitudes_m": [30.0],
        "thresholds": [10.0],
        "ranks": [[[1, 2]]],
        "serving_tower": [1, 1],
    }

    def _assert_input_error(self, rc, capsys, text):
        err = capsys.readouterr().err.strip().splitlines()
        assert rc == EXIT_INPUT
        assert len(err) == 1 and err[0].startswith("error:") and text in err[0]

    @pytest.mark.parametrize("field, value, text", [
        ("ranks", [[[1, 2, 3]]], "ranks has shape"),
        ("positions", [[0.0, 0.0, 0.0], [30.0, 0.0, 0.0]], "positions has shape"),
        ("serving_tower", [1], "serving_tower has shape"),
        ("ranks", [[[1, -2]]], "ranks must be >= -1"),
        ("altitudes_m", [[30.0]], "malformed field"),
        ("ranks", [[[float("inf"), 2]]], "ranks must hold 64-bit integers"),
        ("ranks", [[[1.5, 2]]], "ranks must hold 64-bit integers"),
        ("ranks", [[[10**400, 2]]], "malformed field: int too large"),
        ("serving_tower", [1.7, 1], "serving_tower must hold 64-bit integers"),
        ("serving_tower", [2**63, 1], "serving_tower must hold 64-bit integers"),
        ("altitudes_m", [float("nan")], "altitudes_m must be finite and > 0, got (nan,)"),
        ("thresholds", [0.5], "thresholds must be finite and > 1, got (0.5,)"),
        ("positions", [[None, 0.0], [30.0, 0.0]], "positions must be finite"),
    ])
    def test_inconsistent_rank_grid(self, tmp_path, capsys, field, value, text):
        grid = dict(self.GRID, **{field: value})
        (tmp_path / "rank_grid.json").write_text(json.dumps(grid))
        rc = main(["fit", "--rank-grid", str(tmp_path), "--out", str(tmp_path / "fit")])
        self._assert_input_error(rc, capsys, text)

    @pytest.mark.parametrize("field, value, ranks", [
        ("altitudes_m", [30.0, 30.0], [[[1, 2]], [[1, 2]]]),
        ("thresholds", [10.0, 10.0], [[[1, 2], [1, 2]]]),
    ])
    def test_duplicate_layers(self, tmp_path, capsys, field, value, ranks):
        grid = dict(self.GRID, ranks=ranks, **{field: value})
        (tmp_path / "rank_grid.json").write_text(json.dumps(grid))
        rc = main(["fit", "--rank-grid", str(tmp_path), "--out", str(tmp_path / "fit")])
        self._assert_input_error(rc, capsys, f"{field} has duplicate values")

    def test_kriging_needs_two_altitudes(self, tmp_path, capsys):
        grid = tmp_path / "grid"
        assert main(["synth", "--out", str(grid), "--nx", "8", "--ny", "8",
                     "--altitudes", "30"]) == EXIT_OK
        assert main(["fit", "--rank-grid", str(grid), "--out", str(grid)]) == EXIT_OK
        argv = ["interpolate", "--rank-grid", str(grid),
                "--model", str(grid / "correlation_model.json"), "--out"]
        rc = main(argv + [str(tmp_path / "kriging"), "--method", "kriging"])
        self._assert_input_error(rc, capsys, "Kriging needs at least 2 altitudes, got 1")
        assert not (tmp_path / "kriging" / "mae_report.csv").exists()
        # the baselines need no variance over altitude
        assert main(argv + [str(tmp_path / "spline"), "--method", "spline"]) == EXIT_OK

    def test_model_missing_key(self, tmp_path, capsys):
        synth_out = tmp_path / "synth"
        main(["synth", "--out", str(synth_out), "--nx", "5", "--ny", "5", "--spacing", "30"])
        model = tmp_path / "model.json"
        model.write_text(json.dumps({"c1": 0.3, "c2": -0.05, "c3": 0.7, "rmse": 0.0}))
        rc = main(["interpolate", "--rank-grid", str(synth_out), "--model", str(model),
                   "--out", str(tmp_path / "o")])
        self._assert_input_error(rc, capsys, "missing key 'c4'")

    def test_scene_buildings_object(self, tmp_path, capsys):
        bad = tmp_path / "scene.json"
        bad.write_text(json.dumps({"buildings": {"x": 0}, "towers": []}))
        rc = main(["coverage", "--scene", str(bad), "--out", str(tmp_path / "o")])
        self._assert_input_error(rc, capsys, "buildings must be a JSON array")

    @pytest.mark.parametrize("doc, text", [
        ({"towers": [{"id": 1, "x": None, "y": 0}]},
         "towers[0] field 'x' must be a number, got None"),
        ({"extent_m": 5, "towers": []},
         "scene field 'extent_m' must be an array of 2 numbers, got 5"),
        ({"frequency_hz": 10**400, "towers": []},
         "scene field 'frequency_hz' must be a number, got 1000"),
        ({"towers": [{"id": float("inf"), "x": 0, "y": 0}]},
         "towers[0] field 'id' must be a number, got inf"),
        ({"trees": [{"x": float("nan"), "y": 0}], "towers": []},
         "trees[0] field 'x' must be a number, got nan"),
        ({"extent_m": [float("inf"), 100.0], "towers": []},
         "scene field 'extent_m' must be an array of 2 numbers, got [inf, 100.0]"),
        # extent / spacing overflows a float
        ({"extent_m": [1e308, 1e308], "grid_spacing_m": 1e-10,
          "towers": [{"id": 1, "x": 0, "y": 0}]},
         "extent 1e+308 x 1e+308 m at grid spacing 1e-10 m gives more than 10000000 "
         "grid cells"),
        ({"extent_m": [1e5, 1e5], "grid_spacing_m": 1.0, "towers": []},
         "extent 100000 x 100000 m at grid spacing 1 m gives more than"),
        ({"towers": [{"id": 1.5, "x": 0, "y": 0}]},
         "towers[0] field 'id' must be an integer, got 1.5"),
        ({"towers": [{"id": 1, "x": 0, "y": 0, "array": {"elements": 4.7}}]},
         "towers[0] field 'elements' must be an integer, got 4.7"),
    ])
    def test_scene_field_types(self, tmp_path, capsys, doc, text):
        bad = tmp_path / "scene.json"
        bad.write_text(json.dumps(doc))
        rc = main(["rank", "--scene", str(bad), "--out", str(tmp_path / "o")])
        self._assert_input_error(rc, capsys, text)

    @pytest.mark.parametrize("value, text", [
        ("a", "key 'c1' is not a number: 'a'"),
        (None, "key 'c1' is not a number: None"),
    ])
    def test_model_non_numeric_field(self, tmp_path, capsys, value, text):
        synth_out = tmp_path / "synth"
        main(["synth", "--out", str(synth_out), "--nx", "5", "--ny", "5", "--spacing", "30"])
        model = tmp_path / "model.json"
        model.write_text(json.dumps({"c1": value, "c2": -0.05, "c3": 0.7, "c4": -0.001,
                                     "rmse": 0.0}))
        rc = main(["interpolate", "--rank-grid", str(synth_out), "--model", str(model),
                   "--out", str(tmp_path / "o")])
        self._assert_input_error(rc, capsys, text)

    @pytest.mark.parametrize("empty", ["", "t_s,x_m,y_m,z_m,rss_dbm\n"])
    def test_trace_without_samples(self, tmp_path, capsys, empty):
        (tmp_path / "empty.csv").write_text(empty)
        (tmp_path / "sim.csv").write_text("t_s,x_m,y_m,z_m,rss_dbm\n0,0,0,30,-60\n")
        for measured, simulated in (("empty", "sim"), ("sim", "empty")):
            rc = main(["calibrate", "--measured", str(tmp_path / f"{measured}.csv"),
                       "--simulated", str(tmp_path / f"{simulated}.csv"),
                       "--out", str(tmp_path / "o")])
            self._assert_input_error(rc, capsys, "trace CSV has no samples")

    @pytest.mark.parametrize("row, text", [
        ("0.1,0,0,30,q", "line 3, column 'rss_dbm': 'q' is not a finite number"),
        ("x,0,0,30,-60", "line 3, column 't_s': 'x' is not a finite number"),
        ("nan,0,0,30,-60", "line 3, column 't_s': 'nan' is not a finite number"),
        ("0.1,0,0,30", "line 3 has 4 cells, expected 5"),
    ])
    def test_trace_bad_cells(self, tmp_path, capsys, row, text):
        rows = "t_s,x_m,y_m,z_m,rss_dbm\n0,0,0,30,-60\n"
        (tmp_path / "meas.csv").write_text(rows + row + "\n")
        (tmp_path / "sim.csv").write_text(rows + "0.1,0,0,30,-61\n")
        rc = main(["calibrate", "--measured", str(tmp_path / "meas.csv"),
                   "--simulated", str(tmp_path / "sim.csv"), "--out", str(tmp_path / "o")])
        self._assert_input_error(rc, capsys, text)

    @pytest.mark.parametrize("argv, text", [
        (["synth", "--altitudes", "30,30"], "--altitudes must be > 0 and strictly increasing"),
        (["synth", "--altitudes", "70,30"], "--altitudes must be > 0 and strictly increasing"),
        (["synth", "--altitudes", "0,30"], "--altitudes must be > 0 and strictly increasing"),
        (["synth", "--altitudes", "30,inf"], "--altitudes must be finite"),
        (["synth", "--thresholds", "0.5"], "--thresholds must be > 1 and distinct"),
        (["synth", "--thresholds", "10,10"], "--thresholds must be > 1 and distinct"),
        (["rank", "--thresholds", "nan"], "--thresholds must be finite"),
        (["rank", "--altitudes", "-30"], "--altitudes must be > 0 and strictly increasing"),
        (["coverage", "--altitudes", "30,x"], "could not convert"),
    ])
    def test_bad_altitudes_and_thresholds(self, scene_file, tmp_path, capsys, argv, text):
        out = tmp_path / "o"
        extra = ["--nx", "4", "--ny", "4"] if argv[0] == "synth" else ["--scene", str(scene_file)]
        rc = main(argv + extra + ["--out", str(out)])
        self._assert_input_error(rc, capsys, text)
        assert not out.exists() or list(out.iterdir()) == []


class TestWriteAll:
    """A stage writes all of its artifacts or none of them."""

    def test_failed_write_leaves_nothing(self, tmp_path):
        out = tmp_path / "o"
        out.mkdir()
        (out / "b.csv").write_text("old\n")
        # the second artifact cannot be encoded, so its write fails halfway
        with pytest.raises(UnicodeEncodeError):
            _write_all(out, {"a.csv": "x\n", "b.csv": "\ud800", "c.pgm": b"P5"})
        assert sorted(p.name for p in out.iterdir()) == ["b.csv"]
        assert (out / "b.csv").read_text() == "old\n"

    def test_directory_in_the_way_is_input_error(self, scene_file, tmp_path, capsys):
        out = tmp_path / "cov"
        (out / "coverage_siso_tower1_h30_cdf.csv").mkdir(parents=True)
        rc = main(["coverage", "--scene", str(scene_file), "--out", str(out),
                   "--altitudes", "30"])
        err = capsys.readouterr().err.strip().splitlines()
        assert rc == EXIT_INPUT
        assert len(err) == 1 and "is a directory" in err[0]
        assert [p.name for p in out.iterdir()] == ["coverage_siso_tower1_h30_cdf.csv"]

    def test_replaces_previous_artifacts(self, tmp_path):
        out = tmp_path / "o"
        out.mkdir()
        _write_all(out, {"a.csv": "old\n"})
        _write_all(out, {"a.csv": "new\n", "b.pgm": b"P5"})
        assert sorted(p.name for p in out.iterdir()) == ["a.csv", "b.pgm"]
        assert (out / "a.csv").read_text() == "new\n"
