"""Command-line pipeline: subcommands, artifact chaining, and exit codes."""

import argparse
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import uavrank
from uavrank import cli, evaluate
from uavrank.cli import EXIT_INPUT, EXIT_OK, _write_all, build_parser, main
from uavrank.correlation import CorrelationModel
from uavrank.covermap import Z_RANK, RankGrid, rank_grid_from_json, rank_grid_to_json
from uavrank.evaluate import METHODS, loo_evaluate
from uavrank.kriging import KrigingConfig
from uavrank.scene import BUILTIN_MATERIALS, Building, Scene, Tower, Tree, serialize_scene


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


class TestParserReuse:
    def test_calls_in_one_process_behave_like_fresh_calls(self, tmp_path, monkeypatch):
        """main() builds its parser once per process; a rank stage, a
        rejected argv and a fit stage give the exit codes and artifacts they
        give with a fresh parser each."""
        s = Scene(extent_m=(300.0, 300.0), grid_spacing_m=30.0, altitudes_m=(30.0, 70.0),
                  buildings=(Building(60.0, 90.0, 40.0, 30.0, 40.0,
                                      BUILTIN_MATERIALS["concrete"]),),
                  trees=(Tree(x=200.0, y=200.0),), towers=(Tower(id=1, x=150.0, y=150.0),))
        scene = tmp_path / "scene.json"
        scene.write_text(serialize_scene(s))

        def chain(root, fresh):
            codes = []
            for argv in (["rank", "--scene", str(scene), "--out", str(root / "rank")],
                         ["fit", "--rank-grid", str(root / "rank"), "--max-dist", "far"],
                         ["fit", "--rank-grid", str(root / "rank"), "--out", str(root / "fit")]):
                if fresh:
                    monkeypatch.setattr(cli, "_parser", None)
                try:
                    codes.append(main(argv))
                except SystemExit as e:
                    codes.append(e.code)
            return codes

        assert chain(tmp_path / "fresh", fresh=True) == [EXIT_OK, 2, EXIT_OK]
        parser = cli._parser
        assert chain(tmp_path / "reused", fresh=False) == [EXIT_OK, 2, EXIT_OK]
        assert cli._parser is parser
        fresh = sorted(p.relative_to(tmp_path / "fresh") for p in (tmp_path / "fresh").rglob("*"))
        assert fresh == sorted(p.relative_to(tmp_path / "reused")
                               for p in (tmp_path / "reused").rglob("*"))
        assert Path("fit", "correlation_model.json") in fresh
        for name in fresh:
            if (tmp_path / "fresh" / name).is_file():
                assert ((tmp_path / "fresh" / name).read_bytes()
                        == (tmp_path / "reused" / name).read_bytes())


def _run_fresh(script: str, cwd) -> None:
    """Run `script` in a fresh interpreter that imports uavrank from the
    same source tree as this test run; fail with its stderr."""
    src = str(Path(uavrank.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    run = subprocess.run([sys.executable, "-c", script], env=env, cwd=cwd,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr


class TestImports:
    def test_coverage_and_rank_load_no_scipy(self, scene_file, tmp_path):
        """In a fresh interpreter, importing the CLI and running the coverage,
        rank, synth and fit stages loads no scipy module."""
        script = f"""
import sys
import uavrank.cli as cli

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

out = {str(tmp_path)!r}
assert cli.main(["coverage", "--scene", {str(scene_file)!r}, "--out", out + "/cov",
                 "--altitudes", "30", "--joint"]) == 0
assert cli.main(["coverage", "--scene", {str(scene_file)!r}, "--out", out + "/cov",
                 "--altitudes", "30", "--mode", "MIMO"]) == 0
assert cli.main(["rank", "--scene", {str(scene_file)!r}, "--out", out + "/rank"]) == 0
assert cli.main(["synth", "--out", out + "/synth", "--nx", "8", "--ny", "8"]) == 0
assert scipy_modules() == [], scipy_modules()
assert cli.main(["fit", "--rank-grid", out + "/synth", "--out", out + "/fit"]) == 0
assert scipy_modules() == [], scipy_modules()
"""
        _run_fresh(script, tmp_path)

    def test_interpolate_loads_no_scipy_interpolate(self, tmp_path):
        """In a fresh interpreter, the synth, fit and interpolate stages run
        every method without loading scipy.interpolate: the baselines are
        numpy only. On the synth grid, a lattice, interpolate loads no scipy
        module at all; on the same grid with one x moved by 1e-9 m, off the
        lattice, it loads scipy.spatial for its k-d tree."""
        script = f"""
import json, os, sys
import uavrank.cli as cli

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

out = {str(tmp_path)!r}
assert cli.main(["synth", "--out", out + "/synth", "--nx", "8", "--ny", "8"]) == 0
assert cli.main(["fit", "--rank-grid", out + "/synth", "--out", out + "/fit"]) == 0
assert cli.main(["interpolate", "--rank-grid", out + "/synth", "--model",
                 out + "/fit/correlation_model.json", "--out", out + "/itp",
                 "--method", "all"]) == 0
assert scipy_modules() == [], scipy_modules()
doc = json.load(open(out + "/synth/rank_grid.json"))
doc["positions"][0][0] += 1e-9
os.makedirs(out + "/off")
json.dump(doc, open(out + "/off/rank_grid.json", "w"))
assert cli.main(["interpolate", "--rank-grid", out + "/off", "--model",
                 out + "/fit/correlation_model.json", "--out", out + "/off-itp",
                 "--method", "all"]) == 0
assert "scipy.spatial" in sys.modules
assert "scipy.interpolate" not in sys.modules
"""
        _run_fresh(script, tmp_path)
        for name in ("itp", "off-itp"):
            report = (tmp_path / name / "mae_report.csv").read_text().splitlines()
            assert {line.split(",")[0] for line in report[1:]} == {"kriging", "spline", "makima"}


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

    def test_fit_is_silent_at_the_default_log_level(self, tmp_path):
        # the fit logs its stop code, evaluations and RMSE at DEBUG: a fresh
        # `fit` prints nothing and writes only its two artifacts
        src = str(Path(uavrank.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        for argv in (["synth", "--out", "synth", "--nx", "10", "--ny", "10"],
                     ["fit", "--rank-grid", "synth", "--out", "fit"]):
            run = subprocess.run([sys.executable, "-m", "uavrank.cli", *argv], env=env,
                                 cwd=tmp_path, capture_output=True, text=True, timeout=120)
            assert (run.returncode, run.stdout, run.stderr) == (0, "", "")
        assert sorted(p.name for p in (tmp_path / "fit").iterdir()) == [
            "correlation_bins.csv", "correlation_model.json"]

    def test_interpolate_builds_one_neighbor_table_per_mask(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(4)
        ranks = rng.integers(1, 5, size=(3, 2, 64))
        ranks[:2, 0, 5] = Z_RANK  # two layers share a second coverage mask
        ranks[2, 1, [9, 40]] = Z_RANK  # and one has a third
        rg = RankGrid(np.array([[30.0 * x, 30.0 * y] for y in range(8) for x in range(8)]),
                      (30.0, 70.0, 110.0), (10.0, 100.0), ranks, np.zeros(64, dtype=int))
        (tmp_path / "rank_grid.json").write_text(rank_grid_to_json(rg))
        model = CorrelationModel(0.2932, -0.0508, 0.7057, -0.001, rmse=0.0)
        (tmp_path / "model.json").write_text(model.to_json())
        built = []
        real = evaluate.neighbor_table

        def counting(sample_xy, valid, cfg):
            built.append(valid.tobytes())
            return real(sample_xy, valid, cfg)

        monkeypatch.setattr(evaluate, "neighbor_table", counting)
        argv = ["interpolate", "--rank-grid", str(tmp_path), "--model",
                str(tmp_path / "model.json"), "--out", str(tmp_path / "o")]
        for _ in range(2):
            # each call builds its own tables: nothing carries over
            built.clear()
            assert main(argv) == EXIT_OK
            assert len(built) == len(set(built)) == 3
        # the report of one call per method, each with tables of its own
        cfg = KrigingConfig(M=20, r0_m=150.0)
        want = ["method,altitude_m,K,mae,cells"]
        for method in METHODS:
            want += loo_evaluate(rg, method, cfg, model).to_csv().splitlines()[1:]
        assert (tmp_path / "o" / "mae_report.csv").read_text() == "\n".join(want) + "\n"

    def test_fit_with_overflowing_trial_steps(self, tmp_path):
        # trial steps of this fit overflow exp: the fit ignores that and
        # writes the model it always wrote, also with warnings as errors
        synth_out, fit_out = tmp_path / "synth", tmp_path / "fit"
        assert main(["synth", "--out", str(synth_out), "--seed", "0", "--nx", "10",
                     "--ny", "10", "--altitudes", "30,70", "--thresholds", "10"]) == EXIT_OK
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["fit", "--rank-grid", str(synth_out),
                         "--out", str(fit_out)]) == EXIT_OK
        assert (fit_out / "correlation_model.json").read_text() == """{
  "c1": 0.7306685813531782,
  "c2": -0.5512133939437015,
  "c3": 0.2693314118443896,
  "c4": -0.018428887396161935,
  "max_distance_m": 500.0,
  "rmse": 0.5099181925104749
}"""

    def test_interpolate_overflowing_model(self, tmp_path):
        # both terms of this model grow: exp overflows beyond 0.9 m and inf -
        # inf is NaN, so every Kriging system fails and falls back to the
        # nearest neighbor, with warnings as errors too; the report is the
        # one the CLI wrote when it let the warnings through
        synth_out, model = tmp_path / "synth", tmp_path / "model.json"
        assert main(["synth", "--out", str(synth_out), "--seed", "0", "--nx", "10",
                     "--ny", "10", "--altitudes", "30,70", "--thresholds", "10"]) == EXIT_OK
        model.write_text('{"c1": 1, "c2": 800, "c3": -1, "c4": 800, "rmse": 0}')
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["interpolate", "--rank-grid", str(synth_out), "--model", str(model),
                         "--out", str(tmp_path / "itp")]) == EXIT_OK
        assert (tmp_path / "itp" / "mae_report.csv").read_text() == """\
method,altitude_m,K,mae,cells
kriging,30,10,0.600000000,100
kriging,70,10,0.710000000,100
spline,30,10,0.706883009,100
spline,70,10,0.815389937,100
makima,30,10,0.586460425,100
makima,70,10,0.612045391,100
"""

    def test_interpolate_huge_m(self, tmp_path):
        # no row holds more than n - 1 neighbors, so M past that changes nothing
        synth_out = tmp_path / "synth"
        assert main(["synth", "--out", str(synth_out), "--seed", "0", "--nx", "10",
                     "--ny", "10", "--altitudes", "30,70", "--thresholds", "10"]) == EXIT_OK
        model = tmp_path / "model.json"
        model.write_text(CorrelationModel(0.2932, -0.0508, 0.7057, -0.001, rmse=0.0).to_json())
        reports = []
        for m in ("1000000000", "99"):
            out = tmp_path / f"itp{m}"
            assert main(["interpolate", "--rank-grid", str(synth_out), "--model", str(model),
                         "--out", str(out), "--m", m]) == EXIT_OK
            reports.append((out / "mae_report.csv").read_bytes())
        assert reports[0] == reports[1]

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
        assert not out.exists()

    def test_interpolate_lone_in_coverage_cell(self, small_grid, tmp_path):
        # the one cell has no neighbor: every layer reports NaN over 0 cells
        grid = tmp_path / "lone"
        assert main(["synth", "--out", str(grid), "--nx", "1", "--ny", "1",
                     "--altitudes", "30,70", "--thresholds", "10"]) == EXIT_OK
        out = tmp_path / "itp"
        assert main(["interpolate", "--rank-grid", str(grid), "--model",
                     str(small_grid / "correlation_model.json"), "--out", str(out)]) == EXIT_OK
        rows = (out / "mae_report.csv").read_text().splitlines()
        assert rows[1:] == [f"{m},{h},10,nan,0" for m in METHODS for h in (30, 70)]


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


def _float_options():
    """(command, option) of every float option the parser declares."""
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return [(name, action.option_strings[0]) for name, parser in sub.choices.items()
            for action in parser._actions if action.type is float]


_FLOAT_OPTIONS = _float_options()


@pytest.fixture(scope="module")
def small_grid(tmp_path_factory):
    """A 4 x 4 synthetic rank grid with its fitted model."""
    grid = tmp_path_factory.mktemp("small_grid")
    assert main(["synth", "--out", str(grid), "--nx", "4", "--ny", "4"]) == EXIT_OK
    assert main(["fit", "--rank-grid", str(grid), "--out", str(grid)]) == EXIT_OK
    return grid


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
        ("altitudes_m", [[30.0]],
         "altitudes_m must hold numbers in a 1-d array, got shape (1, 1)"),
        ("ranks", [[[float("inf"), 2]]], "ranks must hold numbers in a 3-d array, got inf"),
        ("ranks", [[[1.5, 2]]], "ranks must hold 64-bit integers"),
        ("ranks", [[[10**400, 2]]], "ranks must hold numbers in a 3-d array, got 1000"),
        ("serving_tower", [1.7, 1], "serving_tower must hold 64-bit integers"),
        ("serving_tower", [2**63, 1], "serving_tower must hold 64-bit integers"),
        ("altitudes_m", [float("nan")], "altitudes_m must hold numbers in a 1-d array, got nan"),
        ("thresholds", [0.5], "thresholds must be > 1 and distinct, got (0.5,)"),
        ("positions", [[None, 0.0], [30.0, 0.0]],
         "positions must hold numbers in a 2-d array, got None"),
        # JSON booleans and strings are not numbers
        ("altitudes_m", [True, 70.0], "altitudes_m must hold numbers in a 1-d array, got True"),
        ("thresholds", ["10"], "thresholds must hold numbers in a 1-d array, got '10'"),
        ("ranks", [[[1, True]], [["2", 1]]], "ranks must hold numbers in a 3-d array, got True"),
        ("ranks", [[["2", 1]]], "ranks must hold numbers in a 3-d array, got '2'"),
        ("positions", [[0.0, False], [30.0, 0.0]],
         "positions must hold numbers in a 2-d array, got False"),
        ("serving_tower", [1, "1"], "serving_tower must hold numbers in a 1-d array, got '1'"),
    ])
    def test_inconsistent_rank_grid(self, tmp_path, capsys, field, value, text):
        grid = dict(self.GRID, **{field: value})
        (tmp_path / "rank_grid.json").write_text(json.dumps(grid))
        rc = main(["fit", "--rank-grid", str(tmp_path), "--out", str(tmp_path / "fit")])
        # a value the reader refuses is named as the scene reader names it
        # ("rank grid field 'ranks' must hold ..."); RankGrid's invariants
        # name the field bare ("rank grid ranks has shape ...")
        if " must hold " in text:
            text = f"field {field!r}{text[len(field):]}"
        self._assert_input_error(rc, capsys, f"rank grid {text}")

    @pytest.mark.parametrize("field, value, ranks", [
        ("altitudes_m", [30.0, 30.0], [[[1, 2]], [[1, 2]]]),
        ("thresholds", [10.0, 10.0], [[[1, 2], [1, 2]]]),
        # altitudes out of order, which no stage writes
        ("altitudes_m", [70.0, 30.0], [[[1, 2]], [[1, 2]]]),
    ])
    def test_duplicate_layers(self, tmp_path, capsys, field, value, ranks):
        grid = dict(self.GRID, ranks=ranks, **{field: value})
        (tmp_path / "rank_grid.json").write_text(json.dumps(grid))
        rc = main(["fit", "--rank-grid", str(tmp_path), "--out", str(tmp_path / "fit")])
        rule = {"altitudes_m": "> 0 and strictly increasing",
                "thresholds": "> 1 and distinct"}[field]
        self._assert_input_error(rc, capsys, f"{field} must be {rule}, got {tuple(value)}")

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
        self._assert_input_error(rc, capsys, "correlation model missing field 'c4'")

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
         "scene field 'extent_m' must hold numbers in a 1-d array, got inf"),
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
        # more elements than a sweep can hold
        ({"extent_m": [60, 60], "altitudes_m": [30],
          "towers": [{"id": 1, "x": 0, "y": 0, "array": {"elements": 1e12}}]},
         "array elements must be in [1, 1024], got 1000000000000"),
        ({"towers": [{"id": 1, "x": 0, "y": 0, "array": {"elements": 1025}}]},
         "array elements must be in [1, 1024], got 1025"),
        # JSON booleans are not numbers
        ({"towers": [{"id": True, "x": 0, "y": 0, "array": {"elements": True}}]},
         "towers[0] field 'id' must be a number, got True"),
        ({"towers": [{"id": 1, "x": 0, "y": 0, "array": {"elements": True}}]},
         "towers[0] field 'elements' must be a number, got True"),
        ({"towers": [{"id": 1, "x": False, "y": 0}]},
         "towers[0] field 'x' must be a number, got False"),
        ({"extent_m": [True, 100.0], "towers": []},
         "scene field 'extent_m' must hold numbers in a 1-d array, got True"),
        # a material's name is a JSON string, not anything str() can print
        ({"materials": [{"name": None, "a": 2, "b": 0, "c": 0.1, "d": 1}],
          "ground_material": "None", "towers": [{"id": 1, "x": 0, "y": 0}]},
         "materials[0] field 'name' must be a string, got None"),
        # null is no field's value, a nested object's included
        ({"towers": [{"id": 1, "x": 0, "y": 0, "array": None}]},
         "towers[0] field 'array' must be a JSON object"),
    ])
    def test_scene_field_types(self, tmp_path, capsys, doc, text):
        bad = tmp_path / "scene.json"
        bad.write_text(json.dumps(doc))
        rc = main(["rank", "--scene", str(bad), "--out", str(tmp_path / "o")])
        self._assert_input_error(rc, capsys, text)

    @pytest.mark.parametrize("value, text", [
        ("a", "model key 'c1' must be a number, got 'a'"),
        (None, "model key 'c1' must be a number, got None"),
        (True, "model key 'c1' must be a number, got True"),
        ("-0.05", "model key 'c1' must be a number, got '-0.05'"),
        pytest.param(10**400, "model key 'c1' must be a number, got 1000", id="int-past-a-float"),
        # json.dumps writes these as the NaN, Infinity and -Infinity tokens
        (float("nan"), "model key 'c1' must be a number, got nan"),
        (float("inf"), "model key 'c1' must be a number, got inf"),
        (float("-inf"), "model key 'c1' must be a number, got -inf"),
    ])
    def test_model_non_numeric_field(self, tmp_path, capsys, value, text):
        synth_out = tmp_path / "synth"
        main(["synth", "--out", str(synth_out), "--nx", "5", "--ny", "5", "--spacing", "30"])
        model = tmp_path / "model.json"
        model.write_text(json.dumps({"c1": value, "c2": -0.05, "c3": 0.7, "c4": -0.001,
                                     "rmse": 0.0}))
        rc = main(["interpolate", "--rank-grid", str(synth_out), "--model", str(model),
                   "--out", str(tmp_path / "o")])
        # `text` names the document's key; the reader reports it as a field,
        # in the scene reader's words
        self._assert_input_error(rc, capsys, "correlation " + text.replace("key", "field", 1))

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

    @pytest.mark.parametrize("header, text", [
        ("t_s,x_m,y_m,z_m,x_m,rss_dbm", "trace CSV header repeats column 'x_m'"),
        ("t_s,x_m,y_m,z_m,t_s", "trace CSV header repeats column 't_s'"),
    ])
    def test_trace_repeated_column(self, tmp_path, capsys, header, text):
        # a repeated name would read its last column for both
        cells = ",".join(["1"] * len(header.split(",")))
        (tmp_path / "meas.csv").write_text(f"{header}\n{cells}\n")
        (tmp_path / "sim.csv").write_text("t_s,x_m,y_m,z_m,rss_dbm\n1,0,0,30,-61\n")
        rc = main(["calibrate", "--measured", str(tmp_path / "meas.csv"),
                   "--simulated", str(tmp_path / "sim.csv"), "--out", str(tmp_path / "o")])
        self._assert_input_error(rc, capsys, text)

    def test_trace_kinds_differ(self, tmp_path, capsys):
        (tmp_path / "meas.csv").write_text("t_s,x_m,y_m,z_m,rss_dbm\n0,0,0,30,-60\n")
        (tmp_path / "sim.csv").write_text("t_s,x_m,y_m,z_m,rank\n0,0,0,30,2\n")
        out = tmp_path / "o"
        rc = main(["calibrate", "--measured", str(tmp_path / "meas.csv"),
                   "--simulated", str(tmp_path / "sim.csv"), "--out", str(out)])
        self._assert_input_error(rc, capsys, "cannot calibrate a 'rss_dbm' trace against "
                                 "a 'rank' trace")
        assert not out.exists()

    @pytest.mark.parametrize("altitudes, text", [
        ([-10, 30], "scene altitudes_m must be > 0 and strictly increasing, got (-10, 30)"),
        ([], "scene altitudes_m must be finite and non-empty, got ()"),
    ])
    def test_scene_altitudes_a_rank_grid_cannot_hold(self, tmp_path, capsys, altitudes, text):
        # `fit` would reject the rank_grid.json that `rank` wrote from them
        bad = tmp_path / "scene.json"
        bad.write_text(json.dumps({"extent_m": [60, 60], "altitudes_m": altitudes,
                                   "towers": [{"id": 1, "x": 0, "y": 0}]}))
        out = tmp_path / "o"
        rc = main(["rank", "--scene", str(bad), "--out", str(out)])
        self._assert_input_error(rc, capsys, text)
        assert not out.exists()

    def test_synth_grid_over_the_cell_limit(self, tmp_path, capsys):
        # fit would build dense 191 GiB matrices on a 400 x 400 field
        rc = main(["synth", "--nx", "400", "--ny", "400", "--thresholds", "100",
                   "--out", str(tmp_path / "o")])
        self._assert_input_error(rc, capsys, "synthetic field of 160000 cells exceeds "
                                 "the 8192-cell limit")
        assert not (tmp_path / "o").exists()

    def test_synth_over_the_cell_limit_builds_no_positions(self, tmp_path, capsys,
                                                           monkeypatch):
        # the cap is checked on nx * ny: a refused grid allocates nothing
        def spy(*args):
            raise AssertionError(f"positions built for {args}")

        monkeypatch.setattr(cli, "synthetic_grid_positions", spy)
        rc = main(["synth", "--nx", "2000", "--ny", "2000", "--out", str(tmp_path / "o")])
        self._assert_input_error(rc, capsys, "synthetic field of 4000000 cells exceeds "
                                 "the 8192-cell limit")
        # a side below 1 has no cells: the scene refuses the extent
        monkeypatch.undo()
        rc = main(["synth", "--nx", "-100", "--ny", "-100", "--out", str(tmp_path / "o")])
        self._assert_input_error(rc, capsys, "extent must be positive")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("stage", ["fit", "kriging", "rank", "coverage", "synth",
                                       "calibrate"])
    def test_failed_stage_creates_no_out(self, small_grid, tmp_path, capsys, stage):
        # each stage fails only once its inputs are read and its work begun
        one_layer = tmp_path / "one_layer"
        assert main(["synth", "--out", str(one_layer), "--nx", "4", "--ny", "4",
                     "--altitudes", "30", "--thresholds", "10"]) == EXIT_OK
        # a tower on the grid point (0, 0) at the receiver altitude
        scene = tmp_path / "scene.json"
        scene.write_text(json.dumps({"extent_m": [60, 60], "altitudes_m": [30],
                                     "towers": [{"id": 1, "x": 0, "y": 0, "height": 30}]}))
        (tmp_path / "meas.csv").write_text("t_s,x_m,y_m,z_m,rss_dbm\n0,0,0,30,-60\n")
        (tmp_path / "sim.csv").write_text("t_s,x_m,y_m,z_m,rank\n0,0,0,30,2\n")
        argv, text = {
            "fit": (["fit", "--rank-grid", str(one_layer)], "too few distance bins"),
            "kriging": (["interpolate", "--rank-grid", str(one_layer), "--model",
                         str(small_grid / "correlation_model.json"), "--method", "kriging"],
                        "Kriging needs at least 2 altitudes, got 1"),
            "rank": (["rank", "--scene", str(scene)], "tx and rx must be distinct points"),
            "coverage": (["coverage", "--scene", str(scene), "--altitudes", "30"],
                         "tx and rx must be distinct points"),
            "synth": (["synth", "--nx", "100", "--ny", "100"],
                      "synthetic field of 10000 cells exceeds the 8192-cell limit"),
            "calibrate": (["calibrate", "--measured", str(tmp_path / "meas.csv"),
                           "--simulated", str(tmp_path / "sim.csv")],
                          "cannot calibrate a 'rss_dbm' trace against a 'rank' trace"),
        }[stage]
        out = tmp_path / "o"
        rc = main(argv + ["--out", str(out)])
        self._assert_input_error(rc, capsys, text)
        assert not out.exists()

    @pytest.mark.parametrize("stage", ["fit", "kriging", "calibrate t_s", "calibrate values"])
    def test_numbers_past_the_bound(self, small_grid, tmp_path, capsys, stage):
        # a rank grid moved 1e160-fold and traces at +-1e308 s or 1e200 dBm:
        # their squares would overflow in the fit's and Kriging's distances
        # and in the calibration
        grid = json.loads((small_grid / "rank_grid.json").read_text())
        grid["positions"] = [[x * 1e160, y * 1e160] for x, y in grid["positions"]]
        (tmp_path / "rank_grid.json").write_text(json.dumps(grid))
        (tmp_path / "t.csv").write_text("t_s,x_m,y_m,z_m,rss_dbm\n-1e308,0,0,30,-60\n"
                                        "1e308,0,0,30,-61\n")
        (tmp_path / "v.csv").write_text("t_s,x_m,y_m,z_m,rss_dbm\n0,0,0,30,1e200\n")
        (tmp_path / "sim.csv").write_text("t_s,x_m,y_m,z_m,rss_dbm\n0,0,0,30,-60\n")
        argv, text = {
            "fit": (["fit", "--rank-grid", str(tmp_path)], "rank grid positions must be at most"),
            "kriging": (["interpolate", "--rank-grid", str(tmp_path), "--model",
                         str(small_grid / "correlation_model.json"), "--method", "kriging"],
                        "rank grid positions must be at most"),
            "calibrate t_s": (["calibrate", "--measured", str(tmp_path / "t.csv"),
                               "--simulated", str(tmp_path / "sim.csv")],
                              "trace t_s must be at most 1e+12 in size, got 1e+308"),
            "calibrate values": (["calibrate", "--measured", str(tmp_path / "v.csv"),
                                  "--simulated", str(tmp_path / "sim.csv")],
                                 "trace values must be at most 1e+12 in size, got 1e+200"),
        }[stage]
        out = tmp_path / "o"
        rc = main(argv + ["--out", str(out)])
        self._assert_input_error(rc, capsys, text)
        assert not out.exists()

    @pytest.mark.parametrize("loader", ["scene", "rank grid", "correlation model"])
    def test_deeply_nested_json(self, small_grid, tmp_path, capsys, loader):
        doc = tmp_path / "doc.json"
        argv = {
            "scene": ["rank", "--scene", str(doc)],
            "rank grid": ["fit", "--rank-grid", str(doc)],
            "correlation model": ["interpolate", "--rank-grid", str(small_grid),
                                  "--model", str(doc)],
        }[loader]
        for text, error in [("[" * 100000 + "]" * 100000, "is nested too deeply to parse"),
                            ("[]", "must be a JSON object")]:
            doc.write_text(text)
            rc = main(argv + ["--out", str(tmp_path / "o")])
            self._assert_input_error(rc, capsys, f"{loader} {error}")
            assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("source", ["scene", "rank grid file", "rank grid dir",
                                       "model", "trace"])
    def test_missing_input_file(self, small_grid, tmp_path, capsys, source):
        missing = tmp_path / "missing"
        argv, text = {
            "scene": (["coverage", "--scene", str(missing)],
                      f"scene file not found: {missing}"),
            "rank grid file": (["fit", "--rank-grid", str(missing)],
                               f"rank grid artifact not found: {missing}"),
            "rank grid dir": (["fit", "--rank-grid", str(tmp_path)],
                              f"rank grid artifact not found: {tmp_path / 'rank_grid.json'}"),
            "model": (["interpolate", "--rank-grid", str(small_grid), "--model", str(missing)],
                      f"model file not found: {missing}"),
            # both traces are read before either is parsed: the measured one,
            # not a trace, is not reported
            "trace": (["calibrate", "--measured", str(small_grid / "correlation_bins.csv"),
                       "--simulated", str(missing)], f"trace file not found: {missing}"),
        }[source]
        out = tmp_path / "o"
        rc = main(argv + ["--out", str(out)])
        assert rc == EXIT_INPUT
        assert capsys.readouterr().err == f"error: {text}\n"
        assert not out.exists()

    def test_fit_off_grid_positions(self, tmp_path, capsys):
        # one x coordinate 1e-9 m off the 30 m grid makes the inferred spacing
        # 1e-9 m: the pairs would fill about 5e11 distance bins
        grid = tmp_path / "grid"
        assert main(["synth", "--out", str(grid), "--nx", "10", "--ny", "10"]) == EXIT_OK
        doc = json.loads((grid / "rank_grid.json").read_text())
        doc["positions"][0][0] += 1e-9
        (grid / "rank_grid.json").write_text(json.dumps(doc))
        out = tmp_path / "fit"
        rc = main(["fit", "--rank-grid", str(grid), "--out", str(out)])
        self._assert_input_error(rc, capsys, "distance bins of 1e-09 m: the spacing is too fine")
        assert not out.exists()

    def test_out_of_memory_is_one_line(self, small_grid, tmp_path, capsys, monkeypatch):
        # a stage whose arrays outgrow what the process may allocate: numpy
        # raises a MemoryError subclass with this message
        def refuse(*args, **kwargs):
            raise MemoryError("Unable to allocate 6.65 GiB for an array with shape "
                              "(29885, 29885) and data type float64")

        monkeypatch.setattr(cli, "bin_correlations", refuse)
        out = tmp_path / "fit"
        rc = main(["fit", "--rank-grid", str(small_grid), "--out", str(out)])
        self._assert_input_error(rc, capsys, "error: out of memory: Unable to allocate 6.65 GiB")
        assert not out.exists()

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
        assert not out.exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "0", "-1"])
    @pytest.mark.parametrize("command, option", _FLOAT_OPTIONS)
    def test_float_options_must_be_finite_and_positive(self, small_grid, tmp_path, capsys,
                                                       command, option, value):
        inputs = {
            "fit": ["--rank-grid", str(small_grid)],
            "interpolate": ["--rank-grid", str(small_grid),
                            "--model", str(small_grid / "correlation_model.json")],
            "synth": ["--nx", "4", "--ny", "4"],
        }
        out = tmp_path / "o"
        rc = main([command, *inputs[command], f"{option}={value}", "--out", str(out)])
        self._assert_input_error(rc, capsys, f"must be finite and > 0, got {float(value)}")
        # the options are checked before --out is created
        assert not out.exists()


# one building, one tree and one tower, on a 3 x 3 grid at 30 m
PROBE_SCENE = {
    "extent_m": [90, 90], "grid_spacing_m": 30, "altitudes_m": [30, 60],
    "materials": [{"name": "m", "a": 5.0, "b": 0.1, "c": 0.05, "d": 0.8}],
    "buildings": [{"x": 10, "y": 10, "w": 20, "h": 20, "height": 20, "material": "m"}],
    "trees": [{"x": 60, "y": 30}],
    "towers": [{"id": 1, "x": 45, "y": 75, "height": 15}],
}


@pytest.mark.parametrize("value", [1e300, -1e300, 1e-300, 0, -1])
@pytest.mark.parametrize("field", ["frequency_hz", "tx_power_w", "a", "b", "c", "d",
                                   "attenuation_db_per_m"])
def test_scene_values_at_the_edges_of_a_float(tmp_path, field, value):
    """With one physical value of the scene at 1e300, -1e300, 1e-300, 0 or -1,
    `rank` and `coverage` in a fresh interpreter that turns RuntimeWarnings
    into errors either succeed or exit 2 with one line and no out directory:
    never a traceback."""
    doc = json.loads(json.dumps(PROBE_SCENE))
    if field in ("a", "b", "c", "d"):
        doc["materials"][0][field] = value
    elif field == "attenuation_db_per_m":
        doc["trees"][0][field] = value
    else:
        doc[field] = value
    (tmp_path / "scene.json").write_text(json.dumps(doc))
    src = str(Path(uavrank.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    for command in (["rank"], ["coverage", "--altitudes", "30"]):
        out = tmp_path / command[0]
        run = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "uavrank.cli",
                              *command, "--scene", "scene.json", "--out", out.name],
                             env=env, cwd=tmp_path, capture_output=True, text=True, timeout=120)
        err = run.stderr.strip().splitlines()
        if run.returncode != EXIT_OK:
            assert run.returncode == EXIT_INPUT, run.stderr
            assert len(err) == 1 and err[0].startswith("error:"), run.stderr
            assert not out.exists()


@pytest.mark.parametrize("argv, doc, text", [
    (["rank", "--altitudes", "1e160"], {}, "--altitudes must be at most 1e+06 m"),
    (["coverage", "--altitudes", "1e160"], {}, "--altitudes must be at most 1e+06 m"),
    (["rank"], {"altitudes_m": [30, 1e160]}, "scene altitudes_m must be at most 1e+06 m"),
    (["rank"], {"extent_m": [90, 2e6]}, "extent must be at most 1e+06 m in size"),
    (["rank"], {"buildings": [{"x": -1e160, "y": 10, "w": 20, "h": 20, "height": 20,
                               "material": "m"}]},
     "building: x must be at most 1e+06 m in size"),
    (["rank"], {"trees": [{"x": 60, "y": 30, "canopy_base_radius": 1e160}]},
     "tree: canopy_base_radius must be at most 1e+06 m in size"),
    (["coverage"], {"towers": [{"id": 1, "x": 45, "y": 75, "height": 1e160}]},
     "tower 1: height must be at most 1e+06 m in size"),
])
def test_lengths_past_the_bound(tmp_path, capsys, argv, doc, text):
    """An altitude, extent, coordinate, height or tree size above 1000 km,
    where the tracer's products of lengths would overflow, ends in exit code
    2 with one line and no out directory."""
    (tmp_path / "scene.json").write_text(json.dumps({**PROBE_SCENE, **doc}))
    out = tmp_path / "o"
    rc = main([*argv, "--scene", str(tmp_path / "scene.json"), "--out", str(out)])
    err = capsys.readouterr().err.strip().splitlines()
    assert rc == EXIT_INPUT
    assert len(err) == 1 and err[0].startswith("error:") and text in err[0], err
    assert not out.exists()


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
