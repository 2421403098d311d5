"""Leave-one-out evaluation, trace calibration, and rank histograms."""

import numpy as np
import pytest

from uavrank.baseline import baseline_rank
from uavrank.correlation import CorrelationModel
from uavrank.covermap import RankGrid, Z_RANK
from uavrank import evaluate
from uavrank.evaluate import (
    JOIN_WINDOW_S,
    OFFSET_GRID_DB,
    MAEReport,
    Trace,
    align_traces,
    calibrate_offset,
    histogram_to_csv,
    loo_evaluate,
    rank_histogram,
)
from uavrank.kriging import KrigingConfig, krige_rank, select_neighbors
from uavrank.scene import MAX_MAGNITUDE

MODEL = CorrelationModel(0.2932, -0.0508, 0.7057, -0.001, rmse=0.0)
CFG = KrigingConfig(M=20, r0_m=150.0)


def _grid(seed=0, n=5, n_h=3, with_z=False):
    rng = np.random.default_rng(seed)
    pos = np.array([[x * 30.0, y * 30.0] for y in range(n) for x in range(n)])
    ranks = rng.integers(1, 5, size=(n_h, 2, n * n))
    if with_z:
        ranks[:, :, 3] = Z_RANK
    return RankGrid(pos, tuple(30.0 + 10 * np.arange(n_h)), (10.0, 100.0),
                    ranks, np.zeros(n * n, dtype=int))


class TestLooEvaluate:
    def test_kriging_matches_manual_loop(self):
        # dual route: re-run the leave-one-out loop by hand
        rg = _grid(seed=1)
        rep = loo_evaluate(rg, "kriging", CFG, MODEL,
                           altitudes_m=(30.0,), thresholds=(10.0,))
        layer = rg.ranks[0, 0].astype(float)
        stacks = rg.ranks[:, 0, :].T.astype(float)
        errors = []
        for i in range(len(layer)):
            sol = krige_rank(rg.positions[i], rg.positions, layer, stacks,
                             CFG, MODEL, exclude=i)
            errors.append(abs(layer[i] - sol.estimate))
        assert rep.mae(30.0, 10.0) == pytest.approx(np.mean(errors), abs=1e-10)

    def test_baseline_matches_manual_loop(self):
        rg = _grid(seed=2)
        rep = loo_evaluate(rg, "makima", CFG, MODEL,
                           altitudes_m=(30.0,), thresholds=(10.0,))
        layer = rg.ranks[0, 0].astype(float)
        errors = []
        for i in range(len(layer)):
            nbrs = select_neighbors(rg.positions[i], rg.positions, CFG,
                                    exclude=i, valid=layer >= 0)
            est = baseline_rank(float(i), nbrs, layer[nbrs], "makima")
            errors.append(abs(layer[i] - est))
        assert rep.mae(30.0, 10.0) == pytest.approx(np.mean(errors), abs=1e-10)

    def test_z_cells_excluded(self):
        rg = _grid(seed=3, with_z=True)
        rep = loo_evaluate(rg, "kriging", CFG, MODEL,
                           altitudes_m=(30.0,), thresholds=(10.0,))
        _, count = rep.entries[(30.0, 10.0)]
        assert count == 24  # one location held out of coverage

    def test_rounding_gives_integer_errors(self):
        rg = _grid(seed=4)
        rep = loo_evaluate(rg, "kriging", CFG, MODEL, round_estimates=True,
                           altitudes_m=(30.0,), thresholds=(10.0,))
        m, n = rep.entries[(30.0, 10.0)]
        assert (m * n) == pytest.approx(round(m * n))

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            loo_evaluate(_grid(), "idw", CFG, MODEL)

    def test_report_csv_and_mean(self):
        rep = MAEReport("kriging", {(30.0, 10.0): (0.5, 10), (30.0, 100.0): (0.7, 10)})
        assert rep.mae(30.0, 100.0) == 0.7
        lines = rep.to_csv().splitlines()
        assert lines[0] == "method,altitude_m,K,mae,cells"
        assert lines[1] == "kriging,30,10,0.500000000,10"


def _trace(t, values, kind="rss_dbm"):
    t = np.asarray(t, dtype=float)
    pos = np.column_stack([t * 10.0, np.zeros_like(t), np.full_like(t, 30.0)])
    return Trace(t, pos, np.asarray(values, dtype=float), kind)


class TestTrace:
    def test_csv_round_trip(self):
        tr = _trace([0.0, 0.1, 0.2], [-50.0, -51.5, -49.0])
        tr2 = Trace.from_csv(tr.to_csv())
        assert np.allclose(tr2.t_s, tr.t_s)
        assert np.allclose(tr2.positions, tr.positions)
        assert np.allclose(tr2.values, tr.values)
        assert tr2.kind == "rss_dbm"

    def test_kind_from_header(self):
        tr = Trace.from_csv("t_s,x_m,y_m,z_m,rank\n0.0,1,2,3,2\n")
        assert tr.kind == "rank"
        assert tr.values[0] == 2.0

    def test_timestamps_must_be_sorted(self):
        with pytest.raises(ValueError):
            _trace([0.2, 0.1], [-50.0, -51.0])

    @pytest.mark.parametrize("column, t, x, values", [
        ("t_s", [-1e308, 1e308], 0.0, [-50.0, -51.0]),
        ("t_s", [0.0, 1.5 * MAX_MAGNITUDE], 0.0, [-50.0, -51.0]),
        ("positions", [0.0, 1.0], -1e13, [-50.0, -51.0]),
        ("values", [0.0, 1.0], 0.0, [1e200, -51.0]),
        ("values", [0.0, 1.0], 0.0, [-50.0, np.nan]),
    ])
    def test_numbers_are_bounded(self, column, t, x, values):
        # past the bound, np.diff of the timestamps and the calibration's
        # squared errors overflow
        with pytest.raises(ValueError, match=f"trace {column} must be at most 1e"):
            Trace(t, [[x, 0.0, 30.0]] * 2, values)

    def test_numbers_at_the_bound_pass(self):
        big = MAX_MAGNITUDE
        tr = Trace([-big, big], [[big, -big, 30.0]] * 2, [big, -big])
        assert tr.values[0] == big and tr.positions[0, 0] == big


class TestAlign:
    def test_nearest_sample_join(self):
        m = _trace([0.0, 1.0, 2.0], [-50.0, -51.0, -52.0])
        s = _trace([0.01, 1.04, 2.2], [-40.0, -41.0, -42.0])
        mv, sv = align_traces(m, s)
        # the 2.2 s sample is 0.2 s away, beyond the 50 ms window
        assert list(mv) == [-50.0, -51.0]
        assert list(sv) == [-40.0, -41.0]

    def test_window_constant(self):
        assert JOIN_WINDOW_S == 0.05

    def test_no_overlap(self):
        m = _trace([0.0], [-50.0])
        s = _trace([10.0], [-40.0])
        mv, sv = align_traces(m, s)
        assert len(mv) == 0


class TestCalibrate:
    def test_recovers_injected_offset(self):
        rng = np.random.default_rng(0)
        t = np.arange(0.0, 20.0, 0.1)
        sim = rng.uniform(-90.0, -50.0, size=len(t))
        for c in (-12.3, 0.0, 7.7):
            measured = _trace(t, sim + c)
            offset, rmse = calibrate_offset(measured, _trace(t, sim))
            assert offset == pytest.approx(c, abs=1e-9)
            assert rmse == pytest.approx(0.0, abs=1e-9)

    def test_off_grid_offset_snaps(self):
        t = np.arange(0.0, 5.0, 0.1)
        sim = np.full(len(t), -60.0)
        offset, _ = calibrate_offset(_trace(t, sim + 7.73), _trace(t, sim))
        assert offset == pytest.approx(7.7)

    def test_tie_prefers_smaller_absolute_offset(self):
        t = np.array([0.0, 1.0])
        sim = np.array([-60.0, -60.0])
        # mean difference exactly 0.05: offsets 0.0 and 0.1 tie on RMSE
        offset, _ = calibrate_offset(_trace(t, sim + 0.05), _trace(t, sim))
        assert offset == 0.0

    def test_no_overlap_raises(self):
        with pytest.raises(ValueError):
            calibrate_offset(_trace([0.0], [-50.0]), _trace([9.0], [-40.0]))

    @pytest.mark.parametrize("n", [1, 3, 8, 129, 1000, 40000])
    def test_blocks_change_no_bit(self, monkeypatch, n):
        rng = np.random.default_rng(n)
        t = np.arange(n) * 0.1
        measured = _trace(t, rng.uniform(-90.0, -50.0, n) + rng.uniform(-40.0, 40.0))
        simulated = _trace(t, rng.uniform(-90.0, -50.0, n))
        # the one (offsets, samples) array of the unblocked search
        diffs = measured.values - simulated.values
        rmse = np.sqrt(np.mean((diffs[None, :] - OFFSET_GRID_DB[:, None]) ** 2, axis=1))
        best = np.flatnonzero(rmse <= rmse.min() + 1e-12)
        pick = best[np.argmin(np.abs(OFFSET_GRID_DB[best]))]
        want = (float(OFFSET_GRID_DB[pick]), float(rmse[pick]))
        for values in (1, 7, 2**15, 10**9):
            monkeypatch.setattr(evaluate, "_OFFSET_BLOCK_VALUES", values)
            got = calibrate_offset(measured, simulated)
            assert got == want and np.float64(got[1]).tobytes() == np.float64(want[1]).tobytes()


class TestHistogram:
    def test_fractions(self):
        pos = np.zeros((4, 2))
        ranks = np.array([[[1, 2, 2, Z_RANK]]])
        rg = RankGrid(pos, (30.0,), (10.0,), ranks, np.zeros(4, dtype=int))
        hist = rank_histogram(rg, 30.0, 10.0)
        assert hist == {"Z": 0.25, 1: 0.25, 2: 0.5}
        assert sum(hist.values()) == pytest.approx(1.0)

    def test_csv_sorts_ints_before_z(self):
        text = histogram_to_csv({"Z": 0.25, 2: 0.5, 1: 0.25})
        lines = text.splitlines()
        assert lines[1].startswith("1,")
        assert lines[2].startswith("2,")
        assert lines[3].startswith("Z,")
