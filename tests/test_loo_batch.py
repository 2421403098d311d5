"""Batched leave-one-out against the per-cell oracle, compared with ==.

loo_evaluate predicts a layer in one pass (one neighbor search, each
distinct Kriging system solved once, one baseline kernel call per neighbor
count); every estimate must equal _predict_one's, which runs
select_neighbors, krige_rank and baseline_rank for one cell.
"""

import tracemalloc

import numpy as np
import pytest

from uavrank import evaluate, kriging
from uavrank.baseline import baseline_rank, baseline_table
from uavrank.correlation import CorrelationModel
from uavrank.covermap import RankGrid, Z_RANK
from uavrank.evaluate import METHODS, loo_evaluate
from uavrank.kriging import (
    KrigingConfig,
    _pair_distances,
    _variogram_system,
    krige_rank,
    krige_table,
    neighbor_table,
    select_neighbors,
    varies_over_altitude,
)
from uavrank.synth import synthetic_grid_positions, synthetic_rank_field

MODEL = CorrelationModel(0.2932, -0.0508, 0.7057, -0.001, rmse=0.0)
# correlation above 1 out to ~100 m: gamma clamps to 0 there, so some
# systems are singular and some too ill-conditioned for the weights to sum to 1
INFLATED = CorrelationModel(1.65, -0.0025, -0.44, -0.0007, rmse=0.0)
# inf - inf beyond 1 m: NaN systems
OVERFLOWING = CorrelationModel(1.0, 800.0, -1.0, 800.0, rmse=0.0)


def _grid(nx, ny, n_h=3, n_k=2, seed=0, z_frac=0.0, spacing=30.0, jitter=0.0,
          constant_stacks=False):
    rng = np.random.default_rng(seed)
    pos = np.array([[x * spacing, y * spacing] for y in range(ny) for x in range(nx)])
    pos = pos + rng.uniform(-jitter, jitter, size=pos.shape)
    ranks = rng.integers(1, 5, size=(n_h, n_k, nx * ny))
    if constant_stacks:
        ranks[:] = ranks[:1]
    ranks[rng.random(ranks.shape) < z_frac] = Z_RANK
    return RankGrid(pos, tuple(30.0 + 10.0 * np.arange(n_h)),
                    tuple(10.0 * (1 + np.arange(n_k))), ranks,
                    np.zeros(nx * ny, dtype=int))


def _layers(rg):
    for hi in range(len(rg.altitudes_m)):
        for ki in range(len(rg.thresholds)):
            yield hi, ki, rg.ranks[hi, ki].astype(float)


def _varies(stacks):
    """The varies_over_altitude row of (n, N_h) altitude stacks."""
    return varies_over_altitude(np.asarray(stacks).T[:, None])[0]


def _predict_one(i, pos, layer, stacks, method, cfg, model) -> float:
    """The per-cell reference of loo_evaluate's estimate for cell i; raises
    ValueError where loo_evaluate skips the cell."""
    if method == "kriging":
        sol = krige_rank(pos[i], pos, layer, stacks, cfg, model, exclude=int(i))
        return sol.estimate
    neighbors = select_neighbors(pos[i], pos, cfg, exclude=int(i), valid=layer >= 0)
    if len(neighbors) < 2:
        raise ValueError("too few neighbors for a baseline interpolation")
    return baseline_rank(float(i), neighbors, layer[neighbors], method)


def _oracle(rg, ki, layer, method, cfg, model):
    stacks = rg.ranks[:, ki, :].T.astype(float)
    out = []
    for i in np.nonzero(layer >= 0)[0]:
        try:
            out.append(_predict_one(i, rg.positions, layer, stacks, method, cfg, model))
        except ValueError:
            out.append(np.nan)
    return np.array(out)


def _solve_outcomes(rg, cfg, model):
    """How solve_weights ends on the first layer's systems: singular (a
    LinAlgError), non-finite weights, weights not summing to 1, or solved."""
    layer = rg.ranks[0, 0].astype(float)
    stacks = rg.ranks[:, 0, :].T.astype(float)
    out = {"singular": 0, "non-finite": 0, "sum": 0, "solved": 0}
    for i in np.nonzero(layer >= 0)[0]:
        nb = select_neighbors(rg.positions[i], rg.positions, cfg, exclude=int(i),
                              valid=layer >= 0)
        v2 = float(np.mean(np.var(stacks[nb], axis=1, ddof=1))) if len(nb) >= 2 else 0.0
        if v2 == 0.0:
            continue
        a, b = _variogram_system(rg.positions[nb], rg.positions[i], model)
        try:
            w = np.linalg.solve(a, b)[:len(nb)]
        except np.linalg.LinAlgError:
            out["singular"] += 1
            continue
        if not np.all(np.isfinite(w)):
            out["non-finite"] += 1
        elif abs(w.sum() - 1.0) > 1e-6:
            out["sum"] += 1
        else:
            out["solved"] += 1
    return out


def _assert_batch_equals_oracle(rg, cfg, model=MODEL, methods=METHODS):
    """Every estimate, the skipped cells and the report's MAE values equal."""
    oracle = {}
    for hi, ki, layer in _layers(rg):
        nt = neighbor_table(rg.positions, layer >= 0, cfg)
        for method in methods:
            if method == "kriging":
                est = krige_table(nt, rg.positions, layer[None],
                                  _varies(rg.ranks[:, ki, :].T)[None], model)[0]
            else:
                est = baseline_table(nt, layer[None], method)[0]
            ref = oracle[hi, ki, method] = _oracle(rg, ki, layer, method, cfg, model)
            np.testing.assert_array_equal(est, ref)
    for method in methods:
        for rounding in (False, True):
            rep = loo_evaluate(rg, method, cfg, model, round_estimates=rounding)
            for hi, ki, layer in _layers(rg):
                ref = oracle[hi, ki, method]
                done = ~np.isnan(ref)
                est = np.round(ref[done]) if rounding else ref[done]
                errors = np.abs(layer[layer >= 0][done] - est)
                m, n = rep.entries[rg.altitudes_m[hi], rg.thresholds[ki]]
                assert n == len(errors)
                if n:
                    assert m == float(np.mean(errors))
                else:
                    assert np.isnan(m)


def _assert_rows_equal_select_neighbors(positions, valid, cfg):
    nt = neighbor_table(positions, valid, cfg)
    np.testing.assert_array_equal(nt.targets, np.flatnonzero(valid))
    for t, i in enumerate(nt.targets):
        ref = select_neighbors(positions[i], positions, cfg, exclude=int(i), valid=valid)
        assert nt.count[t] == len(ref)
        np.testing.assert_array_equal(nt.index[t, :nt.count[t]], ref)
        d = np.linalg.norm(positions[ref] - positions[i], axis=1)
        np.testing.assert_array_equal(nt.dist[t, :nt.count[t]], d)
        assert np.all(nt.index[t, nt.count[t]:] == -1)


class TestNeighborTable:
    @pytest.mark.parametrize("seed,jitter,r0,m", [
        (0, 0.0, 90.0, 20),   # regular grid: many distance ties
        (1, 0.0, 60.0, 3),    # r0 an exact grid distance, ties cut at M
        (2, 4.0, 75.0, 5),    # irregular positions
        (3, 0.0, 20.0, 20),   # r0 below the grid spacing: no neighbors
        (4, 0.0, 60.0 - 1e-7, 20),  # cells at 60 m fall in the search's slack only
    ])
    def test_rows_equal_select_neighbors(self, seed, jitter, r0, m):
        rg = _grid(11, 7, seed=seed, z_frac=0.3, jitter=jitter)
        _assert_rows_equal_select_neighbors(rg.positions, rg.ranks[0, 0] >= 0,
                                            KrigingConfig(M=m, r0_m=r0))

    def test_tie_groups_wider_than_one_search(self):
        # every position 10 times over: the 12th neighbor sits in a group of
        # 40 samples at 30 m, which the first k-nearest search cuts
        rg = _grid(5, 4, seed=12, z_frac=0.1)
        positions = np.repeat(rg.positions, 10, axis=0)
        valid = np.repeat(rg.ranks[0, 0] >= 0, 10)
        _assert_rows_equal_select_neighbors(positions, valid, KrigingConfig(M=12, r0_m=45.0))

    @pytest.mark.parametrize("n_valid", [0, 1])
    def test_fewer_than_two_valid_cells(self, n_valid):
        rg = _grid(4, 3)
        valid = np.arange(12) < n_valid
        nt = neighbor_table(rg.positions, valid, KrigingConfig())
        # no row can hold a neighbor, so the table has no columns
        assert len(nt.targets) == n_valid and nt.index.shape == (n_valid, 0)
        assert np.all(nt.count == 0)


class TestBatchEqualsOracle:
    def test_out_of_coverage_masks(self):
        # sparse coverage within a small r0: m == 0, m == 1, 1 < m < M and
        # m == M all occur
        rg = _grid(9, 8, seed=4, z_frac=0.55)
        cfg = KrigingConfig(M=5, r0_m=45.0)
        counts = {int(c) for _, _, layer in _layers(rg)
                  for c in neighbor_table(rg.positions, layer >= 0, cfg).count}
        assert {0, 1, 2, 3, 5} <= counts
        _assert_batch_equals_oracle(rg, cfg)

    @pytest.mark.parametrize("m", [1, 3, 20])
    def test_neighbor_counts(self, m):
        _assert_batch_equals_oracle(_grid(10, 6, seed=5 + m, z_frac=0.1),
                                    KrigingConfig(M=m, r0_m=150.0))

    def test_single_altitude_nan_variance(self):
        # the variance over one altitude (ddof=1) is NaN: both Kriging paths
        # reject the grid, while the baselines, which need no variance, run
        rg = _grid(8, 5, n_h=1, seed=6, z_frac=0.1)
        cfg = KrigingConfig(M=8, r0_m=90.0)
        layer = rg.ranks[0, 0].astype(float)
        with pytest.raises(ValueError, match="at least 2 altitudes"):
            loo_evaluate(rg, "kriging", cfg, MODEL)
        with pytest.raises(ValueError, match="at least 2 altitudes"):
            _predict_one(0, rg.positions, layer, rg.ranks[:, 0, :].T, "kriging", cfg, MODEL)
        _assert_batch_equals_oracle(rg, cfg, methods=("spline", "makima"))

    def test_constant_stacks_zero_variance(self):
        _assert_batch_equals_oracle(_grid(8, 6, seed=7, constant_stacks=True),
                                    KrigingConfig(M=6, r0_m=90.0))

    def test_constant_stacks_past_2_53(self):
        # ranks near 2**61, over altitude constant or 1 apart, which floats
        # do not tell apart: the rounded mean gives some of these constant
        # float stacks a variance above 0, and both Kriging paths solve there
        rg = _grid(8, 6, n_h=9, seed=21)
        rng = np.random.default_rng(21)
        rg.ranks[:] = (rng.integers(2**60, 2**62, size=(1, 2, 48))
                       + (rng.random(rg.ranks.shape) < 0.3))
        f = rg.ranks.astype(float)
        varies = varies_over_altitude(rg.ranks)
        assert np.all(f == f[:1]) and varies.any() and not varies.all()
        _assert_batch_equals_oracle(rg, KrigingConfig(M=6, r0_m=90.0), methods=("kriging",))

    def test_inflated_model_falls_back(self):
        rg = _grid(8, 6, seed=75, z_frac=0.2)
        cfg = KrigingConfig(M=6, r0_m=75.0)
        outcomes = _solve_outcomes(rg, cfg, INFLATED)
        assert outcomes["singular"] > 0 and outcomes["sum"] > 0
        _assert_batch_equals_oracle(rg, cfg, INFLATED)

    def test_overflowing_model_gives_non_finite_weights(self):
        rg = _grid(6, 5, seed=11)
        cfg = KrigingConfig(M=6, r0_m=75.0)
        assert _solve_outcomes(rg, cfg, OVERFLOWING)["non-finite"] > 0
        _assert_batch_equals_oracle(rg, cfg, OVERFLOWING)

    @pytest.mark.parametrize("n_valid", [0, 1])
    def test_layer_with_fewer_than_two_in_coverage_cells(self, n_valid):
        # the layer's neighbor table has no columns: its one cell, if any, is
        # skipped, and the layer reports NaN over 0 cells
        rg = _grid(4, 3, seed=13)
        rg.ranks[0, 0, n_valid:] = Z_RANK
        _assert_batch_equals_oracle(rg, KrigingConfig())
        for method in METHODS:
            m, n = loo_evaluate(rg, method, KrigingConfig(), MODEL).entries[30.0, 10.0]
            assert np.isnan(m) and n == 0

    def test_r0_below_spacing_skips_everything(self):
        rg = _grid(6, 4, seed=9)
        _assert_batch_equals_oracle(rg, KrigingConfig(M=20, r0_m=20.0))
        rep = loo_evaluate(rg, "kriging", KrigingConfig(M=20, r0_m=20.0), MODEL)
        assert all(n == 0 for _, n in rep.entries.values())

    @pytest.mark.parametrize("nx,ny", [(17, 3), (3, 14)])
    def test_non_square_grids(self, nx, ny):
        _assert_batch_equals_oracle(_grid(nx, ny, seed=nx, z_frac=0.15),
                                    KrigingConfig(M=20, r0_m=120.0))

    def test_irregular_positions(self):
        _assert_batch_equals_oracle(_grid(9, 7, seed=10, z_frac=0.1, jitter=6.0),
                                    KrigingConfig(M=10, r0_m=80.0))

    def test_baselines_on_non_integer_values(self):
        # non-integer values: each estimate is still baseline_rank's
        rg = _grid(9, 6, seed=13)
        values = np.random.default_rng(13).normal(size=54)
        nt = neighbor_table(rg.positions, np.ones(54, dtype=bool),
                            KrigingConfig(M=8, r0_m=90.0))
        for method in ("spline", "makima"):
            ref = [baseline_rank(float(i), row[:c], values[row[:c]], method)
                   for i, row, c in zip(nt.targets, nt.index, nt.count)]
            np.testing.assert_array_equal(baseline_table(nt, values[None], method)[0], ref)


class TestStackedLayers:
    """Layers that share a neighbor table are predicted in one call; each
    row of the result equals a call on that layer alone."""

    def test_baselines_equal_single_layer_calls(self):
        rg = _grid(9, 7, n_h=3, n_k=2, seed=14)
        nt = neighbor_table(rg.positions, np.ones(63, dtype=bool), KrigingConfig(M=8, r0_m=90.0))
        layers = rg.ranks.reshape(6, 63).astype(float)
        for method in ("spline", "makima"):
            stacked = baseline_table(nt, layers, method)
            assert stacked.shape == (6, 63)
            for layer, row in zip(layers, stacked):
                np.testing.assert_array_equal(row, baseline_table(nt, layer[None], method)[0])

    def test_makima_layers_far_apart_stacked(self):
        # integer layers near 0 and near 1e7, and one with steps of 1e12, in
        # one call: makima's slope weight cut is taken over each layer and
        # target alone, so stacking a layer with weights 1e12 times larger
        # changes none of the others' estimates
        rg = _grid(40, 1, seed=15)
        rng = np.random.default_rng(15)
        layers = np.stack([rng.integers(0, 50, 40), 10**7 + rng.integers(0, 50, 40),
                           1e12 * rng.integers(0, 50, 40)]).astype(float)
        nt = neighbor_table(rg.positions, np.ones(40, dtype=bool), KrigingConfig(M=6, r0_m=90.0))
        stacked = baseline_table(nt, layers, "makima")
        for layer, row in zip(layers, stacked):
            single = baseline_table(nt, layer[None], "makima")[0]
            np.testing.assert_array_equal(row, single)
            ref = [baseline_rank(float(i), nb[:c], layer[nb[:c]], "makima")
                   for i, nb, c in zip(nt.targets, nt.index, nt.count)]
            np.testing.assert_array_equal(single, ref)

    @pytest.mark.parametrize("model", [MODEL, INFLATED])
    def test_kriging_equals_single_layer_calls(self, model):
        # the altitude layers of one threshold share the neighbor table and
        # the stacks, so one set of weights serves all of them
        rg = _grid(8, 6, n_h=4, seed=16)
        cfg = KrigingConfig(M=6, r0_m=75.0)
        nt = neighbor_table(rg.positions, np.ones(48, dtype=bool), cfg)
        for ki in range(len(rg.thresholds)):
            stacks = rg.ranks[:, ki, :].T
            layers = rg.ranks[:, ki, :].astype(float)
            varies = _varies(stacks)
            stacked = krige_table(nt, rg.positions, layers, np.broadcast_to(varies, (4, 48)),
                                  model)
            assert stacked.shape == (4, 48)
            for layer, row in zip(layers, stacked):
                np.testing.assert_array_equal(row, krige_table(nt, rg.positions, layer[None],
                                                               varies[None], model)[0])
                np.testing.assert_array_equal(row, _oracle(rg, ki, layer, "kriging", cfg, model))

    def test_kriging_peak_below_one_altitude_stack(self):
        # 80 x 80 cells, 9 altitudes, 3 thresholds: with the neighbor table
        # built, Kriging all 27 layers peaks below one float (L, n, N_h)
        # stack of them, 12.4 MB, as it holds one mask per threshold instead
        rg = _grid(80, 80, n_h=9, n_k=3, seed=22)
        tables = {}
        loo_evaluate(rg, "kriging", KrigingConfig(), MODEL, tables=tables)
        tracemalloc.start()
        try:
            loo_evaluate(rg, "kriging", KrigingConfig(), MODEL, tables=tables)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 27 * 6400 * 9 * 8

    @pytest.mark.parametrize("method", METHODS)
    def test_layer_subsets_with_mixed_coverage(self, method):
        # four altitudes, three thresholds: some layers share a coverage mask
        # with another layer, at the same or at another threshold, and some
        # have their own; only the requested layers are reported.  At the
        # third threshold the southern half is constant over altitude, so
        # Kriging falls back there, and only there.
        rg = _grid(9, 6, n_h=4, n_k=3, seed=17, z_frac=0.2)
        mask = rg.ranks[0, 0] == Z_RANK
        for hi, ki in ((1, 0), (2, 1), (3, 2)):
            rg.ranks[hi, ki] = np.where(mask, Z_RANK, np.maximum(rg.ranks[hi, ki], 1))
        rg.ranks[:, 2, :27] = rg.ranks[3, 2, :27]
        cfg = KrigingConfig(M=7, r0_m=75.0)
        altitudes, thresholds = rg.altitudes_m[1:], rg.thresholds[::2]
        rep = loo_evaluate(rg, method, cfg, MODEL, altitudes_m=altitudes,
                           thresholds=thresholds)
        assert set(rep.entries) == {(h, k) for h in altitudes for k in thresholds}
        for h in altitudes:
            for K in thresholds:
                ki = rg.thresholds.index(K)
                layer = rg.layer(h, K).astype(float)
                ref = _oracle(rg, ki, layer, method, cfg, MODEL)
                done = ~np.isnan(ref)
                errors = np.abs(layer[layer >= 0][done] - ref[done])
                assert rep.entries[h, K] == (float(np.mean(errors)), len(errors))


def _geometry(pos, nt, t):
    """The bytes of target t's distances between its neighbors and to them."""
    nb = nt.index[t, :nt.count[t]]
    return _pair_distances(pos[nb][None])[0].tobytes() + nt.dist[t, :nt.count[t]].tobytes()


def _assert_table_equals_krige_rank(pos, layer, stacks, cfg):
    nt = neighbor_table(pos, layer >= 0, cfg)
    est = krige_table(nt, pos, layer[None], _varies(stacks)[None], MODEL)[0]
    ref = [krige_rank(pos[i], pos, layer, stacks, cfg, MODEL, exclude=int(i)).estimate
           for i in nt.targets]
    np.testing.assert_array_equal(est, ref)


def _record_solves(monkeypatch):
    """The bytes (distances between the neighbors and to them) of every
    system that _solve_block solves from now on."""
    solved = []
    real = kriging._solve_block

    def spy(d_ss, d_ts, model):
        solved.extend(s.tobytes() + t.tobytes() for s, t in zip(d_ss, d_ts))
        return real(d_ss, d_ts, model)

    monkeypatch.setattr(kriging, "_solve_block", spy)
    return solved


class TestDistinctSystems:
    """krige_table solves each distinct system once and gives its weights to
    every target whose system is built from the same bytes: distances
    between the neighbors and distances to them."""

    def test_synth_loo_input_solves_few_systems_each_once(self, monkeypatch):
        # the synth-loo benchmark input: 36 x 71 cells at 30 m, 3 altitudes
        # at one threshold; more than 2000 targets have a system to solve,
        # over 28 neighbor geometries
        rg = synthetic_rank_field(synthetic_grid_positions(36, 71, 30.0), MODEL,
                                  (30.0, 70.0, 110.0), (100.0,), seed=0)
        valid = rg.ranks[0, 0] >= 0
        assert np.all((rg.ranks >= 0) == valid)  # one coverage mask
        cfg = KrigingConfig()
        nt = neighbor_table(rg.positions, valid, cfg)
        assert np.sum(nt.count >= 2) > 2000
        solved = _record_solves(monkeypatch)
        layers = rg.ranks[:, 0, :].astype(float)
        varies = np.broadcast_to(_varies(rg.ranks[:, 0, :].T), (3, 2556))  # (L, n)
        est = krige_table(nt, rg.positions, layers, varies, MODEL)
        assert 0 < len(solved) <= 32
        assert len(set(solved)) == len(solved)
        # the layers share the weights: one layer against the oracle
        np.testing.assert_array_equal(est[0], _oracle(rg, 0, layers[0], "kriging", cfg, MODEL))

    @pytest.mark.parametrize("jitter, rows, solves", [(0.0, 2347, 28), (6.0, 2344, 2344)])
    def test_neighbor_distances_computed_once_per_target(self, monkeypatch, jitter, rows,
                                                        solves):
        # the synth-loo input, and the same field with its positions moved by
        # U(-6, 6) m, where no two targets share a system: every target that
        # needs a system has its neighbors' pair distances computed once, to
        # find its system and to solve it
        rg = synthetic_rank_field(synthetic_grid_positions(36, 71, 30.0), MODEL,
                                  (30.0, 70.0, 110.0), (100.0,), seed=0)
        pos = rg.positions + np.random.default_rng(0).uniform(-jitter, jitter,
                                                              rg.positions.shape)
        nt = neighbor_table(pos, rg.ranks[0, 0] >= 0, KrigingConfig())
        var = np.var(rg.ranks[:, 0, :].T.astype(float), axis=1, ddof=1)
        needed = [c >= 2 and np.mean(var[row[:c]]) != 0.0 for row, c in zip(nt.index, nt.count)]
        assert sum(needed) == rows
        counted = []
        real = kriging._pair_distances

        def spy(xy):
            counted.append(len(xy))
            return real(xy)

        monkeypatch.setattr(kriging, "_pair_distances", spy)
        solved = _record_solves(monkeypatch)
        varies = np.broadcast_to(_varies(rg.ranks[:, 0, :].T), (3, 2556))
        krige_table(nt, pos, rg.ranks[:, 0, :].astype(float), varies, MODEL)
        assert sum(counted) == rows
        assert len(solved) == len(set(solved)) == solves

    def test_position_one_ulp_off_grid(self):
        # one sample 1 ulp east of its grid point: systems around it have
        # the neighbor offsets of systems elsewhere, but distances with other
        # bits, and must not share their weights
        pos = _grid(7, 7).positions.copy()
        pos[24, 0] = np.nextafter(pos[24, 0], np.inf)
        cfg = KrigingConfig(M=6, r0_m=75.0)
        nt = neighbor_table(pos, np.ones(49, dtype=bool), cfg)
        by_offsets = {}
        for t in range(49):
            offsets = (nt.index[t, :nt.count[t]] - t).tobytes()
            by_offsets.setdefault(offsets, set()).add(_geometry(pos, nt, t))
        assert any(len(g) > 1 for g in by_offsets.values())
        layer = np.random.default_rng(18).uniform(1.0, 4.0, 49)
        _assert_table_equals_krige_rank(pos, layer, np.tile([0.0, 2.0], (49, 1)), cfg)

    def test_geometry_shared_across_v2_solved_once(self, monkeypatch):
        # every stack has a variance of exactly 2 but one, whose variance of
        # 2 + 2**-48 moves v2 of the targets around it to the next float
        # after 2; some of them share their geometry with targets of v2 == 2,
        # and each geometry is solved once for both
        pos = _grid(7, 7).positions
        stacks = np.tile([0.0, 2.0], (49, 1))
        stacks[24, 1] = 2.0 + 2.0**-49
        cfg = KrigingConfig(M=6, r0_m=75.0)
        nt = neighbor_table(pos, np.ones(49, dtype=bool), cfg)
        var = np.var(stacks, axis=1, ddof=1)
        v2 = [np.mean(var[row[:c]]) for row, c in zip(nt.index, nt.count)]
        assert set(v2) == {2.0, np.nextafter(2.0, 3.0)}
        by_geometry = {}
        for t in range(49):
            by_geometry.setdefault(_geometry(pos, nt, t), set()).add(v2[t])
        assert any(len(v) == 2 for v in by_geometry.values())
        solved = _record_solves(monkeypatch)
        layer = np.random.default_rng(19).uniform(1.0, 4.0, 49)
        _assert_table_equals_krige_rank(pos, layer, stacks, cfg)
        assert sorted(solved) == sorted(by_geometry)

    def test_loo_thresholds_sharing_a_mask_solve_together(self, monkeypatch):
        # every layer of three thresholds is in coverage everywhere: Kriging
        # predicts all nine layers from one neighbor table, finding and
        # solving the distinct systems in one pass per neighbor count, and
        # every estimate is _predict_one's.  At the third threshold the
        # southern half is constant over altitude, so targets there fall back
        # to their nearest neighbor in that layer while the other layers
        # solve their systems
        rg = _grid(9, 7, n_h=3, n_k=3, seed=20)
        rg.ranks[:, 2, :27] = rg.ranks[0, 2, :27]
        cfg = KrigingConfig(M=20, r0_m=75.0)
        nt = neighbor_table(rg.positions, np.ones(63, dtype=bool), cfg)
        var = np.var(rg.ranks[:, 2, :].T.astype(float), axis=1, ddof=1)
        assert any(np.mean(var[row[:c]]) == 0.0 for row, c in zip(nt.index, nt.count))
        calls, tables = [], []
        real_systems, real_table = kriging._system_weights, evaluate.krige_table

        def systems_spy(xy, d_ts, model):
            calls.append(xy.shape[1])
            return real_systems(xy, d_ts, model)

        def table_spy(nt, pos, layers, varies, model):
            est = real_table(nt, pos, layers, varies, model)
            tables.append(est)
            return est

        monkeypatch.setattr(kriging, "_system_weights", systems_spy)
        monkeypatch.setattr(evaluate, "krige_table", table_spy)
        rep = loo_evaluate(rg, "kriging", cfg, MODEL)
        assert sorted(calls) == sorted(set(nt.count[nt.count >= 2].tolist()))
        [est] = tables
        assert est.shape == (9, 63)
        # the layers in the order loo_evaluate groups them: altitude, then K
        for row, (hi, ki, layer) in zip(est, _layers(rg)):
            np.testing.assert_array_equal(row, _oracle(rg, ki, layer, "kriging", cfg, MODEL))
            key = rg.altitudes_m[hi], rg.thresholds[ki]
            assert rep.entries[key] == (float(np.mean(np.abs(layer - row))), 63)
