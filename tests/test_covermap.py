"""Coverage/rank grid sweeps and artifact serialization."""

import numpy as np
import pytest

from uavrank.channel import channel_rank, rss, synthesize_channel
from uavrank.covermap import (
    JOINT,
    Z_RANK,
    CoverageGrid,
    cdf_to_csv,
    compute_coverage,
    compute_rank_grid,
    grid_to_csv,
    grid_to_pgm,
    joint_coverage,
    nearest_tower_ids,
    rank_grid_from_json,
    rank_grid_to_json,
    rss_cdf,
)
from uavrank.raytrace import trace_paths
from uavrank.scene import (
    BUILTIN_MATERIALS,
    ArrayConfig,
    Building,
    Scene,
    Tower,
    grid_positions,
    grid_shape,
)

CONCRETE = BUILTIN_MATERIALS["concrete"]

SMALL = Scene(extent_m=(300.0, 300.0), grid_spacing_m=100.0, altitudes_m=(30.0,),
              towers=(Tower(id=1, x=150.0, y=150.0),))


class TestComputeCoverage:
    def test_matches_per_cell_rss(self):
        # dual route: the grid sweep against direct per-cell calls
        g = compute_coverage(SMALL, SMALL.towers[0], 30.0)
        one = ArrayConfig(elements=1)
        for (x, y), v in zip(g.positions, g.values):
            paths = trace_paths(SMALL, SMALL.towers[0].position, (x, y, 30.0))
            expected = rss(paths, one, one, SMALL.tx_power_w, SMALL.wavelength_m)
            assert v == pytest.approx(expected, abs=1e-9)

    def test_grid_dimensions(self):
        g = compute_coverage(SMALL, SMALL.towers[0], 30.0)
        assert len(g.values) == 9
        assert g.tower_id == 1
        assert g.mode == "SISO"

    def test_blocked_cells_are_nan(self):
        # a tall box around one grid point shadows it completely
        s = Scene(
            extent_m=(300.0, 300.0), grid_spacing_m=100.0, altitudes_m=(30.0,),
            towers=(Tower(id=1, x=150.0, y=150.0),),
            buildings=(Building(x=-20, y=-20, w=40, h=40, height=400,
                                material=CONCRETE),),
        )
        g = compute_coverage(s, s.towers[0], 30.0)
        assert np.isnan(g.values[0])  # cell (0, 0) sits inside the box shadow
        assert g.blockage_fraction == pytest.approx(1.0 / 9.0)

    def test_rejects_bad_altitude_and_mode(self):
        with pytest.raises(ValueError):
            compute_coverage(SMALL, SMALL.towers[0], 0.0)
        with pytest.raises(ValueError):
            compute_coverage(SMALL, SMALL.towers[0], 30.0, mode="MISO")

    def test_mimo_mode_uses_arrays(self):
        g = compute_coverage(SMALL, SMALL.towers[0], 30.0, mode="MIMO")
        assert np.all(np.isfinite(g.values))


class TestNearestTower:
    TOWERS = Scene(
        extent_m=(300.0, 300.0), grid_spacing_m=100.0, altitudes_m=(30.0,),
        towers=(Tower(id=2, x=300.0, y=0.0), Tower(id=1, x=0.0, y=0.0)),
    )

    def test_assignment(self):
        ids = nearest_tower_ids(self.TOWERS, np.array([[10.0, 0.0], [290.0, 0.0]]))
        assert list(ids) == [1, 2]

    def test_tie_goes_to_lowest_id(self):
        ids = nearest_tower_ids(self.TOWERS, np.array([[150.0, 0.0]]))
        assert list(ids) == [1]

    def test_no_towers(self):
        with pytest.raises(ValueError):
            nearest_tower_ids(Scene(), np.zeros((1, 2)))


class TestJointCoverage:
    def test_selects_nearest_tower_value(self):
        s = Scene(
            extent_m=(300.0, 300.0), grid_spacing_m=100.0, altitudes_m=(30.0,),
            towers=(Tower(id=1, x=0.0, y=0.0), Tower(id=2, x=300.0, y=300.0)),
        )
        grids = [compute_coverage(s, t, 30.0) for t in s.towers]
        j = joint_coverage(grids, s)
        assert j.tower_id == JOINT
        serving = nearest_tower_ids(s, j.positions)
        by_tower = {g.tower_id: g for g in grids}
        for i, tid in enumerate(serving):
            assert j.values[i] == pytest.approx(by_tower[tid].values[i], abs=1e-12)

    def test_rejects_mismatched_grids(self):
        g = compute_coverage(SMALL, SMALL.towers[0], 30.0)
        other = CoverageGrid(1, 70.0, "SISO", g.positions, g.values)
        with pytest.raises(ValueError):
            joint_coverage([g, other], SMALL)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            joint_coverage([], SMALL)


class TestCdf:
    def test_known_values(self):
        pos = np.zeros((4, 2))
        g = CoverageGrid(1, 30.0, "SISO", pos, np.array([-60.0, -50.0, -50.0, np.nan]))
        points, blockage = rss_cdf(g)
        assert blockage == pytest.approx(0.25)
        assert points == [(-60.0, pytest.approx(1 / 3)), (-50.0, pytest.approx(1.0))]

    def test_all_blocked(self):
        g = CoverageGrid(1, 30.0, "SISO", np.zeros((2, 2)), np.array([np.nan, np.nan]))
        points, blockage = rss_cdf(g)
        assert points == [] and blockage == 1.0

    def test_csv_includes_blockage_header(self):
        text = cdf_to_csv([(-60.0, 0.5), (-50.0, 1.0)], 0.25)
        lines = text.splitlines()
        assert lines[0] == "# blockage_fraction,0.250000000"
        assert lines[1] == "value_dbm,fraction"


class TestRankGrid:
    def test_monotone_in_threshold_per_cell(self):
        rg = compute_rank_grid(SMALL, thresholds=(10.0, 100.0, 1000.0))
        covered = rg.ranks[0, 0] != Z_RANK
        assert np.all(np.diff(rg.ranks[0][:, covered], axis=0) >= 0)

    def test_matches_direct_channel_rank(self):
        rg = compute_rank_grid(SMALL, thresholds=(100.0,))
        tower = SMALL.towers[0]
        for i, (x, y) in enumerate(rg.positions):
            paths = trace_paths(SMALL, tower.position, (x, y, 30.0))
            h = synthesize_channel(paths, tower.array, ArrayConfig(),
                                   SMALL.wavelength_m)
            assert rg.ranks[0, 0, i] == channel_rank(h, 100.0)

    def test_layer_accessor(self):
        rg = compute_rank_grid(SMALL, thresholds=(10.0, 100.0))
        assert np.array_equal(rg.layer(30.0, 100.0), rg.ranks[0, 1])
        with pytest.raises(ValueError):
            rg.layer(30.0, 55.0)

    def test_serving_tower_recorded(self):
        rg = compute_rank_grid(SMALL, thresholds=(100.0,))
        assert np.all(rg.serving_tower == 1)

    def test_json_round_trip(self):
        rg = compute_rank_grid(SMALL, thresholds=(10.0, 100.0))
        rg2 = rank_grid_from_json(rank_grid_to_json(rg))
        assert np.array_equal(rg2.positions, rg.positions)
        assert rg2.altitudes_m == rg.altitudes_m
        assert rg2.thresholds == rg.thresholds
        assert np.array_equal(rg2.ranks, rg.ranks)
        assert np.array_equal(rg2.serving_tower, rg.serving_tower)


class TestCsvExport:
    def test_z_sentinel_for_nan_and_rank(self):
        pos = np.array([[0.0, 0.0], [30.0, 0.0]])
        text = grid_to_csv(pos, np.array([np.nan, -55.5]))
        assert text.splitlines()[1] == "0.000,0.000,Z"
        text = grid_to_csv(pos, np.array([Z_RANK, 3]))
        lines = text.splitlines()
        assert lines[1].endswith(",Z")
        assert lines[2].endswith(",3")

    def test_sentinel_follows_dtype(self):
        # -1.0 dBm is a covered float cell; only integer arrays use Z_RANK
        assert grid_to_csv([[0, 0]], [-1.0]).splitlines()[1] == "0.000,0.000,-1"
        assert grid_to_csv([[0, 0]], [Z_RANK]).splitlines()[1] == "0.000,0.000,Z"

    def test_float_formatting(self):
        text = grid_to_csv(np.array([[0.0, 0.0]]), np.array([-55.5]))
        assert text.splitlines()[1] == "0.000,0.000,-55.500000"


class TestPgmExport:
    def test_header_and_size(self):
        g = compute_coverage(SMALL, SMALL.towers[0], 30.0)
        nx, ny = grid_shape(SMALL)
        data = grid_to_pgm(g, nx, ny)
        assert data.startswith(b"P5\n3 3\n255\n")
        assert len(data) == len(b"P5\n3 3\n255\n") + 9

    def test_z_maps_to_zero_and_rows_flip(self):
        pos = grid_positions(SMALL)
        vals = np.full(9, -60.0)
        vals[0] = np.nan  # southwest corner
        g = CoverageGrid(1, 30.0, "SISO", pos, vals)
        data = grid_to_pgm(g, 3, 3)
        pixels = np.frombuffer(data.split(b"255\n", 1)[1], dtype=np.uint8).reshape(3, 3)
        # southwest corner ends up bottom-left after the north-up flip
        assert pixels[2, 0] == 0
        assert np.all(pixels.ravel()[:-3] > 0) or np.all(pixels[:2] > 0)

    def test_value_scaling(self):
        pos = grid_positions(SMALL)
        g = CoverageGrid(1, 30.0, "SISO", pos, np.full(9, -40.0))
        data = grid_to_pgm(g, 3, 3)
        pixels = np.frombuffer(data.split(b"255\n", 1)[1], dtype=np.uint8)
        assert np.all(pixels == 255)  # top of the scale
