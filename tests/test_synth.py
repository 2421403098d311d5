"""Seeded synthetic rank fields with a prescribed spatial covariance."""

import tracemalloc

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from uavrank import synth
from uavrank.correlation import CorrelationModel
from uavrank.synth import (
    MAX_FIELD_CELLS,
    _first_block_row,
    _grid_axes,
    correlated_field_factor,
    synthetic_grid_positions,
    synthetic_rank_field,
)

MODEL = CorrelationModel(0.2932, -0.0508, 0.7057, -0.001, rmse=0.0)
ALTITUDES = (30.0, 70.0, 110.0)
THRESHOLDS = (10.0, 100.0, 1000.0)


class TestPositions:
    def test_grid_layout(self):
        pos = synthetic_grid_positions(3, 2, 30.0)
        assert len(pos) == 6
        assert np.allclose(pos[0], (0.0, 0.0))
        assert np.allclose(pos[-1], (60.0, 30.0))

    def test_default_scene_size(self):
        assert len(synthetic_grid_positions(36, 71, 30.0)) == 2556


def cdist_covariance(positions, model):
    """Oracle: the model on every pairwise distance, with the 1e-6 nugget."""
    cov = model(cdist(positions, positions))
    cov[np.diag_indices_from(cov)] = model(0.0) + 1e-6
    return cov


def _axis_grid(nx, ny, spacing, origin=(0.0, 0.0)):
    xs = origin[0] + np.arange(nx) * spacing
    ys = origin[1] + np.arange(ny) * spacing
    return np.column_stack([np.tile(xs, ny), np.repeat(ys, nx)])


def _grids():
    """(nx, ny, spacing, origin): fixed shapes with exact and inexact
    spacings, including one-row and one-column grids, then seeded random
    ones with origins far from zero."""
    for nx, ny in ((5, 5), (1, 9), (9, 1), (1, 1)):
        for spacing in (30.0, 0.1):
            yield nx, ny, spacing, (0.0, 0.0)
    for seed, spacing in enumerate((30.0, 0.1, 7.3, 1 / 3, 12345.678) * 5):
        rng = np.random.default_rng(seed)
        nx, ny = (int(v) for v in rng.integers(1, 14, 2))
        yield nx, ny, spacing, tuple(rng.uniform(-1e5, 1e5, 2))


def dense_field(positions, model, normals):
    """Oracle: (L @ normals.T).T for numpy's Cholesky factor L of the
    cdist covariance."""
    return (np.linalg.cholesky(cdist_covariance(positions, model)) @ normals.T).T


# the paper's fitted model, a short-range one, and an ill-conditioned one whose
# covariance over the 36 x 71 grid has a condition number of about 2e8
MODELS = (MODEL, CorrelationModel(0.5, -0.01, 0.5, -1e-4, rmse=0.0),
          CorrelationModel(0.0, -0.05, 1.0, -1e-6, rmse=0.0))


def _normals(n, rows=3, seed=0):
    return np.random.default_rng(seed).standard_normal((rows, n))


class TestFieldFactor:
    @pytest.mark.parametrize("nx, ny, spacing, origin", list(_grids()))
    def test_covariance_equals_cdist_oracle(self, nx, ny, spacing, origin):
        # the blocks the kernel factors are the first block row of the oracle
        pos = _axis_grid(nx, ny, spacing, origin)
        blocks = _first_block_row(*_grid_axes(pos), MODEL)
        assert np.array_equal(np.hstack(blocks), cdist_covariance(pos, MODEL)[:nx])

    @pytest.mark.parametrize("model", MODELS)
    @pytest.mark.parametrize("nx, ny, spacing, origin", list(_grids()))
    def test_field_matches_dense_oracle(self, nx, ny, spacing, origin, model):
        pos = _axis_grid(nx, ny, spacing, origin)
        w = _normals(len(pos))
        assert np.max(np.abs(correlated_field_factor(pos, model, w)
                             - dense_field(pos, model, w))) <= 1e-9

    @pytest.mark.parametrize("model", MODELS)
    def test_field_matches_dense_oracle_at_paper_scale(self, model):
        pos = synthetic_grid_positions(36, 71, 30.0)
        w = _normals(len(pos), rows=10)
        assert np.max(np.abs(correlated_field_factor(pos, model, w)
                             - dense_field(pos, model, w))) <= 1e-9

    @pytest.mark.parametrize("model", MODELS)
    @pytest.mark.parametrize("nx", [1, 9, 50])
    def test_one_row_field_bit_equal(self, nx, model):
        pos = _axis_grid(nx, 1, 30.0)
        w = _normals(nx)
        assert np.array_equal(correlated_field_factor(pos, model, w),
                              dense_field(pos, model, w))

    def test_factor_reproduces_covariance(self):
        # applied to the identity the kernel gives L^T, L lower-triangular
        for nx, ny in ((5, 5), (6, 4), (1, 7)):
            pos = synthetic_grid_positions(nx, ny, 30.0)
            lt = correlated_field_factor(pos, MODEL, np.eye(len(pos)))
            assert np.array_equal(lt, np.triu(lt))
            assert np.allclose(lt.T @ lt, cdist_covariance(pos, MODEL), atol=1e-10)

    @pytest.mark.parametrize("positions", [
        np.random.default_rng(0).uniform(0, 300, (12, 2)),  # scattered
        np.random.default_rng(0).permutation(_axis_grid(4, 3, 30.0)),  # shuffled
        _axis_grid(4, 3, 30.0)[:, ::-1],  # column-major: y runs fastest
        _axis_grid(4, 3, 30.0)[:-1],  # a cell missing
        np.vstack([_axis_grid(4, 3, 30.0)[:5], [[45.0, 30.0]], _axis_grid(4, 3, 30.0)[6:]]),
        np.zeros((0, 2)),
        np.zeros((4, 3)),
        # a grid whose y steps differ: 30 m, then 30 m plus 1e-8 of a step
        np.column_stack([np.tile([0.0, 30.0], 3), np.repeat([0.0, 30.0, 60.0 + 3e-7], 2)]),
    ])
    def test_non_grid_positions_raise(self, positions):
        with pytest.raises(ValueError):
            correlated_field_factor(positions, MODEL, np.ones((1, len(positions))))

    def test_cell_limit(self):
        pos = synthetic_grid_positions(MAX_FIELD_CELLS + 1, 1, 30.0)
        with pytest.raises(ValueError, match="cell limit"):
            correlated_field_factor(pos, MODEL, np.ones((1, len(pos))))


class TestRankField:
    POS = synthetic_grid_positions(6, 6, 30.0)

    def test_deterministic_per_seed(self):
        a = synthetic_rank_field(self.POS, MODEL, ALTITUDES, THRESHOLDS, seed=42)
        b = synthetic_rank_field(self.POS, MODEL, ALTITUDES, THRESHOLDS, seed=42)
        assert np.array_equal(a.ranks, b.ranks)

    def test_seeds_differ(self):
        a = synthetic_rank_field(self.POS, MODEL, ALTITUDES, THRESHOLDS, seed=0)
        b = synthetic_rank_field(self.POS, MODEL, ALTITUDES, THRESHOLDS, seed=1)
        assert not np.array_equal(a.ranks, b.ranks)

    def test_rank_bounds(self):
        rg = synthetic_rank_field(self.POS, MODEL, ALTITUDES, THRESHOLDS, seed=5)
        assert rg.ranks.min() >= 1
        assert rg.ranks.max() <= 4

    def test_monotone_in_threshold(self):
        rg = synthetic_rank_field(self.POS, MODEL, ALTITUDES, THRESHOLDS, seed=7)
        assert np.all(np.diff(rg.ranks, axis=1) >= 0)

    def test_adjacent_altitudes_more_alike_than_distant(self):
        # AR(1) vertical chain: layer similarity decays with altitude gap
        agree_near = agree_far = 0
        for seed in range(30):
            rg = synthetic_rank_field(self.POS, MODEL, ALTITUDES, THRESHOLDS,
                                      seed=seed)
            agree_near += np.mean(rg.ranks[0, 1] == rg.ranks[1, 1])
            agree_far += np.mean(rg.ranks[0, 1] == rg.ranks[2, 1])
        assert agree_near > agree_far

    def test_metadata(self):
        rg = synthetic_rank_field(self.POS, MODEL, ALTITUDES, THRESHOLDS, seed=0)
        assert rg.altitudes_m == ALTITUDES
        assert rg.thresholds == THRESHOLDS
        assert rg.ranks.shape == (3, 3, 36)

    def test_memory_peak_at_paper_scale(self):
        # a single 2556 x 2556 float64 array would take 52 MB
        pos = synthetic_grid_positions(36, 71, 30.0)
        altitudes = tuple(np.arange(30.0, 111.0, 10.0))
        tracemalloc.start()
        try:
            synthetic_rank_field(pos, MODEL, altitudes, THRESHOLDS, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_nothing_drawn_over_the_cell_limit(self, monkeypatch):
        drawn = []
        default_rng = np.random.default_rng

        class SpyGenerator:
            def __init__(self, seed):
                self.rng = default_rng(seed)

            def standard_normal(self, size):
                drawn.append(size)
                return self.rng.standard_normal(size)

        monkeypatch.setattr(np.random, "default_rng", SpyGenerator)
        over = synthetic_grid_positions(MAX_FIELD_CELLS + 1, 1, 30.0)
        with pytest.raises(ValueError, match="8193 cells exceeds the 8192-cell limit"):
            synthetic_rank_field(over, MODEL, ALTITUDES, THRESHOLDS, seed=0)
        assert drawn == []
        # under the limit the spy sees the field's one draw
        synthetic_rank_field(self.POS, MODEL, ALTITUDES, THRESHOLDS, seed=0)
        assert drawn == [(len(ALTITUDES) + 1, len(self.POS))]


@pytest.fixture(scope="module")
def dense_factor():
    """numpy's Cholesky factor of the cdist covariance over the 36 x 71 grid."""
    pos = synthetic_grid_positions(36, 71, 30.0)
    return pos, np.linalg.cholesky(cdist_covariance(pos, MODEL))


@pytest.mark.parametrize("altitudes, thresholds, seeds", [
    pytest.param(tuple(np.arange(30.0, 111.0, 10.0)), (100.0,), range(20), id="test_06"),
    pytest.param(tuple(np.arange(30.0, 111.0, 10.0)), THRESHOLDS, range(50),
                 id="synth-default"),
    pytest.param((30.0, 70.0, 110.0), (100.0,), range(10), id="synth-loo"),
])
def test_rank_stacks_equal_dense_oracle(monkeypatch, dense_factor, altitudes, thresholds,
                                        seeds):
    pos, chol = dense_factor
    streamed = [synthetic_rank_field(pos, MODEL, altitudes, thresholds, seed=s).ranks
                for s in seeds]
    monkeypatch.setattr(synth, "correlated_field_factor",
                        lambda positions, model, normals: (chol @ normals.T).T)
    for s, ranks in zip(seeds, streamed):
        oracle = synthetic_rank_field(pos, MODEL, altitudes, thresholds, seed=s)
        assert np.array_equal(ranks, oracle.ranks)
