"""Seeded synthetic rank fields with a prescribed spatial covariance."""

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from uavrank.correlation import CorrelationModel
from uavrank.synth import (
    MAX_FIELD_CELLS,
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


def _factored_covariance(monkeypatch, positions):
    """The matrix correlated_field_factor hands to the Cholesky routine."""
    seen = []
    cholesky = np.linalg.cholesky

    def spy(a):
        seen.append(a.copy())
        return cholesky(a)

    monkeypatch.setattr(np.linalg, "cholesky", spy)
    correlated_field_factor(positions, MODEL)
    monkeypatch.undo()
    [cov] = seen
    return cov


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


class TestFieldFactor:
    @pytest.mark.parametrize("nx, ny, spacing, origin", list(_grids()))
    def test_covariance_equals_cdist_oracle(self, monkeypatch, nx, ny, spacing, origin):
        pos = _axis_grid(nx, ny, spacing, origin)
        assert np.array_equal(_factored_covariance(monkeypatch, pos),
                              cdist_covariance(pos, MODEL))

    def test_factor_byte_equal_at_paper_scale(self):
        pos = synthetic_grid_positions(36, 71, 30.0)
        chol = correlated_field_factor(pos, MODEL)
        assert np.array_equal(chol, np.linalg.cholesky(cdist_covariance(pos, MODEL)))

    def test_factor_reproduces_covariance(self):
        pos = synthetic_grid_positions(5, 5, 30.0)
        chol = correlated_field_factor(pos, MODEL)
        assert np.allclose(chol @ chol.T, cdist_covariance(pos, MODEL), atol=1e-10)
        assert np.allclose(chol, np.tril(chol))  # lower-triangular factor

    @pytest.mark.parametrize("positions", [
        np.random.default_rng(0).uniform(0, 300, (12, 2)),  # scattered
        np.random.default_rng(0).permutation(_axis_grid(4, 3, 30.0)),  # shuffled
        _axis_grid(4, 3, 30.0)[:, ::-1],  # column-major: y runs fastest
        _axis_grid(4, 3, 30.0)[:-1],  # a cell missing
        np.vstack([_axis_grid(4, 3, 30.0)[:5], [[45.0, 30.0]], _axis_grid(4, 3, 30.0)[6:]]),
        np.zeros((0, 2)),
        np.zeros((4, 3)),
    ])
    def test_non_grid_positions_raise(self, positions):
        with pytest.raises(ValueError):
            correlated_field_factor(positions, MODEL)

    def test_cell_limit(self):
        pos = synthetic_grid_positions(MAX_FIELD_CELLS + 1, 1, 30.0)
        with pytest.raises(ValueError, match="cell limit"):
            correlated_field_factor(pos, MODEL)


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

    def test_precomputed_factor_matches(self):
        chol = correlated_field_factor(self.POS, MODEL)
        a = synthetic_rank_field(self.POS, MODEL, ALTITUDES, THRESHOLDS, seed=3)
        b = synthetic_rank_field(self.POS, MODEL, ALTITUDES, THRESHOLDS, seed=3,
                                 chol=chol)
        assert np.array_equal(a.ranks, b.ranks)

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
