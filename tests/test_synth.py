"""Seeded synthetic rank fields with a prescribed spatial covariance."""

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from uavrank.correlation import CorrelationModel
from uavrank.synth import (
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


class TestFieldFactor:
    def test_factor_reproduces_covariance(self):
        pos = synthetic_grid_positions(5, 5, 30.0)
        chol = correlated_field_factor(pos, MODEL)
        cov = MODEL(cdist(pos, pos))
        cov[np.diag_indices_from(cov)] = MODEL(0.0) + 1e-6
        assert np.allclose(chol @ chol.T, cov, atol=1e-10)
        assert np.allclose(chol, np.tril(chol))  # lower-triangular factor


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
