"""Ordinary Kriging: variogram system, weight algebra, neighbor selection."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

from uavrank.correlation import CorrelationModel
from uavrank.kriging import (
    KrigingConfig,
    _variogram_system,
    krige_rank,
    select_neighbors,
    solve_weights,
)

MODEL = CorrelationModel(0.2932, -0.0508, 0.7057, -0.001, rmse=0.0)


def semivariogram(model, v2, pi, pj):
    """Oracle: gamma = v^2 * (1 - correlation(horizontal distance)), clamped at 0."""
    d = float(np.hypot(pi[0] - pj[0], pi[1] - pj[1]))
    return max(0.0, v2 * (1.0 - model(d)))


def hand_built_system(model, v2, samples, target):
    """Lagrange-augmented Kriging system assembled entry by entry."""
    m = len(samples)
    a = np.ones((m + 1, m + 1))
    for i in range(m):
        for j in range(m):
            a[i, j] = semivariogram(model, v2, samples[i], samples[j])
    a[m, m] = 0.0
    b = np.ones(m + 1)
    for i in range(m):
        b[i] = semivariogram(model, v2, samples[i], target)
    return a, b


class TestConfig:
    def test_defaults(self):
        cfg = KrigingConfig()
        assert cfg.M == 20
        assert cfg.r0_m == 150.0

    def test_validation(self):
        with pytest.raises(ValueError):
            KrigingConfig(M=0)
        for r0 in (0.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="r0 must be finite and > 0"):
                KrigingConfig(r0_m=r0)


class TestSemivariogram:
    """The variogram entries of the unit-sill system that solve_weights solves."""

    def test_at_zero_distance(self):
        # gamma(0) = 1 - phi(0); the model keeps a small nugget
        a, b = _variogram_system(np.array([[0.0, 0.0], [60.0, 0.0]]),
                                 np.array([0.0, 0.0]), MODEL)
        assert a[0, 0] == a[1, 1] == pytest.approx(1.0 - 0.9989, abs=1e-12)
        assert b[0] == pytest.approx(1.0 - 0.9989, abs=1e-12)

    def test_uses_horizontal_distance(self):
        d = 120.0
        a, b = _variogram_system(np.array([[0.0, 0.0], [0.0, d]]),
                                 np.array([d, 0.0]), MODEL)
        assert a[0, 1] == a[1, 0] == pytest.approx(1.0 - MODEL(d), abs=1e-12)
        assert b[0] == pytest.approx(1.0 - MODEL(d), abs=1e-12)

    def test_sample_distances_equal_cdist(self):
        # scattered samples over a wide range of scales: the matrix is the
        # one built on scipy's cdist, bit for bit
        rng = np.random.default_rng(3)
        for scale in (1e-3, 1.0, 30.0, 1e6):
            samples = rng.uniform(-1.0, 1.0, (20, 2)) * scale + rng.uniform(-1e5, 1e5)
            a, _ = _variogram_system(samples, samples[0], MODEL)
            want = np.maximum(0.0, 1.0 - MODEL(cdist(samples, samples)))
            np.testing.assert_array_equal(a[:20, :20], want)

    def test_clamped_at_zero(self):
        # phi(d) > 1 up to ~11 m, where the raw gamma would be negative.  The
        # sill v2 scales the whole system: the weights are the same bits for
        # every v2, and the multiplier is that of the v2-scaled system
        inflated = CorrelationModel(0.6, -0.01, 0.6, -0.001, rmse=0.0)  # phi(0)=1.2
        samples = np.array([[0.0, 0.0], [5.0, 0.0], [60.0, 0.0]])
        target = np.array([2.0, 0.0])
        assert 1.0 - inflated(5.0) < 0.0
        unit = solve_weights(samples, target, inflated, 1.0)
        for v2 in (0.1, 1.0, 1.3, 3.0):
            a, b = hand_built_system(inflated, v2, samples, target)
            assert a[0, 1] == 0.0 and b[0] == 0.0
            expected = np.linalg.solve(a, b)
            sol = solve_weights(samples, target, inflated, v2)
            assert not sol.fallback
            np.testing.assert_array_equal(sol.weights, unit.weights)
            assert np.allclose(sol.weights, expected[:3], atol=1e-10)
            assert sol.lagrange == pytest.approx(expected[3], abs=1e-10)


class TestSolveWeights:
    def test_weights_sum_to_one(self):
        samples = np.array([[0.0, 0.0], [60.0, 0.0], [0.0, 60.0], [90.0, 90.0]])
        sol = solve_weights(samples, (30.0, 30.0), MODEL, 1.5)
        assert sol.weights.sum() == pytest.approx(1.0, abs=1e-9)
        assert not sol.fallback

    def test_matches_hand_built_system(self):
        # dual route: assemble and solve the Lagrange system independently
        samples = np.array([[0.0, 0.0], [60.0, 0.0], [30.0, 90.0]])
        target = np.array([20.0, 10.0])
        v2 = 1.3
        m = len(samples)
        a, b = hand_built_system(MODEL, v2, samples, target)
        expected = np.linalg.solve(a, b)
        sol = solve_weights(samples, target, MODEL, v2)
        assert np.allclose(sol.weights, expected[:m], atol=1e-10)
        assert sol.lagrange == pytest.approx(expected[m], abs=1e-10)

    def test_exact_at_sample_location(self):
        samples = np.array([[0.0, 0.0], [60.0, 0.0], [0.0, 60.0]])
        sol = solve_weights(samples, samples[1], MODEL, 1.0)
        assert np.allclose(sol.weights, [0.0, 1.0, 0.0], atol=1e-9)

    def test_two_sample_symmetry(self):
        samples = np.array([[0.0, 0.0], [60.0, 0.0]])
        sol = solve_weights(samples, (30.0, 0.0), MODEL, 1.0)
        assert np.allclose(sol.weights, [0.5, 0.5], atol=1e-9)

    def test_single_sample(self):
        sol = solve_weights(np.array([[5.0, 5.0]]), (0.0, 0.0), MODEL, 1.0)
        assert np.allclose(sol.weights, [1.0])

    def test_duplicate_samples_fall_back(self):
        samples = np.array([[0.0, 0.0], [0.0, 0.0], [60.0, 0.0]])
        sol = solve_weights(samples, (50.0, 0.0), MODEL, 1.0)
        assert sol.fallback
        assert sol.weights.sum() == pytest.approx(1.0)
        assert sol.weights[2] == 1.0  # nearest sample takes all the weight

    def test_empty_samples(self):
        with pytest.raises(ValueError):
            solve_weights(np.zeros((0, 2)), (0.0, 0.0), MODEL, 1.0)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=50, deadline=None)
    def test_random_configs_sum_and_exactness(self, seed):
        rng = np.random.default_rng(seed)
        m = rng.integers(2, 9)
        samples = rng.uniform(0.0, 300.0, size=(m, 2))
        v2 = float(rng.uniform(0.1, 3.0))
        sol = solve_weights(samples, rng.uniform(0.0, 300.0, size=2), MODEL, v2)
        assert sol.weights.sum() == pytest.approx(1.0, abs=1e-9)
        j = int(rng.integers(m))
        at_sample = solve_weights(samples, samples[j], MODEL, v2)
        values = rng.uniform(1.0, 4.0, size=m)
        assert float(at_sample.weights @ values) == pytest.approx(
            values[j], abs=1e-9
        )


class TestSelectNeighbors:
    SAMPLES = np.array([[0.0, 0.0], [30.0, 0.0], [60.0, 0.0], [300.0, 0.0]])

    def test_radius_cutoff(self):
        idx = select_neighbors((0.0, 0.0), self.SAMPLES, KrigingConfig(M=20, r0_m=150))
        assert list(idx) == [0, 1, 2]  # the 300 m sample is out of range

    def test_m_cap_keeps_nearest(self):
        idx = select_neighbors((0.0, 0.0), self.SAMPLES, KrigingConfig(M=2, r0_m=150))
        assert list(idx) == [0, 1]

    def test_tie_breaks_to_lower_index(self):
        samples = np.array([[30.0, 0.0], [-30.0, 0.0], [0.0, 30.0]])
        idx = select_neighbors((0.0, 0.0), samples, KrigingConfig(M=1, r0_m=150))
        assert list(idx) == [0]

    def test_exclude_and_valid_mask(self):
        idx = select_neighbors(
            (0.0, 0.0), self.SAMPLES, KrigingConfig(M=20, r0_m=150),
            exclude=0, valid=np.array([True, False, True, True]),
        )
        assert list(idx) == [2]

    def test_empty_result(self):
        idx = select_neighbors((1000.0, 0.0), self.SAMPLES,
                               KrigingConfig(M=20, r0_m=150))
        assert len(idx) == 0


class TestKrigeRank:
    POS = np.array([[x * 30.0, y * 30.0] for y in range(5) for x in range(5)])

    def _stacks(self, rng):
        return rng.integers(1, 5, size=(len(self.POS), 4)).astype(float)

    def test_constant_field_reproduced(self):
        layer = np.full(len(self.POS), 3.0)
        stacks = np.column_stack([layer, layer + 1])  # nonzero altitude variance
        sol = krige_rank((45.0, 45.0), self.POS, layer, stacks,
                         KrigingConfig(M=20, r0_m=150), MODEL)
        assert sol.estimate == pytest.approx(3.0, abs=1e-9)

    def test_zero_variance_falls_back_to_nearest(self):
        layer = np.arange(len(self.POS), dtype=float)
        stacks = np.tile(layer[:, None], (1, 4))  # constant over altitude
        sol = krige_rank((31.0, 0.0), self.POS, layer, stacks,
                         KrigingConfig(M=20, r0_m=150), MODEL)
        assert sol.fallback
        assert sol.estimate == 1.0  # sample index 1 at (30, 0) is nearest

    def test_excluded_target_not_used(self):
        rng = np.random.default_rng(2)
        stacks = self._stacks(rng)
        layer = stacks[:, 0].copy()
        layer[12] = 99.0  # poison the held-out cell
        sol = krige_rank(self.POS[12], self.POS, layer, stacks,
                         KrigingConfig(M=20, r0_m=150), MODEL, exclude=12)
        assert 0.0 <= sol.estimate <= 10.0  # unaffected by the poisoned value

    def test_out_of_coverage_samples_skipped(self):
        rng = np.random.default_rng(3)
        stacks = self._stacks(rng)
        layer = stacks[:, 0].copy()
        layer[:24] = -1.0  # everything out of coverage except the last cell
        sol = krige_rank((110.0, 115.0), self.POS, layer, stacks,
                         KrigingConfig(M=20, r0_m=150), MODEL)
        assert sol.estimate == layer[24]

    def test_no_neighbors_raises(self):
        layer = np.full(len(self.POS), -1.0)
        with pytest.raises(ValueError):
            krige_rank((0.0, 0.0), self.POS, layer, np.ones((len(self.POS), 4)),
                       KrigingConfig(M=20, r0_m=150), MODEL)

    def test_uses_mean_neighbor_variance(self):
        # dual route: redo the estimate with an explicit v2 via solve_weights
        rng = np.random.default_rng(4)
        stacks = self._stacks(rng)
        layer = stacks[:, 0]
        cfg = KrigingConfig(M=6, r0_m=150)
        target = (44.0, 47.0)
        nbrs = select_neighbors(target, self.POS, cfg, valid=layer >= 0)
        v2 = float(np.mean(np.var(stacks[nbrs], axis=1, ddof=1)))
        expected = float(
            solve_weights(self.POS[nbrs], target, MODEL, v2).weights @ layer[nbrs]
        )
        sol = krige_rank(target, self.POS, layer, stacks, cfg, MODEL)
        assert sol.estimate == pytest.approx(expected, abs=1e-10)
