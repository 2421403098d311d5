"""MIMO channel synthesis, thresholded rank, and RSS."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uavrank.channel import (
    ChannelMatrix,
    OutOfCoverageError,
    channel_rank,
    rss,
    steering_vector,
    synthesize_channel,
)
from uavrank.raytrace import trace_paths
from uavrank.scene import ArrayConfig, Scene


def _mat(entries):
    return ChannelMatrix(np.asarray(entries, dtype=complex))


class TestSteeringVector:
    def test_first_element_is_unity(self):
        a = ArrayConfig(elements=4, spacing_wavelengths=0.5, axis=(0, 1, 0))
        v = steering_vector(a, (0.6, 0.8, 0.0), 0.1)
        assert v[0] == pytest.approx(1.0 + 0j)

    def test_broadside_all_ones(self):
        a = ArrayConfig(elements=4, spacing_wavelengths=0.5, axis=(0, 1, 0))
        v = steering_vector(a, (1.0, 0.0, 0.0), 0.1)  # orthogonal to the axis
        assert np.allclose(v, np.ones(4))

    def test_phase_progression(self):
        # element k carries phase 2*pi*k*spacing*(axis . dir)
        a = ArrayConfig(elements=3, spacing_wavelengths=0.5, axis=(0, 1, 0))
        d = np.array([0.0, 0.6, 0.8])
        v = steering_vector(a, d, 0.1)
        expected = np.exp(2j * np.pi * 0.5 * 0.6 * np.arange(3))
        assert np.allclose(v, expected)

    def test_unit_magnitude(self):
        a = ArrayConfig(elements=8, spacing_wavelengths=0.7, axis=(1, 1, 0))
        v = steering_vector(a, (0.0, 0.0, 1.0), 0.2)
        assert np.allclose(np.abs(v), 1.0)

    def test_rejects_non_unit_direction(self):
        a = ArrayConfig()
        with pytest.raises(ValueError):
            steering_vector(a, (1.0, 1.0, 0.0), 0.1)


class TestSynthesis:
    SCENE = Scene()

    def test_siso_single_path_equals_gain(self):
        paths = [p for p in trace_paths(self.SCENE, (0, 0, 10), (100, 0, 30))
                 if p.order == 0]
        one = ArrayConfig(elements=1)
        h = synthesize_channel(paths, one, one, self.SCENE.wavelength_m)
        assert h.entries.shape == (1, 1)
        assert h.entries[0, 0] == pytest.approx(paths[0].gain, rel=1e-12)

    def test_siso_multipath_is_coherent_sum(self):
        paths = trace_paths(self.SCENE, (0, 0, 10), (100, 0, 30))
        one = ArrayConfig(elements=1)
        h = synthesize_channel(paths, one, one, self.SCENE.wavelength_m)
        assert h.entries[0, 0] == pytest.approx(
            sum(p.gain for p in paths), rel=1e-12
        )

    def test_matrix_shape(self):
        paths = trace_paths(self.SCENE, (0, 0, 10), (100, 0, 30))
        h = synthesize_channel(
            paths, ArrayConfig(elements=4), ArrayConfig(elements=2),
            self.SCENE.wavelength_m,
        )
        assert h.entries.shape == (2, 4)

    def test_empty_paths_raise(self):
        with pytest.raises(OutOfCoverageError):
            synthesize_channel([], ArrayConfig(), ArrayConfig(), 0.09)

    def test_matrix_validation(self):
        with pytest.raises(ValueError):
            ChannelMatrix(np.ones(3, dtype=complex))
        with pytest.raises(ValueError):
            ChannelMatrix(np.array([[np.inf + 0j]]))


class TestSingularValues:
    def test_matches_eigendecomposition_oracle(self):
        # independent route: rank from the sqrt of eigenvalues of H^H H
        rng = np.random.default_rng(7)
        for _ in range(20):
            h = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            h[:, 3] = 1e-2 * h[:, 0] + 1e-4 * h[:, 3]  # a spread-out spectrum
            ev = np.sqrt(np.maximum(np.linalg.eigvalsh(h.conj().T @ h)[::-1], 0.0))
            for K in (10, 100, 1000, 1e5):
                assert channel_rank(_mat(h), K) == int(np.sum(ev > ev[0] / K))


class TestRank:
    def test_known_spectrum(self):
        h = _mat(np.diag([1.0, 0.05, 0.005, 0.0005]))
        assert channel_rank(h, 10) == 1
        assert channel_rank(h, 100) == 2
        assert channel_rank(h, 1000) == 3

    def test_threshold_is_strict(self):
        h = _mat(np.diag([1.0, 0.1]))
        assert channel_rank(h, 10) == 1  # 0.1 is not strictly above 1/10

    def test_scaling_invariance(self):
        rng = np.random.default_rng(3)
        h = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        base = channel_rank(_mat(h), 100)
        for c in (1e-6, 0.5, 3.0 + 4.0j, 1e6):
            assert channel_rank(_mat(c * h), 100) == base

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            channel_rank(_mat(np.eye(2)), 1.0)
        with pytest.raises(ValueError):
            channel_rank(_mat(np.zeros((2, 2))), 10)

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_rank_bounds_and_monotonicity(self, seed):
        rng = np.random.default_rng(seed)
        h = _mat(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
        ranks = [channel_rank(h, K) for K in (10, 100, 1000)]
        assert all(1 <= r <= 4 for r in ranks)
        assert ranks == sorted(ranks)  # larger K can only admit more components


class TestRSS:
    SCENE = Scene()

    def test_siso_two_ray_closed_form(self):
        paths = trace_paths(self.SCENE, (0, 0, 10), (100, 0, 30))
        one = ArrayConfig(elements=1)
        got = rss(paths, one, one, 10.0, self.SCENE.wavelength_m)
        p_rx = 10.0 * abs(sum(p.gain for p in paths)) ** 2
        assert got == pytest.approx(10 * np.log10(p_rx * 1e3), abs=1e-9)

    def test_los_only_friis(self):
        # receiver placed so the direct path is exactly 100 m long
        rx = (np.sqrt(100.0**2 - 20.0**2), 0.0, 30.0)
        paths = [p for p in trace_paths(self.SCENE, (0, 0, 10), rx) if p.order == 0]
        one = ArrayConfig(elements=1)
        got = rss(paths, one, one, 10.0, self.SCENE.wavelength_m)
        lam = self.SCENE.wavelength_m
        friis = 10 * np.log10(10.0 * 1e3 * (lam / (4 * np.pi * 100.0)) ** 2)
        assert got == pytest.approx(friis, abs=1e-9)

    def test_mimo_reduces_to_siso_for_single_elements(self):
        # one element has no steering phase, whatever the array geometry
        paths = trace_paths(self.SCENE, (0, 0, 10), (100, 40, 30))
        one = ArrayConfig(elements=1)
        tilted = ArrayConfig(elements=1, spacing_wavelengths=2.0, axis=(0, 0, 1))
        siso = 10 * np.log10(10.0 * 1e3 * abs(sum(p.gain for p in paths)) ** 2)
        for tx, rx in ((one, tilted), (tilted, one), (tilted, tilted)):
            got = rss(paths, tx, rx, 10.0, self.SCENE.wavelength_m)
            assert got == pytest.approx(siso, abs=1e-9)

    def test_perfect_null_gives_minus_inf(self):
        paths = [p for p in trace_paths(self.SCENE, (0, 0, 10), (100, 0, 30))
                 if p.order == 0]
        p = paths[0]
        import dataclasses

        cancel = dataclasses.replace(p, gain=-p.gain)
        one = ArrayConfig(elements=1)
        assert rss([p, cancel], one, one, 10.0, self.SCENE.wavelength_m) == -np.inf

    def test_empty_paths_raise(self):
        with pytest.raises(OutOfCoverageError):
            rss([], ArrayConfig(), ArrayConfig(), 10.0, 0.09)


def test_float_power_rounds_as_python_pow():
    # rss_dbm and the tracer's gains take x ** 2 and 10 ** x with
    # np.float_power, whose results must be those of the per-link code's
    # Python ** (libm pow) to the last bit; a numpy build that rounds
    # float_power otherwise fails here rather than changing the artifacts
    rng = np.random.default_rng(0)
    x = np.concatenate([
        rng.uniform(-1.0, 1.0, 100_000),  # sines and beam amplitudes
        10.0 ** rng.uniform(-170.0, -150.0, 10_000),  # squares underflow
        10.0 ** rng.uniform(100.0, 150.0, 10_000),  # large squares
    ])
    assert np.float_power(x, 2.0).tolist() == [v ** 2.0 for v in x.tolist()]
    e = -rng.uniform(0.0, 40.0, 100_000)  # -foliage_db / 20
    assert np.float_power(10.0, e).tolist() == [10.0 ** v for v in e.tolist()]
