"""Rank-vector construction, binned correlations, and the bi-exponential fit."""

import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uavrank.correlation import (
    CorrelationModel,
    bin_correlations,
    bins_to_csv,
    build_rank_vectors,
    evaluate_model,
    fit_biexponential,
    fit_correlation_model,
)
from uavrank.covermap import RankGrid, Z_RANK

REF_COEFFS = (0.2932, -0.0508, 0.7057, -0.001)


def _grid(ranks, positions=None):
    ranks = np.asarray(ranks)
    n_h, n_k, n_loc = ranks.shape
    if positions is None:
        positions = np.column_stack([np.arange(n_loc) * 30.0, np.zeros(n_loc)])
    return RankGrid(positions, tuple(30.0 + 10.0 * np.arange(n_h)),
                    tuple(10.0 ** (1 + np.arange(n_k))), ranks,
                    np.zeros(n_loc, dtype=int))


class TestModel:
    def test_value_at_zero(self):
        m = CorrelationModel(*REF_COEFFS, rmse=0.0)
        assert m(0.0) == pytest.approx(0.9989, abs=1e-12)

    def test_value_at_500(self):
        # 0.2932 e^{-25.4} + 0.7057 e^{-0.5}, evaluated by hand
        m = CorrelationModel(*REF_COEFFS, rmse=0.0)
        assert m(500.0) == pytest.approx(0.4280286865619349, abs=1e-12)

    def test_array_evaluation(self):
        m = CorrelationModel(*REF_COEFFS, rmse=0.0)
        d = np.array([0.0, 100.0, 500.0])
        out = m(d)
        assert out.shape == (3,)
        assert np.all(np.diff(out) < 0)  # decaying with distance

    def test_evaluate_model_matches_direct_formula(self):
        c = (0.3, -0.01, 0.6, -0.002)
        for d in (0.0, 17.0, 321.0):
            expected = 0.3 * np.exp(-0.01 * d) + 0.6 * np.exp(-0.002 * d)
            assert evaluate_model(c, d) == pytest.approx(expected, rel=1e-12)

    def test_json_round_trip(self):
        m = CorrelationModel(0.3, -0.05, 0.7, -0.001, rmse=0.012, max_distance_m=400.0)
        m2 = CorrelationModel.from_json(m.to_json())
        assert m2 == m


class TestRankVectors:
    def test_stacking_order(self):
        # 2 altitudes, 2 thresholds, 1 location: [K1 h1, K1 h2, K2 h1, K2 h2]
        ranks = np.zeros((2, 2, 1), dtype=int)
        ranks[0, 0, 0] = 1  # h1 K1
        ranks[1, 0, 0] = 2  # h2 K1
        ranks[0, 1, 0] = 3  # h1 K2
        ranks[1, 1, 0] = 4  # h2 K2
        idx, vec = build_rank_vectors(_grid(ranks))
        assert list(idx) == [0]
        assert list(vec[0]) == [1, 2, 3, 4]

    def test_exclude_policy_drops_partial_locations(self):
        ranks = np.ones((2, 1, 3), dtype=int)
        ranks[1, 0, 1] = Z_RANK
        idx, vec = build_rank_vectors(_grid(ranks), z_policy="exclude")
        assert list(idx) == [0, 2]
        assert vec.shape == (2, 2)

    def test_rank0_policy_keeps_all_locations(self):
        ranks = np.ones((2, 1, 3), dtype=int)
        ranks[1, 0, 1] = Z_RANK
        idx, vec = build_rank_vectors(_grid(ranks), z_policy="rank0")
        assert list(idx) == [0, 1, 2]
        assert vec[1, 1] == 0.0

    def test_unknown_policy(self):
        with pytest.raises(ValueError):
            build_rank_vectors(_grid(np.ones((1, 1, 1), dtype=int)), z_policy="drop")


class TestBinning:
    def test_three_point_line_by_hand(self):
        vectors = np.array([
            [1.0, 2.0, 3.0, 4.0],
            [1.0, 2.0, 4.0, 3.0],
            [4.0, 3.0, 2.0, 1.0],
        ])
        positions = np.array([[0.0, 0.0], [30.0, 0.0], [60.0, 0.0]])
        dists, means, counts = bin_correlations(vectors, positions, 30.0)
        assert np.allclose(dists, [0.0, 30.0, 60.0])
        assert list(counts) == [3, 2, 1]
        assert means[0] == pytest.approx(1.0, abs=1e-12)  # self-pairs
        expected_30 = np.mean([
            np.corrcoef(vectors[0], vectors[1])[0, 1],
            np.corrcoef(vectors[1], vectors[2])[0, 1],
        ])
        assert means[1] == pytest.approx(expected_30, abs=1e-12)
        assert means[2] == pytest.approx(
            np.corrcoef(vectors[0], vectors[2])[0, 1], abs=1e-12
        )

    def test_max_distance_cutoff(self):
        vectors = np.tile([[1.0, 2.0, 4.0]], (2, 1))
        positions = np.array([[0.0, 0.0], [600.0, 0.0]])
        dists, means, counts = bin_correlations(vectors, positions, 30.0,
                                                max_distance_m=500.0)
        assert np.allclose(dists, [0.0])  # the 600 m pair is dropped

    def test_distances_snap_to_grid_multiples(self):
        vectors = np.array([[1.0, 2.0, 3.0], [3.0, 1.0, 2.0]])
        positions = np.array([[0.0, 0.0], [40.0, 0.0]])  # 40 m snaps to 30 m
        dists, _, _ = bin_correlations(vectors, positions, 30.0)
        assert np.allclose(dists, [0.0, 30.0])

    def test_constant_vectors_skipped(self):
        vectors = np.array([[1.0, 1.0, 1.0], [1.0, 2.0, 3.0]])
        positions = np.array([[0.0, 0.0], [30.0, 0.0]])
        dists, means, counts = bin_correlations(vectors, positions, 30.0)
        assert np.allclose(dists, [0.0])
        assert list(counts) == [1]

    def test_bins_never_outnumber_pairs(self):
        # a 1 x 5 line: its 15 pairs fill the bins 0, 30, ..., 120 m
        vectors = np.random.default_rng(0).uniform(1.0, 4.0, size=(5, 6))
        positions = np.column_stack([30.0 * np.arange(5), np.zeros(5)])
        dists, _, counts = bin_correlations(vectors, positions, 30.0)
        assert np.allclose(dists, 30.0 * np.arange(5)) and counts.sum() == 15
        # a spacing of 1 mm would need 120001 bins for the same 15 pairs
        with pytest.raises(ValueError, match="15 correlation pairs span 120001 distance bins"):
            bin_correlations(vectors, positions, 1e-3)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            bin_correlations(np.ones((2, 3)), np.zeros((3, 2)), 30.0)


class TestFit:
    def _canonical(self, c1, c2, c3, c4):
        # order components by decay rate so comparisons survive a swap
        return (c1, c2, c3, c4) if c2 <= c4 else (c3, c4, c1, c2)

    def test_exact_round_trip(self):
        d = np.arange(0.0, 481.0, 30.0)
        phi = evaluate_model(REF_COEFFS, d)
        got = self._canonical(*fit_biexponential(d, phi)[:4])
        want = self._canonical(*REF_COEFFS)
        for g, w in zip(got, want):
            assert g == pytest.approx(w, rel=1e-2)
        assert fit_biexponential(d, phi)[4] < 1e-6

    def test_noisy_fit_is_close(self):
        rng = np.random.default_rng(5)
        d = np.arange(0.0, 481.0, 30.0)
        phi = evaluate_model(REF_COEFFS, d) + rng.normal(scale=1e-4, size=len(d))
        model = fit_correlation_model(d, phi)
        assert model(0.0) == pytest.approx(0.9989, abs=1e-3)
        assert model.rmse < 1e-3

    def test_too_few_bins(self):
        with pytest.raises(ValueError):
            fit_biexponential([0.0, 30.0, 60.0], [1.0, 0.9, 0.8])

    def test_growing_fit_logs_a_warning(self, caplog):
        # hand-made bins whose correlation grows with distance
        d = np.arange(0.0, 481.0, 30.0)
        phi = 0.3 + 0.002 * d
        with caplog.at_level(logging.WARNING, logger="uavrank.correlation"):
            model = fit_correlation_model(d, phi)
        assert model.c2 > 0 or model.c4 > 0
        # flagged, not changed
        assert (model.c1, model.c2, model.c3, model.c4, model.rmse) == fit_biexponential(d, phi)
        [record] = caplog.records
        assert record.name == "uavrank.correlation" and record.levelno == logging.WARNING
        assert "growing exponential" in record.getMessage()

    def test_decaying_fit_logs_nothing(self, caplog):
        d = np.arange(0.0, 481.0, 30.0)
        with caplog.at_level(logging.DEBUG, logger="uavrank.correlation"):
            model = fit_correlation_model(d, evaluate_model(REF_COEFFS, d))
        assert model.c2 < 0 and model.c4 < 0
        assert not caplog.records

    @given(
        c1=st.floats(min_value=0.1, max_value=0.5),
        lam1=st.floats(min_value=0.01, max_value=0.1),
        c3=st.floats(min_value=0.4, max_value=0.8),
        lam2=st.floats(min_value=0.0005, max_value=0.005),
    )
    @settings(max_examples=20, deadline=None)
    def test_round_trip_property(self, c1, lam1, c3, lam2):
        coeffs = (c1, -lam1, c3, -lam2)
        d = np.arange(0.0, 481.0, 30.0)
        phi = evaluate_model(coeffs, d)
        fit = fit_biexponential(d, phi)
        # the fitted curve must reproduce the data even if components swap
        assert np.allclose(evaluate_model(fit[:4], d), phi, atol=1e-6)


class TestCsv:
    def test_format(self):
        text = bins_to_csv([0.0, 30.0], [1.0, 0.95], [10, 20])
        lines = text.splitlines()
        assert lines[0] == "distance_m,mean_correlation,pair_count"
        assert lines[1] == "0.000,1.000000000,10"
        assert lines[2] == "30.000,0.950000000,20"
