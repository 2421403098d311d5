"""Rank-vector construction, binned correlations, and the bi-exponential fit,
with scipy's cdist and least_squares as the oracles of the distances and the
fit."""

import importlib.util
import json
import logging
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import least_squares
from scipy.spatial.distance import cdist

from uavrank import correlation
from uavrank.correlation import (
    CorrelationModel,
    bin_correlations,
    bins_to_csv,
    build_rank_vectors,
    evaluate_model,
    fit_biexponential,
    fit_correlation_model,
)
from uavrank.covermap import (
    RankGrid,
    Z_RANK,
    compute_rank_grid,
    rank_grid_from_json,
    rank_grid_to_json,
)
from uavrank.scene import load_scene
from uavrank.synth import synthetic_grid_positions, synthetic_rank_field

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
        # nothing at INFO or above; the fit's DEBUG line is TestFitOracle's
        d = np.arange(0.0, 481.0, 30.0)
        with caplog.at_level(logging.INFO, logger="uavrank.correlation"):
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


def _workloads():
    """The benchmark's stdlib-only input generators, bench/workloads.py."""
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    # its dataclass resolves annotations through sys.modules
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def _bins(rg, z_policy="exclude"):
    idx, vectors = build_rank_vectors(rg, z_policy=z_policy)
    d, phi, _ = bin_correlations(vectors, rg.positions[idx], 30.0)
    return d, phi


def _oracle_fit(d, phi):
    """fit_biexponential as scipy's least_squares makes it: (x, nfev, rmse)."""
    phi0 = phi[np.argmin(d)]
    x0 = np.array([0.5 * phi0, -0.05, 0.5 * phi0, -0.001])

    def residuals(c):
        return evaluate_model(c, d) - phi

    sol = least_squares(residuals, x0, method="lm", xtol=1e-14, ftol=1e-14,
                        gtol=1e-14, max_nfev=2500)
    return sol.x, sol.nfev, float(np.sqrt(np.mean(residuals(sol.x) ** 2)))


@pytest.fixture(scope="module")
def fit_corpus():
    """69 binned inputs: synth seeds 0-11 with 3 altitudes x K = 100 and 9
    altitudes x 3 K on the 36 x 71 grid, the urban-rank rank grids of seeds
    0-5 under both z-policies, the exact, noisy and growing bins of TestFit
    and 30 round-trip cases."""
    corpus = {}
    pos = synthetic_grid_positions(36, 71, 30.0)
    model = CorrelationModel(*REF_COEFFS, rmse=0.0)
    for seed in range(12):
        for alts, ks in (((30.0, 70.0, 110.0), (100.0,)),
                         (tuple(30.0 + 10.0 * np.arange(9)), (10.0, 100.0, 1000.0))):
            rg = synthetic_rank_field(pos, model, alts, ks, seed=seed)
            corpus[f"synth-{seed}-{len(alts)}x{len(ks)}"] = _bins(rg)
    workloads = _workloads()
    for seed in range(6):
        scene = load_scene(json.dumps(workloads.urban_scene(seed, 330.0)))
        rg = compute_rank_grid(scene, thresholds=(10.0, 100.0, 1000.0),
                               altitudes_m=scene.altitudes_m)
        rg = rank_grid_from_json(rank_grid_to_json(rg))
        for z_policy in ("exclude", "rank0"):
            corpus[f"urban-{seed}-{z_policy}"] = _bins(rg, z_policy)
    d = np.arange(0.0, 481.0, 30.0)
    corpus["exact"] = d, evaluate_model(REF_COEFFS, d)
    corpus["noisy"] = d, (evaluate_model(REF_COEFFS, d)
                          + np.random.default_rng(5).normal(scale=1e-4, size=len(d)))
    corpus["growing"] = d, 0.3 + 0.002 * d
    rng = np.random.default_rng(0)
    for k in range(30):
        coeffs = (rng.uniform(0.1, 0.5), -rng.uniform(0.01, 0.1),
                  rng.uniform(0.4, 0.8), -rng.uniform(0.0005, 0.005))
        corpus[f"round-trip-{k}"] = d, evaluate_model(coeffs, d)
    assert len(corpus) == 69
    return corpus


class TestFitOracle:
    """The in-repo MINPACK lmder port against scipy's least_squares."""

    def test_equals_least_squares(self, fit_corpus):
        infos = set()
        for name, (d, phi) in fit_corpus.items():
            x, nfev, rmse = _oracle_fit(d, phi)
            c, got_rmse, info, got_nfev = correlation._fit(d, phi)
            assert np.array_equal(c, x), name
            assert (got_nfev, got_rmse) == (nfev, rmse), name
            assert fit_biexponential(d, phi) == (*x.tolist(), rmse), name
            infos.add(info)
        # the corpus stops on the relative reduction, the step bound, the
        # gradient (round-trip case 12) and the evaluation cap (the growing
        # bins)
        assert infos == {1, 2, 4, 5}

    def test_pivot_norm_recomputed_as_scipy_does(self):
        # bins whose two terms merge (c2 -> c4): the Jacobian's columns
        # nearly coincide, and qrfac recomputes a downdated pivot norm over
        # one value past its column, as scipy's C translation reads it
        d = np.array([0.0, 12.0, 13.0, 14.0, 15.0, 16.0, 19.0, 22.0, 33.0, 34.0, 35.0,
                      41.0, 49.0, 50.0, 53.0, 56.0, 58.0])
        phi = np.array([
            0.0559767263520012, 0.1123138945005002, 0.17021050658485512,
            0.22716511183860816, 0.28427905122397523, 0.34141428381765376,
            0.3965757199979803, 0.45265661466854057, 0.5106557177717564,
            0.5688572521547793, 0.6242175915340936, 0.6810308449358073,
            0.734116071172266, 0.7884875349327451, 0.8459237684579444,
            0.9037699816713621, 0.9614255308735435])
        x, nfev, rmse = _oracle_fit(d, phi)
        c, got_rmse, _, got_nfev = correlation._fit(d, phi)
        assert np.array_equal(c, x) and (got_nfev, got_rmse) == (nfev, rmse)
        assert nfev == 34

    def test_overflowing_bins_follow_scipy(self):
        # bins of order 1e257: squared residuals overflow, a step's predicted
        # reduction becomes NaN, and the C's comparisons neither shrink the
        # step bound nor accept the step on it, so the fit runs to the cap
        d = np.array([90.0, 240.0, 300.0, 390.0, 420.0, 570.0, 630.0, 660.0, 750.0, 780.0,
                      870.0, 990.0, 1170.0, 1290.0, 1380.0, 1590.0, 1650.0])
        phi = 1e257 * np.array([
            7.59506536281574, -0.7843013140082867, 7.683851117037646, -9.699092007123899,
            6.319430534407158, -1.750961496744621, 5.728460079228688, 8.169847458421682,
            2.12177435242654, 3.7790043929133457, -7.281244603194504, 5.461988818222845,
            -9.828444906632202, 1.5733245073806557, -0.3702181173439967,
            -0.7241071492054552, -3.3005005511817375])
        with np.errstate(over="ignore", invalid="ignore"):
            x, nfev, rmse = _oracle_fit(d, phi)
        c, got_rmse, info, got_nfev = correlation._fit(d, phi)
        assert np.array_equal(c, x) and (got_nfev, got_rmse, info) == (nfev, rmse, 5)

    def test_growing_bins_stop_at_the_evaluation_cap(self, fit_corpus):
        _, _, info, nfev = correlation._fit(*fit_corpus["growing"])
        assert (info, nfev) == (5, 2500)

    def test_logs_stop_code_evaluations_and_rmse(self, caplog):
        # the synth-loo input of seed 0: 18 evaluations, as least_squares
        rg = synthetic_rank_field(synthetic_grid_positions(36, 71, 30.0),
                                  CorrelationModel(*REF_COEFFS, rmse=0.0),
                                  (30.0, 70.0, 110.0), (100.0,), seed=0)
        d, phi = _bins(rg)
        with caplog.at_level(logging.DEBUG, logger="uavrank.correlation"):
            model = fit_correlation_model(d, phi)
        [record] = caplog.records
        assert record.levelno == logging.DEBUG
        _, nfev, rmse = _oracle_fit(d, phi)
        assert nfev == 18 and record.args[1:] == (nfev, model.rmse) and rmse == model.rmse

    def test_non_finite_start_residuals_are_an_input_error(self):
        d = np.arange(0.0, 481.0, 30.0)
        phi = evaluate_model(REF_COEFFS, d)
        phi[3] = np.nan
        with pytest.raises(ValueError, match="not finite"):
            fit_biexponential(d, phi)


class TestDistances:
    def test_equal_cdist(self):
        rng = np.random.default_rng(0)
        grids = [synthetic_grid_positions(13, 9, spacing) + offset
                 for spacing in (30.0, 0.1, 7.3, 1 / 3, 12345.678)
                 for offset in (0.0, 1e6, -3.7e5)]
        scattered = [rng.uniform(-1e6, 1e6, (150, 2)),
                     rng.uniform(-1, 1, (150, 2)) * 10.0 ** rng.integers(-8, 9, (150, 1)),
                     np.round(rng.uniform(-50, 50, (150, 2)) * 2000) / 2000 + 0.0005]
        for pos in grids + scattered:
            assert np.array_equal(correlation._distances(pos, pos), cdist(pos, pos))

    def test_row_blocks_equal_one_block(self, monkeypatch):
        rg = synthetic_rank_field(synthetic_grid_positions(12, 9, 30.0),
                                  CorrelationModel(*REF_COEFFS, rmse=0.0),
                                  (30.0, 70.0, 110.0), (100.0,), seed=1)
        idx, vectors = build_rank_vectors(rg)
        whole = bin_correlations(vectors, rg.positions[idx], 30.0)
        for entries in (1, 7 * len(idx), 10**9):
            monkeypatch.setattr(correlation, "_DISTANCE_ENTRIES", entries)
            for got, want in zip(bin_correlations(vectors, rg.positions[idx], 30.0), whole):
                assert np.array_equal(got, want)
