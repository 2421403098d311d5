"""End-to-end acceptance suite.

Each test covers one release criterion and prints a single PASS/FAIL line so
the run log doubles as a checklist.  Analytic values are frozen from
closed-form derivations; oracle comparisons recompute the same quantity by an
independent route (eigendecomposition vs SVD, hand-assembled linear systems,
seeded reference experiments).
"""

import json
import time
from contextlib import contextmanager

import numpy as np
import pytest

from uavrank.channel import ChannelMatrix, channel_rank, rss, synthesize_channel
from uavrank.cli import main
from uavrank.correlation import CorrelationModel, evaluate_model, fit_biexponential
from uavrank.covermap import compute_coverage, compute_rank_grid
from uavrank.evaluate import Trace, calibrate_offset, loo_evaluate
from uavrank.kriging import KrigingConfig, solve_weights
from uavrank.raytrace import fresnel_reflection, trace_paths
from uavrank.scene import (
    BUILTIN_MATERIALS,
    ArrayConfig,
    Scene,
    Tower,
    Tree,
    permittivity,
    serialize_scene,
)
from uavrank.synth import (
    correlated_field_factor,
    synthetic_grid_positions,
    synthetic_rank_field,
)

REF_COEFFS = (0.2932, -0.0508, 0.7057, -0.001)
MODEL = CorrelationModel(*REF_COEFFS, rmse=0.0)


@contextmanager
def criterion(label):
    try:
        yield
    except BaseException:
        print(f"\nFAIL  {label}")
        raise
    else:
        print(f"\nPASS  {label}")


def test_01_two_ray_geometry_and_friis():
    with criterion("criterion 1: two-ray geometry and free-space RSS"):
        t0 = time.perf_counter()
        flat = Scene()
        paths = {p.kind: p for p in trace_paths(flat, (0, 0, 10), (100, 0, 30))}
        assert abs(paths["los"].length - 101.9803902718557) < 1e-6
        assert abs(paths["reflected"].length - 107.70329614269008) < 1e-6

        # receiver placed so the direct path is exactly 100 m long
        rx = (np.sqrt(100.0**2 - 20.0**2), 0.0, 30.0)
        los = [p for p in trace_paths(flat, (0, 0, 10), rx) if p.order == 0]
        one = ArrayConfig(elements=1)
        got = rss(los, one, one, 10.0, flat.wavelength_m)
        lam = flat.wavelength_m
        friis_dbm = 10 * np.log10(10.0 * 1e3 * (lam / (4 * np.pi * 100.0)) ** 2)
        assert friis_dbm == pytest.approx(-43.08, abs=0.01)
        assert got == pytest.approx(friis_dbm, abs=0.01)
        assert time.perf_counter() - t0 < 1.0


def test_02_fresnel_coefficients():
    with criterion("criterion 2: Fresnel normal incidence and grazing limit"):
        for pol in ("TE", "TM"):
            g = fresnel_reflection(5.0 + 0j, 0.0, pol)
            assert abs(g - (-0.38197)) < 1e-6 or abs(g.real + 0.38196601) < 1e-6
            assert abs(g.real - (1 - np.sqrt(5)) / (1 + np.sqrt(5))) < 1e-9
        # grazing with the default ground permittivity at 3.4 GHz
        eps = permittivity(BUILTIN_MATERIALS["medium_dry_ground"], 3.4e9)
        g = fresnel_reflection(eps, np.deg2rad(89.9), "TE")
        assert abs(g + 1.0) < 1e-3


def test_03_rank_law_against_svd_oracle():
    with criterion("criterion 3: thresholded rank vs brute-force SVD oracle"):
        t0 = time.perf_counter()
        rng = np.random.default_rng(12345)
        for _ in range(1000):
            h = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            cm = ChannelMatrix(h)
            # independent oracle: singular values from the eigendecomposition
            sv = np.sqrt(np.maximum(np.linalg.eigvalsh(h.conj().T @ h)[::-1], 0.0))
            ranks = []
            for K in (10.0, 100.0, 1000.0):
                oracle = int(np.sum(sv > sv[0] / K))
                got = channel_rank(cm, K)
                assert got == oracle
                ranks.append(got)
            assert ranks == sorted(ranks)  # monotone in K
        h = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        base = channel_rank(ChannelMatrix(h), 100.0)
        for _ in range(100):
            c = complex(rng.normal(), rng.normal())
            if abs(c) < 1e-6:
                continue
            assert channel_rank(ChannelMatrix(c * h), 100.0) == base
        assert time.perf_counter() - t0 < 10.0


def test_04_biexponential_round_trip():
    with criterion("criterion 4: bi-exponential fit round-trip and model values"):
        d = np.arange(0.0, 481.0, 30.0)
        phi = evaluate_model(REF_COEFFS, d)
        c1, c2, c3, c4, rmse = fit_biexponential(d, phi)
        # order components by decay rate before comparing, in case they swap
        fit = (c1, c2, c3, c4) if c2 <= c4 else (c3, c4, c1, c2)
        ref = REF_COEFFS if REF_COEFFS[1] <= REF_COEFFS[3] else (
            REF_COEFFS[2], REF_COEFFS[3], REF_COEFFS[0], REF_COEFFS[1]
        )
        for g, w in zip(fit, ref):
            assert abs(g - w) <= 0.01 * abs(w)
        assert rmse < 1e-6
        assert MODEL(0.0) == pytest.approx(0.9989, abs=1e-4)
        assert MODEL(500.0) == pytest.approx(0.4280, abs=1e-3)


def test_05_kriging_weight_algebra():
    with criterion("criterion 5: Kriging weight sum, exactness, symmetry"):
        rng = np.random.default_rng(777)
        for _ in range(1000):
            m = int(rng.integers(2, 9))
            samples = rng.uniform(0.0, 300.0, size=(m, 2))
            v2 = float(rng.uniform(0.1, 3.0))
            target = rng.uniform(0.0, 300.0, size=2)
            sol = solve_weights(samples, target, MODEL, v2)
            assert abs(sol.weights.sum() - 1.0) < 1e-9
            # exactness: estimating at a sample location returns its value
            j = int(rng.integers(m))
            at = solve_weights(samples, samples[j], MODEL, v2)
            values = rng.uniform(1.0, 4.0, size=m)
            assert abs(float(at.weights @ values) - values[j]) < 1e-9
        # two equidistant samples share the weight equally
        sym = solve_weights(np.array([[0.0, 0.0], [60.0, 0.0]]),
                            (30.0, 0.0), MODEL, 1.0)
        assert np.allclose(sym.weights, [0.5, 0.5], atol=1e-9)


def test_06_kriging_beats_baselines_on_synthetic_fields():
    with criterion("criterion 6: Kriging LOO MAE vs spline/makima on 20 seeds"):
        t0 = time.perf_counter()
        positions = synthetic_grid_positions(36, 71, 30.0)
        chol = correlated_field_factor(positions, MODEL)
        altitudes = tuple(np.arange(30.0, 111.0, 10.0))
        cfg = KrigingConfig(M=20, r0_m=150.0)
        results = {m: [] for m in ("kriging", "spline", "makima")}
        for seed in range(20):
            rg = synthetic_rank_field(positions, MODEL, altitudes, (100.0,),
                                      seed=seed, chol=chol)
            for method in results:
                rep = loo_evaluate(rg, method, cfg, MODEL,
                                   altitudes_m=(70.0,), thresholds=(100.0,))
                results[method].append(rep.mae(70.0, 100.0))
        k = np.array(results["kriging"])
        for baseline in ("spline", "makima"):
            b = np.array(results[baseline])
            assert k.mean() <= b.mean()
            assert int(np.sum(k < b)) >= 16
        assert time.perf_counter() - t0 < 300.0


def test_07_tree_belt_blockage_monotone_in_altitude():
    with criterion("criterion 7: foliage blockage decreases with altitude"):
        # two cross-scene trunk walls, the farther one taller, between the
        # tower and the northern half of the grid
        trees = tuple(
            Tree(x=x, y=y, trunk_radius=1.0, trunk_height=th,
                 canopy_height=10.0, canopy_base_radius=3.0)
            for y, th in ((300.0, 15.0), (480.0, 60.0))
            for x in np.arange(-2.0, 603.0, 1.8)
        )
        s = Scene(extent_m=(600.0, 600.0), grid_spacing_m=60.0,
                  altitudes_m=(3.0, 30.0, 70.0, 110.0),
                  towers=(Tower(id=1, x=300.0, y=30.0, height=10.0),),
                  trees=trees)
        fractions = [
            compute_coverage(s, s.towers[0], h).blockage_fraction
            for h in (3.0, 30.0, 70.0, 110.0)
        ]
        assert fractions[0] > fractions[-1]
        assert all(a >= b for a, b in zip(fractions, fractions[1:]))


def test_08_near_far_rank_structure():
    with criterion("criterion 8: rank 2 near the tower, rank 1 far, vs oracle"):
        # 90 m lattice with the tower on a cell-diagonal midpoint: the four
        # nearest cells sit 63.6 m out, everything else at 142 m or more
        s = Scene(extent_m=(1890.0, 1890.0), grid_spacing_m=90.0,
                  altitudes_m=(30.0,),
                  towers=(Tower(id=1, x=945.0, y=945.0, height=10.0),))
        rg = compute_rank_grid(s, thresholds=(1000.0,))
        tower = s.towers[0]
        near = far = 0
        for i, (x, y) in enumerate(rg.positions):
            d = np.hypot(x - tower.x, y - tower.y)
            rank = rg.ranks[0, 0, i]
            # independent oracle: eigendecomposition-based singular values
            paths = trace_paths(s, tower.position, (x, y, 30.0))
            h = synthesize_channel(paths, tower.array, ArrayConfig(),
                                   s.wavelength_m).entries
            sv = np.sqrt(np.maximum(np.linalg.eigvalsh(h.conj().T @ h)[::-1], 0.0))
            assert rank == int(np.sum(sv > sv[0] / 1000.0))
            if d <= 100.0:
                assert rank == 2
                near += 1
            elif d > 150.0:
                assert rank == 1
                far += 1
        assert near == 4
        assert far > 400


def test_09_calibration_offset_recovery():
    with criterion("criterion 9: calibration offsets recovered within 0.05 dB"):
        rng = np.random.default_rng(0)
        t = np.arange(0.0, 30.0, 0.1)
        sim_vals = rng.uniform(-90.0, -50.0, size=len(t))
        pos = np.column_stack([t, np.zeros_like(t), np.full_like(t, 30.0)])
        simulated = Trace(t, pos, sim_vals)
        for c in (-12.34, 0.0, 7.7, 49.95):
            measured = Trace(t, pos, sim_vals + c)
            offset, _ = calibrate_offset(measured, simulated)
            # 1e-9 absorbs float round-off when c sits exactly between
            # two grid points (e.g. 49.95 -> 49.9 or 50.0)
            assert abs(offset - c) <= 0.05 + 1e-9


def test_10_pipeline_determinism(tmp_path):
    with criterion("criterion 10: byte-identical artifacts across reruns"):
        scene = Scene(extent_m=(300.0, 300.0), grid_spacing_m=100.0,
                      altitudes_m=(30.0, 70.0),
                      towers=(Tower(id=1, x=150.0, y=150.0),))
        scene_path = tmp_path / "scene.json"
        scene_path.write_text(serialize_scene(scene))

        def run(root):
            assert main(["coverage", "--scene", str(scene_path),
                         "--out", str(root / "cov"), "--altitudes", "30",
                         "--joint"]) == 0
            assert main(["rank", "--scene", str(scene_path),
                         "--out", str(root / "rank"),
                         "--thresholds", "10,100,1000"]) == 0
            assert main(["synth", "--out", str(root / "synth"), "--seed", "11",
                         "--nx", "10", "--ny", "10", "--spacing", "30"]) == 0
            assert main(["fit", "--rank-grid", str(root / "synth"),
                         "--out", str(root / "fit")]) == 0
            assert main(["interpolate", "--rank-grid", str(root / "synth"),
                         "--model", str(root / "fit" / "correlation_model.json"),
                         "--out", str(root / "itp")]) == 0

        a = tmp_path / "a"
        b = tmp_path / "b"
        for root in (a, b):
            run(root)
        files_a = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
        files_b = sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
        assert files_a == files_b and len(files_a) >= 10
        for rel in files_a:
            assert (a / rel).read_bytes() == (b / rel).read_bytes(), rel

        # fresh interpreter state is covered by the JSON artifacts carrying no
        # dict-ordering or float-repr ambiguity; spot-check one numeric file
        model = json.loads((a / "fit" / "correlation_model.json").read_text())
        assert np.isfinite(model["rmse"])
