"""Command-line pipeline: scene -> coverage / rank grids -> correlation fit ->
interpolation and evaluation.  Stages chain through files in the output
directory so each one is independently runnable and resumable.

Exit codes: 0 success, 2 input error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .correlation import (
    CorrelationModel,
    bin_correlations,
    bins_to_csv,
    build_rank_vectors,
    fit_correlation_model,
)
from .covermap import (
    cdf_to_csv,
    compute_coverage,
    compute_rank_grid,
    grid_to_csv,
    grid_to_pgm,
    joint_coverage,
    rank_grid_from_json,
    rank_grid_to_json,
    rss_cdf,
)
from .evaluate import (
    METHODS,
    Trace,
    calibrate_offset,
    histogram_to_csv,
    loo_evaluate,
    rank_histogram,
)
from .kriging import KrigingConfig
from .scene import Scene, grid_shape, load_scene
from .synth import synthetic_grid_positions, synthetic_rank_field

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERICAL = 3

DEFAULT_RSS_ALTITUDES = (30.0, 70.0, 110.0)


class InputError(Exception):
    pass


def _read_scene(path: str) -> Scene:
    p = Path(path)
    if not p.is_file():
        raise InputError(f"scene file not found: {path}")
    return load_scene(p.read_text())


def _out_dir(path: str) -> Path:
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _parse_floats(text: str) -> tuple[float, ...]:
    return tuple(float(x) for x in text.split(","))


def cmd_coverage(args) -> int:
    scene = _read_scene(args.scene)
    if not scene.towers:
        raise InputError("scene has no towers")
    altitudes = _parse_floats(args.altitudes) if args.altitudes else DEFAULT_RSS_ALTITUDES
    out = _out_dir(args.out)
    artifacts = {}
    for h in altitudes:
        grids = [
            compute_coverage(scene, t, h, mode=args.mode)
            for t in sorted(scene.towers, key=lambda t: t.id)
        ]
        nx, ny = grid_shape(scene)
        for g in grids:
            stem = f"coverage_{args.mode.lower()}_tower{g.tower_id}_h{h:g}"
            artifacts[f"{stem}.csv"] = grid_to_csv(g.positions, g.values)
            artifacts[f"{stem}.pgm"] = grid_to_pgm(g, nx, ny)
            artifacts[f"{stem}_cdf.csv"] = cdf_to_csv(*rss_cdf(g))
        if args.joint:
            j = joint_coverage(grids, scene)
            stem = f"coverage_{args.mode.lower()}_joint_h{h:g}"
            artifacts[f"{stem}.csv"] = grid_to_csv(j.positions, j.values)
            artifacts[f"{stem}.pgm"] = grid_to_pgm(j, nx, ny)
            artifacts[f"{stem}_cdf.csv"] = cdf_to_csv(*rss_cdf(j))
    _write_all(out, artifacts)
    return EXIT_OK


def cmd_rank(args) -> int:
    scene = _read_scene(args.scene)
    if not scene.towers:
        raise InputError("scene has no towers")
    altitudes = _parse_floats(args.altitudes) if args.altitudes else scene.altitudes_m
    thresholds = _parse_floats(args.thresholds)
    out = _out_dir(args.out)
    rg = compute_rank_grid(scene, thresholds=thresholds, altitudes_m=altitudes)
    artifacts = {"rank_grid.json": rank_grid_to_json(rg)}
    for h in altitudes:
        for K in thresholds:
            stem = f"rank_h{h:g}_K{K:g}"
            artifacts[f"{stem}.csv"] = grid_to_csv(rg.positions, rg.layer(h, K))
            artifacts[f"{stem}_hist.csv"] = histogram_to_csv(rank_histogram(rg, h, K))
    _write_all(out, artifacts)
    return EXIT_OK


def cmd_fit(args) -> int:
    rg = _read_rank_grid(args.rank_grid)
    out = _out_dir(args.out)
    idx, vectors = build_rank_vectors(rg, z_policy=args.z_policy)
    if len(idx) == 0:
        raise InputError("no valid correlation pairs: all locations out of coverage")
    d_rx = _grid_spacing(rg.positions)
    dists, means, counts = bin_correlations(
        vectors, rg.positions[idx], d_rx, max_distance_m=args.max_dist
    )
    if len(dists) < 4:
        raise InputError("no valid correlation pairs: too few distance bins")
    model = fit_correlation_model(dists, means, max_distance_m=args.max_dist)
    _write_all(out, {
        "correlation_bins.csv": bins_to_csv(dists, means, counts),
        "correlation_model.json": model.to_json(),
    })
    return EXIT_OK


def cmd_interpolate(args) -> int:
    rg = _read_rank_grid(args.rank_grid)
    model_path = Path(args.model)
    if not model_path.is_file():
        raise InputError(f"model file not found: {args.model}")
    model = CorrelationModel.from_json(model_path.read_text())
    out = _out_dir(args.out)
    cfg = KrigingConfig(M=args.m, r0_m=args.r0)
    methods = METHODS if args.method == "all" else (args.method,)
    reports = [
        loo_evaluate(rg, meth, cfg, model, round_estimates=args.round)
        for meth in methods
    ]
    lines = ["method,altitude_m,K,mae,cells"]
    for rep in reports:
        lines.extend(rep.to_csv().splitlines()[1:])
    _write_all(out, {"mae_report.csv": "\n".join(lines) + "\n"})
    return EXIT_OK


def cmd_calibrate(args) -> int:
    for p in (args.measured, args.simulated):
        if not Path(p).is_file():
            raise InputError(f"trace file not found: {p}")
    measured = Trace.from_csv(Path(args.measured).read_text())
    simulated = Trace.from_csv(Path(args.simulated).read_text())
    out = _out_dir(args.out)
    offset, rmse = calibrate_offset(measured, simulated)
    _write_all(out, {
        "calibration.csv": "offset_db,rmse\n" + f"{offset:.1f},{rmse:.9f}\n",
    })
    return EXIT_OK


def cmd_synth(args) -> int:
    thresholds = _parse_floats(args.thresholds)
    altitudes = (
        _parse_floats(args.altitudes)
        if args.altitudes
        else tuple(np.arange(30.0, 111.0, 10.0))
    )
    model = CorrelationModel(c1=0.2932, c2=-0.0508, c3=0.7057, c4=-0.001, rmse=0.0)
    out = _out_dir(args.out)
    positions = synthetic_grid_positions(args.nx, args.ny, args.spacing)
    rg = synthetic_rank_field(positions, model, altitudes, thresholds, seed=args.seed)
    _write_all(out, {"rank_grid.json": rank_grid_to_json(rg)})
    return EXIT_OK


def _grid_spacing(positions: np.ndarray) -> float:
    xs = np.unique(positions[:, 0])
    ys = np.unique(positions[:, 1])
    deltas = np.concatenate([np.diff(xs), np.diff(ys)])
    if len(deltas) == 0:
        raise InputError("degenerate grid: cannot infer spacing")
    return float(np.min(deltas))


def _read_rank_grid(path: str):
    p = Path(path)
    if p.is_dir():
        p = p / "rank_grid.json"
    if not p.is_file():
        raise InputError(f"rank grid artifact not found: {p}")
    return rank_grid_from_json(p.read_text())


def _write_all(out: Path, artifacts: dict) -> None:
    # all inputs validated and results computed before the first write,
    # so a failure never leaves partial artifacts behind
    for name, content in artifacts.items():
        path = out / name
        if isinstance(content, bytes):
            path.write_bytes(content)
        else:
            path.write_text(content)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="uavrank",
        description="Ray-traced coverage and channel-rank mapping with "
        "Kriging-based rank prediction",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    cov = sub.add_parser("coverage", help="RSS coverage grids, PGM heatmaps, CDFs")
    cov.add_argument("--scene", required=True)
    cov.add_argument("--out", required=True)
    cov.add_argument("--altitudes", help="comma-separated meters")
    cov.add_argument("--mode", choices=("SISO", "MIMO"), default="SISO")
    cov.add_argument("--joint", action="store_true", help="add Voronoi joint grid")
    cov.set_defaults(func=cmd_coverage)

    rnk = sub.add_parser("rank", help="channel rank grids and histograms")
    rnk.add_argument("--scene", required=True)
    rnk.add_argument("--out", required=True)
    rnk.add_argument("--altitudes", help="comma-separated meters")
    rnk.add_argument("--thresholds", default="10,100,1000")
    rnk.set_defaults(func=cmd_rank)

    fit = sub.add_parser("fit", help="fit the correlation-vs-distance model")
    fit.add_argument("--rank-grid", required=True, help="rank grid artifact or dir")
    fit.add_argument("--out", required=True)
    fit.add_argument("--max-dist", type=float, default=500.0)
    fit.add_argument("--z-policy", choices=("exclude", "rank0"), default="exclude")
    fit.set_defaults(func=cmd_fit)

    itp = sub.add_parser("interpolate", help="LOO MAE of kriging and baselines")
    itp.add_argument("--rank-grid", required=True)
    itp.add_argument("--model", required=True, help="correlation model JSON")
    itp.add_argument("--out", required=True)
    itp.add_argument("--method", choices=METHODS + ("all",), default="all")
    itp.add_argument("--m", type=int, default=20)
    itp.add_argument("--r0", type=float, default=150.0)
    itp.add_argument("--round", action="store_true", help="round estimates to ints")
    itp.set_defaults(func=cmd_interpolate)

    cal = sub.add_parser("calibrate", help="min-RMSE offset of measured vs simulated")
    cal.add_argument("--measured", required=True)
    cal.add_argument("--simulated", required=True)
    cal.add_argument("--out", required=True)
    cal.set_defaults(func=cmd_calibrate)

    syn = sub.add_parser("synth", help="seeded synthetic rank field")
    syn.add_argument("--out", required=True)
    syn.add_argument("--seed", type=int, default=0)
    syn.add_argument("--nx", type=int, default=36)
    syn.add_argument("--ny", type=int, default=71)
    syn.add_argument("--spacing", type=float, default=30.0)
    syn.add_argument("--altitudes", help="comma-separated meters")
    syn.add_argument("--thresholds", default="10,100,1000")
    syn.set_defaults(func=cmd_synth)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (InputError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except (np.linalg.LinAlgError, FloatingPointError) as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
