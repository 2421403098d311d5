"""Command-line pipeline: scene -> coverage / rank grids -> correlation fit ->
interpolation and evaluation.  Stages chain through files in the output
directory so each one is independently runnable and resumable.  Each stage
returns its artifacts; main writes them, so a stage that fails leaves no
output directory behind.

Exit codes: 0 success, 2 input error or out of memory, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import math
import os
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

from .channel import DEFAULT_THRESHOLD_RATIOS
from .correlation import (
    DEFAULT_MAX_DISTANCE_M,
    CorrelationModel,
    bin_correlations,
    bins_to_csv,
    build_rank_vectors,
    fit_correlation_model,
)
from .covermap import (
    JOINT,
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
from .scene import Scene, check_layer_axis, grid_shape, load_scene
from .synth import check_field_cells, synthetic_grid_positions, synthetic_rank_field

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERICAL = 3

DEFAULT_RSS_ALTITUDES = (30.0, 70.0, 110.0)


def _read_text(path, what: str) -> str:
    """The text of the input file at `path`, which the error names `what`."""
    p = Path(path)
    if not p.is_file():
        raise ValueError(f"{what} not found: {path}")
    return p.read_text()


def _read_scene(path: str) -> Scene:
    scene = load_scene(_read_text(path, "scene file"))
    if not scene.towers:
        raise ValueError("scene has no towers")
    return scene


def _parse_floats(text: str, option: str) -> tuple[float, ...]:
    """Comma-separated values of --altitudes or --thresholds, which must make
    a layer axis (scene.check_layer_axis)."""
    values = tuple(float(x) for x in text.split(","))
    check_layer_axis(option, values, thresholds=option == "--thresholds")
    return values


def cmd_coverage(args) -> dict:
    scene = _read_scene(args.scene)
    altitudes = (_parse_floats(args.altitudes, "--altitudes") if args.altitudes
                 else DEFAULT_RSS_ALTITUDES)
    nx, ny = grid_shape(scene)
    artifacts = {}
    for h in altitudes:
        grids = [
            compute_coverage(scene, t, h, mode=args.mode)
            for t in sorted(scene.towers, key=lambda t: t.id)
        ]
        if args.joint:
            grids.append(joint_coverage(grids, scene))
        for g in grids:
            who = "joint" if g.tower_id == JOINT else f"tower{g.tower_id}"
            stem = f"coverage_{args.mode.lower()}_{who}_h{h:g}"
            artifacts[f"{stem}.csv"] = grid_to_csv(g.positions, g.values)
            artifacts[f"{stem}.pgm"] = grid_to_pgm(g, nx, ny)
            artifacts[f"{stem}_cdf.csv"] = cdf_to_csv(*rss_cdf(g))
    return artifacts


def cmd_rank(args) -> dict:
    scene = _read_scene(args.scene)
    altitudes = (_parse_floats(args.altitudes, "--altitudes") if args.altitudes
                 else scene.altitudes_m)
    thresholds = _parse_floats(args.thresholds, "--thresholds")
    rg = compute_rank_grid(scene, thresholds=thresholds, altitudes_m=altitudes)
    artifacts = {"rank_grid.json": rank_grid_to_json(rg)}
    for h in altitudes:
        for K in thresholds:
            stem = f"rank_h{h:g}_K{K:g}"
            artifacts[f"{stem}.csv"] = grid_to_csv(rg.positions, rg.layer(h, K))
            artifacts[f"{stem}_hist.csv"] = histogram_to_csv(rank_histogram(rg, h, K))
    return artifacts


def cmd_fit(args) -> dict:
    if not 0 < args.max_dist < math.inf:
        raise ValueError(f"--max-dist must be finite and > 0, got {args.max_dist}")
    rg = _read_rank_grid(args.rank_grid)
    idx, vectors = build_rank_vectors(rg, z_policy=args.z_policy)
    if len(idx) == 0:
        raise ValueError("no valid correlation pairs: all locations out of coverage")
    d_rx = _grid_spacing(rg.positions)
    dists, means, counts = bin_correlations(
        vectors, rg.positions[idx], d_rx, max_distance_m=args.max_dist
    )
    model = fit_correlation_model(dists, means, max_distance_m=args.max_dist)
    return {
        "correlation_bins.csv": bins_to_csv(dists, means, counts),
        "correlation_model.json": model.to_json(),
    }


def cmd_interpolate(args) -> dict:
    rg = _read_rank_grid(args.rank_grid)
    model = CorrelationModel.from_json(_read_text(args.model, "model file"))
    cfg = KrigingConfig(M=args.m, r0_m=args.r0)
    methods = METHODS if args.method == "all" else (args.method,)
    tables = {}  # the methods' neighbor tables, built once per coverage mask
    csvs = [
        loo_evaluate(rg, meth, cfg, model, round_estimates=args.round, tables=tables).to_csv()
        for meth in methods
    ]
    # one table: the first report's header, then every report's rows
    return {"mae_report.csv": csvs[0] + "".join(c.split("\n", 1)[1] for c in csvs[1:])}


def cmd_calibrate(args) -> dict:
    texts = [_read_text(p, "trace file") for p in (args.measured, args.simulated)]
    offset, rmse = calibrate_offset(*map(Trace.from_csv, texts))
    return {"calibration.csv": "offset_db,rmse\n" + f"{offset:.1f},{rmse:.9f}\n"}


def cmd_synth(args) -> dict:
    thresholds = _parse_floats(args.thresholds, "--thresholds")
    altitudes = (_parse_floats(args.altitudes, "--altitudes") if args.altitudes
                 else Scene.altitudes_m)
    model = CorrelationModel(c1=0.2932, c2=-0.0508, c3=0.7057, c4=-0.001, rmse=0.0)
    # before the positions are built, so a refused grid allocates nothing; a
    # side below 1 has no cells, and the scene reports it
    check_field_cells(max(args.nx, 0) * max(args.ny, 0))
    positions = synthetic_grid_positions(args.nx, args.ny, args.spacing)
    rg = synthetic_rank_field(positions, model, altitudes, thresholds, seed=args.seed)
    return {"rank_grid.json": rank_grid_to_json(rg)}


def _grid_spacing(positions: np.ndarray) -> float:
    xs = np.unique(positions[:, 0])
    ys = np.unique(positions[:, 1])
    deltas = np.concatenate([np.diff(xs), np.diff(ys)])
    if len(deltas) == 0:
        raise ValueError("degenerate grid: cannot infer spacing")
    return float(np.min(deltas))


def _read_rank_grid(path: str):
    p = Path(path)
    if p.is_dir():
        p = p / "rank_grid.json"
    return rank_grid_from_json(_read_text(p, "rank grid artifact"))


def _write_all(out: Path, artifacts: dict) -> None:
    """Create `out` if need be and write every artifact or none: the files are
    written into a temporary directory under `out` and only moved into place
    once all are written."""
    for name in artifacts:
        if (out / name).is_dir():
            raise ValueError(f"cannot write {out / name}: it is a directory")
    out.mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=".partial-", dir=out))
    try:
        for name, content in artifacts.items():
            if isinstance(content, bytes):
                (tmp / name).write_bytes(content)
            else:
                (tmp / name).write_text(content)
        for name in artifacts:
            os.replace(tmp / name, out / name)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="uavrank",
        description="Ray-traced coverage and channel-rank mapping with "
        "Kriging-based rank prediction",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    thresholds = ",".join(f"{k:g}" for k in DEFAULT_THRESHOLD_RATIOS)

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
    rnk.add_argument("--thresholds", default=thresholds)
    rnk.set_defaults(func=cmd_rank)

    fit = sub.add_parser("fit", help="fit the correlation-vs-distance model")
    fit.add_argument("--rank-grid", required=True, help="rank grid artifact or dir")
    fit.add_argument("--out", required=True)
    fit.add_argument("--max-dist", type=float, default=DEFAULT_MAX_DISTANCE_M)
    fit.add_argument("--z-policy", choices=("exclude", "rank0"), default="exclude")
    fit.set_defaults(func=cmd_fit)

    itp = sub.add_parser("interpolate", help="LOO MAE of kriging and baselines")
    itp.add_argument("--rank-grid", required=True)
    itp.add_argument("--model", required=True, help="correlation model JSON")
    itp.add_argument("--out", required=True)
    itp.add_argument("--method", choices=METHODS + ("all",), default="all")
    itp.add_argument("--m", type=int, default=KrigingConfig.M)
    itp.add_argument("--r0", type=float, default=KrigingConfig.r0_m)
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
    syn.add_argument("--thresholds", default=thresholds)
    syn.set_defaults(func=cmd_synth)

    return ap


_parser = None  # built by the first main() call; argparse never changes it


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        _write_all(Path(args.out), args.func(args))
        return EXIT_OK
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except MemoryError as e:
        # an array the input asks for is larger than the process may allocate
        print(f"error: out of memory: {e}", file=sys.stderr)
        return EXIT_INPUT
    except (np.linalg.LinAlgError, FloatingPointError) as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
