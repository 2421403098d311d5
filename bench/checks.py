"""Output checks of the benchmark.

Each stage's ``--out`` directory is hashed; the hash must repeat on every
chain of a run and, for the reference seed, match the recorded digest. The
results are also re-derived independently for any seed: ranks and RSS of a
seeded sample of cells from per-cell traced paths, and the correlation bins,
LOO cell counts and synthetic-field invariants from the rank grid.

Each ``check_*`` function returns a list of problems; an empty list passes.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
from scipy.spatial.distance import cdist

SAMPLE_CELLS = 6
TOL_DBM = 2e-6  # RSS is written with 6 decimals


def dir_digest(path: Path) -> str:
    """SHA-256 over the relative names, sizes and bytes of every file."""
    h = hashlib.sha256()
    if not path.is_dir():
        return "missing"
    for f in sorted(p for p in path.rglob("*") if p.is_file()):
        data = f.read_bytes()
        h.update(f"{f.relative_to(path).as_posix()}\0{len(data)}\0".encode())
        h.update(data)
    return h.hexdigest()


def _grid(extent, spacing):
    nx, ny = int(round(extent[0] / spacing)), int(round(extent[1] / spacing))
    iy, ix = np.divmod(np.arange(nx * ny), nx)
    return np.column_stack([ix * spacing, iy * spacing])


def _read_csv_values(path: Path) -> list[str]:
    return [line.split(",")[2] for line in path.read_text().splitlines()[1:]]


def _serving(scene, positions):
    towers = sorted(scene.towers, key=lambda t: t.id)
    d2 = [(positions[:, 0] - t.x) ** 2 + (positions[:, 1] - t.y) ** 2 for t in towers]
    # argmin picks the first (lowest-id) tower on exact ties
    return [towers[k] for k in np.argmin(np.array(d2), axis=0)]


def _read_rank_grid(path: Path) -> dict:
    if path.is_dir():
        path = path / "rank_grid.json"
    return json.loads(path.read_text())


def _floats(text, default):
    return tuple(float(x) for x in text.split(",")) if text else tuple(default)


def check_rank(args, scene, rng) -> list[str]:
    """Rank of sampled cells from trace_paths -> synthesize_channel and the
    singular values of eigvalsh(H^H H), against rank_grid.json and the CSVs."""
    from uavrank.channel import synthesize_channel
    from uavrank.raytrace import trace_paths
    from uavrank.scene import ArrayConfig

    out = Path(args.out)
    rg = _read_rank_grid(out)
    alts = _floats(args.altitudes, scene.altitudes_m)
    ks = _floats(args.thresholds, ())
    pos = _grid(scene.extent_m, scene.grid_spacing_m)
    problems = []
    if tuple(rg["altitudes_m"]) != alts or tuple(rg["thresholds"]) != ks:
        return [f"{out}: altitudes or thresholds differ from the arguments"]
    if not np.array_equal(np.array(rg["positions"]), pos):
        return [f"{out}: positions are not the scene grid"]
    ranks = np.array(rg["ranks"])
    serving = _serving(scene, pos)
    if [t.id for t in serving] != rg["serving_tower"]:
        problems.append(f"{out}: serving towers are not the nearest towers")
    csv = {(hi, ki): _read_csv_values(out / f"rank_h{h:g}_K{k:g}.csv")
           for hi, h in enumerate(alts) for ki, k in enumerate(ks)}
    for i in rng.choice(len(pos), size=min(SAMPLE_CELLS, len(pos)), replace=False):
        tower = serving[i]
        for hi, h in enumerate(alts):
            paths = trace_paths(scene, tower.position, (pos[i, 0], pos[i, 1], h))
            sv = None
            if paths:
                hm = synthesize_channel(paths, tower.array, ArrayConfig(),
                                        scene.wavelength_m).entries
                sv = np.sqrt(np.maximum(np.linalg.eigvalsh(hm.conj().T @ hm)[::-1], 0.0))
            for ki, k in enumerate(ks):
                if sv is None:
                    expect = -1
                elif np.any(np.abs(sv - sv[0] / k) <= 1e-9 * sv[0]):
                    continue  # a singular value on the threshold may round either way
                else:
                    expect = int(np.sum(sv > sv[0] / k))
                got, row = int(ranks[hi, ki, i]), csv[hi, ki][i]
                if got != expect or row != ("Z" if expect < 0 else str(expect)):
                    problems.append(f"{out}: cell {i} h={h:g} K={k:g}: rank {got} "
                                    f"(csv {row}), expected {expect}")
    return problems


def check_coverage(args, scene, rng) -> list[str]:
    """RSS of sampled cells recomputed from traced paths with a co-phased
    transmit beam; the joint grid must copy each cell's nearest tower."""
    from uavrank.channel import synthesize_channel
    from uavrank.raytrace import trace_paths
    from uavrank.scene import ArrayConfig

    out = Path(args.out)
    mode = args.mode.lower()
    alts = _floats(args.altitudes, (30.0, 70.0, 110.0))
    pos = _grid(scene.extent_m, scene.grid_spacing_m)
    serving = _serving(scene, pos)
    sample = rng.choice(len(pos), size=min(SAMPLE_CELLS, len(pos)), replace=False)
    problems = []
    for h in alts:
        per_tower = {}
        for t in sorted(scene.towers, key=lambda t: t.id):
            vals = _read_csv_values(out / f"coverage_{mode}_tower{t.id}_h{h:g}.csv")
            per_tower[t.id] = vals
            tx = ArrayConfig(elements=1) if mode == "siso" else t.array
            rx = ArrayConfig(elements=1) if mode == "siso" else ArrayConfig()
            for i in sample:
                paths = trace_paths(scene, t.position, (pos[i, 0], pos[i, 1], h))
                if not paths:
                    ok = vals[i] == "Z"
                else:
                    hm = synthesize_channel(paths, tx, rx, scene.wavelength_m).entries
                    w = np.ones(tx.elements) / np.sqrt(tx.elements)
                    p_w = scene.tx_power_w * float(np.sum(np.abs(hm @ w) ** 2)) / rx.elements
                    ok = vals[i] != "Z" and abs(float(vals[i]) - 10.0 * np.log10(p_w * 1e3)) <= TOL_DBM
                if not ok:
                    problems.append(f"{out}: tower {t.id} h={h:g} cell {i}: RSS {vals[i]} "
                                    "differs from the recomputed value")
        if args.joint:
            joint = _read_csv_values(out / f"coverage_{mode}_joint_h{h:g}.csv")
            if joint != [per_tower[t.id][i] for i, t in enumerate(serving)]:
                problems.append(f"{out}: joint grid at h={h:g} is not the nearest-tower grid")
    return problems


def check_fit(args) -> list[str]:
    """Correlation bins recomputed with np.corrcoef over all pairs; the model's
    RMSE recomputed against the written bins."""
    out = Path(args.out)
    rg = _read_rank_grid(Path(args.rank_grid))
    ranks = np.array(rg["ranks"])
    pos = np.array(rg["positions"], dtype=float)
    n_h, n_k, n = ranks.shape
    vectors = np.transpose(ranks, (2, 1, 0)).reshape(n, n_k * n_h)
    if args.z_policy == "rank0":
        vectors = np.where(vectors < 0, 0, vectors)
    steps = np.concatenate([np.diff(np.unique(pos[:, 0])), np.diff(np.unique(pos[:, 1]))])
    d_rx = float(np.min(steps))
    keep = np.all(vectors >= 0, axis=1) & (np.std(vectors, axis=1) > 0)
    vectors, pos = vectors[keep].astype(float), pos[keep]
    corr = np.atleast_2d(np.corrcoef(vectors))
    dist = cdist(pos, pos)
    iu, ju = np.triu_indices(len(pos))
    near = dist[iu, ju] <= args.max_dist + 1e-9
    bins = np.round(dist[iu, ju][near] / d_rx).astype(int)
    counts = np.bincount(bins)
    sums = np.bincount(bins, weights=corr[iu, ju][near])
    present = np.nonzero(counts)[0]

    lines = (out / "correlation_bins.csv").read_text().splitlines()[1:]
    rows = [line.split(",") for line in lines]
    problems = []
    if [r[0] for r in rows] != [f"{b * d_rx:.3f}" for b in present]:
        return [f"{out}: correlation bin distances differ from the recomputed ones"]
    if [int(r[2]) for r in rows] != counts[present].tolist():
        problems.append(f"{out}: correlation pair counts differ from the recomputed ones")
    means = np.array([float(r[1]) for r in rows])
    if np.max(np.abs(means - sums[present] / counts[present])) > 1e-6:
        problems.append(f"{out}: correlation means differ from np.corrcoef")
    model = json.loads((out / "correlation_model.json").read_text())
    c = [model[k] for k in ("c1", "c2", "c3", "c4")]
    d = present * d_rx
    fit = c[0] * np.exp(c[1] * d) + c[2] * np.exp(c[3] * d)
    rmse = float(np.sqrt(np.mean((fit - means) ** 2)))
    if not (np.all(np.isfinite(c)) and abs(rmse - model["rmse"]) <= 1e-6):
        problems.append(f"{out}: model RMSE {model['rmse']} does not match its bins ({rmse})")
    return problems


def check_interpolate(args) -> list[str]:
    """Every (method, altitude, K) row present, with the number of cells that
    have enough in-coverage neighbors within r0 counted independently."""
    from uavrank.evaluate import METHODS

    out = Path(args.out)
    rg = _read_rank_grid(Path(args.rank_grid))
    ranks = np.array(rg["ranks"])
    pos = np.array(rg["positions"], dtype=float)
    within = cdist(pos, pos) <= args.r0 + 1e-9
    np.fill_diagonal(within, False)
    methods = METHODS if args.method == "all" else (args.method,)
    layers = sorted((h, k, hi, ki) for hi, h in enumerate(rg["altitudes_m"])
                    for ki, k in enumerate(rg["thresholds"]))
    expected = []
    for meth in methods:
        need = 1 if meth == "kriging" else 2  # the baselines need two neighbors
        for h, k, hi, ki in layers:
            valid = ranks[hi, ki] >= 0
            n_nb = (within & valid[None, :]).sum(axis=1)
            expected.append((f"{meth},{h:g},{k:g}", int(np.sum(valid & (n_nb >= need)))))
    rows = (out / "mae_report.csv").read_text().splitlines()
    problems = []
    if rows[0] != "method,altitude_m,K,mae,cells" or len(rows) - 1 != len(expected):
        return [f"{out}: mae_report.csv does not have one row per method and layer"]
    for row, (key, cells) in zip(rows[1:], expected):
        meth, h, k, mae, n = row.split(",")
        if f"{meth},{h},{k}" != key or int(n) != cells:
            problems.append(f"{out}: row {row!r}, expected {key} over {cells} cells")
        elif cells and not 0.0 <= float(mae) <= 4.0:
            problems.append(f"{out}: row {row!r}: MAE outside [0, 4]")
    return problems


def check_synth(args) -> list[str]:
    """Grid, layer labels, rank range 1..4 and ranks non-decreasing in K."""
    out = Path(args.out)
    rg = _read_rank_grid(out)
    ranks = np.array(rg["ranks"])
    alts = _floats(args.altitudes, np.arange(30.0, 111.0, 10.0))
    ks = _floats(args.thresholds, ())
    pos = _grid((args.nx * args.spacing, args.ny * args.spacing), args.spacing)
    if (tuple(rg["altitudes_m"]) != alts or tuple(rg["thresholds"]) != ks
            or not np.array_equal(np.array(rg["positions"]), pos)
            or ranks.shape != (len(alts), len(ks), len(pos))):
        return [f"{out}: synthetic grid or layers differ from the arguments"]
    problems = []
    if ranks.min() < 1 or ranks.max() > 4:
        problems.append(f"{out}: ranks outside 1..4")
    if np.any(np.diff(ranks, axis=1) < 0):
        problems.append(f"{out}: ranks decrease with the threshold K")
    return problems


def check_stage(args, scene, rng) -> list[str]:
    """Dispatch on the stage's parsed CLI arguments."""
    if args.command == "rank":
        return check_rank(args, scene, rng)
    if args.command == "coverage":
        return check_coverage(args, scene, rng)
    if args.command == "fit":
        return check_fit(args)
    if args.command == "interpolate":
        return check_interpolate(args)
    if args.command == "synth":
        return check_synth(args)
    return [f"no output check for stage {args.command!r}"]
