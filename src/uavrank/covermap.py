"""Grid sweeps: RSS coverage maps, Voronoi joint coverage, CDFs, rank grids.

Out-of-coverage cells (no propagation path to the serving tower) are marked
with NaN in memory, the string "Z" in CSV exports, and byte 0 in PGM heatmaps.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .channel import DEFAULT_THRESHOLD_RATIOS, channel_ranks, rss_dbm, synthesize_channels
from .raytrace import trace_paths
from .scene import (ArrayConfig, Scene, Tower, check_layer_axis, grid_positions,
                    json_numbers, parse_json)

# Per-link channel functions, which the sweeps do not call; bound here because
# bench/tracing.py wraps them by their covermap names.
from .channel import channel_rank, rss, synthesize_channel  # noqa: F401

JOINT = "JOINT"

# Rank grids use -1 for out-of-coverage cells (integer arrays cannot hold NaN).
Z_RANK = -1


@dataclass(frozen=True)
class CoverageGrid:
    tower_id: object  # tower id or JOINT
    altitude_m: float
    mode: str  # "SISO" or "MIMO"
    positions: np.ndarray  # (N_loc, 2)
    values: np.ndarray  # RSS dBm, NaN where out of coverage

    def __post_init__(self):
        if len(self.positions) != len(self.values):
            raise ValueError("positions and values must have equal length")

    @property
    def blockage_fraction(self) -> float:
        return float(np.mean(np.isnan(self.values)))


@dataclass(frozen=True)
class RankGrid:
    positions: np.ndarray  # (N_loc, 2)
    altitudes_m: tuple  # (N_h,)
    thresholds: tuple  # (N_K,) threshold ratio constants K
    ranks: np.ndarray  # int, shape (N_h, N_K, N_loc), Z_RANK for out-of-coverage
    serving_tower: np.ndarray  # tower id per grid index

    def layer(self, altitude_m: float, K: float) -> np.ndarray:
        hi = self.altitudes_m.index(altitude_m)
        ki = self.thresholds.index(K)
        return self.ranks[hi, ki]


# Links whose channels are built and reduced together; bounds the channel
# stack and the per-path temporaries of a block to a few tens of kB per array.
_CHANNEL_BLOCK = 256


def _sweep(s: Scene, tower: Tower, xy: np.ndarray, altitudes, tx_cfg: ArrayConfig,
           rx_cfg: ArrayConfig, reduce, out: np.ndarray) -> None:
    """Write reduce(channels) of every (altitude, cell) link from `tower`,
    altitude major, into the rows of `out`; the rows of links without a
    propagation path are left as they are."""
    rx = np.column_stack([np.tile(xy, (len(altitudes), 1)),
                          np.repeat(np.asarray(altitudes, dtype=float), len(xy))])
    paths = trace_paths(s, tower.position, rx)
    for k in range(0, len(rx), _CHANNEL_BLOCK):
        block = paths.links(k, k + _CHANNEL_BLOCK)
        covered = np.unique(block.cell)
        h = synthesize_channels(block, min(_CHANNEL_BLOCK, len(rx) - k), tx_cfg, rx_cfg,
                                s.wavelength_m)
        out[k + covered] = reduce(h[covered])


def compute_coverage(s: Scene, tower: Tower, altitude_m: float,
                     mode: str = "SISO") -> CoverageGrid:
    """RSS over the scene grid for one tower at one receiver altitude; SISO
    uses single elements, MIMO the tower's array and a default receive array."""
    if altitude_m <= 0:
        raise ValueError(f"altitude must be > 0, got {altitude_m}")
    if mode == "SISO":
        tx_cfg = rx_cfg = ArrayConfig(elements=1)
    elif mode == "MIMO":
        tx_cfg, rx_cfg = tower.array, ArrayConfig()
    else:
        raise ValueError(f"mode must be 'SISO' or 'MIMO', got {mode!r}")
    pos = grid_positions(s)
    values = np.full(len(pos), np.nan)
    _sweep(s, tower, pos, (altitude_m,), tx_cfg, rx_cfg,
           lambda h: rss_dbm(h, tx_cfg, rx_cfg, s.tx_power_w), values)
    return CoverageGrid(tower.id, altitude_m, mode, pos, values)


def nearest_tower_ids(s: Scene, positions: np.ndarray) -> np.ndarray:
    """Serving tower per position: horizontally nearest, ties to lowest id."""
    if not s.towers:
        raise ValueError("scene has no towers")
    towers = sorted(s.towers, key=lambda t: t.id)
    txy = np.array([[t.x, t.y] for t in towers])
    d2 = ((positions[:, None, :] - txy[None, :, :]) ** 2).sum(axis=2)
    # argmin returns the first (lowest-id) tower on exact ties
    return np.array([towers[k].id for k in np.argmin(d2, axis=1)])


def joint_coverage(grids: list[CoverageGrid], s: Scene) -> CoverageGrid:
    """Each cell takes its nearest tower's RSS (nearest-tower, not best-server)."""
    if not grids:
        raise ValueError("no coverage grids given")
    ref = grids[0]
    by_tower = {}
    for g in grids:
        if (g.altitude_m, g.mode) != (ref.altitude_m, ref.mode) or len(g.values) != len(ref.values):
            raise ValueError("coverage grids must share altitude, mode and dimensions")
        by_tower[g.tower_id] = g
    serving = nearest_tower_ids(s, ref.positions)
    values = np.full(len(ref.values), np.nan)
    for tid in dict.fromkeys(serving.tolist()):  # in order of first cell served
        if tid not in by_tower:
            raise ValueError(f"missing coverage grid for tower {tid}")
        cells = serving == tid
        values[cells] = by_tower[tid].values[cells]
    return CoverageGrid(JOINT, ref.altitude_m, ref.mode, ref.positions, values)


def rss_cdf(g: CoverageGrid):
    """Empirical CDF over covered cells plus the out-of-coverage fraction.

    Returns (points, blockage_fraction) where points is a list of
    (dBm, cumulative fraction over covered cells).
    """
    vals = g.values[~np.isnan(g.values)]
    blockage = g.blockage_fraction
    if len(vals) == 0:
        return [], blockage
    vs, counts = np.unique(np.sort(vals), return_counts=True)
    cum = np.cumsum(counts) / len(vals)
    return list(zip(vs.tolist(), cum.tolist())), blockage


def compute_rank_grid(s: Scene, thresholds=DEFAULT_THRESHOLD_RATIOS,
                      altitudes_m=None) -> RankGrid:
    """Thresholded channel rank per (altitude, K, grid cell), serving the
    nearest tower at each cell."""
    pos = grid_positions(s)
    altitudes = tuple(altitudes_m if altitudes_m is not None else s.altitudes_m)
    thresholds = tuple(thresholds)
    serving = nearest_tower_ids(s, pos)
    rx_cfg = ArrayConfig()
    ranks = np.full((len(altitudes), len(thresholds), len(pos)), Z_RANK, dtype=int)
    for tower in s.towers:
        cells = np.nonzero(serving == tower.id)[0]
        if len(cells) == 0:
            continue
        r = np.full((len(altitudes) * len(cells), len(thresholds)), Z_RANK)
        _sweep(s, tower, pos[cells], altitudes, tower.array, rx_cfg,
               lambda h: channel_ranks(h, thresholds), r)
        r = r.reshape(len(altitudes), len(cells), len(thresholds))
        ranks[:, :, cells] = r.transpose(0, 2, 1)
    return RankGrid(pos, altitudes, thresholds, ranks, serving)


# ---------------------------------------------------------------------------
# Artifact export
# ---------------------------------------------------------------------------


def grid_to_csv(positions: np.ndarray, values: np.ndarray) -> str:
    """Value-per-cell CSV; the out-of-coverage sentinel of the array's dtype
    (NaN for floats, Z_RANK for integers) is written as "Z"."""
    x, y = (_format_axis(c) for c in np.asarray(positions, dtype=float).T)
    values = np.asarray(values)
    if values.dtype.kind == "f":
        # integral values without a fraction; inf and -inf as "%.6f" writes them
        cells = ["Z" if v != v else str(int(v)) if v.is_integer() else "%.6f" % v
                 for v in values.tolist()]
    else:
        cells = ["Z" if v == Z_RANK else str(v) for v in values.tolist()]
    return "\n".join(["x_m,y_m,value", *map(",".join, zip(x, y, cells))]) + "\n"


def _format_axis(column: np.ndarray) -> list:
    """Every coordinate of one axis as "%.3f" writes it, formatting each
    distinct value once; distinct by bit pattern, as -0.0 and 0.0 are
    written differently."""
    bits, index = np.unique(column.view(np.int64), return_inverse=True)
    text = ["%.3f" % v for v in bits.view(float).tolist()]
    return [text[k] for k in index.tolist()]


def cdf_to_csv(points, blockage_fraction: float) -> str:
    lines = [f"# blockage_fraction,{blockage_fraction:.9f}", "value_dbm,fraction"]
    lines += ["%.6f,%.9f" % (v, f) for v, f in points]
    return "\n".join(lines) + "\n"


def rank_grid_to_json(rg: RankGrid) -> str:
    """Machine-readable rank grid artifact for pipeline chaining."""
    return json.dumps(
        {
            "positions": np.asarray(rg.positions, dtype=float).tolist(),
            "altitudes_m": list(rg.altitudes_m),
            "thresholds": list(rg.thresholds),
            "ranks": rg.ranks.tolist(),
            "serving_tower": rg.serving_tower.tolist(),
        },
        sort_keys=True,
    )


def rank_grid_from_json(text: str) -> RankGrid:
    d = parse_json(text, "rank grid")
    # integer fields are read as floats: a fraction is rejected, not truncated
    a = {}
    for name, ndim in (("positions", 2), ("altitudes_m", 1), ("thresholds", 1),
                       ("ranks", 3), ("serving_tower", 1)):
        if name not in d:
            raise ValueError(f"rank grid missing key {name!r}")
        a[name] = json_numbers(d[name], f"rank grid {name}", ndim)
    n_h, n_k, n_loc = len(a["altitudes_m"]), len(a["thresholds"]), len(a["positions"])
    shapes = (
        ("positions", (n_loc, 2)),
        ("ranks", (n_h, n_k, n_loc)),
        ("serving_tower", (n_loc,)),
    )
    for name, want in shapes:
        if a[name].shape != want:
            raise ValueError(f"rank grid {name} has shape {a[name].shape}, expected {want}")
    altitudes, thresholds = tuple(a["altitudes_m"].tolist()), tuple(a["thresholds"].tolist())
    check_layer_axis("rank grid altitudes_m", altitudes)
    check_layer_axis("rank grid thresholds", thresholds, thresholds=True)
    for name in ("ranks", "serving_tower"):
        if not np.all((np.abs(a[name]) < 2.0**63) & (a[name] == np.round(a[name]))):
            raise ValueError(f"rank grid {name} must hold 64-bit integers")
    if np.any(a["ranks"] < Z_RANK):
        raise ValueError(f"rank grid ranks must be >= {Z_RANK}")
    return RankGrid(a["positions"], altitudes, thresholds, a["ranks"].astype(int),
                    a["serving_tower"].astype(int))


def grid_to_pgm(g: CoverageGrid, nx: int, ny: int) -> bytes:
    """8-bit PGM heatmap scaled over [-120, -40] dBm; Z cells map to byte 0."""
    vmin, vmax = -120.0, -40.0
    img = np.zeros((ny, nx), dtype=np.uint8)
    vals = g.values.reshape(ny, nx)
    mask = ~np.isnan(vals)
    scaled = np.clip((vals - vmin) / (vmax - vmin), 0.0, 1.0)
    img[mask] = (1 + np.round(scaled[mask] * 254)).astype(np.uint8)
    header = f"P5\n{nx} {ny}\n255\n".encode()
    # flip so the first file row is the northern edge, as in a map view
    return header + img[::-1].tobytes()
