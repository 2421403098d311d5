"""Grid sweeps: RSS coverage maps, Voronoi joint coverage, CDFs, rank grids.

Out-of-coverage cells (no propagation path to the serving tower) are marked
with NaN in memory, the string "Z" in CSV exports, and byte 0 in PGM heatmaps.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Annotated

import numpy as np

from .channel import DEFAULT_THRESHOLD_RATIOS, channel_ranks, rss_dbm, synthesize_channels
from .raytrace import trace_paths
from .scene import (MAX_MAGNITUDE, ArrayConfig, Scene, Tower, block_length,
                    check_layer_axis, grid_positions, parse_json, read_fields)

# Per-link channel functions, which the sweeps do not call; bound here because
# bench/tracing.py wraps them by their covermap names.
from .channel import channel_rank, rss, synthesize_channel  # noqa: F401

JOINT = "JOINT"

# Rank grids use -1 for out-of-coverage cells (integer arrays cannot hold NaN).
Z_RANK = -1


@dataclass(frozen=True)
class CoverageGrid:
    """RSS of one tower (or JOINT) at one altitude. Invariants, checked on
    construction: positions and values have equal length, and the altitude
    makes a layer axis (scene.check_layer_axis), as a rank grid's do."""

    tower_id: object  # tower id or JOINT
    altitude_m: float
    mode: str  # "SISO" or "MIMO"
    positions: np.ndarray  # (N_loc, 2)
    values: np.ndarray  # RSS dBm, NaN where out of coverage

    def __post_init__(self):
        if len(self.positions) != len(self.values):
            raise ValueError("positions and values must have equal length")
        check_layer_axis("coverage altitude_m", (self.altitude_m,))

    @property
    def blockage_fraction(self) -> float:
        return float(np.mean(np.isnan(self.values)))


@dataclass(frozen=True)
class RankGrid:
    """Rank per (altitude, K, grid cell), read by its annotations. Invariants,
    checked on construction, so every grid round-trips through
    rank_grid_to_json: positions (N_loc, 2) within MAX_MAGNITUDE, ranks
    (N_h, N_K, N_loc) and serving_tower (N_loc,); altitudes and thresholds
    are layer axes (scene.check_layer_axis); every rank is >= Z_RANK."""

    positions: Annotated[np.ndarray, 2]  # (N_loc, 2)
    altitudes_m: tuple[float, ...]  # (N_h,)
    thresholds: tuple[float, ...]  # (N_K,) threshold ratio constants K
    ranks: Annotated[np.ndarray, 3, int]  # (N_h, N_K, N_loc), Z_RANK for out-of-coverage
    serving_tower: Annotated[np.ndarray, 1, int]  # tower id per grid index

    def __post_init__(self):
        n_loc = len(self.positions)
        shapes = (
            ("positions", (n_loc, 2)),
            ("ranks", (len(self.altitudes_m), len(self.thresholds), n_loc)),
            ("serving_tower", (n_loc,)),
        )
        for name, want in shapes:
            shape = np.shape(getattr(self, name))
            if shape != want:
                raise ValueError(f"rank grid {name} has shape {shape}, expected {want}")
        if not np.all(np.abs(self.positions) <= MAX_MAGNITUDE):
            raise ValueError(f"rank grid positions must be at most {MAX_MAGNITUDE:g} m "
                             f"in size, got {np.max(np.abs(self.positions)):g}")
        check_layer_axis("rank grid altitudes_m", self.altitudes_m)
        check_layer_axis("rank grid thresholds", self.thresholds, thresholds=True)
        if np.any(self.ranks < Z_RANK):
            raise ValueError(f"rank grid ranks must be >= {Z_RANK}")

    def layer(self, altitude_m: float, K: float) -> np.ndarray:
        hi = self.altitudes_m.index(altitude_m)
        ki = self.thresholds.index(K)
        return self.ranks[hi, ki]


def _sweep(s: Scene, tower: Tower, xy: np.ndarray, altitudes, tx_cfg: ArrayConfig,
           rx_cfg: ArrayConfig, reduce, out: np.ndarray) -> None:
    """Write reduce(channels) of every (altitude, cell) link from `tower`,
    altitude major, into the rows of `out`; the rows of links without a
    propagation path are left as they are."""
    rx = np.column_stack([np.tile(xy, (len(altitudes), 1)),
                          np.repeat(np.asarray(altitudes, dtype=float), len(xy))])
    paths = trace_paths(s, tower.position, rx)
    # links whose channels are built and reduced together, N_r x N_t entries each
    step = block_length(tx_cfg.elements * rx_cfg.elements)
    for k in range(0, len(rx), step):
        cells, h = synthesize_channels(paths.links(k, k + step), tx_cfg, rx_cfg)
        out[k + cells] = reduce(h)


def compute_coverage(s: Scene, tower: Tower, altitude_m: float,
                     mode: str = "SISO") -> CoverageGrid:
    """RSS over the scene grid for one tower at one receiver altitude; SISO
    uses single elements, MIMO the tower's array and a default receive array."""
    pos = grid_positions(s)
    g = CoverageGrid(tower.id, altitude_m, mode, pos, np.full(len(pos), np.nan))
    if mode == "SISO":
        tx_cfg = rx_cfg = ArrayConfig(elements=1)
    elif mode == "MIMO":
        tx_cfg, rx_cfg = tower.array, ArrayConfig()
    else:
        raise ValueError(f"mode must be 'SISO' or 'MIMO', got {mode!r}")
    _sweep(s, tower, pos, (altitude_m,), tx_cfg, rx_cfg,
           lambda h: rss_dbm(h, tx_cfg, rx_cfg, s.tx_power_w), g.values)
    return g


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
    vs, counts = np.unique(vals, return_counts=True)
    cum = np.cumsum(counts) / len(vals)
    return list(zip(vs.tolist(), cum.tolist())), blockage


def compute_rank_grid(s: Scene, thresholds=DEFAULT_THRESHOLD_RATIOS,
                      altitudes_m=None) -> RankGrid:
    """Thresholded channel rank per (altitude, K, grid cell), serving the
    nearest tower at each cell."""
    pos = grid_positions(s)
    altitudes = tuple(altitudes_m if altitudes_m is not None else s.altitudes_m)
    thresholds = tuple(thresholds)
    # built before any trace, so a grid its reader would refuse is never swept
    rg = RankGrid(pos, altitudes, thresholds,
                  np.full((len(altitudes), len(thresholds), len(pos)), Z_RANK),
                  nearest_tower_ids(s, pos))
    for tower in s.towers:
        cells = np.nonzero(rg.serving_tower == tower.id)[0]
        if len(cells) == 0:
            continue
        r = np.full((len(altitudes) * len(cells), len(thresholds)), Z_RANK)
        _sweep(s, tower, pos[cells], altitudes, tower.array, ArrayConfig(),
               lambda h: channel_ranks(h, thresholds), r)
        rg.ranks[:, :, cells] = r.reshape(len(altitudes), len(cells), -1).transpose(0, 2, 1)
    return rg


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
    return read_fields(RankGrid, parse_json(text, "rank grid"), "rank grid")


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
