"""Grid sweeps: RSS coverage maps, Voronoi joint coverage, CDFs, rank grids.

Out-of-coverage cells (no propagation path to the serving tower) are marked
with NaN in memory, the string "Z" in CSV exports, and byte 0 in PGM heatmaps.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

import numpy as np

from .channel import DEFAULT_THRESHOLD_RATIOS, channel_ranks, rss_dbm, synthesize_channels
from .raytrace import trace_paths
from .scene import ArrayConfig, Scene, Tower, grid_positions

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
    for i, tid in enumerate(serving):
        if tid not in by_tower:
            raise ValueError(f"missing coverage grid for tower {tid}")
        values[i] = by_tower[tid].values[i]
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
    values = np.asarray(values)
    missing = np.isnan(values) if values.dtype.kind == "f" else values == Z_RANK
    lines = ["x_m,y_m,value"]
    for (x, y), v, z in zip(positions, values, missing):
        if z:
            sval = "Z"
        elif float(v) == int(v):
            sval = str(int(v))
        else:
            sval = f"{float(v):.6f}"
        lines.append(f"{x:.3f},{y:.3f},{sval}")
    return "\n".join(lines) + "\n"


def cdf_to_csv(points, blockage_fraction: float) -> str:
    lines = [f"# blockage_fraction,{blockage_fraction:.9f}", "value_dbm,fraction"]
    for v, f in points:
        lines.append(f"{v:.6f},{f:.9f}")
    return "\n".join(lines) + "\n"


def rank_grid_to_json(rg: RankGrid) -> str:
    """Machine-readable rank grid artifact for pipeline chaining."""
    return json.dumps(
        {
            "positions": [[float(x), float(y)] for x, y in rg.positions],
            "altitudes_m": list(rg.altitudes_m),
            "thresholds": list(rg.thresholds),
            "ranks": rg.ranks.tolist(),
            "serving_tower": rg.serving_tower.tolist(),
        },
        sort_keys=True,
    )


def rank_grid_from_json(text: str) -> RankGrid:
    d = json.loads(text)
    if not isinstance(d, dict):
        raise ValueError("rank grid must be a JSON object")
    try:
        # integer fields are read as floats: a fraction is rejected, not truncated
        rg = RankGrid(
            positions=np.array(d["positions"], dtype=float),
            altitudes_m=tuple(float(h) for h in d["altitudes_m"]),
            thresholds=tuple(float(k) for k in d["thresholds"]),
            ranks=np.array(d["ranks"], dtype=float),
            serving_tower=np.array(d["serving_tower"], dtype=float),
        )
    except KeyError as e:
        raise ValueError(f"rank grid missing key {e.args[0]!r}") from e
    except (TypeError, OverflowError) as e:
        raise ValueError(f"rank grid has a malformed field: {e}") from e
    n_loc = rg.positions.shape[0] if rg.positions.ndim else 0
    shapes = (
        ("positions", rg.positions.shape, (n_loc, 2)),
        ("ranks", rg.ranks.shape, (len(rg.altitudes_m), len(rg.thresholds), n_loc)),
        ("serving_tower", rg.serving_tower.shape, (n_loc,)),
    )
    for name, got, want in shapes:
        if got != want:
            raise ValueError(f"rank grid {name} has shape {got}, expected {want}")
    if not np.all(np.isfinite(rg.positions)):
        raise ValueError("rank grid positions must be finite")
    # finite and above a floor, as the CLI's --altitudes and --thresholds must be
    for name, values, low in (("altitudes_m", rg.altitudes_m, 0.0),
                              ("thresholds", rg.thresholds, 1.0)):
        if not all(np.isfinite(v) and v > low for v in values):
            raise ValueError(f"rank grid {name} must be finite and > {low:g}, got {values}")
        if len(set(values)) != len(values):
            raise ValueError(f"rank grid {name} has duplicate values")
    for name in ("ranks", "serving_tower"):
        values = getattr(rg, name)  # NaN and +-inf fail the range test
        if not np.all((np.abs(values) < 2.0**63) & (values == np.round(values))):
            raise ValueError(f"rank grid {name} must hold 64-bit integers")
    if np.any(rg.ranks < Z_RANK):
        raise ValueError(f"rank grid ranks must be >= {Z_RANK}")
    return replace(rg, ranks=rg.ranks.astype(int), serving_tower=rg.serving_tower.astype(int))


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
