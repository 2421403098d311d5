"""Evaluation: leave-one-out MAE per (altitude, threshold), measurement-trace
calibration by min-RMSE offset search, and rank histograms."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .baseline import baseline_table
from .correlation import CorrelationModel
from .covermap import RankGrid, Z_RANK
from .kriging import KrigingConfig, krige_table, neighbor_table, varies_over_altitude

# Per-target references, which loo_evaluate does not call; bound here because
# bench/tracing.py wraps them by their evaluate names.
from .baseline import baseline_rank  # noqa: F401
from .kriging import krige_rank, select_neighbors  # noqa: F401

METHODS = ("kriging", "spline", "makima")


@dataclass(frozen=True)
class MAEReport:
    method: str
    # (altitude_m, K) -> (mae, evaluated cell count)
    entries: dict = field(default_factory=dict)

    def mae(self, altitude_m: float, K: float) -> float:
        return self.entries[(altitude_m, K)][0]

    def to_csv(self) -> str:
        lines = ["method,altitude_m,K,mae,cells"]
        for (h, K), (m, n) in sorted(self.entries.items()):
            lines.append(f"{self.method},{h:g},{K:g},{m:.9f},{n}")
        return "\n".join(lines) + "\n"


def loo_evaluate(rg: RankGrid, method: str, cfg: KrigingConfig,
                 model: CorrelationModel, round_estimates: bool = False,
                 altitudes_m=None, thresholds=None, tables=None) -> MAEReport:
    """Leave-one-out MAE: every cell predicted from its neighbors with its own
    value withheld.  Out-of-coverage cells are excluded both as targets and as
    neighbors; cells with no eligible neighbors are skipped and not counted.

    Only the layers at `altitudes_m` x `thresholds` (default: all) are
    evaluated.  Layers with the same coverage share one neighbor search and
    are predicted in one batched pass: the baselines of all of them take one
    kernel call per neighbor count, and Kriging solves each distinct neighbor
    geometry once for all of them, since its weights depend on nothing else;
    of the ranks over altitude it reads only whether they vary, a mask taken
    once per call.  Every estimate equals the per-cell reference that runs
    select_neighbors, krige_rank and baseline_rank for one cell.

    `tables` maps valid-mask bytes to the neighbor table of that mask. It is
    filled in place, so calls that share one dict on the same grid and cfg
    (one per method, say) build each table once.
    """
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}, got {method!r}")
    altitudes = tuple(altitudes_m) if altitudes_m is not None else rg.altitudes_m
    ks = tuple(thresholds) if thresholds is not None else rg.thresholds
    pos = rg.positions
    groups = {}  # valid-mask bytes -> (mask, [(hi, ki)])
    for h in altitudes:
        hi = rg.altitudes_m.index(h)
        for K in ks:
            ki = rg.thresholds.index(K)
            valid = rg.ranks[hi, ki] >= 0
            groups.setdefault(valid.tobytes(), (valid, []))[1].append((hi, ki))
    if tables is None:
        tables = {}  # valid-mask bytes -> NeighborTable
    varies = varies_over_altitude(rg.ranks) if method == "kriging" else None  # (N_K, n)
    entries = {}
    for mask, (valid, members) in groups.items():
        nt = tables.get(mask)
        if nt is None:
            nt = tables[mask] = neighbor_table(pos, valid, cfg)
        his, kis = zip(*members)
        layers = rg.ranks[his, kis].astype(float)  # (L, n)
        if method == "kriging":
            est = krige_table(nt, pos, layers, varies[list(kis)], model)
            done = nt.count >= 1
        else:
            est = baseline_table(nt, layers, method)
            done = nt.count >= 2
        for (hi, kj), layer, e in zip(members, layers, est[:, done]):
            if round_estimates:
                e = np.round(e)
            errors = np.abs(layer[nt.targets[done]] - e)
            key = (float(rg.altitudes_m[hi]), float(rg.thresholds[kj]))
            entries[key] = (float(np.mean(errors)), len(errors)) if len(errors) else (np.nan, 0)
    return MAEReport(method, entries)


# ---------------------------------------------------------------------------
# Measurement traces and calibration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Trace:
    """Timestamped flight samples of RSS (or rank) along a trajectory."""

    t_s: np.ndarray
    positions: np.ndarray  # (n, 3)
    values: np.ndarray
    kind: str = "rss_dbm"

    def __post_init__(self):
        t = np.asarray(self.t_s, dtype=float)
        if np.any(np.diff(t) < 0):
            raise ValueError("trace timestamps must be non-decreasing")
        object.__setattr__(self, "t_s", t)
        object.__setattr__(self, "positions", np.asarray(self.positions, dtype=float))
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))

    def to_csv(self) -> str:
        lines = [f"t_s,x_m,y_m,z_m,{self.kind}"]
        for t, (x, y, z), v in zip(self.t_s, self.positions, self.values):
            lines.append(f"{t:.3f},{x:.3f},{y:.3f},{z:.3f},{v:.6f}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_csv(cls, text: str) -> "Trace":
        """Parse t_s,x_m,y_m,z_m,<kind> rows; the last column names the kind."""
        lines = [(n, ln) for n, ln in enumerate(text.splitlines(), start=1) if ln.strip()]
        if len(lines) < 2:
            raise ValueError("trace CSV has no samples")
        names = [c.strip() for c in lines[0][1].split(",")]
        if len(names) < 5 or not {"t_s", "x_m", "y_m", "z_m"} <= set(names[:-1]):
            raise ValueError(f"trace CSV header must be t_s,x_m,y_m,z_m,<kind>, "
                             f"got {lines[0][1]!r}")
        repeated = [c for i, c in enumerate(names) if c in names[:i]]
        if repeated:
            raise ValueError(f"trace CSV header repeats column {repeated[0]!r}")
        rows = np.empty((len(lines) - 1, len(names)))
        for r, (n, line) in enumerate(lines[1:]):
            cells = line.split(",")
            if len(cells) != len(names):
                raise ValueError(f"trace CSV line {n} has {len(cells)} cells, "
                                 f"expected {len(names)}")
            for c, cell in enumerate(cells):
                try:
                    rows[r, c] = float(cell)
                except ValueError:
                    rows[r, c] = np.nan
            bad = np.flatnonzero(~np.isfinite(rows[r]))
            if len(bad):
                raise ValueError(f"trace CSV line {n}, column {names[bad[0]]!r}: "
                                 f"{cells[bad[0]].strip()!r} is not a finite number")
        col = dict(zip(names, rows.T))
        return cls(
            t_s=col["t_s"],
            positions=np.column_stack([col["x_m"], col["y_m"], col["z_m"]]),
            values=col[names[-1]],
            kind=names[-1],
        )


OFFSET_GRID_DB = np.round(np.arange(-500, 501) * 0.1, 1)
JOIN_WINDOW_S = 0.05


def align_traces(measured: Trace, simulated: Trace):
    """Nearest-sample time join within the 50 ms window; returns value pairs."""
    t, s = measured.t_s, simulated.t_s
    idx = np.clip(np.searchsorted(s, t), min(1, len(s) - 1), len(s) - 1)
    left = np.maximum(idx - 1, 0)
    pick = np.where(np.abs(s[idx] - t) < np.abs(s[left] - t), idx, left)
    keep = np.abs(s[pick] - t) <= JOIN_WINDOW_S
    return measured.values[keep], simulated.values[pick[keep]]


def calibrate_offset(measured: Trace, simulated: Trace) -> tuple[float, float]:
    """Min-RMSE calibration offset in dB over the 0.1 dB grid on [-50, 50].

    Returns (offset_db, post-calibration RMSE); ties favor the smaller
    absolute offset.
    """
    if measured.kind != simulated.kind:
        raise ValueError(f"cannot calibrate a {measured.kind!r} trace against "
                         f"a {simulated.kind!r} trace")
    m, s = align_traces(measured, simulated)
    if len(m) == 0:
        raise ValueError("no overlapping samples between the traces")
    diffs = m - s
    rmse = np.sqrt(np.mean((diffs[None, :] - OFFSET_GRID_DB[:, None]) ** 2, axis=1))
    best = rmse.min()
    candidates = np.nonzero(rmse <= best + 1e-12)[0]
    pick = candidates[np.argmin(np.abs(OFFSET_GRID_DB[candidates]))]
    return float(OFFSET_GRID_DB[pick]), float(rmse[pick])


def rank_histogram(rg: RankGrid, altitude_m: float, K: float) -> dict:
    """Normalized rank histogram for one layer, including the Z fraction."""
    layer = rg.layer(altitude_m, K)
    n = len(layer)
    out = {}
    z = int(np.sum(layer == Z_RANK))
    if z:
        out["Z"] = z / n
    for r in sorted(set(layer[layer != Z_RANK].tolist())):
        out[int(r)] = int(np.sum(layer == r)) / n
    return out


def histogram_to_csv(hist: dict) -> str:
    lines = ["rank,fraction"]
    for k in sorted(hist, key=lambda x: (isinstance(x, str), x)):
        lines.append(f"{k},{hist[k]:.9f}")
    return "\n".join(lines) + "\n"
