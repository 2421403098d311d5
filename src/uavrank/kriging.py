"""Ordinary Kriging of channel rank using the fitted correlation model.

Weights come from the Lagrange-augmented linear system built on the
semi-variogram gamma(d) = v^2 * (1 - correlation(d)); they sum to 1 and make
the interpolator exact at sampled locations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

from .correlation import CorrelationModel


@dataclass(frozen=True)
class KrigingConfig:
    M: int = 20  # samples used per target
    r0_m: float = 150.0  # horizontal sampling radius

    def __post_init__(self):
        if self.M < 1:
            raise ValueError(f"M must be >= 1, got {self.M}")
        if self.r0_m <= 0:
            raise ValueError(f"r0 must be > 0, got {self.r0_m}")


@dataclass(frozen=True)
class KrigingSolution:
    weights: np.ndarray
    lagrange: float
    estimate: float
    fallback: bool = False  # True when a singular system forced nearest-neighbor


def _variogram_system(sample_xy: np.ndarray, target_xy: np.ndarray,
                      model: CorrelationModel, v2: float):
    m = len(sample_xy)
    gam_ss = np.maximum(0.0, v2 * (1.0 - model(cdist(sample_xy, sample_xy))))
    gam_ts = np.maximum(
        0.0, v2 * (1.0 - model(np.linalg.norm(sample_xy - target_xy, axis=1)))
    )
    a = np.ones((m + 1, m + 1))
    a[:m, :m] = gam_ss
    a[m, m] = 0.0
    b = np.ones(m + 1)
    b[:m] = gam_ts
    return a, b


def solve_weights(samples, target, model: CorrelationModel, v2: float) -> KrigingSolution:
    """Solve the Lagrange-augmented Kriging system for one target.

    On a singular system (duplicate samples or zero variance) falls back to a
    unit weight on the nearest sample, flagged in the result.
    """
    sample_xy = np.asarray(samples, dtype=float)
    target_xy = np.asarray(target, dtype=float)
    if len(sample_xy) < 1:
        raise ValueError("need at least one sample")
    m = len(sample_xy)
    if m == 1:
        return KrigingSolution(np.array([1.0]), 0.0, np.nan)
    a, b = _variogram_system(sample_xy, target_xy, model, v2)
    fallback = False
    try:
        sol = np.linalg.solve(a, b)
        w = sol[:m]
        lagrange = float(sol[m])
        if not np.all(np.isfinite(w)) or abs(w.sum() - 1.0) > 1e-6:
            raise np.linalg.LinAlgError("ill-conditioned Kriging system")
    except np.linalg.LinAlgError:
        fallback = True
        w = np.zeros(m)
        w[np.argmin(np.linalg.norm(sample_xy - target_xy, axis=1))] = 1.0
        lagrange = 0.0
    return KrigingSolution(w, lagrange, np.nan, fallback)


def select_neighbors(target_xy, sample_xy, cfg: KrigingConfig,
                     exclude: int | None = None, valid=None) -> np.ndarray:
    """Indices of the M nearest samples within r0, ties broken by lower index."""
    sample_xy = np.asarray(sample_xy, dtype=float)
    d = np.linalg.norm(sample_xy - np.asarray(target_xy, dtype=float), axis=1)
    eligible = d <= cfg.r0_m + 1e-9
    if valid is not None:
        eligible &= np.asarray(valid, dtype=bool)
    if exclude is not None:
        eligible[exclude] = False
    idx = np.nonzero(eligible)[0]
    if len(idx) == 0:
        return idx
    # stable sort on distance keeps the lower grid index on ties
    order = np.argsort(d[idx], kind="stable")
    return idx[order[: cfg.M]]


def krige_rank(target, sample_xy, layer_values, altitude_stacks,
               cfg: KrigingConfig, model: CorrelationModel,
               exclude: int | None = None) -> KrigingSolution:
    """Kriging estimate of the rank at `target` for one (altitude, K) layer.

    `layer_values` holds the rank of each sample location in that layer;
    `altitude_stacks` (n_samples, N_h) holds the ranks over all altitudes at
    the layer's threshold, from which the per-location variance is taken.
    The target's own variance is unknown at prediction time, so the system
    uses the mean variance over the selected neighbors.  Out-of-coverage
    samples are marked by negative layer values.
    """
    sample_xy = np.asarray(sample_xy, dtype=float)
    layer_values = np.asarray(layer_values, dtype=float)
    valid = layer_values >= 0
    neighbors = select_neighbors(target, sample_xy, cfg, exclude=exclude, valid=valid)
    if len(neighbors) == 0:
        raise ValueError("no in-coverage samples within the sampling radius")
    stacks = np.asarray(altitude_stacks, dtype=float)[neighbors]
    v2 = float(np.mean(np.var(stacks, axis=1, ddof=1)))
    if v2 == 0.0:
        # all neighbor ranks constant over altitude: singular system
        w = np.zeros(len(neighbors))
        w[0] = 1.0  # neighbors are distance-sorted; nearest first
        est = float(layer_values[neighbors[0]])
        return KrigingSolution(w, 0.0, est, fallback=True)
    sol = solve_weights(sample_xy[neighbors], target, model, v2)
    est = float(sol.weights @ layer_values[neighbors])
    return KrigingSolution(sol.weights, sol.lagrange, est, sol.fallback)
