"""Ordinary Kriging of channel rank using the fitted correlation model.

Weights come from the Lagrange-augmented linear system built on the
semi-variogram gamma(d) = v^2 * (1 - correlation(d)); they sum to 1 and make
the interpolator exact at sampled locations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree
from scipy.spatial.distance import cdist

from .correlation import CorrelationModel

# Candidates past the M nearest that a k-nearest search returns, so that the
# samples tied at the M-th distance (up to 8 on a square grid) come in one
# search.
_TIE_SLACK = 8

# Matrix entries of the Kriging systems built and solved together: 2**13
# entries (64 kB) is 18 systems at M = 20; the temporaries of a block stay
# near 0.5 MB, so LOO adds little to the peak memory of a small grid.
_SOLVE_ENTRIES = 2**13


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
    the layer's threshold, from which the per-location variance is taken, so
    N_h must be at least 2.  The target's own variance is unknown at
    prediction time, so the system uses the mean variance over the selected
    neighbors.  Out-of-coverage samples are marked by negative layer values.
    """
    stacks = _altitude_stacks(altitude_stacks)
    sample_xy = np.asarray(sample_xy, dtype=float)
    layer_values = np.asarray(layer_values, dtype=float)
    valid = layer_values >= 0
    neighbors = select_neighbors(target, sample_xy, cfg, exclude=exclude, valid=valid)
    if len(neighbors) == 0:
        raise ValueError("no in-coverage samples within the sampling radius")
    v2 = float(np.mean(np.var(stacks[neighbors], axis=1, ddof=1)))
    if v2 == 0.0:
        # all neighbor ranks constant over altitude: singular system
        w = np.zeros(len(neighbors))
        w[0] = 1.0  # neighbors are distance-sorted; nearest first
        est = float(layer_values[neighbors[0]])
        return KrigingSolution(w, 0.0, est, fallback=True)
    sol = solve_weights(sample_xy[neighbors], target, model, v2)
    est = float(sol.weights @ layer_values[neighbors])
    return KrigingSolution(sol.weights, sol.lagrange, est, sol.fallback)


def _altitude_stacks(altitude_stacks) -> np.ndarray:
    stacks = np.asarray(altitude_stacks, dtype=float)
    if stacks.shape[1] < 2:
        raise ValueError(f"Kriging needs at least 2 altitudes, got {stacks.shape[1]}: "
                         "the rank variance over altitude is undefined")
    return stacks


@dataclass(frozen=True)
class NeighborTable:
    """The neighbors select_neighbors picks for every in-coverage target.

    Row t holds the `count[t]` neighbors of sample `targets[t]`, nearest
    first with ties to the lower index, and their horizontal distances; the
    rest of the row is padding (index -1, distance 0).
    """

    targets: np.ndarray  # (T,) sample indices, ascending
    count: np.ndarray  # (T,)
    index: np.ndarray  # (T, M)
    dist: np.ndarray  # (T, M)


def neighbor_table(sample_xy, valid, cfg: KrigingConfig) -> NeighborTable:
    """select_neighbors(sample_xy[i], sample_xy, cfg, exclude=i, valid=valid)
    for every valid i, from k-nearest searches of one k-d tree over the
    valid samples."""
    sample_xy = np.asarray(sample_xy, dtype=float)
    targets = np.flatnonzero(valid)
    pts = sample_xy[targets]
    n = len(targets)
    radius = cfg.r0_m + 1e-9
    count = np.zeros(n, dtype=int)
    index = np.full((n, cfg.M), -1)
    dist = np.zeros((n, cfg.M))
    tree = cKDTree(pts)
    rows = np.arange(n if n > 1 else 0)  # a lone sample has no neighbor
    k = cfg.M + 1 + _TIE_SLACK  # each target finds itself too
    while len(rows):
        k = min(k, n)
        # the tree rounds distances its own way: search a little wider, then
        # keep what the distance select_neighbors computes puts within r0
        tree_d, cand = tree.query(pts[rows], k=k, distance_upper_bound=radius * (1.0 + 1e-6))
        # a row is complete when no sample outside its candidates can tie
        # with or beat its M-th nearest; the others search again, wider
        done = ((k == n) | np.isinf(tree_d[:, -1])
                | (tree_d[:, -1] > tree_d[:, min(cfg.M, k - 1)] * (1.0 + 1e-9)))
        r, cand = rows[done], cand[done]
        rows, k = rows[~done], 2 * k
        ok = (cand < n) & (cand != r[:, None])  # n marks no candidate
        cand = np.where(ok, cand, 0)
        d = np.linalg.norm(pts[cand] - pts[r][:, None, :], axis=-1)
        ok &= d <= radius
        # nearest first, ties to the lower index, as select_neighbors sorts
        order = np.lexsort((cand, np.where(ok, d, np.inf)), axis=-1)[:, :cfg.M]
        c = np.minimum(ok.sum(axis=1), cfg.M)
        pad = np.arange(order.shape[1]) >= c[:, None]
        count[r] = c
        index[r, :order.shape[1]] = np.where(
            pad, -1, targets[np.take_along_axis(cand, order, axis=1)])
        dist[r, :order.shape[1]] = np.where(pad, 0.0, np.take_along_axis(d, order, axis=1))
    return NeighborTable(targets, count, index, dist)


def krige_table(nt: NeighborTable, sample_xy, layer_values, altitude_stacks,
                model: CorrelationModel) -> np.ndarray:
    """krige_rank(...).estimate for every target of `nt` with the target
    excluded, NaN where it has no neighbor.

    `layer_values` holds one layer, (n,), or one row per layer, (L, n), for
    layers that share the neighbor table and the altitude stacks; the
    estimates have the same leading shape, (T,) or (L, T).  The weights do
    not depend on the layer, so each system is solved once and applied to
    every layer.  The systems of targets with equally many neighbors are
    solved together, with every arithmetic step in krige_rank's order so the
    estimates are equal to its, fallbacks included.
    """
    stacks = _altitude_stacks(altitude_stacks)
    sample_xy = np.asarray(sample_xy, dtype=float)
    values = np.asarray(layer_values, dtype=float)
    layers = values.reshape(-1, values.shape[-1])
    # row by row, as krige_rank takes the variance of its neighbor rows
    var = np.var(np.ascontiguousarray(stacks), axis=1, ddof=1)
    est = np.full((len(layers), len(nt.targets)), np.nan)
    has = nt.count > 0
    # the nearest neighbor: the estimate of one neighbor, of v2 == 0 (all
    # neighbor stacks constant) and of every other fallback
    est[:, has] = layers[:, nt.index[has, 0]]
    for m in np.unique(nt.count[nt.count >= 2]):
        rows = np.flatnonzero(nt.count == m)
        block = max(1, _SOLVE_ENTRIES // (m + 1) ** 2)
        for lo in range(0, len(rows), block):
            r = rows[lo:lo + block]
            nb = nt.index[r, :m]
            v2 = np.mean(var[nb], axis=1)
            solve = v2 != 0.0
            r, nb, v2 = r[solve], nb[solve], v2[solve]
            w = _solve_block(sample_xy[nb], nt.dist[r, :m], model, v2)
            ok = np.all(np.isfinite(w), axis=1) & ~(np.abs(w.sum(axis=1) - 1.0) > 1e-6)
            r, nb, w = r[ok], nb[ok], w[ok, None, :]
            for e, layer in zip(est, layers):
                e[r] = np.matmul(w, layer[nb][:, :, None])[:, 0, 0]
    return est.reshape(values.shape[:-1] + est.shape[-1:])


def _solve_block(xy, d_ts, model: CorrelationModel, v2) -> np.ndarray:
    """Kriging weights (B, m) of B stacked _variogram_system systems; a row is
    NaN where its system is singular."""
    b_n, m = d_ts.shape
    # cdist's distances: the sum of squares in its order, built in place
    d_ss = xy[:, :, None, 0] - xy[:, None, :, 0]
    dy = xy[:, :, None, 1] - xy[:, None, :, 1]
    d_ss *= d_ss
    dy *= dy
    d_ss += dy
    np.sqrt(d_ss, out=d_ss)
    gam = model(d_ss)
    np.subtract(1.0, gam, out=gam)
    gam *= v2[:, None, None]
    a = np.ones((b_n, m + 1, m + 1))
    a[:, :m, :m] = np.maximum(0.0, gam, out=gam)
    a[:, m, m] = 0.0
    b = np.ones((b_n, m + 1))
    b[:, :m] = np.maximum(0.0, v2[:, None] * (1.0 - model(d_ts)))
    try:
        sol = np.linalg.solve(a, b[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:
        # one singular system fails the whole stack: solve one at a time
        sol = np.full((b_n, m + 1), np.nan)
        for t in range(b_n):
            try:
                sol[t] = np.linalg.solve(a[t], b[t])
            except np.linalg.LinAlgError:
                pass
    return np.ascontiguousarray(sol[:, :m])
