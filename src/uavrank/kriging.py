"""Ordinary Kriging of channel rank using the fitted correlation model.

Weights come from the Lagrange-augmented linear system built on the
semi-variogram gamma(d) = v^2 * (1 - correlation(d)); they sum to 1 and make
the interpolator exact at sampled locations.  The sill v^2 > 0 scales every
variogram entry, which leaves the weights unchanged and scales only the
Lagrange multiplier, so the system is solved with v^2 = 1 and v^2 decides
only whether to solve at all: v^2 == 0 falls back to the nearest neighbor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .correlation import CorrelationModel, _distances
from .scene import block_length, product_axes

# Candidates past the M nearest that a k-nearest search returns, so that the
# samples tied at the M-th distance (up to 8 on a square grid) come in one
# search.
_TIE_SLACK = 8


@dataclass(frozen=True)
class KrigingConfig:
    M: int = 20  # samples used per target
    r0_m: float = 150.0  # horizontal sampling radius

    def __post_init__(self):
        if self.M < 1:
            raise ValueError(f"M must be >= 1, got {self.M}")
        if not 0 < self.r0_m < math.inf:
            raise ValueError(f"r0 must be finite and > 0, got {self.r0_m}")


@dataclass(frozen=True)
class KrigingSolution:
    weights: np.ndarray
    lagrange: float
    estimate: float
    fallback: bool = False  # True when a singular system forced nearest-neighbor


def _variogram_system(sample_xy: np.ndarray, target_xy: np.ndarray,
                      model: CorrelationModel):
    """The unit-sill Kriging system of one target: 1 - correlation, clamped
    at 0, between the samples and from them to the target."""
    m = len(sample_xy)
    a = np.ones((m + 1, m + 1))
    a[:m, :m] = np.maximum(0.0, 1.0 - model(_distances(sample_xy, sample_xy)))
    a[m, m] = 0.0
    b = np.ones(m + 1)
    b[:m] = np.maximum(0.0, 1.0 - model(np.linalg.norm(sample_xy - target_xy, axis=1)))
    return a, b


def solve_weights(samples, target, model: CorrelationModel, v2: float) -> KrigingSolution:
    """Solve the Lagrange-augmented Kriging system of sill v2 for one target:
    its weights are those of the unit-sill system, its multiplier v2 times
    that system's.

    On a singular system (duplicate samples) falls back to a unit weight on
    the nearest sample, flagged in the result.
    """
    sample_xy = np.asarray(samples, dtype=float)
    target_xy = np.asarray(target, dtype=float)
    if len(sample_xy) < 1:
        raise ValueError("need at least one sample")
    m = len(sample_xy)
    if m == 1:
        return KrigingSolution(np.array([1.0]), 0.0, np.nan)
    a, b = _variogram_system(sample_xy, target_xy, model)
    fallback = False
    try:
        sol = np.linalg.solve(a, b)
        w = sol[:m]
        lagrange = v2 * float(sol[m])
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
    prediction time, so the sill v2 is the mean variance over the selected
    neighbors; it decides only the fallback to the nearest neighbor when it
    is 0.  Out-of-coverage samples are marked by negative layer values.
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
    # C order: a stack's variance sums its altitudes as krige_rank's rows do
    stacks = np.asarray(altitude_stacks, dtype=float, order="C")
    if stacks.shape[-1] < 2:
        raise ValueError(f"Kriging needs at least 2 altitudes, got {stacks.shape[-1]}: "
                         "the rank variance over altitude is undefined")
    return stacks


def varies_over_altitude(ranks) -> np.ndarray:
    """(N_K, n) mask, from ranks (N_h, N_K, n), of the cells whose float stack over
    altitude has a variance above 0 as krige_rank takes it: all krige_table needs."""
    return np.var(_altitude_stacks(np.moveaxis(ranks, 0, -1)), axis=-1, ddof=1) != 0.0


@dataclass(frozen=True)
class NeighborTable:
    """The neighbors select_neighbors picks for every in-coverage target.

    Row t holds the `count[t]` neighbors of sample `targets[t]`, nearest
    first with ties to the lower index, and their horizontal distances; the
    rest of the row is padding (index -1, distance 0).  Both ways
    neighbor_table builds it, from one stencil on a lattice and from k-d
    searches elsewhere, give the same table.
    """

    targets: np.ndarray  # (T,) sample indices, ascending
    count: np.ndarray  # (T,)
    index: np.ndarray  # (T, min(M, T - 1))
    dist: np.ndarray  # (T, min(M, T - 1))


def neighbor_table(sample_xy, valid, cfg: KrigingConfig) -> NeighborTable:
    """select_neighbors(sample_xy[i], sample_xy, cfg, exclude=i, valid=valid)
    for every valid i.

    On a lattice (_lattice), a neighbor's distance depends only on its index
    offset, so one stencil of offsets sorted as select_neighbors sorts serves
    every target, and scipy is not loaded.  Any other positions take
    k-nearest searches of one k-d tree over the valid samples.
    """
    sample_xy = np.asarray(sample_xy, dtype=float)
    lattice = _lattice(sample_xy)
    if lattice is None:
        return _tree_table(sample_xy, valid, cfg)
    return _stencil_table(*lattice, valid, cfg)


def _lattice(xy):
    """(xs, ys) of positions that form a lattice, None otherwise.

    A lattice is a row-major product grid, x fastest, as grid_positions lays
    it out (scene.product_axes), on which every coordinate difference depends
    only on its index offset, bit for bit: each diagonal of
    np.subtract.outer(xs, xs), and of ys, is constant.  Whole-metre grid
    spacings give one; spacings such as 0.1 m do not.  The offsets of a
    target's neighbors then fix their distances to it and between them.
    """
    axes = product_axes(xy)
    if axes is None or not all(map(_equal_diagonals, axes)):
        return None
    return axes


def _equal_diagonals(v) -> bool:
    """Whether v[i + k] - v[i] depends on k only, bit for bit, tested a block
    of rows of np.subtract.outer(v, v) at a time."""
    step = block_length(len(v))
    for lo in range(0, len(v) - 1, step):
        d = np.subtract.outer(v[lo:lo + step + 1], v)
        if not np.array_equal(d[1:, 1:], d[:-1, :-1]):
            return False
    return True


def _stencil_table(xs, ys, valid, cfg: KrigingConfig) -> NeighborTable:
    """neighbor_table on the lattice of axes xs and ys: every target takes the
    first M stencil entries that fall on the grid and on a valid sample."""
    nx, ny = len(xs), len(ys)
    radius = cfg.r0_m + 1e-9
    # xs[i + k] - xs[i] for k = -(nx - 1) .. nx - 1, the same for every i; an
    # offset within r0 is within it on each axis
    fx = np.concatenate([xs[0] - xs[:0:-1], xs - xs[0]])
    fy = np.concatenate([ys[0] - ys[:0:-1], ys - ys[0]])
    kx = np.flatnonzero(np.abs(fx) <= radius)
    ky = np.flatnonzero(np.abs(fy) <= radius)[:, None]
    dx, dy = fx[kx], fy[ky]
    d = np.sqrt(dx * dx + dy * dy)  # as _tree_table computes each distance
    ox, oy = np.broadcast_arrays(kx - (nx - 1), ky - (ny - 1))
    flat = ox + nx * oy  # the index offset: lower is the lower index
    keep = (d <= radius) & (flat != 0)
    # nearest first, ties to the lower index, as select_neighbors sorts
    order = np.lexsort((flat[keep], d[keep]))
    s_x, s_y, s_flat, s_d = ox[keep][order], oy[keep][order], flat[keep][order], d[keep][order]

    # the valid mask inside a border of False as wide as the stencil, so each
    # entry of a target is one offset into it, on the grid or not
    px, py = np.max(np.abs(s_x), initial=0), np.max(np.abs(s_y), initial=0)
    wide = nx + 2 * px
    inside = np.zeros((ny + 2 * py, wide), dtype=bool)
    inside[py:py + ny, px:px + nx] = np.reshape(valid, (ny, nx))
    inside, s_wide = inside.ravel(), s_x + wide * s_y
    targets = np.flatnonzero(valid)
    n = len(targets)
    count = np.zeros(n, dtype=int)
    width = min(cfg.M, max(n - 1, 0))  # no row holds more neighbors
    index = np.full((n, width), -1)
    dist = np.zeros((n, width))
    at = (targets // nx + py) * wide + targets % nx + px
    rows = np.arange(n if n > 1 and len(s_d) else 0)  # a lone sample has no neighbor
    c = cfg.M
    while len(rows):
        # the first c stencil entries of each row, in blocks of bounded size;
        # a row is complete when they hold M neighbors or are the whole stencil
        c = min(c, len(s_d))
        step = block_length(c)
        left = []
        for lo in range(0, len(rows), step):
            r = rows[lo:lo + step]
            ok = inside[at[r, None] + s_wide[:c]]
            rank = np.cumsum(ok, axis=1)
            done = (rank[:, -1] >= cfg.M) | (c == len(s_d))
            rank, r_done = rank[done], r[done]
            i, j = np.nonzero(ok[done] & (rank <= cfg.M))
            t, slot = r_done[i], rank[i, j] - 1
            index[t, slot] = targets[t] + s_flat[j]
            dist[t, slot] = s_d[j]
            count[r_done] = np.minimum(rank[:, -1], cfg.M)
            left.append(r[~done])
        rows, c = np.concatenate(left), 2 * c
    return NeighborTable(targets, count, index, dist)


def _tree_table(sample_xy, valid, cfg: KrigingConfig) -> NeighborTable:
    """neighbor_table from k-nearest searches of one k-d tree over the valid
    samples, for positions that are not a lattice."""
    from scipy.spatial import cKDTree

    targets = np.flatnonzero(valid)
    pts = sample_xy[targets]
    n = len(targets)
    radius = cfg.r0_m + 1e-9
    count = np.zeros(n, dtype=int)
    width = min(cfg.M, max(n - 1, 0))  # no row holds more neighbors
    index = np.full((n, width), -1)
    dist = np.zeros((n, width))
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
        dx = pts[cand, 0] - pts[r, 0][:, None]
        dy = pts[cand, 1] - pts[r, 1][:, None]
        d = np.sqrt(dx * dx + dy * dy)
        ok &= d <= radius
        # nearest first, ties to the lower index, as select_neighbors sorts
        order = np.lexsort((cand, np.where(ok, d, np.inf)), axis=-1)[:, :width]
        c = np.minimum(ok.sum(axis=1), cfg.M)
        pad = np.arange(order.shape[1]) >= c[:, None]
        count[r] = c
        index[r, :order.shape[1]] = np.where(
            pad, -1, targets[np.take_along_axis(cand, order, axis=1)])
        dist[r, :order.shape[1]] = np.where(pad, 0.0, np.take_along_axis(d, order, axis=1))
    return NeighborTable(targets, count, index, dist)


def krige_table(nt: NeighborTable, sample_xy, layer_values, varies,
                model: CorrelationModel) -> np.ndarray:
    """krige_rank(...).estimate for every target of `nt` with the target
    excluded, NaN where it has no neighbor.

    `layer_values` holds one row per layer, (L, n), for layers that share the
    neighbor table, and `varies` (L, n) the varies_over_altitude row of each
    layer's threshold (v2, a mean of variances >= 0, is 0 where no neighbor
    varies); the estimates are (L, T).  The weights depend only on the
    geometry of a target's neighbors, so they serve every layer, and each
    distinct system is solved once: targets whose systems are built from the
    same bytes (the distances between their neighbors and to them) share its
    weights, and on a regular grid most systems repeat.  The distinct systems
    of targets with equally many neighbors are solved stacked, every step in
    krige_rank's order so the estimates are equal to its, fallbacks included.

    On a lattice (_lattice) the 2-D index offsets of a target's neighbors fix
    those distances, so targets are first keyed by their offset pattern, and
    only one target of each pattern has its distances computed and keyed.
    """
    sample_xy = np.asarray(sample_xy, dtype=float)
    lattice = _lattice(sample_xy)
    layers = np.asarray(layer_values, dtype=float)
    est = np.full((len(layers), len(nt.targets)), np.nan)
    has = nt.count > 0
    # the nearest neighbor: the estimate of one neighbor, of v2 == 0 (no neighbor
    # varies) and of every other fallback; a table of < 2 targets has no column
    est[:, has] = layers[:, nt.index[has, :1].ravel()]
    for m in np.unique(nt.count[nt.count >= 2]):
        rows = np.flatnonzero(nt.count == m)
        nb = nt.index[rows, :m]
        # v2 != 0 of each layer decides only whether its estimate takes the weights
        solve = np.array([v[nb].any(axis=1) for v in varies])  # (L, R)
        keep = solve.any(axis=0)
        rows, nb, solve = rows[keep], nb[keep], solve[:, keep]
        first = pattern = np.arange(len(rows))  # off a lattice, each target alone
        if lattice is not None:
            # one int per neighbor offset (ox, oy), |ox| < nx, and one key of
            # m of them per target
            nx = len(lattice[0])
            t = nt.targets[rows, None]
            code = (nb % nx - t % nx) + (2 * nx - 1) * (nb // nx - t // nx)
            key = code.view(np.dtype((np.void, code.itemsize * m)))[:, 0]
            _, first, pattern = np.unique(key, return_index=True, return_inverse=True)
        system, w = _system_weights(sample_xy[nb[first]], nt.dist[rows[first], :m], model)
        system = system[pattern]
        ok = (np.all(np.isfinite(w), axis=1) & ~(np.abs(w.sum(axis=1) - 1.0) > 1e-6))[system]
        for e, layer, use in zip(est, layers, solve & ok):
            e[rows[use]] = np.matmul(w[system[use], None, :], layer[nb[use]][:, :, None])[:, 0, 0]
    return est


def _system_weights(xy, d_ts, model: CorrelationModel):
    """The distinct Kriging systems of B targets with m neighbors each and
    their weights (S, m), NaN where singular, in one pass: returns (system,
    w) with the system of each target.

    A target's system is built from the distances between its neighbors
    (from their positions xy, (B, m, 2)) and to them (d_ts), elementwise, so
    targets whose distances have equal bytes get equal weights; neither the
    neighbors' index offsets nor d_ts alone tell that (a sample 1 ulp off its
    grid point keeps both).  Each target's distances are computed once, to
    key it and, for a new system, to solve it.
    """
    b_n, m = d_ts.shape
    systems = {}  # distance bytes -> system number
    system = np.empty(b_n, dtype=np.intp)
    w = np.empty((b_n, m))  # no more systems than targets
    block = block_length((m + 1) ** 2)
    n, new = 0, []  # systems solved so far; (d_ss, d_ts) of those pending
    for lo in range(0, b_n, block):
        d_ss, ts = _pair_distances(xy[lo:lo + block]), d_ts[lo:lo + block]
        for t, ss, tt in zip(range(lo, b_n), d_ss, ts):
            s = system[t] = systems.setdefault(ss.tobytes() + tt.tobytes(), len(systems))
            if s == n + len(new):
                new.append((ss, tt))
        # one solve call per full stack of new systems; LAPACK solves each alone
        if len(new) >= block or (new and lo + block >= b_n):
            w[n:len(systems)] = _solve_block(*map(np.array, zip(*new)), model)
            n, new = len(systems), []
    return system, w[:n]


def _pair_distances(xy) -> np.ndarray:
    """The (B, m, m) distances between the m samples of each of B stacked
    systems, as cdist computes them."""
    return _distances(xy, xy)


def _solve_block(d_ss, d_ts, model: CorrelationModel) -> np.ndarray:
    """Kriging weights (B, m) of B stacked _variogram_system systems, from
    the distances between their samples (B, m, m) and to their targets
    (B, m); a row is NaN where its system is singular."""
    b_n, m = d_ts.shape
    a = np.ones((b_n, m + 1, m + 1))
    a[:, :m, :m] = np.maximum(0.0, 1.0 - model(d_ss))
    a[:, m, m] = 0.0
    b = np.ones((b_n, m + 1))
    b[:, :m] = np.maximum(0.0, 1.0 - model(d_ts))
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
