"""Index-based 1D interpolation baselines: natural cubic spline and makima.

Both operate on (grid index, rank) pairs sorted by index, deliberately
ignoring 2D geometry; adjacent indices may be 30 m or a full grid row apart.
"""

from __future__ import annotations

import numpy as np

from .kriging import NeighborTable


def baseline_rank(target_index: float, indices, values, method: str) -> float:
    """Interpolate the rank at a grid index from sampled (index, rank) pairs.

    "spline" is a natural cubic spline, "makima" modified-Akima cubic Hermite
    interpolation (linear through 2 samples); outside the sampled index range
    the boundary piece is extended.
    """
    indices = np.asarray(indices)
    values = np.asarray(values, dtype=float)
    if len(indices) != len(values):
        raise ValueError("indices and values must have equal length")
    if len(indices) < 2:
        raise ValueError("baseline interpolation needs at least 2 samples")
    order = np.argsort(indices)
    x, y = indices[order], values[order]
    if np.any(np.diff(x) <= 0):
        raise ValueError("indices must be distinct")
    return float(_interpolate(x, y, target_index, method))


def baseline_table(nt: NeighborTable, values, method: str) -> np.ndarray:
    """baseline_rank(i, neighbors of i, their values, method) for every target
    i of `nt`, NaN where it has fewer than 2 neighbors.

    `values` holds one row per layer, (L, n), for layers that share the
    neighbor table; the estimates are (L, T).  Targets whose sorted neighbor
    indices lie at the same offsets from them share one interpolant over
    those offsets, with one value column per target and layer; shifting
    integer indices is exact, so every column evaluates to baseline_rank's
    estimate.
    """
    layers = np.asarray(values, dtype=float)
    est = np.full((len(layers), len(nt.targets)), np.nan)
    for m in np.unique(nt.count[nt.count >= 2]):
        rows = np.flatnonzero(nt.count == m)
        nb = np.sort(nt.index[rows, :m], axis=1)
        patterns, group = np.unique(nb - nt.targets[rows, None], axis=0,
                                    return_inverse=True)
        group = group.ravel()
        order = np.argsort(group, kind="stable")
        bounds = np.cumsum(np.bincount(group))[:-1]
        for x, members in zip(patterns, np.split(order, bounds)):
            y = layers[:, nb[members]].reshape(-1, m).T  # (m, layers x targets)
            if method == "makima" and m > 2 and not _columns_independent(x, y):
                col_est = [_interpolate(x, col, 0.0, method) for col in y.T]
            else:
                col_est = _interpolate(x, y, 0.0, method)
            est[:, rows[members]] = np.reshape(col_est, (len(layers), len(members)))
    return est


def _interpolate(x, y, at: float, method: str):
    """Interpolant through (x[k], y[k]) at `at`; y may hold one column per
    interpolant."""
    # scipy is imported on first use: the coverage and rank stages load this
    # module but never call it
    from scipy.interpolate import Akima1DInterpolator, CubicSpline

    if method == "spline":
        return CubicSpline(x, y, bc_type="natural", extrapolate=True)(at)
    if method == "makima":
        if len(x) == 2:
            # degenerate to linear, matching the spline's 2-point behavior
            t = (at - x[0]) / (x[1] - x[0])
            return y[0] + t * (y[1] - y[0])
        return Akima1DInterpolator(x, y, method="makima", extrapolate=True)(at)
    raise ValueError(f"unknown baseline method {method!r}")


def _columns_independent(x, y) -> bool:
    """Whether makima through the columns of y at once equals makima through
    each column alone.

    Akima1DInterpolator drops a slope weight below 1e-9 times the largest
    weight over all columns.  With integer values at integer x, a nonzero
    weight is at least 1 / span**2 and none exceeds 30 times the value range,
    so no weight crosses the cut while 3e-8 * span**2 * range < 1 (tested
    against 0.5 to leave room for rounding).
    """
    span = float(x[-1] - x[0])
    return bool(np.all(y == np.round(y))) and 3e-8 * span**2 * float(np.ptp(y)) < 0.5
