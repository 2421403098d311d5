"""Index-based 1D interpolation baselines: natural cubic spline and makima.

Both operate on (grid index, rank) pairs sorted by index, deliberately
ignoring 2D geometry; adjacent indices may be 30 m or a full grid row apart.

One numpy kernel, `_interpolate`, evaluates either interpolant at one point
for a batch of rows at once.  It repeats the arithmetic of scipy's
CubicSpline(bc_type="natural") and Akima1DInterpolator(method="makima")
step by step, so its estimates are theirs to the last bit; the tests keep
scipy as the oracle.
"""

from __future__ import annotations

import numpy as np

from .kriging import NeighborTable
from .scene import block_length

METHODS = ("spline", "makima")
# Akima1DInterpolator keeps the fill slope where the slope weight is at most
# this fraction of the interpolant's largest weight
_MAKIMA_CUT = 1e-9


def baseline_rank(target_index: float, indices, values, method: str) -> float:
    """Interpolate the rank at a grid index from sampled (index, rank) pairs.

    "spline" is a natural cubic spline, "makima" modified-Akima cubic Hermite
    interpolation (linear through 2 samples); outside the sampled index range
    the boundary piece is extended.  The target index, the indices and the
    values must be finite.
    """
    _check_method(method)
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
    at = np.array([target_index], dtype=float)
    return float(_interpolate(x[None].astype(float), y[None, None], at, method)[0, 0])


def baseline_table(nt: NeighborTable, values, method: str) -> np.ndarray:
    """baseline_rank(i, neighbors of i, their values, method) for every target
    i of `nt`, NaN where it has fewer than 2 neighbors.

    `values` holds one row per layer, (L, n), for layers that share the
    neighbor table; the estimates are (L, T).  The targets with equally many
    neighbors are interpolated in kernel calls of scene.block_length rows of
    L x m values, at 0 over their sorted neighbor indices' offsets from them;
    shifting integer indices is exact and each estimate depends on its own
    row alone, so every estimate is baseline_rank's.
    """
    _check_method(method)
    layers = np.asarray(values, dtype=float)
    est = np.full((len(layers), len(nt.targets)), np.nan)
    for m in np.unique(nt.count[nt.count >= 2]):
        targets = np.flatnonzero(nt.count == m)
        block = block_length(len(layers) * m)
        for lo in range(0, len(targets), block):
            rows = targets[lo:lo + block]
            nb = np.sort(nt.index[rows, :m], axis=1)
            offsets = (nb - nt.targets[rows, None]).astype(float)
            est[:, rows] = _interpolate(offsets, layers[:, nb], np.zeros(len(rows)), method)
    return est


def _check_method(method: str) -> None:
    if method not in METHODS:
        raise ValueError(f"unknown baseline method {method!r}, expected one of {METHODS}")


def _interpolate(x, y, at, method: str) -> np.ndarray:
    """The interpolant of each row through (x[r, k], y[l, r, k]), at at[r].

    x is (R, m), strictly increasing along each row; y is (L, R, m); the
    result is (L, R), one interpolant per layer and row, as scipy builds for
    a single value column.
    """
    if not all(np.all(np.isfinite(a)) for a in (x, y, at)):
        raise ValueError("baseline interpolation needs finite indices and values")
    m = x.shape[1]
    y = np.moveaxis(y, -1, 0)  # (m, L, R): one (L, R) plane per sample position
    dx = np.diff(x, axis=1).T  # (m - 1, R)
    if method == "makima" and m == 2:
        # degenerate to linear, matching the spline's 2-point behavior
        t = (at - x[:, 0]) / dx[0]
        return y[0] + t * (y[1] - y[0])
    slope = np.diff(y, axis=0) / dx[:, None]
    if method == "spline":
        dydx = _natural_slopes(dx, y, slope)
    else:
        dydx = _makima_slopes(slope)
    # PPoly's find_interval: x[i] <= at < x[i + 1], the end pieces extended
    i = np.clip(np.sum(x <= at[:, None], axis=1) - 1, 0, m - 2)
    rows = np.arange(len(at))

    def piece(a, k):
        return a[i + k, :, rows].T if a.ndim == 3 else a[i + k, rows]

    h, sl, d0, d1 = piece(dx, 0), piece(slope, 0), piece(dydx, 0), piece(dydx, 1)
    # CubicHermiteSpline's coefficients of piece i, highest power first
    t = (d0 + d1 - 2 * sl) / h
    c = (t / h, (sl - d0) / h - t, d0, piece(y, 0))
    # evaluated as PPoly does: res += c_k * z, z *= s, from the constant term
    s = at - x[rows, i]
    res, z = 0.0, 1.0
    for k in range(3, -1, -1):
        res = res + c[k] * z
        if k:
            z = z * s
    return res


def _natural_slopes(dx, y, slope) -> np.ndarray:
    """The knot slopes (m, L, R) of CubicSpline(bc_type="natural").

    The banded system is scipy's; it is solved as LAPACK's dgtsv (which
    solve_banded calls for one sub- and one superdiagonal) solves it: Gaussian
    elimination that interchanges rows k and k + 1 where |d_k| < |dl_k|, then
    back substitution through the second superdiagonal the interchanges fill.
    The matrix depends on the row's x only, so it is eliminated once per row.
    """
    m = len(dx) + 1
    # the diagonal, the entries (k, k + 1) and the entries (k + 1, k)
    d = [2 * dx[0]] + list(2 * (dx[:-1] + dx[1:])) + [2 * dx[-1]]
    du = [dx[0]] + list(dx[:-1])
    dl = list(dx[1:]) + [dx[-1]]
    # the end rows set y'' = 0 as scipy writes them, a zero second
    # derivative times dx**2, which can turn a -0.0 right-hand side to 0.0
    zero = np.zeros(y.shape[1:])
    b = ([-0.5 * zero * dx[0] ** 2 + 3 * (y[1] - y[0])]
         + [3 * (dx[k] * slope[k - 1] + dx[k - 1] * slope[k]) for k in range(1, m - 1)]
         + [0.5 * zero * dx[-1] ** 2 + 3 * (y[-1] - y[-2])])
    for k in range(m - 1):
        swap = np.abs(d[k]) < np.abs(dl[k])
        with np.errstate(divide="ignore", invalid="ignore"):
            keep, turn = dl[k] / d[k], d[k] / dl[k]  # the factor of each branch
        d[k], d[k + 1], du[k] = (np.where(swap, dl[k], d[k]),
                                 np.where(swap, du[k] - turn * d[k + 1],
                                          d[k + 1] - keep * du[k]),
                                 np.where(swap, d[k + 1], du[k]))
        b[k], b[k + 1] = (np.where(swap, b[k + 1], b[k]),
                          np.where(swap, b[k] - turn * b[k + 1], b[k + 1] - keep * b[k]))
        if k < m - 2:
            dl[k], du[k + 1] = (np.where(swap, du[k + 1], 0.0),
                                np.where(swap, -turn * du[k + 1], du[k + 1]))
    s = [None] * m
    s[-1] = b[-1] / d[-1]
    s[-2] = (b[-2] - du[-1] * s[-1]) / d[-2]
    for k in range(m - 3, -1, -1):
        s[k] = (b[k] - du[k] * s[k + 1] - dl[k] * s[k + 2]) / d[k]
    return np.stack(s)


def _makima_slopes(slope) -> np.ndarray:
    """The knot slopes (m, L, R) of Akima1DInterpolator(method="makima"),
    m >= 3, with its weight cut taken over each interpolant (each layer and
    row) alone."""
    mm = np.empty((len(slope) + 4,) + slope.shape[1:])
    mm[2:-2] = slope
    # two extrapolated slopes at each end
    mm[1] = 2. * mm[2] - mm[3]
    mm[0] = 2. * mm[1] - mm[2]
    mm[-2] = 2. * mm[-3] - mm[-4]
    mm[-1] = 2. * mm[-2] - mm[-3]
    fill = .5 * (mm[3:] + mm[:-3])
    dm = np.abs(np.diff(mm, axis=0))
    pm = np.abs(mm[1:] + mm[:-1])
    f1 = dm[2:] + 0.5 * pm[2:]
    f2 = dm[:-2] + 0.5 * pm[:-2]
    f12 = f1 + f2
    cut = f12 > _MAKIMA_CUT * np.max(f12, axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        weighted = mm[1:-2] + (f2 / f12) * (mm[2:-1] - mm[1:-2])
    return np.where(cut, weighted, fill)
