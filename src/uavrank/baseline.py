"""Index-based 1D interpolation baselines: natural cubic spline and makima.

Both operate on (grid index, rank) pairs sorted by index, deliberately
ignoring 2D geometry; adjacent indices may be 30 m or a full grid row apart.
"""

from __future__ import annotations

import numpy as np
from scipy.interpolate import Akima1DInterpolator, CubicSpline


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
    if method == "spline":
        cs = CubicSpline(x, y, bc_type="natural", extrapolate=True)
        return float(cs(target_index))
    if method == "makima":
        if len(x) == 2:
            # degenerate to linear, matching the spline's 2-point behavior
            t = (target_index - x[0]) / (x[1] - x[0])
            return float(y[0] + t * (y[1] - y[0]))
        ak = Akima1DInterpolator(x, y, method="makima", extrapolate=True)
        return float(ak(target_index))
    raise ValueError(f"unknown baseline method {method!r}")
