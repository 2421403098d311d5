"""Seeded synthetic rank fields with a prescribed spatial correlation.

Used for acceptance-style experiments: the real measurement scene is not
reproducible, but a Gaussian random field whose horizontal covariance follows
the fitted correlation model gives rank maps with the same spatial texture.
"""

from __future__ import annotations

import numpy as np

from .correlation import CorrelationModel
from .covermap import RankGrid
from .scene import Scene, grid_positions

# Larger synthetic grids are rejected: the covariance, its Cholesky factor
# and the factorization's work copy are n x n float64 arrays each, about
# 1.6 GB together at 8192 cells.
MAX_FIELD_CELLS = 8192


def synthetic_grid_positions(nx: int, ny: int, spacing_m: float) -> np.ndarray:
    s = Scene(extent_m=(nx * spacing_m, ny * spacing_m), grid_spacing_m=spacing_m,
              altitudes_m=(30.0,))
    return grid_positions(s)


def _grid_axes(positions: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(xs, ys) of positions laid out row-major, as synthetic_grid_positions
    lays them out: x runs fastest, then y steps."""
    pos = np.asarray(positions, dtype=float)
    if pos.ndim != 2 or pos.shape[1] != 2 or len(pos) == 0:
        raise ValueError(f"positions must be a non-empty (n, 2) array, got shape {pos.shape}")
    nx = int(np.argmax(pos[:, 1] != pos[0, 1])) or len(pos)
    xs, ys = pos[:nx, 0], pos[::nx, 1]
    if not np.array_equal(pos, np.column_stack([np.tile(xs, len(ys)), np.repeat(ys, nx)])):
        raise ValueError("positions are not a row-major grid of an x axis and a y axis")
    return xs, ys


def correlated_field_factor(positions: np.ndarray, model: CorrelationModel) -> np.ndarray:
    """Cholesky factor of the model covariance over the grid positions, with
    a 1e-6 nugget on the diagonal.

    The positions must be a row-major grid (synthetic_grid_positions). Two
    cells' squared distance is then dx**2 + dy**2 with dx and dy taken from
    the axes, so the model is evaluated once per distinct (dx**2, dy**2)
    pair and the covariance gathered from that table; it equals
    model(cdist(positions, positions)) bit for bit. Expensive for large
    grids; compute once and reuse across seeds.
    """
    if len(positions) > MAX_FIELD_CELLS:
        raise ValueError(f"synthetic field of {len(positions)} cells exceeds the "
                         f"{MAX_FIELD_CELLS}-cell limit of its dense covariance")
    xs, ys = _grid_axes(positions)
    nx, ny = len(xs), len(ys)
    ux, ix = np.unique((xs[:, None] - xs[None, :]) ** 2, return_inverse=True)
    uy, iy = np.unique((ys[:, None] - ys[None, :]) ** 2, return_inverse=True)
    table = model(np.sqrt(ux[:, None] + uy[None, :]))  # (n_ux, n_uy)
    # by_dy[ix1, j, ix2]: covariance of x cells ix1, ix2 at the j-th dy**2
    by_dy = table[ix.reshape(nx, nx)].transpose(0, 2, 1)
    # cov[iy1, ix1, iy2, ix2] = by_dy[ix1, iy[iy1, iy2], ix2]
    cov = by_dy[np.arange(nx)[None, :, None], iy.reshape(ny, ny)[:, None, :]]
    cov = cov.reshape(nx * ny, nx * ny)
    cov[np.diag_indices_from(cov)] = model(0.0) + 1e-6
    return np.linalg.cholesky(cov)


def synthetic_rank_field(positions: np.ndarray, model: CorrelationModel,
                         altitudes_m, thresholds, seed: int,
                         chol: np.ndarray | None = None) -> RankGrid:
    """Integer rank stack (N_h, N_K, N_loc) from a correlated Gaussian field.

    Altitude layers follow an AR(1) chain with coefficient 0.9; thresholds
    shift the quantization upward so the rank is monotone in K.  Ranks are
    clipped to [1, 4], the rank of the default 4x4 arrays.
    """
    vertical_rho = 0.9
    rng = np.random.default_rng(seed)
    if chol is None:
        chol = correlated_field_factor(positions, model)
    n_loc = len(positions)
    altitudes = tuple(float(h) for h in altitudes_m)
    ks = tuple(float(k) for k in thresholds)

    z = chol @ rng.standard_normal(n_loc)
    layers = []
    for _ in altitudes:
        layers.append(z.copy())
        eps = chol @ rng.standard_normal(n_loc)
        z = vertical_rho * z + np.sqrt(1.0 - vertical_rho**2) * eps

    ranks = np.empty((len(altitudes), len(ks), n_loc), dtype=int)
    for hi, zh in enumerate(layers):
        for ki in range(len(ks)):
            cont = 1.4 + zh + 0.45 * ki
            ranks[hi, ki] = np.clip(np.round(cont), 1, 4).astype(int)
    serving = np.zeros(n_loc, dtype=int)
    return RankGrid(positions, altitudes, ks, ranks, serving)
