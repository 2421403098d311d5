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
from scipy.spatial.distance import cdist


def synthetic_grid_positions(nx: int, ny: int, spacing_m: float) -> np.ndarray:
    s = Scene(extent_m=(nx * spacing_m, ny * spacing_m), grid_spacing_m=spacing_m,
              altitudes_m=(30.0,))
    return grid_positions(s)


def correlated_field_factor(positions: np.ndarray, model: CorrelationModel) -> np.ndarray:
    """Cholesky factor of the model covariance over the grid positions, with
    a 1e-6 nugget on the diagonal.

    Expensive for large grids; compute once and reuse across seeds.
    """
    cov = model(cdist(positions, positions))
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
