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

# Larger synthetic grids are rejected. The field itself holds only nx x nx
# blocks, but `fit` on the rank grid it writes still builds dense n x n
# correlation and distance matrices (bin_correlations), about 0.5 GB each at
# 8192 cells.
MAX_FIELD_CELLS = 8192


def check_field_cells(n: int) -> None:
    """ValueError if a field of n cells is over MAX_FIELD_CELLS."""
    if n > MAX_FIELD_CELLS:
        raise ValueError(f"synthetic field of {n} cells exceeds the "
                         f"{MAX_FIELD_CELLS}-cell limit of the dense matrices "
                         f"that fit builds")


def synthetic_grid_positions(nx: int, ny: int, spacing_m: float) -> np.ndarray:
    s = Scene(extent_m=(nx * spacing_m, ny * spacing_m), grid_spacing_m=spacing_m,
              altitudes_m=(30.0,))
    return grid_positions(s)


def _grid_axes(positions: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(xs, ys) of positions laid out row-major, as synthetic_grid_positions
    lays them out: x runs fastest, then y steps by equal amounts."""
    pos = np.asarray(positions, dtype=float)
    if pos.ndim != 2 or pos.shape[1] != 2 or len(pos) == 0:
        raise ValueError(f"positions must be a non-empty (n, 2) array, got shape {pos.shape}")
    nx = int(np.argmax(pos[:, 1] != pos[0, 1])) or len(pos)
    xs, ys = pos[:nx, 0], pos[::nx, 1]
    if not np.array_equal(pos, np.column_stack([np.tile(xs, len(ys)), np.repeat(ys, nx)])):
        raise ValueError("positions are not a row-major grid of an x axis and a y axis")
    # the covariance is block Toeplitz across the x-rows only when they are
    # equally spaced; steps equal to a relative 1e-9 count as equal
    steps = np.diff(ys)
    if len(steps) and np.any(np.abs(steps - steps[0]) > 1e-9 * abs(steps[0])):
        raise ValueError("positions are not a grid with equal y steps")
    return xs, ys


def _first_block_row(xs: np.ndarray, ys: np.ndarray, model: CorrelationModel) -> np.ndarray:
    """Blocks T_k, shape (ny, nx, nx), of the first block row of the model
    covariance over a row-major grid, with the 1e-6 nugget on T_0's diagonal:
    T_k[i, j] is the covariance of cell (xs[i], ys[0]) and cell (xs[j], ys[k]).
    Each distance is formed as cdist forms it, so the blocks equal the first
    nx rows of model(cdist(positions, positions)) bit for bit."""
    dist = np.empty((len(ys), len(xs), len(xs)))
    np.add(np.subtract.outer(xs, xs) ** 2, ((ys - ys[0]) ** 2)[:, None, None], out=dist)
    blocks = model(np.sqrt(dist, out=dist))
    blocks[0][np.diag_indices(len(xs))] = model(0.0) + 1e-6
    return blocks


def correlated_field_factor(positions: np.ndarray, model: CorrelationModel,
                            normals: np.ndarray) -> np.ndarray:
    """(L @ normals.T).T, where L is the lower Cholesky factor of the model
    covariance over the grid positions with a 1e-6 nugget on the diagonal:
    each row of `normals` (length n = len(positions)) becomes a correlated
    field.

    The positions must be a row-major grid with equal y steps
    (synthetic_grid_positions). Its covariance is then block Toeplitz across
    the ny x-rows, with nx x nx blocks T_k (_first_block_row), and L comes
    from the block Schur algorithm on a two-block-row generator instead of a
    dense Cholesky: each step turns the generator into the next block column
    of L by one (2nx x 2nx) hyperbolic transform, and that column is applied
    to the normals at once, so neither the covariance nor L is formed. With
    one x-row, L is numpy's Cholesky factor of T_0.  ValueError on more
    than MAX_FIELD_CELLS positions.
    """
    check_field_cells(len(positions))
    xs, ys = _grid_axes(positions)
    nx, ny = len(xs), len(ys)
    w = np.asarray(normals, dtype=float).T
    wk = w.reshape(ny, nx, -1)  # the normals that block column k multiplies
    blocks = _first_block_row(xs, ys, model)
    z = np.empty((nx * ny, wk.shape[2]))

    # The generator of step k has a positive block row [L_kk^T, P], which is
    # block row k of L^T, and a negative one [0, Q] whose zero block is not
    # kept. At step 0, P = Q = R0^-1 [T_1 ... T_{ny-1}] with L_00 = R0.
    lkk = np.linalg.cholesky(blocks[0])
    z[:nx] = lkk @ wk[0]
    p = q = np.linalg.solve(lkk, blocks[1:].transpose(1, 0, 2).reshape(nx, -1))
    z[nx:] = p.T @ wk[0]
    eye = np.eye(nx)
    for k in range(1, ny):
        # Shifting the positive row one block right leaves leading blocks
        # X = L_{k-1,k-1} and V = Q's first block^T. The transform
        # [[L_kk^-1 X, -Y], [-(K N)^T, N^T]], with K = X^-1 V, Y = L_kk^-1 V
        # and N N^T = (I - K^T K)^-1 = I + Y^T Y, is J-unitary for
        # J = diag(I, -I) and maps them to L_kk^T and 0, where
        # L_kk L_kk^T = X X^T - V V^T; applied to the tails it gives P and Q.
        x, v = lkk, q[:, :nx].T
        lkk = np.linalg.cholesky(x @ x.T - v @ v.T)
        y = np.linalg.solve(lkk, v)
        n = np.linalg.cholesky(eye + y.T @ y)
        theta = np.block([[np.linalg.solve(lkk, x), -y],
                          [-(np.linalg.solve(x, v) @ n).T, n.T]])
        tails = theta @ np.vstack([p[:, :-nx], q[:, nx:]])
        p, q = tails[:nx], tails[nx:]
        z[k * nx:(k + 1) * nx] += lkk @ wk[k]
        z[(k + 1) * nx:] += p.T @ wk[k]
    return z.reshape(w.shape).T


def synthetic_rank_field(positions: np.ndarray, model: CorrelationModel,
                         altitudes_m, thresholds, seed: int) -> RankGrid:
    """Integer rank stack (N_h, N_K, N_loc) from a correlated Gaussian field.

    Altitude layers follow an AR(1) chain with coefficient 0.9; thresholds
    shift the quantization upward so the rank is monotone in K.  Ranks are
    clipped to [1, 4], the rank of the default 4x4 arrays.
    """
    vertical_rho = 0.9
    n_loc = len(positions)
    # the cell cap and the grid's invariants are checked before any normal
    # is drawn
    check_field_cells(n_loc)
    altitudes = tuple(float(h) for h in altitudes_m)
    ks = tuple(float(k) for k in thresholds)
    rg = RankGrid(positions, altitudes, ks, np.zeros((len(altitudes), len(ks), n_loc), dtype=int),
                  np.zeros(n_loc, dtype=int))
    # one normal vector for the first layer and one innovation per layer,
    # drawn in the order the chain consumes them
    normals = np.random.default_rng(seed).standard_normal((len(altitudes) + 1, n_loc))
    fields = correlated_field_factor(positions, model, normals)
    z = fields[0]
    for ranks, eps in zip(rg.ranks, fields[1:]):
        for ki, r in enumerate(ranks):
            r[:] = np.clip(np.round(1.4 + z + 0.45 * ki), 1, 4)
        z = vertical_rho * z + np.sqrt(1.0 - vertical_rho**2) * eps
    return rg
