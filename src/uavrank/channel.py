"""Narrowband MIMO channel synthesis, thresholded rank, and RSS."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .raytrace import row_dot
from .scene import ArrayConfig

DEFAULT_THRESHOLD_RATIOS = (10.0, 100.0, 1000.0)


class OutOfCoverageError(RuntimeError):
    """Raised when a channel is requested for a link with no propagation path."""


@dataclass(frozen=True)
class ChannelMatrix:
    entries: np.ndarray  # complex, shape (N_r, N_t)

    def __post_init__(self):
        e = np.asarray(self.entries, dtype=complex)
        if e.ndim != 2:
            raise ValueError(f"channel matrix must be 2D, got shape {e.shape}")
        if not np.all(np.isfinite(e)):
            raise ValueError("channel matrix entries must be finite")
        object.__setattr__(self, "entries", e)


def _direction(az: float, el: float) -> np.ndarray:
    c = np.cos(el)
    return np.array([c * np.cos(az), c * np.sin(az), np.sin(el)])


def steering_vector(a: ArrayConfig, direction, wavelength_m: float) -> np.ndarray:
    """ULA response: element k gets phase 2*pi*k*spacing*(axis . direction)."""
    direction = np.asarray(direction, dtype=float)
    if abs(np.linalg.norm(direction) - 1.0) > 1e-9:
        raise ValueError("direction must be a unit vector")
    proj = float(np.dot(a.axis, direction))
    k = np.arange(a.elements)
    return np.exp(2j * np.pi * a.spacing_wavelengths * proj * k)


def synthesize_channel(paths, tx: ArrayConfig, rx: ArrayConfig,
                       wavelength_m: float) -> ChannelMatrix:
    """Sum of gain-weighted steering outer products over all paths.

    Plane-wave approximation across the arrays: every path contributes
    gain * a_rx(aoa) a_tx(aod)^H.
    """
    paths = list(paths)
    if not paths:
        raise OutOfCoverageError("no propagation paths: receiver out of coverage")
    h = np.zeros((rx.elements, tx.elements), dtype=complex)
    for p in paths:
        a_tx = steering_vector(tx, _direction(*p.aod), wavelength_m)
        a_rx = steering_vector(rx, _direction(*p.aoa), wavelength_m)
        h += p.gain * np.outer(a_rx, a_tx.conj())
    return ChannelMatrix(entries=h)


def channel_rank(h: ChannelMatrix, K: float) -> int:
    """Number of singular values strictly above sigma_1 / K."""
    if K <= 1:
        raise ValueError(f"threshold ratio K must be > 1, got {K}")
    sv = np.linalg.svd(h.entries, compute_uv=False)  # descending
    if sv[0] == 0:
        raise ValueError("rank undefined for an all-zero channel matrix")
    return int(np.sum(sv > sv[0] / K))


def rss(paths, tx: ArrayConfig, rx: ArrayConfig, tx_power_w: float,
        wavelength_m: float) -> float:
    """Received signal strength in dBm.

    MIMO uses a fixed co-phased broadside transmit beam and reports the
    per-receive-element average power; with single-element arrays this
    reduces exactly to the SISO coherent path sum.
    """
    paths = list(paths)
    if not paths:
        raise OutOfCoverageError("no propagation paths: receiver out of coverage")
    h = synthesize_channel(paths, tx, rx, wavelength_m).entries
    w = np.ones(tx.elements) / np.sqrt(tx.elements)
    p_rx = tx_power_w * float(np.linalg.norm(h @ w) ** 2) / rx.elements
    if p_rx == 0.0:
        return -np.inf
    return 10.0 * np.log10(p_rx * 1e3)


# ---------------------------------------------------------------------------
# Batched counterparts over a raytrace.PathTable
#
# Same arithmetic as the per-link functions above, in the same order, so a
# channel, rank or RSS from here equals the per-link one bit for bit.
# ---------------------------------------------------------------------------


def _steering_rows(a: ArrayConfig, angles) -> np.ndarray:
    """steering_vector per row of (azimuth, elevation) angles: (P, elements)."""
    az, el = angles[:, 0], angles[:, 1]
    c = np.cos(el)
    direction = np.column_stack([c * np.cos(az), c * np.sin(az), np.sin(el)])
    proj = row_dot(np.broadcast_to(np.asarray(a.axis), direction.shape), direction)
    phase = np.zeros((len(proj), a.elements), dtype=complex)
    phase.imag = (2.0 * np.pi * a.spacing_wavelengths * proj)[:, None] * np.arange(a.elements)
    return np.exp(phase)


def synthesize_channels(paths, n_links: int, tx: ArrayConfig, rx: ArrayConfig,
                        wavelength_m: float) -> np.ndarray:
    """Channel matrix of every link of a PathTable, shape (n_links, N_r, N_t).

    Links without a path get an all-zero matrix.
    """
    a_tx = _steering_rows(tx, paths.aod).conj()
    a_rx = _steering_rows(rx, paths.aoa)
    h = np.zeros((n_links, rx.elements, tx.elements), dtype=complex)
    # add.at applies the rows in order, so each link sums its paths in path
    # order from zero, as synthesize_channel does
    np.add.at(h, paths.cell, paths.gain[:, None, None] * (a_rx[:, :, None] * a_tx[:, None, :]))
    if not np.all(np.isfinite(h)):
        raise ValueError("channel matrix entries must be finite")
    return h


def channel_ranks(h: np.ndarray, thresholds) -> np.ndarray:
    """channel_rank of a stack of channel matrices for every K: (n, N_K)."""
    for K in thresholds:
        if K <= 1:
            raise ValueError(f"threshold ratio K must be > 1, got {K}")
    if len(h) == 0:
        return np.zeros((0, len(thresholds)), dtype=int)
    sv = np.linalg.svd(h, compute_uv=False)
    if np.any(sv[:, 0] == 0):
        raise ValueError("rank undefined for an all-zero channel matrix")
    cut = sv[:, :1] / np.asarray(thresholds, dtype=float)
    return np.sum(sv[:, None, :] > cut[:, :, None], axis=2)


def rss_dbm(h: np.ndarray, tx: ArrayConfig, rx: ArrayConfig,
            tx_power_w: float) -> np.ndarray:
    """rss with the uniform beam of a stack of channel matrices: (n,) dBm."""
    w = np.ones(tx.elements) / np.sqrt(tx.elements)
    y = h @ w
    norm = np.sqrt(row_dot(y.real, y.real) + row_dot(y.imag, y.imag))
    power = np.float_power(norm, 2.0)  # libm pow, as in rss
    p_rx = tx_power_w * power / rx.elements
    with np.errstate(divide="ignore"):
        return 10.0 * np.log10(p_rx * 1e3)
