"""Spatial correlation of channel rank: stacked rank vectors, distance-binned
Pearson correlations, and the bi-exponential correlation-vs-distance fit."""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
from scipy.optimize import least_squares
from scipy.spatial.distance import cdist

from .covermap import RankGrid, Z_RANK

DEFAULT_MAX_DISTANCE_M = 500.0


@dataclass(frozen=True)
class CorrelationModel:
    """Fitted bi-exponential correlation-vs-distance model.

    correlation(d) ~ c1 * exp(c2 * d) + c3 * exp(c4 * d)
    """

    c1: float
    c2: float
    c3: float
    c4: float
    rmse: float
    max_distance_m: float = DEFAULT_MAX_DISTANCE_M

    def __call__(self, distance_m):
        return evaluate_model((self.c1, self.c2, self.c3, self.c4), distance_m)

    def to_json(self) -> str:
        return json.dumps(
            {
                "c1": self.c1,
                "c2": self.c2,
                "c3": self.c3,
                "c4": self.c4,
                "rmse": self.rmse,
                "max_distance_m": self.max_distance_m,
            },
            indent=2,
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "CorrelationModel":
        d = json.loads(text)
        if not isinstance(d, dict):
            raise ValueError("correlation model must be a JSON object")
        d = {"max_distance_m": DEFAULT_MAX_DISTANCE_M, **d}
        fields = {}
        for key in ("c1", "c2", "c3", "c4", "rmse", "max_distance_m"):
            if key not in d:
                raise ValueError(f"correlation model missing key {key!r}")
            try:
                fields[key] = float(d[key])
            except (TypeError, ValueError):
                raise ValueError(
                    f"correlation model key {key!r} is not a number: {d[key]!r}"
                ) from None
        return cls(**fields)


def evaluate_model(coeffs, distance_m):
    c1, c2, c3, c4 = coeffs
    d = np.asarray(distance_m, dtype=float)
    out = c1 * np.exp(c2 * d) + c3 * np.exp(c4 * d)
    return float(out) if out.ndim == 0 else out


def build_rank_vectors(rg: RankGrid, z_policy: str = "exclude"):
    """Per-location rank vectors stacked threshold-major, altitude-minor.

    With z_policy "exclude", locations holding any out-of-coverage entry
    across the altitude/threshold stack are dropped; with "rank0" those
    entries are treated as rank 0 instead.  Returns (indices, vectors) with
    vectors of shape (n_valid, N_K * N_h).
    """
    if z_policy not in ("exclude", "rank0"):
        raise ValueError(f"z_policy must be 'exclude' or 'rank0', got {z_policy!r}")
    n_h, n_k, n_loc = rg.ranks.shape
    # (N_loc, N_K, N_h): for each location [K1: h1..hNh, K2: ...]
    stacked = np.transpose(rg.ranks, (2, 1, 0)).reshape(n_loc, n_k * n_h)
    if z_policy == "rank0":
        stacked = np.where(stacked == Z_RANK, 0, stacked)
        valid = np.ones(n_loc, dtype=bool)
    else:
        valid = ~np.any(stacked == Z_RANK, axis=1)
    return np.nonzero(valid)[0], stacked[valid].astype(float)


def bin_correlations(vectors, positions, d_rx: float,
                     max_distance_m: float = DEFAULT_MAX_DISTANCE_M):
    """Distance-binned mean pairwise correlations.

    All unordered pairs (self-pairs included) with horizontal distance at most
    max_distance_m are correlated; each pair's distance is discretized to the
    nearest multiple of d_rx.  Constant vectors are skipped.  Returns
    (distances, means, counts) with empty bins omitted.
    """
    vectors = np.asarray(vectors, dtype=float)
    positions = np.asarray(positions, dtype=float)
    if len(vectors) != len(positions):
        raise ValueError("vectors and positions must have equal length")

    centered = vectors - vectors.mean(axis=1, keepdims=True)
    norms = np.linalg.norm(centered, axis=1)
    ok = norms > 0
    centered = centered[ok]
    pos = positions[ok]
    norms = norms[ok]
    if len(pos) == 0:
        return np.array([]), np.array([]), np.array([], dtype=int)

    unit = centered / norms[:, None]
    corr = unit @ unit.T  # symmetric by construction

    dist = cdist(pos, pos)

    # the upper triangle with the diagonal (self-pairs), gathered row-major
    keep = np.triu(dist <= max_distance_m + 1e-9)
    d = dist[keep]
    phi = corr[keep]

    bins = np.round(d / d_rx).astype(int)
    sums = np.bincount(bins, weights=phi)
    counts = np.bincount(bins)
    present = counts > 0
    ns = np.nonzero(present)[0]
    return ns * d_rx, sums[present] / counts[present], counts[present]


def fit_biexponential(distances, means):
    """Nonlinear least-squares fit of the bi-exponential model to binned data.

    Returns (c1, c2, c3, c4, rmse).
    """
    d = np.asarray(distances, dtype=float)
    phi = np.asarray(means, dtype=float)
    if len(d) < 4:
        raise ValueError(f"need at least 4 bins to fit, got {len(d)}")
    phi0 = phi[np.argmin(d)]
    x0 = np.array([0.5 * phi0, -0.05, 0.5 * phi0, -0.001])

    def residuals(c):
        return evaluate_model(c, d) - phi

    sol = least_squares(residuals, x0, method="lm", xtol=1e-14, ftol=1e-14,
                        gtol=1e-14, max_nfev=2500)
    c = sol.x
    rmse = float(np.sqrt(np.mean(residuals(c) ** 2)))
    return float(c[0]), float(c[1]), float(c[2]), float(c[3]), rmse


def fit_correlation_model(distances, means,
                          max_distance_m: float = DEFAULT_MAX_DISTANCE_M) -> CorrelationModel:
    c1, c2, c3, c4, rmse = fit_biexponential(distances, means)
    return CorrelationModel(c1, c2, c3, c4, rmse, max_distance_m)


def bins_to_csv(distances, means, counts) -> str:
    lines = ["distance_m,mean_correlation,pair_count"]
    for d, m, c in zip(distances, means, counts):
        lines.append(f"{d:.3f},{m:.9f},{int(c)}")
    return "\n".join(lines) + "\n"
