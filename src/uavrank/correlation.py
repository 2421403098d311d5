"""Spatial correlation of channel rank: stacked rank vectors, distance-binned
Pearson correlations, and the bi-exponential correlation-vs-distance fit."""

from __future__ import annotations

import json
import logging
from dataclasses import MISSING, asdict, dataclass, fields

import numpy as np

from .covermap import RankGrid, Z_RANK
from .scene import json_numbers, parse_json

DEFAULT_MAX_DISTANCE_M = 500.0

log = logging.getLogger(__name__)


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
        return json.dumps(asdict(self), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "CorrelationModel":
        """The model of a JSON object whose keys are the field names: a key
        it lacks takes the field's default, or is an error without one."""
        d = parse_json(text, "correlation model")
        values = {}
        for f in fields(cls):
            if f.name in d:
                what = f"correlation model key {f.name!r}"
                values[f.name] = float(json_numbers(d[f.name], what))
            elif f.default is MISSING:
                raise ValueError(f"correlation model missing key {f.name!r}")
        return cls(**values)


def evaluate_model(coeffs, distance_m):
    c1, c2, c3, c4 = coeffs
    d = np.asarray(distance_m, dtype=float)
    # a growing term (c2 or c4 > 0) overflows exp far out, and inf - inf is
    # NaN; the fit rejects a trial step on such residuals, and Kriging takes
    # a system with such entries as failed, so neither needs the warning
    with np.errstate(over="ignore", invalid="ignore"):
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
    # scipy is imported on first use: the coverage and rank stages load this
    # module but never call it
    from scipy.spatial.distance import cdist

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
    # bincount builds one entry per bin up to the largest: refuse a spacing
    # so fine for these positions that the bins would outnumber the pairs
    if bins.max() >= len(bins):
        raise ValueError(f"{len(bins)} correlation pairs span {bins.max() + 1} distance "
                         f"bins of {d_rx:g} m: the spacing is too fine for these positions")
    sums = np.bincount(bins, weights=phi)
    counts = np.bincount(bins)
    present = counts > 0
    ns = np.nonzero(present)[0]
    return ns * d_rx, sums[present] / counts[present], counts[present]


def fit_biexponential(distances, means):
    """Nonlinear least-squares fit of the bi-exponential model to binned data.

    Returns (c1, c2, c3, c4, rmse).
    """
    from scipy.optimize import least_squares

    d = np.asarray(distances, dtype=float)
    phi = np.asarray(means, dtype=float)
    if len(d) < 4:
        raise ValueError(f"too few distance bins: need at least 4 to fit, got {len(d)}")
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
    if c2 > 0 or c4 > 0:
        # the paper's unconstrained fit is kept; a growing term is only flagged
        log.warning("correlation fit has a growing exponential (c2 = %g, c4 = %g): "
                    "the model rises with distance", c2, c4)
    return CorrelationModel(c1, c2, c3, c4, rmse, max_distance_m)


def bins_to_csv(distances, means, counts) -> str:
    lines = ["distance_m,mean_correlation,pair_count"]
    for d, m, c in zip(distances, means, counts):
        lines.append(f"{d:.3f},{m:.9f},{int(c)}")
    return "\n".join(lines) + "\n"
