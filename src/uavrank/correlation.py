"""Spatial correlation of channel rank: stacked rank vectors, distance-binned
Pearson correlations, and the bi-exponential correlation-vs-distance fit."""

from __future__ import annotations

import json
import logging
import math
from dataclasses import asdict, dataclass

import numpy as np

from .covermap import RankGrid, Z_RANK
from .scene import parse_json, read_fields

DEFAULT_MAX_DISTANCE_M = 500.0

# Distances per row block of bin_correlations: 2**16 entries (512 kB) keep the
# block's temporaries small beside the n x n correlation matrix.
_DISTANCE_ENTRIES = 2**16

# MINPACK's machine constants (dpmpar), and enorm's thresholds as scipy's C
# translation holds them: the Fortran's 3.834e-20 and 1.304e19 at full
# precision, about sqrt(2) * 2**-65 and sqrt(2) * 2**63
_EPSMCH = 2.220446049250313e-16
_DWARF = 2.2250738585072014e-308
_RDWARF = 3.833233541708435e-20
_RGIANT = 1.3043817825332783e19
# scipy's relative step of a 2-point Jacobian, sqrt(eps)
_SQRT_EPS = _EPSMCH ** 0.5

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
        return read_fields(cls, parse_json(text, "correlation model"), "correlation model")


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

    # the pairs of the upper triangle with the diagonal (self-pairs) within
    # max_distance_m, gathered row-major a block of rows at a time: no n x n
    # distance matrix is built beside the correlations
    n = len(pos)
    rows = max(1, _DISTANCE_ENTRIES // n)
    d, phi = [], []
    for lo in range(0, n, rows):
        dist = _distances(pos[lo:lo + rows], pos[lo:])
        keep = np.triu(dist <= max_distance_m + 1e-9)
        d.append(dist[keep])
        phi.append(corr[lo:lo + rows, lo:][keep])
    d, phi = np.concatenate(d), np.concatenate(phi)

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


def _distances(a, b) -> np.ndarray:
    """The distances (..., p, q) from each point of a (..., p, 2) to each of
    b (..., q, 2) as scipy's cdist computes them, sqrt(dx*dx + dy*dy), built
    in place."""
    d = a[..., :, None, 0] - b[..., None, :, 0]
    dy = a[..., :, None, 1] - b[..., None, :, 1]
    d *= d
    dy *= dy
    d += dy
    return np.sqrt(d, out=d)


def fit_biexponential(distances, means):
    """Nonlinear least-squares fit of the bi-exponential model to binned data.

    Returns (c1, c2, c3, c4, rmse).
    """
    c, rmse, _, _ = _fit(distances, means)
    return (*c, rmse)


def fit_correlation_model(distances, means,
                          max_distance_m: float = DEFAULT_MAX_DISTANCE_M) -> CorrelationModel:
    (c1, c2, c3, c4), rmse, info, nfev = _fit(distances, means)
    log.debug("correlation fit: MINPACK info %d after %d evaluations, rmse %r",
              info, nfev, rmse)
    if c2 > 0 or c4 > 0:
        # the paper's unconstrained fit is kept; a growing term is only flagged
        log.warning("correlation fit has a growing exponential (c2 = %g, c4 = %g): "
                    "the model rises with distance", c2, c4)
    return CorrelationModel(c1, c2, c3, c4, rmse, max_distance_m)


def _fit(distances, means):
    """The fit of fit_biexponential as scipy's least_squares(method="lm")
    makes it: MINPACK lmder on its 2-point Jacobian, with tolerances of 1e-14
    and at most 2500 evaluations.  Returns (coefficients, rmse, MINPACK's
    stop code info, evaluation count)."""
    d = np.asarray(distances, dtype=float)
    phi = np.asarray(means, dtype=float)
    if len(d) < 4:
        raise ValueError(f"too few distance bins: need at least 4 to fit, got {len(d)}")
    phi0 = float(phi[np.argmin(d)])
    x0 = [0.5 * phi0, -0.05, 0.5 * phi0, -0.001]

    def residuals(c):
        return evaluate_model(c, d) - phi

    f0 = residuals(x0)
    if not np.all(np.isfinite(f0)):
        raise ValueError("the fit's residuals are not finite at its start point")

    def jacobian(x, fx):
        # scipy's 2-point rule: h = sqrt(eps) * sign0(x) * max(1, |x|), the
        # step taken as (x + h) - x.  The shifted points are evaluated in one
        # call, as a (coefficient, point, 1) stack that evaluate_model
        # unpacks along its first axis
        h = [_SQRT_EPS * (1.0 if v >= 0 else -1.0) * max(1.0, abs(v)) for v in x]
        shifted = [[v + h[j] if k == j else v for k, v in enumerate(x)] for j in range(len(x))]
        f = evaluate_model(np.array(shifted).T[:, :, None], d) - phi
        dx = [(v + hj) - v for v, hj in zip(x, h)]
        return ((f - np.asarray(fx)) / np.array(dx)[:, None]).tolist()

    c, info, nfev = _lmder(lambda x: residuals(x).tolist(), jacobian, x0, f0.tolist(),
                           tol=1e-14, maxfev=2500)
    with np.errstate(over="ignore"):  # inf, as least_squares gives it
        rmse = float(np.sqrt(np.mean(residuals(c) ** 2)))
    return c, rmse, info, nfev


# ---------------------------------------------------------------------------
# MINPACK lmder (More, Garbow and Hillstrom, 1980) as scipy's C translation
# of it runs in least_squares(method="lm"): mode 1 (diag from the Jacobian's
# column norms), factor 100.  Python floats repeat its double arithmetic in
# its loop order, so the fit equals scipy's bit for bit (scipy 1.17.1;
# tests/test_correlation.py keeps least_squares as the oracle).  Matrices are
# lists of columns, a[j][i] being Fortran's a(i,j).  Where the compiled C
# departs from the Fortran, the port follows the C: NaN takes the branches
# its comparisons give it, fmin and fmax ignore NaN, a division by zero or
# the root of a negative is inf or NaN, enorm's thresholds are at full
# precision, and qrfac recomputes a pivot norm over one value past its
# column.  Sums are explicit, left to right: Python >= 3.12's sum() is
# compensated.
# ---------------------------------------------------------------------------


def _lmder(fcn, jac, x, fvec, tol, maxfev):
    """Minimise the sum of squares of fcn(x) from x, where fvec = fcn(x) and
    jac(x, fvec) gives the Jacobian's columns; ftol = xtol = gtol = tol.
    Returns (x, info, nfev): the solution, MINPACK's stop code and the
    number of fcn evaluations."""
    m, n = len(fvec), len(x)
    nfev = 1
    fnorm = _enorm(fvec)
    par = 0.0
    it = 1
    info = 0
    while True:
        # outer loop: the Jacobian at x and its QR factorization
        fjac = jac(x, fvec)
        ipvt, rdiag, acnorm = _qrfac(fjac, m, n)
        if it == 1:
            diag = [a if a != 0.0 else 1.0 for a in acnorm]
            xnorm = _enorm([dj * xj for dj, xj in zip(diag, x)])
            delta = 100.0 * xnorm
            if delta == 0.0:
                delta = 100.0
        # (q transpose)*fvec, its first n components in qtf
        wa4 = list(fvec)
        qtf = [0.0] * n
        for j in range(n):
            col = fjac[j]
            if col[j] != 0.0:
                s = 0.0
                for i in range(j, m):
                    s = s + col[i] * wa4[i]
                temp = -s / col[j]
                for i in range(j, m):
                    wa4[i] = wa4[i] + col[i] * temp
            col[j] = rdiag[j]
            qtf[j] = wa4[j]
        # the norm of the scaled gradient
        gnorm = 0.0
        if fnorm != 0.0:
            for j in range(n):
                l = ipvt[j]
                if acnorm[l] != 0.0:
                    col = fjac[j]
                    s = 0.0
                    for i in range(j + 1):
                        s = s + col[i] * (qtf[i] / fnorm)
                    gnorm = _fmax(abs(s / acnorm[l]), gnorm)
        if gnorm <= tol:
            return x, 4, nfev
        diag = [_fmax(a, dj) for dj, a in zip(diag, acnorm)]
        while True:
            # inner loop: the Levenberg-Marquardt step and its trial point
            par, wa1 = _lmpar(fjac, ipvt, diag, qtf, delta, par)
            wa1 = [-v for v in wa1]
            wa2 = [xj + pj for xj, pj in zip(x, wa1)]
            pnorm = _enorm([dj * pj for dj, pj in zip(diag, wa1)])
            if it == 1:
                delta = _fmin(delta, pnorm)
            wa4 = fcn(wa2)
            nfev += 1
            fnorm1 = _enorm(wa4)
            # the scaled actual and predicted reductions, the scaled
            # directional derivative
            actred = -1.0
            if 0.1 * fnorm1 < fnorm:
                t = fnorm1 / fnorm
                actred = 1.0 - t * t
            wa3 = [0.0] * n
            for j in range(n):
                temp = wa1[ipvt[j]]
                col = fjac[j]
                for i in range(j + 1):
                    wa3[i] = wa3[i] + col[i] * temp
            temp1 = _enorm(wa3) / fnorm
            temp2 = (_sqrt(par) * pnorm) / fnorm
            prered = temp1 * temp1 + temp2 * temp2 / 0.5
            dirder = -(temp1 * temp1 + temp2 * temp2)
            ratio = 0.0
            if prered != 0.0:
                ratio = actred / prered
            # the step bound
            if ratio <= 0.25:
                temp = _div(0.5 * dirder, dirder + 0.5 * actred) if actred < 0.0 else 0.5
                if 0.1 * fnorm1 >= fnorm or temp < 0.1:
                    temp = 0.1
                delta = temp * _fmin(pnorm / 0.1, delta)
                par = par / temp
            elif par == 0.0 or ratio >= 0.75:
                delta = pnorm / 0.5
                par = 0.5 * par
            if ratio >= 1e-4:
                # a successful step
                x = wa2
                fvec = wa4
                xnorm = _enorm([dj * xj for dj, xj in zip(diag, x)])
                fnorm = fnorm1
                it += 1
            # the convergence and termination tests
            small = abs(actred) <= tol and prered <= tol and 0.5 * ratio <= 1.0
            if small:
                info = 1
            if delta <= tol * xnorm:
                info = 3 if small else 2
            if info:
                return x, info, nfev
            if nfev >= maxfev:
                info = 5
            if abs(actred) <= _EPSMCH and prered <= _EPSMCH and 0.5 * ratio <= 1.0:
                info = 6
            if delta <= _EPSMCH * xnorm:
                info = 7
            if gnorm <= _EPSMCH:
                info = 8
            if info:
                return x, info, nfev
            if not ratio < 1e-4:
                break


def _fmax(a, b) -> float:
    """C's fmax: the larger of a and b, a NaN ignored."""
    return a if a > b or b != b else b


def _fmin(a, b) -> float:
    """C's fmin: the smaller of a and b, a NaN ignored."""
    return a if a < b or b != b else b


def _sqrt(x) -> float:
    """C's sqrt: NaN for a negative x, not an error."""
    return math.sqrt(x) if not x < 0.0 else math.nan


def _div(a, b) -> float:
    """a / b as C divides: by zero, ±inf or NaN, not an error.  The port uses
    it wherever a NaN or inf input can make a divisor zero."""
    try:
        return a / b
    except ZeroDivisionError:
        if a != a or a == 0.0:
            return math.nan
        return math.copysign(math.inf, a) * math.copysign(1.0, b)


def _enorm(x) -> float:
    """The Euclidean norm of x, squares summed in three ranges so that none
    overflows or underflows destructively."""
    s1 = s2 = s3 = x1max = x3max = 0.0
    agiant = _RGIANT / len(x)
    for v in x:
        xabs = abs(v)
        if xabs <= _RDWARF:
            if xabs > x3max:
                t = x3max / xabs
                s3 = 1.0 + s3 * (t * t)
                x3max = xabs
            elif xabs != 0.0:
                t = xabs / x3max
                s3 = s3 + t * t
        elif xabs >= agiant:
            if xabs > x1max:
                t = x1max / xabs
                s1 = 1.0 + s1 * (t * t)
                x1max = xabs
            else:
                t = xabs / x1max
                s1 = s1 + t * t
        else:
            # NaN included, as the compiled branches take it
            s2 = s2 + xabs * xabs
    if s1 != 0.0:
        return x1max * math.sqrt(s1 + (s2 / x1max) / x1max)
    if s2 != 0.0:
        if s2 >= x3max:
            return math.sqrt(s2 * (1.0 + (x3max / s2) * (x3max * s3)))
        return math.sqrt(x3max * (_div(s2, x3max) + (x3max * s3)))
    return x3max * math.sqrt(s3)


def _qrfac(a, m, n):
    """Householder QR of the m x n columns a with column pivoting, in place:
    R's strict upper triangle and the Householder vectors.  Returns (ipvt,
    rdiag, acnorm): the permutation, R's diagonal and a's column norms."""
    acnorm = [_enorm(col) for col in a]
    rdiag = list(acnorm)
    wa = list(acnorm)
    ipvt = list(range(n))
    for j in range(min(m, n)):
        # the column of largest norm into the pivot position
        kmax = j
        for k in range(j, n):
            if rdiag[k] > rdiag[kmax]:
                kmax = k
        if kmax != j:
            a[j], a[kmax] = a[kmax], a[j]
            rdiag[kmax] = rdiag[j]
            wa[kmax] = wa[j]
            ipvt[j], ipvt[kmax] = ipvt[kmax], ipvt[j]
        aj = a[j]
        ajnorm = _enorm(aj[j:])
        if ajnorm != 0.0:
            if aj[j] < 0.0:
                ajnorm = -ajnorm
            for i in range(j, m):
                aj[i] = aj[i] / ajnorm
            aj[j] = aj[j] + 1.0
            # the transformation applied to the remaining columns, their
            # norms updated
            for k in range(j + 1, n):
                ak = a[k]
                s = 0.0
                for i in range(j, m):
                    s = s + aj[i] * ak[i]
                temp = s / aj[j]
                for i in range(j, m):
                    ak[i] = ak[i] - temp * aj[i]
                if rdiag[k] != 0.0:
                    temp = ak[j] / rdiag[k]
                    rdiag[k] = rdiag[k] * math.sqrt(_fmax(1.0 - temp * temp, 0.0))
                    t = _div(rdiag[k], wa[k])
                    if 0.05 * (t * t) <= _EPSMCH:
                        # scipy's C translation recomputes this norm over
                        # m - j values from row j + 1, one past the column:
                        # into the next column's first row, or after the
                        # last column into memory past the matrix, taken as
                        # 0 here
                        past = a[k + 1][0] if k + 1 < n else 0.0
                        rdiag[k] = _enorm(ak[j + 1:] + [past])
                        wa[k] = rdiag[k]
        rdiag[j] = -ajnorm
    return ipvt, rdiag, acnorm


def _lmpar(r, ipvt, diag, qtb, delta, par):
    """The Levenberg-Marquardt parameter par and the step x that solves
    (J^T J + par D^2) x = J^T f in the least-squares sense with ||D x||
    within 10 % of delta, from the QR factors r, ipvt and qtb = Q^T f.
    Returns (par, x); r's strict lower triangle is overwritten."""
    n = len(qtb)
    # the Gauss-Newton direction, a least-squares solution if r is singular
    wa1 = list(qtb)
    nsing = n
    for j in range(n):
        if r[j][j] == 0.0 and nsing == n:
            nsing = j
        if nsing < n:
            wa1[j] = 0.0
    for j in range(nsing - 1, -1, -1):
        col = r[j]
        wa1[j] = wa1[j] / col[j]
        temp = wa1[j]
        for i in range(j):
            wa1[i] = wa1[i] - col[i] * temp
    x = [0.0] * n
    for j in range(n):
        x[ipvt[j]] = wa1[j]
    it = 0
    wa2 = [dj * xj for dj, xj in zip(diag, x)]
    dxnorm = _enorm(wa2)
    fp = dxnorm - delta
    if not fp <= 0.1 * delta:
        # a lower bound parl from the Newton step if r has full rank
        parl = 0.0
        if nsing >= n:
            for j in range(n):
                l = ipvt[j]
                wa1[j] = diag[l] * _div(wa2[l], dxnorm)
            for j in range(n):
                col = r[j]
                s = 0.0
                for i in range(j):
                    s = s + col[i] * wa1[i]
                wa1[j] = (wa1[j] - s) / col[j]
            temp = _enorm(wa1)
            parl = _div(_div(_div(fp, delta), temp), temp)
        # an upper bound paru
        for j in range(n):
            col = r[j]
            s = 0.0
            for i in range(j + 1):
                s = s + col[i] * qtb[i]
            wa1[j] = s / diag[ipvt[j]]
        gnorm = _enorm(wa1)
        paru = _div(gnorm, delta)
        if paru == 0.0:
            paru = _DWARF / _fmin(delta, 0.1)
        par = _fmin(_fmax(par, parl), paru)
        if par == 0.0:
            par = _div(gnorm, dxnorm)
        while True:
            it += 1
            if par == 0.0:
                par = _fmax(0.001 * paru, _DWARF)
            temp = _sqrt(par)
            x, sdiag = _qrsolv(r, ipvt, [temp * dj for dj in diag], qtb)
            wa2 = [dj * xj for dj, xj in zip(diag, x)]
            dxnorm = _enorm(wa2)
            temp = fp
            fp = dxnorm - delta
            if (abs(fp) <= 0.1 * delta or (parl == 0.0 and fp <= temp and temp < 0.0)
                    or it == 10):
                break
            # the Newton correction
            for j in range(n):
                l = ipvt[j]
                wa1[j] = diag[l] * _div(wa2[l], dxnorm)
            for j in range(n):
                wa1[j] = _div(wa1[j], sdiag[j])
                temp = wa1[j]
                col = r[j]
                for i in range(j + 1, n):
                    wa1[i] = wa1[i] - col[i] * temp
            temp = _enorm(wa1)
            parc = _div(_div(_div(fp, delta), temp), temp)
            if fp > 0.0:
                parl = _fmax(parl, par)
            if fp < 0.0:
                paru = _fmin(paru, par)
            par = _fmax(parc + par, parl)
    if it == 0:
        par = 0.0
    return par, x


def _qrsolv(r, ipvt, diag, qtb):
    """The least-squares solution x of A x = b, D x = 0 from A's QR factors
    r, ipvt and qtb = Q^T b, eliminating D by Givens rotations.  Returns
    (x, sdiag), S^T in r's strict lower triangle and S's diagonal in sdiag."""
    n = len(qtb)
    # r's upper triangle copied to its lower, its diagonal saved in x
    x = [0.0] * n
    wa = list(qtb)
    for j in range(n):
        for i in range(j, n):
            r[j][i] = r[i][j]
        x[j] = r[j][j]
    sdiag = [0.0] * n
    for j in range(n):
        l = ipvt[j]
        if diag[l] != 0.0:
            for k in range(j, n):
                sdiag[k] = 0.0
            sdiag[j] = diag[l]
            # the row of D eliminated, one element of (Q^T b, 0) beyond the
            # first n modified
            qtbpj = 0.0
            for k in range(j, n):
                if sdiag[k] == 0.0:
                    continue
                colk = r[k]
                if abs(sdiag[k]) > abs(colk[k]):
                    cotan = colk[k] / sdiag[k]
                    sin = 0.5 / math.sqrt(0.25 + 0.25 * (cotan * cotan))
                    cos = sin * cotan
                else:
                    tan = _div(sdiag[k], colk[k])
                    cos = 0.5 / math.sqrt(0.25 + 0.25 * (tan * tan))
                    sin = cos * tan
                colk[k] = cos * colk[k] + sin * sdiag[k]
                temp = cos * wa[k] + sin * qtbpj
                qtbpj = -sin * wa[k] + cos * qtbpj
                wa[k] = temp
                for i in range(k + 1, n):
                    temp = cos * colk[i] + sin * sdiag[i]
                    sdiag[i] = -sin * colk[i] + cos * sdiag[i]
                    colk[i] = temp
        sdiag[j] = r[j][j]
        r[j][j] = x[j]
    # the triangular system for z, a least-squares solution if singular
    nsing = n
    for j in range(n):
        if sdiag[j] == 0.0 and nsing == n:
            nsing = j
        if nsing < n:
            wa[j] = 0.0
    for j in range(nsing - 1, -1, -1):
        col = r[j]
        s = 0.0
        for i in range(j + 1, nsing):
            s = s + col[i] * wa[i]
        wa[j] = (wa[j] - s) / sdiag[j]
    for j in range(n):
        x[ipvt[j]] = wa[j]
    return x, sdiag


def bins_to_csv(distances, means, counts) -> str:
    lines = ["distance_m,mean_correlation,pair_count"]
    for d, m, c in zip(distances, means, counts):
        lines.append(f"{d:.3f},{m:.9f},{int(c)}")
    return "\n".join(lines) + "\n"
