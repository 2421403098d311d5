"""1D interpolation baselines against hand-built polynomial oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uavrank.baseline import baseline_rank


def natural_spline_oracle(x, y, x0):
    """Textbook natural cubic spline: tridiagonal solve for the second
    derivatives with zero end conditions, then piecewise cubic evaluation."""
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    n = len(x)
    a = np.zeros((n, n))
    b = np.zeros(n)
    a[0, 0] = a[-1, -1] = 1.0
    for i in range(1, n - 1):
        h0 = x[i] - x[i - 1]
        h1 = x[i + 1] - x[i]
        a[i, i - 1] = h0
        a[i, i] = 2 * (h0 + h1)
        a[i, i + 1] = h1
        b[i] = 6 * ((y[i + 1] - y[i]) / h1 - (y[i] - y[i - 1]) / h0)
    m = np.linalg.solve(a, b)
    i = int(np.clip(np.searchsorted(x, x0) - 1, 0, n - 2))
    h = x[i + 1] - x[i]
    t = x0 - x[i]
    return (
        m[i] * (x[i + 1] - x0) ** 3 / (6 * h)
        + m[i + 1] * t**3 / (6 * h)
        + (y[i] / h - m[i] * h / 6) * (x[i + 1] - x0)
        + (y[i + 1] / h - m[i + 1] * h / 6) * t
    )


def makima_oracle(x, y, x0):
    """Modified Akima: slope weights |d_{i+1}-d_i| + |d_{i+1}+d_i|/2 with the
    standard two-slope end extensions, then cubic Hermite evaluation."""
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    n = len(x)
    d = np.diff(y) / np.diff(x)
    dd = np.concatenate([[2 * d[0] - d[1]], d, [2 * d[-1] - d[-2]]])
    dd = np.concatenate([[2 * dd[0] - dd[1]], dd, [2 * dd[-1] - dd[-2]]])
    slopes = np.zeros(n)
    for i in range(n):
        dm2, dm1, d0, dp1 = dd[i], dd[i + 1], dd[i + 2], dd[i + 3]
        w1 = abs(dp1 - d0) + abs(dp1 + d0) / 2
        w2 = abs(dm1 - dm2) + abs(dm1 + dm2) / 2
        slopes[i] = (dm1 + d0) / 2 if w1 + w2 == 0 else (w1 * dm1 + w2 * d0) / (w1 + w2)
    i = int(np.clip(np.searchsorted(x, x0) - 1, 0, n - 2))
    h = x[i + 1] - x[i]
    t = (x0 - x[i]) / h
    h00 = 2 * t**3 - 3 * t**2 + 1
    h10 = t**3 - 2 * t**2 + t
    h01 = -2 * t**3 + 3 * t**2
    h11 = t**3 - t**2
    return h00 * y[i] + h10 * h * slopes[i] + h01 * y[i + 1] + h11 * h * slopes[i + 1]


class TestSpline:
    def test_matches_tridiagonal_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            n = int(rng.integers(4, 10))
            x = np.sort(rng.choice(np.arange(40), size=n, replace=False)).astype(float)
            y = rng.normal(size=n)
            for x0 in rng.uniform(x[0], x[-1], 5):
                assert baseline_rank(x0, x, y, "spline") == pytest.approx(
                    natural_spline_oracle(x, y, x0), abs=1e-10
                )

    def test_known_midpoint(self):
        # symmetric zigzag: the natural spline passes through 0.5 at x=1.5
        got = baseline_rank(1.5, [0, 1, 2, 3], [0.0, 1.0, 0.0, 1.0], "spline")
        assert got == pytest.approx(0.5, abs=1e-12)

    def test_natural_end_condition(self):
        # second derivative vanishes at the ends
        x = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
        y = np.array([0.0, 2.0, 1.0, 3.0, 0.5])
        eps = 1e-5
        for x0 in (x[0], x[-1]):
            d2 = (
                baseline_rank(x0 - eps, x, y, "spline")
                - 2 * baseline_rank(x0, x, y, "spline")
                + baseline_rank(x0 + eps, x, y, "spline")
            ) / eps**2
            assert abs(d2) < 1e-4

    def test_needs_two_samples(self):
        with pytest.raises(ValueError):
            baseline_rank(0.5, [0], [1.0], "spline")


class TestMakima:
    def test_matches_hand_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            n = int(rng.integers(4, 10))
            x = np.sort(rng.choice(np.arange(40), size=n, replace=False)).astype(float)
            y = rng.normal(size=n)
            for x0 in rng.uniform(x[0], x[-1], 5):
                assert baseline_rank(x0, x, y, "makima") == pytest.approx(
                    makima_oracle(x, y, x0), abs=1e-10
                )

    def test_flat_data_stays_flat(self):
        # a hallmark of (modified) Akima: no overshoot on flat runs
        x = np.arange(8.0)
        y = np.array([1.0, 1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 2.0])
        assert baseline_rank(1.5, x, y, "makima") == pytest.approx(1.0, abs=1e-12)
        assert baseline_rank(5.5, x, y, "makima") == pytest.approx(2.0, abs=1e-12)

    def test_two_points_degenerate_to_linear(self):
        x, y = [0, 4], [1.0, 3.0]
        assert baseline_rank(1.0, x, y, "makima") == pytest.approx(1.5, abs=1e-12)
        assert baseline_rank(3.0, x, y, "makima") == pytest.approx(2.5, abs=1e-12)
        assert baseline_rank(6.0, x, y, "makima") == pytest.approx(4.0, abs=1e-12)


class TestBaselineRank:
    def test_sorts_unordered_input(self):
        got = baseline_rank(1.5, [3, 0, 2, 1], [1.0, 0.0, 0.0, 1.0], "spline")
        assert got == pytest.approx(0.5, abs=1e-12)

    def test_methods_interpolate_samples(self):
        x = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
        y = np.array([1.0, 3.0, 2.0, 4.0, 1.0])
        for method in ("spline", "makima"):
            for xi, yi in zip(x, y):
                assert baseline_rank(xi, x, y, method) == pytest.approx(yi, abs=1e-10)

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            baseline_rank(0.5, [0, 1], [1.0, 2.0], "rbf")

    def test_needs_two_samples(self):
        with pytest.raises(ValueError, match="at least 2"):
            baseline_rank(0.5, [0], [1.0], "makima")
        with pytest.raises(ValueError, match="at least 2"):
            baseline_rank(0.5, [], [], "spline")

    def test_distinct_indices_required(self):
        with pytest.raises(ValueError, match="distinct"):
            baseline_rank(1.0, [2, 0, 2], [1.0, 2.0, 3.0], "spline")
        with pytest.raises(ValueError, match="equal length"):
            baseline_rank(1.0, [0, 2], [1.0], "makima")

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=30, deadline=None)
    def test_interpolants_hit_every_sample(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 9))
        x = np.sort(rng.choice(np.arange(30), size=n, replace=False)).astype(float)
        y = rng.integers(1, 5, size=n).astype(float)
        for method in ("spline", "makima"):
            for xi, yi in zip(x, y):
                assert baseline_rank(xi, x, y, method) == pytest.approx(yi, abs=1e-9)
