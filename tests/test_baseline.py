"""1D interpolation baselines against hand-built polynomial oracles, and the
numpy kernel against scipy's interpolants, bit for bit."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uavrank.baseline import _interpolate, baseline_rank, baseline_table
from uavrank.correlation import CorrelationModel
from uavrank.kriging import KrigingConfig, neighbor_table
from uavrank.synth import synthetic_grid_positions, synthetic_rank_field


def scipy_baseline(x, y, at, method):
    """scipy's natural cubic spline or makima through (x[k], y[k]) at `at`,
    linear through 2 makima samples: the oracle of the numpy kernel."""
    from scipy.interpolate import Akima1DInterpolator, CubicSpline

    if method == "spline":
        return CubicSpline(x, y, bc_type="natural", extrapolate=True)(at)
    if len(x) == 2:
        t = (at - x[0]) / (x[1] - x[0])
        return y[0] + t * (y[1] - y[0])
    return Akima1DInterpolator(x, y, method="makima", extrapolate=True)(at)


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


def _rows(rng, m, count):
    """`count` strictly increasing rows of m sample indices: integer offsets
    from a grid row, gaps that jump to more than twice the gap before them
    (dgtsv's row interchange), and non-integer positions at scales from 1e-3
    to 1e3."""
    rows = []
    for r in range(count):
        kind = r % 3
        if kind == 0:
            x = np.sort(rng.choice(np.arange(-40, 41), size=m, replace=False))
        elif kind == 1:
            x = np.cumsum(rng.choice([1, 1, 3, 8, 71], size=m)) - 20
        else:
            scale = 10.0 ** rng.uniform(-3, 3)
            x = scale * (np.cumsum(rng.exponential(1.0, m)) + rng.normal())
        rows.append(x.astype(float))
    return np.array(rows)


def _targets(rng, x):
    """One evaluation point per row: the end samples, an interior sample,
    left and right of the samples, and between them."""
    picks = []
    for r, row in enumerate(x):
        span = row[-1] - row[0]
        picks.append((row[0], row[-1], row[len(row) // 2],
                      row[0] - span * rng.uniform(0.01, 2.0),
                      row[-1] + span * rng.uniform(0.01, 2.0),
                      rng.uniform(row[0], row[-1]))[r % 6])
    return np.array(picks)


VALUES = {
    "integer": lambda rng, shape: rng.integers(0, 5, size=shape).astype(float),
    "normal": lambda rng, shape: rng.normal(size=shape) * 10.0 ** rng.uniform(-3, 3),
    "offset-1e7": lambda rng, shape: 1e7 + rng.integers(0, 50, size=shape),
}


class TestKernelEqualsScipy:
    """_interpolate on a batch of rows and layers equals scipy's interpolant
    of each row and layer alone, compared with ==."""

    @pytest.mark.parametrize("values", sorted(VALUES))
    @pytest.mark.parametrize("m", [2, 3, 4, 9, 20])
    @pytest.mark.parametrize("method", ["spline", "makima"])
    def test_random_patterns(self, method, m, values):
        rng = np.random.default_rng([m, sorted(VALUES).index(values)])
        x = _rows(rng, m, 36)
        y = VALUES[values](rng, (2, 36, m))
        at = _targets(rng, x)
        got = _interpolate(x, y, at, method)
        want = [[scipy_baseline(x[r], y[k, r], at[r], method) for r in range(36)]
                for k in range(2)]
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("method", ["spline", "makima"])
    def test_row_interchange(self, method):
        # a gap more than twice the one before it: |d_k| < |dl_k| at that
        # step, so dgtsv interchanges the rows (at the first step for
        # [0, 1, 5]: 2 * 1 < 4)
        patterns = [[0, 1, 5], [0, 1, 5, 6, 20, 21, 90], [0, 2, 3, 10, 11, 40, 41],
                    [0, 1, 2, 3, 7, 8, 9], [-5, -4, 0, 1, 2, 30, 31]]
        rng = np.random.default_rng(3)
        for row in [np.array(p, dtype=float) for p in patterns]:
            dx = np.diff(row)
            assert np.any(dx[1:] > 2 * dx[:-1])
            y = rng.normal(size=(1, 1, len(row)))
            for at in np.linspace(row[0] - 3, row[-1] + 3, 17):
                got = _interpolate(row[None], y, np.array([at]), method)[0, 0]
                assert got == scipy_baseline(row, y[0, 0], at, method)

    @pytest.mark.parametrize("method", ["spline", "makima"])
    @pytest.mark.parametrize("values", sorted(VALUES))
    def test_table_equals_scipy(self, method, values):
        # baseline_table interpolates at 0 over neighbor offsets; scipy runs
        # on the absolute indices at the target, as baseline_rank does
        rng = np.random.default_rng(sorted(VALUES).index(values))
        pos = np.array([[30.0 * x, 30.0 * y] for y in range(7) for x in range(9)])
        valid = rng.random(63) > 0.2
        nt = neighbor_table(pos, valid, KrigingConfig(M=8, r0_m=90.0))
        layers = VALUES[values](rng, (3, 63))
        got = baseline_table(nt, layers, method)
        for layer, row in zip(layers, got):
            want = [scipy_baseline(np.sort(nb[:c]).astype(float), layer[np.sort(nb[:c])],
                                   float(i), method) if c >= 2 else np.nan
                    for i, nb, c in zip(nt.targets, nt.index, nt.count)]
            np.testing.assert_array_equal(row, want)

    @pytest.mark.parametrize("method", ["spline", "makima"])
    def test_table_does_not_depend_on_the_block(self, monkeypatch, method):
        # blocks of one row and of every row give the same table: each
        # estimate depends on its own row alone
        model = CorrelationModel(0.2932, -0.0508, 0.7057, -0.001, rmse=0.0)
        rg = synthetic_rank_field(synthetic_grid_positions(12, 11, 30.0), model,
                                  (30.0, 70.0, 110.0), (100.0,), seed=2)
        valid = np.random.default_rng(2).random(132) > 0.1
        nt = neighbor_table(rg.positions, valid, KrigingConfig(r0_m=70.0))
        layers = rg.ranks[:, 0, :].astype(float)
        tables = []
        for entries in (1, 100, 10**9):
            monkeypatch.setattr("uavrank.scene.BLOCK_ENTRIES", entries)
            tables.append(baseline_table(nt, layers, method))
        assert len(np.unique(nt.count)) > 1
        for table in tables[1:]:
            np.testing.assert_array_equal(table, tables[0])


class TestInputRules:
    @pytest.mark.parametrize("method", ["spline", "makima"])
    @pytest.mark.parametrize("n", [2, 3, 5])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_samples_raise(self, method, n, bad):
        values = np.arange(n, dtype=float)
        values[-1] = bad
        with pytest.raises(ValueError, match="finite"):
            baseline_rank(0.5, np.arange(n), values, method)
        indices = np.arange(n, dtype=float)
        indices[-1] = bad
        with pytest.raises(ValueError, match="finite"):
            baseline_rank(0.5, indices, np.arange(n, dtype=float), method)
        with pytest.raises(ValueError, match="finite"):
            baseline_rank(bad, np.arange(n), np.arange(n, dtype=float), method)

    @pytest.mark.parametrize("method", ["spline", "makima"])
    def test_table_with_non_finite_neighbor_values_raises(self, method):
        pos = np.array([[30.0 * x, 0.0] for x in range(6)])
        nt = neighbor_table(pos, np.ones(6, dtype=bool), KrigingConfig(M=3, r0_m=70.0))
        values = np.array([[1.0, 2.0, np.nan, 1.0, 3.0, 2.0]])
        with pytest.raises(ValueError, match="finite"):
            baseline_table(nt, values, method)

    def test_table_rejects_unknown_method(self):
        # two cells, one neighbor each: no target reaches an interpolant
        nt = neighbor_table(np.array([[0.0, 0.0], [30.0, 0.0]]), np.ones(2, dtype=bool),
                            KrigingConfig(M=4, r0_m=50.0))
        assert list(nt.count) == [1, 1]
        with pytest.raises(ValueError, match="unknown baseline method"):
            baseline_table(nt, np.array([[1.0, 2.0]]), "bogus")
        assert np.isnan(baseline_table(nt, np.array([[1.0, 2.0]]), "spline")).all()

    def test_rank_rejects_unknown_method_first(self):
        with pytest.raises(ValueError, match="unknown baseline method"):
            baseline_rank(0.5, [0], [1.0], "bogus")
