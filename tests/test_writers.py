"""The artifact writers against their per-row oracles.

The oracles are the row-by-row writers the column-wise ones replaced: each
new writer must return text `==` to its oracle, on grids and curves built to
hit the formatting edge cases (NaN, -0.0, integral floats, values on a
rounding boundary, -0.0 beside 0.0 in a coordinate column, scattered and
large coordinates, Z_RANK and integers up to 2**53).
"""

import json

import numpy as np
import pytest

from uavrank.covermap import (Z_RANK, CoverageGrid, RankGrid, cdf_to_csv, grid_to_csv,
                              grid_to_pgm, rank_grid_to_json)

SEEDS = range(36)


def grid_to_csv_oracle(positions, values):
    """Oracle: one formatted row per cell."""
    values = np.asarray(values)
    missing = np.isnan(values) if values.dtype.kind == "f" else values == Z_RANK
    lines = ["x_m,y_m,value"]
    for (x, y), v, z in zip(positions, values, missing):
        if z:
            sval = "Z"
        elif float(v) == int(v):
            sval = str(int(v))
        else:
            sval = f"{float(v):.6f}"
        lines.append(f"{x:.3f},{y:.3f},{sval}")
    return "\n".join(lines) + "\n"


def cdf_to_csv_oracle(points, blockage_fraction):
    """Oracle: one formatted row per CDF point."""
    lines = [f"# blockage_fraction,{blockage_fraction:.9f}", "value_dbm,fraction"]
    for v, f in points:
        lines.append(f"{v:.6f},{f:.9f}")
    return "\n".join(lines) + "\n"


def rank_grid_to_json_oracle(rg):
    """Oracle: positions converted one pair at a time."""
    return json.dumps(
        {
            "positions": [[float(x), float(y)] for x, y in rg.positions],
            "altitudes_m": list(rg.altitudes_m),
            "thresholds": list(rg.thresholds),
            "ranks": rg.ranks.tolist(),
            "serving_tower": rg.serving_tower.tolist(),
        },
        sort_keys=True,
    )


def _positions(rng, n):
    """A row-major grid or scattered points, at any offset and scale, with
    -0.0 and 0.0 side by side in both columns for even n."""
    kind = rng.integers(3)
    if kind == 0:
        nx = int(rng.integers(1, 12))
        spacing = float(rng.choice([30.0, 0.1, 7.3, 1 / 3, 12345.678]))
        origin = rng.choice([0.0, -150.0, 1e6, -1e6], size=2)
        k = np.arange(n)
        pos = origin + spacing * np.column_stack([k % nx, k // nx])
    elif kind == 1:
        pos = rng.uniform(-1e6, 1e6, size=(n, 2))
    else:
        # coordinates on the half-millimetre rounding boundary
        pos = (rng.integers(-10**6, 10**6, size=(n, 2)) + 0.5) / 1000.0
    if n >= 2 and n % 2 == 0:
        pos[::2] = np.where(rng.random((len(pos[::2]), 2)) < 0.3, -0.0, pos[::2])
        pos[1::2] = np.where(rng.random((len(pos[1::2]), 2)) < 0.3, 0.0, pos[1::2])
        pos[:2] = [[-0.0, 0.0], [0.0, -0.0]]
    return pos


def _float_values(rng, n):
    values = rng.uniform(-130.0, -30.0, size=n)
    pick = rng.random(n)
    values[pick < 0.15] = np.nan
    integral = (pick >= 0.15) & (pick < 0.3)
    values[integral] = rng.choice([-60.0, 0.0, -0.0, 1e15, -7.0], size=integral.sum())
    edge = (pick >= 0.3) & (pick < 0.45)
    # on the rounding boundary of the sixth decimal
    values[edge] = (rng.integers(-10**8, 10**8, size=edge.sum()) + 0.5) / 10**6
    return values


@pytest.mark.parametrize("seed", SEEDS)
def test_float_grid_equals_oracle(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(0, 300))
    pos, values = _positions(rng, n), _float_values(rng, n)
    assert grid_to_csv(pos, values) == grid_to_csv_oracle(pos, values)


@pytest.mark.parametrize("seed", SEEDS)
def test_rank_layer_equals_oracle(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(0, 300))
    pos = _positions(rng, n)
    values = rng.integers(Z_RANK, 9, size=n)
    big = rng.random(n) < 0.1
    values[big] = rng.integers(-(2**53), 2**53, size=big.sum(), endpoint=True)
    values[:2] = [2**53, -(2**53)][:n]
    assert grid_to_csv(pos, values) == grid_to_csv_oracle(pos, values)


@pytest.mark.parametrize("seed", SEEDS)
def test_cdf_equals_oracle(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(0, 300))
    values = _float_values(rng, n)
    values = np.sort(values[~np.isnan(values)])
    if seed % 3 == 0:
        values = np.concatenate([[-np.inf], values])
    fractions = np.cumsum(rng.random(len(values))) / max(1, len(values))
    points = list(zip(values.tolist(), fractions.tolist()))
    blockage = float(rng.choice([0.0, 1.0, rng.random()]))
    assert cdf_to_csv(points, blockage) == cdf_to_csv_oracle(points, blockage)


@pytest.mark.parametrize("seed", SEEDS)
def test_rank_grid_json_equals_oracle(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 200))
    pos = _positions(rng, n)
    if seed % 4 == 0:
        pos = np.round(pos).astype(int)  # integer positions are written as floats
    altitudes, thresholds = (30.0, 70.0), (10.0, 100.0, 1000.0)
    ranks = rng.integers(Z_RANK, 5, size=(len(altitudes), len(thresholds), n))
    rg = RankGrid(pos, altitudes, thresholds, ranks, rng.integers(1, 4, size=n))
    assert rank_grid_to_json(rg) == rank_grid_to_json_oracle(rg)


def test_integers_past_2_53_are_written_exactly():
    # the one place the writer departs from its oracle, which wrote the
    # nearest float with six zero decimals
    values = np.array([2**53 + 1, -(2**53) - 1, 2**62])
    rows = grid_to_csv(np.zeros((3, 2)), values).splitlines()[1:]
    assert [r.split(",")[2] for r in rows] == [str(v) for v in values.tolist()]
    oracle = grid_to_csv_oracle(np.zeros((1, 2)), values[:1])
    assert oracle.endswith(",9007199254740992.000000\n")


def test_infinite_rss_is_written_as_inf():
    # rss_dbm is -inf for a channel of zero gain; the cell is covered
    pos = np.array([[0.0, 0.0], [30.0, 0.0], [60.0, 0.0]])
    values = np.array([-np.inf, np.inf, np.nan])
    rows = grid_to_csv(pos, values).splitlines()[1:]
    assert rows == ["0.000,0.000,-inf", "30.000,0.000,inf", "60.000,0.000,Z"]
    # the heatmap puts them at the ends of the scale, apart from Z's byte 0
    pgm = grid_to_pgm(CoverageGrid(1, 30.0, "SISO", pos, values), 3, 1)
    assert pgm.split(b"255\n", 1)[1] == bytes([1, 255, 0])
