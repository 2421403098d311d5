"""The grids check their own invariants: every RankGrid that compute_rank_grid
or synthetic_rank_field builds is one rank_grid_from_json reads back, and a
grid that the reader would refuse is refused before any work is done on it.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uavrank import covermap, synth
from uavrank.correlation import CorrelationModel
from uavrank.covermap import (compute_coverage, compute_rank_grid, rank_grid_from_json,
                              rank_grid_to_json)
from uavrank.scene import Scene, Tower
from uavrank.synth import synthetic_grid_positions, synthetic_rank_field

SMALL = Scene(extent_m=(300.0, 300.0), grid_spacing_m=100.0, altitudes_m=(30.0,),
              towers=(Tower(id=1, x=150.0, y=150.0),))
MODEL = CorrelationModel(0.2932, -0.0508, 0.7057, -0.001, rmse=0.0)

# (altitudes, thresholds, the axis the error names): each breaks one axis
BAD_AXES = [
    pytest.param((30.0,), (10.0, 10.0), "thresholds", id="repeated-threshold"),
    pytest.param((30.0,), (float("inf"),), "thresholds", id="infinite-threshold"),
    pytest.param((), (10.0,), "altitudes_m", id="no-altitude"),
    pytest.param((-5.0,), (10.0,), "altitudes_m", id="negative-altitude"),
    pytest.param((70.0, 30.0), (10.0,), "altitudes_m", id="decreasing-altitudes"),
]

ALTITUDES = st.lists(st.floats(1.0, 1000.0), min_size=1, max_size=3, unique=True).map(sorted)
THRESHOLDS = st.lists(st.floats(1.0, 1e4, exclude_min=True), min_size=1, max_size=3,
                      unique=True)


def _never(*args, **kwargs):
    pytest.fail("called on a grid that its reader refuses")


def _assert_round_trips(rg):
    back = rank_grid_from_json(rank_grid_to_json(rg))
    assert np.array_equal(back.positions, rg.positions)
    assert back.altitudes_m == rg.altitudes_m
    assert back.thresholds == rg.thresholds
    assert np.array_equal(back.ranks, rg.ranks)
    assert np.array_equal(back.serving_tower, rg.serving_tower)


@pytest.mark.parametrize("altitudes, thresholds, axis", BAD_AXES)
def test_compute_rank_grid_refuses_a_bad_axis_before_any_trace(monkeypatch, altitudes,
                                                               thresholds, axis):
    monkeypatch.setattr(covermap, "trace_paths", _never)
    with pytest.raises(ValueError, match=f"rank grid {axis} must be"):
        compute_rank_grid(SMALL, thresholds=thresholds, altitudes_m=altitudes)


@pytest.mark.parametrize("altitudes, thresholds, axis", BAD_AXES)
def test_synthetic_rank_field_refuses_a_bad_axis_before_any_draw(monkeypatch, altitudes,
                                                                 thresholds, axis):
    monkeypatch.setattr(synth, "correlated_field_factor", _never)
    with pytest.raises(ValueError, match=f"rank grid {axis} must be"):
        synthetic_rank_field(synthetic_grid_positions(3, 2, 30.0), MODEL, altitudes,
                             thresholds, seed=0)


@settings(max_examples=40, deadline=None)
@given(ALTITUDES, THRESHOLDS)
def test_compute_rank_grid_round_trips(altitudes, thresholds):
    _assert_round_trips(compute_rank_grid(SMALL, thresholds=thresholds,
                                          altitudes_m=altitudes))


@settings(max_examples=40, deadline=None)
@given(ALTITUDES, THRESHOLDS, st.integers(1, 4), st.integers(1, 4), st.integers(0, 2**32))
def test_synthetic_rank_field_round_trips(altitudes, thresholds, nx, ny, seed):
    positions = synthetic_grid_positions(nx, ny, 30.0)
    _assert_round_trips(synthetic_rank_field(positions, MODEL, altitudes, thresholds, seed))


@pytest.mark.parametrize("altitude", [np.nan, np.inf])
def test_compute_coverage_refuses_a_bad_altitude_before_the_sweep(monkeypatch, altitude):
    # NaN and inf once ran the tracer into RuntimeWarnings, which the suite
    # turns into errors
    monkeypatch.setattr(covermap, "trace_paths", _never)
    with pytest.raises(ValueError, match=f"altitude must be > 0, got {altitude}"):
        compute_coverage(SMALL, SMALL.towers[0], altitude)
