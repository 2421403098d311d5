"""Fuzzing of the three loaders of outside input: a scene document, a rank
grid artifact and a measurement trace.  Whatever the text, a loader returns a
valid result or raises ValueError (SceneError for scenes), which the CLI
turns into exit code 2; any other exception would end in a traceback.
"""

import json

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from uavrank.covermap import Z_RANK, rank_grid_from_json
from uavrank.evaluate import Trace
from uavrank.scene import MAX_GRID_CELLS, SceneError, grid_shape, load_scene

FUZZ = settings(max_examples=150, deadline=None)

# JSON numbers at and past the edges of a float and of an int64
EDGE_NUMBERS = st.sampled_from([0, -1, 1.5, 2**63, -(2**63) - 1, 10**400, 1e308, -1e308])
NUMBERS = st.one_of(st.floats(), st.integers(), EDGE_NUMBERS)
JSON = st.recursive(
    st.none() | st.booleans() | NUMBERS | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                 max_size=3),
    max_leaves=8,
)
NUMBERISH = NUMBERS | JSON


def _objects(*keys):
    """A JSON array of objects with any subset of `keys`, or any JSON value."""
    return st.lists(st.fixed_dictionaries({}, optional={k: NUMBERISH for k in keys})
                    | JSON, max_size=3) | JSON


ARRAYS = st.fixed_dictionaries({}, optional={
    "elements": NUMBERISH, "spacing_wavelengths": NUMBERISH,
    "axis": st.lists(NUMBERISH, max_size=4)}) | JSON
SCENES = st.fixed_dictionaries({}, optional={
    "frequency_hz": NUMBERISH,
    "extent_m": st.lists(NUMBERISH, max_size=3) | JSON,
    "grid_spacing_m": NUMBERISH,
    "altitudes_m": st.lists(NUMBERISH, max_size=3) | JSON,
    "tx_power_w": NUMBERISH,
    "ground_material": st.sampled_from(["concrete", "wood", "m", "none"]) | JSON,
    "materials": st.lists(st.fixed_dictionaries({}, optional={
        "name": st.sampled_from(["m", "concrete"]) | JSON,
        **{k: NUMBERISH for k in "abcd"}}), max_size=2) | JSON,
    "buildings": _objects("x", "y", "w", "h", "height", "material"),
    "trees": _objects("x", "y", "trunk_height", "trunk_radius", "canopy_height",
                      "canopy_base_radius", "attenuation_db_per_m"),
    "towers": st.lists(st.fixed_dictionaries({}, optional={
        "id": NUMBERISH, "x": NUMBERISH, "y": NUMBERISH, "height": NUMBERISH,
        "array": ARRAYS}), max_size=3) | JSON,
})


@st.composite
def rank_grids(draw):
    """A valid rank grid document with one field, one entry or one key
    replaced by an arbitrary JSON value, or left out."""
    n_h, n_k, n = (draw(st.integers(1, 2)) for _ in range(3))
    grid = {
        "positions": [[30.0 * i, 0.0] for i in range(n)],
        "altitudes_m": [30.0 + 10.0 * i for i in range(n_h)],
        "thresholds": [10.0 * (i + 1) for i in range(n_k)],
        "ranks": [[[1] * n for _ in range(n_k)] for _ in range(n_h)],
        "serving_tower": [1] * n,
    }
    key = draw(st.sampled_from(sorted(grid)))
    how = draw(st.sampled_from(["entry", "field", "drop"]))
    if how == "drop":
        del grid[key]
    elif how == "field":
        grid[key] = draw(JSON)
    else:
        parent, index = grid, key
        while isinstance(parent[index], list) and parent[index]:
            parent, index = parent[index], draw(st.integers(0, len(parent[index]) - 1))
        parent[index] = draw(NUMBERISH)
    return grid


CELLS = st.sampled_from(["0", "1.5", "-60", "nan", "inf", "-inf", "1e400", "x", "",
                         " 2 ", "1_0", "0x1", "t_s"]) | st.text(max_size=4)
HEADERS = st.sampled_from(["t_s,x_m,y_m,z_m,rss_dbm", "x_m,t_s,y_m,z_m,rank",
                           "t_s,x_m,y_m,z_m", "t_s,x_m,y_m,z_m,t_s"]) | st.text(max_size=12)
TRACES = st.builds(
    lambda header, rows: "\n".join([header] + [",".join(r) for r in rows]),
    HEADERS, st.lists(st.lists(CELLS, min_size=3, max_size=6), max_size=4))


@FUZZ
@given(st.one_of(SCENES.map(json.dumps), st.text(max_size=40)))
@example(json.dumps({"extent_m": [1e308, 1e308], "grid_spacing_m": 1e-10,
                     "towers": [{"id": 1, "x": 0, "y": 0}]}))
def test_load_scene_returns_or_raises_scene_error(text):
    try:
        s = load_scene(text)
    except SceneError:
        return
    # the sweeps can build the grid of a loaded scene
    nx, ny = grid_shape(s)
    assert nx * ny <= MAX_GRID_CELLS


@FUZZ
@given(st.one_of(rank_grids().map(json.dumps), JSON.map(json.dumps), st.text(max_size=40)))
def test_rank_grid_from_json_returns_a_valid_grid_or_raises(text):
    try:
        rg = rank_grid_from_json(text)
    except ValueError:
        return
    n = len(rg.positions)
    assert rg.positions.shape == (n, 2) and np.all(np.isfinite(rg.positions))
    assert all(np.isfinite(h) and h > 0 for h in rg.altitudes_m)
    assert all(np.isfinite(k) and k > 1 for k in rg.thresholds)
    assert rg.ranks.shape == (len(rg.altitudes_m), len(rg.thresholds), n)
    assert rg.ranks.dtype.kind == "i" and np.all(rg.ranks >= Z_RANK)
    assert rg.serving_tower.shape == (n,) and rg.serving_tower.dtype.kind == "i"


@FUZZ
@given(st.one_of(TRACES, st.text(max_size=40)))
def test_trace_from_csv_returns_a_valid_trace_or_raises(text):
    try:
        tr = Trace.from_csv(text)
    except ValueError:
        return
    assert np.all(np.isfinite(tr.t_s)) and np.all(np.diff(tr.t_s) >= 0)
    assert np.all(np.isfinite(tr.positions)) and np.all(np.isfinite(tr.values))
    assert tr.positions.shape == (len(tr.t_s), 3) and len(tr.values) == len(tr.t_s)
