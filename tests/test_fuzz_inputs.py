"""Fuzzing of the four loaders of outside input: a scene document, a rank
grid artifact, a correlation model and a measurement trace.  Whatever the
text, a loader returns a valid result or raises ValueError (SceneError for
scenes), which the CLI turns into exit code 2; any other exception would end
in a traceback.
"""

import json

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from uavrank.correlation import CorrelationModel
from uavrank.covermap import Z_RANK, RankGrid, rank_grid_from_json, rank_grid_to_json
from uavrank.evaluate import Trace
from uavrank.scene import (MAX_ARRAY_ELEMENTS, MAX_GRID_CELLS, MAX_MAGNITUDE, SceneError,
                           grid_shape, load_scene)

FUZZ = settings(max_examples=150, deadline=None)

# nested deeper than json.loads can recurse
DEEP = "[" * 100000 + "]" * 100000

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


CELLS = st.sampled_from(["0", "1.5", "-60", "nan", "inf", "-inf", "1e400", "1e200", "x", "",
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
@example(json.dumps({"towers": [{"id": True, "x": 0, "y": 0, "array": {"elements": True}}]}))
@example(json.dumps({"towers": [{"id": 1, "x": 0, "y": 0, "array": {"elements": 1e12}}]}))
@example(DEEP)
def test_load_scene_returns_or_raises_scene_error(text):
    try:
        s = load_scene(text)
    except SceneError:
        return
    # the sweeps can build the grid of a loaded scene
    nx, ny = grid_shape(s)
    assert nx * ny <= MAX_GRID_CELLS
    # and its arrays; a JSON boolean is not read as the number 0 or 1
    doc = json.loads(text)
    for t, tdoc in zip(s.towers, doc.get("towers", [])):
        assert 1 <= t.array.elements <= MAX_ARRAY_ELEMENTS
        assert not isinstance(tdoc.get("id"), bool)
        assert not isinstance((tdoc.get("array") or {}).get("elements"), bool)


@FUZZ
@given(st.lists(NUMBERS, max_size=4).map(sorted) | st.lists(NUMBERISH, max_size=4))
@example([-10, 30])
@example([])
@example([30, 2**53, 2**53 + 1])  # distinct as ints, equal as floats
def test_scene_altitudes_survive_a_rank_grid_round_trip(altitudes):
    # `rank` copies the scene's altitudes into rank_grid.json, which `fit`
    # and `interpolate` read back: what one loader accepts, the other must
    try:
        s = load_scene(json.dumps({"altitudes_m": altitudes}))
    except SceneError:
        return
    n_h = len(s.altitudes_m)
    rg = RankGrid(np.zeros((1, 2)), s.altitudes_m, (10.0,), np.zeros((n_h, 1, 1), dtype=int),
                  np.ones(1, dtype=int))
    back = rank_grid_from_json(rank_grid_to_json(rg))
    assert back.altitudes_m == tuple(float(h) for h in altitudes)


def _leaves(value):
    """The scalars of nested JSON arrays."""
    if isinstance(value, list):
        return [leaf for v in value for leaf in _leaves(v)]
    return [value]


@FUZZ
@given(st.one_of(rank_grids().map(json.dumps), JSON.map(json.dumps), st.text(max_size=40)))
@example(json.dumps({"positions": [[0.0, 0.0], [30.0, 0.0]], "altitudes_m": [True, 70],
                     "thresholds": ["10"], "ranks": [[[1, True]], [["2", 1]]],
                     "serving_tower": [1, 1]}))
@example(DEEP)
def test_rank_grid_from_json_returns_a_valid_grid_or_raises(text):
    try:
        rg = rank_grid_from_json(text)
    except ValueError:
        return
    # a JSON boolean or a numeric string is not read as a number
    doc = json.loads(text)
    fields = [doc[k] for k in ("positions", "altitudes_m", "thresholds", "ranks",
                               "serving_tower")]
    assert not any(isinstance(v, (bool, str)) for v in _leaves(fields))
    n = len(rg.positions)
    assert rg.positions.shape == (n, 2) and np.all(np.abs(rg.positions) <= MAX_MAGNITUDE)
    assert all(np.isfinite(h) and h > 0 for h in rg.altitudes_m)
    assert all(np.isfinite(k) and k > 1 for k in rg.thresholds)
    assert rg.ranks.shape == (len(rg.altitudes_m), len(rg.thresholds), n)
    assert rg.ranks.dtype.kind == "i" and np.all(rg.ranks >= Z_RANK)
    assert rg.serving_tower.shape == (n,) and rg.serving_tower.dtype.kind == "i"


MODEL_KEYS = ("c1", "c2", "c3", "c4", "rmse", "max_distance_m")
# the keys from_json requires are always drawn, so the fuzz reaches its value checks
MODELS = st.fixed_dictionaries({k: NUMBERISH for k in MODEL_KEYS[:5]},
                               optional={"max_distance_m": NUMBERISH}) | JSON


@FUZZ
@given(st.one_of(MODELS.map(json.dumps), st.text(max_size=40)))
@example(json.dumps({"c1": True, "c2": "-0.05", "c3": 0.7, "c4": -0.001, "rmse": 0.0}))
@example(json.dumps({"c1": 10**400, "c2": -0.05, "c3": 0.7, "c4": -0.001, "rmse": 0.0}))
@example('{"c1": NaN, "c2": -0.05, "c3": 0.7, "c4": -0.001, "rmse": 0.0}')
@example(DEEP)
def test_model_from_json_returns_a_model_or_raises(text):
    try:
        model = CorrelationModel.from_json(text)
    except ValueError:
        return
    doc = json.loads(text)
    for key in MODEL_KEYS:
        assert type(getattr(model, key)) is float and np.isfinite(getattr(model, key))
        assert not isinstance(doc.get(key), (bool, str))


@FUZZ
@given(st.one_of(TRACES, st.text(max_size=40)))
def test_trace_from_csv_returns_a_valid_trace_or_raises(text):
    try:
        tr = Trace.from_csv(text)
    except ValueError:
        return
    assert np.all(np.abs(tr.t_s) <= MAX_MAGNITUDE) and np.all(np.diff(tr.t_s) >= 0)
    assert np.all(np.abs(tr.positions) <= MAX_MAGNITUDE)
    assert np.all(np.abs(tr.values) <= MAX_MAGNITUDE)
    assert tr.positions.shape == (len(tr.t_s), 3) and len(tr.values) == len(tr.t_s)
