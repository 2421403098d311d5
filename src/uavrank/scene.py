"""Scene description: geometry, materials, towers, and the receiver grid.

Scenes live in a local ENU frame (meters) with the origin at the southwest
corner of the rectangular extent.  A scene is immutable after loading and is
safe to share across workers.
"""

from __future__ import annotations

import cmath
import functools
import json
import math
import sys
import typing
from dataclasses import MISSING, asdict, dataclass, field, fields
from itertools import chain

import numpy as np

SPEED_OF_LIGHT = 299_792_458.0
EPSILON_0 = 8.8541878128e-12
# Receiver grids larger than this are rejected: a sweep holds several arrays
# per cell, so a larger grid would exhaust memory long before it finished.
MAX_GRID_CELLS = 10**7
# Arrays with more elements are rejected: every path's steering vectors and
# every channel matrix grow with the element count.
MAX_ARRAY_ELEMENTS = 1024
# Lengths (extents, coordinates, heights, tree sizes and altitudes) above
# this are rejected: 1000 km is far past any UAV link, and the tracer squares
# and multiplies lengths, which overflows past about 1e150 m.
MAX_LENGTH_M = 1e6
# Rank-grid coordinates and trace numbers above this in size are rejected: UTM
# coordinates pass, and the fit's, Kriging's and calibration's squares stay finite.
MAX_MAGNITUDE = 1e12
# Array entries that the temporaries of one block of every blocked loop may
# hold (block_length); no loop's output depends on it.  Less pays numpy's
# per-call cost more often, more raises the peak memory: the tracer's sweep of
# a 20-building, 30-tree scene on 36 x 71 cells at 9 altitudes (2-core VM,
# range of three medians of five), and the peak RSS of 40 rank stages on an
# 11 x 11 cell window of it at 2 altitudes:
#   entries   grid sweep     peak RSS
#   1 << 14   1.39-1.78 s    34.7 MB
#   1 << 15   0.86-1.16 s    35.1 MB
#   1 << 16   0.82-1.13 s    36.3 MB
BLOCK_ENTRIES = 2**15


def block_length(entries_per_item: int) -> int:
    """Items per block, at least one, of a loop whose items hold
    `entries_per_item` array entries each; reads BLOCK_ENTRIES at call time."""
    return max(1, BLOCK_ENTRIES // max(1, entries_per_item))


class SceneError(ValueError):
    """Raised when a scene document is malformed or violates an invariant."""


def _check_finite(where: str, obj, names) -> None:
    """SceneError unless each field of `obj` in `names` is finite: NaN and
    infinities pass every `not x > 0` test that the fields also have."""
    for name in names:
        value = getattr(obj, name)
        if not math.isfinite(value):
            raise SceneError(f"{where}: {name} must be finite, got {value}")


def _check_lengths(where: str, obj, names) -> None:
    """SceneError unless each length field of `obj` in `names` is at most
    MAX_LENGTH_M in size, which no NaN or infinity is."""
    for name in names:
        value = getattr(obj, name)
        if not abs(value) <= MAX_LENGTH_M:
            raise SceneError(f"{where}: {name} must be at most {MAX_LENGTH_M:g} m in size, "
                             f"got {value:g}")


@dataclass(frozen=True)
class Material:
    """Frequency-dependent surface material.

    The constants a, b, c, d parameterize the complex relative permittivity:
    the real part is a * f_GHz**b and the conductivity is c * f_GHz**d (S/m).
    """

    name: str
    a: float
    b: float
    c: float
    d: float

    def __post_init__(self):
        # written as `not x > 0` so that NaN is rejected too, as in Scene
        if not self.a > 0:
            raise SceneError(f"material {self.name!r}: a must be > 0, got {self.a}")
        if not self.d >= 0:
            raise SceneError(f"material {self.name!r}: d must be >= 0, got {self.d}")
        _check_finite(f"material {self.name!r}", self, ("a", "b", "c", "d"))
        if self.c < 0:
            raise SceneError(f"material {self.name!r}: c must be >= 0, got {self.c}")


# Constants transcribed from ITU-R P.2040 Table 3 (valid around 1-10 GHz).
BUILTIN_MATERIALS = {
    "concrete": Material("concrete", a=5.24, b=0.0, c=0.0462, d=0.7822),
    "medium_dry_ground": Material("medium_dry_ground", a=15.1, b=-0.1, c=0.035, d=1.63),
    "wood": Material("wood", a=1.99, b=0.0, c=0.0047, d=1.0718),
}


def permittivity(m: Material, f_hz: float) -> complex:
    """Complex relative permittivity eps' - j*eps'' at frequency f_hz."""
    if not f_hz > 0:
        raise ValueError(f"frequency must be > 0, got {f_hz}")
    f_ghz = f_hz / 1e9
    eps_real = m.a * f_ghz**m.b
    sigma = m.c * f_ghz**m.d
    eps_imag = sigma / (2.0 * np.pi * EPSILON_0 * f_hz)
    return complex(eps_real, -eps_imag)


@dataclass(frozen=True)
class ArrayConfig:
    """Uniform linear array: element count, spacing in wavelengths, and axis."""

    elements: int = 4
    spacing_wavelengths: float = 0.5
    axis: tuple[float, float, float] = (0.0, 1.0, 0.0)

    def __post_init__(self):
        if not 1 <= self.elements <= MAX_ARRAY_ELEMENTS:
            raise SceneError(f"array elements must be in [1, {MAX_ARRAY_ELEMENTS}], "
                             f"got {self.elements}")
        if not self.spacing_wavelengths > 0:
            raise SceneError(
                f"array spacing must be > 0, got {self.spacing_wavelengths}"
            )
        norm = float(np.linalg.norm(self.axis))
        if not 0 < norm < math.inf:
            raise SceneError("array axis must be a finite nonzero vector")
        object.__setattr__(
            self, "axis", tuple(float(x) / norm for x in self.axis)
        )


@dataclass(frozen=True)
class Building:
    """Axis-aligned rectangular prism sitting on the ground."""

    x: float
    y: float
    w: float
    h: float
    height: float
    material: Material

    def __post_init__(self):
        if not (self.w > 0 and self.h > 0):
            raise SceneError(
                f"building footprint must have positive area, got {self.w}x{self.h}"
            )
        if not self.height > 0:
            raise SceneError(f"building height must be > 0, got {self.height}")
        _check_lengths("building", self, ("x", "y", "w", "h", "height"))


@dataclass(frozen=True)
class Tree:
    """Trunk cylinder with a canopy cone on top.

    The trunk blocks rays outright; the canopy attenuates by
    attenuation_db_per_m per meter of traversed chord.
    """

    x: float
    y: float
    trunk_height: float = 10.0
    trunk_radius: float = 0.5
    canopy_height: float = 10.0
    canopy_base_radius: float = 5.0
    attenuation_db_per_m: float = 1.0

    def __post_init__(self):
        for name in ("trunk_height", "trunk_radius", "canopy_height", "canopy_base_radius"):
            if not getattr(self, name) > 0:
                raise SceneError(f"tree {name} must be > 0")
        # a negative dB/m would make a canopy amplify the path
        if not self.attenuation_db_per_m >= 0:
            raise SceneError(f"tree attenuation_db_per_m must be >= 0, "
                             f"got {self.attenuation_db_per_m}")
        _check_finite("tree", self, ("attenuation_db_per_m",))
        _check_lengths("tree", self, ("x", "y", "trunk_height", "trunk_radius", "canopy_height",
                                      "canopy_base_radius"))


@dataclass(frozen=True)
class Tower:
    id: int
    x: float
    y: float
    height: float = 10.0
    array: ArrayConfig = field(default_factory=ArrayConfig)

    def __post_init__(self):
        if not self.height > 0:
            raise SceneError(f"tower {self.id}: height must be > 0")
        _check_lengths(f"tower {self.id}", self, ("x", "y", "height"))

    @property
    def position(self) -> np.ndarray:
        return np.array([self.x, self.y, self.height])


@dataclass(frozen=True)
class Scene:
    frequency_hz: float = 3.4e9
    extent_m: tuple[float, float] = (1080.0, 2130.0)
    grid_spacing_m: float = 30.0
    altitudes_m: tuple[float, ...] = (30.0, 40.0, 50.0, 60.0, 70.0, 80.0, 90.0, 100.0, 110.0)
    tx_power_w: float = 10.0
    ground_material: Material = BUILTIN_MATERIALS["medium_dry_ground"]
    buildings: tuple[Building, ...] = ()
    trees: tuple[Tree, ...] = ()
    towers: tuple[Tower, ...] = ()

    def __post_init__(self):
        # written as `not x > 0` so that NaN is rejected too
        if not self.frequency_hz > 0:
            raise SceneError(f"frequency must be > 0, got {self.frequency_hz}")
        # a frequency below c / DBL_MAX has an infinite wavelength
        if not math.isfinite(self.wavelength_m):
            raise SceneError(f"wavelength must be finite, got {self.wavelength_m} m "
                             f"at {self.frequency_hz:g} Hz")
        for m in dict.fromkeys((self.ground_material, *(b.material for b in self.buildings))):
            try:
                eps = permittivity(m, self.frequency_hz)
            except OverflowError:  # f_GHz ** b or ** d past a float's range
                eps = math.inf
            if not cmath.isfinite(eps):
                raise SceneError(f"material {m.name!r} has no finite permittivity "
                                 f"at {self.frequency_hz:g} Hz")
        if not 0 < self.tx_power_w < math.inf:
            raise SceneError(f"tx power must be finite and > 0, got {self.tx_power_w}")
        if not 0 < self.grid_spacing_m < math.inf:
            raise SceneError(f"grid spacing must be finite and > 0, got {self.grid_spacing_m}")
        w, h = self.extent_m
        if not (w > 0 and h > 0):
            raise SceneError(f"extent must be positive, got {self.extent_m}")
        d = self.grid_spacing_m
        # w / d may overflow to inf, which grid_shape cannot round: test it first
        if not max(w / d, h / d) <= MAX_GRID_CELLS or np.prod(grid_shape(self)) > MAX_GRID_CELLS:
            raise SceneError(f"extent {w:g} x {h:g} m at grid spacing {d:g} m gives more "
                             f"than {MAX_GRID_CELLS} grid cells")
        if max(w, h) > MAX_LENGTH_M:
            raise SceneError(f"extent must be at most {MAX_LENGTH_M:g} m in size, "
                             f"got {w:g} x {h:g} m")
        check_layer_axis("scene altitudes_m", self.altitudes_m)
        ids = [t.id for t in self.towers]
        if len(set(ids)) != len(ids):
            raise SceneError(f"tower ids must be unique, got {ids}")
        for t in self.towers:
            if not (0 <= t.x <= w and 0 <= t.y <= h):
                raise SceneError(f"tower {t.id} outside extent")

    @property
    def wavelength_m(self) -> float:
        return SPEED_OF_LIGHT / self.frequency_hz


def grid_positions(s: Scene) -> np.ndarray:
    """Receiver grid, shape (N_loc, 2), row-major from the southwest corner.

    The index runs west to east along x, then steps north along y.  Points sit
    at integer multiples of the grid spacing; the half-open extent convention
    gives round(w/d) x round(h/d) points (e.g. 1080 x 2130 m at 30 m spacing
    yields 36 x 71 = 2556 locations).
    """
    nx, ny = grid_shape(s)
    if nx < 1 or ny < 1:
        raise SceneError("extent smaller than one grid cell")
    xs = np.arange(nx) * s.grid_spacing_m
    ys = np.arange(ny) * s.grid_spacing_m
    gx, gy = np.meshgrid(xs, ys)  # rows are constant-y, so C-order is row-major
    return np.column_stack([gx.ravel(), gy.ravel()])


def grid_shape(s: Scene) -> tuple[int, int]:
    """(nx, ny) point counts of the receiver grid."""
    w, h = s.extent_m
    d = s.grid_spacing_m
    return int(round(w / d)), int(round(h / d))


def product_axes(positions: np.ndarray):
    """(xs, ys) of (n, 2) positions laid out as grid_positions lays them out,
    row-major with x fastest: position i is (xs[i % nx], ys[i // nx]).  None
    for any other layout."""
    pos = np.asarray(positions, dtype=float)
    if pos.ndim != 2 or pos.shape[1] != 2 or len(pos) == 0:
        return None
    nx = int(np.argmax(pos[:, 1] != pos[0, 1])) or len(pos)
    xs, ys = pos[:nx, 0], pos[::nx, 1]
    if not np.array_equal(pos, np.column_stack([np.tile(xs, len(ys)), np.repeat(ys, nx)])):
        return None
    return xs, ys


def json_numbers(value, what: str, ndim: int = 0):
    """The one test of a number read from outside: `value` itself if ndim is 0
    and it is a JSON number that a float holds (an int stays an int), or an
    ndim-d JSON array of such numbers as a float ndarray; SceneError naming
    `what` and the fault otherwise.  Booleans (ints to Python), strings,
    null, objects, NaN, +-Infinity and ints past a float's range are not
    numbers."""
    if ndim == 0:
        # plain Python: a scene holds hundreds of scalars, and numpy costs more
        if type(value) in (int, float) and abs(value) <= sys.float_info.max:
            return value
        raise SceneError(f"{what} must be a number, got {value!r}")
    level = [value]
    while (kinds := set(map(type, level))) == {list}:
        level = list(chain.from_iterable(level))
    try:
        array = np.array(value, dtype=float) if kinds <= {int, float} else None
    except (OverflowError, ValueError):  # an int past a float's range, or ragged rows
        array = None
    if array is not None and np.isfinite(array).all() and array.ndim == ndim:
        return array
    bad = next((repr(v) for v in level
                if not (type(v) in (int, float) and abs(v) <= sys.float_info.max)),
               "rows of unequal length" if array is None else f"shape {array.shape}")
    raise SceneError(f"{what} must hold numbers in a {ndim}-d array, got {bad}")


def check_layer_axis(what: str, values, thresholds: bool = False) -> None:
    """Raise SceneError unless `values` make a layer axis: one value or more,
    all finite; altitudes > 0 and strictly increasing, and at most
    MAX_LENGTH_M; thresholds > 1 and distinct.  Values compare as floats, as
    a rank grid artifact reads them back."""
    v = [float(x) for x in values]
    if not v or not all(map(math.isfinite, v)):
        raise SceneError(f"{what} must be finite and non-empty, got {tuple(values)}")
    if thresholds:
        rule = "> 1 and distinct"
        ok = min(v) > 1 and len(set(v)) == len(v)
    else:
        rule = "> 0 and strictly increasing"
        ok = v[0] > 0 and all(a < b for a, b in zip(v, v[1:]))
    if not ok:
        raise SceneError(f"{what} must be {rule}, got {tuple(values)}")
    if not thresholds and v[-1] > MAX_LENGTH_M:
        raise SceneError(f"{what} must be at most {MAX_LENGTH_M:g} m, got {tuple(values)}")


@functools.cache
def _schema(cls) -> tuple:
    """(field, annotation as a type, its Annotated metadata kept) of each
    field of a dataclass, in field order: the dataclasses are the one
    statement of a JSON document's keys, types and defaults."""
    hints = typing.get_type_hints(cls, include_extras=True)
    return tuple((f, hints[f.name]) for f in fields(cls))


def read_fields(cls, obj: dict, where: str, materials=None, **given):
    """cls built from the JSON object `obj`, one field at a time in field
    order, each read by its annotation; the fields in `given` are taken as
    they are.  A key `obj` lacks takes the field's default, or is a
    missing-field error without one.  float fields come back as float, int
    fields as int (a fraction is rejected), tuples as the tuple of their
    values as given (an int stays an int, as artifacts copy them),
    `Annotated[np.ndarray, ndim]` as a float array, `Annotated[np.ndarray,
    ndim, int]` as an int array of 64-bit integers, a dataclass field as a
    nested object, and a Material as a name in `materials`.  `null` is no
    field's value."""
    kwargs = dict(given)
    for f, hint in _schema(cls):
        key = f.name
        if key in given:
            continue
        if hint is Material:  # a building's: a name in the table, concrete if absent
            kwargs[key] = _material(materials, obj.get(key, "concrete"), where)
            continue
        if key not in obj:
            if f.default is MISSING and f.default_factory is MISSING:
                raise SceneError(f"{where} missing field {key!r}")
            continue
        value, what = obj[key], f"{where} field {key!r}"
        if hint is float or hint is int:
            value = json_numbers(value, what)
            if hint is int and value != int(value):
                # rejected, not truncated
                raise SceneError(f"{what} must be an integer, got {value!r}")
            kwargs[key] = hint(value)
        elif hint is str:
            if not isinstance(value, str):
                raise SceneError(f"{what} must be a string, got {value!r}")
            kwargs[key] = value
        elif typing.get_origin(hint) is tuple:
            args = typing.get_args(hint)
            length = None if args[-1] is Ellipsis else len(args)
            if not isinstance(value, list) or length not in (None, len(value)):
                size = f"{length} " if length is not None else ""
                raise SceneError(f"{what} must be an array of {size}numbers, got {value!r}")
            json_numbers(value, what, ndim=1)
            kwargs[key] = tuple(value)
        elif typing.get_origin(hint) is typing.Annotated:  # an ndarray
            ndim, *integer = hint.__metadata__
            array = json_numbers(value, what, ndim)
            if integer and not np.all((np.abs(array) < 2.0**63) & (array == np.round(array))):
                raise SceneError(f"{what} must hold 64-bit integers")
            kwargs[key] = array.astype(int) if integer else array
        else:  # a nested object (a tower's array)
            if not isinstance(value, dict):
                raise SceneError(f"{what} must be a JSON object")
            kwargs[key] = read_fields(hint, value, where)
    return cls(**kwargs)


def _material(materials: dict, name, where: str) -> Material:
    """The material a document names, from its material table."""
    if not isinstance(name, str) or name not in materials:
        raise SceneError(f"{where}: unknown material reference {name!r}")
    return materials[name]


def _objects(doc: dict, key: str) -> list[dict]:
    """The list of JSON objects under `key` (empty when absent)."""
    items = doc.get(key, [])
    if not isinstance(items, list):
        raise SceneError(f"{key} must be a JSON array")
    for i, item in enumerate(items):
        if not isinstance(item, dict):
            raise SceneError(f"{key}[{i}] must be a JSON object")
    return items


def parse_json(text: str, what: str) -> dict:
    """The JSON object of a document from outside: malformed JSON, JSON
    nested deeper than the parser can recurse and any other top-level value
    are raised as SceneError naming `what`."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise SceneError(f"{what} parse error at line {e.lineno}: {e.msg}") from e
    except RecursionError:
        raise SceneError(f"{what} is nested too deeply to parse") from None
    if not isinstance(doc, dict):
        raise SceneError(f"{what} must be a JSON object")
    return doc


def load_scene(text: str) -> Scene:
    """Parse and validate a JSON scene document."""
    doc = parse_json(text, "scene")
    materials = dict(BUILTIN_MATERIALS)
    for i, obj in enumerate(_objects(doc, "materials")):
        m = read_fields(Material, obj, f"materials[{i}]")
        materials[m.name] = m
    ground = _material(materials, doc.get("ground_material", Scene.ground_material.name),
                       "ground_material")
    nested = {key: tuple(read_fields(cls, obj, f"{key}[{i}]", materials)
                         for i, obj in enumerate(_objects(doc, key)))
              for key, cls in (("buildings", Building), ("trees", Tree), ("towers", Tower))}
    return read_fields(Scene, doc, "scene", ground_material=ground, **nested)


def serialize_scene(s: Scene) -> str:
    """Serialize a Scene back to its JSON document form (round-trippable):
    materials are written by name, with a table of each material the scene
    uses; ValueError if two different ones share a name."""
    used = {}
    for m in (s.ground_material, *(b.material for b in s.buildings)):
        if used.setdefault(m.name, m) != m:
            raise ValueError(f"two different materials are named {m.name!r}")
    doc = asdict(s)
    doc["materials"] = [asdict(used[name]) for name in sorted(used)]
    doc["ground_material"] = s.ground_material.name
    for b, bdoc in zip(s.buildings, doc["buildings"]):
        bdoc["material"] = b.material.name
    return json.dumps(doc, indent=2, sort_keys=True)
