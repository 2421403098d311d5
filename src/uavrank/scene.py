"""Scene description: geometry, materials, towers, and the receiver grid.

Scenes live in a local ENU frame (meters) with the origin at the southwest
corner of the rectangular extent.  A scene is immutable after loading and is
safe to share across workers.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import asdict, dataclass, field
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


class SceneError(ValueError):
    """Raised when a scene document is malformed or violates an invariant."""


def _check_finite(where: str, obj, names) -> None:
    """SceneError unless each field of `obj` in `names` is finite: NaN and
    infinities pass every `not x > 0` test that the fields also have."""
    for name in names:
        value = getattr(obj, name)
        if not math.isfinite(value):
            raise SceneError(f"{where}: {name} must be finite, got {value}")


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
        _check_finite("building", self, ("x", "y", "w", "h", "height"))


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
        for name in (
            "trunk_height",
            "trunk_radius",
            "canopy_height",
            "canopy_base_radius",
        ):
            if not getattr(self, name) > 0:
                raise SceneError(f"tree {name} must be > 0")
        _check_finite("tree", self, ("x", "y", "trunk_height", "trunk_radius", "canopy_height",
                                     "canopy_base_radius", "attenuation_db_per_m"))


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
        _check_finite(f"tower {self.id}", self, ("x", "y", "height"))

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
    materials: dict = field(default_factory=dict)
    buildings: tuple[Building, ...] = ()
    trees: tuple[Tree, ...] = ()
    towers: tuple[Tower, ...] = ()

    def __post_init__(self):
        # written as `not x > 0` so that NaN is rejected too
        if not self.frequency_hz > 0:
            raise SceneError(f"frequency must be > 0, got {self.frequency_hz}")
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
    all finite; altitudes > 0 and strictly increasing, thresholds > 1 and
    distinct.  Values compare as floats, as a rank grid artifact reads them
    back."""
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


def _number(obj: dict, key: str, where: str, default=None, kind=float):
    """obj[key], a JSON number, converted by `kind`; `default` when the key
    is absent, or a missing-field error without one."""
    if key not in obj:
        if default is None:
            raise SceneError(f"{where} missing field {key!r}")
        return default
    value = json_numbers(obj[key], f"{where} field {key!r}")
    if kind is int and value != int(value):
        # rejected, not truncated
        raise SceneError(f"{where} field {key!r} must be an integer, got {value!r}")
    return kind(value)


def _numbers(obj: dict, key: str, where: str, default: tuple, length=None) -> tuple:
    """obj[key], a JSON array of numbers, as a tuple of the values as given
    (an int stays an int, as artifacts copy them); `default` if it is absent."""
    if key not in obj:
        return default
    value, what = obj[key], f"{where} field {key!r}"
    if not isinstance(value, list) or (length is not None and len(value) != length):
        size = f"{length} " if length is not None else ""
        raise SceneError(f"{what} must be an array of {size}numbers, got {value!r}")
    json_numbers(value, what, ndim=1)
    return tuple(value)


def _parse_material(obj: dict, where: str) -> Material:
    if "name" not in obj:
        raise SceneError(f"{where} missing field 'name'")
    return Material(name=str(obj["name"]),
                    **{k: _number(obj, k, where) for k in ("a", "b", "c", "d")})


def _parse_array(obj, where: str) -> ArrayConfig:
    if obj is None:
        return ArrayConfig()
    if not isinstance(obj, dict):
        raise SceneError(f"{where} field 'array' must be a JSON object")
    return ArrayConfig(
        elements=_number(obj, "elements", where, 4, int),
        spacing_wavelengths=_number(obj, "spacing_wavelengths", where, 0.5),
        axis=_numbers(obj, "axis", where, (0.0, 1.0, 0.0), 3),
    )


def _objects(doc: dict, key: str) -> list[dict]:
    """The list of JSON objects under `key` (empty when absent)."""
    items = doc.get(key, [])
    if not isinstance(items, list):
        raise SceneError(f"{key} must be a JSON array")
    for i, item in enumerate(items):
        if not isinstance(item, dict):
            raise SceneError(f"{key}[{i}] must be a JSON object")
    return items


def parse_json(text: str, what: str):
    """json.loads(text) for a document from outside, with malformed JSON and
    JSON nested deeper than the parser can recurse raised as SceneError
    naming `what`."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise SceneError(f"{what} parse error at line {e.lineno}: {e.msg}") from e
    except RecursionError:
        raise SceneError(f"{what} is nested too deeply to parse") from None


def load_scene(text: str) -> Scene:
    """Parse and validate a JSON scene document."""
    doc = parse_json(text, "scene")
    if not isinstance(doc, dict):
        raise SceneError("scene document must be a JSON object")

    materials = dict(BUILTIN_MATERIALS)
    for i, mobj in enumerate(_objects(doc, "materials")):
        m = _parse_material(mobj, f"materials[{i}]")
        materials[m.name] = m

    def resolve(name, where):
        if not isinstance(name, str) or name not in materials:
            raise SceneError(f"{where}: unknown material reference {name!r}")
        return materials[name]

    ground_name = doc.get("ground_material", "medium_dry_ground")
    ground = resolve(ground_name, "ground_material")

    buildings = []
    for i, b in enumerate(_objects(doc, "buildings")):
        where = f"buildings[{i}]"
        buildings.append(Building(
            **{k: _number(b, k, where) for k in ("x", "y", "w", "h", "height")},
            material=resolve(b.get("material", "concrete"), where),
        ))

    tree_defaults = {"trunk_height": 10.0, "trunk_radius": 0.5, "canopy_height": 10.0,
                     "canopy_base_radius": 5.0, "attenuation_db_per_m": 1.0}
    trees = []
    for i, t in enumerate(_objects(doc, "trees")):
        where = f"trees[{i}]"
        trees.append(Tree(
            x=_number(t, "x", where),
            y=_number(t, "y", where),
            **{k: _number(t, k, where, v) for k, v in tree_defaults.items()},
        ))

    towers = []
    for i, t in enumerate(_objects(doc, "towers")):
        where = f"towers[{i}]"
        towers.append(Tower(
            id=_number(t, "id", where, kind=int),
            x=_number(t, "x", where),
            y=_number(t, "y", where),
            height=_number(t, "height", where, 10.0),
            array=_parse_array(t.get("array"), where),
        ))

    defaults = Scene()
    return Scene(
        frequency_hz=_number(doc, "frequency_hz", "scene", defaults.frequency_hz),
        extent_m=_numbers(doc, "extent_m", "scene", defaults.extent_m, 2),
        grid_spacing_m=_number(doc, "grid_spacing_m", "scene", defaults.grid_spacing_m),
        altitudes_m=_numbers(doc, "altitudes_m", "scene", defaults.altitudes_m),
        tx_power_w=_number(doc, "tx_power_w", "scene", defaults.tx_power_w),
        ground_material=ground,
        materials=materials,
        buildings=tuple(buildings),
        trees=tuple(trees),
        towers=tuple(towers),
    )


def serialize_scene(s: Scene) -> str:
    """Serialize a Scene back to its JSON document form (round-trippable)."""

    def fields(obj, names, **extra) -> dict:
        return {**{k: getattr(obj, k) for k in names}, **extra}

    doc = fields(
        s, ("frequency_hz", "grid_spacing_m", "tx_power_w"),
        extent_m=list(s.extent_m),
        altitudes_m=list(s.altitudes_m),
        materials=[fields(m, ("name", "a", "b", "c", "d"))
                   for m in sorted(s.materials.values(), key=lambda m: m.name)],
        ground_material=s.ground_material.name,
        buildings=[fields(b, ("x", "y", "w", "h", "height"), material=b.material.name)
                   for b in s.buildings],
        trees=[asdict(t) for t in s.trees],
        towers=[fields(t, ("id", "x", "y", "height"),
                       array=fields(t.array, ("elements", "spacing_wavelengths"),
                                    axis=list(t.array.axis)))
                for t in s.towers],
    )
    return json.dumps(doc, indent=2, sort_keys=True)
