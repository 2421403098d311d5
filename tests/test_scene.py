"""Scene model: materials, geometry validation, grid layout, (de)serialization."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uavrank.scene import (
    BUILTIN_MATERIALS,
    ArrayConfig,
    Building,
    Material,
    Scene,
    SceneError,
    Tower,
    Tree,
    grid_positions,
    grid_shape,
    load_scene,
    permittivity,
    serialize_scene,
)

EPS0 = 8.8541878128e-12
NAN = float("nan")


class TestMaterials:
    def test_builtin_constants(self):
        c = BUILTIN_MATERIALS["concrete"]
        assert (c.a, c.b, c.c, c.d) == (5.24, 0.0, 0.0462, 0.7822)
        g = BUILTIN_MATERIALS["medium_dry_ground"]
        assert (g.a, g.b, g.c, g.d) == (15.1, -0.1, 0.035, 1.63)
        w = BUILTIN_MATERIALS["wood"]
        assert (w.a, w.b, w.c, w.d) == (1.99, 0.0, 0.0047, 1.0718)

    def test_permittivity_concrete_3p4ghz(self):
        # frozen from the closed-form constants: eps' = 5.24,
        # eps'' = 0.0462 * 3.4**0.7822 / (2 pi eps0 f)
        eps = permittivity(BUILTIN_MATERIALS["concrete"], 3.4e9)
        assert eps.real == pytest.approx(5.24, abs=1e-12)
        assert eps.imag == pytest.approx(-0.6361466861643639, abs=1e-9)

    def test_permittivity_ground_3p4ghz(self):
        eps = permittivity(BUILTIN_MATERIALS["medium_dry_ground"], 3.4e9)
        assert eps.real == pytest.approx(13.360695172955891, abs=1e-9)
        assert eps.imag == pytest.approx(-1.3601010122719113, abs=1e-9)

    def test_permittivity_wood_3p4ghz(self):
        eps = permittivity(BUILTIN_MATERIALS["wood"], 3.4e9)
        assert eps.real == pytest.approx(1.99, abs=1e-12)
        assert eps.imag == pytest.approx(-0.09224215613848526, abs=1e-9)

    def test_permittivity_matches_independent_formula(self):
        # dual route: recompute from the definition rather than the implementation
        m = Material("x", a=3.0, b=0.2, c=0.01, d=1.1)
        f = 5.6e9
        fg = f / 1e9
        expected = complex(3.0 * fg**0.2, -(0.01 * fg**1.1) / (2 * np.pi * EPS0 * f))
        assert permittivity(m, f) == pytest.approx(expected, abs=1e-15)

    def test_permittivity_rejects_nonpositive_frequency(self):
        with pytest.raises(ValueError):
            permittivity(BUILTIN_MATERIALS["concrete"], 0.0)
        with pytest.raises(ValueError):
            permittivity(BUILTIN_MATERIALS["concrete"], NAN)

    def test_material_validation(self):
        with pytest.raises(SceneError):
            Material("bad", a=0.0, b=0.0, c=0.1, d=0.5)
        with pytest.raises(SceneError):
            Material("bad", a=1.0, b=0.0, c=0.1, d=-0.5)

    @pytest.mark.parametrize("field", ["a", "d"])
    def test_material_rejects_nan(self, field):
        with pytest.raises(SceneError):
            Material("bad", **dict(dict(a=1.0, b=0.0, c=0.1, d=0.5), **{field: NAN}))


class TestArrayConfig:
    def test_defaults(self):
        a = ArrayConfig()
        assert a.elements == 4
        assert a.spacing_wavelengths == 0.5
        assert a.axis == (0.0, 1.0, 0.0)

    def test_axis_normalized(self):
        a = ArrayConfig(axis=(0.0, 3.0, 4.0))
        assert np.allclose(a.axis, (0.0, 0.6, 0.8))

    def test_validation(self):
        with pytest.raises(SceneError):
            ArrayConfig(elements=0)
        with pytest.raises(SceneError):
            ArrayConfig(spacing_wavelengths=0.0)
        with pytest.raises(SceneError):
            ArrayConfig(axis=(0.0, 0.0, 0.0))

    @pytest.mark.parametrize("kwargs", [
        {"spacing_wavelengths": NAN},
        {"axis": (0.0, NAN, 0.0)},
        {"axis": (0.0, float("inf"), 0.0)},
    ])
    def test_rejects_nan(self, kwargs):
        with pytest.raises(SceneError):
            ArrayConfig(**kwargs)


class TestGeometryValidation:
    def test_building(self):
        with pytest.raises(SceneError):
            Building(0, 0, -1, 10, 5, BUILTIN_MATERIALS["concrete"])
        with pytest.raises(SceneError):
            Building(0, 0, 10, 10, 0, BUILTIN_MATERIALS["concrete"])

    def test_tree(self):
        with pytest.raises(SceneError):
            Tree(0, 0, trunk_radius=0.0)
        with pytest.raises(SceneError):
            Tree(0, 0, canopy_height=-1.0)

    @pytest.mark.parametrize("field", ["w", "h", "height"])
    def test_building_rejects_nan(self, field):
        sizes = dict(dict(w=10.0, h=10.0, height=5.0), **{field: NAN})
        with pytest.raises(SceneError):
            Building(0, 0, material=BUILTIN_MATERIALS["concrete"], **sizes)

    @pytest.mark.parametrize("field", ["trunk_height", "trunk_radius", "canopy_height",
                                       "canopy_base_radius"])
    def test_tree_rejects_nan(self, field):
        with pytest.raises(SceneError):
            Tree(0, 0, **{field: NAN})

    def test_tower(self):
        with pytest.raises(SceneError):
            Tower(id=1, x=0, y=0, height=0)
        with pytest.raises(SceneError):
            Tower(id=1, x=0, y=0, height=NAN)

    @pytest.mark.parametrize("bad", [NAN, float("inf"), -float("inf")])
    @pytest.mark.parametrize("build", [
        lambda v: Tree(x=v, y=0),
        lambda v: Tree(x=0, y=v),
        lambda v: Tree(x=0, y=0, attenuation_db_per_m=v),
        lambda v: Tree(x=0, y=0, trunk_height=abs(v)),
        lambda v: Material("m", a=1.0, b=v, c=0.1, d=0.5),
        lambda v: Material("m", a=1.0, b=0.0, c=v, d=0.5),
        lambda v: Material("m", a=abs(v), b=0.0, c=0.1, d=abs(v)),
        lambda v: Tower(id=1, x=v, y=0),
        lambda v: Tower(id=1, x=0, y=v),
        lambda v: Tower(id=1, x=0, y=0, height=abs(v)),
        lambda v: Building(v, 0, 10, 10, 5, BUILTIN_MATERIALS["concrete"]),
        lambda v: Building(0, v, 10, 10, 5, BUILTIN_MATERIALS["concrete"]),
        lambda v: Building(0, 0, abs(v), 10, 5, BUILTIN_MATERIALS["concrete"]),
    ], ids=["tree-x", "tree-y", "tree-attenuation", "tree-trunk-height", "material-b",
            "material-c", "material-a-d", "tower-x", "tower-y", "tower-height",
            "building-x", "building-y", "building-w"])
    def test_non_finite_fields(self, build, bad):
        # infinities pass the `> 0` tests; NaN coordinates and attenuation
        # have no test but this one
        with pytest.raises(SceneError):
            build(bad)
        build(1.0)  # the same object with a finite value constructs

    def test_negative_conductivity_and_attenuation(self):
        # a negative c gives a conductivity below zero; a negative dB/m makes
        # a canopy multiply the path gain by more than 1
        with pytest.raises(SceneError, match="'m': c must be >= 0, got -0.1"):
            Material("m", a=1.0, b=0.0, c=-0.1, d=0.5)
        with pytest.raises(SceneError, match="attenuation_db_per_m must be >= 0, got -1.0"):
            Tree(x=0, y=0, attenuation_db_per_m=-1.0)
        Material("m", a=1.0, b=0.0, c=0.0, d=0.5)
        Tree(x=0, y=0, attenuation_db_per_m=0.0)

    def test_material_nan_b_and_c(self):
        with pytest.raises(SceneError, match="b must be finite"):
            Material("m", a=1.0, b=NAN, c=NAN, d=0.5)
        t = Tower(id=1, x=3, y=4, height=12)
        assert np.allclose(t.position, (3, 4, 12))


class TestScene:
    def test_defaults(self):
        s = Scene()
        assert s.frequency_hz == 3.4e9
        assert s.extent_m == (1080.0, 2130.0)
        assert s.grid_spacing_m == 30.0
        assert s.altitudes_m == tuple(np.arange(30.0, 111.0, 10.0))
        assert s.tx_power_w == 10.0
        assert s.ground_material.name == "medium_dry_ground"

    def test_wavelength(self):
        assert Scene().wavelength_m == pytest.approx(0.08817425235294117, rel=1e-12)

    def test_nan_sizes(self):
        nan = float("nan")
        for kwargs in ({"frequency_hz": nan}, {"grid_spacing_m": nan},
                       {"extent_m": (nan, 100.0)}, {"altitudes_m": (30.0, nan)}):
            with pytest.raises(SceneError):
                Scene(**kwargs)

    @pytest.mark.parametrize("power", [0.0, -1.0, -1e300, float("inf"), NAN])
    def test_tx_power_must_be_finite_and_positive(self, power):
        # log10 of a power <= 0 is -inf or NaN, which a coverage grid cannot
        # tell from out of coverage
        with pytest.raises(SceneError, match="tx power must be finite and > 0"):
            Scene(tx_power_w=power)

    def test_wavelength_must_be_finite(self):
        # c / 1e-300 Hz overflows a float
        with pytest.raises(SceneError, match="wavelength must be finite, got inf m at 1e-300 Hz"):
            Scene(frequency_hz=1e-300)
        assert Scene(frequency_hz=1e-299).wavelength_m < float("inf")

    @pytest.mark.parametrize("kwargs, name", [
        # f_GHz ** b and f_GHz ** d raise OverflowError past a float's range
        ({"frequency_hz": 1e300}, "medium_dry_ground"),
        ({"buildings": (Building(0, 0, 5, 5, 5, Material("m", a=1.0, b=1000.0, c=0.0, d=0.0)),)},
         "m"),
        ({"ground_material": Material("g", a=1.0, b=0.0, c=0.1, d=1000.0)}, "g"),
        # the conductivity's quotient overflows to inf without an error
        ({"frequency_hz": 1e-200, "ground_material": Material("g", a=1.0, b=0.0, c=1e100,
                                                              d=0.0)}, "g"),
    ])
    def test_permittivity_must_be_finite(self, kwargs, name):
        with pytest.raises(SceneError, match=f"material '{name}' has no finite permittivity"):
            Scene(**kwargs)

    def test_altitudes_strictly_increasing(self):
        with pytest.raises(SceneError):
            Scene(altitudes_m=(30.0, 30.0))
        with pytest.raises(SceneError):
            Scene(altitudes_m=(40.0, 30.0))

    def test_duplicate_tower_ids(self):
        with pytest.raises(SceneError):
            Scene(towers=(Tower(id=1, x=0, y=0), Tower(id=1, x=10, y=10)))

    def test_tower_outside_extent(self):
        with pytest.raises(SceneError, match="outside extent"):
            Scene(towers=(Tower(id=1, x=-1, y=0),))
        with pytest.raises(SceneError, match="outside extent"):
            Scene(extent_m=(100, 100), towers=(Tower(id=1, x=50, y=101),))


class TestGrid:
    def test_small_grid_layout(self):
        s = Scene(extent_m=(90.0, 60.0), grid_spacing_m=30.0)
        assert grid_shape(s) == (3, 2)
        pos = grid_positions(s)
        expected = [(0, 0), (30, 0), (60, 0), (0, 30), (30, 30), (60, 30)]
        assert np.allclose(pos, expected)

    def test_default_scene_count(self):
        s = Scene()
        assert grid_shape(s) == (36, 71)
        pos = grid_positions(s)
        assert len(pos) == 2556
        assert np.allclose(pos[0], (0.0, 0.0))
        assert np.allclose(pos[-1], (1050.0, 2100.0))

    def test_row_major_index(self):
        s = Scene(extent_m=(120.0, 120.0), grid_spacing_m=30.0)
        pos = grid_positions(s)
        nx, _ = grid_shape(s)
        # index i maps to (i % nx, i // nx) cells
        for i, (x, y) in enumerate(pos):
            assert x == (i % nx) * 30.0
            assert y == (i // nx) * 30.0

    def test_degenerate_extent(self):
        with pytest.raises(SceneError):
            grid_positions(Scene(extent_m=(10.0, 10.0), grid_spacing_m=30.0))

    @given(
        nx=st.integers(min_value=1, max_value=40),
        ny=st.integers(min_value=1, max_value=40),
        d=st.floats(min_value=1.0, max_value=100.0, allow_nan=False),
    )
    @settings(max_examples=50, deadline=None)
    def test_count_matches_rounded_extent(self, nx, ny, d):
        s = Scene(extent_m=(nx * d, ny * d), grid_spacing_m=d)
        pos = grid_positions(s)
        assert len(pos) == nx * ny
        assert np.all(pos[:, 0] <= s.extent_m[0] + 1e-9)
        assert np.all(pos[:, 1] <= s.extent_m[1] + 1e-9)


SCENE_DOC = {
    "frequency_hz": 3.4e9,
    "extent_m": [600.0, 600.0],
    "grid_spacing_m": 60.0,
    "altitudes_m": [30.0, 70.0],
    "tx_power_w": 10.0,
    "materials": [{"name": "brick", "a": 3.91, "b": 0.0, "c": 0.0238, "d": 0.16}],
    "ground_material": "medium_dry_ground",
    "buildings": [
        {"x": 100, "y": 100, "w": 20, "h": 30, "height": 15, "material": "brick"}
    ],
    "trees": [{"x": 300, "y": 300, "trunk_radius": 0.4}],
    "towers": [
        {"id": 1, "x": 50, "y": 50, "height": 10,
         "array": {"elements": 4, "spacing_wavelengths": 0.5, "axis": [0, 1, 0]}}
    ],
}


class TestLoadScene:
    def test_load_full_document(self):
        s = load_scene(json.dumps(SCENE_DOC))
        assert s.extent_m == (600.0, 600.0)
        assert s.buildings[0].material.name == "brick"
        assert s.buildings[0].material.a == 3.91
        assert s.trees[0].trunk_radius == 0.4
        assert s.trees[0].canopy_base_radius == 5.0  # default preserved
        assert s.towers[0].array.elements == 4

    def test_parse_error_reports_line(self):
        with pytest.raises(SceneError, match="parse error"):
            load_scene("{not json")

    def test_non_object_document(self):
        with pytest.raises(SceneError, match="JSON object"):
            load_scene("[1, 2]")

    def test_missing_building_field(self):
        doc = {"buildings": [{"x": 0, "y": 0, "w": 5, "h": 5}]}
        with pytest.raises(SceneError, match=r"buildings\[0\] missing field 'height'"):
            load_scene(json.dumps(doc))

    def test_unknown_material_reference(self):
        doc = {"buildings": [
            {"x": 0, "y": 0, "w": 5, "h": 5, "height": 5, "material": "adamantium"}
        ]}
        with pytest.raises(SceneError, match="unknown material"):
            load_scene(json.dumps(doc))

    def test_missing_tower_id(self):
        doc = {"towers": [{"x": 0, "y": 0}]}
        with pytest.raises(SceneError, match=r"towers\[0\] missing field 'id'"):
            load_scene(json.dumps(doc))

    def test_defaults_applied(self):
        s = load_scene("{}")
        assert s == Scene()

    def test_round_trip(self):
        s = load_scene(json.dumps(SCENE_DOC))
        s2 = load_scene(serialize_scene(s))
        assert s2 == s

    @pytest.mark.parametrize("ground, material", [
        (BUILTIN_MATERIALS["medium_dry_ground"],
         Material("brick", a=3.91, b=0.0, c=0.0238, d=0.16)),
        (Material("medium_dry_ground", a=9.0, b=0.0, c=0.01, d=1.0),
         Material("concrete", a=9.0, b=0.0, c=0.0462, d=0.7822)),
    ], ids=["custom-brick", "redefined-concrete-and-ground"])
    def test_round_trip_of_a_scene_built_in_python(self, ground, material):
        # the document's material table comes from the materials the scene uses
        s = Scene(extent_m=(300.0, 300.0), altitudes_m=(30.0,), ground_material=ground,
                  buildings=(Building(10, 10, 20, 30, 15, material),
                             Building(100, 100, 5, 5, 5, BUILTIN_MATERIALS["wood"])),
                  trees=(Tree(200, 200, trunk_radius=0.4),),
                  towers=(Tower(id=1, x=50, y=50, array=ArrayConfig(elements=2)),))
        assert load_scene(serialize_scene(s)) == s

    def test_serialize_rejects_two_materials_of_one_name(self):
        other = Material("concrete", a=9.0, b=0.0, c=0.0462, d=0.7822)
        s = Scene(buildings=(Building(0, 0, 5, 5, 5, BUILTIN_MATERIALS["concrete"]),
                             Building(10, 10, 5, 5, 5, other)))
        with pytest.raises(ValueError, match="two different materials are named 'concrete'"):
            serialize_scene(s)
