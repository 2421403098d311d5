"""Image-method tracing: geometry, Fresnel coefficients, occlusion, foliage."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uavrank.raytrace import (
    MIN_RX_ALTITUDE,
    foliage_loss,
    fresnel_reflection,
    scene_facets,
    trace_paths,
)
from uavrank.scene import BUILTIN_MATERIALS, Building, Scene, Tree

CONCRETE = BUILTIN_MATERIALS["concrete"]

FLAT = Scene()  # ground plane only


def _paths_by_kind(paths):
    out = {}
    for p in paths:
        out.setdefault(p.kind, []).append(p)
    return out


class TestTwoRay:
    """tx (0,0,10) to rx (100,0,30) over flat ground."""

    TX = (0.0, 0.0, 10.0)
    RX = (100.0, 0.0, 30.0)

    def test_exactly_two_paths(self):
        paths = trace_paths(FLAT, self.TX, self.RX)
        assert sorted(p.kind for p in paths) == ["los", "reflected"]

    def test_path_lengths(self):
        # direct: sqrt(100^2 + 20^2); via ground image: sqrt(100^2 + 40^2)
        paths = _paths_by_kind(trace_paths(FLAT, self.TX, self.RX))
        assert paths["los"][0].length == pytest.approx(101.9803902718557, abs=1e-9)
        assert paths["reflected"][0].length == pytest.approx(
            107.70329614269008, abs=1e-9
        )

    def test_ground_reflection_point(self):
        # image (0,0,-10) -> (100,0,30) crosses z=0 at x = 100 * 10/40 = 25
        p = _paths_by_kind(trace_paths(FLAT, self.TX, self.RX))["reflected"][0]
        assert p.order == 1
        assert np.allclose(p.vertices[1], (25.0, 0.0, 0.0), atol=1e-9)

    def test_ground_reflection_metadata(self):
        p = _paths_by_kind(trace_paths(FLAT, self.TX, self.RX))["reflected"][0]
        (r,) = p.reflections
        assert r.pol == "TM"
        assert r.material.name == "medium_dry_ground"
        # incidence from vertical: descending 10 m over 25 m horizontally
        assert r.angle == pytest.approx(np.arctan(2.5), abs=1e-12)

    def test_delay_is_length_over_c(self):
        for p in trace_paths(FLAT, self.TX, self.RX):
            assert p.delay == pytest.approx(p.length / 299_792_458.0, rel=1e-12)

    def test_los_gain_magnitude_and_phase(self):
        p = _paths_by_kind(trace_paths(FLAT, self.TX, self.RX))["los"][0]
        lam = FLAT.wavelength_m
        assert abs(p.gain) == pytest.approx(lam / (4 * np.pi * p.length), rel=1e-12)
        assert np.angle(p.gain) == pytest.approx(
            np.angle(np.exp(-2j * np.pi * p.length / lam)), abs=1e-9
        )

    def test_los_departure_angles(self):
        p = _paths_by_kind(trace_paths(FLAT, self.TX, self.RX))["los"][0]
        az, el = p.aod
        assert az == pytest.approx(0.0, abs=1e-12)
        assert el == pytest.approx(np.arcsin(20.0 / 101.9803902718557), abs=1e-12)


class TestFresnel:
    def test_normal_incidence_eps5(self):
        # (1 - sqrt(5)) / (1 + sqrt(5))
        expected = -0.38196601125010515
        for pol in ("TE", "TM"):
            g = fresnel_reflection(5.0 + 0j, 0.0, pol)
            assert g.real == pytest.approx(expected, abs=1e-9)
            assert g.imag == pytest.approx(0.0, abs=1e-12)

    def test_te_grazing_limit(self):
        # the default ground at 3.4 GHz; |Gamma + 1| ~ 2 cos(theta) / |g|
        from uavrank.scene import permittivity

        eps = permittivity(BUILTIN_MATERIALS["medium_dry_ground"], 3.4e9)
        g = fresnel_reflection(eps, np.deg2rad(89.9), "TE")
        assert abs(g + 1.0) < 1e-3

    def test_tm_brewster_zero(self):
        # arctan(sqrt(eps)) for a lossless dielectric
        g = fresnel_reflection(5.0 + 0j, np.arctan(np.sqrt(5.0)), "TM")
        assert abs(g) < 1e-12

    def test_passive_magnitude_bound(self):
        eps = 5.24 - 0.636j
        for deg in np.linspace(0.0, 89.9, 50):
            for pol in ("TE", "TM"):
                assert abs(fresnel_reflection(eps, np.deg2rad(deg), pol)) <= 1.0 + 1e-12

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            fresnel_reflection(5.0, -0.1, "TE")
        with pytest.raises(ValueError):
            fresnel_reflection(5.0, np.pi / 2 + 0.1, "TE")
        with pytest.raises(ValueError):
            fresnel_reflection(5.0, 0.3, "circular")


class TestWallReflection:
    """tx (0,0,10), rx (0,20,10), wall at x=50 spanning y in [0,20], z in [0,20]."""

    SCENE = Scene(buildings=(Building(x=50, y=0, w=10, h=20, height=20,
                                      material=CONCRETE),))
    TX = (0.0, 0.0, 10.0)
    RX = (0.0, 20.0, 10.0)

    def _wall_path(self):
        for p in trace_paths(self.SCENE, self.TX, self.RX):
            if p.order == 1 and p.reflections[0].pol == "TE":
                return p
        raise AssertionError("no wall bounce found")

    def test_reflection_point_by_hand(self):
        # mirror tx across x=50 -> (100,0,10); midpoint toward rx is (50,10,10)
        p = self._wall_path()
        assert np.allclose(p.vertices[1], (50.0, 10.0, 10.0), atol=1e-9)
        assert p.length == pytest.approx(2 * np.hypot(50, 10), abs=1e-9)

    def test_wall_material_and_pol(self):
        r = self._wall_path().reflections[0]
        assert r.material.name == "concrete"
        assert r.pol == "TE"

    def test_double_bounce_exists(self):
        # unequal terminal heights keep the wall+ground bounce non-degenerate
        orders = {p.order for p in trace_paths(self.SCENE, self.TX, (0, 20, 16))}
        assert orders == {0, 1, 2}

    def test_reflection_law_on_all_paths(self):
        # at each bounce the direction component normal to the facet flips
        for p in trace_paths(self.SCENE, self.TX, self.RX):
            verts = [np.array(v) for v in p.vertices]
            for i, r in enumerate(p.reflections):
                d_in = verts[i + 1] - verts[i]
                d_out = verts[i + 2] - verts[i + 1]
                d_in /= np.linalg.norm(d_in)
                d_out /= np.linalg.norm(d_out)
                # find the constant coordinate of the bounce plane
                flips = [abs(d_in[k] + d_out[k]) < 1e-9 for k in range(3)]
                keeps = [abs(d_in[k] - d_out[k]) < 1e-9 for k in range(3)]
                assert sum(flips) >= 1 and sum(keeps) >= 2


class TestOcclusion:
    def test_building_blocks_los(self):
        s = Scene(buildings=(Building(x=40, y=-10, w=20, h=20, height=25,
                                      material=CONCRETE),))
        kinds = {p.kind for p in trace_paths(s, (0, 0, 10), (100, 0, 30))}
        assert "los" not in kinds

    def test_receiver_above_building_sees_los(self):
        s = Scene(buildings=(Building(x=40, y=-10, w=20, h=20, height=25,
                                      material=CONCRETE),))
        kinds = {p.kind for p in trace_paths(s, (0, 0, 10), (100, 0, 80))}
        assert "los" in kinds

    def test_trunk_blocks_everything(self):
        # trunk sits on the direct ray and on the ground-bounce ray
        s = Scene(trees=(Tree(x=50.0, y=0.0),))
        assert trace_paths(s, (0, 0, 10), (100, 0, 5)) == []

    def test_offset_trunk_does_not_block(self):
        s = Scene(trees=(Tree(x=50.0, y=10.0),))
        kinds = {p.kind for p in trace_paths(s, (0, 0, 10), (100, 0, 5))}
        assert "los" in kinds


class TestFoliage:
    TREE = Tree(x=50.0, y=0.0)  # trunk 10 m, canopy cone 10 m high, base radius 5

    def test_canopy_chord_through_axis(self):
        # at z=15 the cone radius is 2.5 m, so the diametral chord is 5 m
        loss = foliage_loss((30, 0, 15), (70, 0, 15), [self.TREE])
        assert loss == pytest.approx(5.0, abs=1e-9)

    def test_attenuation_scales_with_rate(self):
        t = Tree(x=50.0, y=0.0, attenuation_db_per_m=2.5)
        loss = foliage_loss((30, 0, 15), (70, 0, 15), [t])
        assert loss == pytest.approx(12.5, abs=1e-9)

    def test_trunk_crossing_is_infinite(self):
        assert foliage_loss((30, 0, 5), (70, 0, 5), [self.TREE]) == np.inf

    def test_above_canopy_is_free(self):
        assert foliage_loss((30, 0, 25), (70, 0, 25), [self.TREE]) == 0.0

    def test_miss_is_free(self):
        assert foliage_loss((30, 20, 15), (70, 20, 15), [self.TREE]) == 0.0

    def test_losses_add_across_trees(self):
        trees = [Tree(x=40.0, y=0.0), Tree(x=60.0, y=0.0)]
        loss = foliage_loss((0, 0, 15), (100, 0, 15), trees)
        assert loss == pytest.approx(10.0, abs=1e-9)

    def test_canopy_attenuates_traced_path(self):
        s = Scene(trees=(self.TREE,))
        paths = trace_paths(s, (0, 0, 15), (100, 0, 15))
        assert [p.kind for p in paths] == ["los"]  # ground bounce hits the trunk
        p = paths[0]
        assert p.foliage_db == pytest.approx(5.0, abs=1e-9)
        lam = FLAT.wavelength_m
        assert abs(p.gain) == pytest.approx(
            lam / (4 * np.pi * p.length) * 10 ** (-5.0 / 20.0), rel=1e-9
        )


class TestTraceInterface:
    def test_rx_altitude_clamped(self):
        paths = trace_paths(FLAT, (0, 0, 10), (100, 0, 0.0))
        los = _paths_by_kind(paths)["los"][0]
        assert los.vertices[-1][2] == MIN_RX_ALTITUDE

    def test_rejects_coincident_endpoints(self):
        with pytest.raises(ValueError):
            trace_paths(FLAT, (0, 0, 10), (0, 0, 10))

    def test_facet_count(self):
        s = Scene(buildings=(Building(x=10, y=10, w=5, h=5, height=8,
                                      material=CONCRETE),))
        assert len(scene_facets(s)) == 6  # ground + 4 walls + roof

    @given(
        bx=st.floats(min_value=20, max_value=80),
        by=st.floats(min_value=-40, max_value=40),
        height=st.floats(min_value=5, max_value=40),
        rxz=st.floats(min_value=1, max_value=60),
    )
    @settings(max_examples=30, deadline=None)
    def test_path_invariants(self, bx, by, height, rxz):
        s = Scene(buildings=(Building(x=bx, y=by, w=15, h=15, height=height,
                                      material=CONCRETE),))
        tx = np.array([0.0, 0.0, 10.0])
        rx = np.array([100.0, 5.0, rxz])
        los_dist = float(np.linalg.norm(rx - tx))
        for p in trace_paths(s, tx, rx):
            assert p.length >= los_dist - 1e-9
            assert p.order == len(p.reflections)
            assert np.isfinite(p.gain)
            assert abs(p.gain) <= FLAT.wavelength_m / (4 * np.pi * los_dist) + 1e-12
