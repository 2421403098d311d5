"""Receiver-batched tracing (trace_paths over an array of receivers) and the
sweeps built on it, against the per-link trace_paths oracle on seeded random
scenes."""

import math
from dataclasses import fields

import numpy as np
import pytest

from uavrank.channel import channel_rank, rss, synthesize_channel
from uavrank import raytrace
from uavrank.covermap import Z_RANK, compute_coverage, compute_rank_grid
from uavrank.raytrace import PathRow, PathTable, trace_paths
from uavrank.scene import (BLOCK_ENTRIES, BUILTIN_MATERIALS, ArrayConfig, Building, Scene,
                           Tower, Tree)

SEEDS = range(24)
EXTENT = 240.0


def random_scene(seed: int) -> Scene:
    """Boxes, trees and one or two towers; every fourth scene has low roofs
    below the towers, which adds roof-to-roof second-order paths."""
    rng = np.random.default_rng(seed)
    low = seed % 4 == 0
    buildings = tuple(
        Building(x=float(rng.uniform(0, EXTENT - 40)), y=float(rng.uniform(0, EXTENT - 40)),
                 w=float(rng.uniform(8, 40)), h=float(rng.uniform(8, 40)),
                 height=float(rng.uniform(2, 8) if low else rng.uniform(8, 30)),
                 material=BUILTIN_MATERIALS[str(rng.choice(["concrete", "wood"]))])
        for _ in range(rng.integers(1, 6))
    )
    trees = tuple(
        Tree(x=float(rng.uniform(0, EXTENT)), y=float(rng.uniform(0, EXTENT)),
             trunk_height=float(rng.uniform(2, 10)), trunk_radius=float(rng.uniform(0.2, 1.0)),
             canopy_height=float(rng.uniform(2, 10)),
             canopy_base_radius=float(rng.uniform(1, 6)),
             attenuation_db_per_m=float(rng.uniform(0.2, 2.0)))
        for _ in range(rng.integers(0, 7))
    )
    towers = tuple(
        Tower(id=k + 1, x=float(rng.uniform(0, EXTENT)), y=float(rng.uniform(0, EXTENT)),
              height=float(rng.uniform(10, 35)))
        for k in range(rng.integers(1, 3))
    )
    return Scene(extent_m=(EXTENT, EXTENT), grid_spacing_m=40.0, altitudes_m=(1.5, 30.0),
                 buildings=buildings, trees=trees, towers=towers)


def touching_scene(seed: int) -> Scene:
    """Two rows of buildings that share walls with their neighbours and with
    the other row, many of them lower than the tower, trees between them and
    one tower outside every footprint."""
    rng = np.random.default_rng(seed)
    buildings, y = [], 30.0
    for _ in range(2):
        x, depth = float(rng.uniform(10, 40)), float(rng.uniform(15, 40))
        for _ in range(rng.integers(2, 5)):
            w = float(rng.uniform(10, 35))
            buildings.append(Building(x=x, y=y, w=w, h=depth,
                                      height=float(rng.uniform(3, 25)),
                                      material=BUILTIN_MATERIALS["concrete"]))
            x += w
        y += depth
    trees = tuple(Tree(x=float(rng.uniform(0, EXTENT)), y=float(rng.uniform(y + 5, EXTENT)),
                       trunk_height=4.0, canopy_height=6.0, canopy_base_radius=3.0)
                  for _ in range(3))
    tower = Tower(id=1, x=float(rng.uniform(20, EXTENT - 20)),
                  y=float(rng.uniform(y + 10, EXTENT - 10)), height=float(rng.uniform(12, 30)))
    return Scene(extent_m=(EXTENT, EXTENT), grid_spacing_m=40.0, altitudes_m=(1.5, 30.0),
                 buildings=tuple(buildings), trees=trees, towers=(tower,))


# The receiver of corner_scene's path through two corners.
CORNER_RX = (120.0, 156.25, 21.25)


def corner_scene() -> Scene:
    """A second-order path that reflects at a roof corner, (130, 130, 10), and
    at the top corner of a wall, (140, 138.75, 13.75), to CORNER_RX.  The
    image of the tower in the roof, (90, 95, -5), sees both corners on one
    line, so the wall, seen from that image, meets the roof in one point."""
    concrete = BUILTIN_MATERIALS["concrete"]
    return Scene(extent_m=(EXTENT, EXTENT), grid_spacing_m=40.0, altitudes_m=(1.5, 30.0),
                 buildings=(Building(100.0, 100.0, 30.0, 30.0, 10.0, concrete),
                            Building(140.0, 138.75, 20.0, 31.25, 13.75, concrete)),
                 towers=(Tower(id=1, x=90.0, y=95.0, height=25.0),))


def special_receivers(s: Scene, tx) -> np.ndarray:
    """Receivers exactly on wall and roof planes, and receivers whose direct
    segment grazes a trunk at exactly its radius."""
    pts = []
    for b in s.buildings:
        pts += [(b.x, b.y + b.h / 2, 5.0), (b.x + b.w, b.y + b.h / 3, b.height / 2),
                (b.x + b.w / 2, b.y, 3.0), (b.x + b.w / 2, b.y + b.h / 2, b.height),
                (b.x + b.w / 4, b.y + b.h, b.height)]
    for t in s.trees:
        # the segment from tx is tangent to the trunk cylinder
        d = np.array([t.x - tx[0], t.y - tx[1]])
        dist = np.linalg.norm(d)
        if dist <= t.trunk_radius:
            continue
        a = np.arcsin(t.trunk_radius / dist)
        u = np.array([[np.cos(a), -np.sin(a)], [np.sin(a), np.cos(a)]]) @ (d / dist)
        end = tx[:2] + 2.0 * np.sqrt(dist**2 - t.trunk_radius**2) * u
        pts += [(end[0], end[1], tx[2]), (end[0], end[1], t.trunk_height / 2)]
    return np.array(pts, dtype=float).reshape(-1, 3)


def receivers(s: Scene, tx) -> np.ndarray:
    nx = int(EXTENT / s.grid_spacing_m)
    g = np.arange(nx) * s.grid_spacing_m
    xy = np.array([(x, y) for y in g for x in g], dtype=float)
    grid = np.vstack([np.column_stack([xy, np.full(len(xy), h)]) for h in s.altitudes_m])
    return np.vstack([grid, special_receivers(s, tx)])


@pytest.mark.parametrize("seed", SEEDS)
def test_table_matches_trace_paths(seed):
    s = random_scene(seed)
    for tower in s.towers:
        rx = receivers(s, tower.position)
        table = trace_paths(s, tower.position, rx)
        assert np.all(np.diff(table.cell) >= 0)
        for i, point in enumerate(rx):
            paths = trace_paths(s, tower.position, point)
            rows = np.nonzero(table.cell == i)[0]
            assert [p.order for p in paths] == table.order[rows].tolist()
            for p, r in zip(paths, rows):
                np.testing.assert_allclose(p.aod, table.aod[r], rtol=0, atol=1e-9)
                np.testing.assert_allclose(p.aoa, table.aoa[r], rtol=0, atol=1e-9)
                assert abs(p.gain - table.gain[r]) <= 1e-9 * max(1.0, abs(p.gain))


def _columns(table: PathTable):
    return [(c.dtype, c.shape, c.tobytes())
            for c in (getattr(table, f.name) for f in fields(PathTable))]


@pytest.mark.parametrize("block", [1, 1 << 6, BLOCK_ENTRIES, 1 << 20])
def test_table_does_not_depend_on_block(monkeypatch, block):
    # block 1 traces one receiver per block
    s = random_scene(4)
    tx = s.towers[0].position
    rx = receivers(s, tx)
    table = trace_paths(s, tx, rx)
    monkeypatch.setattr("uavrank.scene.BLOCK_ENTRIES", block)
    assert _columns(trace_paths(s, tx, rx)) == _columns(table)


@pytest.mark.parametrize("scene", [random_scene(0), random_scene(8), random_scene(12),
                                   corner_scene()]
                         + [touching_scene(seed) for seed in range(4)])
def test_pruned_image_tree(monkeypatch, scene):
    # the image tree drops facet pairs whose projection misses the first
    # facet; the paths must be those of the unpruned tree and of trace_paths
    fa = raytrace._facet_arrays(scene)
    tx = scene.towers[0].position
    rx = np.vstack([receivers(scene, tx), CORNER_RX])
    pruned = raytrace._image_tree(fa, tx)
    table = trace_paths(scene, tx, rx)
    with monkeypatch.context() as m:
        m.setattr(raytrace, "_projection_meets", lambda fa, src, f, lo, hi: np.ones(len(f), bool))
        full = raytrace._image_tree(fa, tx)
        assert _columns(trace_paths(scene, tx, rx)) == _columns(table)
    pairs = set(zip(pruned.first.tolist(), pruned.last.tolist()))
    assert pairs < set(zip(full.first.tolist(), full.last.tolist()))
    assert 2 in table.order
    for i, point in enumerate(rx):
        rows = table.cell == i
        assert [(p.order, p.aod, p.aoa, p.gain) for p in trace_paths(scene, tx, point)] == list(
            zip(table.order[rows].tolist(), map(tuple, table.aod[rows].tolist()),
                map(tuple, table.aoa[rows].tolist()), table.gain[rows].tolist()))


def compensated_sum(iterable, start=0):
    """sum() as Python >= 3.12 computes it: once the total is a float, float
    items are added with Neumaier's compensation, until an item of another
    type sends the rest through plain addition."""
    total, c, plain = start, 0.0, False
    for x in iterable:
        if plain or type(total) is not float or type(x) is not float:
            if type(total) is float and not plain and c and math.isfinite(c):
                total += c
            plain = plain or type(total) is float
            total = total + x
            continue
        t = total + x
        c += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
        total = t
    if type(total) is float and not plain and c and math.isfinite(c):
        total += c
    return total


@pytest.mark.parametrize("scene", [random_scene(0), random_scene(8), random_scene(12),
                                   corner_scene()]
                         + [touching_scene(seed) for seed in range(4)])
def test_per_link_rows_do_not_depend_on_builtin_sum(monkeypatch, scene):
    # the per-link tracer adds segment lengths and chord intervals in order,
    # as the batched one does, so a compensated builtin sum (Python >= 3.12)
    # changes none of its rows
    monkeypatch.setattr(raytrace, "sum", compensated_sum, raising=False)
    tx = scene.towers[0].position
    rx = np.vstack([receivers(scene, tx), CORNER_RX])
    table = trace_paths(scene, tx, rx)
    for i, point in enumerate(rx):
        rows = table.cell == i
        assert [(p.order, p.aod, p.aoa, p.gain) for p in trace_paths(scene, tx, point)] == list(
            zip(table.order[rows].tolist(), map(tuple, table.aod[rows].tolist()),
                map(tuple, table.aoa[rows].tolist()), table.gain[rows].tolist()))


@pytest.mark.parametrize("block", [1, BLOCK_ENTRIES])
@pytest.mark.parametrize("scene", [random_scene(seed) for seed in SEEDS[::3]]
                         + [touching_scene(seed) for seed in range(4)])
def test_block_candidate_cull(monkeypatch, scene, block):
    # each block of receivers drops the candidates whose image does not lie
    # behind their last facet, or whose last facet has no receiver of the
    # block in front of it; the table must be that of every candidate
    tx = scene.towers[0].position
    rx = np.vstack([receivers(scene, tx), CORNER_RX])
    monkeypatch.setattr("uavrank.scene.BLOCK_ENTRIES", block)
    dropped = []
    cull = raytrace._block_candidates

    def counted(fa, tree, front_rx):
        kept = cull(fa, tree, front_rx)
        dropped.append(len(tree.order) - len(kept))
        return kept

    with monkeypatch.context() as m:
        m.setattr(raytrace, "_block_candidates", counted)
        table = trace_paths(scene, tx, rx)
    assert sum(dropped) > 0
    monkeypatch.setattr(raytrace, "_block_candidates",
                        lambda fa, tree, front_rx: np.arange(len(tree.order)))
    assert _columns(trace_paths(scene, tx, rx)) == _columns(table)


def test_receiver_level_with_an_image():
    # the image of the tower in the wall at y = 120 is (150, 90, 10): toward
    # a receiver at (150, 90, h) that candidate's segment parameter is
    # infinite and the receiver's x offset from the image is 0; pytest fails
    # the test on the RuntimeWarning of inf * 0
    concrete = BUILTIN_MATERIALS["concrete"]
    s = Scene(extent_m=(EXTENT, EXTENT), grid_spacing_m=30.0, altitudes_m=(30.0,),
              buildings=(Building(60.0, 90.0, 40.0, 30.0, 40.0, concrete),),
              towers=(Tower(id=1, x=150.0, y=150.0, height=10.0),))
    tx = s.towers[0].position
    rx = np.array([[150.0, 90.0, 30.0], [150.0, 90.0, 10.0]])
    table = trace_paths(s, tx, rx)
    for i, point in enumerate(rx):
        rows = table.cell == i
        assert [(p.order, p.gain) for p in trace_paths(s, tx, point)] == list(
            zip(table.order[rows].tolist(), table.gain[rows].tolist()))


def test_special_receivers_reach_every_order():
    # the plane and grazing receivers are not all trivially blocked
    orders = set()
    for seed in SEEDS:
        s = random_scene(seed)
        tx = s.towers[0].position
        orders |= set(trace_paths(s, tx, special_receivers(s, tx)).order.tolist())
    assert orders == {0, 1, 2}


@pytest.mark.parametrize("seed", SEEDS[::3])
def test_rank_grid_matches_per_cell_reference(seed):
    s = random_scene(seed)
    thresholds = (10.0, 100.0, 1000.0)
    rg = compute_rank_grid(s, thresholds=thresholds)
    towers = {t.id: t for t in s.towers}
    for hi, h in enumerate(s.altitudes_m):
        for i, (x, y) in enumerate(rg.positions):
            tower = towers[rg.serving_tower[i]]
            paths = trace_paths(s, tower.position, (x, y, h))
            for ki, K in enumerate(thresholds):
                if not paths:
                    expected = Z_RANK
                else:
                    hmat = synthesize_channel(paths, tower.array, ArrayConfig(),
                                              s.wavelength_m)
                    expected = channel_rank(hmat, K)
                assert rg.ranks[hi, ki, i] == expected


@pytest.mark.parametrize("seed", SEEDS[1::3])
@pytest.mark.parametrize("mode", ("SISO", "MIMO"))
def test_coverage_matches_per_cell_reference(seed, mode):
    s = random_scene(seed)
    tower = s.towers[-1]
    one = ArrayConfig(elements=1)
    tx_cfg, rx_cfg = (one, one) if mode == "SISO" else (tower.array, ArrayConfig())
    g = compute_coverage(s, tower, 30.0, mode=mode)
    for (x, y), v in zip(g.positions, g.values):
        paths = trace_paths(s, tower.position, (x, y, 30.0))
        if not paths:
            assert np.isnan(v)
        else:
            assert v == pytest.approx(
                rss(paths, tx_cfg, rx_cfg, s.tx_power_w, s.wavelength_m), abs=1e-9)


def test_sweeps_do_not_depend_on_the_channel_block(monkeypatch):
    s = random_scene(2)
    tower = s.towers[0]
    ranks = compute_rank_grid(s).ranks
    rss_dbm = compute_coverage(s, tower, 30.0, mode="MIMO").values
    # 7 links of 4 x 4 channels per block
    monkeypatch.setattr("uavrank.scene.BLOCK_ENTRIES", 7 * 16)
    assert np.array_equal(compute_rank_grid(s).ranks, ranks)
    assert np.array_equal(compute_coverage(s, tower, 30.0, mode="MIMO").values, rss_dbm,
                          equal_nan=True)


def test_rejects_what_trace_paths_rejects():
    s = random_scene(0)
    tx = s.towers[0].position
    with pytest.raises(ValueError):
        trace_paths(s, tx, [tx])


def test_no_receivers():
    s = random_scene(0)
    table = trace_paths(s, s.towers[0].position, np.zeros((0, 3)))
    assert len(table) == 0 and not list(table) and table.gain.dtype == complex


def test_rows_feed_the_per_link_channel_functions():
    s = random_scene(5)
    tower = s.towers[0]
    rx = receivers(s, tower.position)
    table = trace_paths(s, tower.position, rx)
    rows = list(table)
    assert len(rows) == len(table) > 0 and all(isinstance(r, PathRow) for r in rows)
    assert [r.order for r in rows] == table.order.tolist()
    for i, point in enumerate(rx):
        paths = trace_paths(s, tower.position, point)
        if not paths:
            continue
        mine = [r for r in rows if r.cell == i]
        h_rows = synthesize_channel(mine, tower.array, ArrayConfig(), s.wavelength_m)
        h_paths = synthesize_channel(paths, tower.array, ArrayConfig(), s.wavelength_m)
        np.testing.assert_allclose(h_rows.entries, h_paths.entries, rtol=0, atol=1e-12)
