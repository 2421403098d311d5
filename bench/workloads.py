"""Seeded inputs and CLI stage chains of the benchmark workloads.

Only the standard library is used here, so a seed gives byte-identical scene
JSON on any platform and the generator does not depend on the code under test.

A stage is (label, argv). In argv, ``{root}`` is the chain's working
directory and ``{scene}`` the generated scene file; a stage writes its
artifacts to ``{root}/<label>``.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

WORKLOAD_NAMES = ("urban-rank", "open-coverage", "synth-loo")

THRESHOLDS = "10,100,1000"
LOO_METHODS = 3  # kriging, spline, makima

# Reference footprint: the paper's 36 x 71 grid at 30 m.
FOOTPRINT_M = (1080.0, 2130.0)
SPACING_M = 30.0

# Full and quick sizes. Quick mode exists for the benchmark's own tests.
SIZES = {
    False: {"urban_window_m": 330.0, "open_extent_m": FOOTPRINT_M,
            "synth_nx": 36, "synth_ny": 71},
    True: {"urban_window_m": 150.0, "open_extent_m": (300.0, 300.0),
           "synth_nx": 10, "synth_ny": 10},
}


@dataclass(frozen=True)
class Workload:
    name: str
    scene: dict | None  # scene document, or None when no stage reads a scene
    stages: tuple  # ((label, argv), ...)
    size: dict  # input counts, recorded with every result

    def scene_json(self) -> str:
        return json.dumps(self.scene, indent=1, sort_keys=True) + "\n"


def _grid_cells(extent, spacing=SPACING_M) -> int:
    return int(round(extent[0] / spacing)) * int(round(extent[1] / spacing))


def _overlaps(x, y, box, margin):
    bx, by, bw, bh = box
    return bx - margin <= x <= bx + bw + margin and by - margin <= y <= by + bh + margin


def urban_scene(seed: int, window_m: float) -> dict:
    """20 box buildings and 30 trees over the reference footprint, centred on
    a square receiver window with one tower near its middle.

    Buildings and trees are stratified over blocks of the footprint, so every
    seed has the same density; only their placement and sizes vary. Roofs lie
    between 12 and 25 m and crowns at 20 m, below the lowest receiver
    altitude. Roofs stay above the 10 m tower: a lower roof faces the tower
    and adds about a hundred second-order candidates per receiver, so the
    cost of a chain would hinge on how many low roofs a seed draws.
    """
    rng = random.Random(seed)
    half = window_m / 2.0
    tx = round(half + rng.uniform(-0.2, 0.2) * half, 1)
    ty = round(half + rng.uniform(-0.2, 0.2) * half, 1)
    x0 = half - FOOTPRINT_M[0] / 2.0
    y0 = half - FOOTPRINT_M[1] / 2.0

    buildings = []
    cw, ch = FOOTPRINT_M[0] / 4, FOOTPRINT_M[1] / 5
    for i in range(4):
        for j in range(5):
            while True:
                w, h = rng.uniform(15.0, 40.0), rng.uniform(15.0, 40.0)
                x = x0 + i * cw + rng.uniform(0.0, cw - w)
                y = y0 + j * ch + rng.uniform(0.0, ch - h)
                if not _overlaps(tx, ty, (x, y, w, h), 20.0):
                    break
            buildings.append({
                "x": round(x, 1), "y": round(y, 1), "w": round(w, 1),
                "h": round(h, 1), "height": round(rng.uniform(12.0, 25.0), 1),
                "material": "concrete",
            })

    trees = []
    cw, ch = FOOTPRINT_M[0] / 5, FOOTPRINT_M[1] / 6
    boxes = [(b["x"], b["y"], b["w"], b["h"]) for b in buildings]
    for i in range(5):
        for j in range(6):
            while True:
                x = x0 + i * cw + rng.uniform(0.0, cw)
                y = y0 + j * ch + rng.uniform(0.0, ch)
                clear = not any(_overlaps(x, y, b, 5.0) for b in boxes)
                if clear and (x - tx) ** 2 + (y - ty) ** 2 > 100.0:
                    break
            trees.append({"x": round(x, 1), "y": round(y, 1)})

    return {
        "extent_m": [window_m, window_m],
        "grid_spacing_m": SPACING_M,
        "altitudes_m": [30.0, 70.0],
        "buildings": buildings,
        "trees": trees,
        "towers": [{"id": 1, "x": tx, "y": ty, "height": 10.0}],
    }


def open_scene(seed: int, extent_m) -> dict:
    """Bare ground with two towers, one in each half of the extent, and one
    receiver altitude."""
    rng = random.Random(seed)
    w, h = extent_m
    towers = [
        {"id": k + 1,
         "x": round(rng.uniform(0.3, 0.7) * w, 1),
         "y": round(rng.uniform(lo, hi) * h, 1),
         "height": 10.0}
        for k, (lo, hi) in enumerate(((0.15, 0.35), (0.65, 0.85)))
    ]
    return {
        "extent_m": [w, h],
        "grid_spacing_m": SPACING_M,
        "altitudes_m": [30.0],
        "towers": towers,
    }


def _urban_rank(seed: int, quick: bool) -> Workload:
    window = SIZES[quick]["urban_window_m"]
    scene = urban_scene(seed, window)
    cells = _grid_cells((window, window))
    layers = 2 * 3
    return Workload(
        name="urban-rank",
        scene=scene,
        stages=(
            ("rank", ["rank", "--scene", "{scene}", "--out", "{root}/rank",
                      "--thresholds", THRESHOLDS]),
            ("fit", ["fit", "--rank-grid", "{root}/rank", "--out", "{root}/fit"]),
            ("interpolate", ["interpolate", "--rank-grid", "{root}/rank",
                             "--model", "{root}/fit/correlation_model.json",
                             "--out", "{root}/interpolate", "--method", "all"]),
        ),
        size={"cells": cells, "altitudes": 2, "thresholds": 3,
              "facets": 1 + 5 * len(scene["buildings"]),
              "trees": len(scene["trees"]), "towers": 1,
              "rx_evals": cells * 2, "loo_preds": cells * layers * LOO_METHODS},
    )


def _open_coverage(seed: int, quick: bool) -> Workload:
    extent = SIZES[quick]["open_extent_m"]
    scene = open_scene(seed, extent)
    cells = _grid_cells(extent)
    return Workload(
        name="open-coverage",
        scene=scene,
        stages=(
            ("coverage-siso", ["coverage", "--scene", "{scene}",
                               "--out", "{root}/coverage-siso",
                               "--altitudes", "30", "--joint"]),
            ("coverage-mimo", ["coverage", "--scene", "{scene}",
                               "--out", "{root}/coverage-mimo",
                               "--altitudes", "30", "--joint", "--mode", "MIMO"]),
            ("rank", ["rank", "--scene", "{scene}", "--out", "{root}/rank",
                      "--thresholds", THRESHOLDS]),
        ),
        # each coverage stage traces every tower; rank traces the serving one
        size={"cells": cells, "altitudes": 1, "thresholds": 3, "facets": 1,
              "trees": 0, "towers": 2,
              "rx_evals": 2 * cells * 2 + cells, "loo_preds": 0},
    )


def _synth_loo(seed: int, quick: bool) -> Workload:
    nx, ny = SIZES[quick]["synth_nx"], SIZES[quick]["synth_ny"]
    cells = nx * ny
    # one threshold keeps a chain near 8 s; see README.md
    alts, ks = "30,70,110", "100"
    return Workload(
        name="synth-loo",
        scene=None,
        stages=(
            ("synth", ["synth", "--out", "{root}/synth", "--seed", str(seed),
                       "--nx", str(nx), "--ny", str(ny),
                       "--spacing", f"{SPACING_M:g}",
                       "--altitudes", alts, "--thresholds", ks]),
            ("fit", ["fit", "--rank-grid", "{root}/synth", "--out", "{root}/fit"]),
            ("interpolate", ["interpolate", "--rank-grid", "{root}/synth",
                             "--model", "{root}/fit/correlation_model.json",
                             "--out", "{root}/interpolate", "--method", "all"]),
        ),
        size={"cells": cells, "altitudes": 3, "thresholds": 1, "facets": 0,
              "trees": 0, "towers": 0, "rx_evals": 0,
              "loo_preds": cells * 3 * LOO_METHODS},
    )


_BUILDERS = {
    "urban-rank": _urban_rank,
    "open-coverage": _open_coverage,
    "synth-loo": _synth_loo,
}


def make_workload(name: str, seed: int, quick: bool = False) -> Workload:
    return _BUILDERS[name](seed, quick)
