"""Spans around the calls into each uavrank layer, recorded from outside.

Timing wrappers replace a public name in the module whose code looks it up,
e.g. ``uavrank.covermap.trace_paths`` because covermap imports the name; a
wrapper on ``uavrank.raytrace.trace_paths`` alone would see none of those
calls. Spans stay in memory and are written when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import numpy as np

# (module whose globals hold the name, name, span name). The span name's
# prefix before the first dot is the layer.
PATCHES = (
    ("uavrank.cli", "load_scene", "scene.load"),
    ("uavrank.cli", "compute_coverage", "covermap.sweep"),
    ("uavrank.cli", "compute_rank_grid", "covermap.sweep"),
    ("uavrank.cli", "joint_coverage", "covermap.sweep"),
    ("uavrank.cli", "rss_cdf", "covermap.export"),
    ("uavrank.cli", "grid_to_csv", "covermap.export"),
    ("uavrank.cli", "grid_to_pgm", "covermap.export"),
    ("uavrank.cli", "cdf_to_csv", "covermap.export"),
    ("uavrank.cli", "rank_grid_to_json", "covermap.export"),
    ("uavrank.cli", "rank_grid_from_json", "covermap.load"),
    ("uavrank.cli", "build_rank_vectors", "correlation.vectors"),
    ("uavrank.cli", "bin_correlations", "correlation.bin"),
    ("uavrank.cli", "fit_correlation_model", "correlation.fit"),
    ("uavrank.cli", "bins_to_csv", "correlation.export"),
    ("uavrank.cli", "loo_evaluate", "evaluate.loo"),
    ("uavrank.cli", "rank_histogram", "evaluate.histogram"),
    ("uavrank.cli", "histogram_to_csv", "evaluate.histogram"),
    ("uavrank.cli", "synthetic_grid_positions", "synth.positions"),
    ("uavrank.cli", "synthetic_rank_field", "synth.field"),
    ("uavrank.cli", "_write_all", "cli.write"),
    ("uavrank.covermap", "trace_paths", "raytrace.trace_paths"),
    ("uavrank.covermap", "synthesize_channel", "channel.synth"),
    ("uavrank.covermap", "channel_rank", "channel.rank"),
    ("uavrank.covermap", "rss", "channel.rss"),
    ("uavrank.channel", "synthesize_channel", "channel.synth"),
    ("uavrank.evaluate", "krige_rank", "kriging.krige"),
    ("uavrank.evaluate", "select_neighbors", "kriging.select"),
    ("uavrank.evaluate", "baseline_rank", "baseline.rank"),
    ("uavrank.kriging", "select_neighbors", "kriging.select"),
    ("uavrank.kriging", "solve_weights", "kriging.solve"),
    ("uavrank.synth", "correlated_field_factor", "synth.chol"),
)

LAYERS = ("scene", "raytrace", "channel", "covermap", "correlation", "kriging",
          "baseline", "evaluate", "synth", "cli")


def _count_paths(tr, args, result):
    tr.count("raytrace.empty", not result)
    tr.count("raytrace.los", any(p.order == 0 for p in result))
    for p in result:
        tr.count(f"raytrace.paths_order{p.order}")


def _describe_scene(tr, args, result):
    # a chain may load the same scene in several stages: record, not add
    w, h = result.extent_m
    d = result.grid_spacing_m
    counts = tr.counts[tr.run]
    counts["scene.facets"] = 1 + 5 * len(result.buildings)
    counts["scene.trees"] = len(result.trees)
    counts["scene.cells"] = int(round(w / d)) * int(round(h / d))


def _count_bins(tr, args, result):
    tr.count("correlation.bins", len(result[0]))
    tr.count("correlation.pairs", int(np.sum(result[2])))


def _count_loo(tr, args, result):
    # LOO targets every in-coverage cell of every layer; cells it could not
    # predict are left out of the report's counts
    targets = int(np.sum(args[0].ranks >= 0))
    done = sum(n for _, n in result.entries.values())
    tr.count("evaluate.loo_targets", targets)
    tr.count("evaluate.loo_skipped", targets - done)


def _count_fallback(tr, args, result):
    tr.count("kriging.fallbacks", result.fallback)


COUNTERS = {
    "raytrace.trace_paths": _count_paths,
    "scene.load": _describe_scene,
    "correlation.bin": _count_bins,
    "evaluate.loo": _count_loo,
    "kriging.krige": _count_fallback,
}


class Tracer:
    """In-memory span recorder.

    A span is (run, id, parent, stage, name, start_ns, end_ns, self_ns), where
    stage is the name of its outermost ancestor (the CLI stage) and self time
    is the span's duration minus the durations of its direct children.
    Counters are kept per run.
    """

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(Counter)
        self.run = 0
        self._stack = []  # [span id, name, start_ns, child_ns]
        self._next_id = 0

    def open(self, name: str) -> None:
        self._next_id += 1
        self._stack.append([self._next_id, name, time.perf_counter_ns(), 0])

    def close(self) -> None:
        end = time.perf_counter_ns()
        sid, name, start, child = self._stack.pop()
        dur = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += dur
        self.spans.append((self.run, sid, parent[0] if parent else 0,
                           self._stack[0][1] if self._stack else name,
                           name, start, end, dur - child))

    @contextmanager
    def span(self, name: str):
        self.open(name)
        try:
            yield
        finally:
            self.close()

    def count(self, key: str, n=1) -> None:
        self.counts[self.run][key] += int(n)

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close()
            if counter is not None:
                counter(self, args, result)
            return result

        return wrapper

    @contextmanager
    def patched(self):
        """Install the wrappers of PATCHES; restore the originals on exit."""
        saved = []
        try:
            for module_name, attr, span_name in PATCHES:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(span_name, original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def write_csv(self, path, header_lines=()) -> None:
        with open(path, "w") as f:
            for line in header_lines:
                f.write(f"# {line}\n")
            f.write("run,span,parent,stage,name,start_ns,end_ns,self_ns\n")
            for s in self.spans:
                f.write(",".join(map(str, s)) + "\n")


def run_metrics(tracer: Tracer, run: int, total_s: float) -> dict:
    """Per-layer values of one traced chain: calls, self times, counts."""
    ncalls = Counter()
    self_ns = Counter()
    for s in tracer.spans:
        if s[0] == run:
            ncalls[s[4]] += 1
            self_ns[s[4]] += s[7]

    def self_s(prefix):
        return sum(v for k, v in self_ns.items()
                   if k == prefix or k.startswith(prefix + ".")) / 1e9

    c = tracer.counts[run]
    calls = ncalls["raytrace.trace_paths"]
    m = {
        "raytrace.calls": calls,
        "raytrace.self_s": self_s("raytrace"),
        "raytrace.paths_order0": c["raytrace.paths_order0"],
        "raytrace.paths_order1": c["raytrace.paths_order1"],
        "raytrace.paths_order2": c["raytrace.paths_order2"],
        "raytrace.empty_frac": c["raytrace.empty"] / calls if calls else 0.0,
        "raytrace.los_frac": c["raytrace.los"] / calls if calls else 0.0,
        "channel.synth_calls": ncalls["channel.synth"],
        "channel.synth_self_s": self_s("channel.synth"),
        "channel.rank_calls": ncalls["channel.rank"],
        "channel.rank_self_s": self_s("channel.rank"),
        "channel.rss_calls": ncalls["channel.rss"],
        "channel.rss_self_s": self_s("channel.rss"),
        "covermap.sweep_self_s": self_s("covermap.sweep"),
        "covermap.export_s": self_s("covermap.export"),
        "covermap.load_s": self_s("covermap.load"),
        "correlation.bin_s": self_s("correlation.bin"),
        "correlation.pairs": c["correlation.pairs"],
        "correlation.bins": c["correlation.bins"],
        "correlation.fit_s": self_s("correlation.fit"),
        "kriging.krige_calls": ncalls["kriging.krige"],
        "kriging.krige_self_s": self_s("kriging.krige"),
        "kriging.select_calls": ncalls["kriging.select"],
        "kriging.select_self_s": self_s("kriging.select"),
        "kriging.solve_calls": ncalls["kriging.solve"],
        "kriging.solve_self_s": self_s("kriging.solve"),
        "kriging.fallbacks": c["kriging.fallbacks"],
        "baseline.calls": ncalls["baseline.rank"],
        "baseline.self_s": self_s("baseline"),
        "evaluate.loo_self_s": self_s("evaluate.loo"),
        "evaluate.loo_targets": c["evaluate.loo_targets"],
        "evaluate.loo_skipped": c["evaluate.loo_skipped"],
        "synth.chol_s": self_s("synth.chol"),
        "synth.field_s": self_s("synth.field"),
        "scene.load_s": self_s("scene.load"),
        "scene.facets": c["scene.facets"],
        "scene.trees": c["scene.trees"],
        "scene.cells": c["scene.cells"],
        "cli.write_s": self_s("cli.write"),
        # the stage spans themselves: argument parsing and glue inside main()
        "cli.self_s": self_s("cli.stage"),
    }
    attributed = 0.0
    for layer in LAYERS:
        layer_s = self_s(layer)
        attributed += layer_s
        m[f"{layer}.share_pct"] = 100.0 * layer_s / total_s
    m["unattributed_s"] = total_s - attributed
    return m


def call_percentiles_us(tracer: Tracer, runs, name="raytrace.trace_paths"):
    durs = [(s[6] - s[5]) / 1e3 for s in tracer.spans if s[0] in runs and s[4] == name]
    if not durs:
        return 0.0, 0.0
    return float(np.percentile(durs, 50)), float(np.percentile(durs, 99))


def stage_shares(tracer: Tracer, runs) -> dict:
    """{stage: {layer: % of the stage's wall time}} over the given runs."""
    stage_ns = defaultdict(int)
    layer_ns = defaultdict(Counter)
    for s in tracer.spans:
        if s[0] in runs:
            layer_ns[s[3]][s[4].split(".")[0]] += s[7]
            if s[3] == s[4]:
                stage_ns[s[3]] += s[6] - s[5]
    return {stage: {layer: 100.0 * ns / stage_ns[stage]
                    for layer, ns in layer_ns[stage].most_common()}
            for stage in stage_ns}
