#!/usr/bin/env python3
"""Benchmark of the uavrank CLI pipeline; see README.md beside this file.

    python3 bench/run.py --workload urban-rank --seed 0 --seconds 40 --trace 0

One run is one process and one closed-loop client: it generates the
workload's inputs from the seed, then calls the workload's CLI stages in
order through ``uavrank.cli.main``, each stage waiting for the one before,
chain after chain until ``--seconds`` have passed. Every chain's artifacts are
checked. The first chain warms up and is not timed. A fixed calibration loop
(``calibrate.py``) runs before every chain and after the last, for about a
tenth of a chain's time, and ``total_norm_s`` is the chains' median wall time
at the reference machine's speed. With ``--trace 1`` the chains alternate
between untraced and traced, and the per-layer metrics come from the traced
ones.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. The exit code is 0 when every
check passed, 1 when one failed, and 2 when the run could not start.
"""

import os
import sys

# Fix the BLAS thread count to 1 before numpy loads. It is the same on every
# machine, so the reference digests hold, and a BLAS call never waits for a
# second thread that another tenant of a shared host has pushed off its core.
NPROC = len(os.sched_getaffinity(0))
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
REFERENCE = BENCH / "reference_digests.json"
REFERENCE_SEED = 0
SETUP_SAMPLES = 3
CALIBRATION_SHARE = 0.1  # calibration time per second of the chain before it

sys.path.insert(0, str(BENCH))
import calibrate  # noqa: E402
import numpy as np  # noqa: E402
import scipy  # noqa: E402
from checks import check_stage, dir_digest  # noqa: E402
from tracing import Tracer, call_percentiles_us, run_metrics, stage_shares  # noqa: E402
from workloads import WORKLOAD_NAMES, make_workload  # noqa: E402

# unit of each metric printed; per-layer names take theirs from the suffix
E2E_UNITS = {
    "total_norm_s": "s", "total_s": "s", "calibration_s": "s",
    "setup_s": "s", "peak_rss_mb": "MB",
    "coverage_s": "s", "rank_s": "s", "interpolate_s": "s",
    "rx_evals_per_s": "1/s", "loo_preds_per_s": "1/s", "error_rate": "ratio",
}
E2E_REPORTED = ("total_norm_s", "setup_s", "peak_rss_mb")  # the JSON's metrics, trace 0


def unit_of(name: str) -> str:
    if name in E2E_UNITS:
        return E2E_UNITS[name]
    for suffix, unit in (("_per_s", "1/s"), ("_us", "us"), ("_s", "s"),
                         ("_pct", "%"), ("_frac", "ratio"), ("bytes_written", "B")):
        if name.endswith(suffix):
            return unit
    return "count"


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=REFERENCE_SEED)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true",
                    help="small inputs and one chain per mode, for the benchmark's tests")
    ap.add_argument("--reference", type=Path, default=REFERENCE,
                    help="digests of the reference seed's artifacts")
    ap.add_argument("--record-reference", action="store_true",
                    help="write this run's digests to --reference instead of comparing")
    ap.add_argument("--setup-probe", metavar="DIR", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def import_cli():
    """Import uavrank.cli from this checkout's src/, never an installed copy."""
    sys.path.insert(0, str(SRC))
    import uavrank.cli

    if Path(uavrank.cli.__file__).resolve().parent != SRC / "uavrank":
        raise ImportError(f"uavrank imported from {uavrank.cli.__file__}, not {SRC}")
    return uavrank.cli


def write_inputs(workload, root: Path) -> Path | None:
    if workload.scene is None:
        return None
    path = root / "scene.json"
    path.write_text(workload.scene_json())
    return path


def setup_probe(args) -> int:
    """The set-up a stage chain needs, in a fresh process: import uavrank,
    generate the inputs and write them. Prints "ready" when done."""
    import_cli()
    write_inputs(make_workload(args.workload, args.seed, args.quick), Path(args.setup_probe))
    print("ready", flush=True)
    return 0


def measure_setup(args, run_dir: Path, samples: int) -> list[float]:
    times = []
    for k in range(samples):
        probe_dir = run_dir / f"setup{k}"
        probe_dir.mkdir()
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--setup-probe", str(probe_dir)]
        if args.quick:
            cmd.append("--quick")
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as p:
            line = p.stdout.readline()
            elapsed = time.perf_counter() - t0
            p.stdout.read()
            code = p.wait(timeout=120)
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up probe failed with exit code {code}")
        times.append(elapsed)
    return times


def call_stage(cli_main, argv) -> int:
    try:
        return cli_main(argv)
    except SystemExit as e:  # argparse rejects the arguments
        return e.code if isinstance(e.code, int) else 2
    except Exception:  # a traceback is a failed stage, not a failed run
        traceback.print_exc()
        return 1


def run_chain(cli_main, workload, root: Path, scene_path, tracer=None):
    """Run every stage once, in order. Returns (total_s, {label: s}, {label: code})."""
    times, codes = {}, {}
    start = time.perf_counter()
    for label, argv in workload.stages:
        argv = [a.format(root=root, scene=scene_path) for a in argv]
        t0 = time.perf_counter()
        with tracer.span(f"cli.stage.{argv[0]}") if tracer else nullcontext():
            codes[label] = call_stage(cli_main, argv)
        times[label] = time.perf_counter() - t0
    return time.perf_counter() - start, times, codes


def stage_metrics(workload, chain) -> dict:
    """Per-chain stage times and rates, for the stages the workload runs."""
    by_cmd = {}
    for label, argv in workload.stages:
        by_cmd[argv[0]] = by_cmd.get(argv[0], 0.0) + chain["times"][label]
    m = {f"{cmd}_s": by_cmd[cmd] for cmd in ("coverage", "rank", "interpolate") if cmd in by_cmd}
    traced_s = by_cmd.get("coverage", 0.0) + by_cmd.get("rank", 0.0)
    if workload.size["rx_evals"]:
        m["rx_evals_per_s"] = workload.size["rx_evals"] / traced_s
    if workload.size["loo_preds"]:
        m["loo_preds_per_s"] = workload.size["loo_preds"] / by_cmd["interpolate"]
    return m


def summary(values) -> str:
    """Fastest value, median, and the highest percentile with at least ten
    samples beyond it."""
    n = len(values)
    text = f"min {min(values):.6g} median {statistics.median(values):.6g} n={n}"
    for q in (99.9, 99, 95, 90, 75, 50):
        if n * (1 - q / 100) >= 10:
            cuts = statistics.quantiles(values, n=1000, method="inclusive")
            return text + f" p{q:g} {cuts[int(q * 10) - 1]:.6g}"
    return text + " (too few samples for a tail percentile)"


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(args, workload, chains) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload, "seed": args.seed, "quick": args.quick,
        "trace": args.trace, "seconds": args.seconds, "chains": chains,
        "commit": git_commit(), "nproc": NPROC, "blas_threads": BLAS_THREADS,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "input": workload.size,
    }


def check_outputs(cli, workload, chains, scene_path, args, reference) -> tuple:
    """Returns (failed stage runs, problems, digests of the first chain)."""
    scene = cli.load_scene(scene_path.read_text()) if scene_path else None
    rng = np.random.default_rng(args.seed)
    first = chains[0]
    problems = []
    bad_labels = set()
    for label, argv in workload.stages:
        parsed = cli.build_parser().parse_args(
            [a.format(root=first["root"], scene=scene_path) for a in argv])
        found = []
        if first["codes"][label] == 0:
            try:
                found = check_stage(parsed, scene, rng)
            except Exception as e:  # unreadable or malformed artifacts fail the check
                found = [f"{label}: {type(e).__name__}: {e}"]
        if reference is not None and reference.get(label) != first["digests"][label]:
            found.append(f"{label}: artifact digest differs from the reference seed's")
        if found:
            bad_labels.add(label)
            problems.extend(found)
    failed = 0
    for k, chain in enumerate(chains):
        for label, _ in workload.stages:
            if chain["codes"][label] != 0:
                problems.append(f"chain {k} {label}: exit code {chain['codes'][label]}")
            elif chain["digests"][label] != first["digests"][label]:
                problems.append(f"chain {k} {label}: artifacts differ from chain 0's")
            elif label not in bad_labels:
                continue
            failed += 1
    return failed, problems, first["digests"]


def layer_metrics(tracer, chains, samples, bytes_written) -> dict:
    """Per-layer metrics: the median over traced chains, plus the stage times
    and rates of the untraced chains of the same run (0 where not run)."""
    traced = {k: c for k, c in enumerate(chains) if c["traced"]}
    per_chain = [run_metrics(tracer, k, c["total"]) for k, c in traced.items()]
    metrics = {name: statistics.median(m[name] for m in per_chain) for name in per_chain[0]}
    metrics["raytrace.call_p50_us"], metrics["raytrace.call_p99_us"] = call_percentiles_us(
        tracer, set(traced))
    metrics["cli.bytes_written"] = bytes_written
    metrics["traced_total_s"] = statistics.median(c["total"] for c in traced.values())
    metrics["trace_overhead_s"] = metrics["traced_total_s"] - statistics.median(samples["total_s"])
    for name in ("total_s", "calibration_s", "coverage_s", "rank_s", "interpolate_s",
                 "rx_evals_per_s", "loo_preds_per_s"):
        metrics[name] = statistics.median(samples.get(name, [0.0]))
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "uavrank" / "__init__.py").is_file():
        print(f"error: no uavrank sources at {SRC}", file=sys.stderr)
        return 2
    if args.setup_probe:
        return setup_probe(args)
    if args.record_reference and args.seed != REFERENCE_SEED:
        print(f"error: digests are recorded for seed {REFERENCE_SEED} only", file=sys.stderr)
        return 2

    WORK.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-s{args.seed}-", dir=WORK))
    try:
        return measure(args, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def measure(args, run_dir: Path) -> int:
    try:
        setup_times = measure_setup(args, run_dir, 1 if args.quick else SETUP_SAMPLES)
        cli = import_cli()
    except (RuntimeError, ImportError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2

    workload = make_workload(args.workload, args.seed, args.quick)
    scene_path = write_inputs(workload, run_dir)
    tracer = Tracer() if args.trace else None
    # a full run times at least one untraced chain after the warm-up chain 0
    min_chains = (2 if tracer else 1) if args.quick else (3 if tracer else 2)

    chains, calibration = [], []
    deadline = time.perf_counter() + args.seconds
    while True:
        k = len(chains)
        traced = tracer is not None and k % 2 == 1
        root = run_dir / f"chain{k}"
        if traced:
            tracer.run = k
        calibration += calibrate.samples(
            CALIBRATION_SHARE * chains[-1]["total"] if chains else 0.0)
        with tracer.patched() if traced else nullcontext():
            total, times, codes = run_chain(cli.main, workload, root, scene_path,
                                            tracer if traced else None)
        chains.append({"root": root, "total": total, "times": times, "codes": codes,
                       "traced": traced,
                       "digests": {lb: dir_digest(root / lb) for lb, _ in workload.stages}})
        if k == 0:
            bytes_written = sum(f.stat().st_size for f in root.rglob("*") if f.is_file())
        else:
            shutil.rmtree(root)
        if len(chains) >= min_chains and (
                args.quick or time.perf_counter() + total > deadline):
            break
    calibration += calibrate.samples(CALIBRATION_SHARE * chains[-1]["total"])
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    references = json.loads(args.reference.read_text()) if args.reference.is_file() else {}
    mode = "quick" if args.quick else "full"
    reference = None
    if args.seed == REFERENCE_SEED and not args.record_reference:
        reference = references.get(mode, {}).get(args.workload, {})
    failed, problems, digests = check_outputs(cli, workload, chains, scene_path, args, reference)
    attempted = len(chains) * len(workload.stages)
    if args.record_reference and not failed:
        references.setdefault(mode, {})[args.workload] = digests
        args.reference.write_text(json.dumps(references, indent=2, sort_keys=True) + "\n")

    # chain 0 warms up; quick mode may have no other untraced chain
    untraced = [c for c in chains[1:] if not c["traced"]] or chains[:1]
    speed = calibrate.REFERENCE_S / statistics.median(calibration)
    samples = {"total_norm_s": [c["total"] * speed for c in untraced],
               "total_s": [c["total"] for c in untraced], "calibration_s": calibration,
               "setup_s": setup_times, "peak_rss_mb": [peak_rss_mb]}
    for c in untraced:
        for name, value in stage_metrics(workload, c).items():
            samples.setdefault(name, []).append(value)
    samples["error_rate"] = [failed / attempted]

    print("provenance " + json.dumps(provenance(args, workload, len(chains)), sort_keys=True))
    for problem in problems:
        print(f"check failed: {problem}")
    for name in E2E_UNITS:
        if name in samples:
            print(f"metric {name} [{unit_of(name)}] {summary(samples[name])}")
        else:
            print(f"metric {name} [{unit_of(name)}] not run by this workload")

    if tracer is None:
        metrics = {name: statistics.median(samples[name]) for name in E2E_REPORTED}
    else:
        metrics = layer_metrics(tracer, chains, samples, bytes_written)
        spans_path = WORK / f"spans-{args.workload}-s{args.seed}.csv"
        tracer.write_csv(spans_path, [json.dumps(provenance(args, workload, len(chains)))])
        print(f"spans written to {spans_path.relative_to(ROOT)}")
        for name in sorted(metrics):
            print(f"layer {name} [{unit_of(name)}] {metrics[name]:.6g}")
        traced_runs = {k for k, c in enumerate(chains) if c["traced"]}
        for stage, shares in stage_shares(tracer, traced_runs).items():
            print(f"stage {stage.removeprefix('cli.stage.')} self-time shares: "
                  + ", ".join(f"{layer} {pct:.1f}%" for layer, pct in shares.items()))

    result = {
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
