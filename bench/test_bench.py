"""Tests of the benchmark itself, in quick mode (about 20 s in all):

    python3 -m pytest bench/test_bench.py

They are not part of the repository's test suite, whose testpaths is tests/.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

from workloads import WORKLOAD_NAMES, make_workload  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
PRINTED_METRICS = ("total_norm_s", "total_s", "calibration_s", "setup_s", "peak_rss_mb",
                   "coverage_s", "rank_s", "interpolate_s", "rx_evals_per_s",
                   "loo_preds_per_s", "error_rate")


def run_quick(*args):
    p = subprocess.run([sys.executable, str(BENCH / "run.py"), "--quick", *args],
                       capture_output=True, text=True, timeout=120)
    lines = p.stdout.splitlines()
    return p.returncode, lines, json.loads(lines[-1])


def printed_metrics(lines):
    """{name: unit} of the human-readable "metric <name> [<unit>] ..." lines."""
    out = {}
    for line in lines:
        if line.startswith("metric "):
            _, name, unit = line.split()[:3]
            out[name] = unit.strip("[]")
    return out


@pytest.mark.parametrize("quick", (False, True))
def test_generator_is_byte_deterministic_per_seed(quick):
    for name in WORKLOAD_NAMES:
        a, b = make_workload(name, 7, quick), make_workload(name, 7, quick)
        other = make_workload(name, 8, quick)
        assert a.stages == b.stages and a.size == b.size
        if a.scene is None:
            assert a.stages != other.stages  # the seed goes to `synth --seed`
        else:
            assert a.scene_json() == b.scene_json()
            assert a.scene_json() != other.scene_json()


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_traced_run_prints_every_metric_with_its_unit(workload):
    code, lines, result = run_quick("--workload", workload, "--trace", "1")
    assert code == 0 and result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 2
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert set(printed_metrics(lines)) == set(PRINTED_METRICS)
    if workload == "synth-loo":
        assert result["metrics"]["raytrace.calls"]["value"] == 0
    else:
        assert result["metrics"]["raytrace.calls"]["value"] > 0


def test_untraced_run_reports_the_end_to_end_metrics():
    code, lines, result = run_quick("--workload", "open-coverage", "--trace", "0")
    assert code == 0 and result["correct"]
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())
    units = printed_metrics(lines)
    assert all(units[name] == unit for name, unit in want.items())


def test_tampered_reference_digest_fails_the_run(tmp_path):
    reference = json.loads((BENCH / "reference_digests.json").read_text())
    reference["quick"]["synth-loo"]["fit"] = "0" * 64
    path = tmp_path / "reference.json"
    path.write_text(json.dumps(reference))
    code, lines, result = run_quick("--workload", "synth-loo", "--reference", str(path))
    assert code == 1
    assert not result["correct"] and result["failed"] == 1 and result["attempted"] == 3
    error_rate = [line for line in lines if line.startswith("metric error_rate ")]
    assert float(error_rate[0].split()[4]) == pytest.approx(1 / 3, abs=1e-5)
