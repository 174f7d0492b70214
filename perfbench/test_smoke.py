"""Smoke test of the benchmark: every workload at tiny sizes, untraced and
traced, checked and reporting every metric BENCHMARK.json names, with its unit.

    python3 -m pytest perfbench -q

Takes about half a minute, most of it building the r=4 tables.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# headline numbers each workload reports in its details line, under the issue's names
DETAIL_METRICS = {
    "census-r3-cli": ("census_p50_s", "census_tail_s"),
    "census-r4-slice": ("catalog_groups_per_s", "classify_taus_per_s"),
    "classify-r4-random": ("classify_taus_per_s",),
    "oracles-r3": ("oracle_p50_ms", "oracle_tail_ms"),
}


def run_bench(args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_reports_every_metric(workload, trace):
    seconds = str(SPEC["run_seconds"])
    proc = run_bench(["--workload", workload, "--seed", "3", "--seconds", seconds, "--trace", str(trace), "--smoke"])
    assert proc.returncode == 0, proc.stderr
    details, result = (json.loads(line) for line in proc.stdout.strip().splitlines()[-2:])

    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, details["failures"]
    assert result["attempted"] >= 1
    assert details["seed"] == 3
    assert all(name in details for name in DETAIL_METRICS[workload])

    expected = SPEC["per_layer" if trace else "end_to_end"]
    reported = {name: m["unit"] for name, m in result["metrics"].items()}
    assert reported == {m["name"]: m["unit"] for m in expected}
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)) and m["value"] >= 0, name
        if not trace:
            assert m["value"] > 0, name


def test_traced_run_separates_hits_from_misses():
    """The hit-heavy and the miss-heavy workload show it in their counts."""
    counts = {}
    for workload in ("census-r4-slice", "classify-r4-random"):
        proc = run_bench(["--workload", workload, "--seed", "5", "--seconds", "1", "--trace", "1", "--smoke"])
        assert proc.returncode == 0, proc.stderr
        metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
        counts[workload] = (metrics["algebra.dcm_hit_calls"]["value"], metrics["algebra.dcm_miss_calls"]["value"])
    hits, misses = counts["census-r4-slice"]
    assert hits > 10 * misses
    hits, misses = counts["classify-r4-random"]
    assert misses > 10 * hits


def test_refuses_a_checkout_without_sources():
    bare = HERE / "_work" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        (bare / "perfbench").mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in HERE.glob("*.py"):
            shutil.copy(path, bare / "perfbench")
        proc = run_bench(["--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=bare)
        assert proc.returncode != 0
        assert proc.stdout.strip() == ""
    finally:
        shutil.rmtree(bare, ignore_errors=True)
