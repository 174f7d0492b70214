"""Census benchmark for perfcode.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Runs one workload (see perfbench/README.md) from the root of a checkout, in a
single-threaded process of its own; untraced, it then starts processes that only
set up, one at a time, so that `setup_s` is a median of three to seven set-ups.
Prints a line of details, then, as the last line, one JSON object with `correct`, `attempted`, `failed`
(output checks) and `metrics`: the end-to-end metrics with `--trace 0`, the
per-layer metrics of a second, traced pass over the same inputs with `--trace 1`.
Exits non-zero, printing no result, if the checkout has no perfcode sources or
the workload fails.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("census-r3-cli", "census-r4-slice", "classify-r4-random", "oracles-r3")
SETUP_SAMPLES = 3  # at least; cheap set-ups are repeated until SETUP_SPEND_S is spent
SETUP_MAX_SAMPLES = 7
SETUP_SPEND_S = 2.0
TIME_LIMIT_S = 170.0
TAIL_BEYOND = 10  # a tail percentile needs this many samples beyond it


def tail(values: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest percentile with TAIL_BEYOND samples
    beyond it, by nearest rank; the maximum when there are too few samples."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 2 * TAIL_BEYOND:
        return 100.0, ordered[-1]
    pct = math.floor(100 * (n - TAIL_BEYOND) / n)
    return float(pct), ordered[math.ceil(pct / 100 * n) - 1]


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    return env


def run_worker(args: list[str], deadline: float) -> dict:
    """Run worker.py to completion (one process at a time) and parse its last line."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *args],
        cwd=ROOT,
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker {' '.join(args)} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(result: dict, setups: list[float]) -> dict:
    items_ms = [1000 * t for t in result["items"]]
    _, tail_ms = tail(items_ms)
    return {
        "setup_s": (statistics.median(setups), "s"),
        "norm_wall_s": (result["wall_s"], "s"),
        "norm_item_p50_ms": (statistics.median(items_ms), "ms"),
        "norm_item_tail_ms": (tail_ms, "ms"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }


def workload_metrics(workload: str, result: dict) -> dict:
    """The workload's own headline numbers, under the names the issue tracker uses."""
    items, stages, sizes = result["items"], result["stages"], result["sizes"]
    pct, tail_value = tail(items)
    out = {"item_count": len(items), "item_tail_percentile": pct}
    if workload == "census-r3-cli":
        out.update(census_p50_s=statistics.median(items), census_tail_s=tail_value)
    elif workload == "census-r4-slice":
        out.update(
            catalog_groups_per_s=sizes["groups"] * sizes["reps"] / stages["catalog"],
            classify_taus_per_s=result["facts"]["entries"] * sizes["reps"] / stages["classify"],
        )
    elif workload == "classify-r4-random":
        out.update(classify_taus_per_s=sizes["n"] * sizes["reps"] / stages["classify"])
    else:
        out.update(oracle_p50_ms=1000 * statistics.median(items), oracle_tail_ms=1000 * tail_value)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="perfcode census benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "perfcode" / "__init__.py").is_file():
        print(f"no perfcode sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + TIME_LIMIT_S
    common = ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds)]
    if args.smoke:
        common.append("--smoke")
    try:
        result = run_worker([*common, "--trace", str(args.trace)], deadline)
        samples = [result]
        while not args.trace and not args.smoke and (
            len(samples) < SETUP_SAMPLES
            or (len(samples) < SETUP_MAX_SAMPLES and sum(s["setup_raw_s"] for s in samples) < SETUP_SPEND_S)
        ):
            samples.append(run_worker([*common, "--setup-only"], deadline))
        setups = [s["setup_s"] for s in samples]
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        try:
            (HERE / "_work").rmdir()
        except OSError:
            pass

    if args.trace:
        metrics = result["layers"]
    else:
        metrics = end_to_end(result, setups)
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "sizes": result["sizes"],
        "setup_samples_s": setups,
        "setup_raw_samples_s": [s["setup_raw_s"] for s in samples],
        "setup": result["setup"],
        "stages_s": result["stages"],
        "raw_wall_s": result["raw_wall_s"],
        "reference_ms": result["ref_ms"],
        "facts": result["facts"],
        "failed_ratio": result["failed"] / max(1, result["attempted"]),
        "failures": result["failures"],
        "machine": result["machine"],
        **workload_metrics(args.workload, result),
    }
    print(json.dumps(details))
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
