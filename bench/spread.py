"""Run one workload over several seeds and report each metric's spread.

    python3 bench/spread.py --workload norm-pullback --seeds 101-110

Runs `bench/run.py` untraced, once per seed and one run at a time, for the
`run_seconds` of BENCHMARK.json.  It prints for each end-to-end metric the
median of its values and their spread: the distance between the first and
third quartiles (`statistics.quantiles(values, n=4)`) over the median.
These are the figures behind the bounds in BENCHMARK.json.  Each run's
calibration loop (see run.py) is printed too, so a drift of the host's
speed across the runs shows.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
RUN = BENCH_DIR / "run.py"
RUN_SECONDS = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())["run_seconds"]


def seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def spread(vals: list[float]) -> float:
    median = statistics.median(vals)
    if len(vals) < 2 or not median:
        return 0.0
    q1, _, q3 = statistics.quantiles(vals, n=4)
    return (q3 - q1) / median


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, required=True, help="e.g. 101-110")
    args = parser.parse_args()
    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(RUN), "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(RUN_SECONDS), "--trace", "0"],
            capture_output=True, text=True, check=True)
        result = json.loads(proc.stdout.splitlines()[-1])
        detail = json.loads(
            (BENCH_DIR / "out" / f"{args.workload}-seed{seed}-trace0.json").read_text())
        calibration = statistics.median(detail["calibration_ms"])
        print(f"seed {seed}: correct {result['correct']}, {result['attempted']} jobs, "
              f"{result['failed']} failed, calibration {calibration:.2f} ms", flush=True)
        values.setdefault("calibration_ms", []).append(calibration)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    for name, vals in values.items():
        print(f"{name:40s} median {statistics.median(vals):12.5g}  spread {spread(vals):6.3f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
