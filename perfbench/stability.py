"""Run one workload over several seeds and report each metric's spread.

Run from the repository root::

    python3 perfbench/stability.py --workload service-mixed --seeds 1-10

Runs ``perfbench/run.py`` once per seed, one after another (parallel
runs would disturb each other's timings), then prints for every metric
the median and the spread: the distance between the first and third
quartile (``statistics.quantiles(values, n=4)``) as a share of the
median, next to the bound ``BENCHMARK.json`` fixes for it.  The raw
results go to ``perfbench/out/stability-<workload>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10",
                        help="e.g. 1-10 or 3,5,8 (default 1-10)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    runs = []
    for seed in parse_seeds(args.seeds):
        started = time.perf_counter()
        completed = subprocess.run(
            [*spec["command"], "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900,
        )
        if completed.returncode != 0:
            sys.stderr.write(completed.stderr)
            print(f"seed {seed}: exit {completed.returncode}")
            return 1
        result = json.loads(completed.stdout.strip().splitlines()[-1])
        result["seed"] = seed
        result["run_wall_s"] = time.perf_counter() - started
        runs.append(result)
        print(f"seed {seed}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']} "
              f"in {result['run_wall_s']:.1f} wall s", flush=True)

    out = HERE / "out"
    out.mkdir(exist_ok=True)
    (out / f"stability-{args.workload}.json").write_text(
        json.dumps(runs, indent=1)
    )
    print(f"{'metric':<28} {'median':>12} {'spread':>8} {'bound':>6}")
    for name in runs[0]["metrics"]:
        values = [run["metrics"][name]["value"] for run in runs]
        median = statistics.median(values)
        if len(values) >= 2 and median:
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = f"{(q3 - q1) / abs(median):8.3f}"
        else:
            spread = f"{'-':>8}"
        bound = bounds.get(name)
        print(f"{name:<28} {median:12.6g} {spread} "
              f"{'' if bound is None else bound:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
