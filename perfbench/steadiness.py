"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/steadiness.py --workload NAME [--workload NAME ...] --seeds 1-10

Runs ``run.py --trace 0`` once per seed, one process at a time, and prints
for every end-to-end metric the median, the interquartile distance as a
share of the median (statistics.quantiles, n=4) and that metric's bound.
Runs last the run_seconds that BENCHMARK.json fixes.  A spread is steady
when it stays below a third of the bound.  Exits 1 when a run fails or a
spread is above its bound.
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


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    benchmark = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    args = parser.parse_args(argv)
    status = 0
    for workload in args.workload:
        values: dict[str, list[float]] = {}
        for seed in args.seeds:
            start = time.perf_counter()
            done = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(benchmark["run_seconds"]), "--trace", "0"],
                capture_output=True, text=True, cwd=HERE.parent,
            )
            result = json.loads(done.stdout.strip().splitlines()[-1]) if done.returncode == 0 else None
            if result is None or not result["correct"]:
                print(f"{workload} seed {seed}: run failed\n{done.stdout[-2000:]}{done.stderr[-2000:]}")
                status = 1
                continue
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed} ({time.perf_counter() - start:.0f} s): " + " ".join(
                f"{name}={metric['value']:.5g}" for name, metric in result["metrics"].items()), flush=True)
        for metric in benchmark["end_to_end"]:
            series = values.get(metric["name"], [])
            if len(series) < 2:
                continue
            q1, median, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / median
            verdict = "steady" if spread < metric["bound"] / 3 else (
                "within bound" if spread <= metric["bound"] else "ABOVE BOUND")
            if verdict == "ABOVE BOUND":
                status = 1
            print(f"  {workload:<20} {metric['name']:<18} median {median:<12.6g} "
                  f"spread {spread:.4f} bound {metric['bound']}  {verdict}")
    return status


if __name__ == "__main__":
    sys.exit(main())
