"""Correctness gate: every end-to-end metric of every workload, with digest checks.

    python3 perfbench/gate.py [--seeds 1,2] [--record]

For each workload and seed it runs ``run.py --trace 0`` in its own process,
for the run_seconds that BENCHMARK.json fixes, and prints every end-to-end
metric by name with its unit, plus failure_rate (failed over attempted
instances).  For cli-verify it also runs ``mopexact verify --jobs 1 --seed
N`` and requires the parallel command's digest to equal it, so pool
dispatch cannot change the output.  Exits 1 on a
digest that differs from baseline.json or on any failure_rate above 0.

``--record`` rewrites baseline.json from these runs: the digests per
workload and seed, the medians over the seeds, one traced run per workload
(first seed) and the host metadata.  It writes nothing, and exits 1, when a
traced run failed an instance, left a binding unrestored, or gave another
digest than the untraced runs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import timing  # noqa: E402
import workloads  # noqa: E402


def run_workload(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, list[str], list[str]]:
    """One run.py process: its result object, the digests it reported, and its restore problems."""
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"run.py {workload} seed {seed} exited {done.returncode}:\n{done.stderr[-3000:]}")
    digests = next(json.loads(line[len("digests "):]) for line in lines if line.startswith("digests "))
    problems = [line for line in lines if line.startswith("tracer restore problem")]
    return json.loads(lines[-1]), digests, problems


def serial_cli_digest(seed: int) -> str:
    done = subprocess.run(run.cli_command(1, seed), env=run._env(), capture_output=True, check=True)
    return workloads.results_digest(json.loads(done.stdout)["results"])


def seed_list(text: str) -> list[int]:
    return [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_list, default=[1])
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args(argv)
    seconds = benchmark["run_seconds"]

    status = 0
    digests: dict[str, dict[str, str]] = {}
    values: dict[str, dict[str, list[float]]] = {}
    print(f"{'workload':<20} {'seed':>5}  {'metric':<16} {'value':>14}  unit")
    for workload in run.WORKLOADS:
        for seed in args.seeds:
            result, seen, _ = run_workload(workload, seed, seconds, 0)
            reference = serial_cli_digest(seed) if workload == "cli-verify" else seen[0]
            digests.setdefault(workload, {})[str(seed)] = reference
            rate = result["failed"] / result["attempted"]
            rows = [(name, m["value"], m["unit"]) for name, m in result["metrics"].items()]
            for name, value, unit in rows + [("failure_rate", rate, "ratio")]:
                values.setdefault(workload, {}).setdefault(name, []).append(value)
                print(f"{workload:<20} {seed:>5}  {name:<16} {value:>14.6g}  {unit}")
            agree = seen == [reference]
            stored = args.record or result["correct"]
            notes = [
                ("passes agree" if workload != "cli-verify" else "parallel commands equal --jobs 1")
                if agree else "passes DISAGREE",
                "recorded" if args.record else "matches baseline.json" if stored else "DIFFERS from baseline.json",
            ]
            print(f"{workload:<20} {seed:>5}  digest {reference[:16]}...  " + "; ".join(notes))
            if rate > 0 or not agree or not stored:
                status = 1
    if args.record and status == 0:
        traced = {}
        for workload in run.WORKLOADS:
            result, seen, problems = run_workload(workload, args.seeds[0], seconds, 1)
            traced[workload] = result["metrics"]
            if result["failed"] or problems or seen != [digests[workload][str(args.seeds[0])]]:
                print(f"{workload}: traced run NOT correct; baseline.json not written")
                status = 1
    if args.record and status == 0:
        baseline = {
            "about": "Written by perfbench/gate.py --record; run.py reads the digests.",
            "metadata": {
                "python": platform.python_version(),
                "implementation": platform.python_implementation(),
                "machine": platform.machine(),
                "nproc": os.cpu_count(),
                "seeds": args.seeds,
                "run_seconds": seconds,
                "reference_unit_s": timing.REFERENCE_UNIT_S,
                "commit_sources_sha256": _sources_digest(),
            },
            "digests": digests,
            "end_to_end_medians": {w: {name: statistics.median(v) for name, v in by_name.items()}
                                   for w, by_name in values.items()},
            "per_layer": {
                "traced_seed": args.seeds[0],
                "values": {w: {name: m["value"] for name, m in result.items()}
                           for w, result in traced.items()},
            },
        }
        run.BASELINE.write_text(json.dumps(baseline, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"wrote {run.BASELINE.relative_to(ROOT)}")
    return status


def _sources_digest() -> str:
    """sha256 over src/mopexact/*.py, to tie the baseline to the code it measured."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "mopexact").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


if __name__ == "__main__":
    sys.exit(main())
