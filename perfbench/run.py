"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Human-readable lines come first; the last
line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics of BENCHMARK.json with
``--trace 0``, its per-layer metrics with ``--trace 1``.  Instance and
command times are scaled to the reference host speed (see timing.py); the
raw times are printed beside them.  Exits nonzero without a result line
when ``src/mopexact`` is missing.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import layertrace
import metrics
import onepass
import timing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
BASELINE = HERE / "baseline.json"
WORKLOADS = ("hahn-lattice", "continuous-highdeg", "cli-verify")

#: Cold-start processes per run; setup_s is the median of their wall times.
SETUP_PROBES = 25
#: Reference kernels timed before each cold start (about 10 ms).
SETUP_KERNELS = 10
#: Fresh-process passes per in-process run: at least this many, and more
#: while another pass fits in --seconds.
MIN_PASSES = 2
#: Fresh-process passes over the cli-verify instances for its per-instance
#: times, which the command does not report.
CLI_PASSES = 3
#: Interval between reference kernels while a command runs.
SAMPLE_EVERY_S = 0.05

CLI_IMPORT = "import time; t = time.perf_counter(); import mopexact.cli; print(time.perf_counter() - t)"


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def expected_digest(workload: str, seed: int) -> str | None:
    """The stored results digest for ``workload``.

    Records name the instance and its checks, not the drawn exponents, so
    every stored seed of a workload has the same digest; an unstored seed
    is held to that common value.
    """
    if not BASELINE.is_file():
        return None
    digests = json.loads(BASELINE.read_text(encoding="utf-8"))["digests"].get(workload, {})
    if str(seed) in digests:
        return digests[str(seed)]
    values = set(digests.values())
    return values.pop() if len(values) == 1 else None


class ColdStarts:
    """Cold-start processes of one command, spread over a run.

    The first process is not measured: it writes the bytecode caches, which
    an installed package already has.  Before each measured process this
    process times SETUP_KERNELS reference kernels on its own CPU clock; the
    median wall time is scaled by the factor of all of them.  On the shared
    host a cold start ran 0.1 s to 0.25 s, its CPU time equal to its wall
    time: the CPU itself was slower, which the CPU-clock kernel tracks.
    Kernels timed on the wall clock also count time spent waiting for a CPU,
    which a cold start barely had, and scaling by them widened the spread.
    """

    def __init__(self, command: list[str]) -> None:
        self.command = command
        self.walls: list[float] = []
        self.outputs: list[bytes] = []
        self.speed = timing.SpeedSample()
        subprocess.run(command, env=_env(), check=True, capture_output=True)

    def take(self, share: float) -> None:
        """Start processes until SETUP_PROBES times ``share`` of them have run."""
        while len(self.walls) < math.ceil(SETUP_PROBES * min(share, 1.0)):
            for _ in range(SETUP_KERNELS):
                self.speed += timing.sample_cpu_speed()
            start = time.perf_counter()
            done = subprocess.run(self.command, env=_env(), check=True, capture_output=True)
            self.walls.append(time.perf_counter() - start)
            self.outputs.append(done.stdout)

    def median(self) -> float:
        """The scaled median wall time of the measured processes."""
        return statistics.median(self.walls) * self.speed.factor


def timed_command(command: list[str]) -> tuple[float, bytes, int, timing.SpeedSample]:
    """Run ``command`` once.

    Returns its raw wall time, its stdout, the peak resident memory of its
    process tree in KiB, and host-speed samples: every SAMPLE_EVERY_S while
    it runs, and once after it, this process times one reference kernel on
    its own CPU clock (sample_cpu_speed), about 2% of one CPU.  A command
    that exits with a code other than 0 or 1 (1 is a failed check, counted
    by the caller) raises.
    """
    speed = timing.SpeedSample()
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryFile(dir=OUT) as stdout, tempfile.TemporaryFile(dir=OUT) as stderr:
        start = time.perf_counter()
        proc = subprocess.Popen(command, env=_env(), stdout=stdout, stderr=stderr)
        while True:
            # wait4 folds the usage of the command's own waited-for children
            # (the pool workers) into the command's.
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            speed += timing.sample_cpu_speed()
            time.sleep(SAMPLE_EVERY_S)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        speed += timing.sample_cpu_speed()
        stdout.seek(0)
        stderr.seek(0)
        if proc.returncode not in (0, 1):
            raise RuntimeError(f"{command[1:3]} exited {proc.returncode}: {stderr.read().decode()[-2000:]}")
        return wall, stdout.read(), usage.ru_maxrss, speed


def fresh_pass(workload: str, seed: int) -> dict:
    """One onepass.py process over the workload's instances; its result object."""
    done = subprocess.run([sys.executable, str(HERE / "onepass.py"), workload, str(seed)],
                          env=_env(), check=True, capture_output=True, text=True)
    return json.loads(done.stdout.splitlines()[-1])


def instance_medians(passes: list[dict], key: str = "times") -> list[float]:
    """Each instance's median time over the passes, in instance order."""
    return [statistics.median(times) for times in zip(*(p[key] for p in passes))]


def cli_command(jobs: int, seed: int) -> list[str]:
    return [sys.executable, "-m", "mopexact.cli", "verify", "--jobs", str(jobs), "--seed", str(seed)]


def report(name: str, value: float, unit: str, raw: float | None = None, note: str = "") -> None:
    line = f"{name:<46} {value:>14.6g} {unit}"
    if raw is not None:
        line += f"   (raw {raw:.6g} {unit})"
    print(line + (f"   {note}" if note else ""))


def _p50_p90_ms(medians: list[float]) -> tuple[float, float]:
    ms = [t * 1000 for t in medians]
    return statistics.median(ms), timing.quantile(ms, 9)


class Tally:
    """Digests seen, instances attempted and failed, across a run's passes and commands."""

    def __init__(self) -> None:
        self.digests: set[str] = set()
        self.attempted = 0
        self.failed = 0

    def add(self, digest: str, attempted: int, failed: int) -> None:
        self.digests.add(digest)
        self.attempted += attempted
        self.failed += failed

    def add_results(self, results: list[dict]) -> None:
        self.add(workloads.results_digest(results), len(results), sum(not r["pass"] for r in results))

    def add_pass(self, result: dict) -> None:
        self.add(result["digest"], result["attempted"], result["failed"])

    def outcome(self, workload: str, seed: int, values: dict, problems=()) -> dict:
        expected = expected_digest(workload, seed)
        digest_ok = expected is not None and self.digests == {expected}
        report("failure_rate", self.failed / self.attempted, "ratio",
               note=f"{self.failed} of {self.attempted} attempted")
        print(f"stored digest {expected}: {'match' if digest_ok else 'MISMATCH'}")
        print("digests " + json.dumps(sorted(self.digests)))
        return {"correct": digest_ok and self.failed == 0 and not problems,
                "attempted": self.attempted, "failed": self.failed, "values": values}


def end_to_end(workload: str, seed: int, seconds: float) -> dict:
    """The --trace 0 run: every end-to-end metric, untraced.

    Cold starts are spread over the run, between the fresh-process passes
    (in-process workloads) or the commands (cli-verify).
    """
    tally = Tally()
    cli = workload == "cli-verify"
    probes = ColdStarts([sys.executable, "-c", CLI_IMPORT] if cli
                        else [sys.executable, str(HERE / "probe.py"), workload, str(seed)])
    start = time.perf_counter()
    passes: list[dict] = []
    if cli:
        for _ in range(CLI_PASSES):
            probes.take((time.perf_counter() - start) / seconds)
            passes.append(fresh_pass(workload, seed))
        jobs = os.cpu_count() or 1
        walls_raw, peaks_kb, speed = [], [], timing.SpeedSample()
        while not walls_raw or time.perf_counter() - start < seconds:
            probes.take((time.perf_counter() - start) / seconds)
            wall, stdout, peak_kb, sample = timed_command(cli_command(jobs, seed))
            walls_raw.append(wall)
            peaks_kb.append(peak_kb)
            speed += sample
            tally.add_results(json.loads(stdout)["results"])
        verify_raw = statistics.median(walls_raw)
        verify = verify_raw * speed.factor
        peak_kb = max(peaks_kb)
        print(f"cli-verify: {len(walls_raw)} commands with --jobs {jobs}; verify_wall_s is their median; "
              f"per-instance times from {CLI_PASSES} fresh-process serial passes")
    else:
        longest = 0.0
        while len(passes) < MIN_PASSES or time.perf_counter() - start + longest <= seconds:
            probes.take((time.perf_counter() - start) / seconds)
            begin = time.perf_counter()
            passes.append(fresh_pass(workload, seed))
            longest = max(longest, time.perf_counter() - begin)
        verify, verify_raw = sum(instance_medians(passes)), sum(instance_medians(passes, "raw_times"))
        peak_kb = max(p["peak_rss_kb"] for p in passes)
        print(f"{workload}: {len(passes)} fresh-process passes; verify_wall_s sums each "
              f"instance's median over them")
    probes.take(1)
    for result in passes:
        tally.add_pass(result)
    p50, p90 = _p50_p90_ms(instance_medians(passes))
    raw50, raw90 = _p50_p90_ms(instance_medians(passes, "raw_times"))
    values = {
        "setup_s": probes.median(),
        "verify_wall_s": verify,
        "instance_ms_p50": p50,
        "instance_ms_p90": p90,
        "peak_rss_mb": peak_kb / 1024,
    }
    report("setup_s", values["setup_s"], "s", statistics.median(probes.walls),
           f"median of {len(probes.walls)} cold starts")
    report("verify_wall_s", verify, "s", verify_raw)
    samples = f"{len(passes[0]['times'])} samples, each an instance's median over {len(passes)} passes"
    report("instance_ms_p50", p50, "ms", raw50, samples)
    report("instance_ms_p90", p90, "ms", raw90, samples)
    report("peak_rss_mb", values["peak_rss_mb"], "MB")
    return tally.outcome(workload, seed, values)


def _solve_observer(state: dict):
    def observe(args, solution) -> None:
        state["size"] = max(state["size"], len(args[0]))
        bits = max((max(abs(x.numerator).bit_length(), x.denominator.bit_length())
                    for x in solution), default=0)
        state["bits"] = max(state["bits"], bits)
    return observe


def traced(run_work):
    """Run ``run_work`` under a fresh tracer.

    Returns the tracer, the largest solved system and solution height, and
    the bindings the tracer failed to restore.
    """
    linalg = {"size": 0, "bits": 0}
    tracer = layertrace.Tracer({"linalg.solve_linear_system": _solve_observer(linalg)})
    tracer.install()
    try:
        run_work()
    finally:
        problems = tracer.uninstall()
    return tracer, linalg, problems


def per_layer(workload: str, seed: int, specs: list[dict]) -> dict:
    """The --trace 1 run: a traced pass in this process, an untraced one in a fresh process.

    Both run each instance once.  cli-verify traces the command's instances
    the way its serial loop runs them, and times the commands for the cli.*
    metrics.
    """
    tally = Tally()
    values = dict.fromkeys(("cli.import_s", "cli.serial_wall_s", "cli.parallel_efficiency",
                            "cli.output_bytes"), 0)
    traced_run = onepass.InstanceRun(workloads.build_instances(workload, seed), seed)
    tracer, linalg, problems = traced(traced_run.run)
    plain = fresh_pass(workload, seed)
    tally.add(traced_run.digest(), traced_run.attempted, traced_run.failed)
    tally.add_pass(plain)
    if workload == "cli-verify":
        imports = ColdStarts([sys.executable, "-c", CLI_IMPORT])
        imports.take(1)
        workers = os.cpu_count() or 1
        serial, serial_out, _, serial_speed = timed_command(cli_command(1, seed))
        parallel, parallel_out, _, parallel_speed = timed_command(cli_command(workers, seed))
        tally.add_results(json.loads(serial_out)["results"])
        tally.add_results(json.loads(parallel_out)["results"])
        import_raw = statistics.median(float(line) for line in imports.outputs)
        values["cli.import_s"] = import_raw * imports.speed.factor
        values["cli.serial_wall_s"] = serial * serial_speed.factor
        values["cli.parallel_efficiency"] = (
            values["cli.serial_wall_s"] / (workers * parallel * parallel_speed.factor))
        values["cli.output_bytes"] = len(parallel_out)
    traced_wall = sum(traced_run.times())
    scale = traced_wall / sum(traced_run.times(scaled=False))
    instances_run = tracer.get("driver.run_instance", "calls")
    for name, layer in metrics.PER_LAYER.items():
        if layer.source is not None:
            traced_name, field = layer.source
            value = tracer.get(traced_name, field)
            values[name] = value if field == "calls" else value * scale
    values["linalg.max_system_size"] = linalg["size"]
    values["linalg.max_height_bits"] = linalg["bits"]
    generations = sum(tracer.get(name, "calls") for name in metrics.GENERATORS)
    values["families.generations_per_instance"] = generations / instances_run if instances_run else 0.0
    values["trace.overhead_ratio"] = traced_wall / sum(plain["times"])
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"trace-{workload}-seed{seed}.json"
    tracer.write_spans(spans_path)
    print(f"{workload}: traced {instances_run} run_instance calls; {len(tracer.spans)} spans "
          f"written to {spans_path.relative_to(ROOT)}; times scaled by {scale:.4f}")
    for problem in problems:
        print(f"tracer restore problem: {problem}")
    for spec in specs:
        report(spec["name"], values[spec["name"]], spec["unit"])
    return tally.outcome(workload, seed, values, problems)


def result_line(outcome: dict, specs: list[dict]) -> str:
    return json.dumps({
        "correct": outcome["correct"],
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {m["name"]: {"value": outcome["values"][m["name"]], "unit": m["unit"]} for m in specs},
    })


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "mopexact" / "__init__.py").is_file():
        print(f"no mopexact package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.trace:
        specs = benchmark["per_layer"]
        outcome = per_layer(args.workload, args.seed, specs)
    else:
        specs = benchmark["end_to_end"]
        outcome = end_to_end(args.workload, args.seed, args.seconds)
    print(result_line(outcome, specs))
    return 0


if __name__ == "__main__":
    sys.exit(main())
