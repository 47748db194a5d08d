"""One pass over a workload's instances in a fresh process: each instance runs once.

    python3 perfbench/onepass.py WORKLOAD SEED   (with src on PYTHONPATH)

A ``mopexact verify`` user runs each instance once per process, so every
timed call here is the instance's first call in its process: a cache kept
across calls of the same instance cannot shorten it.  run.py starts one
process of this script per pass and takes each instance's median over the
passes.  The last line of stdout is one JSON object: per-instance times
(raw and scaled, see InstanceRun.times), the results digest, instances
attempted and failed, and the process's peak resident memory in KiB.
"""

from __future__ import annotations

import json
import resource
import sys
import time

import timing
import workloads

#: Consecutive run_instance calls scaled by one host-speed factor (see
#: timing.py).
CHUNK_CALLS = 16


class InstanceRun:
    """Serial run_instance calls over one instance list, with a speed sample after each."""

    def __init__(self, instances: list[dict], seed: int, fault: str | None = None) -> None:
        self.instances = instances
        self.seed = seed
        self.fault = fault
        self.records: list[dict] = []
        #: (raw seconds, speed sample taken right after), one per instance
        self.log: list[tuple] = []
        self.failed = 0

    def run(self) -> None:
        """Run every instance once, in order."""
        from mopexact import driver

        for instance in self.instances:
            start = time.perf_counter()
            try:
                record = driver.run_instance(instance, fault=self.fault, seed=self.seed)
            except Exception as exc:  # counted as a failed instance; the pass goes on
                record = {"instance": driver.instance_key(instance), "error": repr(exc), "pass": False}
            elapsed = time.perf_counter() - start
            self.records.append(record)
            self.failed += not record.get("pass")
            self.log.append((elapsed, timing.sample_speed()))

    @property
    def attempted(self) -> int:
        return len(self.records)

    def times(self, scaled: bool = True) -> list[float]:
        """Each instance's time, in instance order.

        Scaled times use one speed factor per CHUNK_CALLS consecutive calls;
        a shorter tail joins the chunk before it.
        """
        starts = list(range(0, len(self.log), CHUNK_CALLS))
        if len(starts) > 1 and len(self.log) - starts[-1] < CHUNK_CALLS:
            starts.pop()
        out: list[float] = []
        for lo, hi in zip(starts, starts[1:] + [len(self.log)]):
            chunk = self.log[lo:hi]
            factor = sum((s for _, s in chunk), timing.SpeedSample()).factor if scaled else 1.0
            out.extend(elapsed * factor for elapsed, _ in chunk)
        return out

    def digest(self) -> str:
        return workloads.results_digest(self.records)


def main(workload: str, seed: int) -> dict:
    run = InstanceRun(workloads.build_instances(workload, seed), seed)
    run.run()
    return {
        "times": run.times(),
        "raw_times": run.times(scaled=False),
        "digest": run.digest(),
        "attempted": run.attempted,
        "failed": run.failed,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1], int(sys.argv[2]))))
