"""Host-speed calibration and summary statistics for the benchmark.

The benchmark shares its host with other tenants.  On the 2-vCPU host the
baseline was measured on, a fixed pure-Python loop ran anywhere from 0.85 ms
to twice that, with the slow share changing over tens of seconds, so raw
wall times of the same work differed by up to 45% between runs.  The
contention slows every interpreter loop alike: the ratio of mopexact work to
a fixed Fraction kernel interleaved with it held steady while the raw times moved.

The benchmark therefore runs :func:`reference_kernel` between timed units
and scales every time by ``REFERENCE_UNIT_S / mean kernel time`` measured
around it: the time the unit would have taken with the kernel at its
uncontended speed.  Over 20 s windows of the same Hahn instances the raw sum
of per-instance medians spread by 15% (interquartile share), the sum scaled
per 16 consecutive calls by 1.5%, and the sum scaled by one factor for the
whole window by 4%.  Processes the harness starts are scaled from kernels
timed on the harness's CPU clock next to them, one factor per set of cold
starts or of CLI commands: a wall-clock sample next to a
0.2 s process swung more than the process did.  Raw times are printed
beside the scaled ones.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass
from fractions import Fraction

#: Seconds one reference_kernel() call takes on an uncontended host (the 1st
#: percentile of 8000 calls on a 2.0 GHz Xeon vCPU under CPython 3.11).
REFERENCE_UNIT_S = 0.00085


def reference_kernel() -> Fraction:
    """A fixed Fraction loop with bounded operand size; about 0.85 ms."""
    x = Fraction(1, 3)
    for i in range(1, 151):
        x = x * Fraction(i, i + 2) + Fraction(1, 7)
        x = Fraction(x.numerator % 1000003, x.denominator % 1000033 or 1)
    return x


@dataclass(frozen=True)
class SpeedSample:
    """``units`` reference-kernel calls that took ``seconds`` in all."""

    units: int = 0
    seconds: float = 0.0

    def __add__(self, other: "SpeedSample") -> "SpeedSample":
        return SpeedSample(self.units + other.units, self.seconds + other.seconds)

    @property
    def factor(self) -> float:
        """REFERENCE_UNIT_S over the mean kernel time: raw times times this."""
        return REFERENCE_UNIT_S * self.units / self.seconds


def sample_speed(min_seconds: float = 0.0) -> SpeedSample:
    """Run the kernel at least once, and until ``min_seconds`` have passed."""
    start = time.perf_counter()
    units = 0
    while True:
        reference_kernel()
        units += 1
        elapsed = time.perf_counter() - start
        if elapsed >= min_seconds:
            return SpeedSample(units, elapsed)


def sample_cpu_speed() -> SpeedSample:
    """One kernel call timed by this thread's CPU clock.

    The CPU clock leaves out time spent waiting for a CPU, so the sample
    measures the speed of the CPU while other processes keep every CPU busy.
    """
    start = time.thread_time()
    reference_kernel()
    return SpeedSample(1, time.thread_time() - start)


def quantile(values, q: int, n: int = 10) -> float:
    """The q-th of the n-1 cut points of ``values`` (statistics.quantiles)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=n)[q - 1]
