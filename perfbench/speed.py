"""Machine-speed probe for calibrated timings.

The machine the benchmark was written on shares its cores with other
tenants; the same work there takes up to twice as long for seconds at a
time.  A daemon thread in the worker times a fixed chunk of interpreter
work every ``PERIOD_S`` seconds on each CPU the work may run on.  An
interval of wall time is converted to *calibrated seconds*: every part of it is scaled
by ``REF_CHUNK_S`` over the chunk time measured nearest to it, so a slow
period counts as the shorter time it would take at the reference speed.
On that machine, uncontended, the chunk takes about ``REF_CHUNK_S`` and
calibrated seconds are close to wall seconds.
"""

from __future__ import annotations

import bisect
import os
import statistics
import threading
import time
from fractions import Fraction

PERIOD_S = 0.03
REF_CHUNK_S = 0.001


def chunk() -> Fraction:
    """A fixed amount of the arithmetic the program spends its time on."""
    s = Fraction(0)
    for i in range(1, 230):
        s += Fraction(1, i % 97 + 1) * Fraction(i % 13 + 1, 7)
    return s


class SpeedProbe(threading.Thread):
    """Samples the chunk time on one CPU until stopped."""

    def __init__(self, cpu: int | None = None):
        super().__init__(daemon=True)
        self.cpu = cpu
        self.samples: list[tuple[float, float]] = []
        self._halt = threading.Event()

    def run(self) -> None:
        if self.cpu is not None:
            os.sched_setaffinity(0, {self.cpu})  # this thread only
        chunk()  # the interpreter specialises the code on its first runs
        chunk()
        while True:
            start = time.perf_counter()
            chunk()
            end = time.perf_counter()
            self.samples.append(((start + end) / 2, end - start))
            if self._halt.wait(PERIOD_S):
                return

    def stop(self) -> None:
        self._halt.set()
        self.join()


def calibrated_over(probes: list[SpeedProbe], start: float, end: float) -> float:
    """Calibrated length of [start, end], averaged over the probed CPUs."""
    return statistics.mean(calibrated(p.samples, start, end) for p in probes)


def calibrated(samples: list[tuple[float, float]], start: float, end: float) -> float:
    """Calibrated length of [start, end] given (time, chunk duration) samples.

    Each sample covers the time from half-way after its predecessor to
    half-way before its successor; its duration is the median of it and
    its two neighbours, so one disturbed sample does not count.
    """
    times = [t for t, _ in samples]
    durs = [d for _, d in samples]
    n = len(samples)
    total = 0.0
    i = max(0, bisect.bisect_left(times, start) - 1)
    while i < n:
        lo = (times[i - 1] + times[i]) / 2 if i > 0 else float("-inf")
        hi = (times[i] + times[i + 1]) / 2 if i + 1 < n else float("inf")
        if lo >= end:
            break
        overlap = min(hi, end) - max(lo, start)
        if overlap > 0:
            total += overlap * REF_CHUNK_S / statistics.median(durs[max(0, i - 1):i + 2])
        i += 1
    return total
