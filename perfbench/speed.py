"""A clock for a machine whose speed drifts.

On a shared machine the speed of a fixed pure-Python loop can drift by tens
of percent from one minute to the next, and the program's speed drifts
with it. So the benchmark samples that loop twenty times a second from a
timer signal, and its clock counts *reference seconds*: the time the work
would take where the loop takes ``PROBE_REF_S``. The clock stops while it
samples.
"""

from __future__ import annotations

import math
import signal
import statistics
import time

PROBE_LOOPS = 4000
PROBE_REF_S = 0.0004  # 0.1 us per loop step: a 2.1 GHz x86-64 core at its usual speed
SAMPLE_EVERY_S = 0.05
WINDOW = 5  # samples in the running median that sets the clock's rate


def _spin() -> int:
    x = 0
    for i in range(PROBE_LOOPS):
        x += i * i % 7
    return x


def probe() -> float:
    """Seconds the loop takes now, best of three."""
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        _spin()
        best = min(best, time.perf_counter() - t0)
    return best


class Speed:
    """Samples the loop from SIGALRM until ``close``. Between samples the
    clock runs at PROBE_REF_S over the median of the last WINDOW samples."""

    def __init__(self):
        self.samples = []
        self.factor = 1.0
        self._ref = 0.0
        self._last = time.perf_counter()
        self._count = 0
        self._sample(None, None)
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def _sample(self, signum, frame) -> None:
        self._ref += (time.perf_counter() - self._last) * self.factor
        self.samples.append(probe())
        self.factor = PROBE_REF_S / statistics.median(self.samples[-WINDOW:])
        self._last = time.perf_counter()
        self._count += 1

    def clock(self) -> float:
        """Reference seconds since the clock was made."""
        while True:
            count = self._count
            now = self._ref + (time.perf_counter() - self._last) * self.factor
            if count == self._count:  # no sample ran in between
                return now

    def close(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
