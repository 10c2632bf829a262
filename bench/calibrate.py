"""Machine-speed calibration: a fixed kernel timed next to the workload.

On a shared 2-vCPU host the speed of the CPU drifts by tens of per cent
over minutes, and process CPU time drifts with it (it stays within a few
per cent of wall time), so neither clock alone gives steady numbers.  The
kernel below does the kind of work opreduce does -- ``Fraction`` Gaussian
elimination on small-entry matrices and long-integer multiply and divide --
without importing opreduce, so no change to the package changes its time.

``run.py`` and ``worker.py`` time the kernel next to the work they measure
and report their gated timings in reference-speed seconds: each measured
time times ``REFERENCE_S`` divided by the mean time of the kernel calls made
while it ran (or right after it).  The raw seconds are printed next to them.

The host's speed switches between a fast and a slow state (kernel times of
about 3.7 and 6.5 ms), staying in one for 5 ms to half a second, and the
share of time spent in the slow state drifts.  A command spans many
switches, so the kernel's mean -- not its median, which would pick one
state -- over samples spread evenly through the commands measures the
mixture that the command latencies see.  ``Sampler`` spreads them: it runs
the kernel from a timer signal while the commands run, and keeps the time
spent in its handler so that it can be taken out of each latency.
"""

from __future__ import annotations

import random
import signal
import statistics
import time
from fractions import Fraction

# Typical kernel time on a shared 2-vCPU x86_64 host under CPython 3.  The
# constant only sets the scale of the reported seconds; it never changes.
REFERENCE_S = 0.005
SIZE = 7


def kernel() -> Fraction:
    rng = random.Random(7)
    acc = Fraction(0)
    for _ in range(6):
        m = [[Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(SIZE)] for _ in range(SIZE)]
        for i in range(SIZE):
            pivot = next((r for r in range(i, SIZE) if m[r][i]), None)
            if pivot is None:
                break
            m[i], m[pivot] = m[pivot], m[i]
            for r in range(i + 1, SIZE):
                f = m[r][i] / m[i][i]
                m[r] = [a - f * b for a, b in zip(m[r], m[i])]
            acc += m[i][i]
    x = 3**4000
    for k in range(200):
        x = (x * (k + 12345)) // 7
    return acc + x % 1000


def sample(count: int) -> list[float]:
    """Wall times of ``count`` kernel calls."""
    times = []
    for _ in range(count):
        start = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - start)
    return times


class Sampler:
    """Times the kernel every ``interval`` seconds of wall time while active.

    ``samples`` holds the kernel times; ``spent`` the total time spent in
    the signal handler, to be subtracted from latencies measured meanwhile.
    """

    def __init__(self, interval: float):
        self.interval = interval
        self.samples: list[float] = []
        self.spent = 0.0
        self._previous = None

    def _handler(self, signum, frame) -> None:
        start = time.perf_counter()
        kernel()
        self.samples.append(time.perf_counter() - start)
        self.spent += time.perf_counter() - start

    def __enter__(self) -> Sampler:
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


def scale(samples: list[float]) -> float:
    """Factor that turns this run's measured seconds into reference-speed seconds."""
    return REFERENCE_S / statistics.fmean(samples)
