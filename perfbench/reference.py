"""Machine-speed reference for normalizing the benchmark's timings."""

from __future__ import annotations

import math
from time import perf_counter

import numpy as np

# Times are reported in seconds at the machine speed at which Reference()
# takes exactly this long (about its duration on an idle 2.1 GHz Xeon core).
REFERENCE_S = 0.010


class Reference:
    """A fixed computation timed beside each operation to gauge machine speed.

    On a shared host the speed of one core drifts by tens of percent over
    minutes.  Dividing an operation's time by the reference time measured
    around it cancels much of that drift.  The reference never calls
    choqfuse, so no change to the program can move it.  Its three parts
    (an interpreter loop, many tiny numpy calls, one large numpy sort)
    mirror the GA, the CLI and the large-N kernels; their geometric mean is
    the reading.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self.small = rng.random((30, 3))
        self.large = rng.random(200_000)

    def _interpreter(self):
        total = 0
        for i in range(150_000):
            total += i * i % 7
        return total

    def _small_numpy(self):
        for _ in range(1_500):
            np.cumsum(np.sort(self.small, axis=1), axis=1)

    def _large_numpy(self):
        np.cumsum(np.sort(self.large))

    def __call__(self) -> float:
        log_sum = 0.0
        for part in (self._interpreter, self._small_numpy, self._large_numpy):
            t0 = perf_counter()
            part()
            log_sum += math.log(perf_counter() - t0)
        return math.exp(log_sum / 3)


def scaled(seconds: float, reference_before: float, reference_after: float) -> float:
    """Wall time converted to seconds at reference speed."""
    return seconds * REFERENCE_S / (0.5 * (reference_before + reference_after))
