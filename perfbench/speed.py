"""Times taken on a shared host, scaled to a reference host.

A shared host runs this process at a speed that depends on what the other
tenants do, and a speed holds for stretches of seconds to minutes: over five
runs of the same code the median `latloc locate` call took 87 to 117 ms, and
within one run the same call moved between ~58 and ~101 ms. A fixed slice of
pure-Python work, timed between the program's calls, slows down with them.
So a ScaledClock splits the timed work into segments, each begun by one timed
run of reference_kernel(), and scales each segment by the kernel's local
speed: REFERENCE_MS over the median of the kernel samples within WINDOW
samples of it. A whole-run scale is not enough, because the speed changes
within a run: over five seeds, scaling each call by the run's median kernel
time left the p90 call time spreading by 0.24 (IQR over median), and scaling
it by the local median brought that to 0.10.

REFERENCE_MS is a round figure within the kernel's range on the 2-vCPU VM the
baseline comes from (2.5 to 3.7 ms, with the host's load). The harness prints
unscaled times to stderr.
"""

from __future__ import annotations

import math
import statistics
import time

REFERENCE_MS = 3.0
WINDOW = 5


def reference_kernel() -> int:
    """Dict stores and integer arithmetic, about REFERENCE_MS of work."""
    table = {}
    total = 0
    for i in range(20000):
        table[i & 255] = total
        total += (i * i) % 7
    return total


def time_kernel() -> float:
    start = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - start


class ScaledClock:
    """Segments of timed work, segment i begun by kernel sample i.

    mark() closes the open segment, if any, times the kernel and opens the
    next segment; stop() closes the open segment. Time between stop() and
    the next mark() is not counted, and neither is the kernel's own time."""

    def __init__(self):
        self.kernel_s: list[float] = []
        self.segments_s: list[float] = []
        self._opened = None

    def mark(self) -> int:
        """Starts a segment and returns its index."""
        if self._opened is not None:
            self.stop()
        self.kernel_s.append(time_kernel())
        self._opened = time.perf_counter()
        return len(self.kernel_s) - 1

    def stop(self) -> None:
        self.segments_s.append(time.perf_counter() - self._opened)
        self._opened = None

    def sample(self, n: int) -> None:
        """Times the kernel n more times without opening a segment. Call it
        after the last segment, so the last segments' windows have samples
        on both sides."""
        self.kernel_s.extend(time_kernel() for _ in range(n))

    def factor(self, i: int) -> float:
        """Scale for a time taken in segment i."""
        window = self.kernel_s[max(0, i - WINDOW): i + WINDOW + 1]
        return REFERENCE_MS / (1000.0 * statistics.median(window))

    def raw_s(self) -> float:
        return math.fsum(self.segments_s)

    def scaled_s(self) -> float:
        return math.fsum(s * self.factor(i) for i, s in enumerate(self.segments_s))
