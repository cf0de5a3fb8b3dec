"""Machine speed, measured between the cells of a pass.

The shared 2-CPU container this benchmark was written on runs the same
deterministic code about 1.7 times slower at some moments than at
others.  Its CPUs switch between a fast and a slow state every few tens
of seconds, and process time follows wall time, so the slowdown is in
the CPU itself and longer runs do not average it out: over a 300 s trace
of a fixed loop, the means of 30 s and 60 s windows spread 19-20%
(interquartile range over median).

So an untraced pass times a fixed pure-Python kernel (:func:`kernel`,
which calls no code of the program) at its start, at its end and
between every two cells.  Each cell's latency is then multiplied by
``KERNEL_REF_S`` over the mean of the kernel times just before and just
after it, which gives the latency on a machine where the kernel takes
exactly ``KERNEL_REF_S``.  The kernel's own time is left out of every
latency and of the pass's wall time.  With formation work alternating
with the kernel on that container, scaling took the spread of 10-30 s
windows from 14-23% to 4-5%.  The speed changes within a second, too:
probing at most every 0.1 s instead of between every two cells doubled
the cell-to-cell noise of the scaled `paper` latencies (5.8% to 11.5%).

The program slows down less than the kernel in the slow state (a log-log
fit of per-cell latency on kernel time gave slopes of 0.67-0.80), so a
pass run wholly in the slow state reads up to about 15% low against one
run wholly in the fast state.
"""

from __future__ import annotations

import bisect
import statistics
import time

#: Kernel time of the reference machine the scaled timings are for.
KERNEL_REF_S = 0.005
KERNEL_ROUNDS = 15_000


def kernel() -> int:
    """Fixed work of the kind the program does: dict updates and small
    lists and tuples.  Takes 3-6 ms on the 2-CPU container."""
    counts: dict = {}
    for i in range(KERNEL_ROUNDS):
        key = i % 997
        counts[key] = counts.get(key, 0) + i
        pair = [i, (i, key)]
    return len(counts) + len(pair)


class SpeedProbe:
    """Kernel times taken during one pass, as (start, end) pairs in
    ``time.perf_counter`` seconds, in order."""

    def __init__(self) -> None:
        self.starts: list = []
        self.ends: list = []

    def probe(self) -> None:
        """Time the kernel once."""
        start = time.perf_counter()
        kernel()
        self.starts.append(start)
        self.ends.append(time.perf_counter())

    def busy_s(self, start: float, end: float) -> float:
        """Kernel time spent inside [start, end]."""
        return sum(
            min(e, end) - max(s, start)
            for s, e in zip(self.starts, self.ends)
            if s < end and e > start
        )

    def kernel_s(self, start: float, end: float) -> float:
        """Kernel time around [start, end]: the mean of the last probe
        that ended by ``start`` and the first that began at ``end`` or
        later (the one probe when the other side has none)."""
        before = bisect.bisect_right(self.ends, start) - 1
        after = bisect.bisect_left(self.starts, end)
        sides = [i for i in (before, after) if 0 <= i < len(self.starts)]
        return statistics.fmean(self.ends[i] - self.starts[i] for i in sides)

    def scale(self, start: float, end: float) -> float:
        """Factor that turns a time measured over [start, end] into a
        time on the reference machine."""
        return KERNEL_REF_S / self.kernel_s(start, end)

    def median_kernel_s(self) -> float:
        return statistics.median(
            e - s for s, e in zip(self.starts, self.ends)
        )
