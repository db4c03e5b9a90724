"""How fast the host is right now, read from a fixed loop between the ops.

The hosts this benchmark runs on are shared: with nothing else running in
the guest and no steal time reported, one and the same pure-Python loop takes
7.5 ms or 14 ms depending on what the neighbours do, in spells of 5 to 60 s
(README, "What the timings are").  A spell is as long as a run, so no
statistic of a run's wall times sees past it.  The harness therefore runs
`reference_loop` between the ops, and divides the wall time of an op by how
much slower than `REFERENCE_S` the loop ran around it.  The loop is not part
of the program, so a change to the program moves the op and not the loop.
"""

from __future__ import annotations

import statistics
from bisect import bisect_left, bisect_right
from time import perf_counter

#: What `reference_loop` takes on a calm host of the kind the benchmark was
#: sized on.  A constant: corrected seconds are seconds of a host on which the
#: loop takes this long, and equal wall seconds there.
REFERENCE_S = 1.5e-3
#: Share of an op's wall time that goes to reference samples after it.
REFERENCE_SHARE = 0.05
#: Samples this close to an interval speak for it.
WINDOW_S = 0.25


def reference_loop() -> None:
    """Dictionary updates and integer arithmetic: interpreter work, as the
    program's per-node Python is.  A NumPy kernel followed the program's
    slowdowns less closely, on the NumPy-heavy workloads too."""
    counts: dict[int, int] = {}
    for i in range(12_000):
        counts[i % 1000] = counts.get(i % 1000, 0) + i


class HostClock:
    """Reference samples with the time each was taken at."""

    def __init__(self) -> None:
        self.at: list[float] = []
        self.took: list[float] = []

    def sample(self, budget_s: float = 0.0) -> None:
        """One sample, and more until `budget_s` have been spent."""
        deadline = perf_counter() + budget_s
        while True:
            started = perf_counter()
            reference_loop()
            ended = perf_counter()
            self.at.append(started)
            self.took.append(ended - started)
            if ended >= deadline:
                return

    def after(self, elapsed_s: float) -> None:
        """The samples an op (a set-up) of `elapsed_s` is followed by."""
        self.sample(REFERENCE_SHARE * elapsed_s)

    def slowness(self, started: float, ended: float) -> float:
        """Median of the samples taken within `WINDOW_S` of [started, ended],
        over `REFERENCE_S`: 1.0 on a calm host, 1.5 when it runs at two
        thirds of its speed.  Callers sample before `started` and after
        `ended`, so the window is never empty."""
        low = bisect_left(self.at, started - WINDOW_S)
        high = bisect_right(self.at, ended + WINDOW_S)
        return statistics.median(self.took[low:high]) / REFERENCE_S
