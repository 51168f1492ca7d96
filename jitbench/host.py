"""Host-speed correction of the benchmark's wall times.

The benchmark runs on a few cores of a shared machine.  Its speed
drifts with the neighbours' load: a fixed CPU loop runs up to 1.7x
slower for a minute at a time, and every timing of the program moves
with it.  A fixed pure-Python probe, timed right before and right after
each timed operation, follows that drift.  An operation's *corrected*
time is its wall time divided by the host's slowdown around it (the
median probe loop before and after it, over ``PROBE_NOMINAL_S``): the
time the operation would take while the probe runs at its nominal
speed.  A change to the program moves its corrected times; a change of
the host's speed mostly does not.  The raw wall times and slowdowns are
printed with each run's metadata (see ``run.py``).
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass

#: iterations of one probe loop (about 8.5 ms on a quiet 2 GHz Xeon vCPU)
PROBE_LOOPS = 150_000
#: probe loops before and after each timed operation
PROBE_REPEATS = 4
#: one probe loop's time on a quiet 2 GHz Xeon vCPU
PROBE_NOMINAL_S = 0.0085


def probe_loops() -> list[float]:
    """Seconds of each of ``PROBE_REPEATS`` fixed loops."""
    times = []
    for _ in range(PROBE_REPEATS):
        t0 = time.perf_counter()
        total = 0
        for i in range(PROBE_LOOPS):
            total += i * i
        times.append(time.perf_counter() - t0)
    return times


def slowdown(before: list[float], after: list[float]) -> float:
    """The host's slowdown around an operation: the median probe loop
    before and after it, over the loop's nominal time."""
    return statistics.median(before + after) / PROBE_NOMINAL_S


@dataclass(frozen=True)
class Timing:
    """Wall time of one operation and the host's slowdown around it."""

    wall_s: float
    #: see ``slowdown``
    slowdown: float

    @property
    def corrected_s(self) -> float:
        return self.wall_s / self.slowdown


class Stopwatch:
    """Times one operation between two probes::

        with Stopwatch() as watch:
            operation()
        watch.timing
    """

    timing: Timing | None = None

    def __enter__(self) -> Stopwatch:
        self._before = probe_loops()
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        wall = time.perf_counter() - self._t0
        self.timing = Timing(wall, slowdown(self._before, probe_loops()))
