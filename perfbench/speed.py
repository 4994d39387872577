"""Machine-speed reference interleaved with the jobs.

Shared hosts drift: on a 2-core VM, a fixed pure-Python loop was seen to
slow by 40% within one minute, with neither steal time nor lost CPU time to
show for it, so wall time and CPU time drift together.  Reported times are
therefore *calibrated seconds*: each measured time is multiplied by
``REFERENCE_S / r``, where ``r`` is the median time of a fixed reference loop
run between jobs within ``WINDOW_S`` of that measurement.  The reference loop
does what the program does most -- allocate small objects, link them,
traverse them -- and touches no program code, so a change to the program
cannot move it.
"""

from __future__ import annotations

import bisect
import gc
import statistics
import time

REFERENCE_S = 0.0035  # the loop's time at the speed calibrated seconds refer to
INTERVAL_S = 0.1
WINDOW_S = 1.0
_CELLS = 8000


class _Cell:
    __slots__ = ("value", "link")

    def __init__(self, value, link):
        self.value = value
        self.link = link


def reference_seconds() -> float:
    """One timing of the reference loop, with the collector held off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        head = None
        for i in range(_CELLS):
            head = _Cell(i, head)
        total = 0
        while head is not None:
            total += head.value
            head = head.link
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class SpeedClock:
    """Samples the reference loop and converts wall seconds to calibrated."""

    def __init__(self):
        self.times: list[float] = []
        self.refs: list[float] = []

    def tick(self, force: bool = False) -> None:
        """Samples the loop if ``INTERVAL_S`` has passed since the last sample."""
        now = time.perf_counter()
        if force or not self.times or now - self.times[-1] >= INTERVAL_S:
            ref = reference_seconds()
            self.times.append(time.perf_counter())
            self.refs.append(ref)

    def scale(self, at: float) -> float:
        """Calibrated seconds per wall second around time ``at``."""
        lo = bisect.bisect_left(self.times, at - WINDOW_S)
        hi = bisect.bisect_right(self.times, at + WINDOW_S)
        if lo == hi:  # no sample in the window: use the nearest one
            i = min(max(bisect.bisect_left(self.times, at), 0), len(self.times) - 1)
            lo, hi = i, i + 1
        return REFERENCE_S / statistics.median(self.refs[lo:hi])
