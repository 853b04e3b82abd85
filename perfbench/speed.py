"""Correction for the host's changing speed.

On a shared machine the same pure-Python work can take 25 % more or less
time from one five-second stretch to the next, far more than the changes
the benchmark is meant to detect.  So a timed region is cut into segments
about PROBE_EVERY_S long, separated by a short fixed probe loop, and each
segment's time is scaled by REFERENCE_PROBE_S over the median of the
probes around it.  The results are seconds at the speed at which the
probe takes REFERENCE_PROBE_S (the typical speed of the 2-core machine the
benchmark was written on); raw times are kept alongside.  The probe runs
with the garbage collector off, so the heap the program leaves behind
does not change the probe's cost.
"""

from __future__ import annotations

import gc
import statistics
import time
from fractions import Fraction

_clock = time.perf_counter

PROBE_EVERY_S = 0.2
REFERENCE_PROBE_S = 0.0075


def probe() -> float:
    """Seconds taken by a fixed loop of Fraction, tuple and dict work."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = _clock()
        acc = Fraction(0)
        seen: dict = {}
        for i in range(1, 700):
            acc += Fraction(i, i + 7) * Fraction(3 * i + 1, 2 * i + 5)
            key = tuple(sorted((i % 7, i % 11, i % 13)))
            seen[key] = seen.get(key, 0) + 1
        return _clock() - start
    finally:
        if enabled:
            gc.enable()


class Timeline:
    """A timed region cut into probe-separated segments."""

    def __init__(self, probe_fn=probe) -> None:
        self._probe = probe_fn
        self.probes = [self._probe()]
        self.segments: list[tuple[float, float]] = []
        self._start = _clock()

    @property
    def current(self) -> int:
        """Index of the segment now being timed."""
        return len(self.segments)

    def tick(self) -> None:
        """Call between requests: probes once the segment is long enough."""
        if _clock() - self._start >= PROBE_EVERY_S:
            self._cut()

    def close(self) -> None:
        self._cut()

    def _cut(self) -> None:
        self.segments.append((self._start, _clock()))
        self.probes.append(self._probe())
        self._start = _clock()

    def factor(self, segment: int) -> float:
        """Scale from raw seconds in a segment to reference seconds: the
        median of the probes at its ends and at its neighbours' far ends,
        so that one disturbed probe does not skew a whole segment."""
        nearby = self.probes[max(0, segment - 1):segment + 3]
        return REFERENCE_PROBE_S / statistics.median(nearby)

    def raw_wall(self) -> float:
        return sum(end - start for start, end in self.segments)

    def wall(self) -> float:
        return sum((end - start) * self.factor(i)
                   for i, (start, end) in enumerate(self.segments))
