"""Order statistics used by the benchmark.

Percentiles use the nearest-rank rule on the sorted samples.  A percentile
is only reported when at least MIN_BEYOND samples lie beyond it, so a tail
figure is never read off a handful of values.
"""

from __future__ import annotations

import math
import statistics
from typing import Sequence

MIN_BEYOND = 10
LADDER = (50, 90, 99, 99.9)


def rank(n: int, p: float) -> int:
    """1-based nearest rank of percentile p among n samples."""
    return max(1, math.ceil(p * n / 100))


def samples_beyond(n: int, p: float) -> int:
    """Number of samples strictly above the p-th percentile's rank."""
    return n - rank(n, p)


def percentile(samples: Sequence[float], p: float) -> float:
    """Nearest-rank p-th percentile."""
    return sorted(samples)[rank(len(samples), p) - 1]


def tail_percentile(samples: Sequence[float], p: float) -> float:
    """percentile(), refused unless MIN_BEYOND samples lie beyond it."""
    beyond = samples_beyond(len(samples), p)
    if beyond < MIN_BEYOND:
        raise ValueError(f"p{p} of {len(samples)} samples has only {beyond} "
                         f"beyond it, {MIN_BEYOND} needed")
    return percentile(samples, p)


def highest_percentile(n: int, ladder: Sequence[float] = LADDER):
    """The highest percentile of the ladder with MIN_BEYOND samples beyond
    it among n samples, or None when even the lowest has too few."""
    allowed = [p for p in ladder if samples_beyond(n, p) >= MIN_BEYOND]
    return max(allowed) if allowed else None


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def relative_spread(values: Sequence[float]) -> float:
    """Distance between the first and third quartile, over the median."""
    q1, mid, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / mid
