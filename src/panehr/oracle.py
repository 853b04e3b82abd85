"""Formula-independent ground truth: direct lattice-point counts.

Counts integer points in dilates of the panhandle, hypersimplex, and
sliced (paving) polytopes by dynamic programming over coordinates.  No
count shares code with the closed-form engine, so agreement between the
two is a real certificate.  Counts become polynomials through
exactmath.interpolate (re-exported here), the routine the closed forms
use too, so the evidence of an agreement is the counts themselves.
"""

from __future__ import annotations

from typing import Sequence

from .exactmath import interpolate  # re-exported as oracle.interpolate


def _bounded_sum_counts(coords: int, cap: int) -> list[int]:
    """counts[j] = number of vectors in [0, cap]^coords with coordinate sum j."""
    counts = [1]
    for _ in range(coords):
        out = [0] * (len(counts) + cap)
        # sliding window sum of width cap+1 over the previous row
        acc = 0
        for j in range(len(out)):
            if j < len(counts):
                acc += counts[j]
            if 0 <= j - cap - 1 < len(counts):
                acc -= counts[j - cap - 1]
            out[j] = acc
        counts = out
    return counts


def count_points_panhandle(r: int, s: int, n: int, t: int) -> int:
    """Integer points of the t-dilated panhandle polytope.

    The polytope is cut out by 0 <= x_i <= t, sum of all coordinates
    equal to r*t, and the sum of the last n-s coordinates at most t.
    Counted by convolving coordinate ranges, splitting at coordinate s.
    """
    if t < 0:
        raise ValueError("dilation factor must be nonnegative")
    total = r * t
    head = _bounded_sum_counts(s, t)
    tail = _bounded_sum_counts(n - s, t)
    out = 0
    for tail_sum in range(min(t, total) + 1):
        head_sum = total - tail_sum
        if head_sum < len(head) and tail_sum < len(tail):
            out += head[head_sum] * tail[tail_sum]
    return out


def count_points_paving(r: int, n: int, hyperplanes: Sequence[frozenset[int]],
                        t: int) -> int:
    """Integer points of the t-dilated hypersimplex sliced by hyperplane cuts.

    Each listed subset H of [n] imposes the cut sum_{i in H} x_i <= (r-1)*t
    (a hyperplane has rank r-1).  An empty list gives the hypersimplex
    count.  Counted by dynamic programming whose state tracks the running
    total and the running sum inside each listed subset.
    """
    if t < 0:
        raise ValueError("dilation factor must be nonnegative")
    cuts = [frozenset(h) for h in hyperplanes]
    for h in cuts:
        if not h <= set(range(1, n + 1)) or len(h) >= n:
            raise ValueError(f"hyperplane {sorted(h)} is not a proper subset of [1..{n}]")
    total = r * t
    cap = (r - 1) * t
    states: dict[tuple[int, ...], int] = {(0,) * (len(cuts) + 1): 1}
    for coord in range(1, n + 1):
        member = [coord in h for h in cuts]
        nxt: dict[tuple[int, ...], int] = {}
        for key, cnt in states.items():
            for x in range(t + 1):
                tot = key[0] + x
                if tot > total:
                    break
                sums = list(key)
                sums[0] = tot
                ok = True
                for idx, inside in enumerate(member):
                    if inside:
                        sums[idx + 1] += x
                        if sums[idx + 1] > cap:
                            ok = False
                            break
                if not ok:
                    continue
                nk = tuple(sums)
                nxt[nk] = nxt.get(nk, 0) + cnt
        states = nxt
    return sum(cnt for key, cnt in states.items() if key[0] == total)
