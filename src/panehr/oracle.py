"""Formula-independent ground truth: direct lattice-point counts.

Counts integer points in dilates of the panhandle, hypersimplex, and
sliced (paving) polytopes.  The panhandle and hypersimplex counts
convolve rows of bounded coordinate sums.  The sliced count is a dynamic
program over Venn atoms, the groups of coordinates lying in the same
cuts: it drops a cut's sum once the cut's last atom is counted and counts
the atom outside every cut last, and it holds for any family of cuts, not
only for the hyperplanes of a paving matroid.  A state's key is one int
whose base-(cap+1) digit c is open cut c's running sum, cap = (r-1)*t:
an open cut is bounded by cap and a cut starts from a sum of at most cap,
so no key digit carries.  Each state packs its counts by running total
into one int, as base-2^w digits with w = n*bitlen(t+1) + 1: a digit
counts vectors in [0, t]^k for some k <= n, so it stays below
(t+1)^n < 2^w and never carries, and one big-int product does a whole
transition exactly.  It walks an atom that lies in one cut only after
the cut's other atoms, so that atom closes the cut with one product per
state, and it reads its answer off one more product with the row of the
coordinates in no cut.  The walk (atoms, their order, and which cuts
each atom bounds, closes or grows) depends on n and the cut list alone,
so it is planned once per family and reused at every dilation t.  The
rows of bounded coordinate sums are memoized: one tuple per (k, t) the
process has counted, of at most k*t + 1 ints.  No count shares code with
the closed-form engine, so agreement between the two is a real
certificate.  Counts become polynomials through
exactmath.interpolate (re-exported here), the routine the closed forms
use too, so the evidence of an agreement is the counts themselves.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

from .exactmath import interpolate  # re-exported as oracle.interpolate


@lru_cache(maxsize=None)
def _bounded_sum_counts(coords: int, cap: int) -> tuple[int, ...]:
    """counts[j] = number of vectors in [0, cap]^coords with coordinate sum j.

    Memoized: one shared tuple per (coords, cap), so no caller can change it.
    """
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
    return tuple(counts)


@lru_cache(maxsize=None)
def _packed_row(coords: int, cap: int, width: int) -> int:
    """_bounded_sum_counts(coords, cap) as the base-2^width digits of one int."""
    packed = 0
    for count in reversed(_bounded_sum_counts(coords, cap)):
        packed = packed << width | count
    return packed


def count_points_panhandle(r: int, s: int, n: int, t: int) -> int:
    """Integer points of the t-dilated panhandle polytope.

    The polytope is cut out by 0 <= x_i <= t, sum of all coordinates
    equal to r*t, and the sum of the last n-s coordinates at most t.
    Counted by convolving coordinate ranges, splitting at coordinate s.
    A rank r < 1 and a split s outside [0, n] are rejected.
    """
    if t < 0:
        raise ValueError("dilation factor must be nonnegative")
    if r < 1:
        raise ValueError(f"need rank r >= 1, got r={r}")
    if not 0 <= s <= n:
        raise ValueError(f"need 0 <= s <= n, got s={s}, n={n}")
    total = r * t
    head = _bounded_sum_counts(s, t)
    tail = _bounded_sum_counts(n - s, t)
    out = 0
    for tail_sum in range(min(t, total) + 1):
        head_sum = total - tail_sum
        if head_sum < len(head) and tail_sum < len(tail):
            out += head[head_sum] * tail[tail_sum]
    return out


@lru_cache(maxsize=256)
def _walk_plan(n: int, cuts: tuple[frozenset[int], ...]) -> tuple[int, tuple[tuple, ...]]:
    """The walk of count_points_paving: (coordinates in no cut, atoms in order).

    Each atom is (size, enters, bounded, grows): its number of
    coordinates; whether it lies in a cut that no earlier atom opened;
    (cut, closes) for each open cut it lies in, closes being true at the
    cut's last atom; and the cuts it lies in that stay open after it.  The
    plan depends on n and the cut list alone, so one plan serves every
    dilation and rank of a family.  Cuts that are not proper subsets of
    [1..n] raise ValueError, on every call, as lru_cache stores no
    exception.
    """
    for h in cuts:
        if not h <= set(range(1, n + 1)) or len(h) >= n:
            raise ValueError(f"hyperplane {sorted(h)} is not a proper subset of [1..{n}]")
    atoms: dict[frozenset[int], int] = {}
    for coord in range(1, n + 1):
        sig = frozenset(c for c, h in enumerate(cuts) if coord in h)
        atoms[sig] = atoms.get(sig, 0) + 1
    outside = atoms.pop(frozenset(), 0)
    # any walk order gives the same count; an atom in one cut only goes
    # last in that cut, where it closes the cut by one product per state
    order = sorted(atoms, key=lambda sig: sorted(sig) + [len(cuts)] * (len(sig) == 1))
    last = {c: k for k, sig in enumerate(order) for c in sig}
    walk = []
    open_cuts: set[int] = set()
    for k, sig in enumerate(order):
        grows = tuple(c for c in sorted(sig) if last[c] > k)
        walk.append((atoms[sig], not sig <= open_cuts,
                     tuple((c, last[c] == k) for c in sorted(sig & open_cuts)), grows))
        open_cuts = (open_cuts | set(grows)) - {c for c in sig if last[c] == k}
    return outside, tuple(walk)


def count_points_paving(r: int, n: int, hyperplanes: Sequence[frozenset[int]],
                        t: int) -> int:
    """Integer points of the t-dilated hypersimplex sliced by hyperplane cuts.

    Each listed subset H of [n] imposes the cut sum_{i in H} x_i <= (r-1)*t
    (a hyperplane has rank r-1).  An empty list gives the hypersimplex
    count.  The count holds for any family of proper subsets, overlapping,
    nested, repeated or empty cuts alike, not only for the stressed
    hyperplanes of a paving matroid.  A rank r < 1 is rejected.

    Counted by dynamic programming over Venn atoms.  The coordinates are
    grouped by the set of cuts they lie in; inside such an atom only the
    coordinate sum matters, and an atom of k coordinates contributes the
    row _bounded_sum_counts(k, t), memoized as one tuple per (k, t).  The
    atoms in at least one cut are walked one by one, sorted by their cuts,
    with an atom that lies in one cut only put after every other atom of
    that cut (any order gives the same count).  The walk is planned once
    per (n, cut list) by the lru_cached _walk_plan: the atoms in order and,
    for each, its size, whether it enters a cut, the open cuts it lies in
    (and which of them it closes), and the cuts it grows or opens.

    A state is the running sum of every open cut (one with some but not
    all of its atoms counted), keyed as one int whose base-(cap+1) digit c
    is cut c's sum, cap = (r-1)*t; a cut not open has digit 0.  No key
    digit carries: a cut that stays open through an atom it lies in bounds
    that atom's sum y by its room, cap minus its digit, and a cut entered
    at an atom starts at y <= cap, so every digit stays in 0..cap.  So an
    atom's transition for y adds y times the sum of (cap+1)^c over the cuts
    it grows or opens, closing a cut subtracts its digit, and the room is
    read off the digits of the bounded cuts by integer division.

    A state holds its counts by running total 0..r*t, packed into one int
    whose base-2^w digits they are, with w = n*bitlen(t+1) + 1.  Every
    digit counts vectors in [0, t]^k for some k <= n, so it stays below
    (t+1)^n < 2^w and never carries into the next: adding y to the running
    total is a shift by w*y bits, an atom's transition is one product
    row[y] * packed per (state, y), and digits above r*t are masked off
    once the atoms counted so far can reach them.  An atom that only
    closes cuts sends every y to the same state, so there the transition
    is one product with the atom's packed row masked to digits 0..room; an
    atom in one cut only is such an atom, as it comes last in its cut.
    Once a cut's last atom is counted its digit leaves the key, so states
    that differ only there merge.  The coordinates in no cut are counted
    last, by one product of the final state with their row packed the same
    way: digit r*t of the product is the count.  Each digit of that
    product counts vectors in [0, t]^n, so it too stays below 2^w and no
    digit carries into the next.
    """
    if t < 0:
        raise ValueError("dilation factor must be nonnegative")
    if r < 1:
        raise ValueError(f"need rank r >= 1, got r={r}")
    outside, walk = _walk_plan(n, tuple(frozenset(h) for h in hyperplanes))
    total = r * t
    cap = (r - 1) * t
    base = cap + 1  # key digit c: open cut c's running sum, 0..cap
    w = n * (t + 1).bit_length() + 1  # count digit width: no digit reaches 2^w
    keep = (1 << w * (total + 1)) - 1  # count digits 0..r*t
    states: dict[int, int] = {0: 1}
    counted = 0
    for size, enters, bounded, grows in walk:
        counted += size
        row = _bounded_sum_counts(size, t)
        top = min(size * t, cap if enters else total)
        reads = [(base ** c, closes) for c, closes in bounded]
        step = sum(base ** c for c in grows)
        packed_row = 0 if step else _packed_row(size, t, w)
        nxt: dict[int, int] = {}
        for key, packed in states.items():
            room = top
            nk = key
            for p, closes in reads:
                d = key // p % base
                if cap - d < room:
                    room = cap - d
                if closes:
                    nk -= d * p
            if step:
                for weight in row[:room + 1]:
                    nxt[nk] = nxt.get(nk, 0) + weight * packed
                    packed <<= w
                    nk += step
            else:
                # the atom only closes cuts, so every y lands in one state:
                # one product with the row's digits 0..room
                nxt[nk] = nxt.get(nk, 0) + (packed_row & (1 << w * room + w) - 1) * packed
        states = {key: packed & keep for key, packed in nxt.items()} if counted * t > total else nxt
    # the coordinates in no cut: digit r*t of one product with their row
    (packed,) = states.values()
    return (packed * _packed_row(outside, t, w) >> w * total) & ((1 << w) - 1)
