"""The processing map on valued distinguished forests, and its machinery.

The map phi takes a valued A-distinguished forest, leaves the A part
untouched, and repeatedly rewrites the non-A part: each iteration picks
the leftmost block that still has a positive value and an unprocessed
element, cyclically shifts the elements of that block and everything to
its right one step along the evolving order L, moves the block's leader
to the end of L, marks it processed, and decrements the block value.  The
net effect converts block values into block weight while preserving the
block length sequence.

Every iteration is reversible, which makes phi a bijection onto an
explicitly characterized image (image_check).  The sign-reversing map
involution_f pairs off distinguished forests with an odd number of A
blocks against those with an even number, which is the cancellation that
reduces the alternating closed form to an honest count.

One private kernel, _Run, carries every run, forward and backward.  It
holds the non-A part as one flat element list with fixed block offsets
(a step keeps every block length, so only the element at a position
changes), the block values, a processed flag per element, and a rank per
element whose increasing order is L.  A step sorts only the shifted tail
by rank and rewrites it in place, and moving the leader to the end of L
is one rank assignment; an unstep does the same with the canonical rank
x + size * processed.  An AlgorithmState is built only for a trace or for
a caller of process_step, reverse_step, reconstruct_state or
run_processing; process_step and reverse_step load the caller's snapshot,
its own order L included, and take one step.

Where each check runs, every one an explicit raise that stays on under
python -O: _Run.step raises when the leader is not minimal in the shifted
tail and when elements are not processed in increasing order, then checks
the four step invariants (leaders increasing along L, each leader minimal
in its block along L, every weight contributor processed, every processed
element a weight contributor or in an all-processed block) on every
block, after every step.  _Run.run checks that processed count plus
remaining values is conserved, _run_forward checks the block length
sequence, _Run.unstep raises the four ReverseErrors of reverse_step, and
reconstruct_state the three of the split-index search.  The shape rules
of a valued forest (one value per block, values ints, values
nonnegative, blocks nonempty and disjoint, elements positive ints) live
in forests._shape_violation: check_distinguished raises on them,
image_check rejects as condition 0, and _Run.load, _reconstruct and
run_processing raise ValueError.  _Run.load holds a snapshot's P and L
to the same int rule, and to the blocks' elements.  _phi and
_Run.__init__ take inputs already checked.

phi, positive_side, involution_f and phi_inverse run the kernel through
two bounded memos (_memoized), keyed by the order pattern of the non-A
part: its blocks relabelled onto 1..k in the same relative order, its
values, and for a reversal j and q1.  So the kernel's checks run once
per distinct pattern, and a hit maps the stored result back onto the
caller's elements.  That is exact because every comparison the kernel
makes is an order comparison: elements against each other, against the
empty stack's 0, and ranks that are x, x + size or above 2 * size, so a
run on positive ints x1 < ... < xk takes the steps, raises the errors and
leaves the result of the run on 1..k, relabelled.  The memos keep one
copy of each blocks and values tuple (_SHARED); j and q1 are stored as
given.  A run that raises is not stored.  The traces and snapshot entry
points (phi_trace, run_processing, process_step, reverse_step,
reconstruct_state, reverse_trace) always run the kernel.

The image candidates of a ground-set size s are built from frames
(_image_frames), one walk of forests' partition walker per s that fixes
each candidate's blocks, A, leading zero values, number of free values
and base budget; every budget q only spreads q - base over the free
values, and the frames of the last four s are cached.
The pairing battery (campaigns.run_involution) checks each streamed
forest once, through involution_f on the minus side and positive_side
elsewhere, and certifies a pairing image by finding it among the
streamed forests positive_side accepted, not by classifying it again.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from typing import Collection, Iterator, NamedTuple, Optional

from .forests import (
    Distinguished,
    Forest,
    Valued,
    _INTS,
    _a_split,
    _cf_skeletons,
    _check_pair,
    _is_min_led,
    _led_partitions,
    _leader_position_ok,
    _leader_starts,
    _orders,
    _shape_violation,
    block_weight,
    check_distinguished,
    compositions,
    distinguished_block_count,
    flatten,
    format_valued,
    gamma,
    is_naturally_ordered,
)


class AlgorithmState(NamedTuple):
    """One snapshot of the iteration on the non-distinguished part.

    order is the evolving total order L over the elements (a permutation);
    processed is the set P of already processed elements.
    """

    blocks: Forest
    values: tuple[int, ...]
    processed: frozenset[int]
    order: tuple[int, ...]


class ReverseError(ValueError):
    """The snapshot does not arise from a run with the stated budget."""


def initial_state(valued: Valued) -> AlgorithmState:
    elements = sorted(flatten(valued.blocks))
    return AlgorithmState(valued.blocks, valued.values, frozenset(), tuple(elements))


class _Run:
    """The non-A part of one run of the processing map, held mutably.

    elems is the forest flattened; block i is elems[a:b] for (a, b) =
    bounds[i], and the offsets never move because a step keeps every
    block length.  values lists the block values, done[x] says whether the
    element x is processed, stack lists the processed elements in
    increasing order, and L lists the elements by increasing rank[x].  A
    step gives its leader the next rank top, which puts it at the end of L;
    an unstep keeps the canonical rank x + size * done[x], with size =
    len(done): unprocessed elements, then processed ones, each in natural
    order.  Elements are positive ints, as the shape rule requires.
    """

    __slots__ = ("elems", "bounds", "values", "done", "rank", "top", "stack")

    def __init__(self, blocks: Forest, values, processed: Collection[int] = ()) -> None:
        self.elems = elems = [x for b in blocks for x in b]
        self.bounds = bounds = []
        a = 0
        for block in blocks:
            bounds.append((a, a + len(block)))
            a += len(block)
        self.values = list(values)
        size = max(elems, default=0) + 1
        self.done = done = [False] * size
        self.rank = rank = list(range(size))  # the canonical rank
        for x in processed:
            done[x] = True
            rank[x] += size
        self.stack = sorted(processed)
        self.top = 2 * size

    @classmethod
    def load(cls, state: AlgorithmState) -> "_Run":
        """A run resumed from a snapshot, with the snapshot's own order L.
        P and L hold ints, as the shape rule's elements do: P some of the
        blocks' elements, L a permutation of them."""
        if violation := _shape_violation(state.blocks, state.values):
            raise ValueError(violation)
        elements = sorted(flatten(state.blocks))
        processed, order = state.processed, state.order
        if not _INTS.issuperset(map(type, processed)) or not set(elements).issuperset(processed):
            raise ValueError("processed set P holds elements outside the blocks")
        if not _INTS.issuperset(map(type, order)) or sorted(order) != elements:
            raise ValueError("order L is not a permutation of the blocks' elements")
        run = cls(state.blocks, state.values, processed)
        for i, x in enumerate(order):
            run.rank[x] = i
        return run

    @classmethod
    def at_split(cls, blocks: Forest, values, j: int) -> "_Run":
        """The snapshot whose last j blocks are processed completely: P is
        the weight contributors plus the elements of those blocks, and L is
        canonical."""
        processed = [x for b in blocks[:len(blocks) - j] for x in b if x < b[0]]
        processed += [x for b in blocks[len(blocks) - j:] for x in b]
        return cls(blocks, values, processed)

    def blocks(self) -> Forest:
        elems = self.elems
        return tuple([tuple(elems[a:b]) for a, b in self.bounds])

    def snapshot(self) -> AlgorithmState:
        return AlgorithmState(self.blocks(), tuple(self.values), frozenset(self.stack),
                              tuple(sorted(self.elems, key=self.rank.__getitem__)))

    def all_done(self, i: int) -> bool:
        a, b = self.bounds[i]
        return all(map(self.done.__getitem__, self.elems[a:b]))

    def _shift(self, a: int, step: int) -> list[int]:
        """Move every element from position a on by step places, cyclically,
        along L; returns those elements sorted by L, before the move."""
        elems = self.elems
        tail = elems[a:]
        tail.sort(key=self.rank.__getitem__)
        shift = dict(zip(tail, tail[step:] + tail[:step]))
        elems[a:] = map(shift.__getitem__, elems[a:])
        return tail

    def step(self) -> bool:
        """Apply one iteration, then check the step invariants on every
        block; False, with nothing changed, when no block still has a
        positive value and an unprocessed element."""
        values, bounds, elems, done = self.values, self.bounds, self.elems, self.done
        for target in range(len(values)):
            if values[target] > 0:
                a, b = bounds[target]
                if not all(map(done.__getitem__, elems[a:b])):
                    break
        else:
            return False
        leader = elems[a]
        if self._shift(a, 1)[0] != leader:
            raise AssertionError("leader is not minimal among the shifted elements")
        values[target] -= 1
        stack = self.stack
        if (stack[-1] if stack else 0) >= leader:
            raise AssertionError("elements are not processed in increasing order")
        stack.append(leader)
        done[leader] = True
        self.rank[leader] = self.top
        self.top += 1
        self._check_invariants()
        return True

    def _check_invariants(self) -> None:
        """The invariants that hold after every iteration, on every block;
        each raises AssertionError and stays on under python -O.
        A block that is not all processed must have exactly its weight
        contributors (the elements below its leader) processed."""
        elems, done, rank = self.elems, self.done, self.rank
        disordered = unled = weighted = stray = False
        prev = -1
        for a, b in self.bounds:
            first = rank[elems[a]]
            if first <= prev:
                disordered = True
            prev = first
            if b - a == 1:
                continue  # led by its minimum, and processed as a whole or not
            block = elems[a:b]
            leader = block[0]
            if min(map(rank.__getitem__, block)) != first:
                unled = True
            if not all(map(done.__getitem__, block)):
                for x in block:
                    if done[x] != (x < leader):
                        if x < leader:
                            weighted = True
                        else:
                            stray = True
        if disordered:
            raise AssertionError("blocks are not increasing by leader in the current order")
        if unled:
            raise AssertionError(
                "a block leader is not minimal in its block under the current order")
        if weighted:
            raise AssertionError("an unprocessed element contributes weight")
        if stray:
            raise AssertionError("a processed element neither contributes weight "
                                 "nor sits in an all-processed block")

    def run(self, trail: Optional[list[AlgorithmState]] = None) -> None:
        """Step to the fixed point, appending each new snapshot to trail.

        Processed count plus remaining values is conserved: each step must
        process one more element, and at the fixed point the values must
        have dropped by the number of steps."""
        stack, values = self.stack, self.values
        processed = len(stack)
        budget = processed + sum(values)
        while self.step():
            processed += 1
            if len(stack) != processed:
                raise AssertionError("processed count plus remaining values is not conserved")
            if trail is not None:
                trail.append(self.snapshot())
        if processed + sum(values) != budget:
            raise AssertionError("processed count plus remaining values is not conserved")

    def unstep(self, q1: int) -> None:
        """Undo one iteration of a run with value budget q1."""
        stack, values, done = self.stack, self.values, self.done
        if not stack:
            raise ReverseError("nothing to reverse: no processed elements")
        if len(stack) + sum(values) != q1:
            raise ReverseError("snapshot does not match the stated budget")
        p = stack[-1]
        for target, (a, _) in enumerate(self.bounds):
            leader = self.elems[a]
            if (leader > p and not done[leader]) or (leader <= p and done[leader]):
                break
        else:
            raise ReverseError("no block qualifies as the reversal site")
        if self._shift(a, -1)[-1] != p:
            raise ReverseError("last processed element is not maximal in the tail")
        values[target] += 1
        stack.pop()
        done[p] = False
        self.rank[p] = p


def process_step(state: AlgorithmState) -> Optional[AlgorithmState]:
    """Apply one iteration; returns None when no block is eligible.

    A block is eligible when it still contains an unprocessed element and
    its value is positive.  The step follows the snapshot's own order L.
    """
    run = _Run.load(state)
    return run.snapshot() if run.step() else None


def run_processing(valued: Valued, collect: bool = False
                   ) -> tuple[AlgorithmState, list[AlgorithmState]]:
    """Run to the fixed point; returns its snapshot and, if collect, all."""
    if violation := _shape_violation(valued.blocks, valued.values):
        raise ValueError(violation)
    run = _Run(valued.blocks, valued.values)
    trail = [run.snapshot()] if collect else None
    run.run(trail)
    return run.snapshot(), trail or []


# The runs of phi and of its reversal, by the order pattern of the non-A
# part (_memoized).  Each memo, and the table that keeps one copy of each
# blocks and values tuple they hold, is cleared when it would hold more
# than this many entries.  verify phi then verify involution at their
# defaults (s <= 6, q <= 4) meet 24 147 patterns per direction, which add
# about 8 MB to the process's peak RSS; the enumerate benchmark's grid
# (s <= 4, q <= 6) meets 1 289.
_MEMO_BOUND = 1 << 15
_FORWARD: dict = {}
_BACKWARD: dict = {}
# verify phi then verify involution peak at 50.2 MB with these three
# dicts, 67.9 MB with two lru_cache kernels and no sharing, and 56 MB with
# an lru-based table in place of this one
_SHARED: dict = {}


def _memoized(memo: dict, kernel, blocks: Forest, values, *extra) -> tuple:
    """kernel(blocks, values, *extra), which returns the blocks it leaves,
    their values and more, on the caller's elements: run once per order
    pattern.  The blocks hold distinct positive ints, as the shape rule
    requires."""
    r = len(values)
    flat = sorted([x for b in blocks for x in b])
    # k distinct positive ints up to k are 1..k already; relabelling them
    # too made a warm enumerate pass about 9 % slower
    if not flat or flat[-1] == len(flat):
        key, order = (*map(tuple, blocks), values, *extra), None
    else:
        flat.insert(0, 0)
        label = dict(zip(flat, range(len(flat)))).__getitem__
        key, order = (*[tuple(map(label, b)) for b in blocks], values, *extra), flat
    entry = memo.get(key)
    if entry is None:
        entry = kernel(key[:r], values, *extra)
        if len(memo) >= _MEMO_BOUND:
            memo.clear()
        if len(_SHARED) + 2 * (r + 1) > _MEMO_BOUND:
            _SHARED.clear()
        share = _SHARED.setdefault
        memo[(*[share(t, t) for t in key[:r + 1]], *extra)] = entry = (
            *[share(t, t) for t in entry[:r + 1]], *entry[r + 1:])
    if order is None:
        return entry
    element = order.__getitem__
    return (*[tuple(map(element, b)) for b in entry[:r]], *entry[r:])


def _run_forward(blocks: Forest, values) -> tuple:
    """The blocks and values of the kernel's fixed point on a checked
    non-A part, then its split index j: the number of trailing blocks
    processed fully."""
    run = _Run(blocks, values)
    run.run()
    out = run.blocks()
    if tuple(map(len, out)) != tuple(map(len, blocks)):
        raise AssertionError("block length sequence not preserved")
    j = 0
    while j < len(blocks) and run.all_done(len(blocks) - 1 - j):
        j += 1
    return (*out, tuple(run.values), j)


def _phi(d: Distinguished, split: int) -> tuple[Distinguished, int]:
    """phi of a checked d whose A blocks start at split, and the image's
    split index j: the number of trailing non-A blocks processed fully."""
    run = _memoized(_FORWARD, _run_forward, d.blocks[:split], d.values[:split])
    return Distinguished(run[:split] + d.blocks[split:], run[split] + d.values[split:],
                         d.aset), run[split + 1]


def phi(d: Distinguished) -> Distinguished:
    """Run the processing algorithm on the non-A part of d.

    The input must be a valid valued A-distinguished forest; the A part
    and all block lengths are preserved, as is gamma at every position.
    """
    return _phi(d, check_distinguished(d))[0]


def trace_line(state: AlgorithmState) -> str:
    pset = "{" + ",".join(str(x) for x in sorted(state.processed)) + "}"
    lrow = "[" + ",".join(str(x) for x in state.order) + "]"
    return f"{format_valued(state.blocks, state.values)} | P={pset} | L={lrow}"


def phi_trace(d: Distinguished) -> list[str]:
    """Per-iteration log of the run on the non-A part of d."""
    split = check_distinguished(d)
    _, trail = run_processing(Valued(d.blocks[:split], d.values[:split]), collect=True)
    return [trace_line(st) for st in trail]


# ---------------------------------------------------------------------------
# reversal


def reconstruct_state(valued: Valued, q1: int) -> AlgorithmState:
    """Recover P and L for a snapshot of a run with total value budget q1.

    The split index j (number of trailing all-processed blocks) is the
    unique one balancing weight, block sizes, and remaining values against
    q1; P is then the weight contributors plus the elements of the last j
    blocks, and L lists unprocessed then processed elements, each in
    natural order.  Raises ReverseError when no split index works.
    """
    return _reconstruct(valued, q1).snapshot()


def _reconstruct(valued: Valued, q1: int) -> _Run:
    blocks, values = valued
    if violation := _shape_violation(blocks, values):
        raise ValueError(violation)
    r = len(blocks)
    weights = [block_weight(b) for b in blocks]
    j = _split_index(sum(weights) + sum(values),
                     [len(blocks[i]) - weights[i] for i in reversed(range(r))], q1)
    if j is None:
        raise ReverseError(f"no split index balances the budget {q1}")
    if not all(_is_min_led(b) for b in blocks[r - j:]):
        raise ReverseError("a trailing all-processed block has nonzero weight")
    run = _Run.at_split(blocks, values, j)
    if j < r and blocks[r - j - 1] and run.all_done(r - j - 1):
        raise ReverseError("split index inconsistent with the processed set")
    return run


def _split_index(lhs: int, moves: list[int], q: int) -> Optional[int]:
    """The first split index j with lhs + moves[0] + ... + moves[j-1] = q,
    or None.  lhs is the balance at j = 0, and moves[j] is what taking one
    more trailing block, the (j+1)-th from the end, as all processed adds:
    its size (plus its value) less its weight.  That is at least 1, since
    the leader is not below itself, so the balance grows with j and the
    search stops once it reaches q."""
    j = 0
    while lhs < q and j < len(moves):
        lhs += moves[j]
        j += 1
    return j if lhs == q else None


def reverse_step(state: AlgorithmState, q1: int) -> AlgorithmState:
    """Undo one iteration; inverse of process_step on genuine snapshots.

    The tail is shifted along the snapshot's own order L; the result
    carries the canonical order."""
    run = _Run.load(state)
    run.unstep(q1)
    return _Run(run.blocks(), run.values, run.stack).snapshot()


def reverse_trace(valued: Valued, q1: int) -> list[str]:
    """Log of the full reversal, starting from the given snapshot."""
    run = _reconstruct(valued, q1)
    lines = [trace_line(run.snapshot())]
    while run.stack:
        run.unstep(q1)
        lines.append(trace_line(run.snapshot()))
    return lines


# ---------------------------------------------------------------------------
# image characterization


class CheckResult(NamedTuple):
    """Outcome of an image membership test, as a NamedTuple; rejection is a
    value, and the record is truthy exactly when accepted."""

    accepted: bool
    j: Optional[int] = None
    reason: Optional[str] = None

    def __bool__(self) -> bool:
        return self.accepted


def _reject(reason: str) -> CheckResult:
    return CheckResult(False, None, reason)


def image_check(d: Distinguished, q: int, k: Optional[int] = None,
                ell: Optional[int] = None, m: Optional[int] = None,
                upper: bool = False) -> CheckResult:
    """Decide membership in the image of phi for budget q.

    Checks, in order: one nonnegative value per block and nonempty,
    disjoint blocks; the A blocks trail and are decreasing with minimal
    leaders; a split index j balances weights, trailing block sizes and
    values against q; the last j non-A blocks are naturally ordered with
    minimal leaders; the first r-j non-A blocks are naturally ordered
    with value 0.  With k, ell, m given, additionally requires k blocks
    and gamma(F, ell) = m.  With upper=True, also requires 1 to lie in
    the last block with value 0 and the leader of the (k-m+2)-th block to
    sit at position ell+2.
    """
    _check_pair(ell, m)
    if upper and ell is None:
        raise ValueError("upper image check needs ell and m")
    blocks, values, aset = d
    if violation := _shape_violation(blocks, values):
        return _reject(f"condition 0: {violation}")
    split, violation = _a_split(d)
    if violation:
        return _reject(f"condition 1: {violation}")
    bpart, cpart = blocks[:split], blocks[split:]

    if upper:
        if not cpart or 1 not in cpart[-1]:
            return _reject("upper condition: 1 is not in the last A block")
        if values[len(blocks) - 1] != 0:
            return _reject("upper condition: last A block has nonzero value")

    r = len(bpart)
    weights = [block_weight(b) for b in bpart]
    j = _split_index(len(aset) + sum(values[split:]) + sum(weights),
                     [len(bpart[i]) + values[i] - weights[i] for i in reversed(range(r))], q)
    if j is None:
        return _reject("condition 4: no split index balances the budget")
    if any(weights[r - j:]):  # weight 0 is a leader that is its block's minimum
        return _reject("condition 2: a trailing block leader is not its minimum")
    if not is_naturally_ordered(bpart[r - j:]):
        return _reject("condition 2: trailing blocks not increasing by leader")
    if not is_naturally_ordered(bpart[:r - j]):
        return _reject("condition 3: leading blocks not increasing by leader")
    if any(values[:r - j]):
        return _reject("condition 3: a leading block has nonzero value")

    if k is not None and len(blocks) != k:
        return _reject(f"condition 5: expected {k} blocks, found {len(blocks)}")
    if ell is not None and gamma(blocks, ell) != m:
        return _reject(f"condition 5: gamma at {ell} is {gamma(blocks, ell)}, expected {m}")
    if upper and not _leader_position_ok(_leader_starts(map(len, blocks)), m, ell):
        return _reject("upper condition: block leader not at the required position")
    return CheckResult(True, j, None)


def phi_inverse(d: Distinguished, q: int) -> Distinguished:
    """Unique preimage of d under phi for budget q.

    Rejects inputs that fail image_check.  Implemented by running the
    step reversal until no element remains processed.
    """
    verdict = image_check(d, q)
    if not verdict:
        raise ValueError(f"not in the image of phi: {verdict.reason}")
    blocks, values, aset = d
    # image_check has checked that the A blocks trail, so they are the
    # blocks from the last back while the leader is in A
    split = len(blocks)
    while split and blocks[split - 1][0] in aset:
        split -= 1
    q1 = q - len(aset) - sum(values[split:])
    # image_check found the split index and checked the trailing blocks
    run = _memoized(_BACKWARD, _run_backward, blocks[:split], values[:split], verdict.j, q1)
    return Distinguished(run[:split] + blocks[split:], run[split] + values[split:], aset)


def _run_backward(blocks: Forest, values, j: int, q1: int) -> tuple:
    """The snapshot of a run with budget q1 whose last j blocks are
    processed fully, reversed until no element remains processed: its
    blocks, then its values."""
    run = _Run.at_split(blocks, values, j)
    while run.stack:
        run.unstep(q1)
    return (*run.blocks(), tuple(run.values))


def enumerate_image_candidates(q: int, s: int) -> Iterator[Distinguished]:
    """Constructively enumerate everything image_check accepts for (q, s).

    Takes the frames of [s] (_image_frames) and spreads the budget left
    over by each one's base in every way over its last parts blocks,
    which by the characterization is exactly the image of phi on the
    budget-q distinguished forests.
    """
    for blocks, aset, zeros, parts, base in _image_frames(s):
        if base <= q:
            for comp in compositions(q - base, parts):
                yield Distinguished(blocks, zeros + comp, aset)


# the frames of one s serve a phi sweep over its budgets; the four last s
# are kept: the frames of s <= 4 take about 190 KiB, those of s = 6 about
# 11 MiB (37 633 frames), and each s multiplies them about ninefold
@lru_cache(maxsize=4)
def _image_frames(s: int) -> tuple[tuple[Forest, frozenset[int], tuple[int, ...], int, int], ...]:
    """The image of phi for every budget, less its values: each element of
    [s] goes to the leading blocks (naturally ordered, any leaders), the
    trailing blocks (min-led, increasing) or A (min-led, decreasing).  A
    frame (blocks, A, zeros, parts, base) stands for the value vectors
    zeros + c, c a composition of q - base into the trailing and A blocks,
    for every budget q >= base; base is the weight of the leading blocks
    plus the sizes of the trailing ones and of A."""
    frames = []
    for roles in product(range(3), repeat=s):
        lead, trail, a = ([e for e, role in enumerate(roles, 1) if role == part]
                          for part in range(3))
        aset = frozenset(a)
        tails = [t + c[::-1] for t, _ in _led_partitions(trail, trail)
                 for c, _ in _led_partitions(a, a)]
        for weight, led, *_ in _cf_skeletons(lead):
            zeros, base = (0,) * len(led), weight + len(trail) + len(a)
            for tail in tails:
                frames += [(blocks, aset, zeros, len(tail), base)
                           for blocks in _orders(led + tail)]
    return tuple(frames)


# ---------------------------------------------------------------------------
# the sign-reversing map


def negative_side(d: Distinguished) -> bool:
    """True when d carries sign -1, i.e. has an odd number of A blocks."""
    return distinguished_block_count(d) % 2 == 1


def positive_side(d: Distinguished) -> bool:
    """True when d carries sign +1 and is not one of the plain forests.

    Sign +1 elements with empty A only count when their image under phi
    has at least one trailing all-processed block.  Raises ValueError
    when d is not a valid distinguished forest.
    """
    split = check_distinguished(d)
    # a valid d has exactly len(d.blocks) - split A blocks
    if (len(d.blocks) - split) % 2 == 1:
        return False
    if d.aset:
        return True
    return _phi(d, split)[1] >= 1


def involution_f(d: Distinguished) -> Distinguished:
    """Map a sign -1 distinguished forest to a sign +1 one.

    Computes the image of d under phi, then either releases the first A
    block from A (when the split index is 0, or its leader beats the last
    non-A block's leader) or absorbs the last non-A block into A, and
    pulls the result back through phi.  The number of A blocks changes by
    exactly one, flipping the sign.
    """
    split = check_distinguished(d)
    # a valid d has exactly len(d.blocks) - split A blocks
    a_blocks = len(d.blocks) - split
    if a_blocks % 2 == 0:
        raise ValueError("involution_f is only defined on the sign -1 side")
    q = len(d.aset) + sum(d.values)
    # phi keeps the A part and the block lengths, so img splits where d does
    img, j = _phi(d, split)
    blocks, values, aset = img
    bpart = blocks[:split]
    c_first = blocks[split]
    if j == 0 or (bpart and c_first[0] > bpart[-1][0]):
        new_aset = aset - set(c_first)
    else:
        new_aset = aset | set(bpart[-1])
    moved = Distinguished(blocks, values, new_aset)
    result = phi_inverse(moved, q)
    if abs(distinguished_block_count(result) - a_blocks) != 1:
        raise AssertionError("distinguished part did not change by exactly one block")
    return result
