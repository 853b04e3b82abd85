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
element a weight contributor or in an all-processed block).  It checks
them on every block for the first step of a run and for process_step, and
from the block before the target on for every later step, which is exact
because the blocks in front of the target and their ranks do not change.
_Run.run checks that processed count plus remaining values is conserved,
_phi checks the block length sequence, _Run.unstep raises the four
ReverseErrors of reverse_step, and reconstruct_state the three of the
split-index search.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Collection, Iterator, NamedTuple, Optional

from .forests import (
    Distinguished,
    Forest,
    Valued,
    _a_split,
    _is_min_led,
    _leader_position_ok,
    all_ordered_chain_forests,
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
    order.  start is where the search for the next target begins: blocks
    in front of a target stay ineligible for the rest of a run.  Elements
    are positive integers, as in every forest of [s].
    """

    __slots__ = ("elems", "bounds", "values", "done", "rank", "top", "stack", "start")

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
        for x in processed:
            done[x] = True
        self.stack = sorted(processed)
        self.top = 2 * size
        self.start = 0
        self.rank_canonically()

    @classmethod
    def load(cls, state: AlgorithmState) -> "_Run":
        """A run resumed from a snapshot, with the snapshot's own order L."""
        run = cls(state.blocks, state.values, state.processed)
        for i, x in enumerate(state.order):
            run.rank[x] = i
        return run

    @classmethod
    def at_split(cls, valued: Valued, j: int) -> "_Run":
        """The snapshot whose last j blocks are processed completely: P is
        the weight contributors plus the elements of those blocks, and L is
        canonical."""
        blocks = valued.blocks
        processed = [x for b in blocks[:len(blocks) - j] for x in b if x < b[0]]
        processed += [x for b in blocks[len(blocks) - j:] for x in b]
        return cls(blocks, valued.values, processed)

    def rank_canonically(self) -> None:
        size = len(self.done)
        self.rank = rank = list(range(size))
        for x in self.stack:
            rank[x] += size

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

    def step(self, whole: bool) -> bool:
        """Apply one iteration; False, with nothing changed, when no block
        still has a positive value and an unprocessed element.

        The step invariants are checked on every block when whole, else
        from the block before the target on: the blocks in front of the
        target and their ranks do not change, so they keep the invariants
        the previous step checked."""
        values, bounds, elems, done = self.values, self.bounds, self.elems, self.done
        for target in range(self.start, len(values)):
            if values[target] > 0:
                a, b = bounds[target]
                if not all(map(done.__getitem__, elems[a:b])):
                    break
        else:
            return False
        self.start = target
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
        self._check_invariants(0 if whole else max(target - 1, 0))
        return True

    def _check_invariants(self, lo: int) -> None:
        """The invariants that hold after every iteration, on the blocks
        from lo on; each raises AssertionError and stays on under python -O.
        A block that is not all processed must have exactly its weight
        contributors (the elements below its leader) processed."""
        elems, done, rank = self.elems, self.done, self.rank
        disordered = unled = weighted = stray = False
        prev = -1
        for a, b in self.bounds[lo:]:
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
        """Step to the fixed point, appending each new snapshot to trail."""
        budget = len(self.stack) + sum(self.values)
        whole = True
        while self.step(whole):
            whole = False
            if len(self.stack) + sum(self.values) != budget:
                raise AssertionError("processed count plus remaining values is not conserved")
            if trail is not None:
                trail.append(self.snapshot())

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
    return run.snapshot() if run.step(whole=True) else None


def run_processing(valued: Valued, collect: bool = False
                   ) -> tuple[AlgorithmState, list[AlgorithmState]]:
    """Run to the fixed point; returns its snapshot and, if collect, all."""
    run = _Run(valued.blocks, valued.values)
    trail = [run.snapshot()] if collect else None
    run.run(trail)
    return run.snapshot(), trail or []


def _split_parts(d: Distinguished, split: int) -> tuple[Valued, Valued]:
    return (Valued(d.blocks[:split], d.values[:split]),
            Valued(d.blocks[split:], d.values[split:]))


def _phi(d: Distinguished, split: int) -> tuple[Distinguished, int]:
    """phi of a checked d whose A blocks start at split, and the image's
    split index j: the number of trailing non-A blocks processed fully."""
    run = _Run(d.blocks[:split], d.values[:split])
    run.run()
    result = Distinguished(run.blocks() + d.blocks[split:],
                           tuple(run.values) + d.values[split:], d.aset)
    if tuple(map(len, result.blocks)) != tuple(map(len, d.blocks)):
        raise AssertionError("block length sequence not preserved")
    j = 0
    while j < split and run.all_done(split - 1 - j):
        j += 1
    return result, j


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
    nondist, _ = _split_parts(d, check_distinguished(d))
    _, trail = run_processing(nondist, collect=True)
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
    r = len(blocks)
    weights = [block_weight(b) for b in blocks]
    for j in range(r + 1):
        if sum(weights[:r - j]) + sum(len(b) for b in blocks[r - j:]) + sum(values) == q1:
            break
    else:
        raise ReverseError(f"no split index balances the budget {q1}")
    if not all(_is_min_led(b) for b in blocks[r - j:]):
        raise ReverseError("a trailing all-processed block has nonzero weight")
    run = _Run.at_split(valued, j)
    if j < r and blocks[r - j - 1] and run.all_done(r - j - 1):
        raise ReverseError("split index inconsistent with the processed set")
    return run


def reverse_step(state: AlgorithmState, q1: int) -> AlgorithmState:
    """Undo one iteration; inverse of process_step on genuine snapshots.

    The tail is shifted along the snapshot's own order L; the result
    carries the canonical order."""
    run = _Run.load(state)
    run.unstep(q1)
    run.rank_canonically()
    return run.snapshot()


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


@dataclass(frozen=True)
class CheckResult:
    """Outcome of an image membership test; rejection is a value."""

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

    Checks, in order: the A blocks trail and are decreasing with minimal
    leaders; a split index j balances weights, trailing block sizes and
    values against q; the last j non-A blocks are naturally ordered with
    minimal leaders; the first r-j non-A blocks are naturally ordered
    with value 0.  With k, ell, m given, additionally requires k blocks
    and gamma(F, ell) = m.  With upper=True, also requires 1 to lie in
    the last block with value 0 and the leader of the (k-m+2)-th block to
    sit at position ell+2.
    """
    if (ell is None) != (m is None):
        raise ValueError("ell and m must be given together")
    if upper and ell is None:
        raise ValueError("upper image check needs ell and m")
    blocks, values, aset = d
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
    rest = len(aset) + sum(values[split:])
    for j in range(r + 1):
        lhs = (sum(weights[:r - j])
               + sum(len(b) + values[i] for i, b in enumerate(bpart) if i >= r - j)
               + rest)
        if lhs == q:
            break
    else:
        return _reject("condition 4: no split index balances the budget")
    suffix = bpart[r - j:]
    if not all(_is_min_led(b) for b in suffix):
        return _reject("condition 2: a trailing block leader is not its minimum")
    if not is_naturally_ordered(suffix):
        return _reject("condition 2: trailing blocks not increasing by leader")
    prefix = bpart[:r - j]
    if not is_naturally_ordered(prefix):
        return _reject("condition 3: leading blocks not increasing by leader")
    if any(values[i] != 0 for i in range(r - j)):
        return _reject("condition 3: a leading block has nonzero value")

    if k is not None and len(blocks) != k:
        return _reject(f"condition 5: expected {k} blocks, found {len(blocks)}")
    if ell is not None and gamma(blocks, ell) != m:
        return _reject(f"condition 5: gamma at {ell} is {gamma(blocks, ell)}, expected {m}")
    if upper and not _leader_position_ok(blocks, len(blocks), m, ell):
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
    nondist, dist = _split_parts(d, len(d.blocks) - distinguished_block_count(d))
    q1 = q - len(d.aset) - sum(dist.values)
    # image_check found the split index and checked the trailing blocks
    run = _Run.at_split(nondist, verdict.j)
    while run.stack:
        run.unstep(q1)
    return Distinguished(run.blocks() + dist.blocks,
                         tuple(run.values) + dist.values, d.aset)


def enumerate_image_candidates(q: int, s: int) -> Iterator[Distinguished]:
    """Constructively enumerate everything image_check accepts for (q, s).

    Walks every ordered chain forest of [s], every admissible trailing
    A part, every admissible split index, and every distribution of the
    leftover budget, which by the characterization is exactly the image
    of phi on the budget-q distinguished forests.
    """
    for blocks in all_ordered_chain_forests(range(1, s + 1)):
        kk = len(blocks)
        min_led = [_is_min_led(b) for b in blocks]
        leaders = [b[0] for b in blocks]
        p_max = 0
        while p_max < kk and min_led[kk - 1 - p_max] and \
                (p_max == 0 or leaders[kk - 1 - p_max] > leaders[kk - p_max]):
            p_max += 1
        prefix_natural = [True] * (kk + 1)
        for i in range(1, kk + 1):
            prefix_natural[i] = prefix_natural[i - 1] and \
                (i < 2 or leaders[i - 2] < leaders[i - 1])
        for p in range(p_max + 1):
            r = kk - p
            bpart, cpart = blocks[:r], blocks[r:]
            aset = frozenset(x for b in cpart for x in b)
            j_max = 0
            while j_max < r and min_led[r - 1 - j_max] and \
                    (j_max == 0 or leaders[r - 1 - j_max] < leaders[r - j_max]):
                j_max += 1
            for j in range(j_max + 1):
                if not prefix_natural[r - j]:
                    continue
                base = sum(block_weight(b) for b in bpart[:r - j]) + \
                    sum(len(b) for b in bpart[r - j:]) + len(aset)
                remainder = q - base
                if remainder < 0:
                    continue
                for comp in compositions(remainder, j + p):
                    values = (0,) * (r - j) + comp
                    yield Distinguished(blocks, values, aset)


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
    if negative_side(d):
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
    if not negative_side(d):
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
    if abs(distinguished_block_count(result) - distinguished_block_count(d)) != 1:
        raise AssertionError("distinguished part did not change by exactly one block")
    return result
