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
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
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


def _order(blocks: Forest, processed: Collection[int]) -> tuple[int, ...]:
    """The order L of a snapshot: unprocessed elements, then processed
    ones, each in natural order."""
    everything = sorted(flatten(blocks))
    return tuple([e for e in everything if e not in processed]
                 + [e for e in everything if e in processed])


def _rotate_tail(state: AlgorithmState, target: int, step: int
                 ) -> tuple[list[int], Forest]:
    """Move every element of the blocks from target on by step places,
    cyclically, along the order L; returns that tail sorted by L and the
    new blocks."""
    rank = {e: i for i, e in enumerate(state.order)}
    tail = sorted((x for b in state.blocks[target:] for x in b), key=rank.get)
    shift = {x: tail[(i + step) % len(tail)] for i, x in enumerate(tail)}
    return tail, tuple(state.blocks[:target]) + tuple(
        tuple(shift[x] for x in b) for b in state.blocks[target:])


def _assert_step_invariants(state: AlgorithmState) -> None:
    """Runtime checks that hold after every iteration of the algorithm;
    they raise AssertionError and stay on under python -O."""
    rank = {e: i for i, e in enumerate(state.order)}
    leaders = [b[0] for b in state.blocks]
    if not all(rank[leaders[i]] < rank[leaders[i + 1]] for i in range(len(leaders) - 1)):
        raise AssertionError("blocks are not increasing by leader in the current order")
    for b in state.blocks:
        if min(b, key=rank.get) != b[0]:
            raise AssertionError(
                "a block leader is not minimal in its block under the current order")
    contributors = {x for b in state.blocks for x in b if x < b[0]}
    if not contributors <= state.processed:
        raise AssertionError("an unprocessed element contributes weight")
    for p in state.processed:
        blk = next(b for b in state.blocks if p in b)
        if not (p < blk[0] or all(x in state.processed for x in blk)):
            raise AssertionError("a processed element neither contributes weight "
                                 "nor sits in an all-processed block")


def process_step(state: AlgorithmState) -> Optional[AlgorithmState]:
    """Apply one iteration; returns None when no block is eligible.

    A block is eligible when it still contains an unprocessed element and
    its value is positive.
    """
    target = None
    for idx, (b, v) in enumerate(zip(state.blocks, state.values)):
        if v > 0 and any(x not in state.processed for x in b):
            target = idx
            break
    if target is None:
        return None
    leader = state.blocks[target][0]
    tail, new_blocks = _rotate_tail(state, target, 1)
    if tail[0] != leader:
        raise AssertionError("leader is not minimal among the shifted elements")
    new_values = list(state.values)
    new_values[target] -= 1
    new_order = tuple(e for e in state.order if e != leader) + (leader,)
    if max(state.processed, default=0) >= leader:
        raise AssertionError("elements are not processed in increasing order")
    new_state = AlgorithmState(new_blocks, tuple(new_values),
                               state.processed | {leader}, new_order)
    _assert_step_invariants(new_state)
    return new_state


def run_processing(valued: Valued, collect: bool = False
                   ) -> tuple[AlgorithmState, list[AlgorithmState]]:
    """Run to the fixed point; returns its snapshot and, if collect, all."""
    state = initial_state(valued)
    trail = [state] if collect else []
    budget = sum(valued.values)
    while True:
        nxt = process_step(state)
        if nxt is None:
            break
        state = nxt
        if len(state.processed) + sum(state.values) != budget:
            raise AssertionError("processed count plus remaining values is not conserved")
        if collect:
            trail.append(state)
    return state, trail


def _split_parts(d: Distinguished, split: int) -> tuple[Valued, Valued]:
    return (Valued(d.blocks[:split], d.values[:split]),
            Valued(d.blocks[split:], d.values[split:]))


def _phi(d: Distinguished, split: int) -> tuple[Distinguished, int]:
    """phi of a checked d whose A blocks start at split, and the image's
    split index j: the number of trailing non-A blocks processed fully."""
    nondist, dist = _split_parts(d, split)
    out, _ = run_processing(nondist)
    result = Distinguished(out.blocks + dist.blocks,
                           out.values + dist.values, d.aset)
    if tuple(map(len, result.blocks)) != tuple(map(len, d.blocks)):
        raise AssertionError("block length sequence not preserved")
    j = 0
    while j < split and out.processed.issuperset(out.blocks[split - 1 - j]):
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


def _snapshot(valued: Valued, j: int) -> AlgorithmState:
    """The snapshot whose last j blocks are processed completely: P is the
    weight contributors plus the elements of those blocks, and L lists
    unprocessed then processed elements, each in natural order."""
    blocks, values = valued
    processed = {x for b in blocks for x in b if x < b[0]}
    for b in blocks[len(blocks) - j:]:
        processed.update(b)
    return AlgorithmState(blocks, values, frozenset(processed),
                          _order(blocks, processed))


def reconstruct_state(valued: Valued, q1: int) -> AlgorithmState:
    """Recover P and L for a snapshot of a run with total value budget q1.

    The split index j (number of trailing all-processed blocks) is the
    unique one balancing weight, block sizes, and remaining values against
    q1; the snapshot is then built by _snapshot.  Raises ReverseError when
    no split index works.
    """
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
    state = _snapshot(valued, j)
    if j < r and blocks[r - j - 1] and set(blocks[r - j - 1]) <= state.processed:
        raise ReverseError("split index inconsistent with the processed set")
    return state


def reverse_step(state: AlgorithmState, q1: int) -> AlgorithmState:
    """Undo one iteration; inverse of process_step on genuine snapshots."""
    if not state.processed:
        raise ReverseError("nothing to reverse: no processed elements")
    if len(state.processed) + sum(state.values) != q1:
        raise ReverseError("snapshot does not match the stated budget")
    p = max(state.processed)
    target = None
    for idx, b in enumerate(state.blocks):
        leader = b[0]
        if (leader > p and leader not in state.processed) or \
           (leader <= p and leader in state.processed):
            target = idx
            break
    if target is None:
        raise ReverseError("no block qualifies as the reversal site")
    tail, new_blocks = _rotate_tail(state, target, -1)
    if tail[-1] != p:
        raise ReverseError("last processed element is not maximal in the tail")
    new_values = list(state.values)
    new_values[target] += 1
    processed = state.processed - {p}
    return AlgorithmState(new_blocks, tuple(new_values), processed,
                          _order(state.blocks, processed))


def reverse_trace(valued: Valued, q1: int) -> list[str]:
    """Log of the full reversal, starting from the given snapshot."""
    state = reconstruct_state(valued, q1)
    lines = [trace_line(state)]
    while state.processed:
        state = reverse_step(state, q1)
        lines.append(trace_line(state))
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
    state = _snapshot(nondist, verdict.j)
    while state.processed:
        state = reverse_step(state, q1)
    return Distinguished(state.blocks + dist.blocks,
                         state.values + dist.values, d.aset)


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
