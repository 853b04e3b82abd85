"""Ordered chain forests: data model, exhaustive enumerators, counting formulas.

An ordered chain forest of [s] is an ordered partition of {1, ..., s} into
blocks, each block itself an ordered sequence.  The first element of a
block is its leader, the last its trailer.  A forest is naturally ordered
when block leaders increase left to right.  The weight of a block counts
its elements that are smaller than its leader.

On top of the plain forests sit valued forests (a nonnegative value per
block) and A-distinguished forests: for a subset A, every block lies
wholly inside or outside A, the non-A blocks come first in increasing
leader order, the A blocks follow in decreasing leader order, and every
block has weight 0.

Each of the four families (CF, CF1, DCF, DCF1) is described once, by
one walk over its skeletons: set partitions of the ground set with one
leader per block, the blocks in family order, and for the distinguished
forests the set A and the budget left for the values.  A skeleton stands
for the (|B|-1)! orders of every block's other elements, times, for the
distinguished forests, the number of value compositions.  The object
streams expand the skeletons into those objects.  A census key reads
only each block's element set and leader (the weight counts the elements
below the leader, and k, gamma at each position and the leader-position
test read only the block lengths), so a census tallies each skeleton's
count by (head, lengths) and expands each distinct bucket into its
(k, ell, m) cells once, no object visited, and an exhaustive enumerator
expands only the skeletons in the query's cell, by that rule (tally_gamma).
The skeleton counts use factorials and composition counts only, nothing
of the closed forms.  The tests keep a brute-force generator (every
permutation cut into blocks, all_ordered_chain_forests in
tests/forest_reference.py) that shares no code with the walk, and check
the streams and the image candidates of processing against it.

The enumerators and the closed forms own the rules of a query
(q, s, k, ell, m), with the |A| slice i of the per-term side, and share
one check of them: both sides of the identity raise the same ValueError,
and the command line prints its message.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate, combinations, permutations, product, starmap
from math import comb, factorial, prod
from typing import (Any, Callable, Collection, Iterable, Iterator, NamedTuple, Optional,
                    Sequence)

from .exactmath import binomial, pi_range

Block = tuple[int, ...]
Forest = tuple[Block, ...]


class Valued(NamedTuple):
    """A forest together with one nonnegative value per block."""

    blocks: Forest
    values: tuple[int, ...]


class Distinguished(NamedTuple):
    """A valued forest together with its distinguished subset A."""

    blocks: Forest
    values: tuple[int, ...]
    aset: frozenset[int]


# ---------------------------------------------------------------------------
# basic statistics


def block_weight(block: Sequence[int]) -> int:
    """Number of elements of the block that are smaller than its leader."""
    leader = block[0]
    return sum(1 for x in block if x < leader)


def forest_weight(blocks: Forest) -> int:
    return sum(block_weight(b) for b in blocks)


def gamma_vector(blocks: Forest) -> tuple[int, ...]:
    """gamma(blocks, ell) at every position ell of the flattened forest.

    Every position inside the j-th block (0-based) has exactly the
    trailers of blocks j..k-1 after it, so gamma there is k - j.
    """
    gvec: list[int] = []
    after = len(blocks)
    for b in blocks:
        gvec += [after] * len(b)
        after -= 1
    return tuple(gvec)


def gamma(blocks: Forest, ell: int) -> int:
    """Number of trailers after position ell in the flattened forest.

    Requires 0 <= ell <= s-1 where s is the ground-set size.
    """
    gvec = gamma_vector(blocks)
    if not 0 <= ell <= len(gvec) - 1:
        raise ValueError(f"gamma position must satisfy 0 <= ell <= {len(gvec) - 1}, got {ell}")
    return gvec[ell]


def is_naturally_ordered(blocks: Forest) -> bool:
    return all(blocks[i][0] < blocks[i + 1][0] for i in range(len(blocks) - 1))


def flatten(blocks: Forest) -> tuple[int, ...]:
    return tuple(x for b in blocks for x in b)


def _canonical_key(blocks: Forest) -> tuple:
    return (flatten(blocks), tuple(len(b) for b in blocks))


# ---------------------------------------------------------------------------
# closed-form counts


def _check_query(q: int, s: int, k: Optional[int] = None, ell: Optional[int] = None,
                 m: Optional[int] = None, min_m: int = 1, i: Optional[int] = None) -> None:
    """Raise ValueError at the first broken rule of the query; k, ell, m
    and the |A| slice i are checked only when given, m against s when k is
    not.  min_m = 2 adds the rule of the leader-1 forests, checked after
    the others.  An i above q is valid: its slice is empty."""
    if q < 0:
        raise ValueError(f"need q >= 0, got q={q}")
    if i is not None and i < 0:
        raise ValueError(f"need i >= 0, got i={i}")
    if k is not None and not 1 <= k <= s:
        raise ValueError(f"need 1 <= k <= s, got k={k}, s={s}")
    if ell is not None and not 0 <= ell <= s - 1:
        raise ValueError(f"need 0 <= ell <= s-1, got ell={ell}")
    if m is not None and not 1 <= m <= (k or s):
        raise ValueError(f"need 1 <= m <= k, got m={m}")
    if m is not None and m < min_m:
        raise ValueError(f"need m >= {min_m}, got m={m}")
    _check_pair(ell, m)


def _check_pair(ell: Optional[int], m: Optional[int]) -> None:
    if (ell is None) != (m is None):
        raise ValueError("ell and m must be given together")


def _summand(q: int, s: int, k: int, ell: int, m: int, i: int, shift: int) -> int:
    """The i-th summand of the refined closed form, signs included; shift
    lowers both ends of the first product range (1 for the upper bound).
    The sum stops at i = q, as no A of size i > q fits the budget, so the
    summand is 0 above it."""
    if i > q:
        return 0
    return ((-1) ** i * binomial(s, i)
            * pi_range(-i + 1 - shift, s - 1 - ell - i - shift, s - ell - m)
            * pi_range(s - ell - i, s - 1 - i, ell - (k - m))
            * binomial(k - 1 + q - i, k - 1))


def cf_count_formula(q: int, s: int, k: int) -> int:
    """Closed form for |CF(q, s, k)|: an alternating binomial and
    symmetric-sum expression over i = 0..q."""
    # every forest of [s] has exactly one trailer after position s-1; the
    # refined form checks q and k first, and (s-1, 1) is valid once k is
    return cf_refined_formula(q, s, k, s - 1, 1)


def cf_refined_formula(q: int, s: int, k: int, ell: int, m: int) -> int:
    """Closed form for |CF(q, s, k, ell, m)| (the refined identity)."""
    _check_query(q, s, k, ell, m)
    return sum(_summand(q, s, k, ell, m, i, 0) for i in range(q + 1))


def upper_expression(q: int, s: int, k: int, ell: int, m: int) -> int:
    """The alternating sum whose nonnegativity gives the coefficientwise
    upper bound; equals the count of the shifted leader-1 forests."""
    _check_query(q, s, k, ell, m)
    return sum(_summand(q, s, k, ell, m, i, 1) for i in range(q + 1))


# ---------------------------------------------------------------------------
# distinguished forests


def compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """Weak compositions of total into the given number of parts."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in compositions(total - first, parts - 1):
            yield (first,) + rest


def distinguished_block_count(d: Distinguished) -> int:
    """Number of trailing blocks made of A elements."""
    return sum(1 for b in d.blocks if b[0] in d.aset)


def _is_min_led(block: Block) -> bool:
    return block[0] == min(block)


# type(x) is int, so a bool or a float is not an int here
_INTS = frozenset({int})


def _shape_violation(blocks: Forest, values: Sequence[int]) -> Optional[str]:
    """The first shape rule a valued forest breaks, or None: one value per
    block, values ints, values nonnegative, blocks nonempty and disjoint,
    elements positive ints."""
    if len(values) != len(blocks):
        return "one value per block required"
    if not _INTS.issuperset(map(type, values)):
        return "values must be ints"
    if values and min(values) < 0:
        return "values must be nonnegative"
    elements = set().union(*blocks)
    if len(elements) != sum(map(len, blocks)) or not all(blocks):
        return "blocks must be nonempty and disjoint"
    if not _INTS.issuperset(map(type, elements)) or min(elements, default=1) < 1:
        return "elements must be positive ints"
    return None


def _a_split(d: Distinguished) -> tuple[int, Optional[str]]:
    """Index of the first A block (len(d.blocks) if none) and the first
    violated property, or None: blocks wholly in or out of A, non-A blocks
    first, A blocks covering A, min-led and decreasing by leader.  d must
    keep the shape rules (_shape_violation)."""
    blocks, _, aset = d
    split = len(blocks)
    if not aset:  # every block is a non-A block
        return split, None
    for idx, b in enumerate(blocks):
        if aset.isdisjoint(b):
            if idx > split:
                return split, "non-A block after an A block"
        elif aset.issuperset(b):
            if idx < split:
                split = idx
        else:
            return split, f"block {b} mixes A and non-A elements"
    cpart = blocks[split:]
    # every block from split on lies in A, and the shape rule has made the
    # blocks disjoint, so they cover A when their lengths add up to |A|
    if sum(map(len, cpart)) != len(aset):
        return split, "A blocks do not cover A exactly"
    increasing = False
    for i, b in enumerate(cpart):
        if b[0] != min(b):
            return split, f"A block {b} leader is not its minimum"
        if i and cpart[i - 1][0] < b[0]:
            increasing = True
    if increasing:
        return split, "A blocks are not decreasing by leader"
    return split, None


def check_distinguished(d: Distinguished) -> int:
    """Validate the structural invariants of an A-distinguished forest and
    return the index of its first A block (len(d.blocks) if none).

    Blocks must be homogeneous with respect to A, non-A blocks must come
    first in increasing leader order, A blocks last in decreasing leader
    order, every block must have weight 0, and there must be one value per
    block.  Raises ValueError naming the violated property.
    """
    blocks, values, _ = d
    if violation := _shape_violation(blocks, values):
        raise ValueError(violation)
    split, violation = _a_split(d)
    if violation:
        raise ValueError(violation)
    # weight 0 is a leader that is its block's minimum; every block's
    # weight is tested before the leader order
    unordered = False
    for i in range(split):
        b = blocks[i]
        if b[0] != min(b):
            raise ValueError(f"block {b} has nonzero weight")
        if i and blocks[i - 1][0] >= b[0]:
            unordered = True
    if unordered:
        raise ValueError("non-A blocks are not increasing by leader")
    return split


def iter_dcf(q: int, s: int) -> Iterator[Distinguished]:
    """Unfiltered stream over DCF(q, s); see enumerate_dcf for filters."""
    yield from _expand(_dcf_skeletons(q, s))


def _dcf_sort_key(d: Distinguished) -> tuple:
    return _canonical_key(d.blocks) + (d.values, tuple(sorted(d.aset)))


# ---------------------------------------------------------------------------
# the leader-1 variants used for the coefficient upper bound


def _leader_starts(lengths: Iterable[int]) -> list[int]:
    """Prefix sums of the block lengths: entry j is the 0-based flattened
    position of the leader of block j, and the last entry is s."""
    return list(accumulate(lengths, initial=0))


def _leader_position_ok(starts: Sequence[int], m: int, ell: int) -> bool:
    """Leader of the (k-m+2)-th block sits at 1-based flattened position
    ell+2, where starts = _leader_starts(lengths) of a k-block forest."""
    idx = len(starts) - m  # the 1-based index k-m+2, 0-based
    return 0 <= idx < len(starts) - 1 and starts[idx] == ell + 1


# ---------------------------------------------------------------------------
# skeletons: the one walk of every family


# a block of a skeleton: (leader, elements in increasing order, weight)
_Led = tuple[int, Block, int]
# (head, led blocks in family order, sign, number of objects, A or None,
# number of blocks sharing the budget, budget)
_Skeleton = tuple[int, tuple[_Led, ...], int, int, Optional[frozenset[int]], int, int]


def _led_partitions(elements: Sequence[int], keep: Collection[int] = ()
                    ) -> Iterator[tuple[tuple[_Led, ...], int]]:
    """Every set partition of the elements, given in increasing order, with
    one leader per block, and the number of chain sets it stands for.

    A block is a (leader, elements, weight) triple, its elements in
    increasing order and its weight counting those below the leader, and
    the blocks come in the order of their minima.  A block whose minimum is
    in keep is led by it, any other block by any of its elements.  The
    chain sets with these blocks and leaders are the (|B|-1)! orders of
    each block's other elements, so all leader choices of one partition
    share that product.
    """
    return _partitions_from(list(elements), [], 0, keep)


def _partitions_from(elems: list[int], blocks: list[list[int]], idx: int,
                     keep: Collection[int]) -> Iterator[tuple[tuple[_Led, ...], int]]:
    """_led_partitions with elems[:idx] already placed in blocks: elems[idx]
    joins each block in turn, then opens a block of its own.  A plain
    recursive function, so a walk leaves no reference cycle behind."""
    if idx == len(elems):
        orders = prod(factorial(len(b) - 1) for b in blocks)
        choices = [[(b[0], b, 0)] if b[0] in keep
                   else [(x, b, w) for w, x in enumerate(b)] for b in map(tuple, blocks)]
        for led in product(*choices):
            yield led, orders
        return
    e = elems[idx]
    for b in blocks:
        b.append(e)
        yield from _partitions_from(elems, blocks, idx + 1, keep)
        b.pop()
    blocks.append([e])
    yield from _partitions_from(elems, blocks, idx + 1, keep)
    blocks.pop()


def _orders(led: Sequence[_Led]) -> Iterator[Forest]:
    """The forests with these led blocks, in this order: every block keeps
    its leader and takes every order of its other elements."""
    # the weight of a block is its leader's index among its elements; a
    # block of at most two elements has one order
    return product(*[[(x,) + b[:w] + b[w + 1:]] if len(b) < 3
                     else [(x, *rest) for rest in permutations(b[:w] + b[w + 1:])]
                     for x, b, w in led])


def _expand(skeletons: Iterable[_Skeleton]) -> Iterator:
    """The objects the skeletons stand for, each exactly once (_orders);
    with A given, every composition of the budget into the first parts
    blocks is a value vector, with value 0 on the blocks after them."""
    for _, led, _, _, aset, parts, budget in skeletons:
        forests = _orders(led)
        if aset is None:
            yield from forests
        else:
            yield from starmap(Distinguished, product(
                forests, _value_vectors(budget, parts, len(led)), (aset,)))


def _cf_skeletons(elements: Sequence[int]) -> Iterator[_Skeleton]:
    """The skeletons of the naturally ordered forests over the elements,
    given in increasing order: any leader, blocks in increasing leader
    order, keyed by weight."""
    for led, orders in _led_partitions(elements):
        led = tuple(sorted(led))
        yield sum(w for _, _, w in led), led, 1, orders, None, 0, 0


def _cf1_skeletons(q: int, s: int) -> Iterator[_Skeleton]:
    """The skeletons of the forests of [s] whose last block is led by 1,
    the other blocks in increasing leader order; keyed by the weight of
    the others plus the size of the block of 1."""
    # 1 is the smallest element, so its block comes first; [0] has none
    for (one, *others), orders in (_led_partitions(range(1, s + 1), {1}) if s else ()):
        others.sort()
        yield (sum(w for _, _, w in others) + len(one[1]), (*others, one), 1, orders,
               None, 0, 0)


@lru_cache(maxsize=None)
def _value_vectors(budget: int, parts: int, k: int) -> tuple[tuple[int, ...], ...]:
    """The values of k blocks: the budget spread over the first parts
    blocks in every way, 0 on the others."""
    return tuple(values + (0,) * (k - parts) for values in compositions(budget, parts))


def _value_vector_count(budget: int, parts: int) -> int:
    """len(_value_vectors(budget, parts, k)) for any k, counted: the weak
    compositions of the budget into parts, none when no part takes it."""
    if parts == 0:
        return 1 if budget == 0 else 0
    return comb(budget + parts - 1, parts - 1)


def _dcf_skeletons(q: int, s: int, need_one: bool = False) -> Iterator[_Skeleton]:
    """The skeletons of the valued A-distinguished forests of [s] with
    |A| + sum(values) = q, keyed by |A|: every block is led by its
    minimum, the non-A blocks in increasing and the A blocks in decreasing
    order of it, and the budget q - |A| is spread over the values.  With
    need_one, A holds 1, whose block comes last and carries value 0, so
    the budget is spread over the other blocks and its sign does not
    count."""
    shift = 1 if need_one else 0
    universe = tuple(range(1, s + 1))
    for i in range(0, min(q, s) + 1):
        for aset in combinations(universe, i):
            if need_one and 1 not in aset:
                continue
            rest = tuple(e for e in universe if e not in aset)
            afro = frozenset(aset)
            cparts = [(led[::-1], orders) for led, orders in _led_partitions(aset, aset)]
            for bled, borders in _led_partitions(rest, rest):
                for cled, corders in cparts:
                    led = bled + cled
                    parts = len(led) - shift
                    values = _value_vector_count(q - i, parts)
                    if values:
                        yield (i, led, (-1) ** (len(cled) - shift),
                               borders * corders * values, afro, parts, q - i)


# ---------------------------------------------------------------------------
# the four families, each described once by its skeletons; every
# enumerator and census below is derived from these descriptions


class _Family(NamedTuple):
    """A chain-forest family: whether only positions passing
    _leader_position_ok count, the canonical sort key of its objects, and
    its skeletons for (q, s), the one walk of the family.  The census
    tallies the skeletons and the enumerator expands only those in the
    query's cell, neither reading an object; the tests check both against
    a tally of the expanded objects, one by one."""

    leader_split: bool
    sort_key: Callable[[Any], tuple]
    skeletons: Callable[[int, int], Iterator[_Skeleton]]


# CF: naturally ordered forests of [s], keyed by their weight q
_CF = _Family(leader_split=False, sort_key=_canonical_key,
              skeletons=lambda q, s: _cf_skeletons(range(1, s + 1)))
# CF1: forests of [s] whose last block is led by 1, keyed by the weight of
# the other blocks plus the size of the 1-block
_CF1 = _Family(leader_split=True, sort_key=_canonical_key, skeletons=_cf1_skeletons)
# DCF: valued A-distinguished forests of budget q, keyed by |A|, signed by
# the number of A blocks
_DCF = _Family(leader_split=False, sort_key=_dcf_sort_key, skeletons=_dcf_skeletons)
# DCF1: those with 1 in A, so 1 leads the last block, and value 0 there;
# keyed by |A|, signed by the number of A blocks other than the last
_DCF1 = _Family(leader_split=True, sort_key=_dcf_sort_key,
                skeletons=lambda q, s: _dcf_skeletons(q, s, need_one=True))


def _select(family: _Family, q: int, s: int, k: Optional[int], ell: Optional[int],
            m: Optional[int], head: Optional[int]) -> list:
    """The family's objects for (q, s) with the given head statistic, k
    blocks and, with ell given, in the census cell (k, ell, m); a filter
    given as None is skipped.  The head is |A| (the i of a query) for the
    distinguished families and q for the others.  Only the skeletons in
    the cell are expanded, the cell read by tally_gamma, the census's own
    rule, from their lengths; the objects come in canonical order."""
    _check_query(q, s, k, ell, m, i=head)

    def in_cell(skeleton: _Skeleton) -> bool:
        led = skeleton[1]
        if head is not None and skeleton[0] != head or k is not None and len(led) != k:
            return False
        if ell is None:  # every leader-1 cell needs ell, the leader's position
            return not family.leader_split
        cells: dict = {}
        tally_gamma(cells, (), [len(b) for _, b, _ in led], 1, family.leader_split)
        return (len(led), ell, m) in cells

    return sorted(_expand(filter(in_cell, family.skeletons(q, s))), key=family.sort_key)


def tally_gamma(census: dict, head: tuple, lengths: Sequence[int],
                weight: int = 1, leader_split: bool = False) -> None:
    """Add weight to census[head + (k, ell, m)] at every position ell of a
    forest with the given block lengths, where k is the block count and
    m = gamma(F, ell).  Every cell is written, even when weight is 0.

    Each position inside block j (0-based) has m = k - j, so the lengths
    are all this needs.  With leader_split, only positions where the
    leader of the (k-m+2)-th block sits at ell+2 are counted (the leader-1
    censuses), tested on one prefix-sum list per call.
    """
    k = len(lengths)
    starts = _leader_starts(lengths)
    for j in range(k):
        m = k - j
        for ell in range(starts[j], starts[j + 1]):
            if leader_split and not _leader_position_ok(starts, m, ell):
                continue
            key = head + (k, ell, m)
            census[key] = census.get(key, 0) + weight


def _census(family: _Family, q: int, s: int, totals: Optional[dict] = None) -> dict:
    """dict (head, k, ell, m) -> signed count of the family's objects for
    (q, s); with totals, also counts those objects by (head, k) there.

    The head statistic, k, gamma and the leader-position test read only
    the block-length sequence, so the family's skeletons are tallied in two
    passes, no object visited: the first sums each skeleton's sign times
    its count into a bucket keyed by (head, lengths), the second expands
    every bucket once through tally_gamma, including a bucket whose signs
    cancel to 0, so that its cells are still present.
    """
    buckets: dict = {}
    for head, led, sign, count, _, _, _ in family.skeletons(q, s):
        lengths = tuple([len(b) for _, b, _ in led])
        key = (head, lengths)
        buckets[key] = buckets.get(key, 0) + sign * count
        if totals is not None:
            totals[head, len(lengths)] = totals.get((head, len(lengths)), 0) + count
    census: dict = {}
    for (head, lengths), weight in buckets.items():
        tally_gamma(census, (head,), lengths, weight, family.leader_split)
    return census


def enumerate_cf(q: int, s: int, k: int,
                 ell: Optional[int] = None, m: Optional[int] = None) -> list[Forest]:
    """Naturally ordered chain forests of [s] with k blocks and weight q.

    With ell and m given, keeps only forests with gamma(F, ell) = m.
    Returned in canonical order: lexicographic on the flattened element
    sequence, then on the block length sequence.
    """
    return _select(_CF, q, s, k, ell, m, q)


def enumerate_cf_refined(q: int, s: int, k: int, ell: int, m: int) -> int:
    """|CF(q, s, k, ell, m)| by exhaustive enumeration."""
    return len(enumerate_cf(q, s, k, ell, m))


@lru_cache(maxsize=None)
def cf_census(s: int) -> tuple[dict, dict]:
    """One pass over all naturally ordered forests of [s].

    Returns (totals, refined) where totals[(q, k)] counts forests and
    refined[(q, k, ell, m)] additionally classifies by gamma at each
    position.  Treat the returned dicts as read-only.
    """
    totals: dict = {}
    refined = _census(_CF, 0, s, totals)
    return totals, refined


def enumerate_dcf(q: int, s: int, k: Optional[int] = None,
                  ell: Optional[int] = None, m: Optional[int] = None,
                  size_a: Optional[int] = None) -> list[Distinguished]:
    """Valued A-distinguished forests of [s] with |A| + sum(values) = q.

    Optional filters: block count k, gamma(F, ell) = m, and |A| = size_a.
    Canonical order: flattened elements, block lengths, values, then A.
    """
    return _select(_DCF, q, s, k, ell, m, size_a)


def dcf_signed_sum(q: int, s: int, k: int, ell: int, m: int, i: int) -> int:
    """Sum of (-1)^(number of A blocks) over the |A| = i slice of
    DCF(q, s, k, ell, m)."""
    _check_query(q, s, k, ell, m, i=i)
    return dcf_signed_census(q, s).get((i, k, ell, m), 0)


@lru_cache(maxsize=None)
def dcf_signed_census(q: int, s: int) -> dict:
    """dict (i, k, ell, m) -> signed count over all of DCF(q, s)."""
    return _census(_DCF, q, s)


def enumerate_cf1(q: int, s: int, k: int, ell: int, m: int) -> list[Forest]:
    """Forests of [s] counted by the upper-bound expression.

    The last block is led by 1, the other blocks are naturally ordered,
    the weight of the leading blocks plus the size of the 1-block is q,
    gamma(F, ell) = m, and the leader of the (k-m+2)-th block sits at
    position ell+2.  Requires m >= 2 (the position condition forces at
    least two blocks to end after position ell).
    """
    _check_query(q, s, k, ell, m, min_m=2)
    return _select(_CF1, q, s, k, ell, m, q)


def cf1_count(q: int, s: int, k: int, ell: int, m: int) -> int:
    """|enumerate_cf1(q, s, k, ell, m)|, read from the census of [s]."""
    _check_query(q, s, k, ell, m, min_m=2)
    return cf1_census(s).get((q, k, ell, m), 0)


@lru_cache(maxsize=None)
def cf1_census(u: int) -> dict:
    """dict (q, k, ell, m) -> count of the leader-1 forests of [u]."""
    return _census(_CF1, 0, u)


def enumerate_dcf1(q: int, s: int, k: int, ell: int, m: int,
                   size_a: Optional[int] = None) -> list[Distinguished]:
    """The distinguished analogue of enumerate_cf1.

    Elements of DCF(q, s, k, ell, m) with 1 in A, value 0 on the block
    containing 1, and the leader of the (k-m+2)-th block at position
    ell+2.
    """
    return _select(_DCF1, q, s, k, ell, m, size_a)


def dcf1_signed_sum(q: int, s: int, k: int, ell: int, m: int, i: int) -> int:
    """Sum of (-1)^(number of A blocks - 1) over the |A| = i slice of the
    restricted distinguished forests."""
    _check_query(q, s, k, ell, m, i=i)
    return dcf1_signed_census(q, s).get((i, k, ell, m), 0)


@lru_cache(maxsize=None)
def dcf1_signed_census(q: int, s: int) -> dict:
    """dict (i, k, ell, m) -> signed count for the leader-1 restriction."""
    return _census(_DCF1, q, s)


# ---------------------------------------------------------------------------
# text format


def format_block(block: Block) -> str:
    return "[" + ",".join(str(x) for x in block) + "]"


def format_forest(blocks: Forest) -> str:
    return "".join(format_block(b) for b in blocks)


def format_valued(blocks: Forest, values: Sequence[int]) -> str:
    """Blocks with a ^v suffix on each block whose value is nonzero."""
    parts = []
    for b, v in zip(blocks, values):
        parts.append(format_block(b) + (f"^{v}" if v else ""))
    return "".join(parts)


def format_distinguished(d: Distinguished) -> str:
    """Valued forest followed by |A={...} with A sorted ascending."""
    aset = "{" + ",".join(str(x) for x in sorted(d.aset)) + "}"
    return format_valued(d.blocks, d.values) + "|A=" + aset
