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

The enumerators here are deliberately exhaustive; they serve as the
ground truth against which the closed-form counting expressions (also in
this module) are verified.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, permutations
from operator import attrgetter
from typing import Any, Callable, Collection, Iterator, NamedTuple, Optional, Sequence

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


def check_partition(blocks: Forest, s: int) -> None:
    """Assert that the blocks partition {1, ..., s} exactly."""
    seen = flatten(blocks)
    if sorted(seen) != list(range(1, s + 1)):
        raise ValueError(f"blocks do not partition [1..{s}]: {blocks}")
    if any(len(b) == 0 for b in blocks):
        raise ValueError("empty block")


def _canonical_key(blocks: Forest) -> tuple:
    return (flatten(blocks), tuple(len(b) for b in blocks))


# ---------------------------------------------------------------------------
# enumerators

def _chain_sets(elements: Sequence[int], keep: Collection[int] = ()
                ) -> Iterator[list[Block]]:
    """All ways to arrange the given elements into disjoint ordered chains
    in which an element of keep that leads a chain stays its leader.

    Elements are inserted one at a time, in the given order; each insertion
    point (the front of a chain, directly after any element, or a fresh
    chain, tried in that order) produces a distinct arrangement, so every
    chain set appears exactly once.  The front of a chain led by an
    element of keep is skipped.  With keep empty this gives every chain
    set; with every element kept and inserted in increasing order, the
    weight-0 chains (leader minimal); with keep = {1}, the chain sets
    where 1 leads its chain.  Chains come in the order of their first
    inserted element.
    """
    elems = list(elements)
    chains: list[list[int]] = []

    def rec(idx: int) -> Iterator[list[Block]]:
        if idx == len(elems):
            yield [tuple(c) for c in chains]
            return
        e = elems[idx]
        for c in chains:
            for pos in range(1 if c[0] in keep else 0, len(c) + 1):
                c.insert(pos, e)
                yield from rec(idx + 1)
                del c[pos]
        chains.append([e])
        yield from rec(idx + 1)
        chains.pop()

    yield from rec(0)


def naturally_ordered_forests(elements: Sequence[int]) -> Iterator[Forest]:
    """All naturally ordered chain forests over the given elements."""
    # disjoint blocks sort by their leaders
    for cs in _chain_sets(elements):
        yield tuple(sorted(cs))


def all_ordered_chain_forests(elements: Sequence[int]) -> Iterator[Forest]:
    """Every ordered chain forest: all block orders, all internal orders.

    Brute-force generator (permutation times cut set); exponential, kept
    as the independent cross-check for the structured enumerators.
    """
    elems = tuple(elements)
    n = len(elems)
    for perm in permutations(elems):
        for mask in range(1 << max(n - 1, 0)):
            cuts = [i for i in range(1, n) if mask >> (i - 1) & 1]
            bounds = [0] + cuts + [n]
            yield tuple(perm[bounds[i]:bounds[i + 1]] for i in range(len(bounds) - 1))


# ---------------------------------------------------------------------------
# closed-form counts


def _summand(q: int, s: int, k: int, ell: int, m: int, i: int, shift: int) -> int:
    """The i-th summand of the refined closed form, signs included; shift
    lowers both ends of the first product range (1 for the upper bound)."""
    return ((-1) ** i * binomial(s, i)
            * pi_range(-i + 1 - shift, s - 1 - ell - i - shift, s - ell - m)
            * pi_range(s - ell - i, s - 1 - i, ell - (k - m))
            * binomial(k - 1 + q - i, k - 1))


def cf_count_formula(q: int, s: int, k: int) -> int:
    """Closed form for |CF(q, s, k)|: an alternating binomial and
    symmetric-sum expression over i = 0..q."""
    if q < 0 or not 1 <= k <= s:
        raise ValueError(f"need q >= 0 and 1 <= k <= s, got q={q}, k={k}, s={s}")
    # every forest of [s] has exactly one trailer after position s-1
    return cf_refined_formula(q, s, k, s - 1, 1)


def cf_refined_formula(q: int, s: int, k: int, ell: int, m: int) -> int:
    """Closed form for |CF(q, s, k, ell, m)| (the refined identity)."""
    if q < 0 or not 1 <= m <= k <= s or not 0 <= ell <= s - 1:
        raise ValueError(
            f"need q >= 0, 1 <= m <= k <= s, 0 <= ell <= s-1, "
            f"got q={q}, s={s}, k={k}, ell={ell}, m={m}")
    return sum(_summand(q, s, k, ell, m, i, 0) for i in range(q + 1))


def dcf_term_formula(q: int, s: int, k: int, ell: int, m: int, i: int) -> int:
    """The i-th summand of the refined closed form, signs included."""
    return _summand(q, s, k, ell, m, i, 0)


def upper_term_formula(q: int, s: int, k: int, ell: int, m: int, i: int) -> int:
    """The i-th summand of the shifted (upper bound) expression."""
    return _summand(q, s, k, ell, m, i, 1)


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


def _a_split(d: Distinguished) -> tuple[int, Optional[str]]:
    """Index of the first A block (len(d.blocks) if none) and the first
    violated property, or None: blocks wholly in or out of A, non-A blocks
    first, A blocks covering A, min-led and decreasing by leader."""
    blocks, _, aset = d
    split = len(blocks)
    for idx, b in enumerate(blocks):
        if aset.isdisjoint(b):
            if idx > split:
                return split, "non-A block after an A block"
        elif aset.issuperset(b):
            split = min(split, idx)
        else:
            return split, f"block {b} mixes A and non-A elements"
    cpart = blocks[split:]
    if set(flatten(cpart)) != set(aset):
        return split, "A blocks do not cover A exactly"
    for b in cpart:
        if not _is_min_led(b):
            return split, f"A block {b} leader is not its minimum"
    if any(cpart[i][0] < cpart[i + 1][0] for i in range(len(cpart) - 1)):
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
    if len(values) != len(blocks):
        raise ValueError("one value per block required")
    if any(v < 0 for v in values):
        raise ValueError("values must be nonnegative")
    seen = flatten(blocks)
    if len(set(seen)) != len(seen) or any(len(b) == 0 for b in blocks):
        raise ValueError("blocks must be nonempty and disjoint")
    split, violation = _a_split(d)
    if violation:
        raise ValueError(violation)
    bpart = blocks[:split]
    for b in bpart:
        if block_weight(b) != 0:
            raise ValueError(f"block {b} has nonzero weight")
    if not is_naturally_ordered(bpart):
        raise ValueError("non-A blocks are not increasing by leader")
    return split


def _dcf_iter(q: int, s: int, need_one: bool = False) -> Iterator[Distinguished]:
    """All valued A-distinguished forests of [s] with |A| + sum(values) = q.

    With need_one, restricts to subsets A containing the element 1.
    """
    universe = tuple(range(1, s + 1))
    for i in range(0, min(q, s) + 1):
        for aset in combinations(universe, i):
            if need_one and 1 not in aset:
                continue
            rest = tuple(e for e in universe if e not in aset)
            afro = frozenset(aset)
            # every block has weight 0; the A blocks decrease by leader
            cparts = [tuple(sorted(cs, reverse=True)) for cs in _chain_sets(aset, aset)]
            for bpart in _chain_sets(rest, rest):
                bblocks = tuple(sorted(bpart))
                for cblocks in cparts:
                    blocks = bblocks + cblocks
                    for values in compositions(q - i, len(blocks)):
                        yield Distinguished(blocks, values, afro)


def iter_dcf(q: int, s: int, need_one: bool = False) -> Iterator[Distinguished]:
    """Unfiltered stream over DCF(q, s); see enumerate_dcf for filters."""
    return _dcf_iter(q, s, need_one)


def _dcf_sort_key(d: Distinguished) -> tuple:
    return _canonical_key(d.blocks) + (d.values, tuple(sorted(d.aset)))


# ---------------------------------------------------------------------------
# the leader-1 variants used for the coefficient upper bound


def _leader_position_ok(blocks: Forest, k: int, m: int, ell: int) -> bool:
    """Leader of the (k-m+2)-th block sits at flattened position ell+2."""
    idx = k - m + 2
    if not 1 <= idx <= len(blocks):
        return False
    start = 1 + sum(len(blocks[i]) for i in range(idx - 1))
    return start == ell + 2


def _cf1_forests(u: int) -> Iterator[Forest]:
    """Forests of [u] whose last block is led by 1, all other blocks
    naturally ordered among themselves."""
    # 1 is inserted first, so its chain comes first; [0] has no such forest
    for one, *others in (_chain_sets(range(1, u + 1), {1}) if u else ()):
        yield tuple(sorted(others)) + (one,)


# ---------------------------------------------------------------------------
# the four families, each described once; every enumerator and census below
# is derived from these descriptions


class _Family(NamedTuple):
    """A chain-forest family: the stream of its objects for (q, s), the
    forest of an object, the statistic that keys its census and that its
    enumerator selects on (q or |A|), the sign an object counts with, the
    restriction an object must meet (None: none), whether only positions
    passing _leader_position_ok count, and the canonical sort key."""

    stream: Callable[[int, int], Iterator]
    blocks: Callable[[Any], Forest]
    head: Callable[[Any], int]
    sign: Callable[[Any], int]
    restrict: Optional[Callable[[Any], bool]]
    leader_split: bool
    sort_key: Callable[[Any], tuple]


# CF: naturally ordered forests of [s], keyed by their weight q
_CF = _Family(stream=lambda q, s: naturally_ordered_forests(range(1, s + 1)),
              blocks=lambda f: f, head=forest_weight, sign=lambda f: 1,
              restrict=None, leader_split=False, sort_key=_canonical_key)
# CF1: forests of [s] whose last block is led by 1, keyed by the weight of
# the other blocks plus the size of the 1-block
_CF1 = _Family(stream=lambda q, s: _cf1_forests(s),
               blocks=lambda f: f, head=lambda f: forest_weight(f[:-1]) + len(f[-1]),
               sign=lambda f: 1, restrict=None, leader_split=True,
               sort_key=_canonical_key)
# DCF: valued A-distinguished forests of budget q, keyed by |A|, signed by
# the number of A blocks
_DCF = _Family(stream=_dcf_iter, blocks=attrgetter("blocks"),
               head=lambda d: len(d.aset),
               sign=lambda d: (-1) ** distinguished_block_count(d),
               restrict=None, leader_split=False, sort_key=_dcf_sort_key)
# DCF1: those with 1 in A, so 1 leads the last block, and value 0 there;
# keyed by |A|, signed by the number of A blocks other than the last
_DCF1 = _Family(stream=lambda q, s: _dcf_iter(q, s, need_one=True),
                blocks=attrgetter("blocks"), head=lambda d: len(d.aset),
                sign=lambda d: (-1) ** (distinguished_block_count(d) - 1),
                restrict=lambda d: d.values[-1] == 0, leader_split=True,
                sort_key=_dcf_sort_key)


def _select(family: _Family, q: int, s: int, k: Optional[int], ell: Optional[int],
            m: Optional[int], head: Optional[int]) -> list:
    """The family's objects for (q, s) with k blocks, gamma(F, ell) = m and
    the given head statistic (a filter given as None is skipped) that meet
    its restriction and, for the leader-1 families, _leader_position_ok; in
    canonical order."""
    if (ell is None) != (m is None):
        raise ValueError("ell and m must be given together")
    out = []
    for item in family.stream(q, s):
        blocks = family.blocks(item)
        if k is not None and len(blocks) != k:
            continue
        if ell is not None and gamma(blocks, ell) != m:
            continue
        if head is not None and family.head(item) != head:
            continue
        if family.leader_split and not _leader_position_ok(blocks, k, m, ell):
            continue
        if family.restrict and not family.restrict(item):
            continue
        out.append(item)
    out.sort(key=family.sort_key)
    return out


def tally_gamma(census: dict, head: tuple, blocks: Forest,
                weight: int = 1, leader_split: bool = False) -> tuple[int, ...]:
    """Add weight to census[head + (k, ell, m)] at every position ell, where
    k is the block count and m = gamma(blocks, ell); returns the gamma vector.

    With leader_split, only positions where the leader of the (k-m+2)-th
    block sits at ell+2 are counted (the leader-1 censuses).
    """
    k = len(blocks)
    gvec = gamma_vector(blocks)
    for ell, m in enumerate(gvec):
        if leader_split and not _leader_position_ok(blocks, k, m, ell):
            continue
        key = head + (k, ell, m)
        census[key] = census.get(key, 0) + weight
    return gvec


def _census(family: _Family, q: int, s: int, totals: Optional[dict] = None) -> dict:
    """dict (head, k, ell, m) -> signed count of the family's objects for
    (q, s) that meet its restriction; with totals, also counts those
    objects by (head, k) there."""
    stream, blocks_of, head_of, sign, restrict, leader_split, _ = family
    census: dict = {}
    for item in stream(q, s):
        if restrict and not restrict(item):
            continue
        blocks = blocks_of(item)
        head = head_of(item)
        if totals is not None:
            totals[head, len(blocks)] = totals.get((head, len(blocks)), 0) + 1
        tally_gamma(census, (head,), blocks, sign(item), leader_split)
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
    if m < 2:
        raise ValueError(f"need m >= 2, got m={m}")
    if not 0 <= ell <= s - 1:
        raise ValueError(f"need 0 <= ell <= s-1, got ell={ell}")
    return _select(_CF1, q, s, k, ell, m, q)


def cf1_count(q: int, s: int, k: int, ell: int, m: int) -> int:
    if m < 2:
        raise ValueError(f"need m >= 2, got m={m}")
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
