"""Reference chain-forest code that only the tests use.

all_ordered_chain_forests is the brute-force generator (every permutation
cut into blocks): it shares no code with the skeleton walk of
panehr.forests, so the tests check the object streams and the image
candidates of panehr.processing against it.  The other helpers are thin
views of forests internals that no command needs: the naturally ordered
stream, a partition check, and one summand of each per-term closed form
with its query checked.
"""

from itertools import permutations
from typing import Iterator, Sequence

from panehr.forests import Forest, _cf_skeletons, _check_query, _expand, _summand, flatten


def check_partition(blocks: Forest, s: int) -> None:
    """Raise ValueError unless the blocks partition {1, ..., s} exactly."""
    seen = flatten(blocks)
    if sorted(seen) != list(range(1, s + 1)):
        raise ValueError(f"blocks do not partition [1..{s}]: {blocks}")
    if any(len(b) == 0 for b in blocks):
        raise ValueError("empty block")


def naturally_ordered_forests(elements: Sequence[int]) -> Iterator[Forest]:
    """All naturally ordered chain forests over the given elements."""
    return _expand(_cf_skeletons(sorted(elements)))


def all_ordered_chain_forests(elements: Sequence[int]) -> Iterator[Forest]:
    """Every ordered chain forest: all block orders, all internal orders.

    Brute-force generator (permutation times cut set), exponential: the
    reference for streams and image candidates.
    """
    elems = tuple(elements)
    n = len(elems)
    if not n:  # the empty ground set has one forest, with no blocks
        yield ()
        return
    for perm in permutations(elems):
        for mask in range(1 << (n - 1)):
            cuts = [i for i in range(1, n) if mask >> (i - 1) & 1]
            bounds = [0] + cuts + [n]
            yield tuple(perm[bounds[i]:bounds[i + 1]] for i in range(len(bounds) - 1))


def dcf_term_formula(q: int, s: int, k: int, ell: int, m: int, i: int) -> int:
    """The i-th summand of the refined closed form, signs included."""
    _check_query(q, s, k, ell, m, i=i)
    return _summand(q, s, k, ell, m, i, 0)


def upper_term_formula(q: int, s: int, k: int, ell: int, m: int, i: int) -> int:
    """The i-th summand of the shifted (upper bound) expression."""
    _check_query(q, s, k, ell, m, i=i)
    return _summand(q, s, k, ell, m, i, 1)
