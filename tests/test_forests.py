"""Unit tests for the forest data model, enumerators, and closed forms."""

import gc
from itertools import combinations, product
from math import comb, factorial
from operator import attrgetter
from typing import Callable, NamedTuple

import pytest

from forest_reference import (
    all_ordered_chain_forests,
    check_partition,
    dcf_term_formula,
    naturally_ordered_forests,
    upper_term_formula,
)
from panehr import forests
from panehr.cli import main
from panehr.forests import upper_expression
from panehr.forests import (
    Distinguished,
    block_weight,
    cf1_count,
    cf_count_formula,
    cf_refined_formula,
    dcf1_signed_sum,
    dcf_signed_sum,
    enumerate_cf,
    enumerate_cf1,
    enumerate_cf_refined,
    enumerate_dcf,
    enumerate_dcf1,
    forest_weight,
    format_distinguished,
    format_forest,
    format_valued,
    gamma,
    is_naturally_ordered,
)


class TestWeights:
    def test_block_weights_worked_example(self):
        assert block_weight((5, 2, 4)) == 2
        assert block_weight((1, 3)) == 0
        assert block_weight((7, 6)) == 1
        assert block_weight((8,)) == 0

    def test_forest_weight_worked_example(self):
        assert forest_weight(((1, 3), (5, 2, 4), (7, 6), (8,))) == 3

    def test_singletons(self):
        assert forest_weight(((1,), (2,), (3,))) == 0

    def test_single_inversion(self):
        assert forest_weight(((2, 1),)) == 1


class TestGamma:
    FOREST = ((1, 3), (4, 2), (5,))

    def test_worked_values(self):
        expected = {0: 3, 1: 3, 2: 2, 3: 2, 4: 1}
        for ell, m in expected.items():
            assert gamma(self.FOREST, ell) == m

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            gamma(self.FOREST, 5)
        with pytest.raises(ValueError):
            gamma(self.FOREST, -1)

    def test_monotone_and_starts_at_block_count(self):
        for s in range(1, 6):
            for f in naturally_ordered_forests(range(1, s + 1)):
                values = [gamma(f, ell) for ell in range(s)]
                assert values[0] == len(f)
                assert all(a >= b for a, b in zip(values, values[1:]))

    def test_vector_matches_every_position(self):
        for s in range(1, 6):
            for f in all_ordered_chain_forests(range(1, s + 1)):
                assert forests.gamma_vector(f) == tuple(gamma(f, ell) for ell in range(s))


class TestEnumerateCF:
    def test_singleton(self):
        assert enumerate_cf(0, 1, 1) == [((1,),)]

    def test_both_orders_of_two(self):
        # brute force over both orderings of {1, 2}: only [2,1] has weight 1
        assert enumerate_cf(1, 2, 1) == [((2, 1),)]

    def test_three_elements_two_blocks(self):
        assert len(enumerate_cf(0, 3, 2)) == 3

    def test_partition_invariant(self):
        for s in range(1, 6):
            for f in naturally_ordered_forests(range(1, s + 1)):
                check_partition(f, s)

    def test_matches_naive_filter(self):
        # the structured generator agrees with permutations-plus-cuts
        for s in range(1, 6):
            fast = set(naturally_ordered_forests(range(1, s + 1)))
            naive = {f for f in all_ordered_chain_forests(range(1, s + 1))
                     if is_naturally_ordered(f)}
            assert fast == naive

    def test_empty_ground_set_has_one_forest_with_no_blocks(self):
        assert list(all_ordered_chain_forests(())) == [()]
        assert list(naturally_ordered_forests(())) == [()]

    def test_canonical_order(self):
        out = enumerate_cf(0, 3, 2)
        assert out == sorted(out, key=lambda f: (forests.flatten(f),
                                                 tuple(map(len, f))))


class TestCountFormulas:
    def test_single_forest(self):
        assert cf_count_formula(0, 1, 1) == 1

    def test_matches_enumeration_one_block(self):
        assert cf_count_formula(1, 2, 1) == len(enumerate_cf(1, 2, 1)) == 1

    def test_matches_enumeration_two_blocks(self):
        assert cf_count_formula(0, 3, 2) == len(enumerate_cf(0, 3, 2)) == 3

    def test_refined_examples(self):
        assert enumerate_cf_refined(0, 2, 2, 1, 1) == 1
        assert enumerate_cf_refined(0, 2, 2, 0, 2) == 1
        assert enumerate_cf_refined(5, 2, 1, 0, 1) == 0

    def test_refined_formula_examples(self):
        assert cf_refined_formula(0, 2, 2, 1, 1) == 1
        assert cf_refined_formula(0, 2, 2, 0, 2) == 1
        assert cf_refined_formula(3, 1, 1, 0, 1) == 0

    def test_marginalization(self):
        for s in range(1, 6):
            for q in range(0, 5):
                for k in range(1, s + 1):
                    total = len(enumerate_cf(q, s, k))
                    for ell in range(s):
                        marginal = sum(enumerate_cf_refined(q, s, k, ell, m)
                                       for m in range(1, k + 1))
                        assert marginal == total

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            cf_count_formula(-1, 2, 1)
        with pytest.raises(ValueError):
            cf_refined_formula(0, 2, 3, 0, 1)


class TestEnumerateDCF:
    def test_zero_budget_forces_empty_a_and_zero_values(self):
        out = enumerate_dcf(0, 2, 2, 0, 2)
        assert out == [Distinguished(((1,), (2,)), (0, 0), frozenset())]

    def test_full_a_on_singleton_ground(self):
        out = enumerate_dcf(1, 1, 1, 0, 1, size_a=1)
        assert out == [Distinguished(((1,),), (0,), frozenset({1}))]

    def test_a_larger_than_budget_is_empty(self):
        assert enumerate_dcf(2, 3, size_a=3) == []

    def test_structure_valid(self):
        for d in enumerate_dcf(2, 3):
            forests.check_distinguished(d)
            assert len(d.aset) + sum(d.values) == 2

    @pytest.mark.parametrize("blocks, values, aset, message", [
        (((1,), (2,)), (0,), (), "one value per block"),
        (((1,),), (-1,), (), "nonnegative"),
        (((1,), ()), (0, 0), (), "nonempty and disjoint"),
        (((1, 2), (2,)), (0, 0), (), "nonempty and disjoint"),
        (((1, 2),), (0,), (2,), "mixes A and non-A"),
        (((2,), (1,)), (0, 0), (2,), "non-A block after an A block"),
        (((1,), (2,)), (0, 0), (2, 3), "do not cover A"),
        (((2, 1), (3,)), (0, 0), (), "nonzero weight"),
        (((3,), (2, 1)), (0, 0), (1, 2), "leader is not its minimum"),
        (((2,), (1,)), (0, 0), (), "non-A blocks are not increasing"),
        (((1,), (2,)), (0, 0), (1, 2), "A blocks are not decreasing"),
        # two rules broken at once: the first in rule order names the failure
        (((2, 1), (1, 3)), (0, -1), (3,), "nonnegative"),
        (((3,), (1, 2)), (0, 0), (1, 3), r"block \(1, 2\) mixes A and non-A"),
        (((2,), (1,), (3, 4)), (0, 0, 0), (2, 3), "non-A block after an A block"),
        (((1,), (3, 2)), (0, 0), (2, 3, 4), "do not cover A"),
        (((3,), (5,), (6, 4)), (0, 0, 0), (3, 4, 5, 6),
         r"A block \(6, 4\) leader is not its minimum"),
        (((2, 1), (3, 4)), (0, 0), (3,), r"block \(3, 4\) mixes A and non-A"),
        (((3,), (2,), (5, 4)), (0, 0, 0), (), r"block \(5, 4\) has nonzero weight"),
    ], ids=["value-count", "negative-value", "empty-block", "repeated-element",
            "mixed-block", "non-a-after-a", "a-not-covered", "nonzero-weight",
            "a-block-weight", "non-a-leaders", "a-leaders",
            "negative-value-before-mixed", "mixed-block-after-a-block",
            "non-a-after-a-before-mixed", "a-not-covered-before-a-block-weight",
            "a-block-weight-before-a-leaders", "mixed-before-nonzero-weight",
            "nonzero-weight-before-non-a-leaders"])
    def test_check_distinguished_rejects(self, blocks, values, aset, message):
        with pytest.raises(ValueError, match=message):
            forests.check_distinguished(Distinguished(blocks, values, frozenset(aset)))

    def test_signed_sum_at_zero_counts_everything(self):
        # with empty A every sign is +1
        plain = enumerate_dcf(2, 3, 2, 0, 2, size_a=0)
        assert dcf_signed_sum(2, 3, 2, 0, 2, 0) == len(plain)

    def test_signed_sum_small(self):
        assert dcf_signed_sum(0, 2, 2, 0, 2, 0) == 1

    def test_signed_sum_matches_term(self):
        assert dcf_signed_sum(1, 2, 2, 0, 2, 1) == \
            dcf_term_formula(1, 2, 2, 0, 2, 1) == -2


class TestCF1:
    def test_rejects_small_m(self):
        with pytest.raises(ValueError):
            enumerate_cf1(1, 2, 2, 0, 1)
        with pytest.raises(ValueError):
            cf1_count(1, 2, 2, 0, 1)

    @pytest.mark.parametrize("ell", [-1, 3, 7])
    def test_rejects_position_outside_the_forest(self, ell):
        for query in (enumerate_cf1, cf1_count):
            with pytest.raises(ValueError, match="need 0 <= ell <= s-1"):
                query(0, 3, 2, ell, 2)

    def test_budget_below_one_is_empty(self):
        assert cf1_count(0, 2, 2, 0, 2) == 0

    def test_smallest_example(self):
        assert enumerate_cf1(1, 2, 2, 0, 2) == [((2,), (1,))]

    def brute_cf1(self, q, s, k, ell, m):
        """Literal filter over every ordered chain forest of [s]."""
        count = 0
        for f in all_ordered_chain_forests(range(1, s + 1)):
            if len(f) != k:
                continue
            last = f[-1]
            if last[0] != 1:
                continue
            if sum(block_weight(b) for b in f[:-1]) + len(last) != q:
                continue
            if not is_naturally_ordered(f[:-1]):
                continue
            if gamma(f, ell) != m:
                continue
            starts = [1]
            for b in f[:-1]:
                starts.append(starts[-1] + len(b))
            if k - m + 2 > len(f) or starts[k - m + 2 - 1] != ell + 2:
                continue
            count += 1
        return count

    def test_matches_brute_force(self):
        assert cf1_count(2, 3, 2, 0, 2) == self.brute_cf1(2, 3, 2, 0, 2)
        for s in range(2, 5):
            for q in range(0, 4):
                for k in range(1, s + 1):
                    for ell in range(s):
                        for m in range(2, k + 1):
                            assert cf1_count(q, s, k, ell, m) == \
                                self.brute_cf1(q, s, k, ell, m), (q, s, k, ell, m)


class TestDCF1:
    def test_one_always_in_a(self):
        for d in enumerate_dcf1(2, 2, 2, 0, 2):
            assert 1 in d.aset

    def test_value_zero_on_block_of_one(self):
        for d in enumerate_dcf1(3, 3, 2, 1, 2):
            idx = next(i for i, b in enumerate(d.blocks) if 1 in b)
            assert d.values[idx] == 0

    def test_position_out_of_range_gives_empty(self):
        # ell + 2 beyond the ground set leaves nothing
        assert enumerate_dcf1(2, 2, 2, 1, 2) == []

    def test_signed_sum_matches_term_small(self):
        for s in range(1, 4):
            for q in range(0, 3):
                for k in range(1, s + 1):
                    for ell in range(s):
                        for m in range(1, k + 1):
                            for i in range(q + 1):
                                assert dcf1_signed_sum(
                                    q + 1, s + 1, k + 1, ell, m + 1, i + 1) == \
                                    upper_term_formula(q, s, k, ell, m, i)


class TestFamilies:
    # each keep mode of the partition walk, expanded, against the matching
    # filter of the brute-force generator, one naturally ordered forest per
    # chain set
    KEEP_MODES = {
        "none": (lambda elems: (), lambda f: True),
        "every-leader": (lambda elems: elems,
                         lambda f: all(b[0] == min(b) for b in f)),
        "one": (lambda elems: {1}, lambda f: all(b[0] == 1 for b in f if 1 in b)),
    }

    @pytest.mark.parametrize("mode", sorted(KEEP_MODES))
    def test_chain_sets_keep_modes(self, mode):
        make_keep, wanted = self.KEEP_MODES[mode]
        for s in range(1, 7):
            elems = tuple(range(1, s + 1))
            skeletons = ((0, led, 1, orders, None, 0, 0)
                         for led, orders in forests._led_partitions(elems, make_keep(elems)))
            made = [tuple(sorted(cs)) for cs in forests._expand(skeletons)]
            assert len(made) == len(set(made))
            assert set(made) == {f for f in all_ordered_chain_forests(elems)
                                 if is_naturally_ordered(f) and wanted(f)}

    @pytest.mark.parametrize("family", ["cf", "cf1", "dcf", "dcf1"])
    def test_enumerator_agrees_with_census(self, family):
        for s in range(1, 6):
            for q in range(0, 4):
                for k in range(1, s + 1):
                    for ell in range(s):
                        for m in range(1, k + 1):
                            if family == "cf":
                                assert len(enumerate_cf(q, s, k, ell, m)) == \
                                    forests.cf_census(s)[1].get((q, k, ell, m), 0)
                            elif family == "cf1":
                                listed = enumerate_cf1(q, s, k, ell, m) if m >= 2 else []
                                assert len(listed) == \
                                    forests.cf1_census(s).get((q, k, ell, m), 0)
                            else:
                                # sign (-1)^(A blocks), or (-1)^(A blocks - 1) for dcf1
                                enum, signed_sum, shift = (
                                    (enumerate_dcf, dcf_signed_sum, 0) if family == "dcf"
                                    else (enumerate_dcf1, dcf1_signed_sum, 1))
                                for i in range(q + 1):
                                    listed = enum(q, s, k, ell, m, size_a=i)
                                    assert sum((-1) ** (forests.distinguished_block_count(d)
                                                        - shift) for d in listed) == \
                                        signed_sum(q, s, k, ell, m, i)


def test_partition_walk_leaves_no_reference_cycle():
    # a walk's generators must be freed by reference counting alone, with
    # nothing left for the cyclic collector
    gc.collect()
    gc.disable()
    try:
        walked = sum(1 for _ in forests._led_partitions(range(1, 6)))
        assert gc.collect() == 0
    finally:
        gc.enable()
    # the set partitions of [5] with one leader per block
    assert walked == 196


def test_dcf_walk_counts_value_vectors_without_building_them():
    for budget in range(5):
        for parts in range(5):
            assert forests._value_vector_count(budget, parts) == \
                len(forests._value_vectors(budget, parts, parts + 1))
    before = forests._value_vectors.cache_info()
    for need_one in (False, True):
        assert sum(1 for _ in forests._dcf_skeletons(4, 4, need_one))
    assert forests._value_vectors.cache_info() == before


FAMILIES = {"cf": forests._CF, "cf1": forests._CF1,
            "dcf": forests._DCF, "dcf1": forests._DCF1}


class View(NamedTuple):
    """A family read object by object: an object's forest, the statistic
    that keys its census (q or |A|) and the sign it counts with, the
    reference for the census and the enumerators' skeleton filter."""

    blocks: Callable
    head: Callable
    sign: Callable


VIEWS = {
    "cf": View(blocks=lambda f: f, head=forest_weight, sign=lambda f: 1),
    "cf1": View(blocks=lambda f: f, head=lambda f: forest_weight(f[:-1]) + len(f[-1]),
                sign=lambda f: 1),
    "dcf": View(blocks=attrgetter("blocks"), head=lambda d: len(d.aset),
                sign=lambda d: (-1) ** forests.distinguished_block_count(d)),
    "dcf1": View(blocks=attrgetter("blocks"), head=lambda d: len(d.aset),
                 sign=lambda d: (-1) ** (forests.distinguished_block_count(d) - 1)),
}


def _leader_at(blocks, ell, m):
    """The leader of the (k-m+2)-th block sits at 1-based position ell+2,
    spelled out on the blocks."""
    idx = len(blocks) - m + 2
    return 1 <= idx <= len(blocks) and 1 + sum(map(len, blocks[:idx - 1])) == ell + 2


def _per_object_census(family, view, q, s, totals=None):
    """The census tallied object by object: each object visits every
    position, with the leader-position test spelled out on its blocks."""
    census = {}
    for item in forests._expand(family.skeletons(q, s)):
        blocks = view.blocks(item)
        head, k = view.head(item), len(blocks)
        if totals is not None:
            totals[head, k] = totals.get((head, k), 0) + 1
        for ell, m in enumerate(forests.gamma_vector(blocks)):
            if family.leader_split and not _leader_at(blocks, ell, m):
                continue
            key = (head, k, ell, m)
            census[key] = census.get(key, 0) + view.sign(item)
    return census


def _per_object_lists(family, view, stream, s):
    """Every enumerator query's list for the expanded stream of (q, s),
    filtered object by object: each object joins the list of every
    (k, ell, m, head) it meets by its own block count, head, gamma and,
    for the leader-1 families, leader position, where a filter given as
    None is met by every object.  Lists in canonical order."""
    lists = {}
    for item in stream:
        blocks = view.blocks(item)
        cells = [(None, None)] + [
            (ell, m) for ell in range(s) for m in [forests.gamma(blocks, ell)]
            if not family.leader_split or _leader_at(blocks, ell, m)]
        for k, (ell, m), head in product((None, len(blocks)), cells,
                                         (None, view.head(item))):
            lists.setdefault((k, ell, m, head), []).append(item)
    return {query: sorted(items, key=family.sort_key) for query, items in lists.items()}


class TestSelect:
    """An enumerator expands only the skeletons in its query's cell and
    returns what filtering every object of the family would."""

    @staticmethod
    def queries(name, q, s):
        """Every valid query of the family for (q, s), as the arguments
        (k, ell, m, head) of _select."""
        ks = [None, *range(1, s + 1)] if name == "dcf" else range(1, s + 1)
        for k in ks:
            for ell, m in ([(None, None)] if name in ("cf", "dcf") else []) + [
                    (ell, m) for ell in range(s) for m in range(1, (k or s) + 1)
                    if m >= 2 or not name.endswith("1")]:
                for head in [q] if name.startswith("cf") else [None, *range(q + 1)]:
                    yield k, ell, m, head

    @staticmethod
    def enumerate(name, q, s, k, ell, m, head):
        if name == "cf":
            return enumerate_cf(q, s, k, ell, m)
        if name == "cf1":
            return enumerate_cf1(q, s, k, ell, m)
        enum = enumerate_dcf if name == "dcf" else enumerate_dcf1
        return enum(q, s, k, ell, m, size_a=head)

    @pytest.mark.parametrize("name", sorted(FAMILIES))
    def test_matches_the_per_object_filter(self, name):
        family = FAMILIES[name]
        for s in range(0, 6):
            for q in range(0, 4):
                lists = _per_object_lists(family, VIEWS[name],
                                          forests._expand(family.skeletons(q, s)), s)
                for query in self.queries(name, q, s):
                    assert self.enumerate(name, q, s, *query) == lists.get(query, []), \
                        (q, s, query)

    def test_expands_only_its_matches(self, monkeypatch):
        expanded = []
        expand = forests._expand

        def counting(skeletons):
            for item in expand(skeletons):
                expanded.append(item)
                yield item

        monkeypatch.setattr(forests, "_expand", counting)
        for name in sorted(FAMILIES):
            for s in range(0, 5):
                for q in range(0, 3):
                    for query in self.queries(name, q, s):
                        expanded.clear()
                        listed = self.enumerate(name, q, s, *query)
                        assert len(expanded) == len(listed), (name, q, s, query)

    def test_empty_forest_has_no_cell(self):
        # the one DCF object of [0] has no position, so no (k, ell, m)
        # cell; the query with ell None still lists it
        assert enumerate_dcf(0, 0) == [Distinguished((), (), frozenset())]
        assert forests.dcf_signed_census(0, 0) == {}

    def test_leader_one_query_without_position_is_empty(self):
        # a leader-1 object is placed by its leader position, so a query
        # without ell lists none, as its census counts none
        assert enumerate_cf1(1, 2, 2, None, None) == [] == \
            enumerate_dcf1(1, 2, 2, None, None)
        assert cf1_count(1, 2, 2, None, None) == 0 == dcf1_signed_sum(1, 2, 2, None, None, 0)

    def test_sparse_queries_at_eight(self):
        listed = enumerate_cf(1, 8, 7)
        assert len(listed) == 28 == forests.cf_census(8)[0][1, 7]
        listed = enumerate_cf1(3, 8, 6, 4, 3)
        assert len(listed) == 130 == forests.cf1_census(8)[3, 6, 4, 3]
        for enum, census, shift, query, size in (
                (enumerate_dcf, forests.dcf_signed_census, 0, (2, 8, 7, 6, 1), 56),
                (enumerate_dcf1, forests.dcf1_signed_census, 1, (3, 8, 6, 4, 3), 1390)):
            listed = enum(*query)
            assert len(listed) == size
            q, s, k, ell, m = query
            signed = {}
            for d in listed:
                i = len(d.aset)
                signed[i] = signed.get(i, 0) + (-1) ** (
                    forests.distinguished_block_count(d) - shift)
            assert signed == {i: census(q, s)[i, k, ell, m] for i in range(q + 1)
                              if (i, k, ell, m) in census(q, s)}


class TestCensusAgainstPerObjectTally:
    """The bucketed censuses equal the per-object tally cell for cell,
    cells whose signed sum is 0 included (dcf_signed_census(2, 4) has two,
    at (2, 3, 0, 3) and (2, 3, 3, 1))."""

    @pytest.mark.parametrize("s", range(0, 8))
    def test_cf(self, s):
        totals = {}
        refined = _per_object_census(forests._CF, VIEWS["cf"], 0, s, totals)
        assert forests.cf_census(s) == (totals, refined)

    @pytest.mark.parametrize("s", range(0, 8))
    def test_cf1(self, s):
        assert forests.cf1_census(s) == _per_object_census(forests._CF1, VIEWS["cf1"], 0, s)

    @pytest.mark.parametrize("q", range(0, 6))
    def test_dcf(self, q):
        for s in range(0, 6):
            assert forests.dcf_signed_census(q, s) == \
                _per_object_census(forests._DCF, VIEWS["dcf"], q, s), s

    @pytest.mark.parametrize("q", range(0, 6))
    def test_dcf1(self, q):
        for s in range(0, 6):
            assert forests.dcf1_signed_census(q, s) == \
                _per_object_census(forests._DCF1, VIEWS["dcf1"], q, s), s

    def test_bucket_summing_to_zero_is_expanded(self):
        # in the four families the head and the lengths fix the sign, so no
        # bucket cancels there; a family with opposite signs in one bucket
        one, two = (1, (1,), 0), (2, (2,), 0)
        family = forests._CF._replace(
            skeletons=lambda q, s: iter([(0, (one, two), 1, 1, None, 0, 0),
                                         (0, (two, one), -1, 1, None, 0, 0)]))
        view = VIEWS["cf"]._replace(sign=lambda f: 1 if f[0] == (1,) else -1)
        assert forests._census(family, 0, 2) == _per_object_census(family, view, 0, 2) == \
            {(0, 2, 0, 2): 0, (0, 2, 1, 1): 0}


class TestSkeletons:
    """A skeleton (set partition plus leaders) stands for exactly the
    objects its count says."""

    @pytest.mark.parametrize("name", sorted(FAMILIES))
    def test_counts_match_the_stream(self, name):
        family, view = FAMILIES[name], VIEWS[name]
        distinguished = name.startswith("dcf")
        for s in range(0, 7):
            for q in range(0, 5) if distinguished else [0]:
                # objects and skeleton counts by (head, lengths), unsigned
                listed, counted = {}, {}
                for item in forests._expand(family.skeletons(q, s)):
                    key = (view.head(item), tuple(map(len, view.blocks(item))))
                    listed[key] = listed.get(key, 0) + 1
                for head, led, _, count, _, _, _ in family.skeletons(q, s):
                    lengths = tuple(len(b) for _, b, _ in led)
                    counted[head, lengths] = counted.get((head, lengths), 0) + count
                # equal per (head, lengths), so also in total
                assert counted == listed, (q, s)

    def test_cf_totals_at_eight_are_lah_numbers(self):
        s = 8
        totals, _ = forests.cf_census(s)
        for k in range(1, s + 1):
            lah = comb(s - 1, k - 1) * factorial(s) // factorial(k)
            assert sum(n for (_, kk), n in totals.items() if kk == k) == lah, k

    def test_census_reads_no_object_stream(self, monkeypatch):
        # a census that went back to expanding objects would raise here
        censuses = (forests.cf_census, forests.cf1_census,
                    forests.dcf_signed_census, forests.dcf1_signed_census)
        expected = [(forests.cf_census(s), forests.cf1_census(s))
                    for s in range(0, 5)]
        expected_dcf = {(q, s): (forests.dcf_signed_census(q, s),
                                 forests.dcf1_signed_census(q, s))
                        for q in range(0, 5) for s in range(0, 5)}

        def no_expansion(skeletons):
            raise AssertionError("census expanded the objects")

        monkeypatch.setattr(forests, "_expand", no_expansion)
        for census in censuses:
            census.cache_clear()
        try:
            for s in range(0, 5):
                assert (forests.cf_census(s), forests.cf1_census(s)) == expected[s]
                for q in range(0, 5):
                    assert (forests.dcf_signed_census(q, s),
                            forests.dcf1_signed_census(q, s)) == expected_dcf[q, s]
        finally:
            for census in censuses:
                census.cache_clear()


def _brute_distinguished(q, s):
    """Every valued A-distinguished forest of [s] with budget q, read off
    the brute-force generator: each ordered chain forest, each A and each
    composition of q - |A| that check_distinguished accepts."""
    universe = range(1, s + 1)
    found = set()
    for f in all_ordered_chain_forests(universe):
        for i in range(min(q, s) + 1):
            for aset in combinations(universe, i):
                for values in forests.compositions(q - i, len(f)):
                    d = Distinguished(f, values, frozenset(aset))
                    try:
                        forests.check_distinguished(d)
                    except ValueError:
                        continue
                    found.add(d)
    return found


class TestStreamsAgainstBruteForce:
    """The distinguished streams, expanded from their skeletons, are
    exactly the brute-force objects, each once."""

    @pytest.mark.parametrize("s", range(0, 5))
    def test_dcf(self, s):
        for q in range(0, 4):
            streamed = list(forests.iter_dcf(q, s))
            assert len(streamed) == len(set(streamed))
            assert set(streamed) == _brute_distinguished(q, s), q

    @pytest.mark.parametrize("s", range(0, 5))
    def test_dcf1(self, s):
        # 1 in A, so 1 leads the last block, and value 0 there
        for q in range(0, 4):
            streamed = list(forests._expand(forests._DCF1.skeletons(q, s)))
            assert len(streamed) == len(set(streamed))
            assert set(streamed) == {d for d in _brute_distinguished(q, s)
                                     if 1 in d.aset and d.values[-1] == 0}, q


class TestTextFormat:
    def test_forest(self):
        assert format_forest(((1, 3), (4, 2), (5,))) == "[1,3][4,2][5]"

    def test_valued_suppresses_zero(self):
        assert format_valued(((1, 6, 2), (3, 7, 5), (4,)), (2, 1, 0)) == \
            "[1,6,2]^2[3,7,5]^1[4]"

    def test_distinguished_golden(self):
        d = Distinguished(((1, 5, 3), (2,), (4, 7), (8,), (6,)),
                          (2, 2, 1, 0, 1), frozenset({6, 8}))
        assert format_distinguished(d) == "[1,5,3]^2[2]^2[4,7]^1[8][6]^1|A={6,8}"

    def test_empty_a(self):
        d = Distinguished(((1,),), (0,), frozenset())
        assert format_distinguished(d) == "[1]|A={}"


# a valid query, and one broken rule per row applied to it with the message
# that every consumer of the query raises for it; i is the |A| slice of the
# per-term consumers and size_a the same filter of the distinguished
# enumerators
VALID_QUERY = {"q": 1, "s": 3, "k": 2, "ell": 0, "m": 2, "i": 0, "size_a": 0}
INVALID_QUERIES = [
    ({"q": -1}, "need q >= 0, got q=-1"),
    ({"i": -1}, "need i >= 0, got i=-1"),
    ({"size_a": -1}, "need i >= 0, got i=-1"),
    ({"k": 0}, "need 1 <= k <= s, got k=0, s=3"),
    ({"k": 4}, "need 1 <= k <= s, got k=4, s=3"),
    ({"ell": -1}, "need 0 <= ell <= s-1, got ell=-1"),
    ({"ell": 3}, "need 0 <= ell <= s-1, got ell=3"),
    ({"m": 0}, "need 1 <= m <= k, got m=0"),
    ({"m": 3}, "need 1 <= m <= k, got m=3"),
    ({"m": None}, "ell and m must be given together"),
]
FIVE = ("q", "s", "k", "ell", "m")
# consumer: (the parameters it takes, whether ell and m are optional)
QUERY_CONSUMERS = {
    enumerate_cf: (FIVE, True),
    enumerate_cf_refined: (FIVE, False),
    enumerate_dcf: (FIVE + ("size_a",), True),
    enumerate_cf1: (FIVE, False),
    enumerate_dcf1: (FIVE + ("size_a",), False),
    cf_count_formula: (("q", "s", "k"), False),
    cf_refined_formula: (FIVE, False),
    cf1_count: (FIVE, False),
    upper_expression: (FIVE, False),
    dcf_term_formula: (FIVE + ("i",), False),
    upper_term_formula: (FIVE + ("i",), False),
    dcf_signed_sum: (FIVE + ("i",), False),
    dcf1_signed_sum: (FIVE + ("i",), False),
}
# enumerate kind: whether --ell and --m are optional
ENUMERATE_KINDS = {"forests": True, "dcf": False, "cf1": False}


def _invalid_cases(prefix, takes, optional):
    """The rows of INVALID_QUERIES that a consumer taking these parameters
    can be given, leaving m out only where ell and m are optional, as
    (test id, query restricted to those parameters, message)."""
    for change, message in INVALID_QUERIES:
        (name, value), = change.items()
        if name in takes and (value is not None or optional):
            query = {**VALID_QUERY, **change}
            yield f"{prefix}-{name}={value}", {p: query[p] for p in takes}, message


class TestQueryRules:
    """Both sides of the identity, and the CLI, reject the same queries."""

    @pytest.mark.parametrize("consumer", list(QUERY_CONSUMERS), ids=lambda f: f.__name__)
    def test_valid_query_is_answered(self, consumer):
        takes, _ = QUERY_CONSUMERS[consumer]
        consumer(**{p: VALID_QUERY[p] for p in takes})

    @pytest.mark.parametrize("consumer", [
        consumer for consumer, (takes, _) in QUERY_CONSUMERS.items()
        if {"i", "size_a"} & set(takes)], ids=lambda f: f.__name__)
    def test_slice_above_the_budget_is_empty(self, consumer):
        # no A of size 3 fits the budget q = 1, on either side of the identity
        takes, _ = QUERY_CONSUMERS[consumer]
        query = {**VALID_QUERY, "i": 3, "size_a": 3}
        assert consumer(**{p: query[p] for p in takes}) in (0, [])

    @pytest.mark.parametrize("consumer, query, message", [
        pytest.param(consumer, query, message, id=case)
        for consumer, (takes, optional) in QUERY_CONSUMERS.items()
        for case, query, message in _invalid_cases(consumer.__name__, takes, optional)])
    def test_library_raises(self, consumer, query, message):
        takes, _ = QUERY_CONSUMERS[consumer]
        with pytest.raises(ValueError) as exc:
            consumer(**{p: query[p] for p in takes})
        assert str(exc.value) == message

    @pytest.mark.parametrize("kind, query, message", [
        pytest.param(kind, query, message, id=case)
        for kind, optional in ENUMERATE_KINDS.items()
        for case, query, message in _invalid_cases(kind, FIVE, optional)])
    def test_cli_prints_the_library_message(self, capsys, kind, query, message):
        argv = ["enumerate", kind]
        for name, value in query.items():
            if value is not None:
                argv += [f"--{name}", str(value)]
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == f"panehr: error: {message}\n"
