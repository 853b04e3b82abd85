"""Unit tests for the forest data model, enumerators, and closed forms."""

import pytest

from panehr import forests
from panehr.forests import (
    Distinguished,
    all_ordered_chain_forests,
    block_weight,
    cf1_count,
    cf_count_formula,
    cf_refined_formula,
    check_partition,
    dcf1_signed_sum,
    dcf_signed_sum,
    dcf_term_formula,
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
    naturally_ordered_forests,
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
    ], ids=["value-count", "negative-value", "empty-block", "repeated-element",
            "mixed-block", "non-a-after-a", "a-not-covered", "nonzero-weight",
            "a-block-weight", "non-a-leaders", "a-leaders"])
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
                                    forests.upper_term_formula(q, s, k, ell, m, i)


class TestFamilies:
    # each keep mode of the chain generator against the matching filter of
    # the brute-force generator, one naturally ordered forest per chain set
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
            made = [tuple(sorted(cs)) for cs in forests._chain_sets(elems, make_keep(elems))]
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
