"""Unit tests for the lattice-point counting oracle and interpolation."""

import random
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from panehr import campaigns, oracle
from panehr.exactmath import Polynomial
from panehr.ehrhart import (
    ehr_hypersimplex,
    ehr_panhandle,
    ehr_paving,
    relaxation_correction,
)
from panehr.oracle import (
    _bounded_sum_counts,
    count_points_panhandle,
    count_points_paving,
    interpolate,
)
from panehr.exactmath import binomial


def count_points_panhandle_slow(r, s, n, t):
    """Raw enumeration over the whole box; cross-check for small n."""
    total = r * t
    out = 0
    for x in product(range(t + 1), repeat=n):
        if sum(x) == total and sum(x[s:]) <= t:
            out += 1
    return out


def count_points_paving_slow(r, n, hyperplanes, t):
    """Raw enumeration cross-check for the sliced count."""
    total = r * t
    cap = (r - 1) * t
    cuts = [sorted(h) for h in hyperplanes]
    out = 0
    for x in product(range(t + 1), repeat=n):
        if sum(x) != total:
            continue
        if all(sum(x[i - 1] for i in h) <= cap for h in cuts):
            out += 1
    return out


class TestPanhandleCounts:
    def test_origin_only_at_zero(self):
        assert count_points_panhandle(2, 3, 5, 0) == 1

    def test_bases_at_one(self):
        for n in range(2, 7):
            for s in range(1, n):
                for r in range(1, s + 1):
                    expected = binomial(s, r) + (n - s) * binomial(s, r - 1)
                    assert count_points_panhandle(r, s, n, 1) == expected

    def test_segment_at_two(self):
        # points (2,0), (1,1), (0,2)
        assert count_points_panhandle(1, 1, 2, 2) == 3

    def test_matches_raw_enumeration(self):
        for n in range(2, 6):
            for s in range(1, n):
                for r in range(1, s + 1):
                    for t in range(4):
                        assert count_points_panhandle(r, s, n, t) == \
                            count_points_panhandle_slow(r, s, n, t)

    def test_nondecreasing_in_t(self):
        for r, s, n in [(1, 2, 4), (2, 3, 5), (3, 4, 6)]:
            counts = [count_points_panhandle(r, s, n, t) for t in range(6)]
            assert all(a <= b for a, b in zip(counts, counts[1:]))

    def test_tail_constraint_vacuous_at_full_width(self):
        # s = n-1 reduces to the plain hypersimplex count
        for t in range(5):
            assert count_points_panhandle(2, 3, 4, t) == \
                ehr_hypersimplex(2, 4).evaluate(t)

    def test_rejects_negative_dilation(self):
        with pytest.raises(ValueError):
            count_points_panhandle(1, 1, 2, -1)

    @pytest.mark.parametrize("r, s, n, message", [
        (0, 1, 2, "need rank r >= 1, got r=0"),
        (1, 5, 3, "need 0 <= s <= n, got s=5, n=3"),
        (1, -1, 3, "need 0 <= s <= n, got s=-1, n=3"),
    ], ids=["rank-zero", "split-above-n", "split-negative"])
    def test_rejects_a_split_that_does_not_exist(self, r, s, n, message):
        with pytest.raises(ValueError) as exc:
            count_points_panhandle(r, s, n, 1)
        assert str(exc.value) == message


class TestPavingCounts:
    def test_no_hyperplanes_is_hypersimplex(self):
        for t in range(5):
            assert count_points_paving(2, 4, [], t) == \
                ehr_hypersimplex(2, 4).evaluate(t)

    def test_weight_two_vectors_minus_one(self):
        # six 0/1 vectors of weight two, minus the one inside the cut
        assert count_points_paving(2, 4, [frozenset({1, 2})], 1) == 5

    def test_monotone_under_extra_cuts(self):
        for t in range(4):
            base = count_points_paving(2, 5, [], t)
            one = count_points_paving(2, 5, [frozenset({1, 2})], t)
            two = count_points_paving(2, 5, [frozenset({1, 2}),
                                             frozenset({3, 4})], t)
            assert base >= one >= two

    def test_matches_raw_enumeration(self):
        cuts = [frozenset({1, 2}), frozenset({3, 4, 5})]
        for t in range(4):
            assert count_points_paving(2, 5, cuts, t) == \
                count_points_paving_slow(2, 5, cuts, t)

    @pytest.mark.parametrize("n", [0, 1])
    def test_matches_raw_enumeration_on_the_smallest_grounds(self, n):
        # [0] has no proper subset and [1] only the empty one
        for cuts in ([], [frozenset()])[:n + 1]:
            for r in range(1, n + 3):
                for t in range(4):
                    assert count_points_paving(r, n, cuts, t) == \
                        count_points_paving_slow(r, n, cuts, t), (r, n, cuts, t)

    def test_matches_raw_enumeration_at_zero_and_above_full_rank(self):
        # t = 0 leaves the origin alone; r > n leaves no point for t > 0
        rng = random.Random("zero-and-full-rank")
        for _ in range(20):
            n = rng.randint(2, 5)
            cuts = _any_family(rng, n)
            for r, t in [(rng.randint(1, n + 2), 0), (n + 1, 1), (n + 2, 2)]:
                assert count_points_paving(r, n, cuts, t) == \
                    count_points_paving_slow(r, n, cuts, t), (r, n, cuts, t)

    def test_non_binding_cut_at_large_dilation(self):
        # eight of ten coordinates sum to at most 8t anyway, so the cut
        # binds nothing; counts reach about 10^11 at t = 12
        cut = [frozenset(range(1, 9))]
        poly = ehr_hypersimplex(9, 10)
        for t in range(13):
            assert count_points_paving(9, 10, cut, t) == poly.evaluate(t), t

    def test_fano_plane(self):
        # the seven lines of the Fano plane: a valid family of rank 3 on
        # [7] whose lines pairwise meet in one point
        lines = [frozenset(h) for h in ({1, 2, 3}, {1, 4, 5}, {1, 6, 7}, {2, 4, 6},
                                        {2, 5, 7}, {3, 4, 7}, {3, 5, 6})]
        assert all(len(a & b) == 1 for a, b in combinations(lines, 2))
        poly = ehr_paving(3, 7, [3] * 7)
        for t in range(4):
            assert count_points_paving(3, 7, lines, t) == poly.evaluate(t), t

    def test_single_cut_excess_is_the_relaxation_correction(self):
        # the points one cut [1..s] removes from the hypersimplex are the
        # Ehrhart difference of relaxing that stressed hyperplane: a lattice
        # certificate of relaxation_correction, 990 checks at n <= 9
        for n in range(2, 10):
            for s in range(1, n):
                cut = [frozenset(range(1, s + 1))]
                for r in range(1, s + 1):
                    poly = relaxation_correction(r, s, n)
                    for t in range(n + 1):
                        excess = (count_points_paving(r, n, [], t)
                                  - count_points_paving(r, n, cut, t))
                        assert excess == poly.evaluate(t), (r, s, n, t)

    def test_rejects_improper_hyperplane(self):
        with pytest.raises(ValueError):
            count_points_paving(2, 4, [frozenset({1, 2, 3, 4})], 1)

    @pytest.mark.parametrize("r", [0, -1])
    def test_rejects_rank_below_one(self, r):
        # the empty cut sum <= (r-1)*t < 0 admits no point, so a count of 1
        # would be a plausible wrong answer
        assert count_points_paving_slow(r, 3, [frozenset()], 2) == 0
        with pytest.raises(ValueError, match="r >= 1"):
            count_points_paving(r, 3, [frozenset()], 2)
        with pytest.raises(ValueError, match="r >= 1"):
            count_points_paving(r, 3, [], 0)

    def test_formula_equivalence_random_profiles(self):
        # seeded random hyperplane families, pairwise intersections small
        # enough for a paving matroid to exist with exactly those cuts
        rng = random.Random(20240)
        for _ in range(40):
            n = rng.randint(2, 6)
            r = rng.randint(1, n - 1)
            cuts = []
            for _ in range(rng.randint(0, 3)):
                size = rng.randint(r, n - 1)
                cand = frozenset(rng.sample(range(1, n + 1), size))
                if cand not in cuts and all(len(cand & h) <= r - 2 for h in cuts):
                    cuts.append(cand)
            sizes = sorted(len(h) for h in cuts)
            poly = ehr_paving(r, n, sizes)
            samples = [(t, count_points_paving(r, n, cuts, t))
                       for t in range(n + 1)]
            assert interpolate(samples, n - 1) == poly, (r, n, cuts)

    def test_campaign_families_meet_the_axioms(self):
        # the families the bounds campaign counts are valid stressed-hyperplane
        # families, with two and three hyperplanes at n = 6..8 among them
        for n, (r, cuts) in campaigns.EXPLICIT_PAVING.items():
            assert 1 <= r <= n - 1
            assert all(h <= set(range(1, n + 1)) and r <= len(h) <= n - 1 for h in cuts)
            assert all(len(a & b) <= r - 2 for a, b in combinations(cuts, 2))
        assert {len(cuts) for n, (_, cuts) in campaigns.EXPLICIT_PAVING.items()
                if 6 <= n <= 8} == {2, 3}

    def test_formula_equivalence_explicit_profiles(self):
        # hyperplane families with pairwise intersections of rank deficit
        profiles = [
            (2, 4, [frozenset({1, 2})]),
            (2, 5, [frozenset({1, 2})]),
            (2, 5, [frozenset({1, 2, 3})]),
            (2, 5, [frozenset({1, 2}), frozenset({3, 4})]),
            (2, 6, [frozenset({1, 2}), frozenset({3, 4}), frozenset({5, 6})]),
            (3, 6, [frozenset({1, 2, 3})]),
            (3, 6, [frozenset({1, 2, 3}), frozenset({4, 5, 6})]),
            (3, 6, [frozenset({1, 2, 3, 4})]),
            (3, 7, [frozenset({1, 2, 3}), frozenset({3, 4, 5})]),
            (4, 7, [frozenset({1, 2, 3, 4}), frozenset({4, 5, 6, 7})]),
            (3, 8, [frozenset({1, 2, 3}), frozenset({3, 4, 5})]),
            (4, 8, [frozenset({1, 2, 3, 4}), frozenset({4, 5, 6, 7}),
                    frozenset({1, 5, 6, 8})]),
            (3, 9, [frozenset({1, 2, 3, 4}), frozenset({4, 5, 6, 7}),
                    frozenset({7, 8, 9})]),
            (4, 9, [frozenset({1, 2, 3, 4, 5}), frozenset({5, 6, 7, 8, 9})]),
            (3, 10, [frozenset({1, 2, 3, 4}), frozenset({5, 6, 7, 8})]),
            (5, 10, [frozenset({1, 2, 3, 4, 5, 6}), frozenset({5, 6, 7, 8, 9, 10})]),
            (4, 10, [frozenset({1, 2, 3, 4, 5}), frozenset({5, 6, 7, 8}),
                     frozenset({1, 6, 9, 10})]),
        ]
        for r, n, cuts in profiles:
            sizes = sorted(len(h) for h in cuts)
            poly = ehr_paving(r, n, sizes)
            samples = [(t, count_points_paving(r, n, cuts, t))
                       for t in range(n + 1)]
            assert interpolate(samples, n - 1) == poly, (r, n, cuts)


def _broken_family(kind, rng, n):
    """Cuts that break the paving axioms in the named way, plus up to two
    random proper subsets of [n]."""
    ground = range(1, n + 1)
    a = frozenset(rng.sample(ground, rng.randint(1, n - 1)))
    if kind == "overlapping":
        shared = rng.choice(sorted(a))
        rest = [x for x in ground if x != shared]
        cuts = [a, frozenset({shared, *rng.sample(rest, rng.randint(0, n - 2))})]
    elif kind == "nested":
        cuts = [a, frozenset(rng.sample(sorted(a), rng.randint(0, len(a))))]
    elif kind == "duplicate":
        cuts = [a, a]
    elif kind == "empty":
        cuts = [frozenset(), a]
    else:  # a cut that misses one element of [n]
        cuts = [frozenset(ground) - {rng.randint(1, n)}, a]
    cuts += [frozenset(rng.sample(ground, rng.randint(0, n - 1)))
             for _ in range(rng.randint(0, 2))]
    rng.shuffle(cuts)
    return cuts


def _any_family(rng, n):
    return [frozenset(rng.sample(range(1, n + 1), rng.randint(0, n - 1)))
            for _ in range(rng.randint(1, 5))]


class TestPavingCountsAnyFamily:
    """The sliced count holds for any family of proper subsets of [n]."""

    @pytest.mark.parametrize("kind", ["overlapping", "nested", "duplicate",
                                      "empty", "copoint"])
    def test_matches_raw_enumeration(self, kind):
        rng = random.Random(f"broken:{kind}")
        for _ in range(20):
            n = rng.randint(2, 6)
            r = rng.randint(1, n)
            cuts = _broken_family(kind, rng, n)
            for t in range(4):
                assert count_points_paving(r, n, cuts, t) == \
                    count_points_paving_slow(r, n, cuts, t), (r, n, cuts, t)

    @pytest.mark.parametrize("r, n, cuts", [
        # every atom in one cut only closes its cut
        (3, 6, [{1, 5, 6}, {2, 3, 5}, {3, 4, 6}]),
        # the shared atom comes first and opens the outer cut
        (4, 6, [{1, 2, 3, 5, 6}, {1, 2, 3, 5}]),
    ], ids=["triangle", "nested-pair"])
    def test_matches_raw_enumeration_in_walk_order(self, r, n, cuts):
        cuts = [frozenset(h) for h in cuts]
        for t in range(5):
            assert count_points_paving(r, n, cuts, t) == \
                count_points_paving_slow(r, n, cuts, t), t

    @pytest.mark.parametrize("cuts", [
        [{1, 2, 3}, {2, 3, 4}],
        [{1, 2, 3}, {3, 4, 5}, {1, 5}],
    ], ids=["two-cuts", "three-cuts"])
    def test_matches_raw_enumeration_when_the_cut_bound_is_zero(self, cuts):
        # r = 1 or t = 0 make the bound (r-1)*t zero: the key base is 1,
        # so every key is 0
        cuts = [frozenset(h) for h in cuts]
        cases = [(1, t) for t in range(4)] + [(r, 0) for r in range(1, 7)]
        for r, t in cases:
            assert count_points_paving(r, 6, cuts, t) == \
                count_points_paving_slow(r, 6, cuts, t), (r, t)

    def test_matches_raw_enumeration_when_a_cut_fills_before_its_last_atom(self):
        # both cuts open on the atom {3, 4}, whose sum reaches the bound 2t
        # at x3 = x4 = t: both key digits sit at their largest value, and
        # the atoms {1, 2} and {5} that close the cuts get no room
        cuts = [frozenset({1, 2, 3, 4}), frozenset({3, 4, 5})]
        for t in range(5):
            assert count_points_paving(3, 6, cuts, t) == \
                count_points_paving_slow(3, 6, cuts, t), t

    @pytest.mark.parametrize("r, n, cuts", [
        (3, 6, [{1, 5, 6}, {2, 3, 5}, {3, 4, 6}]),
        (4, 6, [{1, 2, 3, 5, 6}, {1, 2, 3, 5}]),
        (2, 6, [{1, 2, 3}, {3, 4}, {4, 5}]),
    ], ids=["triangle", "nested-pair", "chain"])
    def test_matches_raw_enumeration_reversed_and_repeated(self, r, n, cuts):
        cuts = [frozenset(h) for h in cuts]
        for other in (cuts[::-1], cuts + [cuts[0]], [cuts[-1]] + cuts):
            for t in range(4):
                assert count_points_paving(r, n, other, t) == \
                    count_points_paving_slow(r, n, other, t), (other, t)

    def test_invalid_cut_raises_on_every_call(self):
        valid = [frozenset({1, 2})]
        bad = [frozenset({1, 2}), frozenset({1, 2, 3, 4})]
        assert count_points_paving(2, 4, valid, 2) == \
            count_points_paving_slow(2, 4, valid, 2)
        for _ in range(2):
            with pytest.raises(ValueError, match=r"\[1, 2, 3, 4\] is not a proper subset"):
                count_points_paving(2, 4, bad, 2)

    def test_graham_sloane_family_at_three_seven(self):
        # the triples of Z_7 whose residues sum to 0: five hyperplanes of a
        # sparse paving matroid, as two triples share at most one element
        triples = [frozenset(x + 1 for x in c) for c in combinations(range(7), 3)
                   if sum(c) % 7 == 0]
        assert len(triples) == 5
        poly = ehr_paving(3, 7, [3] * 5)
        for t in range(4):
            assert count_points_paving(3, 7, triples, t) == poly.evaluate(t), t

    def test_one_walk_plan_per_family(self):
        cuts = [frozenset({1, 2, 3}), frozenset({3, 4, 5}), frozenset({2, 5, 6})]
        oracle._walk_plan.cache_clear()
        count_points_paving(3, 7, cuts, 2)
        count_points_paving(3, 7, cuts, 5)
        info = oracle._walk_plan.cache_info()
        assert (info.misses, info.hits) == (1, 1)

    def test_bounded_sum_rows_are_shared_tuples(self):
        row = _bounded_sum_counts(3, 2)
        assert row == (1, 3, 6, 7, 6, 3, 1)
        assert _bounded_sum_counts(3, 2) is row

    @pytest.mark.parametrize("change", ["reorder", "relabel"])
    def test_invariant_under_reordering_and_relabelling(self, change):
        # the same count after shuffling the hyperplane list, or after
        # relabelling [n] by a permutation
        rng = random.Random(change)
        for _ in range(25):
            n = rng.randint(3, 8)
            r = rng.randint(1, n - 1)
            cuts = _any_family(rng, n)
            t = rng.randint(0, 4)
            expected = count_points_paving(r, n, cuts, t)
            for _ in range(3):
                if change == "reorder":
                    other = rng.sample(cuts, len(cuts))
                else:
                    image = dict(zip(range(1, n + 1), rng.sample(range(1, n + 1), n)))
                    other = [frozenset(image[x] for x in h) for h in cuts]
                assert count_points_paving(r, n, other, t) == expected, \
                    (r, n, cuts, other, t)


@st.composite
def any_family_counts(draw):
    """(r, n, cuts, t): up to four arbitrary proper subsets of [n], n <= 6."""
    n = draw(st.integers(min_value=0, max_value=6))
    r = draw(st.integers(min_value=1, max_value=n + 1))
    subset = st.frozensets(st.integers(min_value=1, max_value=max(n, 1)),
                           max_size=max(n - 1, 0))
    cuts = draw(st.lists(subset, max_size=4)) if n else []
    return r, n, cuts, draw(st.integers(min_value=0, max_value=3))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(any_family_counts())
def test_any_family_matches_raw_enumeration(case):
    r, n, cuts, t = case
    assert count_points_paving(r, n, cuts, t) == count_points_paving_slow(r, n, cuts, t)


class TestInterpolate:
    def test_line(self):
        assert interpolate([(0, 1), (1, 2)], 1) == Polynomial([1, 1])

    def test_oracle_equivalence_smallest(self):
        samples = [(t, count_points_panhandle(1, 1, 2, t)) for t in range(2)]
        assert interpolate(samples, 1) == ehr_panhandle(1, 1, 2)

    def test_rejects_non_collinear(self):
        with pytest.raises(ValueError, match="degree"):
            interpolate([(0, 1), (1, 2), (2, 4)], 1)

    def test_rejects_too_few_points(self):
        with pytest.raises(ValueError):
            interpolate([(0, 1), (1, 2)], 2)

    def test_extra_consistent_points_accepted(self):
        poly = interpolate([(0, 1), (1, 2), (2, 3), (5, 6)], 1)
        assert poly == Polynomial([1, 1])

    def test_contradictory_duplicate(self):
        with pytest.raises(ValueError, match="contradictory"):
            interpolate([(0, 1), (0, 2), (1, 2)], 1)
