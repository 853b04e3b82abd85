"""Unit tests for the lattice-point counting oracle and interpolation."""

from itertools import product

import pytest

from panehr.exactmath import Polynomial
from panehr.ehrhart import ehr_hypersimplex, ehr_panhandle, ehr_paving
from panehr.oracle import (
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

    def test_rejects_improper_hyperplane(self):
        with pytest.raises(ValueError):
            count_points_paving(2, 4, [frozenset({1, 2, 3, 4})], 1)

    def test_formula_equivalence_random_profiles(self):
        # seeded random hyperplane families, pairwise intersections small
        # enough for a paving matroid to exist with exactly those cuts
        import random

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
        ]
        for r, n, cuts in profiles:
            sizes = sorted(len(h) for h in cuts)
            poly = ehr_paving(r, n, sizes)
            samples = [(t, count_points_paving(r, n, cuts, t))
                       for t in range(n + 1)]
            assert interpolate(samples, n - 1) == poly, (r, n, cuts)


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
