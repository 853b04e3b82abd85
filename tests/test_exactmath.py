"""Unit tests for the exact arithmetic layer."""

from fractions import Fraction
from itertools import combinations
from math import factorial, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from panehr.exactmath import (
    Polynomial,
    binom_poly,
    binomial,
    interpolate,
    pi_range,
    poly_eval,
    poly_from_json,
    poly_leq,
    poly_to_json,
)


def brute_pi(a, b, n):
    """Independent oracle: literal sum over n-subsets of {a..b}."""
    if n == 0:
        return 1
    if n < 0:
        return 0
    return sum(prod(c) for c in combinations(range(a, b + 1), n))


def falling_binomial(n, d):
    """Independent oracle: n(n-1)...(n-d+1)/d! as exact division."""
    return prod(n - j for j in range(d)) // factorial(d)


class TestBinomial:
    def test_small_direct(self):
        assert binomial(5, 2) == 10

    def test_empty_choice(self):
        assert binomial(4, 0) == 1

    def test_k_above_n(self):
        assert binomial(3, 5) == 0

    def test_negative_k(self):
        assert binomial(7, -1) == 0

    def test_matches_falling_factorial(self):
        for n in range(-6, 12):
            for k in range(0, 8):
                assert binomial(n, k) == falling_binomial(n, k)


class TestPiRange:
    def test_degree_zero(self):
        assert pi_range(1, 3, 0) == 1

    def test_pairs(self):
        # 1*2 + 1*3 + 2*3
        assert pi_range(1, 3, 2) == 11

    def test_negative_values(self):
        # (-3)(-2) + (-3)(-1) + (-2)(-1)
        assert pi_range(-3, -1, 2) == 11

    def test_empty_range_degree_zero(self):
        assert pi_range(2, 1, 0) == 1

    def test_empty_range_positive_degree(self):
        assert pi_range(2, 1, 3) == 0

    def test_negative_degree(self):
        assert pi_range(0, 5, -2) == 0

    def test_degree_beyond_range(self):
        assert pi_range(1, 3, 4) == 0

    def test_against_subset_enumeration(self):
        for a in range(-4, 5):
            for b in range(a - 1, 5):
                for n in range(0, b - a + 2):
                    assert pi_range(a, b, n) == brute_pi(a, b, n), (a, b, n)

    def test_recurrence_exhaustive(self):
        for a in range(-6, 7):
            for b in range(a, 7):
                for n in range(1, b - a + 2):
                    assert pi_range(a, b, n) == \
                        pi_range(a, b - 1, n) + b * pi_range(a, b - 1, n - 1)

    def test_split_identity(self):
        # splitting the range at s - ell - i and summing over the split sizes
        for s in range(1, 9):
            for i in range(0, 5):
                for k in range(1, s + 1):
                    for ell in range(s):
                        total = sum(
                            pi_range(-i + 1, s - ell - 1 - i, s - ell - m)
                            * pi_range(s - ell - i, s - 1 - i, ell - (k - m))
                            for m in range(0, k + 1))
                        assert total == pi_range(-i + 1, s - 1 - i, s - k), \
                            (s, i, k, ell)


class TestBinomPoly:
    def test_linear(self):
        assert binom_poly(1, 1, 1) == Polynomial([1, 1])

    def test_constant(self):
        assert binom_poly(0, 7, 2) == Polynomial([21])

    def test_quadratic(self):
        # (2t)(2t-1)/2 = 2t^2 - t
        assert binom_poly(2, 0, 2) == Polynomial([0, -1, 2])

    def test_rejects_negative_degree(self):
        with pytest.raises(ValueError):
            binom_poly(1, 1, -1)

    def test_degree_bound(self):
        assert binom_poly(3, 5, 4).degree == 4
        assert binom_poly(0, 5, 4).degree == 0

    def test_evaluation_matches_falling_factorial(self):
        for alpha in range(-2, 4):
            for beta in range(-3, 4):
                for d in range(0, 5):
                    p = binom_poly(alpha, beta, d)
                    for t in range(-10, 11):
                        assert poly_eval(p, t) == \
                            Fraction(falling_binomial(alpha * t + beta, d))


class TestPolynomial:
    def test_leq_reflexive(self):
        p = Polynomial([1, 1])
        assert poly_leq(p, p)

    def test_leq_simple(self):
        assert poly_leq(Polynomial([1, 1]), Polynomial([1, 2]))

    def test_leq_degree_mismatch(self):
        assert not poly_leq(Polynomial([1, 0, 1]), Polynomial([5, 3]))

    def test_eval_constant_term(self):
        assert poly_eval(Polynomial([1, 1]), 0) == 1

    def test_eval_substitution(self):
        assert poly_eval(Polynomial([0, -1, 2]), 3) == 15

    def test_eval_zero_poly(self):
        assert poly_eval(Polynomial(), 9) == 0

    def test_trailing_zeros_stripped(self):
        assert Polynomial([1, 2, 0, 0]) == Polynomial([1, 2])
        assert Polynomial([0, 0]).degree == -1

    def test_str_forms(self):
        assert str(Polynomial()) == "0"
        assert str(Polynomial([1, 1])) == "t + 1"
        assert str(Polynomial([1, Fraction(3, 2), Fraction(1, 2)])) == \
            "1/2 t^2 + 3/2 t + 1"
        assert str(Polynomial([0, -1, 2])) == "2 t^2 - t"

    def test_json_round_trip_example(self):
        p = Polynomial([1, Fraction(3, 2), Fraction(1, 2)])
        assert poly_to_json(p) == ["1", "3/2", "1/2"]
        assert poly_from_json(poly_to_json(p)) == p

    def test_immutability(self):
        p = Polynomial([1])
        with pytest.raises(AttributeError):
            p.coeffs = (Fraction(2),)


small_fractions = st.fractions(
    min_value=-5, max_value=5, max_denominator=6)
polys = st.lists(small_fractions, max_size=5).map(Polynomial)


@settings(max_examples=150, deadline=None)
@given(polys, polys, polys)
def test_ring_laws(p, q, r):
    assert (p + q) + r == p + (q + r)
    assert p + q == q + p
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert p - p == Polynomial()


@settings(max_examples=100, deadline=None)
@given(polys)
def test_json_round_trip(p):
    assert poly_from_json(poly_to_json(p)) == p


@settings(max_examples=100, deadline=None)
@given(polys, polys, st.integers(min_value=-8, max_value=8))
def test_evaluation_is_ring_morphism(p, q, t):
    assert poly_eval(p * q, t) == poly_eval(p, t) * poly_eval(q, t)
    assert poly_eval(p + q, t) == poly_eval(p, t) + poly_eval(q, t)


@settings(max_examples=150, deadline=None)
@given(polys, st.integers(min_value=-6, max_value=6), st.integers(min_value=0, max_value=2))
def test_interpolate_paths_agree(p, x0, extra):
    # consecutive samples take the forward-difference path, every other
    # point set the divided-difference path
    degree = max(p.degree, 0)
    xs = range(x0, x0 + degree + 1 + extra)
    assert interpolate([(x, poly_eval(p, x)) for x in xs], degree) == p
    spread = [x0 + 2 * k for k in range(degree + 1 + extra)]
    assert interpolate([(x, poly_eval(p, x)) for x in spread], degree) == p


@pytest.mark.parametrize("xs", [range(-2, 4), [-3, -1, 0, 1, 2, 4]], ids=["consecutive", "spread"])
def test_interpolate_names_the_first_sample_off(xs):
    samples = [(x, x ** 3 + (x >= 2)) for x in xs]
    with pytest.raises(ValueError, match="degree 3: mismatch at t=2$"):
        interpolate(samples, 3)
