"""Unit tests for the closed-form polynomial engine."""

import json
import os
import subprocess
import sys
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement
from math import factorial
from pathlib import Path

import pytest

from panehr import ehrhart
from panehr.exactmath import Polynomial, binom_poly, binomial, poly_leq
from panehr.ehrhart import (
    check_relaxation_positivity,
    ehr_hypersimplex,
    ehr_panhandle,
    ehr_paving,
    ehr_product_simplex,
    phi_poly,
    psi_poly,
    relaxation_correction,
    validate_panhandle,
)
from panehr.forests import upper_expression
from panehr import oracle


class TestPhiPoly:
    def test_smallest_case_is_one(self):
        # single term 0! * 0! * C(t, 0) * C(0, 0)
        assert phi_poly(1, 1, 2) == Polynomial([1])

    def test_minimal_matroid_positive(self):
        for n in range(3, 7):
            for r in range(1, n):
                p = phi_poly(r, r, n)
                assert all(c >= 0 for c in p.coeffs) and p.coeffs

    def test_degree_bound(self):
        for n in range(2, 7):
            for s in range(1, n):
                for r in range(1, s + 1):
                    assert phi_poly(r, s, n).degree <= n - 2


class TestEhrPanhandle:
    def test_segment(self):
        assert ehr_panhandle(1, 1, 2) == Polynomial([1, 1])

    def test_uniform_specialization(self):
        for n in range(2, 8):
            for r in range(1, n):
                assert ehr_panhandle(r, n - 1, n) == ehr_hypersimplex(r, n)

    def test_constant_term_one_and_degree(self):
        for n in range(2, 8):
            for s in range(1, n):
                for r in range(1, s + 1):
                    p = ehr_panhandle(r, s, n)
                    assert p.coefficient(0) == 1
                    assert p.degree == n - 1

    def test_basis_count_at_dilation_one(self):
        for n in range(2, 8):
            for s in range(1, n):
                for r in range(1, s + 1):
                    expected = binomial(s, r) + (n - s) * binomial(s, r - 1)
                    assert ehr_panhandle(r, s, n).evaluate(1) == expected

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            ehr_panhandle(0, 1, 2)
        with pytest.raises(ValueError):
            ehr_panhandle(3, 2, 4)
        with pytest.raises(ValueError):
            ehr_panhandle(2, 4, 4)


class TestHypersimplex:
    def test_standard_simplex(self):
        for n in range(2, 8):
            assert ehr_hypersimplex(1, n) == binom_poly(1, n - 1, n - 1)

    def test_counts_zero_one_vectors_at_dilation_one(self):
        for n in range(2, 8):
            for r in range(1, n):
                assert ehr_hypersimplex(r, n).evaluate(1) == binomial(n, r)

    def test_matches_oracle_interpolation(self):
        samples = [(t, oracle.count_points_panhandle(2, 3, 4, t))
                   for t in range(4)]
        assert oracle.interpolate(samples, 3) == ehr_hypersimplex(2, 4)

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            ehr_hypersimplex(0, 3)
        with pytest.raises(ValueError):
            ehr_hypersimplex(3, 3)


class TestPsiAndBounds:
    def test_psi_nonnegative_sweep(self):
        zero = Polynomial()
        for n in range(2, 8):
            for s in range(1, n):
                for r in range(1, s + 1):
                    assert poly_leq(zero, psi_poly(r, s, n))

    def test_smallest_psi_fixed_by_difference(self):
        # the correction for (1, 1, 2) must close the gap t+1 minus 1
        assert relaxation_correction(1, 1, 2) == Polynomial([0, 1])
        assert psi_poly(1, 1, 2) == Polynomial([1])

    def test_difference_identity(self):
        for n in range(2, 9):
            for s in range(1, n):
                for r in range(1, s + 1):
                    gap = ehr_panhandle(r, s, n) - ehr_product_simplex(r, s, n)
                    assert relaxation_correction(r, s, n) == gap, (r, s, n)

    def test_product_degree(self):
        # degrees add; a factor that degenerates to a point contributes 0
        for n in range(3, 8):
            for s in range(1, n):
                for r in range(1, s + 1):
                    first = s - 1 if r >= 2 else 0
                    second = n - s - 1 if n - s >= 2 else 0
                    assert ehr_product_simplex(r, s, n).degree == first + second

    def test_product_of_two_segments(self):
        assert ehr_product_simplex(2, 2, 4) == Polynomial([1, 2, 1])

    def test_sandwich(self):
        for n in range(2, 8):
            for s in range(1, n):
                for r in range(1, s + 1):
                    low = ehr_product_simplex(r, s, n)
                    mid = ehr_panhandle(r, s, n)
                    high = ehr_hypersimplex(r, n)
                    assert poly_leq(low, mid)
                    assert poly_leq(mid, high)

    def test_relaxation_positivity(self):
        assert check_relaxation_positivity(1, 1, 2)
        for n in range(2, 8):
            for s in range(1, n):
                for r in range(1, s + 1):
                    assert check_relaxation_positivity(r, s, n)


class TestPaving:
    def test_no_hyperplanes_is_uniform(self):
        assert ehr_paving(2, 5, ()) == ehr_hypersimplex(2, 5)

    def test_single_cut_matches_oracle(self):
        poly = ehr_paving(2, 4, [2])
        for t in range(5):
            assert poly.evaluate(t) == \
                oracle.count_points_paving(2, 4, [frozenset({1, 2})], t)

    def test_below_uniform(self):
        assert poly_leq(ehr_paving(2, 5, [2, 3]), ehr_hypersimplex(2, 5))

    def test_constant_term_one(self):
        assert ehr_paving(3, 6, [3, 3, 4]).coefficient(0) == 1

    def test_rejects_out_of_range_size(self):
        with pytest.raises(ValueError):
            ehr_paving(2, 4, [1])
        with pytest.raises(ValueError):
            ehr_paving(2, 4, [4])

    def test_degenerate_point_case(self):
        # rank 1 on two elements with the size-1 hyperplane leaves one basis
        assert ehr_paving(1, 2, [1]) == Polynomial([1])

    def test_sizes_read_once(self):
        # a one-shot iterable is validated and subtracted from the same sizes
        expected = Polynomial([1, Fraction(13, 6), Fraction(3, 2), Fraction(1, 3)])
        assert ehr_paving(2, 4, [2]) == expected
        assert ehr_paving(2, 4, iter([2])) == expected
        assert ehr_paving(2, 4, (size for size in [2])) == expected
        assert ehr_paving(3, 6, iter([3, 3, 4])) == ehr_paving(3, 6, [3, 3, 4])

    def test_order_of_sizes_is_irrelevant(self):
        # the memo is keyed on the sorted sizes; each order must agree with
        # the uncached subtraction of the hypersimplex minus its corrections
        expected = ehr_hypersimplex(3, 7)
        for size in (3, 5, 4):
            expected = expected - relaxation_correction(3, size, 7)
        for sizes in ([3, 5, 4], [5, 4, 3], (4, 3, 5)):
            assert ehr_paving(3, 7, sizes) == expected, sizes


class TestUpperExpression:
    def test_matches_enumeration_small(self):
        from panehr.forests import cf1_count

        for s in range(1, 5):
            for q in range(0, 4):
                for k in range(1, s + 1):
                    for ell in range(s):
                        for m in range(1, k + 1):
                            assert upper_expression(q, s, k, ell, m) == \
                                cf1_count(q + 1, s + 1, k + 1, ell, m + 1)

    def test_nonnegative_small(self):
        for s in range(1, 6):
            for q in range(0, 4):
                for k in range(1, s + 1):
                    for ell in range(s):
                        for m in range(1, k + 1):
                            assert upper_expression(q, s, k, ell, m) >= 0

    def test_m_one_boundary(self):
        # m = 1 shifts to the smallest legal block-position requirement
        assert upper_expression(0, 1, 1, 0, 1) == 1

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            upper_expression(-1, 2, 1, 0, 1)
        with pytest.raises(ValueError):
            upper_expression(0, 2, 1, 0, 2)


def test_validate_panhandle_messages():
    with pytest.raises(ValueError, match="1 <= r"):
        validate_panhandle(0, 1, 3)
    with pytest.raises(ValueError, match="r <= s"):
        validate_panhandle(3, 2, 5)
    with pytest.raises(ValueError, match="s <= n-1"):
        validate_panhandle(1, 3, 3)


# Reference engine: each closed form as a product of binomial polynomials
# with Fraction coefficients, the way the formulas read; ehrhart evaluates
# them at integer t and interpolates instead.

@lru_cache(maxsize=None)
def reference_factor(r, s, n, shift):
    total = Polynomial()
    for i in range(s - r + 1):
        inner = Polynomial()
        for ell in range(s):
            w = factorial(n - 2 - ell) * factorial(ell)
            first = binom_poly(s - r - i + 1, s - 1 - shift - ell - i, s - 1 - ell)
            second = binom_poly(s - r - i, s - 1 - i, ell)
            inner = inner + (w * first) * second
        total = total + (-1) ** i * binomial(s, i) * inner
    return total


def reference_factor_value(r, s, n, shift, t):
    """The double sum at the integer t, one binomial pair per term."""
    total = 0
    for i in range(s - r + 1):
        alpha = s - r - i
        first = (alpha + 1) * t + s - 1 - shift - i
        second = alpha * t + s - 1 - i
        total += (-1) ** i * binomial(s, i) * sum(
            factorial(n - 2 - ell) * factorial(ell)
            * binomial(first - ell, s - 1 - ell) * binomial(second, ell)
            for ell in range(s))
    return total


@lru_cache(maxsize=None)
def reference_panhandle_form(r, s, n, shift):
    """ehr_panhandle (shift 0) and relaxation_correction (shift 1)."""
    return (Fraction(n - s, factorial(n - 1)) * binom_poly(1, n - s - shift, n - s)
            * reference_factor(r, s, n, shift))


def reference_hypersimplex(r, n):
    total = Polynomial()
    for j in range(r):
        total = total + ((-1) ** j * binomial(n, j)) * binom_poly(r - j, n - 1 - j, n - 1)
    return total


class TestEngineAgainstProducts:
    def test_panhandle_forms(self):
        for n in range(2, 11):
            for s in range(1, n):
                for r in range(1, s + 1):
                    assert phi_poly(r, s, n) == reference_factor(r, s, n, 0), (r, s, n)
                    assert psi_poly(r, s, n) == reference_factor(r, s, n, 1), (r, s, n)
                    assert ehr_panhandle(r, s, n) == reference_panhandle_form(r, s, n, 0)
                    assert relaxation_correction(r, s, n) == \
                        reference_panhandle_form(r, s, n, 1), (r, s, n)

    def test_factor_matches_binomial_double_sum(self):
        # every integer t, negative binomial upper arguments included
        for n in range(2, 13):
            for s in range(1, n):
                for r in range(1, s + 1):
                    for shift in (0, 1):
                        value = ehrhart._factor(r, s, n, shift)
                        for t in range(-3, 2 * n + 1):
                            assert value(t) == reference_factor_value(r, s, n, shift, t), \
                                (r, s, n, shift, t)

    def test_factor_makes_no_binomial_call(self, monkeypatch):
        value = ehrhart._factor(2, 6, 9, 1)

        def refuse(n, k):
            raise AssertionError("the double sum called binomial")

        monkeypatch.setattr(ehrhart, "binomial", refuse)
        for t in range(-3, 19):
            value(t)

    def test_hypersimplex_and_paving(self):
        for n in range(2, 11):
            for r in range(1, n):
                uniform = reference_hypersimplex(r, n)
                assert ehr_hypersimplex(r, n) == uniform, (r, n)
                for count in range(4):
                    for sizes in combinations_with_replacement(range(r, n), count):
                        expected = uniform
                        for size in sizes:
                            expected = expected - reference_panhandle_form(r, size, n, 1)
                        assert ehr_paving(r, n, sizes) == expected, (r, n, sizes)

    def test_product_simplex(self):
        # a factor that degenerates to a point contributes the polynomial 1
        for n in range(2, 11):
            for s in range(1, n):
                for r in range(1, s + 1):
                    first = reference_hypersimplex(r - 1, s) if r >= 2 else Polynomial([1])
                    second = (reference_hypersimplex(1, n - s) if n - s >= 2
                              else Polynomial([1]))
                    assert ehr_product_simplex(r, s, n) == first * second, (r, s, n)

    def test_no_closed_form_multiplies_polynomials(self, monkeypatch):
        def refuse(self, *other):
            raise AssertionError("a closed form did polynomial arithmetic")

        memos = [f for f in vars(ehrhart).values() if hasattr(f, "cache_clear")]
        for op in ("__mul__", "__rmul__", "__add__", "__sub__", "__neg__"):
            monkeypatch.setattr(Polynomial, op, refuse)
        for memo in memos:
            memo.cache_clear()
        try:
            for r, s, n in [(1, 1, 2), (1, 3, 5), (2, 4, 7), (3, 3, 8)]:
                phi_poly(r, s, n), psi_poly(r, s, n), ehr_panhandle(r, s, n)
                relaxation_correction(r, s, n), ehr_product_simplex(r, s, n)
                ehr_hypersimplex(r, n), ehr_paving(r, n, [s, s])
        finally:
            for memo in memos:
                memo.cache_clear()


ENGINE_CHECKS = """
import json, sys
from panehr import ehrhart

real = ehrhart.interpolate


def tampered(samples, degree):
    # moves the one sample beyond the degree bound off the interpolant
    *head, (t, y) = samples
    return real(head + [(t, y + 1)], degree)


out = {"optimize": sys.flags.optimize}
ehrhart.interpolate = tampered
for name, call in [("phi", lambda: ehrhart.phi_poly.__wrapped__(2, 4, 6)),
                   ("psi", lambda: ehrhart.psi_poly.__wrapped__(2, 4, 6)),
                   ("panhandle", lambda: ehrhart.ehr_panhandle.__wrapped__(2, 4, 6)),
                   ("relaxation", lambda: ehrhart.relaxation_correction.__wrapped__(2, 4, 6)),
                   ("hypersimplex", lambda: ehrhart.ehr_hypersimplex.__wrapped__(2, 6))]:
    try:
        out[name] = str(call())
    except AssertionError as exc:
        out[name] = str(exc)
ehrhart.interpolate = real
try:
    out["low"] = str(ehrhart._interpolated([t ** 3 for t in range(4)]))
except AssertionError as exc:
    out["low"] = str(exc)
real_factor = ehrhart._factor
# the panhandle check above cached the untampered row
ehrhart._panhandle_row.cache_clear()
ehrhart._factor = lambda *args: (lambda t, f=real_factor(*args): f(t) + 1)
try:
    out["integer"] = str(ehrhart.ehr_panhandle.__wrapped__(2, 4, 6))
except AssertionError as exc:
    out["integer"] = str(exc)
print(json.dumps(out))
"""


@pytest.mark.parametrize("optimize", [False, True], ids=["plain", "optimized"])
def test_sample_off_the_interpolant_raises(optimize):
    # python -O strips assert statements; the engine's checks must still raise
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    flags = ["-O"] if optimize else []
    done = subprocess.run([sys.executable, *flags, "-c", ENGINE_CHECKS], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    out = json.loads(done.stdout)
    assert out.pop("optimize") == int(optimize)
    # phi/psi sample t = 0..s (s = 4), the degree n-1 forms t = 0..n (n = 6)
    assert out == {
        "phi": "closed form: samples are not a polynomial of degree 3: mismatch at t=4",
        "psi": "closed form: samples are not a polynomial of degree 3: mismatch at t=4",
        "panhandle": "closed form: samples are not a polynomial of degree 5: mismatch at t=6",
        "relaxation": "closed form: samples are not a polynomial of degree 5: mismatch at t=6",
        "hypersimplex": "closed form: samples are not a polynomial of degree 5: mismatch at t=6",
        "low": "closed form: samples are not a polynomial of degree 2: mismatch at t=3",
        "integer": "closed form is not an integer at t=0",
    }
