"""Ehrhart polynomials of panhandle, uniform, product, and paving polytopes.

The panhandle polytope on ground set [n] with rank r and width s is the
convex hull of the 0/1 indicators of the r-subsets B with |B of [s]| at
least r-1.  Its Ehrhart polynomial factors as a positive binomial
polynomial times the double sum phi_poly; the analogous psi_poly drives
the correction term produced by relaxing one stressed hyperplane, and
stacking those corrections under the hypersimplex yields the Ehrhart
polynomial of a paving matroid from nothing but its rank, ground-set
size, and hyperplane sizes.

Each closed form (phi_poly, psi_poly, ehr_panhandle, the relaxation
correction and the hypersimplex) is built the same way: its formula is
evaluated at t = 0, 1, ..., one point beyond its degree bound, with int
arithmetic, and exactmath.interpolate turns the values into the
polynomial once, raising AssertionError (also under python -O) when the
extra value is off the interpolant.  No binomial polynomial is ever
multiplied out.

All arithmetic is exact; every formula here is certified elsewhere
against direct lattice-point counts.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable, Sequence

from .exactmath import ONE, ZERO, Polynomial, binomial, interpolate, poly_leq
from .forests import upper_term_formula


def validate_panhandle(r: int, s: int, n: int) -> None:
    """Raise ValueError naming the violated invariant of (r, s, n)."""
    if not 1 <= r:
        raise ValueError(f"rank must satisfy 1 <= r, got r={r}")
    if not r <= s:
        raise ValueError(f"width must satisfy r <= s, got r={r}, s={s}")
    if not s <= n - 1:
        raise ValueError(f"width must satisfy s <= n-1, got s={s}, n={n}")


def validate_rank(r: int, n: int) -> None:
    """Raise ValueError unless 1 <= r <= n-1 (a rank with more than one basis)."""
    if not 1 <= r <= n - 1:
        raise ValueError(f"need 1 <= r <= n-1, got r={r}, n={n}")


def validate_paving(r: int, n: int, hyperplane_sizes: Sequence[int]) -> None:
    """Raise ValueError unless 1 <= r <= n-1 and every size lies in [r, n-1]."""
    validate_rank(r, n)
    for size in hyperplane_sizes:
        if not r <= size <= n - 1:
            raise ValueError(f"hyperplane size {size} outside [{r}, {n - 1}]")


def _interpolated(value: Callable[[int], int], degree: int) -> Polynomial:
    """The polynomial of degree at most `degree` taking value(t) at every
    integer t.  It samples t = 0..degree+1, one point beyond what the degree
    needs, and raises when that point is off the interpolant, so a wrong
    degree bound cannot yield a plausible wrong polynomial."""
    samples = [(t, value(t)) for t in range(degree + 2)]
    try:
        return interpolate(samples, degree)
    except ValueError as exc:
        raise AssertionError(f"closed form: {exc}") from exc


def _factor(r: int, s: int, n: int, shift: int) -> Callable[[int], int]:
    """Double sum behind phi_poly (shift 0) and psi_poly (shift 1, which
    lowers the first binomial argument by one), as a function of the
    integer t."""
    weights = [math.factorial(n - 2 - ell) * math.factorial(ell) for ell in range(s)]
    signs = [(-1) ** i * binomial(s, i) for i in range(s - r + 1)]

    def value(t: int) -> int:
        total = 0
        for i, sign in enumerate(signs):
            alpha = s - r - i
            first = (alpha + 1) * t + s - 1 - shift - i
            second = alpha * t + s - 1 - i
            total += sign * sum(w * binomial(first - ell, s - 1 - ell) * binomial(second, ell)
                                for ell, w in enumerate(weights))
        return total

    return value


def _factor_poly(r: int, s: int, n: int, shift: int) -> Polynomial:
    """phi_poly (shift 0) or psi_poly (shift 1); degree at most s-1."""
    validate_panhandle(r, s, n)
    return _interpolated(_factor(r, s, n, shift), s - 1)


@lru_cache(maxsize=None)
def phi_poly(r: int, s: int, n: int) -> Polynomial:
    """The positive factor of the panhandle Ehrhart polynomial.

    Double sum over i = 0..s-r and positions ell = 0..s-1 of factorial
    weights times two binomial polynomials in t; degree at most s-1.
    """
    total = _factor_poly(r, s, n, 0)
    if total.degree > n - 2:
        raise AssertionError("phi_poly has degree above n-2")
    return total


@lru_cache(maxsize=None)
def psi_poly(r: int, s: int, n: int) -> Polynomial:
    """The relaxation-correction factor; phi_poly with the first binomial
    argument lowered by one."""
    return _factor_poly(r, s, n, 1)


def _panhandle_form(r: int, s: int, n: int, shift: int) -> Polynomial:
    """(n-s)/(n-1)! * C(t + n-s-shift, n-s) times the double sum of the
    same shift: ehr_panhandle for shift 0, relaxation_correction for
    shift 1; degree at most n-1."""
    validate_panhandle(r, s, n)
    factor = _factor(r, s, n, shift)
    scale = math.factorial(n - 1)

    def value(t: int) -> int:
        # a lattice-point count (shift 0) or a difference of two (shift 1)
        count, rest = divmod((n - s) * binomial(t + n - s - shift, n - s) * factor(t), scale)
        if rest:
            raise AssertionError(f"closed form is not an integer at t={t}")
        return count

    return _interpolated(value, n - 1)


@lru_cache(maxsize=None)
def ehr_panhandle(r: int, s: int, n: int) -> Polynomial:
    """Ehrhart polynomial of the panhandle polytope Pan(r, s, n)."""
    poly = _panhandle_form(r, s, n, 0)
    if poly.degree != n - 1:
        raise AssertionError("panhandle Ehrhart polynomial has wrong degree")
    if poly.coefficient(0) != 1:
        raise AssertionError("constant term must be 1")
    return poly


@lru_cache(maxsize=None)
def _hypersimplex(r: int, n: int) -> Polynomial:
    """Hypersimplex Ehrhart polynomial, allowing the degenerate point cases
    r = 0 and r = n."""
    if r in (0, n):
        return ONE
    return _interpolated(
        lambda t: sum((-1) ** j * binomial(n, j) * binomial((r - j) * t + n - 1 - j, n - 1)
                      for j in range(r)),
        n - 1)


def ehr_hypersimplex(r: int, n: int) -> Polynomial:
    """Ehrhart polynomial of the hypersimplex (the uniform matroid polytope).

    Counts integer points of the cube [0, t]^n on the hyperplane where the
    coordinates sum to r*t, by inclusion-exclusion on coordinates
    exceeding t.  Requires 1 <= r <= n-1.
    """
    validate_rank(r, n)
    poly = _hypersimplex(r, n)
    if poly.degree != n - 1 or poly.coefficient(0) != 1:
        raise AssertionError("hypersimplex Ehrhart polynomial has wrong degree "
                             "or constant term")
    return poly


def ehr_product_simplex(r: int, s: int, n: int) -> Polynomial:
    """Ehrhart polynomial of the product of the two boundary pieces.

    The factors are the hypersimplex with rank r-1 on s elements and the
    standard-simplex hypersimplex with rank 1 on n-s elements; a factor
    degenerating to a single point contributes the constant polynomial 1.
    """
    validate_panhandle(r, s, n)
    return _hypersimplex(r - 1, s) * _hypersimplex(1, n - s)


@lru_cache(maxsize=None)
def relaxation_correction(r: int, s: int, n: int) -> Polynomial:
    """Ehrhart difference contributed by relaxing one stressed hyperplane
    of size s in a rank-r matroid on [n]."""
    return _panhandle_form(r, s, n, 1)


def ehr_paving(r: int, n: int, hyperplane_sizes: Sequence[int]) -> Polynomial:
    """Ehrhart polynomial of a paving matroid from its hyperplane sizes.

    Start from the hypersimplex and subtract one relaxation correction per
    stressed hyperplane of size at least r; only the sizes matter.  Sizes
    must lie in [r, n-1]; the list may be empty, which yields the
    hypersimplex itself.  Whether the multiset comes from an actual
    paving matroid is the caller's responsibility.
    """
    validate_paving(r, n, hyperplane_sizes)
    poly = _hypersimplex(r, n)
    for size in hyperplane_sizes:
        poly = poly - relaxation_correction(r, size, n)
    if poly.coefficient(0) != 1:
        raise AssertionError("constant term must be 1")
    return poly


def upper_expression(q: int, s: int, k: int, ell: int, m: int) -> int:
    """The alternating sum whose nonnegativity gives the coefficientwise
    upper bound; equals the count of the shifted leader-1 forests."""
    if k < 1 or not 1 <= m <= k or q < 0 or not 0 <= ell <= s - 1:
        raise ValueError(
            f"need k >= 1, 1 <= m <= k, q >= 0, 0 <= ell <= s-1, "
            f"got q={q}, s={s}, k={k}, ell={ell}, m={m}")
    return sum(upper_term_formula(q, s, k, ell, m, i) for i in range(q + 1))


def check_relaxation_positivity(r: int, s: int, n: int) -> bool:
    """True iff the relaxation correction binomial times psi has only
    nonnegative coefficients, so relaxing preserves Ehrhart positivity."""
    # the prefactor (n-s)/(n-1)! of the correction is positive
    return poly_leq(ZERO, relaxation_correction(r, s, n))
