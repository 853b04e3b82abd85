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
correction, the hypersimplex and ehr_paving) is built the same way: its
formula is evaluated at t = 0, 1, ..., one point beyond its degree bound,
into a row of ints, and exactmath.interpolate turns the row into the
polynomial once, raising AssertionError (also under python -O) when the
extra value is off the interpolant.  The double sum behind phi_poly and
psi_poly runs over falling factorials with int multiplies only, no
binomial call; ehr_paving subtracts the cached correction rows from the
hypersimplex row and interpolates the difference once per multiset of
sizes.  No closed form does Polynomial arithmetic.

All arithmetic is exact; every formula here is certified elsewhere
against direct lattice-point counts.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable, Iterable, Sequence

from .exactmath import ZERO, Polynomial, binomial, interpolate, poly_leq


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


def _row(value: Callable[[int], int], degree: int) -> tuple[int, ...]:
    """value(t) at t = 0..degree+1: one sample beyond what the degree needs."""
    return tuple(value(t) for t in range(degree + 2))


def _interpolated(row: Sequence[int]) -> Polynomial:
    """The polynomial of degree at most len(row)-2 taking the value row[t]
    at t = 0, 1, ....  The last sample is one beyond what the degree needs;
    when it is off the interpolant this raises, so a wrong degree bound
    cannot yield a plausible wrong polynomial."""
    try:
        return interpolate(list(enumerate(row)), len(row) - 2)
    except ValueError as exc:
        raise AssertionError(f"closed form: {exc}") from exc


def _factor(r: int, s: int, n: int, shift: int) -> Callable[[int], int]:
    """Double sum behind phi_poly (shift 0) and psi_poly (shift 1, which
    lowers the first binomial argument by one), as a function of the
    integer t.  Int multiplies only: no binomial call, no division."""
    # ell! (n-2-ell)! C(x-ell, s-1-ell) C(y, ell)
    #   = (n-2-ell)!/(s-1-ell)! * (y)_ell * (x-ell)_(s-1-ell), with (x)_k the
    # falling factorial, at every integer x and y (binomial's convention)
    coeffs = [math.factorial(n - 2 - ell) // math.factorial(s - 1 - ell) for ell in range(s)]
    signs = [(-1) ** i * binomial(s, i) for i in range(s - r + 1)]

    def value(t: int) -> int:
        total = 0
        for i, sign in enumerate(signs):
            alpha = s - r - i
            first = (alpha + 1) * t + s - 1 - shift - i
            second = alpha * t + s - 1 - i
            # Horner in the (first - ell) factors: after step ell, inner is the
            # sum of the terms up to ell over (first-ell)_(s-1-ell), 1 at ell = s-1
            inner, head = 0, 1  # head = (second)_ell
            for ell, c in enumerate(coeffs):
                inner = inner * (first - ell + 1) + c * head
                head *= second - ell
            total += sign * inner
        return total

    return value


def _factor_poly(r: int, s: int, n: int, shift: int) -> Polynomial:
    """phi_poly (shift 0) or psi_poly (shift 1); degree at most s-1."""
    validate_panhandle(r, s, n)
    return _interpolated(_row(_factor(r, s, n, shift), s - 1))


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


@lru_cache(maxsize=None)
def _panhandle_row(r: int, s: int, n: int, shift: int) -> tuple[int, ...]:
    """(n-s)/(n-1)! * C(t + n-s-shift, n-s) times the double sum of the
    same shift at t = 0..n: ehr_panhandle for shift 0, relaxation_correction
    for shift 1; degree at most n-1."""
    validate_panhandle(r, s, n)
    factor = _factor(r, s, n, shift)
    scale = math.factorial(n - 1)

    def value(t: int) -> int:
        # a lattice-point count (shift 0) or a difference of two (shift 1)
        count, rest = divmod((n - s) * binomial(t + n - s - shift, n - s) * factor(t), scale)
        if rest:
            raise AssertionError(f"closed form is not an integer at t={t}")
        return count

    return _row(value, n - 1)


@lru_cache(maxsize=None)
def ehr_panhandle(r: int, s: int, n: int) -> Polynomial:
    """Ehrhart polynomial of the panhandle polytope Pan(r, s, n)."""
    poly = _interpolated(_panhandle_row(r, s, n, 0))
    if poly.degree != n - 1:
        raise AssertionError("panhandle Ehrhart polynomial has wrong degree")
    if poly.coefficient(0) != 1:
        raise AssertionError("constant term must be 1")
    return poly


def _hypersimplex_count(r: int, n: int, t: int) -> int:
    """Integer points of the t-dilated hypersimplex, by inclusion-exclusion
    on coordinates exceeding t; a single point in the degenerate cases
    r = 0 and r = n."""
    if r in (0, n):
        return 1
    return sum((-1) ** j * binomial(n, j) * binomial((r - j) * t + n - 1 - j, n - 1)
               for j in range(r))


@lru_cache(maxsize=None)
def _hypersimplex_row(r: int, n: int) -> tuple[int, ...]:
    """Hypersimplex lattice-point counts at t = 0..n."""
    return _row(lambda t: _hypersimplex_count(r, n, t), n - 1)


@lru_cache(maxsize=None)
def ehr_hypersimplex(r: int, n: int) -> Polynomial:
    """Ehrhart polynomial of the hypersimplex (the uniform matroid polytope).

    Counts integer points of the cube [0, t]^n on the hyperplane where the
    coordinates sum to r*t, by inclusion-exclusion on coordinates
    exceeding t.  Requires 1 <= r <= n-1.
    """
    validate_rank(r, n)
    poly = _interpolated(_hypersimplex_row(r, n))
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
    # the degrees of the factors, s-1 and n-s-1 at most, add up to n-2
    return _interpolated(_row(
        lambda t: _hypersimplex_count(r - 1, s, t) * _hypersimplex_count(1, n - s, t), n - 2))


@lru_cache(maxsize=None)
def relaxation_correction(r: int, s: int, n: int) -> Polynomial:
    """Ehrhart difference contributed by relaxing one stressed hyperplane
    of size s in a rank-r matroid on [n]."""
    return _interpolated(_panhandle_row(r, s, n, 1))


def ehr_paving(r: int, n: int, hyperplane_sizes: Iterable[int]) -> Polynomial:
    """Ehrhart polynomial of a paving matroid from its hyperplane sizes.

    Start from the hypersimplex and subtract one relaxation correction per
    stressed hyperplane of size at least r; only the sizes matter.  Sizes
    must lie in [r, n-1]; there may be none, which yields the hypersimplex
    itself.  Whether the multiset comes from an actual paving matroid is
    the caller's responsibility.
    """
    sizes = tuple(sorted(hyperplane_sizes))
    validate_paving(r, n, sizes)
    return _paving(r, n, sizes)


@lru_cache(maxsize=None)
def _paving(r: int, n: int, sizes: tuple[int, ...]) -> Polynomial:
    """ehr_paving for a sorted tuple of valid sizes: the values at t = 0..n
    are subtracted as ints and the difference is interpolated once."""
    row = _hypersimplex_row(r, n)
    for size in sizes:
        row = [count - cut for count, cut in zip(row, _panhandle_row(r, size, n, 1))]
    poly = _interpolated(row)
    if poly.coefficient(0) != 1:
        raise AssertionError("constant term must be 1")
    return poly


def check_relaxation_positivity(r: int, s: int, n: int) -> bool:
    """True iff the relaxation correction binomial times psi has only
    nonnegative coefficients, so relaxing preserves Ehrhart positivity."""
    # the prefactor (n-s)/(n-1)! of the correction is positive
    return poly_leq(ZERO, relaxation_correction(r, s, n))
