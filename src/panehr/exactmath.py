"""Exact arithmetic substrate: big integers, rationals, dense polynomials.

Every quantity in this package is an integer or an exact rational.
Integers are Python ints, rationals are fractions.Fraction, and
polynomials in t are dense ascending coefficient vectors of Fractions.
There is no floating-point mode.

interpolate is the package's one interpolation routine.  The closed
forms of ehrhart are built with it: each formula is evaluated at
t = 0, 1, ... with int arithmetic (binomial takes negative upper
arguments, as a binomial polynomial in t does) and interpolated once.
The lattice-point oracle turns its counts into polynomials with it too.
Samples at consecutive integers, which every caller in the package
gives, are interpolated as integer dot products: their forward
differences against the Newton basis expanded over the common
denominator degree!, whose integer columns are built once per first
sample and degree and kept in a bounded cache (_newton_columns).
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import repeat
from operator import mul, sub
from typing import Iterable, Sequence, Union

Scalar = Union[int, Fraction]


def binomial(n: int, k: int) -> int:
    """Binomial coefficient C(n, k), with C(n, k) = 0 for k < 0 or k > n >= 0.

    Negative n falls back to the falling factorial n(n-1)...(n-k+1)/k!,
    which is what a binomial polynomial in t yields at negative arguments.
    """
    if k < 0:
        return 0
    if n >= 0:
        if k > n:
            return 0
        return math.comb(n, k)
    num = 1
    for j in range(k):
        num *= n - j
    return num // math.factorial(k)


# the closed-form summands of forests ask for few distinct ranges, many times
@lru_cache(maxsize=None)
def pi_range(a: int, b: int, n: int) -> int:
    """Sum of all products of n distinct integers i with a <= i <= b.

    Equivalently, the elementary symmetric polynomial of degree n evaluated
    at the consecutive integers a..b.  Conventions: n = 0 gives 1 even when
    the range is empty, n < 0 gives 0, and n exceeding the number of
    integers in the range gives 0.  Computed by extending the range one
    value at a time, not by enumerating subsets.
    """
    if n == 0:
        return 1
    if n < 0 or n > b - a + 1:
        return 0
    e = [1] + [0] * n
    seen = 0
    for v in range(a, b + 1):
        seen += 1
        for j in range(min(seen, n), 0, -1):
            e[j] += v * e[j - 1]
    return e[n]


class Polynomial:
    """Dense univariate polynomial in t with exact rational coefficients.

    Coefficients are stored ascending by degree with no trailing zeros, so
    every polynomial has a unique representation and the zero polynomial
    stores an empty tuple.  Instances are immutable and hashable.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        # a Fraction is immutable, so an exact one is kept as it is
        cs = [c if type(c) is Fraction else Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def coefficient(self, d: int) -> Fraction:
        if 0 <= d < len(self.coeffs):
            return self.coeffs[d]
        return Fraction(0)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __add__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Polynomial(out)

    def __neg__(self) -> "Polynomial":
        return Polynomial(-c for c in self.coeffs)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            if not self.coeffs or not other.coeffs:
                return Polynomial()
            out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                if a == 0:
                    continue
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
            return Polynomial(out)
        if isinstance(other, (int, Fraction)):
            return Polynomial(c * other for c in self.coeffs)
        return NotImplemented

    __rmul__ = __mul__

    def evaluate(self, t: Scalar) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * t + c
        return acc

    def __repr__(self) -> str:
        return f"Polynomial({list(self.coeffs)!r})"

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for d in range(self.degree, -1, -1):
            c = self.coeffs[d]
            if c == 0:
                continue
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            if d == 0:
                body = str(mag)
            else:
                var = "t" if d == 1 else f"t^{d}"
                body = var if mag == 1 else f"{mag} {var}"
            parts.append((sign, body))
        first_sign, first_body = parts[0]
        out = ("-" if first_sign == "-" else "") + first_body
        for sign, body in parts[1:]:
            out += f" {sign} {body}"
        return out


ZERO = Polynomial()
ONE = Polynomial([1])


def binom_poly(alpha: int, beta: int, d: int) -> Polynomial:
    """The polynomial C(alpha*t + beta, d) expanded in t.

    That is (alpha*t + beta)(alpha*t + beta - 1)...(alpha*t + beta - d + 1) / d!
    with exact rational coefficients.  Requires d >= 0.
    """
    if d < 0:
        raise ValueError(f"binom_poly requires d >= 0, got d={d}")
    prod = ONE
    for j in range(d):
        prod = prod * Polynomial([beta - j, alpha])
    return prod * Fraction(1, math.factorial(d))


def poly_leq(p: Polynomial, q: Polynomial) -> bool:
    """True iff every coefficient of p is <= the matching coefficient of q.

    The shorter polynomial is padded with zeros.
    """
    top = max(len(p.coeffs), len(q.coeffs))
    return all(p.coefficient(d) <= q.coefficient(d) for d in range(top))


def poly_eval(p: Polynomial, t: Scalar) -> Fraction:
    """Exact value p(t)."""
    return p.evaluate(t)


def poly_to_json(p: Polynomial) -> list[str]:
    """Coefficients as reduced "num/den" strings, ascending degree.

    Integral coefficients print without a denominator, e.g. ["1","3/2","1/2"].
    """
    return [str(c) for c in p.coeffs]


def poly_from_json(items: Sequence[str]) -> Polynomial:
    """Inverse of poly_to_json; round-trips bit-exactly."""
    return Polynomial(Fraction(s) for s in items)


def interpolate(samples: Sequence[tuple[Scalar, Scalar]], degree: int) -> Polynomial:
    """Unique polynomial of the stated degree through the samples.

    Needs at least degree+1 distinct sample points; any extra samples must
    lie on the interpolating polynomial, otherwise the data was not
    produced by a polynomial of that degree and a ValueError is raised.
    Samples at consecutive integers go through forward differences, each
    coefficient one dot product with a cached integer column of the
    degree!-scaled Newton basis for that first sample and degree; any
    other points through Newton divided differences over exact rationals.
    """
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    seen: dict[Scalar, Scalar] = {}
    for x, y in samples:
        if x in seen and seen[x] != y:
            raise ValueError(f"contradictory samples at t={x}")
        seen[x] = y
    if len(seen) < degree + 1:
        raise ValueError(
            f"need at least {degree + 1} distinct samples, got {len(seen)}")
    xs = sorted(seen)
    if xs == [xs[0] + k for k in range(len(xs))]:
        return _interpolate_consecutive(xs[0], [seen[x] for x in xs], degree)
    xs = xs[:degree + 1]
    ys = [Fraction(seen[x]) for x in xs]
    coeffs = list(ys)
    for level in range(1, degree + 1):
        for i in range(degree, level - 1, -1):
            coeffs[i] = (coeffs[i] - coeffs[i - 1]) / (xs[i] - xs[i - level])
    poly = Polynomial()
    basis = Polynomial([1])
    for i, c in enumerate(coeffs):
        poly = poly + c * basis
        basis = basis * Polynomial([-xs[i], 1])
    for x, y in seen.items():
        if poly.evaluate(x) != y:
            raise _mismatch(degree, x)
    return poly


def _interpolate_consecutive(x0: Scalar, ys: Sequence[Scalar], degree: int) -> Polynomial:
    """interpolate for samples ys at x0, x0+1, ...: the Newton forward form
    sum_k (Delta^k y_0) C(t - x0, k), expanded over the common denominator
    degree!.  Every difference of order degree+1 must vanish."""
    diffs = []
    row = list(ys)
    for _ in range(degree + 1):
        diffs.append(row[0])
        row = list(map(sub, row[1:], row))
    for j, excess in enumerate(row):
        if excess:
            # the samples before this one lie on the interpolant
            raise _mismatch(degree, x0 + j + degree + 1)
    scale = math.factorial(degree)
    return Polynomial(Fraction(sum(map(mul, diffs[i:], column)), scale)
                      for i, column in enumerate(_newton_columns(x0, degree)))


# one (x0, degree) pair per closed form or oracle call site, and a column
# set at degree 119 holds 0.75 MB, so a few dozen are kept
@lru_cache(maxsize=32)
def _newton_columns(x0: Scalar, degree: int) -> tuple[tuple[Scalar, ...], ...]:
    """Column i holds the t^i coefficients of the scaled Newton basis
    degree!/k! * (t - x0)(t - x0 - 1)...(t - x0 - k + 1) for k = i..degree,
    so the t^i numerator of _interpolate_consecutive is the dot product of
    column i with the differences of order i and above."""
    scale = math.factorial(degree)
    rows = []
    basis = [1]  # (t - x0)(t - x0 - 1)...(t - x0 - k + 1), ascending in t
    for k in range(degree + 1):
        rows.append(list(map(mul, basis, repeat(scale // math.factorial(k)))))
        # times (t - x0 - k): shift up one degree, less x0 + k times itself
        basis = list(map(sub, [0, *basis], [*map(mul, basis, repeat(x0 + k)), 0]))
    return tuple(tuple(row[i] for row in rows[i:]) for i in range(degree + 1))


def _mismatch(degree: int, x: Scalar) -> ValueError:
    return ValueError(f"samples are not a polynomial of degree {degree}: "
                      f"mismatch at t={x}")
