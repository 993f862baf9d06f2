"""Exact arithmetic primitives: rationals, univariate polynomials, Stirling
tables, and the banded powers of a Jordan block.

Every scalar is an arbitrary-precision rational (fractions.Fraction) at
the API.  Polynomials are dense in a single formal indeterminate, which
stands in for the free module parameter; an identity verified with the
formal parameter therefore holds for every specialization at once.
Inside, a polynomial is integer numerators over one denominator, and the
Stirling tables are integers, so inner loops run on int arithmetic.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from itertools import chain
from typing import Iterable, Mapping

# The base scalar type.  Fraction already maintains the canonical form we
# need: reduced, positive denominator, zero stored as 0/1.
Rational = Fraction

# Entries kept by each memo cache of the kernel.  The Jordan powers are
# keyed by the parameter, so acting with ever-new specialized parameters
# would otherwise grow that cache without limit.
CACHE_SIZE = 4096


class DimensionError(ValueError):
    """Size or rank mismatch between operands."""


def _as_fraction(value) -> Fraction:
    if type(value) is Fraction:
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, Fraction):
        return value
    raise TypeError(f"expected an exact scalar, got {type(value).__name__}")


def gen_binomial(top: int, s: int) -> int:
    """Generalized binomial coefficient top(top-1)...(top-s+1) / s!.

    Defined for any integer top, where it is always an integer; by
    convention the value is 0 when s < 0.
    """
    if s < 0:
        return 0
    if top >= 0:
        return math.comb(top, s)
    # binom(top, s) = (-1)^s binom(s - top - 1, s) for negative top
    return -math.comb(s - top - 1, s) if s % 2 else math.comb(s - top - 1, s)


def falling_factorial(x, j: int):
    """Falling power x(x-1)...(x-j+1); the empty product (j = 0) is 1.

    Accepts integers, Fractions, and Poly values alike.
    """
    if j < 0:
        raise ValueError("falling factorial length must be nonnegative")
    acc = 1
    for u in range(j):
        acc = acc * (x - u)
    return acc


class _Triangle:
    """Cached table of rows 0, 1, 2, ... of an integer triangle.

    Decorates the step that builds row n from row n-1; calling the table
    with j returns row j.  A requested row is kept until cache_clear().  A
    row not yet kept is built by iterating from the highest kept row below
    it, so rows requested in ascending order cost one step each, and only
    requested rows take memory.
    """

    def __init__(self, step):
        functools.update_wrapper(self, step)
        self._step = step
        self._rows = {0: (1,)}

    def __call__(self, j: int) -> tuple[int, ...]:
        row = self._rows.get(j)
        if row is None:
            if j < 0:
                raise ValueError("Stirling row index must be nonnegative")
            # A snapshot of the keys: another thread may add a row meanwhile.
            top = max(k for k in tuple(self._rows) if k < j)
            row = self._rows[top]
            for n in range(top + 1, j + 1):
                row = self._step(row, n)
            self._rows[j] = row
        return row

    def cache_clear(self) -> None:
        self._rows = {0: (1,)}


@_Triangle
def falling_to_power_coeffs(prev: tuple[int, ...], n: int) -> tuple[int, ...]:
    """Coefficients c with [D]_j = sum_s c[s] D^s, as a table indexed by j.

    [D]_j = D(D-1)...(D-j+1); the coefficients are the signed Stirling
    numbers of the first kind, as integers, built by the product
    recurrence [D]_n = [D]_(n-1) (D - n + 1).
    """
    return (0, *[prev[s - 1] - (n - 1) * prev[s] for s in range(1, n)], 1)


@_Triangle
def power_to_falling_coeffs(prev: tuple[int, ...], n: int) -> tuple[int, ...]:
    """Coefficients c with D^j = sum_s c[s] [D]_s, as a table indexed by j.

    These are the Stirling numbers of the second kind, as integers, built
    by S(n, s) = s S(n-1, s) + S(n-1, s-1); composing with
    falling_to_power_coeffs gives the identity.
    """
    return (0, *[s * prev[s] + prev[s - 1] for s in range(1, n)], 1)


def _convolve(a, b) -> list[int]:
    # Numerators of the product of two polynomials, from their numerators.
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for k, cb in enumerate(b):
                out[i + k] += ca * cb
    return out


def _power(base, exponent: int) -> list[int]:
    # Numerators of base^exponent, by repeated squaring.
    result = [1]
    while exponent:
        if exponent & 1:
            result = _convolve(result, base)
        exponent >>= 1
        base = _convolve(base, base) if exponent else base
    return result


def _reduced(nums: list[int], den: int) -> "Poly":
    # Normal form: no trailing zeros, gcd(den, *nums) = 1, den > 0; so the
    # zero polynomial has den = 1.
    while nums and not nums[-1]:
        nums.pop()
    g = math.gcd(den, *nums)
    if g != 1:
        den //= g
        nums = [c // g for c in nums]
    poly = object.__new__(Poly)
    poly.nums = tuple(nums)
    poly.den = den
    return poly


def _reduced_rows(rows: Mapping, den: int) -> tuple[dict, int]:
    # Normal form (rows, den) of key -> numerators (ascending power) over den > 0: trailing
    # zeros popped in place (from list rows), empty rows dropped, one gcd over all numerators.
    for row in rows.values():
        while row and not row[-1]:
            row.pop()
    g = math.gcd(den, *chain.from_iterable(rows.values()))
    nums = {
        key: tuple(row) if g == 1 else tuple(c // g for c in row)
        for key, row in rows.items()
        if row
    }
    return nums, den // g


class Poly:
    """Univariate polynomial over the rationals.

    Stored as integer numerators nums (ascending power) over one positive
    denominator den, in normal form: no trailing zeros and gcd 1, so equal
    polynomials compare equal structurally.  coeffs gives the same
    coefficients as Fractions.  Instances are immutable by convention; all
    operations return new values.
    """

    __slots__ = ("nums", "den")

    def __new__(cls, coeffs: Iterable = ()):
        cs = [_as_fraction(c) for c in coeffs]
        den = math.lcm(*[c.denominator for c in cs])
        return _reduced([c.numerator * (den // c.denominator) for c in cs], den)

    @staticmethod
    def const(value) -> Poly:
        return Poly((value,))

    @staticmethod
    def var() -> Poly:
        """The formal indeterminate itself."""
        return Poly((0, 1))

    @staticmethod
    def _coerce(value) -> "Poly | None":
        if isinstance(value, Poly):
            return value
        if isinstance(value, (int, Fraction)):
            return _reduced([value.numerator], value.denominator)
        return None

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(c, self.den) for c in self.nums)

    @property
    def degree(self) -> int:
        """Degree of the polynomial; the zero polynomial has degree -1."""
        return len(self.nums) - 1

    def constant_value(self) -> Fraction:
        if len(self.nums) > 1:
            raise ValueError("polynomial is not constant")
        return Fraction(self.nums[0], self.den) if self.nums else Fraction(0)

    def __call__(self, value) -> Fraction:
        """Evaluate at an exact point (Horner on numerators)."""
        point = _as_fraction(value)
        top, bottom = point.numerator, point.denominator
        acc, scale = 0, 1
        for c in reversed(self.nums):
            acc = acc * top + c * scale
            scale *= bottom
        return Fraction(acc, self.den * scale // bottom) if self.nums else Fraction(0)

    def __bool__(self) -> bool:
        return bool(self.nums)

    def __eq__(self, other) -> bool:
        if type(other) is not Poly:
            other = Poly._coerce(other)
            if other is None:
                return NotImplemented
        return self.nums == other.nums and self.den == other.den

    def __hash__(self) -> int:
        if len(self.nums) <= 1:
            return hash(self.constant_value())
        return hash((self.nums, self.den))

    def __neg__(self) -> Poly:
        poly = object.__new__(Poly)
        poly.nums = tuple(-c for c in self.nums)
        poly.den = self.den
        return poly

    def __add__(self, other):
        if type(other) is not Poly:
            other = Poly._coerce(other)
            if other is None:
                return NotImplemented
        a, b = self.nums, other.nums
        g = math.gcd(self.den, other.den)
        fa, fb = other.den // g, self.den // g
        den = self.den * fa
        if len(a) < len(b):
            a, b, fa, fb = b, a, fb, fa
        out = [c * fa for c in a]
        for idx, c in enumerate(b):
            out[idx] += c * fb
        return _reduced(out, den)

    __radd__ = __add__

    def __sub__(self, other):
        coerced = Poly._coerce(other)
        if coerced is None:
            return NotImplemented
        return self + (-coerced)

    def __rsub__(self, other):
        coerced = Poly._coerce(other)
        if coerced is None:
            return NotImplemented
        return coerced + (-self)

    def __mul__(self, other):
        if type(other) is not Poly:
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            top = other.numerator
            return _reduced([c * top for c in self.nums], self.den * other.denominator)
        return _reduced(_convolve(self.nums, other.nums), self.den * other.den)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> Poly:
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("polynomial exponent must be a nonnegative integer")
        return _reduced(_power(self.nums, exponent), self.den**exponent)

    def __repr__(self) -> str:
        return f"Poly({self.coeffs!r})"


def jordan_shifted_power(base, m: int, j: int) -> tuple[Poly, ...]:
    """The band of (base * id + J)^j, J the m x m upper-shift nilpotent.

    The power is upper-triangular and constant along each diagonal, so
    entry d of the band, binom(j, d) * base^(j-d), is its value on the d-th
    superdiagonal; the band stops at d = min(m, j+1) - 1 because J^m = 0.
    """
    if m < 1:
        raise ValueError("Jordan block size must be positive")
    if j < 0:
        raise ValueError("exponent must be nonnegative")
    poly = Poly._coerce(base)
    if poly is None:
        raise TypeError("base must be an exact scalar or Poly")
    rows = _jordan_power_cached(poly.nums, poly.den, 0, m, j)
    return tuple(_reduced(list(row), poly.den ** (j - d)) for d, row in enumerate(rows))


@functools.lru_cache(maxsize=CACHE_SIZE)
def _jordan_power_cached(nums: tuple, den: int, shift: int, m: int, j: int) -> tuple:
    # The band for base = nums/den + shift as integer rows: row d holds the
    # numerators of binom(j, d) * base^(j-d) over den^(j-d).
    base = list(nums) or [0]
    base[0] += shift * den
    return tuple(
        tuple(math.comb(j, d) * c for c in _power(base, j - d)) for d in range(min(m, j + 1))
    )
