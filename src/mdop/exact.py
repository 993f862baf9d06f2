"""Exact arithmetic primitives: rationals, univariate polynomials, the row
store RowSum, basis changes of integer D-rows, and banded Jordan powers.

Every scalar is an arbitrary-precision rational (fractions.Fraction) at
the API.  Polynomials are dense in a single formal indeterminate, which
stands in for the free module parameter; an identity verified with the
formal parameter therefore holds for every specialization at once.
Inside, algebra elements (C as one more row), module vectors and
polynomials (one row) are rows of integer numerators over one denominator
(RowSum), every exact scalar is read by _rational, and a basis change maps
a row of integers, so inner loops run on int arithmetic.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Iterable, Mapping
from fractions import Fraction
from itertools import starmap, zip_longest
from operator import add, neg

# The base scalar type.  Fraction already maintains the canonical form we
# need: reduced, positive denominator, zero stored as 0/1.
Rational = Fraction

# Entries kept by each memo cache of the kernel.  The Jordan powers are
# keyed by the parameter, so acting with ever-new specialized parameters
# would otherwise grow that cache without limit.
CACHE_SIZE = 4096


class DimensionError(ValueError):
    """Size or rank mismatch between operands."""


def _rational(value) -> tuple[tuple[int, ...], int] | None:
    # The one reader of an exact scalar: an int or a Fraction (already in lowest terms) as
    # the one-row normal form (numerators, den) of a constant, zero as ((), 1); else None.
    if isinstance(value, (int, Fraction)):
        top = value.numerator
        return (top,) if top else (), value.denominator
    return None


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


def _falling_row(row) -> list[int]:
    """Falling coefficients g of an integer D-row f, sum f[j] D^j = sum g[s] [D]_s: the Newton
    form at the nodes 0, 1, ..., by division by D - k in place; the k-th remainder is g[k]."""
    g = list(row)
    for k in range(1, len(g) - 1):
        acc = g[-1]
        for u in range(len(g) - 2, k - 1, -1):
            acc = g[u] = g[u] + k * acc
    return g


def _power_row(row) -> list[int]:
    """Power coefficients of an integer falling row g, the inverse of _falling_row:
    nested multiplication g[0] + D (g[1] + (D - 1) (g[2] + ...)), in place."""
    f = list(row)
    for k in range(len(f) - 2, 0, -1):
        for u in range(k, len(f) - 1):
            f[u] -= k * f[u + 1]
    return f


def _unit_row(j: int) -> list[int]:
    if j < 0:
        raise ValueError("basis index must be nonnegative")
    return [0] * j + [1]


def falling_to_power_coeffs(j: int) -> tuple[int, ...]:
    """The c with [D]_j = sum_s c[s] D^s (signed Stirling numbers of the first kind)."""
    return tuple(_power_row(_unit_row(j)))


def power_to_falling_coeffs(j: int) -> tuple[int, ...]:
    """The c with D^j = sum_s c[s] [D]_s (Stirling numbers of the second kind)."""
    return tuple(_falling_row(_unit_row(j)))


def _mul_add(out: list, a, b, scale: int = 1) -> None:
    # The one multiply-add of integer rows: out[i + k] += scale * a[i] * b[k], in place,
    # zero a[i] skipped; out holds at least len(a) + len(b) - 1 entries.
    for i, ca in enumerate(a):
        if ca:
            ca *= scale
            for k, cb in enumerate(b, i):
                out[k] += ca * cb


def _convolve(a, b) -> list[int]:
    # Numerators of the product of two polynomials, from their numerators.
    out = [0] * (len(a) + len(b) - 1)
    _mul_add(out, a, b)
    return out


def _power(base, exponent: int) -> list[int]:
    # Numerators of base^exponent: by the binomial theorem for a linear base (every module
    # parameter the CLI builds, shifted), where squaring would cost quadratic big-int work;
    # by repeated squaring otherwise.
    if len(base) == 2:
        c0, c1 = base
        return [math.comb(exponent, e) * c0 ** (exponent - e) * c1**e for e in range(exponent + 1)]
    result = [1]
    while exponent:
        if exponent & 1:
            result = _convolve(result, base)
        exponent >>= 1
        base = _convolve(base, base) if exponent else base
    return result


def _reduced(nums: list[int], den: int) -> "Poly":
    # The Poly nums/den in the normal form of _reduced_rows, as one row; zero has den = 1.
    return Poly._raw(None, _reduced_rows({0: nums}, den))


def _reduced_rows(rows: Mapping, den: int) -> tuple[dict, int]:
    # Normal form (rows, den) of key -> numerators (ascending power) over den > 0: trailing
    # zeros popped in place (from list rows), empty rows dropped, one gcd over all numerators.
    nums, g = {}, den
    for key, row in rows.items():
        while row and not row[-1]:
            row.pop()
        if row:
            nums[key] = row
            if g != 1:
                g = math.gcd(g, *row)
    div = g.__rfloordiv__
    for key, row in nums.items():
        nums[key] = tuple(row) if g == 1 else tuple(map(div, row))
    return nums, den // g


def _sum_rows(a: Mapping, da: int, b: Mapping, db: int, sign: int) -> tuple[dict, int]:
    # Normal form of a/da + sign * b/db, a and b in that normal form: a row scaled by 1 is
    # kept as it is, and only the rows that a and b share are added.
    g = math.gcd(da, db)
    fa, fb = db // g, sign * da // g
    out = dict(a) if fa == 1 else {key: tuple(map(fa.__mul__, row)) for key, row in a.items()}
    for key, row in b.items():
        acc = out.get(key)
        row = row if fb == 1 else tuple(map(fb.__mul__, row))
        out[key] = row if acc is None else list(starmap(add, zip_longest(acc, row, fillvalue=0)))
    return _reduced_rows(out, da * fa)


class RowSum:
    """A finite sum stored as rows in a context ctx: nums maps each row key to a
    nonempty tuple of integer numerators by ascending power, with no trailing
    zero, over one den > 0 with gcd(den, *all nums) = 1, so equal sums are
    equal structurally.  Algebra elements, module vectors and Polys are RowSums.  A
    subclass reads input terms by _word(ctx, key), which gives (row key,
    power), and _scalar(coefficient), which gives (numerators, den) from that
    power up, or None to refuse the coefficient; + and - take equal contexts.
    """

    __slots__ = ("ctx", "nums", "den")

    def __init__(self, ctx, terms: Mapping | Iterable = ()):
        # The sum of terms, (key, coefficient) pairs, repeated keys added: the one place where
        # input terms accumulate.  Each pair is read once, as (row key, power, numerators,
        # den); then every numerator is written into its row over the lcm of the dens.
        read = []
        for key, coeff in terms.items() if isinstance(terms, Mapping) else terms or ():
            key, e = self._word(ctx, key)
            scalar = self._scalar(coeff)
            if scalar is None:
                raise TypeError(f"expected an exact coefficient, got {type(coeff).__name__}")
            read.append((key, e, *scalar))
        den = math.lcm(*[w[3] for w in read])
        rows: dict = {}
        for key, e, nums, d in read:
            f = den // d
            row = rows.setdefault(key, [])
            row.extend([0] * (e + len(nums) - len(row)))
            for s, n in enumerate(nums, e):
                row[s] += f * n
        self.ctx = ctx
        self.nums, self.den = _reduced_rows(rows, den)

    @classmethod
    def _raw(cls, ctx, normal: tuple[dict, int]):
        # Internal fast path: normal is (nums, den) as _reduced_rows returns it.
        out = object.__new__(cls)
        out.ctx = ctx
        out.nums, out.den = normal
        return out

    @classmethod
    def zero(cls, ctx):
        return cls._raw(ctx, ({}, 1))

    def __bool__(self) -> bool:
        return bool(self.nums)

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self.ctx == other.ctx and self.den == other.den and self.nums == other.nums

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def _combine(self, other, sign: int):
        # self + sign * other
        if type(other) is not type(self):
            return NotImplemented
        if other.ctx != self.ctx:
            raise DimensionError("operands differ in rank or module parameters")
        return self._raw(self.ctx, _sum_rows(self.nums, self.den, other.nums, other.den, sign))

    def __neg__(self):
        rows = {key: tuple(map(neg, row)) for key, row in self.nums.items()}
        return self._raw(self.ctx, (rows, self.den))

    def __mul__(self, scalar):
        scalar = self._scalar(scalar)
        if scalar is None:
            return NotImplemented
        nums, den = scalar
        rows = {key: _convolve(row, nums) for key, row in self.nums.items()}
        return self._raw(self.ctx, _reduced_rows(rows, self.den * den))

    __rmul__ = __mul__


class Poly(RowSum):
    """Univariate polynomial over the rationals.

    A RowSum of context None with at most one row, of key 0: row holds the
    integer numerators (ascending power, no trailing zero, () for zero)
    over one positive denominator den, with gcd 1, so equal polynomials
    compare equal structurally.  coeffs gives the same coefficients as
    Fractions.  An int or a Fraction reads as a constant in +, -, * and ==.
    Instances are immutable by convention; all operations return new values.
    """

    __slots__ = ()

    def __init__(self, coeffs: Iterable = ()):
        super().__init__(None, enumerate(coeffs))

    @staticmethod
    def _word(ctx, e: int) -> tuple:
        return 0, e

    @staticmethod
    def _scalar(value):
        # A Poly's row, or else an exact scalar's (_rational).
        if type(value) is Poly:
            return value.row, value.den
        return _rational(value)

    @staticmethod
    def const(value) -> Poly:
        return Poly((value,))

    @staticmethod
    def var() -> Poly:
        """The formal indeterminate itself."""
        return Poly((0, 1))

    @property
    def row(self) -> tuple[int, ...]:
        """The numerators by ascending power; () for the zero polynomial."""
        return self.nums.get(0, ())

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(c, self.den) for c in self.row)

    @property
    def degree(self) -> int:
        """Degree of the polynomial; the zero polynomial has degree -1."""
        return len(self.row) - 1

    def constant_value(self) -> Fraction:
        if self.degree > 0:
            raise ValueError("polynomial is not constant")
        return self(0)

    def __call__(self, value) -> Fraction:
        """Evaluate at an exact point (Horner on numerators)."""
        point = _rational(value)
        if point is None:
            raise TypeError(f"expected an exact scalar, got {type(value).__name__}")
        nums, bottom = point
        top, acc, scale = nums[0] if nums else 0, 0, 1
        for c in reversed(self.row):
            acc = acc * top + c * scale
            scale *= bottom
        return Fraction(acc * bottom, self.den * scale)

    def __eq__(self, other) -> bool:
        # A Poly's row, or an int's or a Fraction's as a constant, on either side.
        scalar = Poly._scalar(other)
        return NotImplemented if scalar is None else (self.row, self.den) == scalar

    def __hash__(self) -> int:
        if self.degree <= 0:
            return hash(self.constant_value())
        return hash((self.row, self.den))

    def _combine(self, other, sign: int):
        # As for ==.
        scalar = Poly._scalar(other)
        if scalar is None:
            return NotImplemented
        nums, den = scalar
        return Poly._raw(None, _sum_rows(self.nums, self.den, {0: nums}, den, sign))

    __radd__ = RowSum.__add__

    def __rsub__(self, other):
        return -self + other

    def __pow__(self, exponent: int) -> Poly:
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("polynomial exponent must be a nonnegative integer")
        return _reduced(_power(self.row, exponent), self.den**exponent)

    def __repr__(self) -> str:
        return f"Poly({self.coeffs!r})"


def jordan_shifted_power(base, m: int, j: int) -> tuple[Poly, ...]:
    """The band of (base * id + J)^j, J the m x m upper-shift nilpotent.

    The power is upper-triangular and constant along each diagonal, so
    entry d of the band, binom(j, d) * base^(j-d), is its value on the d-th
    superdiagonal; the band stops at d = min(m, j+1) - 1 because J^m = 0.
    It is computed by Poly arithmetic, not read from the memo that act reads
    (_jordan_power_cached), so that it can serve as act's reference.
    """
    if m < 1:
        raise ValueError("Jordan block size must be positive")
    if j < 0:
        raise ValueError("exponent must be nonnegative")
    poly = Poly.const(base)
    return tuple(math.comb(j, d) * poly ** (j - d) for d in range(min(m, j + 1)))


@functools.lru_cache(maxsize=CACHE_SIZE)
def _jordan_power_cached(nums: tuple, den: int, shift: int, m: int, j: int) -> tuple:
    # The band for base = nums/den + shift as integer rows: row d holds the
    # numerators of binom(j, d) * base^(j-d) over den^(j-d).
    base = list(nums) or [0]
    base[0] += shift * den
    return tuple(
        tuple(math.comb(j, d) * c for c in _power(base, j - d)) for d in range(min(m, j + 1))
    )
