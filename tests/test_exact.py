"""Exact arithmetic: binomials, basis conversions, Jordan power bands."""

import math
from fractions import Fraction

import pytest

from mdop.algebra import _falling_expansion, _product_expansion
from mdop.exact import (
    Poly,
    _jordan_power_cached,
    falling_factorial,
    falling_to_power_coeffs,
    gen_binomial,
    jordan_shifted_power,
    power_to_falling_coeffs,
)

X = Poly.var()


class TestGenBinomial:
    def test_standard(self):
        assert gen_binomial(5, 2) == 10

    def test_negative_top(self):
        # (-1)(-2)/2! = 1
        assert gen_binomial(-1, 2) == 1

    def test_negative_bottom_is_zero(self):
        assert gen_binomial(3, -1) == 0

    def test_zero_choose_zero(self):
        assert gen_binomial(0, 0) == 1

    def test_pascal_identity_over_box(self):
        for n in range(-6, 7):
            for s in range(1, 7):
                assert gen_binomial(n, s) == gen_binomial(n - 1, s) + gen_binomial(n - 1, s - 1)

    def test_matches_the_falling_factorial(self):
        # binom(top, s) s! = [top]_s, on both sides of top = 0 and past s > top.
        for top in range(-20, 21):
            for s in range(26):
                assert gen_binomial(top, s) * math.factorial(s) == falling_factorial(top, s)

    def test_results_are_reduced(self):
        value = gen_binomial(-3, 4)
        assert value.denominator == 1 or value == value.limit_denominator()


class TestFallingFactorial:
    def test_integers(self):
        assert falling_factorial(4, 2) == 12

    def test_empty_product(self):
        assert falling_factorial(X, 0) == 1

    def test_zero_factor(self):
        assert falling_factorial(2, 3) == 0

    def test_polynomial_argument(self):
        # x(x-1) = x^2 - x
        assert falling_factorial(X, 2) == Poly((0, -1, 1))

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError):
            falling_factorial(3, -1)


class TestStirlingConversions:
    def test_falling_to_power_frozen_values(self):
        assert falling_to_power_coeffs(0) == (1,)
        assert falling_to_power_coeffs(2) == (0, -1, 1)
        assert falling_to_power_coeffs(3) == (0, 2, -3, 1)

    def test_power_to_falling_frozen_values(self):
        assert power_to_falling_coeffs(1) == (0, 1)
        assert power_to_falling_coeffs(2) == (0, 1, 1)
        assert power_to_falling_coeffs(3) == (0, 1, 3, 1)

    def test_falling_matches_polynomial_expansion(self):
        # Independent oracle: multiply out x(x-1)...(x-j+1) with Poly.
        for j in range(9):
            expanded = falling_factorial(X, j)
            coeffs = falling_to_power_coeffs(j)
            assert Poly(coeffs) == (expanded if isinstance(expanded, Poly) else Poly.const(expanded))

    def test_power_to_falling_by_forward_substitution(self):
        # Independent oracle: invert the falling-to-power triangle directly.
        j = 3
        forward = [falling_to_power_coeffs(s) + (0,) * (j - s) for s in range(j + 1)]
        inverse = [Fraction(0)] * (j + 1)
        target = [Fraction(0)] * j + [Fraction(1)]  # coefficients of D^3
        for s in range(j, -1, -1):
            inverse[s] = target[s] - sum(inverse[u] * forward[u][s] for u in range(s + 1, j + 1))
        assert tuple(inverse) == power_to_falling_coeffs(j)

    def test_conversions_compose_to_identity(self):
        for j in range(13):
            p2f = power_to_falling_coeffs(j)
            total = [Fraction(0)] * (j + 1)
            for s, c in enumerate(p2f):
                if not c:
                    continue
                for u, w in enumerate(falling_to_power_coeffs(s)):
                    total[u] += c * w
            expected = [Fraction(0)] * (j + 1)
            expected[j] = Fraction(1)
            assert total == expected


def _truncated_convolution(a, b, m):
    # The band of a product of two upper-triangular Toeplitz m x m matrices.
    out = [Poly(())] * m
    for d1, x in enumerate(a):
        for d2, y in enumerate(b):
            if d1 + d2 < m:
                out[d1 + d2] = out[d1 + d2] + x * y
    return out


class TestJordanShiftedPower:
    def test_scalar_case(self):
        assert jordan_shifted_power(X + 3, 1, 2) == ((X + 3) * (X + 3),)

    def test_two_by_two_square(self):
        # (X id + J)^2 = [[X^2, 2X], [0, X^2]]
        assert jordan_shifted_power(X, 2, 2) == (X * X, 2 * X)

    def test_band_stops_at_j_plus_one(self):
        # (X id + J)^1 has no J^2 term, so at m = 3 the band has two entries.
        assert jordan_shifted_power(X, 3, 1) == (X, Poly.const(1))

    def test_zeroth_power_is_identity(self):
        assert jordan_shifted_power(X, 3, 0) == (Poly.const(1),)

    def test_entries_are_polys(self):
        band = jordan_shifted_power(Fraction(1, 2), 3, 4)
        assert all(type(w) is Poly for w in band)
        assert band == (Fraction(1, 16), 4 * Fraction(1, 8), 6 * Fraction(1, 4))

    def test_power_additivity(self):
        for m in (1, 2, 3, 4):
            for j1 in range(5):
                for j2 in range(5):
                    left = _truncated_convolution(
                        jordan_shifted_power(X + 1, m, j1), jordan_shifted_power(X + 1, m, j2), m
                    )
                    band = jordan_shifted_power(X + 1, m, j1 + j2)
                    assert left == list(band) + [0] * (m - len(band))

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            jordan_shifted_power(X, 0, 1)
        with pytest.raises(ValueError):
            jordan_shifted_power(X, 2, -1)
        with pytest.raises(TypeError):
            jordan_shifted_power(1.5, 2, 1)


class TestCacheBounds:
    def test_kernel_caches_are_bounded(self):
        for cached in (_jordan_power_cached, _product_expansion, _falling_expansion):
            assert cached.cache_info().maxsize is not None


class TestPoly:
    def test_constants_compare_with_numbers(self):
        assert Poly.const(Fraction(3, 2)) == Fraction(3, 2)
        assert Poly(()) == 0

    def test_trailing_zeros_stripped(self):
        assert Poly((1, 2, 0, 0)).coeffs == (1, 2)

    def test_arithmetic(self):
        p = (X + 1) * (X - 1)
        assert p == X * X - 1
        assert p(3) == 8

    def test_pow(self):
        assert (X + 1) ** 2 == X * X + 2 * X + 1

    def test_degree(self):
        assert Poly(()).degree == -1
        assert X.degree == 1

    def test_hash_consistent_with_numeric_equality(self):
        assert hash(Poly.const(2)) == hash(Fraction(2))
