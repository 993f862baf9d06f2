"""Exact arithmetic: binomials, basis conversions, Jordan power bands."""

import gc
import math
import random
import tracemalloc
from fractions import Fraction

import pytest

from mdop.algebra import _falling_expansion, _product_expansion, to_falling
from mdop.exact import (
    Poly,
    _falling_row,
    _jordan_power_cached,
    _mul_add,
    _power_row,
    falling_factorial,
    falling_to_power_coeffs,
    gen_binomial,
    jordan_shifted_power,
    power_to_falling_coeffs,
)
from mdop.expr import parse_element

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


def _old_triangles(top):
    # Rows 0..top of both Stirling triangles, by the recurrences the kernel
    # once kept as tables: [D]_n = [D]_(n-1) (D - n + 1) and
    # S(n, s) = s S(n-1, s) + S(n-1, s-1).
    first, second = [(1,)], [(1,)]
    for n in range(1, top + 1):
        a, b = first[-1], second[-1]
        first.append((0, *[a[s - 1] - (n - 1) * a[s] for s in range(1, n)], 1))
        second.append((0, *[s * b[s] + b[s - 1] for s in range(1, n)], 1))
    return first, second


def _dense_row(rng, degree):
    return [rng.randint(-(2**64), 2**64) for _ in range(degree)] + [rng.randint(1, 2**64)]


DEGREES = (0, 1, 2, 3, 8, 31, 120, 300)


class TestNewtonConversions:
    # The dense-row conversions, checked by evaluation at integer points and
    # against the old table recurrences.

    @pytest.mark.parametrize("degree", DEGREES)
    def test_falling_row_evaluates_like_the_power_row(self, degree):
        f = _dense_row(random.Random(degree), degree)
        g = _falling_row(f)
        assert len(g) == len(f)
        for x in range(degree + 2):
            falling_sum, fall = 0, 1  # fall = [x]_s
            for s, c in enumerate(g):
                falling_sum += c * fall
                fall *= x - s
            assert falling_sum == sum(c * x**j for j, c in enumerate(f))

    @pytest.mark.parametrize("degree", DEGREES)
    def test_round_trips_are_exact(self, degree):
        row = _dense_row(random.Random(1000 + degree), degree)
        assert _power_row(_falling_row(row)) == row
        assert _falling_row(_power_row(row)) == row

    def test_the_input_row_is_not_changed(self):
        row = [3, -1, 4, 1, -5]
        _falling_row(row)
        _power_row(row)
        assert row == [3, -1, 4, 1, -5]

    def test_agrees_with_the_old_recurrences(self):
        first, second = _old_triangles(120)
        for j in range(121):
            assert falling_to_power_coeffs(j) == first[j]
            assert power_to_falling_coeffs(j) == second[j]
        rng = random.Random(120)
        row = _dense_row(rng, 120)
        by_words_f, by_words_p = [0] * 121, [0] * 121
        for j, c in enumerate(row):
            for s in range(j + 1):
                by_words_f[s] += c * second[j][s]
                by_words_p[s] += c * first[j][s]
        assert _falling_row(row) == by_words_f
        assert _power_row(row) == by_words_p

    def test_negative_index_rejected(self):
        for table in (falling_to_power_coeffs, power_to_falling_coeffs):
            with pytest.raises(ValueError):
                table(-1)

    # One dense row, and one-word rows that share the conversion of D^320.
    @pytest.mark.parametrize("text", ["FD^320", "D^320 + t D^320 - 2 t^2 D^319"])
    def test_a_high_conversion_keeps_nothing(self, text):
        to_falling(parse_element("FD^3", 1))  # first-call imports and regex caches
        gc.collect()
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            out = to_falling(parse_element(text, 1))
            _, peak = tracemalloc.get_traced_memory()
            assert out
            del out
            gc.collect()
            after, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - before < 2 * 2**20
        assert after - before < 16 * 2**10


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


class TestSharedHelpers:
    """The one multiply-add and the one binomial expansion that exact shares out."""

    def test_product_expansion_is_the_binomial_theorem(self):
        for j in range(60):
            for k in range(-30, 31):
                terms = [(j - s, math.comb(j, s) * k**s) for s in range(j + 1)]
                expected = {(u, c) for u, c in terms if c}
                got = _product_expansion(j, k)
                assert set(got) == expected and len(got) == len(expected)

    def test_mul_add_is_the_double_sum(self):
        rng = random.Random(19)
        for _ in range(300):
            a = [rng.choice((0, rng.randint(-(10**30), 10**30))) for _ in range(rng.randint(0, 7))]
            b = [rng.randint(-50, 50) for _ in range(rng.randint(1, 7))]
            scale = rng.choice((1, -1, rng.randint(-(10**9), 10**9)))
            # out is longer than the product and already holds values.
            base = [rng.randint(-99, 99) for _ in range(len(a) + len(b) + rng.randint(0, 3))]
            product = [0] * len(base)
            for i in range(len(a)):
                for k in range(len(b)):
                    product[i + k] += a[i] * b[k]
            out = list(base)
            _mul_add(out, a, b, scale)
            assert out == [x + scale * p for x, p in zip(base, product)]
            out = list(base)
            _mul_add(out, a, b)  # scale 1
            assert out == [x + p for x, p in zip(base, product)]


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

    def test_constant_value_and_pow_refusals(self):
        assert Poly.const(Fraction(3, 2)).constant_value() == Fraction(3, 2)
        with pytest.raises(ValueError, match="not constant"):
            X.constant_value()
        with pytest.raises(ValueError, match="nonnegative integer"):
            X ** -1

    def test_hash_consistent_with_numeric_equality(self):
        assert hash(Poly.const(2)) == hash(Fraction(2))
