"""Property tests: Poly against a list-of-Fraction reference, the one reader of
exact scalars at each entrance, and the coefficient types the kernel hands
back at its boundary."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from mdop import algebra, reps
from mdop.exact import Poly, jordan_shifted_power
from mdop.reps import Family, ModuleParams
from mdop.verify import sample_element, sample_falling_element, sample_module_vector
from row_store import assert_rows_normal

# Derandomized, so that every run of the suite tries the same examples.
examples = settings(deadline=None, derandomize=True, max_examples=150)

rationals = st.builds(Fraction, st.integers(-99, 99), st.integers(1, 99))
coeff_lists = st.lists(rationals, max_size=6)


def strip(cs):
    cs = list(cs)
    while cs and not cs[-1]:
        cs.pop()
    return tuple(cs)


def ref_add(a, b):
    n = max(len(a), len(b))
    return strip((a[k] if k < len(a) else 0) + (b[k] if k < len(b) else 0) for k in range(n))


def ref_mul(a, b):
    out = [Fraction(0)] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for k, y in enumerate(b):
            out[i + k] += x * y
    return strip(out)


def assert_normal(p: Poly):
    assert type(p) is Poly and p.ctx is None
    assert_rows_normal(p.nums, p.den)
    assert p.row == p.nums.get(0, ())
    assert all(type(c) is Fraction for c in p.coeffs)


@examples
@given(coeff_lists)
def test_construction_is_normal(a):
    p = Poly(a)
    assert_normal(p)
    assert p.coeffs == strip(a)
    assert p.degree == len(strip(a)) - 1


@examples
@given(coeff_lists, coeff_lists)
def test_add_sub_mul(a, b):
    pa, pb = Poly(a), Poly(b)
    neg_b = [-c for c in b]
    for got, want in (
        (pa + pb, ref_add(a, b)),
        (pa - pb, ref_add(a, neg_b)),
        (pa * pb, ref_mul(a, b)),
        (-pa, strip(-c for c in a)),
    ):
        assert_normal(got)
        assert got.coeffs == want


@examples
@given(coeff_lists, coeff_lists)
def test_sums_that_cancel(a, tail):
    # a + (tail - a) leaves tail; a - a leaves the zero polynomial.
    pa = Poly(a)
    zero = pa - Poly(a)
    assert_normal(zero)
    assert (zero.nums, zero.row, zero.den) == ({}, (), 1)
    assert zero == 0 and not zero
    rest = pa + (Poly(tail) - pa)
    assert_normal(rest)
    assert rest.coeffs == strip(tail)


@examples
@given(st.lists(rationals, max_size=3), st.integers(0, 5))
def test_pow(a, n):
    want = (Fraction(1),)
    for _ in range(n):
        want = ref_mul(want, a)
    got = Poly(a) ** n
    assert_normal(got)
    assert got.coeffs == want


@examples
@given(coeff_lists, rationals)
def test_evaluation(a, x):
    value = Poly(a)(x)
    assert type(value) is Fraction
    assert value == sum((c * x**k for k, c in enumerate(a)), Fraction(0))


@examples
@given(coeff_lists, coeff_lists)
def test_eq_and_hash(a, b):
    pa, pb = Poly(a), Poly(b)
    assert (pa == pb) == (strip(a) == strip(b))
    assert pa == Poly(a) and hash(pa) == hash(Poly(a))


@examples
@given(rationals)
def test_constants_match_numbers(c):
    p = Poly.const(c)
    assert p == c and c == p
    assert hash(p) == hash(c)
    assert p.constant_value() == c


exact_scalars = st.one_of(st.integers(-9, 9), rationals)


@examples
@given(coeff_lists, exact_scalars)
def test_scalars_read_as_constants_on_either_side(a, c):
    # Every operator takes an int or a Fraction as the constant polynomial,
    # reflected forms included.
    p, k = Poly(a), Poly.const(c)
    for got, want in (
        (p + c, p + k), (c + p, k + p), (p - c, p - k),
        (c - p, k - p), (p * c, p * k), (c * p, k * p),
    ):
        assert_normal(got)
        assert got == want


def test_inexact_operands_are_refused():
    p = Poly((1, 2))
    for op in (
        lambda: p + 1.5, lambda: 1.5 + p, lambda: p - 1.5,
        lambda: 1.5 - p, lambda: p * 1.5, lambda: 1.5 * p,
    ):
        with pytest.raises(TypeError):
            op()
    assert (p == "x") is False and (p != "x") is True


@pytest.mark.parametrize("cls", (algebra.AlgebraElement, algebra.FallingElement))
@pytest.mark.parametrize("poly", (Poly.var(), Poly.const(2)))
def test_an_element_refuses_a_poly(cls, poly):
    # A Poly is a vector's coefficient, never an element's.
    e = cls.term(1, 0, 0, 1, 1)
    for op in (
        lambda: cls(1, {algebra.Monomial(0, 0, 1, 1): poly}),
        lambda: cls(1, {}, poly),
        lambda: e * poly,
        lambda: poly * e,
    ):
        with pytest.raises(TypeError):
            op()


@pytest.mark.parametrize(
    "read",
    (
        lambda c: Poly((c,)),
        Poly.const,
        Poly.var(),
        lambda c: ModuleParams(Family.V, 1, 1, c),
        lambda c: jordan_shifted_power(c, 2, 3),
    ),
)
def test_every_entrance_refuses_a_float(read):
    with pytest.raises(TypeError):
        read(1.5)


def _is_fraction(value) -> bool:
    return type(value) is Fraction


def _element_coeffs_are_fractions(e) -> bool:
    return _is_fraction(e.central) and all(_is_fraction(c) for c in e.terms.values())


@examples
@given(st.integers(0, 2**32), st.integers(1, 3))
def test_kernel_returns_fractions(seed, rank):
    rng = random.Random(seed)
    a = sample_element(rng, rank, 3, 3, allow_central=True)
    b = sample_element(rng, rank, 3, 3, allow_central=True)
    plain = sample_element(rng, rank, 3, 3)
    assert _element_coeffs_are_fractions(algebra.canonical_product(a, b))
    assert _element_coeffs_are_fractions(algebra.central_bracket(a, b))
    assert _element_coeffs_are_fractions(algebra.to_falling(a))
    assert _element_coeffs_are_fractions(algebra.sigma(plain))
    assert _is_fraction(algebra.cocycle_psi(a, b))
    fa = sample_falling_element(rng, rank, 3, 3, allow_central=True)
    fb = sample_falling_element(rng, rank, 3, 3, allow_central=True)
    assert _element_coeffs_are_fractions(algebra.bracket_falling_direct(fa, fb))
    assert _element_coeffs_are_fractions(algebra.from_falling(fa))
    for e in (a + b, a - a, -a, a * Fraction(-2, 3), 2 * a):
        assert _element_coeffs_are_fractions(e)
    assert not (a - a)


@examples
@given(st.integers(0, 2**32), st.sampled_from(Family), st.integers(1, 3))
def test_act_returns_polys(seed, family, m):
    rng = random.Random(seed)
    params = ModuleParams.formal(family, 2, m)
    image = reps.act(sample_element(rng, 2, 3, 3), sample_module_vector(rng, params, 3))
    for poly in image.entries.values():
        assert type(poly) is Poly
        assert_normal(poly)


words = st.tuples(st.integers(-4, 4), st.integers(0, 6), st.integers(1, 2), st.integers(1, 2))
term_maps = st.dictionaries(words, st.one_of(rationals, st.integers(-3, 3)), max_size=5)


def assert_element_normal(e):
    assert_rows_normal(e.nums, e.den)
    for i, p, q in e.nums:  # every key but C's (0, 0, 0) is a word's
        assert (i, p, q) == algebra._C or 1 <= p <= e.rank and 1 <= q <= e.rank
    terms = e.terms
    assert all(type(m) is algebra.Monomial for m in terms)
    assert terms == {
        algebra.Monomial(i, j, p, q): Fraction(n, e.den)
        for (i, p, q), row in e.nums.items()
        if p
        for j, n in enumerate(row)
        if n
    }
    assert type(e)(e.rank, terms, e.central) == e
    before = (dict(e.nums), e.den)
    terms.clear()
    terms[algebra.Monomial(0, 0, 1, 1)] = Fraction(7)
    assert (e.nums, e.den) == before and e.terms != terms


@examples
@given(term_maps, term_maps, rationals, rationals)
def test_elements_stay_in_normal_form(ta, tb, central, scalar):
    a = algebra.AlgebraElement(2, ta, central)
    b = algebra.AlgebraElement(2, tb)
    fa, fb = algebra.FallingElement(2, ta, central), algebra.FallingElement(2, tb)
    results = [
        a, b, fa, a.zero(2), a + b, a - b, a - a, -a, a * scalar, 0 * a,
        algebra.canonical_product(a, b), algebra.plain_bracket(a, b),
        algebra.central_bracket(a, b), algebra.sigma(b), algebra.to_falling(a),
        algebra.from_falling(fa), algebra.bracket_falling_direct(fa, fb),
        algebra.embed_scalar(1, 2, 2), fa + fb,
        *algebra.homogeneous_components(a).values(),
    ]
    for e in results:
        assert_element_normal(e)
