"""Property tests of the text and JSON forms, and of the constructors' pairs.

Printing then parsing gives back the same element, vector or polynomial; the
coefficient strings of the JSON forms are str(Fraction) of the public views;
and a constructor given (key, coefficient) pairs adds repeated keys, so it
equals the same constructor given the summed mapping.
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from mdop import expr
from mdop.algebra import AlgebraElement, FallingElement, Monomial, from_falling, to_falling
from mdop.exact import Poly
from mdop.expr import (
    MAX_A_DEGREE,
    MAX_T_POWER,
    element_to_json,
    falling_element_to_json,
    format_element,
    format_falling_element,
    format_module_vector,
    format_poly,
    module_vector_to_json,
    parse_element,
    parse_module_vector,
    poly_to_json,
)
from mdop.reps import Family, ModuleParams, ModuleVector

# Derandomized, so that every run of the suite tries the same examples.
examples = settings(deadline=None, derandomize=True, max_examples=60)

# Denominators past 6, the largest the verify samplers draw.
rationals = st.builds(Fraction, st.integers(-999, 999), st.integers(1, 97))
shifts = st.integers(-MAX_T_POWER, MAX_T_POWER) | st.sampled_from((-MAX_T_POWER, MAX_T_POWER))
# Zeros inside a polynomial are printed in JSON and skipped in text.
polys = st.lists(st.just(Fraction(0)) | rationals, max_size=MAX_A_DEGREE + 1).map(Poly)


@st.composite
def word_pairs(draw, rank, max_j=12, min_size=0):
    """(Monomial, coefficient) pairs whose words come from a small pool, so keys repeat."""
    word = st.builds(
        Monomial, shifts, st.integers(0, max_j), st.integers(1, rank), st.integers(1, rank)
    )
    pool = draw(st.lists(word, min_size=1, max_size=4))
    return draw(st.lists(st.tuples(st.sampled_from(pool), rationals), min_size=min_size, max_size=8))


@st.composite
def elements(draw, cls=AlgebraElement):
    rank = draw(st.integers(1, 3))
    return cls(rank, draw(word_pairs(rank)), draw(rationals))


@st.composite
def module_params(draw):
    family, rank, m = draw(st.sampled_from(Family)), draw(st.integers(1, 3)), draw(st.integers(1, 3))
    formal = Poly.var()
    param = draw(st.sampled_from((formal, -formal)) | rationals.map(Poly.const))
    return ModuleParams(family, rank, m, param)


@st.composite
def slot_pairs(draw, params, min_size=0, coeffs=polys):
    slot = st.tuples(shifts, st.integers(1, params.rank), st.integers(1, params.m))
    pool = draw(st.lists(slot, min_size=1, max_size=4))
    return draw(st.lists(st.tuples(st.sampled_from(pool), coeffs), min_size=min_size, max_size=6))


@st.composite
def vectors(draw):
    # The text form reads 'a' only under a formal parameter, so a number gets constants.
    params = draw(module_params())
    coeffs = polys if params.param.degree > 0 else rationals
    return ModuleVector(params, draw(slot_pairs(params, coeffs=coeffs)))


def summed(pairs, zero):
    total = {}
    for key, c in pairs:
        total[key] = total.get(key, zero) + c
    return total


@examples
@given(elements())
def test_an_element_prints_and_parses_back(e):
    assert parse_element(format_element(e), e.rank) == e


@examples
@given(elements(FallingElement))
def test_a_falling_element_prints_and_parses_back(f):
    # FD atoms are read into the power basis.
    assert parse_element(format_falling_element(f), f.rank) == from_falling(f)
    assert to_falling(parse_element(format_falling_element(f), f.rank)) == f


@examples
@given(elements(), st.booleans())
def test_element_json_coefficients_are_the_fractions_of_terms(e, falling):
    form = falling_element_to_json(e) if falling else element_to_json(e)
    words = sorted(e.terms.items())
    assert [(t["i"], t["j"], t["p"], t["q"]) for t in form["terms"]] == [tuple(m) for m, _ in words]
    assert [t["coeff"] for t in form["terms"]] == [str(c) for _, c in words]
    assert form["central"] == str(e.central)


@examples
@given(vectors())
def test_a_vector_prints_and_parses_back(v):
    assert parse_module_vector(format_module_vector(v), v.params) == v


@examples
@given(vectors())
def test_vector_json_coefficients_are_the_fractions_of_entries(v):
    form = module_vector_to_json(v)
    entries = sorted(v.entries.items())
    assert [(e["k"], e["r"], e["s"]) for e in form["entries"]] == [key for key, _ in entries]
    assert [e["coeff"] for e in form["entries"]] == [[str(c) for c in p.coeffs] for _, p in entries]
    param = v.params.param
    if param == Poly.var():
        assert form["lambda"] == "formal"
    elif param.degree <= 0:
        assert form["lambda"] == str(param.constant_value())
    else:
        assert form["lambda"] == [str(c) for c in param.coeffs]


@examples
@given(polys)
def test_a_polynomial_prints_and_parses_back(p):
    ts = expr._TokenStream(format_poly(p))
    assert expr._parse_poly_sum(ts) == p
    ts.expect_end()
    assert poly_to_json(p)["coeffs"] == [str(c) for c in p.coeffs]


@examples
@given(st.integers(1, 3).flatmap(lambda n: st.tuples(st.just(n), word_pairs(n, 40, 1))))
def test_element_pairs_add_up_and_cancel(case):
    rank, pairs = case
    e = AlgebraElement(rank, pairs)
    assert e == AlgebraElement(rank, summed(pairs, Fraction(0)))
    assert e.terms == {m: c for m, c in summed(pairs, Fraction(0)).items() if c}
    zero = AlgebraElement(rank, pairs + [(m, -c) for m, c in pairs])
    assert not zero and zero.nums == {} and zero.den == 1


@examples
@given(module_params().flatmap(lambda p: st.tuples(st.just(p), slot_pairs(p, 1))))
def test_vector_pairs_add_up_and_cancel(case):
    params, pairs = case
    v = ModuleVector(params, pairs)
    assert v == ModuleVector(params, summed(pairs, Poly(())))
    assert v.entries == {key: c for key, c in summed(pairs, Poly(())).items() if c}
    zero = ModuleVector(params, pairs + [(key, -c) for key, c in pairs])
    assert not zero and zero.nums == {} and zero.den == 1
