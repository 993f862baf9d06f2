"""The element operations against per-term references on Fractions.

Each reference visits every pair of words and adds one contribution at a
time, with the binomials and falling powers written out here; the kernel
instead accumulates integer numerators by row and visits only matching
pairs.  Both must give the same elements, down to the types of the keys
and values of .terms.
"""

import math
import random
from fractions import Fraction

import pytest

import mdop.algebra as algebra_module

from mdop.algebra import (
    AlgebraElement,
    FallingElement,
    Monomial,
    bracket_falling_direct,
    canonical_product,
    central_bracket,
    cocycle_psi,
    from_falling,
    plain_bracket,
    sigma,
    to_falling,
)
from mdop.exact import _reduced_rows, falling_to_power_coeffs, power_to_falling_coeffs


def _binom(top, s):
    num = 1
    for u in range(s):
        num *= top - u
    return num // math.factorial(s)


def _falling(x, s):
    out = 1
    for u in range(s):
        out *= x - u
    return out


def _add(out, key, value):
    out[key] = out.get(key, Fraction(0)) + value


def _nonzero(out):
    return {m: c for m, c in out.items() if c}


def ref_product(a, b):
    out = {}
    for (i, j, p, q), ca in a.terms.items():
        for (k, l, p2, q2), cb in b.terms.items():
            if q == p2:
                for s in range(j + 1):  # (D + k)^j D^l
                    _add(out, Monomial(i + k, j - s + l, p, q2), ca * cb * math.comb(j, s) * k**s)
    return _nonzero(out)


def ref_bracket(a, b):
    out = ref_product(a, b)
    for m, c in ref_product(b, a).items():
        _add(out, m, -c)
    return _nonzero(out)


def ref_change(terms, table):
    out = {}
    for (i, j, p, q), c in terms.items():
        for s, w in enumerate(table(j)):
            _add(out, Monomial(i, s, p, q), c * w)
    return _nonzero(out)


def _ref_psi_pair(ma, mb):
    if ma.i != -mb.i or ma.q != mb.p or ma.p != mb.q:
        return 0
    j, l = ma.j, mb.j
    return (-1) ** j * math.factorial(j) * math.factorial(l) * _binom(ma.i + j, j + l + 1)


def ref_psi_falling(fa, fb):
    total = Fraction(0)
    for ma, ca in fa.items():
        for mb, cb in fb.items():
            w = _ref_psi_pair(ma, mb)
            if w:
                total += ca * cb * w
    return total


def ref_psi(a, b):
    return ref_psi_falling(
        ref_change(a.terms, power_to_falling_coeffs), ref_change(b.terms, power_to_falling_coeffs)
    )


def ref_sigma(a):
    out = {}
    for (i, j, p, q), c in a.terms.items():
        sign = 1 if j % 2 else -1
        for s in range(j + 1):  # (D + i)^j
            _add(out, Monomial(i, j - s, q, p), sign * c * math.comb(j, s) * i**s)
    return _nonzero(out)


def ref_falling_bracket(a, b):
    out = {}
    for ma, ca in a.terms.items():
        for mb, cb in b.terms.items():
            i, j, k, l = ma.i, ma.j, mb.i, mb.j
            if ma.q == mb.p:
                for s in range(j + 1):
                    w = math.comb(j, s) * _falling(k + l, s)
                    _add(out, Monomial(i + k, j + l - s, ma.p, mb.q), ca * cb * w)
            if mb.q == ma.p:
                for s in range(l + 1):
                    w = math.comb(l, s) * _falling(i + j, s)
                    _add(out, Monomial(i + k, j + l - s, mb.p, ma.q), -ca * cb * w)
    return _nonzero(out), ref_psi_falling(a.terms, b.terms)


def _coeff(rng):
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 99), rng.randint(1, 99))


def _element(rng, rank, cls=AlgebraElement, size=None, i_values=range(-6, 7)):
    terms = {}
    for _ in range(rng.randint(0, 12) if size is None else size):
        mono = Monomial(
            rng.choice(i_values), rng.randint(0, 8), rng.randint(1, rank), rng.randint(1, rank)
        )
        terms[mono] = _coeff(rng)
    return cls(rank, terms, rng.choice((0, _coeff(rng))))


def _cases(cls=AlgebraElement):
    """Operand pairs over ranks 1-3, j <= 8, |i| <= 6.

    Besides random pairs: pairs of equal operands (brackets and cocycles
    cancel to zero), operands built only of i = 0 words (every shift k is
    0), D^2 - D against D, and the zero element.
    """
    rng = random.Random(20261018)
    cases = []
    for n in range(60):
        rank = 1 + n % 3
        a, b = _element(rng, rank, cls), _element(rng, rank, cls)
        cases.append((a, b))
        cases.append((a, a))
        unshifted = [_element(rng, rank, cls, i_values=(0,)) for _ in range(2)]
        cases.append(tuple(unshifted))
    diff = cls(1, {Monomial(0, 2, 1, 1): 1, Monomial(0, 1, 1, 1): -1})
    cases.append((diff, cls(1, {Monomial(0, 1, 1, 1): 1})))
    cases.append((cls.zero(2), _element(rng, 2, cls, size=5)))
    return cases


def _assert_stored_form(element, expected_terms, expected_central=None):
    assert element.terms == expected_terms
    for mono, coeff in element.terms.items():
        assert type(mono) is Monomial
        assert type(coeff) is Fraction and coeff != 0
    assert type(element.central) is Fraction
    if expected_central is not None:
        assert element.central == expected_central


POWER_CASES = _cases()
FALLING_CASES = _cases(FallingElement)


def test_canonical_product():
    for a, b in POWER_CASES:
        _assert_stored_form(canonical_product(a, b), ref_product(a, b), 0)


def test_plain_bracket():
    for a, b in POWER_CASES:
        _assert_stored_form(plain_bracket(a, b), ref_bracket(a, b), 0)


def test_central_bracket_and_cocycle():
    for a, b in POWER_CASES:
        psi = ref_psi(a, b)
        value = cocycle_psi(a, b)
        assert type(value) is Fraction and value == psi
        _assert_stored_form(central_bracket(a, b), ref_bracket(a, b), psi)


def test_sigma():
    for a, _ in POWER_CASES:
        bare = AlgebraElement(a.rank, a.terms)
        _assert_stored_form(sigma(bare), ref_sigma(bare), 0)


def test_basis_changes():
    for a, b in POWER_CASES:
        falling = ref_change(a.terms, power_to_falling_coeffs)
        _assert_stored_form(to_falling(a), falling, a.central)
        f = FallingElement(b.rank, b.terms, b.central)
        power = ref_change(f.terms, falling_to_power_coeffs)
        _assert_stored_form(from_falling(f), power, f.central)


def test_bracket_falling_direct():
    for a, b in FALLING_CASES:
        terms, psi = ref_falling_bracket(a, b)
        _assert_stored_form(bracket_falling_direct(a, b), terms, psi)


def test_cancelling_cases_reach_zero():
    # D^2 - D = [D]_2; [D, D^2] = 0 has only k = 0 shifts; [a, a] = 0.
    d2_minus_d = AlgebraElement(1, {Monomial(0, 2, 1, 1): 1, Monomial(0, 1, 1, 1): -1})
    assert to_falling(d2_minus_d).terms == {Monomial(0, 2, 1, 1): 1}
    d, d2 = AlgebraElement.term(1, 0, 1, 1, 1), AlgebraElement.term(1, 0, 2, 1, 1)
    assert not central_bracket(d, d2)
    a = _element(random.Random(3), 3, size=12)
    assert not central_bracket(a, a)
    assert not bracket_falling_direct(to_falling(a), to_falling(a))


# The power-basis cocycle is the Kac-Radul closed form, evaluated at |i|
# integer points; ref_psi goes through the falling basis word by word.


def test_cocycle_on_every_small_rank_one_word_pair():
    # Every pair of words t^i D^j, t^k D^l with |i|, |k| <= 6 and j, l <= 6.
    words = [AlgebraElement.term(1, i, j, 1, 1) for i in range(-6, 7) for j in range(7)]
    falling = [ref_change(w.terms, power_to_falling_coeffs) for w in words]
    for a, fa in zip(words, falling):
        for b, fb in zip(words, falling):
            assert cocycle_psi(a, b) == ref_psi_falling(fa, fb)


@pytest.mark.parametrize(
    "size,i_values,pairs", [(None, range(-3, 4), 300), (30, range(-4, 5), 12)], ids=["1-3", "30"]
)
def test_cocycle_on_random_pairs(size, i_values, pairs):
    rng = random.Random(9)
    for n in range(pairs):
        rank = 1 + n % 3
        count = rng.randint(1, 3) if size is None else size
        a = _element(rng, rank, size=count, i_values=i_values)
        b = _element(rng, rank, size=count, i_values=i_values)
        assert cocycle_psi(a, b) == ref_psi(a, b)


def test_cocycle_is_antisymmetric_at_negative_t_powers():
    # a holds only words of negative t power, so its groups take the swapped branch.
    rng = random.Random(10)
    for n in range(60):
        rank = 1 + n % 3
        a = _element(rng, rank, size=rng.randint(1, 6), i_values=range(-5, 0))
        b = _element(rng, rank, size=rng.randint(1, 6), i_values=range(1, 6))
        psi = cocycle_psi(a, b)
        assert psi == ref_psi(a, b) == -cocycle_psi(b, a)


def test_cocycle_agrees_with_the_falling_bracket_on_high_words():
    a = AlgebraElement.term(1, -30, 60, 1, 1, Fraction(2, 3))
    b = AlgebraElement.term(1, 30, 60, 1, 1, -5)
    psi = cocycle_psi(a, b)
    assert psi and psi == bracket_falling_direct(to_falling(a), to_falling(b)).central


def test_the_two_cocycle_routes_share_no_weight(monkeypatch):
    # cocycle_psi never leaves the power basis; the falling bracket keeps
    # the per-word weights, so falling_agreement compares two routes.
    def reached(*args):
        raise AssertionError("the falling weights were reached")

    a, b = next((a, b) for a, b in POWER_CASES if cocycle_psi(a, b))
    expected = cocycle_psi(a, b)
    for name in ("_change_basis", "_psi_weight", "_psi_total", "_falling_row", "_power_row"):
        monkeypatch.setattr(algebra_module, name, reached)
    assert cocycle_psi(a, b) == expected
    monkeypatch.undo()
    calls = []
    total = algebra_module._psi_total
    monkeypatch.setattr(
        algebra_module, "_psi_total", lambda *args: calls.append(args) or total(*args)
    )
    fa, fb = to_falling(a), to_falling(b)
    assert bracket_falling_direct(fa, fb).central == expected
    assert len(calls) == 1


# Dense operands multiply row by row: each output row is summed as one big
# integer H(2^bits) and read back in balanced base-2^bits digits.


def _dense(a, b, bracket=False):
    rows = algebra_module._dense_products(a.nums, b.nums, bracket)
    return AlgebraElement._raw(a.rank, _reduced_rows(rows, a.den * b.den))


def _dense_element(rng, rank, words, i_values, slots=None, big=False):
    """`words` words up to D^12 over the given t powers and matrix slots, or as many as fit."""
    slots = slots or [(p, q) for p in range(1, rank + 1) for q in range(1, rank + 1)]
    terms = {}
    while len(terms) < min(words, 13 * len(i_values) * len(slots)):
        mono = Monomial(rng.choice(i_values), rng.randint(0, 12), *rng.choice(slots))
        if big:  # mixed signs, numerators of about 200 bits
            terms[mono] = Fraction(rng.choice((-1, 1)) * rng.getrandbits(200), rng.randint(1, 99))
        else:
            terms[mono] = _coeff(rng)
    return AlgebraElement(rank, terms)


@pytest.mark.parametrize(
    "i_values", [range(-3, 4), range(-4, 0), (0,)], ids=["mixed", "negative", "zero"]
)
@pytest.mark.parametrize("big", [False, True], ids=["small", "big"])
def test_dense_route_against_the_references(i_values, big):
    rng = random.Random(12)
    for rank in (1, 2, 3):
        a = _dense_element(rng, rank, 40, i_values, big=big)
        b = _dense_element(rng, rank, 44, i_values, big=big)
        _assert_stored_form(_dense(a, b), ref_product(a, b))
        _assert_stored_form(_dense(b, a), ref_product(b, a))
        _assert_stored_form(_dense(a, b, True), ref_bracket(a, b))
        _assert_stored_form(_dense(a, a), ref_product(a, a))
        assert not _dense(a, a, True)


def test_dense_route_cancels_to_zero():
    # E[1,1] + E[1,2] times x E[1,2] - x E[2,2]: two row pairs meet and cancel.
    x = Fraction(-(2**90) - 1, 7)
    a = AlgebraElement(2, {Monomial(0, 0, 1, 1): 1, Monomial(0, 0, 1, 2): 1})
    b = AlgebraElement(2, {Monomial(0, 0, 1, 2): x, Monomial(0, 0, 2, 2): -x})
    assert ref_product(a, b) == {}
    zero = _dense(a, b)
    assert zero == AlgebraElement.zero(2) and (zero.nums, zero.den) == ({}, 1)
    d, d2 = AlgebraElement.term(1, 0, 1, 1, 1), AlgebraElement.term(1, 0, 2, 1, 1)
    assert not _dense(d, d2, True)


@pytest.mark.parametrize("c", [1, 5, 2**64 - 1, 2**64, 3**41, -(2**64), -(3**41)])
def test_dense_route_at_the_bound(c):
    # c D^3 times D^2 is c D^5: with no shift the bound is |c|, met exactly.
    a, b = AlgebraElement.term(1, 0, 3, 1, 1, c), AlgebraElement.term(1, 0, 2, 1, 1)
    assert algebra_module._kronecker_bound(a.nums, b.nums) == abs(c)
    _assert_stored_form(_dense(a, b), {Monomial(0, 5, 1, 1): c})
    # With the words of a shifted too: 2 c D^3 t^-1 D^2 reaches 2 |c| (1+1)^3.
    a = AlgebraElement(1, {Monomial(0, 3, 1, 1): c, Monomial(0, 0, 1, 1): -c})
    b = AlgebraElement(1, {Monomial(-1, 2, 1, 1): 1, Monomial(1, 2, 1, 1): -1})
    _assert_stored_form(_dense(a, b), ref_product(a, b))


def test_dense_bracket_bounds_both_orders():
    # t^5 against D^6: ab = t^5 D^6 has coefficient 1, but ba = t^5 (D+5)^6
    # reaches 5^6, so the bound must count the swapped product.
    a, b = AlgebraElement.term(1, 5, 0, 1, 1), AlgebraElement.term(1, 0, 6, 1, 1)
    _assert_stored_form(_dense(a, b, True), ref_bracket(a, b))
    _assert_stored_form(_dense(b, a, True), ref_bracket(b, a))


def _dense_pairs(rng):
    # Operand pairs past the route's thresholds at ranks 1-3.
    yield _dense_element(rng, 1, 40, range(-2, 3)), _dense_element(rng, 1, 42, range(-2, 3))
    yield _dense_element(rng, 2, 45, range(-1, 2)), _dense_element(rng, 2, 41, range(-1, 2))
    slots = [(1, 1), (1, 2), (2, 1), (3, 3)]
    yield (
        _dense_element(rng, 3, 40, (-1, 0, 1), slots, big=True),
        _dense_element(rng, 3, 40, (-1, 0, 1), slots),
    )


def test_public_ops_take_the_dense_route_past_the_thresholds(monkeypatch):
    calls = []
    dense = algebra_module._dense_products
    monkeypatch.setattr(
        algebra_module, "_dense_products", lambda *args: calls.append(args) or dense(*args)
    )
    for a, b in _dense_pairs(random.Random(13)):
        _assert_stored_form(canonical_product(a, b), ref_product(a, b), 0)
        _assert_stored_form(plain_bracket(a, b), ref_bracket(a, b), 0)
        _assert_stored_form(central_bracket(a, b), ref_bracket(a, b), ref_psi(a, b))
    assert len(calls) == 9


def test_central_parts_change_neither_the_dense_route_nor_the_products(monkeypatch):
    # C's row is left out before the route is chosen: the same operands with
    # and without central parts take the dense route alike, C never reaches
    # it, and only central_bracket writes a central part.  The last pair has
    # exactly DENSE_WORDS_PER_ROW words a row, so a row more would tip it.
    rng = random.Random(13)
    words = [Monomial(i, j, 1, 1) for i in range(-4, 4) for j in (0, 1)]
    threshold = [AlgebraElement(1, {m: _coeff(rng) for m in words}) for _ in range(2)]
    calls = []
    dense = algebra_module._dense_products
    monkeypatch.setattr(
        algebra_module, "_dense_products", lambda *args: calls.append(args) or dense(*args)
    )
    for a, b in [*_dense_pairs(rng), threshold]:
        ca = a + AlgebraElement.central_term(a.rank, Fraction(5, 7))
        cb = b + AlgebraElement.central_term(b.rank, -3)
        for op in (canonical_product, plain_bracket):
            plain = op(a, b)
            assert op(ca, cb) == op(ca, b) == op(a, cb) == plain and not plain.central
        bracket = central_bracket(ca, cb)
        assert bracket.central == cocycle_psi(ca, cb) == cocycle_psi(a, b) == ref_psi(a, b)
        assert bracket == central_bracket(a, b)
        _assert_stored_form(bracket, ref_bracket(a, b), ref_psi(a, b))
    assert len(calls) == 4 * (4 + 4 + 2)
    assert all(algebra_module._C not in rows for call in calls for rows in call[:2])


def test_small_and_sparse_operands_keep_the_word_route(monkeypatch):
    def reached(*args):
        raise AssertionError("the dense route was reached")

    monkeypatch.setattr(algebra_module, "_dense_products", reached)
    for a, b in POWER_CASES:  # at most 12 words each
        canonical_product(a, b)
        plain_bracket(a, b)
    rng = random.Random(14)
    for rank in (1, 3):  # 30 words, about one per row
        a = _element(rng, rank, size=30, i_values=range(-12, 13))
        b = _element(rng, rank, size=30, i_values=range(-12, 13))
        _assert_stored_form(canonical_product(a, b), ref_product(a, b), 0)


def test_the_default_suite_never_takes_the_dense_route(monkeypatch):
    from mdop.verify import SuiteConfig, run_suite

    def reached(*args):
        raise AssertionError("the dense route was reached")

    monkeypatch.setattr(algebra_module, "_dense_products", reached)
    checks = ("associativity", "jacobi_central", "jacobi_plain", "sigma_bracket")
    for seed in (7, 1, 2, 3):
        report = run_suite(SuiteConfig(seed=seed, checks=checks))
        assert report.passed and len(report.results) == len(checks)


# Rows with long runs of zero numerators: each row is stored densely by D
# power, so the sparse words between the zeros must come back exactly.


def test_cocycle_across_long_zero_runs():
    a, b = AlgebraElement.term(1, -3, 40, 1, 1), AlgebraElement.term(1, 3, 40, 1, 1)
    assert cocycle_psi(a, b) == -(2**41)
    assert cocycle_psi(b, a) == 2**41


def test_basis_change_and_sigma_across_long_zero_runs():
    x = AlgebraElement(
        1, {Monomial(5, 200, 1, 1): 1, Monomial(5, 2, 1, 1): 3, Monomial(-2, 120, 1, 1): -1}
    )
    assert from_falling(to_falling(x)) == x
    assert sigma(sigma(x)) == x


def test_product_across_long_zero_runs():
    a, b = AlgebraElement.term(1, 1, 300, 1, 1), AlgebraElement.term(1, -1, 2, 1, 1)
    _assert_stored_form(canonical_product(a, b), ref_product(a, b), 0)
