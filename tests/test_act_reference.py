"""The module action against a per-term reference on Fraction lists.

The reference visits every pair of an operator word and a vector entry,
and multiplies out binom(j, d) (base + shift)^(j-d) on lists of Fraction
coefficients written out here.  The kernel instead clears every
denominator, takes the band rows from the integer Jordan cache over
param.den ** j_max, and reduces each output entry once.  Specialised
rational parameters are where those denominators matter, so they are
covered here beside the formal parameter and its negation.
"""

import math
import random
from fractions import Fraction

from mdop import exact, reps
from mdop.algebra import AlgebraElement, Monomial
from mdop.exact import Poly, jordan_shifted_power
from mdop.reps import Family, ModuleParams, ModuleVector, act
from row_store import assert_rows_normal

LAMBDAS = (Fraction(3, 2), Fraction(-1, 3), Fraction(22, 7), Fraction(1, 97))


def _params_for(family, rank, m):
    """Every module parameter under test: the rational λ, formal a and -a."""
    out = [ModuleParams.specialized(family, rank, m, lam) for lam in LAMBDAS]
    formal = ModuleParams.formal(family, rank, m)
    return [*out, formal, ModuleParams(family, rank, m, -formal.param)]


def _strip(cs):
    cs = list(cs)
    while cs and not cs[-1]:
        cs.pop()
    return cs


def _ref_add(a, b):
    n = max(len(a), len(b))
    return [(a[k] if k < len(a) else 0) + (b[k] if k < len(b) else 0) for k in range(n)]


def _ref_mul(a, b):
    out = [Fraction(0)] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for k, y in enumerate(b):
            out[i + k] += x * y
    return out


def _ref_weight(param, shift, j, d):
    # binom(j, d) (param + shift)^(j - d) as a list of Fractions.
    base = _ref_add(list(param.coeffs), [Fraction(shift)])
    out = [Fraction(math.comb(j, d))]
    for _ in range(j - d):
        out = _ref_mul(out, base)
    return out


def ref_act(x, v):
    params = v.params
    twisted = params.family is Family.VBAR
    out = {}
    for (i, j, p, q), cx in x.terms.items():
        for (k, r, s), cv in v.entries.items():
            if r != (p if twisted else q):
                continue
            sign = (1 if j % 2 else -1) if twisted else 1
            shift = i + k if twisted else k
            for d in range(min(s, j + 1)):
                key = (i + k, q if twisted else p, s - d)
                scaled = [sign * cx * c for c in cv.coeffs]
                piece = _ref_mul(scaled, _ref_weight(params.param, shift, j, d))
                out[key] = _ref_add(out.get(key, []), piece)
    return {key: tuple(cs) for key, c in out.items() if (cs := _strip(c))}


def _coeff(rng):
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 60), rng.randint(1, 60))


def _element(rng, rank):
    terms = {}
    for _ in range(rng.randint(1, 4)):
        mono = Monomial(
            rng.randint(-4, 4), rng.randint(0, 8), rng.randint(1, rank), rng.randint(1, rank)
        )
        terms[mono] = _coeff(rng)
    return AlgebraElement(rank, terms, rng.choice((0, _coeff(rng))))


def _vector(rng, params):
    entries = {}
    for _ in range(rng.randint(1, 4)):
        key = (rng.randint(-4, 4), rng.randint(1, params.rank), rng.randint(1, params.m))
        entries[key] = Poly([_coeff(rng) for _ in range(rng.randint(1, 3))])
    return ModuleVector(params, entries)


def _assert_normal(poly):
    assert type(poly) is Poly and poly
    assert_rows_normal(poly.nums, poly.den)


def test_act_matches_the_reference():
    rng = random.Random(20261018)
    acted = 0
    for family in Family:
        for m in (1, 2, 3):
            for n in range(8):
                rank = 1 + n % 3
                for params in _params_for(family, rank, m):
                    x, v = _element(rng, rank), _vector(rng, params)
                    image = act(x, v)
                    assert image.params == params
                    got = {key: c.coeffs for key, c in image.entries.items()}
                    assert got == ref_act(x, v)
                    for poly in image.entries.values():
                        _assert_normal(poly)
                    acted += 1
    assert acted == 2 * 3 * 8 * 6


def test_high_jordan_slots_meet_every_band_row():
    # v[0, 1, m] under D^8 reaches every Jordan slot, so each band row d < m
    # is scaled by param.den ** (j_max - j + d) with j_max = 8 > j.
    for family in Family:
        for m in (2, 3):
            for params in _params_for(family, 1, m):
                x = AlgebraElement(
                    1, {Monomial(1, 8, 1, 1): Fraction(5, 3), Monomial(-2, 3, 1, 1): 1}
                )
                v = ModuleVector(params, {(0, 1, m): Poly((Fraction(1, 2), Fraction(-2, 7)))})
                image = act(x, v)
                assert {key: c.coeffs for key, c in image.entries.items()} == ref_act(x, v)
                assert {s for _, _, s in image.entries} == set(range(1, m + 1))


def test_jordan_band_matches_the_reference():
    for lam in (*LAMBDAS, 0, Poly.var(), -Poly.var()):
        param = Poly.const(lam)
        for shift in (-3, 0, 5):
            for m in (1, 2, 3):
                for j in range(9):
                    band = jordan_shifted_power(param + shift, m, j)
                    assert len(band) == min(m, j + 1)
                    for d, w in enumerate(band):
                        assert list(w.coeffs) == _strip(_ref_weight(param, shift, j, d))


def _act_by_band(mono, k, s, params):
    # act of one family-V word t^i D^j E[p,q] on v[k,q,s], read off the public band:
    # sum_d band[d] v[i+k, p, s-d] with band = jordan_shifted_power(param + k, m, j).
    i, j, p, _ = mono
    band = jordan_shifted_power(params.param + k, params.m, j)
    return ModuleVector(params, [((i + k, p, s - d), w) for d, w in enumerate(band[:s])])


def test_a_wrong_band_in_acts_memo_is_caught_by_the_reference(monkeypatch):
    # jordan_shifted_power does not read _jordan_power_cached, so a band corrupted
    # there shows up as act disagreeing with the reference.
    params = ModuleParams(Family.V, 1, 3, Poly.var() + Fraction(1, 2))
    mono = Monomial(2, 5, 1, 1)
    x = AlgebraElement(1, {mono: 1})
    v = ModuleVector.basis(params, -1, 1, 3)
    expected = _act_by_band(mono, -1, 3, params)
    assert act(x, v) == expected

    original = reps._jordan_power_cached

    def shifted_band(nums, den, shift, m, j):
        return original(nums, den, shift + 1, m, j)

    monkeypatch.setattr(reps, "_jordan_power_cached", shifted_band)
    monkeypatch.setattr(exact, "_jordan_power_cached", shifted_band)
    assert act(x, v) != expected
    assert _act_by_band(mono, -1, 3, params) == expected
