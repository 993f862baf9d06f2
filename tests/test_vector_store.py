"""Property tests of the module-vector store: integer numerators over one
denominator, against a per-entry Poly reference written here."""

import random
from fractions import Fraction
from itertools import product

import pytest

from mdop.exact import Poly
from mdop.expr import format_module_vector, parse_module_vector
from mdop.reps import (
    Family,
    ModuleParams,
    ModuleVector,
    act,
    grade_index,
    pairing,
    residue_slice,
)
from mdop.verify import sample_element
from row_store import assert_rows_normal

ZERO = Poly(())

# Formal, specialised and negated parameters.
PARAMS = [Poly.var(), Poly.const(Fraction(-1, 3)), Poly.const(2), -Poly.var()]
SHAPES = list(product((Family.V, Family.VBAR), (1, 2, 3), (1, 2, 3), PARAMS))


def draw_poly(rng, size=3):
    # Up to size coefficients, with denominators up to 12 and some zeros.
    return Poly(
        Fraction(rng.randint(-4, 4), rng.randint(1, 12)) for _ in range(rng.randint(0, size))
    )


def draw_vector(rng, params):
    # Coefficients of degree <= 2 in a formal parameter, constant in a specialised one.
    size = 3 if params.param.degree > 0 else 1
    entries = {}
    for _ in range(rng.randint(0, 4)):
        key = (rng.randint(-2, 2), rng.randint(1, params.rank), rng.randint(1, params.m))
        entries[key] = draw_poly(rng, size)
    return ModuleVector(params, entries)


def assert_normal(v):
    assert_rows_normal(v.nums, v.den)
    for k, r, s in v.nums:
        assert 1 <= r <= v.params.rank and 1 <= s <= v.params.m


def ref_combine(a, b, sign):
    out = dict(a)
    for key, c in b.items():
        out[key] = out.get(key, ZERO) + (c if sign > 0 else -c)
    return {key: c for key, c in out.items() if c}


def ref_pairing(w, v):
    total = ZERO
    for (k, p, _s), c in w.items():
        total = total + c * v.get((-k, p, 1), ZERO)
    return total


def operands(seed):
    """For each shape: params and three vectors, the third cancelling part of the first."""
    rng = random.Random(seed)
    for family, rank, m, param in SHAPES:
        params = ModuleParams(family, rank, m, param)
        u, w = draw_vector(rng, params), draw_vector(rng, params)
        cancel = ModuleVector(params, dict(list(u.entries.items())[: rng.randint(0, 2)]))
        yield params, u, w, draw_vector(rng, params) - cancel


@pytest.mark.parametrize("seed", range(12))
def test_arithmetic_agrees_with_the_poly_reference(seed):
    rng = random.Random(1000 + seed)
    for params, u, w, z in operands(seed):
        zero = ModuleVector.zero(params)
        for a, b in product((u, w, z, zero), repeat=2):
            ea, eb = a.entries, b.entries
            for got, sign in ((a + b, 1), (a - b, -1)):
                assert got.entries == ref_combine(ea, eb, sign)
                assert_normal(got)
            assert (a == b) == (ea == eb)
            assert (a + b) - b == a
        for a in (u, w, z, zero):
            assert_normal(a)
            assert bool(a) == bool(a.entries)
            assert (-a).entries == {key: -c for key, c in a.entries.items()}
            assert not a - a and a - a == zero
            assert a + (-a) == zero
            for scalar in (draw_poly(rng), ZERO, 0, -1, Fraction(rng.randint(-5, 5), 7)):
                got = a * scalar
                assert got == scalar * a
                assert got.entries == {
                    key: c * scalar for key, c in a.entries.items() if c * scalar
                }
                assert_normal(got)
            for m0 in range(params.rank):
                kept = residue_slice(a, m0)
                assert_normal(kept)
                assert kept.entries == {
                    (k, r, s): c
                    for (k, r, s), c in a.entries.items()
                    if grade_index(params, k, r) % params.rank == m0
                }
            slices = [residue_slice(a, m0) for m0 in range(params.rank)]
            assert sum(slices[1:], slices[0]) == a
            assert parse_module_vector(format_module_vector(a), params) == a


def test_a_residue_slice_renormalises():
    # 1/2 v[0,1] + 1/3 v[0,2] is stored over 6; the class of v[0,1] alone is 3/6 = 1/2.
    params = ModuleParams.formal(Family.V, 2)
    v = ModuleVector(params, {(0, 1, 1): Fraction(1, 2), (0, 2, 1): Fraction(1, 3)})
    assert (v.nums, v.den) == ({(0, 1, 1): (3,), (0, 2, 1): (2,)}, 6)
    kept = residue_slice(v, 0)
    assert (kept.nums, kept.den) == ({(0, 1, 1): (1,)}, 2)


@pytest.mark.parametrize("seed", range(6))
def test_pairing_agrees_with_the_poly_reference(seed):
    rng = random.Random(seed)
    for rank, param in product((1, 2, 3), PARAMS):
        params_w = ModuleParams(Family.VBAR, rank, 1, param)
        for _ in range(8):
            w, v = draw_vector(rng, params_w), draw_vector(rng, params_w.dual())
            assert pairing(w, v) == ref_pairing(w.entries, v.entries)
        zero = ModuleVector.zero(params_w.dual())
        assert pairing(w, zero) == ZERO


@pytest.mark.parametrize("seed", range(4))
def test_act_returns_normal_form(seed):
    rng = random.Random(seed)
    for params, u, w, z in operands(seed):
        x = sample_element(rng, params.rank, 3, 3, allow_central=True)
        for v in (u, w, z):
            image = act(x, v)
            assert_normal(image)
            assert all(type(c) is Poly for c in image.entries.values())


def test_entries_is_a_view():
    params = ModuleParams.formal(Family.V, 1)
    v = ModuleVector(params, {(0, 1, 1): Poly((Fraction(1, 2), 3))})
    assert (v.nums, v.den) == ({(0, 1, 1): (1, 6)}, 2)
    view = v.entries
    assert view == {(0, 1, 1): Poly((Fraction(1, 2), 3))}
    assert view is not v.entries
    view.clear()
    assert v.entries and v.nums


@pytest.mark.parametrize("bad", [0.5, "1/3"])
def test_inexact_entries_refused(bad):
    with pytest.raises(TypeError):
        ModuleVector(ModuleParams.formal(Family.V, 1), {(0, 1, 1): bad})


def test_basis_is_the_vector_the_constructor_builds():
    params = ModuleParams.formal(Family.VBAR, 2, 2)
    v = ModuleVector.basis(params, -3, 2, 2)
    assert v == ModuleVector(params, {(-3, 2, 2): 1})
    assert_normal(v)
