"""Module families: actions, grading, pairing."""

import copy
import pickle
import random
from fractions import Fraction

import pytest

from mdop.algebra import AlgebraElement, central_bracket, embed_scalar, sigma
from mdop.exact import DimensionError, Poly
from mdop.reps import (
    Family,
    ModuleParams,
    ModuleVector,
    act,
    grade_index,
    pairing,
    slot_of_grade,
)
from mdop.verify import sample_element, sample_module_vector

X = Poly.var()


def formal(family=Family.V, rank=1, m=1):
    return ModuleParams.formal(family, rank, m)


def _dense_identity(m):
    return [[Poly.const(1) if r == c else Poly(()) for c in range(m)] for r in range(m)]


def _dense_times_shifted_jordan(mat, base):
    # mat * (base id + J), J the m x m upper shift: column c gains column c-1.
    m = len(mat)
    return [
        [mat[r][c] * base + (mat[r][c - 1] if c else Poly(())) for c in range(m)]
        for r in range(m)
    ]


class TestAct:
    def test_matrix_shift_example(self):
        # (t^2 D E[1,2]) v[3,2] = (3+a) v[5,1] in family V
        params = formal(Family.V, 2)
        v = ModuleVector.basis(params, 3, 2)
        x = AlgebraElement.term(2, 2, 1, 1, 2)
        assert act(x, v) == ModuleVector(params, {(5, 1, 1): X + 3})

    def test_identity_acts_as_plus_minus_one(self):
        for n in (1, 2, 3):
            ident = embed_scalar(0, 0, n)
            rng = random.Random(n)
            v = sample_module_vector(rng, formal(Family.V, n), 3)
            w = sample_module_vector(rng, formal(Family.VBAR, n), 3)
            assert act(ident, v) == v
            assert act(ident, w) == -w

    def test_euler_eigenvalue_on_twisted_family(self):
        params = formal(Family.VBAR, 1)
        d = embed_scalar(0, 1, 1)
        for k in (-2, 0, 3):
            v = ModuleVector.basis(params, k, 1)
            assert act(d, v) == (X + k) * v

    def test_central_acts_as_zero(self):
        params = formal(Family.V, 2, 2)
        rng = random.Random(9)
        v = sample_module_vector(rng, params, 3)
        c = AlgebraElement(2, (), Fraction(7, 2))
        assert not act(c, v)

    def test_rank_mismatch(self):
        with pytest.raises(DimensionError):
            act(AlgebraElement.term(3, 0, 0, 1, 1), ModuleVector.basis(formal(rank=2), 0, 1))

    def test_jordan_slot_mixing(self):
        # D on v[k,1,s] with m = 2 picks up the nilpotent part of the parameter.
        params = formal(Family.V, 1, 2)
        d = embed_scalar(0, 1, 1)
        v2 = ModuleVector.basis(params, 0, 1, 2)
        assert act(d, v2) == ModuleVector(params, {(0, 1, 2): X, (0, 1, 1): 1})
        v1 = ModuleVector.basis(params, 0, 1, 1)
        assert act(d, v1) == ModuleVector(params, {(0, 1, 1): X})

    def test_jordan_action_matches_dense_power(self):
        # t^i D^j E[1,2] acts on Jordan slot s through column s of the dense
        # matrix (base id + J)^j, base = param + k (V) or param + i + k (Vbar).
        cx = Fraction(3, 2)
        cv = {1: Poly((1, Fraction(1, 2))), 2: Poly.const(5)}  # by matrix slot
        for family in (Family.V, Family.VBAR):
            twisted = family is Family.VBAR
            source, target = (1, 2) if twisted else (2, 1)
            for m in (1, 2, 3, 4):
                for param in (X, Poly.const(Fraction(-2, 3)), Poly.const(0)):
                    params = ModuleParams(family, 2, m, param)
                    for i, k in ((0, 0), (-1, 1), (2, -2), (2, 1), (-1, -1)):
                        base = param + (i + k if twisted else k)
                        dense = _dense_identity(m)
                        for j in range(5):
                            x = AlgebraElement.term(2, i, j, 1, 2, coeff=cx)
                            scale = cx * (-1) ** (j + 1) if twisted else cx
                            for s in range(1, m + 1):
                                v = ModuleVector(params, {(k, r, s): c for r, c in cv.items()})
                                expected = ModuleVector(params, {
                                    (i + k, target, s2): cv[source] * scale * dense[s2 - 1][s - 1]
                                    for s2 in range(1, m + 1)
                                })
                                assert act(x, v) == expected, (family, m, param, i, k, j, s)
                            dense = _dense_times_shifted_jordan(dense, base)

    def test_module_axiom_all_families(self):
        rng = random.Random(71)
        for family in (Family.V, Family.VBAR):
            for m in (1, 2, 3):
                params = formal(family, 2, m)
                for _ in range(40):
                    x = sample_element(rng, 2, 3, 3, allow_central=True)
                    y = sample_element(rng, 2, 3, 3, allow_central=True)
                    v = sample_module_vector(rng, params, 3)
                    lhs = act(central_bracket(x, y), v)
                    rhs = act(x, act(y, v)) - act(y, act(x, v))
                    assert lhs == rhs

    def test_twist_relation(self):
        rng = random.Random(73)
        for n in (1, 2):
            params_v = formal(Family.V, n)
            params_b = formal(Family.VBAR, n)
            for _ in range(60):
                x = sample_element(rng, n, 3, 3)
                vb = sample_module_vector(rng, params_b, 3)
                v = ModuleVector(params_v, vb.entries)
                assert act(x, vb).entries == act(sigma(x), v).entries


class TestGradeIndex:
    def test_family_v_examples(self):
        params = formal(Family.V, 2)
        assert grade_index(params, 0, 1) == 0
        assert grade_index(params, 0, 2) == 1
        assert grade_index(params, 1, 1) == 2

    def test_twisted_family_examples(self):
        params = formal(Family.VBAR, 2)
        assert grade_index(params, 0, 2) == 0
        assert grade_index(params, 0, 1) == 1

    def test_rank_one_collapse(self):
        params = formal(Family.V, 1)
        for k in range(-5, 6):
            assert grade_index(params, k, 1) == k

    def test_bijection(self):
        for n in (1, 2, 3, 4):
            for family in (Family.V, Family.VBAR):
                params = formal(family, n)
                for g in range(-100, 101):
                    k, r = slot_of_grade(params, g)
                    assert 1 <= r <= n
                    assert grade_index(params, k, r) == g
                seen = set()
                for k in range(-25, 26):
                    for r in range(1, n + 1):
                        g = grade_index(params, k, r)
                        assert g not in seen  # one slot per grade
                        assert slot_of_grade(params, g) == (k, r)
                        seen.add(g)

    def test_slot_out_of_range(self):
        with pytest.raises(ValueError):
            grade_index(formal(rank=2), 0, 3)


class TestPairing:
    def test_defining_values(self):
        params_w = formal(Family.VBAR, 1)
        params_v = params_w.dual()
        w = ModuleVector.basis(params_w, 2, 1)
        assert pairing(w, ModuleVector.basis(params_v, -2, 1)) == 1
        assert pairing(w, ModuleVector.basis(params_v, -1, 1)) == 0

    def test_matrix_slots_must_match(self):
        params_w = formal(Family.VBAR, 2)
        params_v = params_w.dual()
        w = ModuleVector.basis(params_w, 0, 1)
        assert pairing(w, ModuleVector.basis(params_v, 0, 2)) == 0

    def test_contravariance_sampled(self):
        rng = random.Random(83)
        for n in (1, 2):
            params_w = formal(Family.VBAR, n)
            params_v = params_w.dual()
            for _ in range(60):
                x = sample_element(rng, n, 3, 3)
                w = sample_module_vector(rng, params_w, 3)
                v = sample_module_vector(rng, params_v, 3)
                assert pairing(act(x, w), v) == -pairing(w, act(x, v))

    def test_convention_enforced(self):
        params_w = formal(Family.VBAR, 1)
        w = ModuleVector.basis(params_w, 0, 1)
        same = ModuleVector.basis(ModuleParams(Family.V, 1, 1, X), 0, 1)
        with pytest.raises(ValueError):
            pairing(w, same)
        with pytest.raises(ValueError):
            pairing(w, w)
        wide = formal(Family.VBAR, 2)
        with pytest.raises(DimensionError):
            pairing(ModuleVector.basis(wide, 0, 1), ModuleVector.basis(params_w.dual(), 0, 1))
        jordan = formal(Family.VBAR, 1, 2)
        with pytest.raises(ValueError, match="m = 1 only"):
            pairing(ModuleVector.basis(jordan, 0, 1), ModuleVector.basis(jordan.dual(), 0, 1))


class TestModuleParams:
    def test_equality_and_hash_follow_the_fields(self):
        a = ModuleParams(Family.V, 2, 1, X)
        b = ModuleParams(family=Family.V, rank=2)
        assert a == b and hash(a) == hash(b)
        assert len({a, b, ModuleParams.formal(Family.V, 2)}) == 1
        for other in (
            ModuleParams(Family.VBAR, 2),
            ModuleParams(Family.V, 1),
            ModuleParams(Family.V, 2, 2),
            ModuleParams(Family.V, 2, 1, -X),
        ):
            assert a != other
        assert a != (Family.V, 2, 1, X)
        assert a.dual() == ModuleParams(Family.V, 2, 1, -X)

    def test_immutable(self):
        params = formal()
        with pytest.raises(AttributeError):
            params.rank = 3
        with pytest.raises(AttributeError):
            del params.m
        assert params.rank == 1 and params.m == 1

    def test_repr_names_the_fields(self):
        params = ModuleParams(Family.VBAR, 2, 3, Poly.const(Fraction(1, 2)))
        assert repr(params) == (
            f"ModuleParams(family={Family.VBAR!r}, rank=2, m=3, param={params.param!r})"
        )

    @pytest.mark.parametrize(
        "rank,m,error",
        [
            (0, 1, DimensionError),
            ("1", 1, DimensionError),
            (True, 1, DimensionError),
            (1, 0, ValueError),
            (1, 1.0, ValueError),
            (1, True, ValueError),
        ],
    )
    def test_validation(self, rank, m, error):
        with pytest.raises(error):
            ModuleParams(Family.V, rank, m)

    def test_an_exact_scalar_parameter_is_read_as_a_constant(self):
        params = ModuleParams(Family.V, 1, 1, 3)
        assert params == ModuleParams.specialized(Family.V, 1, 1, 3)
        assert type(params.param) is Poly and params.param == Poly.const(3)
        v = ModuleVector.basis(params, 2, 1)
        assert act(AlgebraElement.term(1, 1, 1, 1, 1), v) == 5 * ModuleVector.basis(params, 3, 1)

    @pytest.mark.parametrize("param", [1.5, "a"])
    def test_an_inexact_parameter_is_refused(self, param):
        with pytest.raises(TypeError):
            ModuleParams(Family.V, 1, 1, param)

    def test_copy_and_pickle_keep_the_value(self):
        params = ModuleParams.specialized(Family.VBAR, 2, 3, Fraction(1, 2))
        for twin in (copy.copy(params), copy.deepcopy(params), pickle.loads(pickle.dumps(params))):
            assert twin == params and hash(twin) == hash(params) and repr(twin) == repr(params)
            with pytest.raises(AttributeError):
                twin.m = 1


class TestVectorBasics:
    def test_zero_entries_dropped(self):
        assert not ModuleVector(formal(), {(0, 1, 1): 0})

    def test_slot_validation(self):
        with pytest.raises(DimensionError):
            ModuleVector(formal(rank=1), {(0, 2, 1): 1})
        with pytest.raises(DimensionError):
            ModuleVector(formal(rank=1, m=1), {(0, 1, 2): 1})

    @pytest.mark.parametrize(
        "slot",
        [(1.5, 1, 1), (1, 1.0, 1), (1, 1, 1.0), (Fraction(1), 1, 1), (0, True, 1), ("0", 1, 1)],
    )
    def test_non_int_slot_indices_refused(self, slot):
        # Every stored slot is an int triple: a float k is not truncated to an int.
        params = formal(Family.V, 1, 2)
        with pytest.raises(TypeError, match="must be ints"):
            ModuleVector(params, {slot: 1})
        with pytest.raises(TypeError, match="must be ints"):
            ModuleVector.basis(params, *slot)

    def test_repr_names_the_params_and_entries(self):
        params = formal(Family.V, 1, 2)
        v = ModuleVector(params, {(1, 1, 2): X + Fraction(1, 2)})
        assert repr(v) == f"ModuleVector({params!r}, [((1, 1, 2), {X + Fraction(1, 2)!r})])"
        assert repr(X + Fraction(1, 2)) == "Poly((Fraction(1, 2), Fraction(1, 1)))"
        # The repr is a call of the constructor; only the Family member does not evaluate.
        names = {"ModuleVector": ModuleVector, "Poly": Poly, "Fraction": Fraction, "params": params}
        assert eval(repr(v).replace(repr(params), "params"), names) == v

    def test_scalar_multiplication_by_poly(self):
        v = ModuleVector.basis(formal(), 0, 1)
        assert (X * v).entries == {(0, 1, 1): X}

    def test_grading_compatible_action(self):
        rng = random.Random(89)
        for family in (Family.V, Family.VBAR):
            for m in (1, 2):
                params = formal(family, 2, m)
                for _ in range(40):
                    x = AlgebraElement.term(
                        2, rng.randint(-3, 3), rng.randint(0, 3),
                        rng.randint(1, 2), rng.randint(1, 2),
                    )
                    mono = next(iter(x.terms))
                    shift = mono.i * 2 + mono.p - mono.q
                    k, r, s = rng.randint(-3, 3), rng.randint(1, 2), rng.randint(1, m)
                    v = ModuleVector.basis(params, k, r, s)
                    base = grade_index(params, k, r)
                    for (k2, r2, _s2) in act(x, v).entries:
                        assert grade_index(params, k2, r2) == base + shift
