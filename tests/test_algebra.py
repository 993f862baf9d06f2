"""Algebra core: products, brackets, cocycle, bases, gradation, twist."""

import math
import random
from fractions import Fraction

import pytest

from mdop import exact
from mdop.algebra import (
    AlgebraElement,
    FallingElement,
    Monomial,
    bracket_falling_direct,
    canonical_product,
    central_bracket,
    cocycle_psi,
    degree,
    embed_scalar,
    from_falling,
    homogeneous_components,
    plain_bracket,
    sigma,
    to_falling,
)
from mdop.exact import DimensionError, gen_binomial
from mdop.reps import Family, ModuleParams, ModuleVector, act
from mdop.verify import sample_element, sample_falling_element


def el(rank, text_terms, central=0):
    return AlgebraElement(rank, text_terms, central)


D1 = AlgebraElement.term(1, 0, 1, 1, 1)   # D
T1 = AlgebraElement.term(1, 1, 0, 1, 1)   # t
T1_INV = AlgebraElement.term(1, -1, 0, 1, 1)


class TestCanonicalProduct:
    def test_d_times_t(self):
        # D t = t D + t
        expected = el(1, {Monomial(1, 1, 1, 1): 1, Monomial(1, 0, 1, 1): 1})
        assert canonical_product(D1, T1) == expected

    def test_pure_matrix_terms(self):
        for n in (2, 3):
            for p in range(1, n + 1):
                for q in range(1, n + 1):
                    for pp in range(1, n + 1):
                        for qq in range(1, n + 1):
                            a = AlgebraElement.term(n, 2, 0, p, q)
                            b = AlgebraElement.term(n, -1, 0, pp, qq)
                            prod = canonical_product(a, b)
                            if q == pp:
                                assert prod == AlgebraElement.term(n, 1, 0, p, qq)
                            else:
                                assert not prod

    def test_td_squared(self):
        td = el(1, {Monomial(1, 1, 1, 1): 1})
        expected = el(1, {Monomial(2, 2, 1, 1): 1, Monomial(2, 1, 1, 1): 1})
        assert canonical_product(td, td) == expected

    def test_central_parts_ignored(self):
        a = el(1, {Monomial(0, 1, 1, 1): 1}, central=5)
        b = el(1, {Monomial(1, 0, 1, 1): 1}, central=7)
        assert canonical_product(a, b) == canonical_product(D1, T1)

    def test_rank_mismatch(self):
        with pytest.raises(DimensionError):
            canonical_product(D1, AlgebraElement.term(2, 0, 0, 1, 1))

    def test_associativity_sampled(self):
        rng = random.Random(101)
        for _ in range(150):
            n = rng.choice((1, 2))
            a = sample_element(rng, n, 3, 3)
            b = sample_element(rng, n, 3, 3)
            c = sample_element(rng, n, 3, 3)
            assert canonical_product(canonical_product(a, b), c) == canonical_product(
                a, canonical_product(b, c)
            )


class TestPlainBracket:
    def test_d_with_t(self):
        assert plain_bracket(D1, T1) == T1

    def test_antisymmetry_on_self(self):
        rng = random.Random(5)
        x = sample_element(rng, 2, 3, 3)
        assert not plain_bracket(x, x)

    def test_gl_commutator(self):
        e12 = AlgebraElement.term(2, 0, 0, 1, 2)
        e21 = AlgebraElement.term(2, 0, 0, 2, 1)
        expected = el(2, {Monomial(0, 0, 1, 1): 1, Monomial(0, 0, 2, 2): -1})
        assert plain_bracket(e12, e21) == expected

    def test_jacobi_sampled(self):
        rng = random.Random(17)
        for _ in range(100):
            n = rng.choice((1, 2))
            a = sample_element(rng, n, 3, 3)
            b = sample_element(rng, n, 3, 3)
            c = sample_element(rng, n, 3, 3)
            total = (
                plain_bracket(a, plain_bracket(b, c))
                + plain_bracket(b, plain_bracket(c, a))
                + plain_bracket(c, plain_bracket(a, b))
            )
            assert not total


class TestBasisConversion:
    def test_power_to_falling(self):
        d2 = el(1, {Monomial(0, 2, 1, 1): 1})
        expected = FallingElement(1, {Monomial(0, 2, 1, 1): 1, Monomial(0, 1, 1, 1): 1})
        assert to_falling(d2) == expected

    def test_falling_to_power(self):
        fd2 = FallingElement(1, {Monomial(0, 2, 1, 1): 1})
        expected = el(1, {Monomial(0, 2, 1, 1): 1, Monomial(0, 1, 1, 1): -1})
        assert from_falling(fd2) == expected

    def test_degree_zero_fixed_point(self):
        e = AlgebraElement.term(1, 5, 0, 1, 1)
        f = to_falling(e)
        assert f == FallingElement(1, {Monomial(5, 0, 1, 1): 1})
        assert from_falling(f) == e

    def test_round_trip_sampled(self):
        rng = random.Random(23)
        for _ in range(200):
            n = rng.choice((1, 2, 3))
            a = sample_element(rng, n, 4, 5, allow_central=True)
            assert from_falling(to_falling(a)) == a
        for _ in range(200):
            n = rng.choice((1, 2, 3))
            f = sample_falling_element(rng, n, 4, 5, allow_central=True)
            assert to_falling(from_falling(f)) == f

    def test_central_passes_through(self):
        a = el(1, {}, central=Fraction(3, 2))
        assert to_falling(a).central == Fraction(3, 2)


class TestCocycle:
    def test_scalar_spot_value(self):
        for n in (1, 2, 3):
            t = embed_scalar(1, 0, n)
            tinv = embed_scalar(-1, 0, n)
            assert cocycle_psi(t, tinv) == n

    def test_falling_degree_one_pair_vanishes(self):
        # binom(2, 3) = 0 kills the candidate central term.
        a = from_falling(FallingElement(1, {Monomial(1, 1, 1, 1): 1}))
        b = from_falling(FallingElement(1, {Monomial(-1, 1, 1, 1): 1}))
        assert cocycle_psi(a, b) == 0

    def test_exponent_pairing_required(self):
        a = AlgebraElement.term(1, 2, 0, 1, 1)
        b = AlgebraElement.term(1, 3, 0, 1, 1)
        assert cocycle_psi(a, b) == 0

    def test_antisymmetric_sampled(self):
        rng = random.Random(31)
        for _ in range(200):
            n = rng.choice((1, 2))
            a = sample_element(rng, n, 3, 3)
            b = sample_element(rng, n, 3, 3)
            assert cocycle_psi(a, b) == -cocycle_psi(b, a)

    def test_cocycle_identity_sampled(self):
        rng = random.Random(37)
        for _ in range(150):
            n = rng.choice((1, 2))
            a = sample_element(rng, n, 3, 3)
            b = sample_element(rng, n, 3, 3)
            c = sample_element(rng, n, 3, 3)
            total = (
                cocycle_psi(plain_bracket(a, b), c)
                + cocycle_psi(plain_bracket(b, c), a)
                + cocycle_psi(plain_bracket(c, a), b)
            )
            assert total == 0


class TestCentralBracket:
    def test_t_with_t_inverse(self):
        result = central_bracket(T1, T1_INV)
        assert not result.terms
        assert result.central == 1

    def test_d_with_t_has_no_central_term(self):
        assert central_bracket(D1, T1) == T1

    def test_central_generator_is_central(self):
        rng = random.Random(41)
        c = AlgebraElement(2, (), Fraction(5, 3))
        for _ in range(20):
            x = sample_element(rng, 2, 3, 3, allow_central=True)
            assert not central_bracket(c, x)
            assert not central_bracket(x, c)

    def test_scalar_subalgebra_central_term(self):
        # [t D, t^-1 D] has plain part -2D and vanishing central part.
        a = embed_scalar(1, 1, 1)
        b = embed_scalar(-1, 1, 1)
        result = central_bracket(a, b)
        assert result.central == 0
        assert result == -2 * embed_scalar(0, 1, 1)


class TestFallingDirectBracket:
    def test_vector_field_closed_form(self):
        # [t^(i+1) d/dt, t^k] = k t^(i+k) - delta(i,-k) binom(i+1,2) N C
        for n in (1, 2):
            diag = range(1, n + 1)
            for i in range(-3, 4):
                for k in range(-3, 4):
                    a = FallingElement(n, {Monomial(i, 1, p, p): 1 for p in diag})
                    b = FallingElement(n, {Monomial(k, 0, p, p): 1 for p in diag})
                    terms = (
                        {Monomial(i + k, 0, p, p): Fraction(k) for p in diag} if k else {}
                    )
                    central = -gen_binomial(i + 1, 2) * n if i == -k else 0
                    assert bracket_falling_direct(a, b) == FallingElement(n, terms, central)

    def test_euler_operator_eigenvalue(self):
        # [D, t^i [D]_j] = i t^i [D]_j
        d = FallingElement(1, {Monomial(0, 1, 1, 1): 1})
        for i in range(-3, 4):
            for j in range(4):
                x = FallingElement(1, {Monomial(i, j, 1, 1): 1})
                assert bracket_falling_direct(d, x) == i * x

    def test_self_bracket_vanishes(self):
        rng = random.Random(47)
        for _ in range(50):
            f = sample_falling_element(rng, 2, 3, 3, allow_central=True)
            assert not bracket_falling_direct(f, f)

    def test_agrees_with_power_basis_path(self):
        rng = random.Random(53)
        for _ in range(150):
            n = rng.choice((1, 2))
            fa = sample_falling_element(rng, n, 3, 3, allow_central=True)
            fb = sample_falling_element(rng, n, 3, 3, allow_central=True)
            via = to_falling(central_bracket(from_falling(fa), from_falling(fb)))
            assert bracket_falling_direct(fa, fb) == via


class TestGradation:
    def test_degree_formula(self):
        assert degree(Monomial(1, 3, 1, 2), 2) == 1
        assert degree(Monomial(4, 0, 1, 1), 3) == 12

    def test_central_sits_in_degree_zero(self):
        c = AlgebraElement(2, (), 1)
        comps = homogeneous_components(c)
        assert list(comps) == [0]
        assert comps[0].central == 1

    def test_components_partition(self):
        rng = random.Random(59)
        for _ in range(50):
            a = sample_element(rng, 2, 3, 3, allow_central=True)
            comps = homogeneous_components(a)
            total = AlgebraElement.zero(2)
            for d, comp in comps.items():
                for mono in comp.terms:
                    assert degree(mono, 2) == d
                total = total + comp
            assert total == a

    def test_zero_element_has_no_components(self):
        assert homogeneous_components(AlgebraElement.zero(3)) == {}

    def test_bracket_degree_additivity(self):
        rng = random.Random(61)
        for _ in range(150):
            n = rng.choice((1, 2, 3))
            ma = Monomial(rng.randint(-3, 3), rng.randint(0, 3), rng.randint(1, n), rng.randint(1, n))
            mb = Monomial(rng.randint(-3, 3), rng.randint(0, 3), rng.randint(1, n), rng.randint(1, n))
            br = central_bracket(AlgebraElement(n, {ma: 1}), AlgebraElement(n, {mb: 1}))
            for d in homogeneous_components(br):
                assert d == degree(ma, n) + degree(mb, n)


class TestSigma:
    def test_spot_values(self):
        assert sigma(T1) == -T1
        assert sigma(D1) == D1
        e12 = AlgebraElement.term(2, 0, 0, 1, 2)
        e21 = AlgebraElement.term(2, 0, 0, 2, 1)
        assert sigma(e12) == -e21

    def test_identity_maps_to_minus_identity(self):
        for n in (1, 2, 3):
            ident = embed_scalar(0, 0, n)
            assert sigma(ident) == -ident

    def test_involution_and_homomorphism(self):
        rng = random.Random(67)
        for _ in range(150):
            n = rng.choice((1, 2))
            a = sample_element(rng, n, 3, 3)
            b = sample_element(rng, n, 3, 3)
            assert sigma(sigma(a)) == a
            assert sigma(plain_bracket(a, b)) == plain_bracket(sigma(a), sigma(b))

    def test_rejects_central_part(self):
        with pytest.raises(ValueError):
            sigma(AlgebraElement(1, (), 1))


class TestEmbedScalar:
    def test_definition(self):
        expected = el(2, {Monomial(1, 0, 1, 1): 1, Monomial(1, 0, 2, 2): 1})
        assert embed_scalar(1, 0, 2) == expected

    def test_t_is_homogeneous_of_degree_rank(self):
        for n in (1, 2, 3):
            comps = homogeneous_components(embed_scalar(1, 0, n))
            assert list(comps) == [n]

    def test_matrix_unit_bracket_identity(self):
        # [D E[p,q], t E[p',q']] expands into t, tD words with unit signs.
        for n in (1, 2, 3):
            for p in range(1, n + 1):
                for q in range(1, n + 1):
                    for pp in range(1, n + 1):
                        for qq in range(1, n + 1):
                            a = AlgebraElement.term(n, 0, 1, p, q)
                            b = AlgebraElement.term(n, 1, 0, pp, qq)
                            rhs_terms = {}
                            if q == pp:
                                for key in (Monomial(1, 0, p, qq), Monomial(1, 1, p, qq)):
                                    rhs_terms[key] = rhs_terms.get(key, 0) + 1
                            if qq == p:
                                key = Monomial(1, 1, pp, q)
                                rhs_terms[key] = rhs_terms.get(key, 0) - 1
                            assert central_bracket(a, b) == AlgebraElement(n, rhs_terms)


class TestElementBasics:
    def test_zero_coefficients_dropped(self):
        assert not AlgebraElement(1, {Monomial(0, 0, 1, 1): 0})

    def test_monomial_validation(self):
        with pytest.raises(ValueError):
            AlgebraElement(1, {Monomial(0, -1, 1, 1): 1})
        with pytest.raises(DimensionError):
            AlgebraElement(1, {Monomial(0, 0, 1, 2): 1})
        # C is stored as the row of the key (0, 0, 0), but a word with p = q = 0 is no C.
        for word in (Monomial(0, 0, 0, 0), (0, 0, 0, 0)):
            with pytest.raises(DimensionError):
                FallingElement(2, {word: 1})

    @pytest.mark.parametrize("cls", (AlgebraElement, FallingElement))
    @pytest.mark.parametrize(
        "word",
        [
            (1.5, 0, 1, 1),
            (1, 1.0, 1, 1),
            (0, 0.5, 1, 1),
            Monomial(0, 1, Fraction(1), 1),
            (0, 1, 1, True),
            (0, "1", 1, 1),
        ],
    )
    def test_non_int_indices_refused(self, cls, word):
        # Every stored row key is an int triple, as tests/row_store.py expects.
        with pytest.raises(TypeError, match="must be ints"):
            cls(2, {word: 1})
        with pytest.raises(TypeError, match="must be ints"):
            cls.term(2, *word)

    @pytest.mark.parametrize("cls", (AlgebraElement, FallingElement))
    @pytest.mark.parametrize("rank", (0, "1", 1.0, True))
    def test_rank_must_be_a_positive_int(self, cls, rank):
        with pytest.raises(DimensionError):
            cls(rank, {Monomial(0, 1, 1, 1): 1})

    def test_sum_across_ranks_refused(self):
        for combine in (AlgebraElement.__add__, AlgebraElement.__sub__):
            with pytest.raises(DimensionError):
                combine(AlgebraElement.term(1, 0, 1, 1, 1), AlgebraElement.term(2, 0, 1, 1, 1))

    def test_operations_refuse_the_other_element_class(self):
        a, f = T1, FallingElement.term(1, 1, 0, 1, 1)
        v = ModuleVector.basis(ModuleParams.formal(Family.V, 1), 0, 1)
        calls = [
            lambda: cocycle_psi(f, f),
            lambda: cocycle_psi(a, f),
            lambda: to_falling(f),
            lambda: from_falling(a),
            lambda: sigma(f),
            lambda: homogeneous_components(f),
            lambda: homogeneous_components(v),
            lambda: act(f, v),
            lambda: a + 1,
            lambda: a - f,
            lambda: v + a,
        ]
        for call in calls:
            with pytest.raises(TypeError):
                call()

    def test_repr_names_the_rank_terms_and_central(self):
        e = AlgebraElement(2, {Monomial(-1, 2, 1, 2): Fraction(1, 3)}, 5)
        assert repr(e) == (
            "AlgebraElement(rank=2, terms=[(Monomial(i=-1, j=2, p=1, q=2), Fraction(1, 3))], "
            "central=Fraction(5, 1))"
        )
        assert repr(FallingElement(1)) == "FallingElement(rank=1, terms=[], central=Fraction(0, 1))"

    def test_many_coprime_denominators_at_a_high_d_power(self):
        # 300 terms 1/p t^k D^1200 over distinct primes p, each key twice: the constructor
        # writes each pair once over the lcm of all the denominators, in either order.
        primes = [p for p in range(2, 2000) if all(p % d for d in range(2, int(p**0.5) + 1))][:300]
        pairs = [(Monomial(k % 150, 1200, 1, 1), Fraction(1, p)) for k, p in enumerate(primes)]
        expected = {}
        for mono, c in pairs:
            expected[mono] = expected.get(mono, 0) + c
        for order in (pairs, pairs[::-1]):
            e = AlgebraElement(1, order, Fraction(1, 2003))
            assert e.terms == expected and e.central == Fraction(1, 2003)
            assert e.den == 2003 * math.prod(primes)

    def test_no_terms_is_zero(self):
        assert AlgebraElement(2, None) == AlgebraElement(2) == AlgebraElement.zero(2)
        assert AlgebraElement(2, None, 3) == AlgebraElement(2, (), 3)

    def test_central_part_is_one_more_term(self, monkeypatch):
        # C is read by the constructor's one loop, so an element is normalised once.
        calls = []

        def counted(rows, den):
            calls.append(den)
            return original(rows, den)

        original = exact._reduced_rows
        monkeypatch.setattr(exact, "_reduced_rows", counted)
        e = AlgebraElement(1, [((0, 1, 1, 1), Fraction(1, 2))], Fraction(1, 3))
        assert len(calls) == 1
        assert e.terms == {Monomial(0, 1, 1, 1): Fraction(1, 2)}
        assert e.central == Fraction(1, 3) and e.den == 6

    @pytest.mark.parametrize("cls", (AlgebraElement, FallingElement))
    @pytest.mark.parametrize("bad", (0.1, 0.5, "1/3"))
    def test_inexact_scalars_refused(self, cls, bad):
        with pytest.raises(TypeError):
            cls(1, {Monomial(0, 0, 1, 1): bad})
        with pytest.raises(TypeError):
            cls(1, {}, central=bad)

    @pytest.mark.parametrize("cls", (AlgebraElement, FallingElement))
    def test_int_and_fraction_scalars_accepted(self, cls):
        e = cls(1, {Monomial(0, 0, 1, 1): 2, Monomial(1, 0, 1, 1): Fraction(1, 3)}, central=-1)
        assert e.terms == {Monomial(0, 0, 1, 1): 2, Monomial(1, 0, 1, 1): Fraction(1, 3)}
        assert all(type(c) is Fraction for c in e.terms.values())
        assert e.central == -1 and type(e.central) is Fraction
        assert cls(1, {}, central=Fraction(1, 3)).central == Fraction(1, 3)

    def test_power_and_falling_elements_never_equal(self):
        a = AlgebraElement.term(1, 0, 1, 1, 1)
        f = FallingElement.term(1, 0, 1, 1, 1)
        assert (a == f) is False
