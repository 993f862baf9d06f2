"""Surface syntax: parsing, printing, round-trips, JSON forms."""

import random
import sys
from fractions import Fraction

import pytest

from mdop.algebra import AlgebraElement, FallingElement, Monomial, from_falling, to_falling
from mdop.exact import Poly
from mdop.expr import (
    MAX_D_POWER,
    MAX_T_POWER,
    ParseError,
    element_to_json,
    falling_element_to_json,
    format_element,
    format_falling_element,
    format_module_vector,
    format_poly,
    module_vector_to_json,
    digit_limit,
    parse_element,
    parse_module_vector,
    parse_number,
)
from mdop.reps import Family, ModuleParams, ModuleVector
from mdop.verify import (
    sample_element,
    sample_falling_element,
    sample_module_vector,
)

X = Poly.var()


class TestParseElement:
    def test_full_term_with_central(self):
        e = parse_element("3/2 * t^-2 D^3 E[1,2] + C", 2)
        assert e == AlgebraElement(2, {Monomial(-2, 3, 1, 2): Fraction(3, 2)}, 1)

    def test_falling_atom_expands_on_entry(self):
        e = parse_element("FD^2 E[1,1]", 1)
        assert e == AlgebraElement(1, {Monomial(0, 2, 1, 1): 1, Monomial(0, 1, 1, 1): -1})

    def test_out_of_range_matrix_index(self):
        with pytest.raises(ParseError, match="out of range"):
            parse_element("E[3,1]", 2)

    def test_scalar_embedding_sugar(self):
        assert parse_element("t", 2) == AlgebraElement(
            2, {Monomial(1, 0, 1, 1): 1, Monomial(1, 0, 2, 2): 1}
        )

    def test_bare_rational_is_identity_multiple(self):
        assert parse_element("3/2", 1) == AlgebraElement(
            1, {Monomial(0, 0, 1, 1): Fraction(3, 2)}
        )

    def test_zero(self):
        assert not parse_element("0", 1)
        assert format_element(AlgebraElement.zero(1)) == "0"

    def test_signs_and_merging(self):
        e = parse_element("t - t + 2 D", 1)
        assert e == AlgebraElement(1, {Monomial(0, 1, 1, 1): 2})

    def test_star_is_optional(self):
        assert parse_element("2*t*D", 1) == parse_element("2 t D", 1)

    def test_repeated_atoms_accumulate_exponents(self):
        assert parse_element("t t D D", 1) == parse_element("t^2 D^2", 1)

    def test_negative_d_power_rejected(self):
        with pytest.raises(ParseError, match="nonnegative"):
            parse_element("D^-1", 1)

    def test_d_power_limit(self):
        # D and FD atoms of one term count together.
        assert MAX_D_POWER >= 1200
        top = MAX_D_POWER
        assert parse_element(f"t D^{top}", 1) == AlgebraElement.term(1, 1, top, 1, 1)
        for text in (f"D^{top + 1}", f"FD^{top + 1}", f"D^{top} D", f"FD^{top} D",
                     "D^600 t D^601", "D^20000", "FD^20000"):
            with pytest.raises(ParseError, match=f"D power of a term above the limit {top}"):
                parse_element(text, 1)

    def test_t_power_limit(self):
        # The t power of the whole term counts, whichever atoms make it up.
        top = MAX_T_POWER
        assert top >= 1200
        for i in (top, -top):
            assert parse_element(f"t^{i} D", 1) == AlgebraElement.term(1, i, 1, 1, 1)
        assert parse_element(f"t^{top + 1} t^-1", 1) == AlgebraElement.term(1, top, 0, 1, 1)
        for text in (f"t^{top + 1}", f"t^-{top + 1} D", f"t^{top} t", f"D + 2 t^{top} t^{top}"):
            with pytest.raises(ParseError, match=f"t power of a term above the limit {top}"):
                parse_element(text, 1)
        with pytest.raises(ParseError) as info:
            parse_element(f"D + 2 t^{top} t", 1)
        assert info.value.position == 4

    def test_literal_past_the_digit_cap(self):
        # Each place an integer is read: a coefficient, a denominator, an
        # exponent, a matrix index and a vector slot.
        cap = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            big = "7" * 641
            params = ModuleParams.formal(Family.V, 1)
            for text, column, parse in (
                (f"t + {big} D", 5, lambda t: parse_element(t, 2)),
                (f"t + 1/{big}", 7, lambda t: parse_element(t, 2)),
                (f"D t^-{big}", 6, lambda t: parse_element(t, 2)),
                (f"E[1,{big}]", 5, lambda t: parse_element(t, 2)),
                (f"({big}a + 1) v[0,1]", 2, lambda t: parse_module_vector(t, params)),
                (f"v[{big},1]", 3, lambda t: parse_module_vector(t, params)),
            ):
                with pytest.raises(ParseError) as info:
                    parse(text)
                message = str(info.value)
                assert info.value.position == column - 1
                assert message == (
                    f"integer literal of 641 digits exceeds the digit limit 640 (column {column})"
                )
                assert "sys." not in message
            assert parse_element("7" * 640, 1) == AlgebraElement.term(1, 0, 0, 1, 1, int("7" * 640))
        finally:
            sys.set_int_max_str_digits(cap)

    def test_literal_past_the_default_limit_without_a_cap(self):
        # With the interpreter's cap off, every place an integer is read keeps
        # CPython's default limit of 4300 digits, as --lambda does.
        cap = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            big = "7" * 4301
            params = ModuleParams.formal(Family.V, 1)
            for text, column, parse in (
                (f"t + {big} D", 5, lambda t: parse_element(t, 2)),
                (f"t + 1/{big}", 7, lambda t: parse_element(t, 2)),
                (f"D t^-{big}", 6, lambda t: parse_element(t, 2)),
                (f"E[1,{big}]", 5, lambda t: parse_element(t, 2)),
                (f"({big}a + 1) v[0,1]", 2, lambda t: parse_module_vector(t, params)),
                (f"v[{big},1]", 3, lambda t: parse_module_vector(t, params)),
            ):
                with pytest.raises(ParseError) as info:
                    parse(text)
                assert str(info.value) == (
                    f"integer literal of 4301 digits exceeds the digit limit 4300 (column {column})"
                )
            assert parse_element(big[1:], 1) == AlgebraElement.term(1, 0, 0, 1, 1, int(big[1:]))
        finally:
            sys.set_int_max_str_digits(cap)

    def test_central_cannot_mix(self):
        # Refused at the column of the atom that meets C, a second C included.
        cases = {"t C": 3, "C C": 3, "2 C*C": 5, "t^0 C": 5, "D^0 C": 5, "C t^0": 3}
        for text, column in cases.items():
            with pytest.raises(ParseError, match="cannot be combined") as info:
                parse_element(text, 1)
            assert info.value.position == column - 1, text

    def test_error_reports_position(self):
        with pytest.raises(ParseError) as info:
            parse_element("t + ?", 1)
        assert info.value.position == 4
        assert "column 5" in str(info.value)

    def test_unknown_atom_message(self):
        with pytest.raises(ParseError, match="unknown atom 'tD'"):
            parse_element("tD", 1)

    def test_zero_denominator(self):
        with pytest.raises(ParseError, match="zero denominator"):
            parse_element("1/0 t", 1)

    def test_trailing_garbage(self):
        with pytest.raises(ParseError, match="end of input"):
            parse_element("t ]", 1)


class TestParseVector:
    def test_plain_slot(self):
        params = ModuleParams.formal(Family.V, 2)
        v = parse_module_vector("v[3,2]", params)
        assert v == ModuleVector.basis(params, 3, 2)

    def test_poly_coefficients(self):
        params = ModuleParams.formal(Family.V, 1)
        v = parse_module_vector("(a^2 - 1/2)*v[0,1] - a v[2,1]", params)
        assert v == ModuleVector(
            params, {(0, 1, 1): X * X - Fraction(1, 2), (2, 1, 1): -X}
        )

    def test_jordan_slot(self):
        params = ModuleParams.formal(Family.V, 1, 3)
        v = parse_module_vector("v[0,1,3]", params)
        assert v == ModuleVector.basis(params, 0, 1, 3)

    def test_slot_range_errors(self):
        params = ModuleParams.formal(Family.V, 2)
        with pytest.raises(ParseError, match="out of range"):
            parse_module_vector("v[0,3]", params)
        with pytest.raises(ParseError, match="Jordan slot"):
            parse_module_vector("v[0,1,2]", params)

    def test_a_is_read_only_under_a_formal_parameter(self):
        formal = ModuleParams.formal(Family.VBAR, 1)
        for params in (formal, formal.dual()):
            assert parse_module_vector("(a + 1) v[0,1]", params) == ModuleVector(
                params, {(0, 1, 1): X + 1}
            )
        for value in (0, Fraction(-1, 3)):
            special = ModuleParams.specialized(Family.VBAR, 1, 1, value)
            for params in (special, special.dual()):
                assert parse_module_vector("2/3 v[0,1]", params) == ModuleVector(
                    params, {(0, 1, 1): Fraction(2, 3)}
                )
                with pytest.raises(ParseError, match="read only when") as info:
                    parse_module_vector("v[1,1] - (2 + a^2) v[0,1]", params)
                assert info.value.position == 14
                with pytest.raises(ParseError, match="read only when"):
                    parse_module_vector("0 a", params)

    def test_zero_vector_round_trip(self):
        for family in (Family.V, Family.VBAR):
            params = ModuleParams.formal(family, 2, 2)
            zero = ModuleVector.zero(params)
            assert format_module_vector(zero) == "0"
            assert parse_module_vector("0", params) == zero
            assert parse_module_vector("-0 + v[1,2,2] - v[1,2,2]", params) == zero
            assert parse_module_vector("0 + a v[1,2]", params) == ModuleVector(
                params, {(1, 2, 1): X}
            )
        with pytest.raises(ParseError, match="module-vector atom"):
            parse_module_vector("2", params)


class TestParseNumber:
    """The reader of a number given alone, as every int flag and --lambda of the CLI."""

    @pytest.mark.parametrize(
        "text,value", [("7", 7), ("-3", -3), ("+12", 12), (" 0 ", 0), ("- 5", -5)]
    )
    def test_an_integer(self, text, value):
        assert parse_number(text) == value
        assert type(parse_number(text)) is int

    @pytest.mark.parametrize(
        "text,value",
        [("3/2", Fraction(3, 2)), ("-1/3", Fraction(-1, 3)), ("+4/6", Fraction(2, 3)),
         ("5", Fraction(5)), (" -2 / 7 ", Fraction(-2, 7))],
    )
    def test_a_rational(self, text, value):
        assert parse_number(text, rational=True) == value
        assert type(parse_number(text, rational=True)) is Fraction

    @pytest.mark.parametrize(
        "text,rational,message,position",
        [
            ("", False, "expected an integer", 0),
            ("x", True, "expected a rational", 0),
            ("3/2", False, "expected end of input", 1),
            ("1/0", True, "zero denominator", 2),
            ("1/", True, "expected a denominator", 2),
            ("1.5", True, "unexpected character '.'", 1),
            ("1e3", True, "expected end of input", 1),
            ("1_0", False, "unexpected character '_'", 1),
            ("٢", False, "unexpected character '٢'", 0),
            ("1,2", False, "expected end of input", 1),
            ("--1", False, "expected an integer", 1),
        ],
    )
    def test_a_refusal_keeps_its_message_apart_from_its_column(
        self, text, rational, message, position
    ):
        with pytest.raises(ParseError) as info:
            parse_number(text, rational)
        assert (info.value.message, info.value.position) == (message, position)
        assert str(info.value) == f"{message} (column {position + 1})"

    @pytest.mark.parametrize("text", ["{}", "-{}", "1/{}", "{}/7", "1 {}"])
    def test_a_run_past_the_digit_limit_is_refused_and_not_echoed(self, text):
        long = "9" * (digit_limit() + 1)
        with pytest.raises(ParseError) as info:
            parse_number(text.format(long), rational=True)
        assert long not in str(info.value)

    def test_a_run_at_the_digit_limit_is_read(self):
        assert parse_number("9" * digit_limit()) == int("9" * digit_limit())


class TestRoundTrip:
    def test_element_corpus(self):
        rng = random.Random(2026)
        count = 0
        for n in (1, 2, 3):
            for _ in range(40):
                e = sample_element(rng, n, 4, 4, allow_central=True)
                assert parse_element(format_element(e), n) == e
                count += 1
        assert count >= 100

    def test_falling_corpus(self):
        rng = random.Random(2027)
        for n in (1, 2):
            for _ in range(30):
                f = sample_falling_element(rng, n, 4, 4, allow_central=True)
                assert parse_element(format_falling_element(f), n) == from_falling(f)
                # The class picks the notation: either name prints f with FD, and e with D.
                e = from_falling(f)
                assert format_element(f) == format_falling_element(f)
                assert format_falling_element(e) == format_element(e)
                assert parse_element(format_element(f), n) == e
                assert parse_element(format_element(to_falling(e)), n) == e

    def test_vector_corpus(self):
        rng = random.Random(2028)
        for family in (Family.V, Family.VBAR):
            for m in (1, 2):
                params = ModuleParams.formal(family, 2, m)
                for _ in range(25):
                    v = sample_module_vector(rng, params, 4)
                    assert parse_module_vector(format_module_vector(v), params) == v

    def test_edge_expressions(self):
        for n, text in [
            (1, "0"),
            (1, "C"),
            (1, "-C"),
            (2, "3/2"),
            (2, "t^-4 D^2 E[2,1]"),
            (1, "t^-1 + C"),
            (3, "E[3,3] - E[1,2]"),
        ]:
            e = parse_element(text, n)
            assert parse_element(format_element(e), n) == e


class TestPrinting:
    def test_rank_one_omits_matrix_atom(self):
        e = AlgebraElement.term(1, 1, 1, 1, 1, coeff=Fraction(-3, 2))
        assert format_element(e) == "-3/2 t D"

    def test_rank_two_keeps_matrix_atom(self):
        e = AlgebraElement.term(2, 0, 0, 1, 2)
        assert format_element(e) == "E[1,2]"

    def test_term_order_is_lexicographic(self):
        e = AlgebraElement(
            1, {Monomial(1, 0, 1, 1): 1, Monomial(-1, 2, 1, 1): 1, Monomial(1, 1, 1, 1): 1}
        )
        assert format_element(e) == "t^-1 D^2 + t + t D"

    def test_central_is_last(self):
        e = AlgebraElement(1, {Monomial(0, 1, 1, 1): 1}, Fraction(-1, 3))
        assert format_element(e) == "D - 1/3 C"

    def test_poly_formatting(self):
        assert format_poly(Poly(())) == "0"
        assert format_poly(X * X - X + 1) == "a^2 - a + 1"
        assert format_poly(2 * X) == "2a"
        assert format_poly(Poly.const(Fraction(-3, 4))) == "-3/4"

    def test_vector_formatting(self):
        params = ModuleParams.formal(Family.V, 2)
        v = ModuleVector(params, {(0, 1, 1): X + 1, (1, 2, 1): Fraction(-1, 2)})
        assert format_module_vector(v) == "(a + 1)*v[0,1] - 1/2*v[1,2]"
        assert format_module_vector(ModuleVector.zero(params)) == "0"


class TestJson:
    def test_element_schema(self):
        e = parse_element("3/2 t^-2 D^3 E[1,2] + C", 2)
        assert element_to_json(e) == {
            "n": 2,
            "central": "1",
            "terms": [{"i": -2, "j": 3, "p": 1, "q": 2, "coeff": "3/2"}],
        }

    def test_terms_sorted(self):
        e = AlgebraElement(1, {Monomial(1, 0, 1, 1): 2, Monomial(0, 1, 1, 1): 1})
        data = element_to_json(e)
        assert [(t["i"], t["j"]) for t in data["terms"]] == [(0, 1), (1, 0)]

    def test_falling_marker(self):
        f = FallingElement.term(1, 0, 2, 1, 1)
        assert falling_element_to_json(f)["basis"] == "falling"
        assert element_to_json(f)["basis"] == "falling"
        assert list(element_to_json(f))[-1] == "basis"
        assert "basis" not in element_to_json(from_falling(f))
        assert "basis" not in falling_element_to_json(from_falling(f))

    def test_vector_schema(self):
        params = ModuleParams.formal(Family.V, 2)
        v = ModuleVector(params, {(0, 1, 1): X + 1})
        assert module_vector_to_json(v) == {
            "family": "V",
            "n": 2,
            "m": 1,
            "lambda": "formal",
            "entries": [{"k": 0, "r": 1, "s": 1, "coeff": ["1", "1"]}],
        }

    def test_specialized_lambda(self):
        params = ModuleParams.specialized(Family.VBAR, 1, 1, Fraction(3, 2))
        v = ModuleVector.basis(params, 0, 1)
        assert module_vector_to_json(v)["lambda"] == "3/2"
