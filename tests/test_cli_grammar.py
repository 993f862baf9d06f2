"""A grammar smoke of the CLI front door.

Each kernel subcommand runs in-process on arguments drawn from the grammar of
mdop.expr: terms and vector terms whose exponents are small (at most 20) or
past their MAX_* limit, so that those are refused before any kernel work;
malformed tokens and stray Unicode; and values of --n, --m, --family,
--format, --lambda and --to, valid or not.  Every call must exit 0 or 2 with at most
one line on stderr and never a traceback.  A parse refusal must be the
ParseError's own text, which names a column, opened in a two-operand command
by the name of the operand it is in.  verify is left out: its --samples has no
limit yet.
"""

import contextlib
import io
import json
import re
import time
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from mdop import cli, expr
from mdop.expr import MAX_A_DEGREE, MAX_D_POWER, MAX_T_POWER

SMALL = 20

# The operands of each subcommand: their kind, and the names a refusal opens with.
OPERANDS = {
    "bracket": (("element", "element"), ("EXPR 1: ", "EXPR 2: ")),
    "product": (("element", "element"), ("EXPR 1: ", "EXPR 2: ")),
    "cocycle": (("element", "element"), ("EXPR 1: ", "EXPR 2: ")),
    "sigma": (("element",), ("",)),
    "degree": (("element",), ("",)),
    "convert": (("element",), ("",)),
    "act": (("element", "vector"), ("EXPR: ", "VECTOR: ")),
    "pair": (("vector", "vector"), ("VBAR_VECTOR: ", "V_VECTOR: ")),
}


def exponents(top: int, signed: bool = False, small: int = SMALL):
    """An exponent from 0 (or -small) to small, or one of a few past the limit top."""
    past = [top + 1, 10 * top, 10**30] + ([-top - 1, -(10**30)] if signed else [])
    return st.sampled_from(list(range(-small if signed else 0, small + 1)) + past)


def indices(top: int):
    """An index from 1 to top, or now and then 0 or top + 1."""
    return st.sampled_from([0, top + 1] + list(range(1, top + 1)) * 6)


def _power(symbol: str, exponent: int) -> str:
    return symbol if exponent == 1 else f"{symbol}^{exponent}"


rationals = st.builds(
    lambda num, den: str(num) if den is None else f"{num}/{den}",
    st.integers(0, 99),
    st.none() | st.integers(0, 9),
)
joiners = st.sampled_from([" ", "*", " * ", ""])


@st.composite
def terms(draw, factor):
    """[rational] factor*, with a coefficient where no factor is drawn."""
    factors = draw(st.lists(factor, max_size=3))
    parts = [draw(rationals)] if not factors or draw(st.booleans()) else []
    return draw(joiners).join(parts + factors)


@st.composite
def signed_sums(draw, term, max_size=3):
    """['-'] term (('+' | '-') term)*, with the spacing drawn too."""
    pieces = draw(st.lists(term, min_size=1, max_size=max_size))
    text = draw(st.sampled_from(["", "-", "- "])) + pieces[0]
    for piece in pieces[1:]:
        text += draw(st.sampled_from([" + ", " - ", "+", "-"])) + piece
    return text


def elements(rank: int):
    t_powers, d_powers = exponents(MAX_T_POWER, signed=True), exponents(MAX_D_POWER)
    atoms = st.one_of(
        t_powers.map(lambda e: _power("t", e)),
        d_powers.map(lambda e: _power("D", e)),
        d_powers.map(lambda e: _power("FD", e)),
        st.builds("E[{},{}]".format, indices(rank), indices(rank)),
        st.just("C"),
    )
    return signed_sums(terms(atoms))


# Small powers of a stay low, so that a product of factors is often under the limit.
pterms = terms(exponents(MAX_A_DEGREE, small=4).map(lambda e: _power("a", e)))
factors = pterms | signed_sums(pterms).map("({})".format)


def vectors(rank: int, m: int):
    def vector_term(coefficient, k, r, s, with_slot):
        slot = f"v[{k},{r}]" if m == 1 and s == 1 else f"v[{k},{r},{s}]"
        # A zero coefficient may stand without a slot.
        return f"{' '.join(coefficient)} {slot if with_slot else ''}".strip() or "0"

    shifts = exponents(MAX_T_POWER, True)
    coefficients = st.lists(factors, max_size=2)
    slotted = st.integers(0, 9).map(bool)
    term = st.builds(vector_term, coefficients, shifts, indices(rank), indices(m), slotted)
    return signed_sums(term)


# Stray characters: grammar characters out of place, punctuation, and Unicode letters,
# digits and spaces ('٣' is read as a digit by \d, '²' is not).
STRAY = "+-*/^,[]()tDEFCva0!#$%&.;:'\"?<>{}|~_=éΩ٣²\u00a0\u3000\u200b"


@st.composite
def mangled(draw, text):
    """text, or now and then text with a character inserted, dropped or replaced."""
    text = draw(text)
    edit = draw(st.sampled_from(["keep"] * 8 + ["insert", "drop", "replace"]))
    if edit == "keep" or not text and edit != "insert":
        return text
    at = draw(st.integers(0, len(text) - (edit != "insert")))
    stray = "" if edit == "drop" else draw(st.sampled_from(STRAY) | st.characters())
    return text[:at] + stray + text[at + (edit != "insert"):]


OPERAND_TEXTS = {
    (kind, rank, m): mangled(elements(rank) if kind == "element" else vectors(rank, m))
    for kind in ("element", "vector")
    for rank in (1, 2, 3)
    for m in (1, 2, 3)
}
# Each flag's values: those accepted first, then those refused.
FLAG_VALUES = {
    "--n": (["1", "2", "3"], ["0", "17", "x"]),
    "--format": (["text", "json"], ["xml"]),
    "--m": (["1", "2", "3"], ["0", "17", "2.0"]),
    "--family": (["V", "Vbar"], ["W"]),
    "--lambda": (["formal", "0", "3/2", "-1/3", "22/7"], ["x", "1/0", "1e999999", "9" * 5000]),
    "--to": (["falling", "power"], ["x"]),
}
COMMAND_FLAGS = {
    "convert": ("--n", "--format", "--to"),
    "act": ("--n", "--format", "--m", "--family", "--lambda"),
    "pair": ("--n", "--format", "--lambda"),
}


@st.composite
def calls(draw, command):
    """(argv, the operand texts) of one call of command: now and then one flag holds a
    value that is refused, and each operand may be mangled."""
    flags = COMMAND_FLAGS.get(command, ("--n", "--format"))
    refused = draw(st.sampled_from(flags + (None,) * 2 * len(flags)))
    values = {}
    for flag in flags:
        accepted, refusals = FLAG_VALUES[flag]
        values[flag] = draw(st.sampled_from(refusals if flag == refused else accepted))
    argv = [command] + [f"{flag}={value}" for flag, value in values.items()]
    # Operands are drawn for the rank and Jordan size asked for, or for 1 where refused.
    rank, m = (int(values.get(f, "1")) if values.get(f) in FLAG_VALUES["--n"][0] else 1
               for f in ("--n", "--m"))
    kinds, _ = OPERANDS[command]
    operands = [draw(OPERAND_TEXTS[kind, rank, m]) for kind in kinds]
    return argv + ["--"] + operands, operands


def run(argv):
    """Exit code, stdout and stderr of one in-process call, and the ParseErrors
    the operand parsers raised in it, as (operand text, message, position)."""
    raised = []

    def recording(parse):
        def parse_and_record(text, context):
            try:
                return parse(text, context)
            except expr.ParseError as exc:
                raised.append((text, str(exc), exc.position))
                raise

        return parse_and_record

    out, err = io.StringIO(), io.StringIO()
    with contextlib.ExitStack() as stack:
        for name in ("parse_element", "parse_module_vector"):
            stack.enter_context(mock.patch.object(expr, name, recording(getattr(expr, name))))
        stack.enter_context(contextlib.redirect_stdout(out))
        stack.enter_context(contextlib.redirect_stderr(err))
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue(), raised


@pytest.mark.parametrize("command", sorted(OPERANDS))
@settings(deadline=None, derandomize=True, max_examples=80)
@given(data=st.data())
def test_a_call_exits_0_or_2_with_one_line_that_names_what_it_refuses(command, data):
    argv, operands = data.draw(calls(command))
    start = time.perf_counter()
    code, out, err, raised = run(argv)
    assert time.perf_counter() - start < 5, argv
    assert code in (0, 2), (argv, err)
    assert "Traceback" not in err
    if code == 0:
        assert err == "" and out.endswith("\n")
        if "--format=json" in argv:
            json.loads(out)
        return
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1, (argv, err)
    if not raised:  # only a parse refusal names a column
        assert not re.search(r"\(column \d+\)$", err), (argv, err)
        return
    ((text, message, position),) = raised
    assert message.endswith(f" (column {position + 1})")
    name = OPERANDS[command][1][operands.index(text)]
    assert err == f"error: {name}{message}\n"
