"""Surface syntax: tokenizer, parsers and printers for operator expressions
and module vectors, plus their JSON forms.

Grammar (whitespace-insensitive, '*' optional everywhere it appears):

    element  := ['-'] term (('+' | '-') term)*
    term     := [rational] atom*            -- coefficient or at least one atom
    atom     := 't' ['^' int] | 'D' ['^' nat] | 'FD' ['^' nat]
              | 'E' '[' p ',' q ']' | 'C'
    vector   := ['-'] vterm (('+' | '-') vterm)*
    vterm    := factor* 'v' '[' k ',' r [',' s] ']' | zero-valued factor+
    factor   := '(' polysum ')' | pterm
    polysum  := ['-'] pterm (('+' | '-') pterm)*
    pterm    := [rational] ['a' ['^' nat]]  -- a rational or 'a' at least
    rational := int ['/' int]

A term without an E atom means the same word on every diagonal matrix
slot (the scalar embedding).  FD is the falling power [D]_j and is
rewritten into the power basis on entry.  C is the central generator and
cannot be combined with other atoms.  A vterm's coefficient, the product
of its factors, has degree at most MAX_A_DEGREE in the formal parameter
'a', read only when the module's parameter is formal; when it is zero,
the slot may be omitted, so the zero vector, printed as 0, parses back.
"""

from __future__ import annotations

import math
import re
import sys
from fractions import Fraction
from typing import TYPE_CHECKING, NamedTuple

from .algebra import _C, AlgebraElement, FallingElement, Monomial, _words
from .exact import Poly, falling_to_power_coeffs

if TYPE_CHECKING:  # reps is imported where a vector is parsed
    from .reps import ModuleParams, ModuleVector

# The highest power of D one term may carry, D and FD atoms counted
# together.  The cost of a product, bracket or basis change grows with it;
# README "Resource limits" gives the measured cost of calls at the limit.
MAX_D_POWER = 1200

# The highest matrix rank of every subcommand.  verify's exhaustive matrix-unit
# check grows fastest with it; README "Resource limits" gives the cost at the limit.
MAX_RANK = 16

# The highest |t power| of one term.  A cocycle or bracket of two words
# whose t powers cancel costs in proportion to that power; README
# "Resource limits" gives the measured cost at the limit.
MAX_T_POWER = 1200

# The highest degree in a of one vector coefficient, the product of its factors.
# act multiplies each coefficient into every band row of its slot, so its cost
# grows with this degree; README "Resource limits" gives the cost at the limit.
# The grade shift k of a slot v[k,r] is bounded by MAX_T_POWER: a slot shift
# and a t power move along the same grading.
MAX_A_DEGREE = 16

# The largest Jordan block size (act's --m, every entry of verify's --m),
# verify's largest --i-bound and --j-bound, and its most --samples, the draws
# of every randomized check.  vector_field_bracket walks (2 i + 1)^2 word pairs
# and associativity multiplies D powers up to j; README "Resource limits" gives
# the cost at the limits.
MAX_JORDAN = 16
MAX_I_BOUND = 12
MAX_J_BOUND = 12
MAX_SAMPLES = 1000


def digit_limit() -> int:
    """The most digits an integer read from text may have, in a literal or in a
    flag: the interpreter's cap, or CPython's default 4300 where it sets none."""
    return getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300


class ParseError(ValueError):
    """Syntax or range error in a surface expression: its message, then its column."""

    def __init__(self, message: str, position: int):
        self.message, self.position = message, position
        super().__init__(f"{message} (column {position + 1})")


class Token(NamedTuple):
    kind: str  # "INT", "NAME", "OP", "END"
    text: str
    pos: int


# Whitespace, then a token; BAD is a character that starts no token.
_TOKEN_RE = re.compile(
    r"\s*(?:(?P<INT>[0-9]+)|(?P<NAME>[A-Za-z]+)|(?P<OP>[-+*/^,\[\]()])|(?P<BAD>\S))"
)


def _tokenize(text: str) -> list[Token]:
    tokens = []
    # Trailing whitespace is left out: a match tried in it scans to the end, at each character.
    for match in _TOKEN_RE.finditer(text, 0, len(text.rstrip())):
        kind = match.lastgroup
        if kind == "BAD":
            raise ParseError(f"unexpected character {match[kind]!r}", match.start(kind))
        tokens.append(Token(kind, match[kind], match.start(kind)))
    return tokens + [Token("END", "", len(text))]


class _TokenStream:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.index = 0

    def peek(self) -> Token:
        return self.tokens[self.index]

    def advance(self) -> Token:
        tok = self.tokens[self.index]
        if tok.kind != "END":
            self.index += 1
        return tok

    def accept_op(self, ch: str) -> bool:
        tok = self.peek()
        if tok.kind == "OP" and tok.text == ch:
            self.index += 1
            return True
        return False

    def expect_op(self, ch: str) -> None:
        if not self.accept_op(ch):
            tok = self.peek()
            raise ParseError(f"expected '{ch}', found {tok.text!r}" if tok.kind != "END"
                             else f"expected '{ch}', found end of input", tok.pos)

    def expect_int(self, what: str = "an integer") -> int:
        tok = self.peek()
        if tok.kind != "INT":
            raise ParseError(f"expected {what}", tok.pos)
        limit = digit_limit()
        if len(tok.text) > limit:
            raise ParseError(
                f"integer literal of {len(tok.text)} digits exceeds the digit limit {limit}", tok.pos
            )
        self.advance()
        return int(tok.text)

    def expect_end(self) -> None:
        tok = self.peek()
        if tok.kind != "END":
            raise ParseError(f"expected '+', '-' or end of input, found {tok.text!r}", tok.pos)

    def error(self, message: str) -> None:
        raise ParseError(message, self.peek().pos)


def _parse_signed_int(ts: _TokenStream, what: str) -> int:
    negative = ts.accept_op("-")
    if not negative:
        ts.accept_op("+")
    value = ts.expect_int(what)
    return -value if negative else value


def _parse_denominator(ts: _TokenStream) -> int:
    """The int after a rational's '/', or 1 where no '/' follows."""
    if not ts.accept_op("/"):
        return 1
    pos = ts.peek().pos
    den = ts.expect_int("a denominator")
    if den == 0:
        raise ParseError("zero denominator", pos)
    return den


def _parse_coefficient(ts: _TokenStream) -> Fraction | None:
    """The optional rational that opens a term, with the '*' after it."""
    if ts.peek().kind != "INT":
        return None
    value = Fraction(ts.expect_int(), _parse_denominator(ts))
    ts.accept_op("*")
    return value


def parse_number(text: str, rational: bool = False) -> int | Fraction:
    """A number alone, as the CLI reads each one it takes: ['-'|'+'] int, or with rational
    ['-'|'+'] int ['/' int] as a Fraction, in a term's digits under the digit limit."""
    ts = _TokenStream(text)
    value = _parse_signed_int(ts, "a rational" if rational else "an integer")
    den = _parse_denominator(ts) if rational else 1
    if ts.peek().kind != "END":  # not echoed: a flag's value may be long
        ts.error("expected end of input")
    return Fraction(value, den) if rational else value


def _signed_terms(ts: _TokenStream, parse_term):
    """Yield (sign, term) for each term of ['-'] term (('+' | '-') term)*."""
    sign = -1 if ts.accept_op("-") else 1
    while True:
        yield sign, parse_term(ts)
        tok = ts.peek()
        if not (tok.kind == "OP" and tok.text in "+-"):
            return
        ts.advance()
        sign = 1 if tok.text == "+" else -1


def _parse_exponent(ts: _TokenStream, atom: str, allow_negative: bool) -> int:
    if not ts.accept_op("^"):
        return 1
    pos = ts.peek().pos
    value = _parse_signed_int(ts, f"an exponent for {atom}")
    if value < 0 and not allow_negative:
        raise ParseError(f"exponent of {atom} must be nonnegative", pos)
    return value


def _parse_matrix_ref(ts: _TokenStream, rank: int) -> tuple[int, int]:
    ts.expect_op("[")
    pos = ts.peek().pos
    p = ts.expect_int("a row index")
    ts.expect_op(",")
    qpos = ts.peek().pos
    q = ts.expect_int("a column index")
    ts.expect_op("]")
    if not (1 <= p <= rank):
        raise ParseError(f"matrix index {p} out of range for rank {rank}", pos)
    if not (1 <= q <= rank):
        raise ParseError(f"matrix index {q} out of range for rank {rank}", qpos)
    return p, q


def _parse_term(ts: _TokenStream, rank: int):
    """One additive term as its (key, coefficient) pairs: Monomials, or C's key _C."""
    start = ts.peek().pos
    coeff = _parse_coefficient(ts)
    i = 0
    j_power = 0
    j_falling: int | None = None
    matrix: tuple[int, int] | None = None
    is_central = False
    saw_atom = False
    while ts.peek().kind == "NAME":
        _, name, pos = ts.peek()
        if name not in ("t", "D", "FD", "E", "C"):
            raise ParseError(f"unknown atom {name!r} (atoms are t, D, FD, E[p,q], C)", pos)
        if (name == "FD" and j_falling is not None) or (name == "E" and matrix is not None):
            raise ParseError(f"at most one {name} atom per term", pos)
        ts.advance()
        if name == "t":
            i += _parse_exponent(ts, "t", allow_negative=True)
        elif name == "D":
            j_power += _parse_exponent(ts, "D", allow_negative=False)
        elif name == "FD":
            j_falling = _parse_exponent(ts, "FD", allow_negative=False)
        elif name == "E":
            matrix = _parse_matrix_ref(ts, rank)
        else:
            is_central = True
        if is_central and saw_atom:  # C after an atom, or an atom after C
            raise ParseError("C cannot be combined with other atoms", pos)
        if j_power + (j_falling or 0) > MAX_D_POWER:
            raise ParseError(f"D power of a term above the limit {MAX_D_POWER}", pos)
        saw_atom = True
        ts.accept_op("*")
    if abs(i) > MAX_T_POWER:
        raise ParseError(f"t power of a term above the limit {MAX_T_POWER}", start)
    if coeff is None:
        if not saw_atom:
            ts.error("expected a coefficient or an atom")
        coeff = Fraction(1)
    if is_central:
        return [(_C, coeff)]
    slots = [matrix] if matrix is not None else [(r, r) for r in range(1, rank + 1)]
    weights = falling_to_power_coeffs(j_falling) if j_falling is not None else (1,)
    return [
        (Monomial(i, j_power + s, p, q), coeff * w)
        for p, q in slots for s, w in enumerate(weights) if w
    ]


def _signed_pairs(text: str, parse_term) -> list:
    """Every (key, coefficient) pair of the terms of text, times its term's sign."""
    ts = _TokenStream(text)
    pairs = []
    for sign, term in _signed_terms(ts, parse_term):
        pairs += [(key, sign * c) for key, c in term]
    ts.expect_end()
    return pairs


def parse_element(text: str, rank: int) -> AlgebraElement:
    """Parse an operator expression; FD atoms land in the power basis."""
    return AlgebraElement(rank, _signed_pairs(text, lambda ts: _parse_term(ts, rank)))


def _parse_poly_term(ts: _TokenStream) -> Poly:
    coeff = _parse_coefficient(ts)
    exponent = 0
    tok = ts.peek()
    if tok.kind == "NAME" and tok.text == "a":
        ts.advance()
        exponent = _parse_exponent(ts, "a", allow_negative=False)
        if exponent > MAX_A_DEGREE:
            raise ParseError(f"degree in a above the limit {MAX_A_DEGREE}", tok.pos)
    elif coeff is None:
        ts.error("expected a coefficient or 'a'")
    return Poly([0] * exponent + [1 if coeff is None else coeff])


def _parse_poly_sum(ts: _TokenStream) -> Poly:
    total = Poly(())
    for sign, part in _signed_terms(ts, _parse_poly_term):
        total = total + (part if sign == 1 else -part)
    return total


def _parse_poly_coefficient(ts: _TokenStream) -> Poly | None:
    """The product of the factors that open a vterm, or None if there is none."""
    total = None
    while True:
        tok = ts.peek()
        if tok.kind == "OP" and tok.text == "(":
            ts.advance()
            factor = _parse_poly_sum(ts)
            ts.expect_op(")")
        elif tok.kind == "INT" or (tok.kind == "NAME" and tok.text == "a"):
            factor = _parse_poly_term(ts)
        else:
            return total
        total = factor if total is None else total * factor
        if total.degree > MAX_A_DEGREE:
            raise ParseError(f"degree in a above the limit {MAX_A_DEGREE}", tok.pos)
        ts.accept_op("*")


def _parse_vector_slot(ts: _TokenStream, params: ModuleParams) -> tuple[int, int, int]:
    tok = ts.peek()
    if not (tok.kind == "NAME" and tok.text == "v"):
        ts.error("expected a module-vector atom 'v[k,r]'")
    ts.advance()
    ts.expect_op("[")
    kpos = ts.peek().pos
    k = _parse_signed_int(ts, "a grade shift")
    if abs(k) > MAX_T_POWER:
        raise ParseError(f"grade shift of a slot above the limit {MAX_T_POWER}", kpos)
    ts.expect_op(",")
    rpos = ts.peek().pos
    r = ts.expect_int("a matrix slot")
    s = 1
    if ts.accept_op(","):
        spos = ts.peek().pos
        s = ts.expect_int("a Jordan slot")
        if not (1 <= s <= params.m):
            raise ParseError(f"Jordan slot {s} out of range for m = {params.m}", spos)
    ts.expect_op("]")
    if not (1 <= r <= params.rank):
        raise ParseError(f"matrix slot {r} out of range for rank {params.rank}", rpos)
    return k, r, s


def _parse_vector_term(ts: _TokenStream, params: ModuleParams):
    """One vterm as [(slot, coefficient)], or no pair for a zero without a slot."""
    first = ts.index
    coeff = _parse_poly_coefficient(ts)
    uses_a = [tok.pos for tok in ts.tokens[first:ts.index] if tok.text == "a"]
    if uses_a and params.param.degree < 1:  # a number as the parameter leaves no 'a' to read
        raise ParseError("'a' is read only when the module parameter is formal", uses_a[0])
    # A zero coefficient may stand without a slot: the zero vector prints as 0.
    if coeff == 0 and ts.peek().kind != "NAME":
        return []
    return [(_parse_vector_slot(ts, params), 1 if coeff is None else coeff)]


def parse_module_vector(text: str, params: ModuleParams) -> ModuleVector:
    """Parse a module-vector expression against the given parameters."""
    from .reps import ModuleVector  # the only layer a vector needs beyond algebra

    return ModuleVector(params, _signed_pairs(text, lambda ts: _parse_vector_term(ts, params)))


# ---------------------------------------------------------------------------
# Printers.  Terms are ordered lexicographically by (i, j, p, q) and
# rationals are reduced, so the text form is canonical and round-trips.


def _join_signed(pieces: list[tuple[int, str]]) -> str:
    if not pieces:
        return "0"
    sign, body = pieces[0]
    out = [f"-{body}" if sign < 0 else body]
    for sign, body in pieces[1:]:
        out.append(" - " if sign < 0 else " + ")
        out.append(body)
    return "".join(out)


def _ratio(num: int, den: int) -> str:  # str(Fraction(num, den)) for den > 0
    g = math.gcd(num, den)
    return str(num // g) if g == den else f"{num // g}/{den // g}"


def _signed_piece(num: int, den: int, body: str, sep: str = " ") -> tuple[int, str]:
    mag = _ratio(abs(num), den)
    text = mag if not body else body if mag == "1" else f"{mag}{sep}{body}"
    return (1 if num > 0 else -1, text)


def format_element(e: AlgebraElement | FallingElement) -> str:
    """An element in the CLI grammar; a FallingElement's D atoms print as FD."""
    d_symbol = "FD" if isinstance(e, FallingElement) else "D"
    pieces: list[tuple[int, str]] = []
    for (i, j, p, q), num in sorted(_words(e.nums)):
        atoms = []
        if i:
            atoms.append("t" if i == 1 else f"t^{i}")
        if j:
            atoms.append(d_symbol if j == 1 else f"{d_symbol}^{j}")
        if e.rank > 1:
            atoms.append(f"E[{p},{q}]")
        pieces.append(_signed_piece(num, e.den, " ".join(atoms)))
    if e.central:
        pieces.append(_signed_piece(e.central.numerator, e.central.denominator, "C"))
    return _join_signed(pieces)


format_falling_element = format_element  # a second name of the one printer, kept for its callers


def _poly_pieces(nums, den: int) -> list[tuple[int, str]]:
    """The signed pieces c a^e of the polynomial nums/den, highest power first."""
    return [
        _signed_piece(nums[e], den, "" if e == 0 else "a" if e == 1 else f"a^{e}", "")
        for e in range(len(nums) - 1, -1, -1)
        if nums[e]
    ]


def format_poly(p: Poly) -> str:
    return _join_signed(_poly_pieces(p.row, p.den))


def format_module_vector(v: ModuleVector) -> str:
    pieces: list[tuple[int, str]] = []
    show_jordan = v.params.m > 1
    for (k, r, s), row in sorted(v.nums.items()):
        slot = f"v[{k},{r},{s}]" if show_jordan else f"v[{k},{r}]"
        coeff = _poly_pieces(row, v.den)
        if len(coeff) != 1:
            pieces.append((1, f"({_join_signed(coeff)})*{slot}"))
        else:  # one piece: its sign leads, and a unit constant leaves the slot alone
            sign, text = coeff[0]
            pieces.append((sign, slot if text == "1" else f"{text}*{slot}"))
    return _join_signed(pieces)


# ---------------------------------------------------------------------------
# JSON forms.


def element_to_json(e: AlgebraElement | FallingElement) -> dict:
    """An element's JSON form; a FallingElement's ends with "basis": "falling"."""
    out = {
        "n": e.rank,
        "central": str(e.central),
        "terms": [
            {"i": i, "j": j, "p": p, "q": q, "coeff": _ratio(num, e.den)}
            for (i, j, p, q), num in sorted(_words(e.nums))
        ],
    }
    if isinstance(e, FallingElement):
        out["basis"] = "falling"
    return out


falling_element_to_json = element_to_json  # a second name of the one form, kept for its callers


def _param_json(param: Poly):
    if param == Poly.var():
        return "formal"
    coeffs = [_ratio(n, param.den) for n in param.row] or ["0"]
    return coeffs if len(coeffs) > 1 else coeffs[0]


def module_vector_to_json(v: ModuleVector) -> dict:
    return {
        "family": v.params.family.value,
        "n": v.params.rank,
        "m": v.params.m,
        "lambda": _param_json(v.params.param),
        "entries": [
            {"k": k, "r": r, "s": s, "coeff": [_ratio(n, v.den) for n in row]}
            for (k, r, s), row in sorted(v.nums.items())
        ],
    }


def poly_to_json(p: Poly) -> dict:
    return {"coeffs": [_ratio(n, p.den) for n in p.row]}
