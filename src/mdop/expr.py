"""Surface syntax: tokenizer, parsers and printers for operator expressions
and module vectors, plus their JSON forms.

Grammar (whitespace-insensitive, '*' optional everywhere it appears):

    element  := ['-'] term (('+' | '-') term)*
    term     := [rational] atom*            -- coefficient or at least one atom
    atom     := 't' ['^' int] | 'D' ['^' nat] | 'FD' ['^' nat]
              | 'E' '[' p ',' q ']' | 'C'
    vector   := ['-'] vterm (('+' | '-') vterm)*
    vterm    := [poly] 'v' '[' k ',' r [',' s] ']' | zero-valued poly
    poly     := '(' polysum ')' | [rational] ['a' ['^' nat]]
    rational := int ['/' int]

A term without an E atom means the same word on every diagonal matrix
slot (the scalar embedding).  FD is the falling power [D]_j and is
rewritten into the power basis on entry.  C is the central generator and
cannot be combined with other atoms.  The formal parameter is always
spelled 'a'.  A vector term with a zero coefficient may omit its slot,
so the zero vector, printed as 0, parses back.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import TYPE_CHECKING, NamedTuple

from .algebra import AlgebraElement, FallingElement, Monomial
from .exact import Poly, falling_to_power_coeffs

if TYPE_CHECKING:  # reps is imported where a vector is parsed
    from .reps import ModuleParams, ModuleVector

_POLY_ONE = Poly.const(1)

# The highest power of D one term may carry, D and FD atoms counted
# together.  The cost of a product, bracket or basis change grows with it;
# README "Resource limits" gives the measured cost of calls at the limit.
MAX_D_POWER = 1200


class ParseError(ValueError):
    """Syntax or range error in a surface expression."""

    def __init__(self, message: str, position: int):
        self.position = position
        super().__init__(f"{message} (column {position + 1})")


class Token(NamedTuple):
    kind: str  # "INT", "NAME", "OP", "END"
    text: str
    pos: int


_TOKEN_RE = re.compile(r"(?P<INT>\d+)|(?P<NAME>[A-Za-z]+)|(?P<OP>[-+*/^,\[\]()])")


def _tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    pos = 0
    length = len(text)
    while pos < length:
        if text[pos].isspace():
            pos += 1
            continue
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        kind = match.lastgroup
        tokens.append(Token(kind, match.group(), pos))
        pos = match.end()
    tokens.append(Token("END", "", length))
    return tokens


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

    def at_op(self, ch: str) -> bool:
        tok = self.peek()
        return tok.kind == "OP" and tok.text == ch

    def accept_op(self, ch: str) -> bool:
        if self.at_op(ch):
            self.advance()
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
        self.advance()
        return int(tok.text)

    def expect_end(self) -> None:
        tok = self.peek()
        if tok.kind != "END":
            raise ParseError(f"expected '+', '-' or end of input, found {tok.text!r}", tok.pos)

    def error(self, message: str) -> None:
        raise ParseError(message, self.peek().pos)


def _parse_signed_int(ts: _TokenStream, what: str) -> int:
    negative = False
    if ts.accept_op("-"):
        negative = True
    elif ts.accept_op("+"):
        pass
    value = ts.expect_int(what)
    return -value if negative else value


def _parse_coefficient(ts: _TokenStream) -> Fraction | None:
    """The optional rational that opens a term, with the '*' after it."""
    if ts.peek().kind != "INT":
        return None
    num, den = int(ts.advance().text), 1
    if ts.accept_op("/"):
        pos = ts.peek().pos
        den = ts.expect_int("a denominator")
        if den == 0:
            raise ParseError("zero denominator", pos)
    ts.accept_op("*")
    return Fraction(num, den)


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
    """One additive term.  Returns (central_coeff | None, {Monomial: Fraction})."""
    coeff = _parse_coefficient(ts)
    i = 0
    j_power = 0
    j_falling: int | None = None
    matrix: tuple[int, int] | None = None
    is_central = False
    saw_atom = False
    while ts.peek().kind == "NAME":
        name = ts.peek().text
        pos = ts.peek().pos
        if name == "t":
            ts.advance()
            i += _parse_exponent(ts, "t", allow_negative=True)
        elif name == "D":
            ts.advance()
            j_power += _parse_exponent(ts, "D", allow_negative=False)
        elif name == "FD":
            if j_falling is not None:
                raise ParseError("at most one FD atom per term", pos)
            ts.advance()
            j_falling = _parse_exponent(ts, "FD", allow_negative=False)
        elif name == "E":
            if matrix is not None:
                raise ParseError("at most one E atom per term", pos)
            ts.advance()
            matrix = _parse_matrix_ref(ts, rank)
        elif name == "C":
            ts.advance()
            is_central = True
        else:
            raise ParseError(
                f"unknown atom {name!r} (atoms are t, D, FD, E[p,q], C)", pos
            )
        if j_power + (j_falling or 0) > MAX_D_POWER:
            raise ParseError(f"D power of a term above the limit {MAX_D_POWER}", pos)
        saw_atom = True
        ts.accept_op("*")
    if coeff is None:
        if not saw_atom:
            ts.error("expected a coefficient or an atom")
        coeff = Fraction(1)
    if is_central:
        if i or j_power or j_falling is not None or matrix is not None:
            ts.error("C cannot be combined with other atoms")
        return coeff, {}
    slots = [matrix] if matrix is not None else [(r, r) for r in range(1, rank + 1)]
    weights = (
        falling_to_power_coeffs(j_falling) if j_falling is not None else (Fraction(1),)
    )
    contrib: dict[Monomial, Fraction] = {}
    for p, q in slots:
        for s, w in enumerate(weights):
            if not w:
                continue
            key = Monomial(i, j_power + s, p, q)
            contrib[key] = contrib.get(key, Fraction(0)) + coeff * w
    return None, contrib


def parse_element(text: str, rank: int) -> AlgebraElement:
    """Parse an operator expression; FD atoms land in the power basis."""
    ts = _TokenStream(text)
    terms: dict[Monomial, Fraction] = {}
    central = Fraction(0)
    for sign, (central_part, contrib) in _signed_terms(ts, lambda ts: _parse_term(ts, rank)):
        if central_part is not None:
            central += sign * central_part
        else:
            for key, c in contrib.items():
                terms[key] = terms.get(key, Fraction(0)) + sign * c
    ts.expect_end()
    return AlgebraElement(rank, terms, central)


def _parse_poly_term(ts: _TokenStream) -> Poly:
    coeff = _parse_coefficient(ts)
    exponent = 0
    tok = ts.peek()
    if tok.kind == "NAME" and tok.text == "a":
        ts.advance()
        exponent = _parse_exponent(ts, "a", allow_negative=False)
    elif coeff is None:
        ts.error("expected a coefficient or 'a'")
    return Poly([0] * exponent + [Fraction(1) if coeff is None else coeff])


def _parse_poly_sum(ts: _TokenStream) -> Poly:
    total = Poly(())
    for sign, part in _signed_terms(ts, _parse_poly_term):
        total = total + (part if sign == 1 else -part)
    return total


def _parse_poly_coefficient(ts: _TokenStream) -> Poly | None:
    factors: list[Poly] = []
    while True:
        tok = ts.peek()
        if tok.kind == "OP" and tok.text == "(":
            ts.advance()
            factors.append(_parse_poly_sum(ts))
            ts.expect_op(")")
        elif tok.kind == "INT" or (tok.kind == "NAME" and tok.text == "a"):
            factors.append(_parse_poly_term(ts))
        else:
            break
        ts.accept_op("*")
    if not factors:
        return None
    total = _POLY_ONE
    for f in factors:
        total = total * f
    return total


def _parse_vector_slot(ts: _TokenStream, params: ModuleParams) -> tuple[int, int, int]:
    tok = ts.peek()
    if not (tok.kind == "NAME" and tok.text == "v"):
        ts.error("expected a module-vector atom 'v[k,r]'")
    ts.advance()
    ts.expect_op("[")
    k = _parse_signed_int(ts, "a grade shift")
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
    """One vterm as (slot, coefficient), or None for a zero without a slot."""
    coeff = _parse_poly_coefficient(ts)
    # A zero coefficient may stand without a slot: the zero vector prints as 0.
    if coeff == 0 and ts.peek().kind != "NAME":
        return None
    return _parse_vector_slot(ts, params), _POLY_ONE if coeff is None else coeff


def parse_module_vector(text: str, params: ModuleParams) -> ModuleVector:
    """Parse a module-vector expression against the given parameters."""
    from .reps import ModuleVector  # the only layer a vector needs beyond algebra

    ts = _TokenStream(text)
    entries: dict[tuple[int, int, int], Poly] = {}
    zero = Poly(())
    for sign, term in _signed_terms(ts, lambda ts: _parse_vector_term(ts, params)):
        if term is not None:
            key, coeff = term
            entries[key] = entries.get(key, zero) + sign * coeff
    ts.expect_end()
    return ModuleVector(params, entries)


def parse_expression(text: str, rank: int, params: ModuleParams | None = None):
    """Parse either an operator expression or a module vector.

    The input is a module vector exactly when it mentions a 'v' atom; in
    that case params supplies the family, Jordan size, and parameter
    (defaulting to the generic family-V module with m = 1).
    """
    if any(t.kind == "NAME" and t.text == "v" for t in _tokenize(text)):
        if params is None:
            from .reps import Family, ModuleParams

            params = ModuleParams.formal(Family.V, rank)
        return parse_module_vector(text, params)
    return parse_element(text, rank)


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


def _signed_piece(coeff: Fraction, body: str, sep: str = " ") -> tuple[int, str]:
    mag = abs(coeff)
    if not body:
        text = str(mag)
    elif mag == 1:
        text = body
    else:
        text = f"{mag}{sep}{body}"
    return (1 if coeff > 0 else -1, text)


def _format_opsum(e, d_symbol: str) -> str:
    pieces: list[tuple[int, str]] = []
    for mono, coeff in sorted(e.terms.items()):
        atoms = []
        if mono.i:
            atoms.append("t" if mono.i == 1 else f"t^{mono.i}")
        if mono.j:
            atoms.append(d_symbol if mono.j == 1 else f"{d_symbol}^{mono.j}")
        if e.rank > 1:
            atoms.append(f"E[{mono.p},{mono.q}]")
        pieces.append(_signed_piece(coeff, " ".join(atoms)))
    if e.central:
        pieces.append(_signed_piece(e.central, "C"))
    return _join_signed(pieces)


def format_element(e: AlgebraElement) -> str:
    return _format_opsum(e, "D")


def format_falling_element(f: FallingElement) -> str:
    return _format_opsum(f, "FD")


def _poly_pieces(p: Poly) -> list[tuple[int, str]]:
    """The signed pieces c a^e of p, highest power first."""
    return [
        _signed_piece(c, "" if e == 0 else "a" if e == 1 else f"a^{e}", sep="")
        for e, c in reversed(list(enumerate(p.coeffs)))
        if c
    ]


def format_poly(p: Poly) -> str:
    return _join_signed(_poly_pieces(p))


def _poly_coefficient_piece(p: Poly) -> tuple[int, str]:
    pieces = _poly_pieces(p)
    if len(pieces) != 1:
        return (1, f"({_join_signed(pieces)})")
    sign, text = pieces[0]
    return (sign, "" if text == "1" else text)  # a unit constant: the slot alone


def format_module_vector(v: ModuleVector) -> str:
    pieces: list[tuple[int, str]] = []
    show_jordan = v.params.m > 1
    for (k, r, s), poly in v.sorted_entries():
        slot = f"v[{k},{r},{s}]" if show_jordan else f"v[{k},{r}]"
        sign, coeff_text = _poly_coefficient_piece(poly)
        pieces.append((sign, f"{coeff_text}*{slot}" if coeff_text else slot))
    return _join_signed(pieces)


# ---------------------------------------------------------------------------
# JSON forms.


def element_to_json(e: AlgebraElement) -> dict:
    return {
        "n": e.rank,
        "central": str(e.central),
        "terms": [
            {"i": m.i, "j": m.j, "p": m.p, "q": m.q, "coeff": str(c)}
            for m, c in sorted(e.terms.items())
        ],
    }


def falling_element_to_json(f: FallingElement) -> dict:
    out = element_to_json(f)
    out["basis"] = "falling"
    return out


def _param_json(param: Poly):
    if param == Poly.var():
        return "formal"
    if param.degree <= 0:
        return str(param.constant_value())
    return [str(c) for c in param.coeffs]


def module_vector_to_json(v: ModuleVector) -> dict:
    return {
        "family": v.params.family.value,
        "n": v.params.rank,
        "m": v.params.m,
        "lambda": _param_json(v.params.param),
        "entries": [
            {"k": k, "r": r, "s": s, "coeff": [str(c) for c in poly.coeffs]}
            for (k, r, s), poly in v.sorted_entries()
        ],
    }


def poly_to_json(p: Poly) -> dict:
    return {"coeffs": [str(c) for c in p.coeffs]}
