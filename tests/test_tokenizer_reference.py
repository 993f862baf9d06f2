"""The tokenizer against a reference: the per-character loop it replaced.

_reference_tokenize is the loop mdop.expr._tokenize ran before it became one
regex pass: skip each whitespace character, match a token at the next one,
and refuse a character that starts no token (a digit is an ASCII digit, as
in the grammar, so '٣' is refused too).  On every string both must give
the same tokens, or refuse with the same message at the same position.
"""

import re
import sys
import time

from hypothesis import given, settings, strategies as st

from mdop.expr import ParseError, Token, _tokenize

_REFERENCE_TOKEN_RE = re.compile(r"(?P<INT>[0-9]+)|(?P<NAME>[A-Za-z]+)|(?P<OP>[-+*/^,\[\]()])")


def _reference_tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    pos = 0
    length = len(text)
    while pos < length:
        if text[pos].isspace():
            pos += 1
            continue
        match = _REFERENCE_TOKEN_RE.match(text, pos)
        if match is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        kind = match.lastgroup
        tokens.append(Token(kind, match.group(), pos))
        pos = match.end()
    tokens.append(Token("END", "", length))
    return tokens


def _outcome(tokenize, text: str):
    """The tokens of text, or the message and position of its refusal."""
    try:
        return tokenize(text)
    except ParseError as exc:
        return str(exc), exc.position


# Every character str.isspace accepts, the ASCII ones and the Unicode ones.
WHITESPACE = "".join(c for c in map(chr, range(sys.maxunicode + 1)) if c.isspace())
GRAMMAR = "0123456789 tDFEaCv +-*/^,[]()"
# Letters and digits outside ASCII ('٣' is a decimal digit, '²' and 'Ⅻ' are not),
# stray punctuation, and characters of other categories.
STRAY = "éßΩж٣५²Ⅻ!@#$%&=.;:'\"?<>{}|~`_\\\x00\x7f\u200b\ufeff"
characters = st.sampled_from(GRAMMAR) | st.sampled_from(WHITESPACE) | st.sampled_from(STRAY)
strings = st.text(characters | st.characters(), max_size=40)


@settings(deadline=None, derandomize=True, max_examples=300)
@given(strings)
def test_the_regex_pass_matches_the_reference_loop(text):
    assert _outcome(_tokenize, text) == _outcome(_reference_tokenize, text)


def test_every_whitespace_kind_separates_tokens():
    text = WHITESPACE.join(["t", "^", "2", "D"]) + WHITESPACE
    assert _tokenize(text) == _reference_tokenize(text)
    assert [tok.text for tok in _tokenize(text)] == ["t", "^", "2", "D", ""]


def test_trailing_whitespace_is_read_once():
    # A match tried at each character of a whitespace tail scans to its end:
    # 10,000 trailing spaces once took 4.8 s.
    text = "t" + " " * 50_000
    start = time.perf_counter()
    tokens = _tokenize(text)
    assert time.perf_counter() - start < 1
    assert tokens == _reference_tokenize(text)
