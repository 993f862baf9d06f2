"""Matrix differential operators on the circle and their central extension.

Elements are finite rational combinations of basis words t^i D^j E[p,q],
where D = t d/dt and E[p,q] are the N x N matrix units, plus a rational
multiple of the central generator C.  Two bases are supported:

  * the power basis, with j counting D^j (canonical internally), and
  * the falling basis, with j counting [D]_j = D(D-1)...(D-j+1)
    = t^j (d/dt)^j, in which the defining 2-cocycle of the central
    extension has a closed form on each pair of words.

All operations are pure and exact.  An element is an exact.RowSum, as a
module vector is: one row t^i f(D) E[p,q] per key (i, p, q), the integer
numerators of f by ascending D power over one denominator, and C is one
more row, of the key _C = (0, 0, 0).  Products and the cocycle leave C's
row out and visit only the pairs of rows whose matrix slots match; a sparse
product adds up word pairs (_word_products), a dense one sums each output
row as one big integer (_dense_products, Kronecker substitution).  The
power-basis cocycle evaluates each row by Horner's rule at |i| points (the
Kac-Radul closed form); the falling-basis bracket pairs the same rows but
weighs each pair of their words by _psi_weight, so the two are independent.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from .exact import (
    CACHE_SIZE,
    DimensionError,
    RowSum,
    _falling_row,
    _power,
    _power_row,
    _rational,
    _reduced_rows,
    gen_binomial,
)

_ZERO = Fraction(0)
_C = (0, 0, 0)  # the row key of the central generator C; every word has p, q >= 1


def _words(nums: Mapping) -> list:
    """The nonzero words ((i, j, p, q), n) of the rows nums; C's row is no word."""
    return [
        ((i, j, p, q), n) for (i, p, q), row in nums.items() if p for j, n in enumerate(row) if n
    ]


class Monomial(NamedTuple):
    """Basis word t^i D^j E[p,q]; in falling context j counts [D]_j."""

    i: int
    j: int
    p: int
    q: int


def degree(mono: Monomial, rank: int) -> int:
    """Principal grade of a basis word: i*rank + p - q.  C sits in grade 0."""
    return mono.i * rank + mono.p - mono.q


class _OperatorSum(RowSum):
    """Finite combination of basis words plus a multiple of the central generator C.

    Shared implementation of the power-basis and falling-basis element
    types; the two are distinct classes so they never mix silently.
    Coefficients must be exact (int or Fraction); others raise TypeError.
    terms is a mapping or (word, coefficient) pairs; repeated words add up.
    They are stored as a module vector's are (exact.RowSum): nums, (i, p, q)
    -> int tuple by D power, over den; C is one more row, the constant row of
    the key _C, which no word has, and central is read as one more term of
    that key.  .terms and .central read the rows.
    """

    __slots__ = ()
    rank = RowSum.ctx

    def __init__(self, rank: int, terms: Mapping | Iterable = (), central=0):
        if type(rank) is not int or rank < 1:
            raise DimensionError("rank must be a positive integer")
        terms = terms.items() if isinstance(terms, Mapping) else terms or ()
        super().__init__(rank, [*terms, (_C, central)])  # C is one more term, the last

    @staticmethod
    def _word(rank: int, mono) -> tuple:
        if mono is _C:  # by identity: no word a caller writes is C's key
            return _C, 0
        if not isinstance(mono, Monomial):
            mono = Monomial(*mono)
        if not (type(mono.i) is type(mono.j) is type(mono.p) is type(mono.q) is int):
            raise TypeError(f"indices of {mono} must be ints")
        if mono.j < 0:
            raise ValueError(f"negative D power in {mono}")
        if not (1 <= mono.p <= rank and 1 <= mono.q <= rank):
            raise DimensionError(f"matrix indices of {mono} out of range for rank {rank}")
        return (mono.i, mono.p, mono.q), mono.j

    _scalar = staticmethod(_rational)

    @classmethod
    def term(cls, rank: int, i: int, j: int, p: int, q: int, coeff=1):
        return cls(rank, ((Monomial(i, j, p, q), coeff),))

    @property
    def terms(self) -> dict[Monomial, Fraction]:
        new, den = tuple.__new__, self.den
        return {new(Monomial, key): Fraction(n, den) for key, n in _words(self.nums)}

    @property
    def central(self) -> Fraction:
        row = self.nums.get(_C)
        return Fraction(row[0], self.den) if row else _ZERO

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(rank={self.rank}, "
            f"terms={sorted(self.terms.items())!r}, central={self.central!r})"
        )


class AlgebraElement(_OperatorSum):
    """Combination of power-basis words t^i D^j E[p,q] plus central C."""


class FallingElement(_OperatorSum):
    """Combination of falling-basis words t^i [D]_j E[p,q] plus central C."""


def _check_operands(a, b, cls) -> None:
    if not isinstance(a, cls) or not isinstance(b, cls):
        raise TypeError(f"expected {cls.__name__} operands")
    if a.rank != b.rank:
        raise DimensionError("operand ranks differ")


def _operands(a, b, cls):
    """The rows of a and b without C's, once both are cls of one rank."""
    _check_operands(a, b, cls)
    if _C in a.nums or _C in b.nums:
        return [{k: r for k, r in n.items() if k != _C} if _C in n else n for n in (a.nums, b.nums)]
    return a.nums, b.nums


@lru_cache(maxsize=CACHE_SIZE)
def _product_expansion(j: int, k: int) -> tuple[tuple[int, int], ...]:
    # (D + k)^j as its nonzero (power of D, coefficient) pairs, expanded by _power.
    return tuple((u, c) for u, c in enumerate(_power((k, 1), j)) if c)


@lru_cache(maxsize=CACHE_SIZE)
def _falling_expansion(j: int, n: int) -> tuple[tuple[int, int], ...]:
    # [D]_j t^n = t^n sum_s binom(j, s) [n]_s [D]_(j - s), with [n]_s updated
    # step by step; once it is zero (0 <= n < s) every later summand is too.
    out = []
    w = 1  # binom(j, s) [n]_s
    for s in range(j + 1):
        if not w:
            break
        out.append((j - s, w))
        w = w * (j - s) * (n - s) // (s + 1)
    return tuple(out)


def _add_products(rows: dict, na: Mapping, nb: Mapping, sign: int, falling: bool = False) -> None:
    # rows += sign * (a b), word pair by word pair.  t^i X_j E[p,q] t^k X_l E[q,q']
    # = t^(i+k) sum_u w_u X_(u+l) E[p,q'], where X = D takes the weights of
    # (D+k)^j and X = [D] those of _falling_expansion(j, k+l).  The words of b
    # are indexed by their row slot, so a row of a meets only its partners.
    partners: dict = {}
    for (k, p, q), row in nb.items():
        words = partners.setdefault(p, [])
        for l, c in enumerate(row):
            if c:
                words.append((k, l, q, c))
    expansion = _falling_expansion if falling else _product_expansion
    for (i, p, q), row in na.items():
        words = partners.get(q)
        if words is None:
            continue
        for j, ca in enumerate(row):
            if ca:
                ca *= sign
                for k, l, q2, cb in words:
                    c = ca * cb
                    out = rows.get((i + k, p, q2))  # grown to j + l, the highest power written
                    if out is None:
                        out = rows[i + k, p, q2] = [0] * (j + l + 1)
                    elif len(out) <= j + l:
                        out += [0] * (j + l + 1 - len(out))
                    for u, w in expansion(j, k + l if falling else k):
                        out[u + l] += c * w


def _word_products(na: Mapping, nb: Mapping, bracket: bool, falling: bool = False) -> dict:
    # Rows of ab, or of ab - ba if bracket, summed word pair by word pair, not reduced.
    rows: dict = {}
    _add_products(rows, na, nb, 1, falling)
    if bracket:
        _add_products(rows, nb, na, -1, falling)
    return rows


def _dense_route(na: Mapping, nb: Mapping) -> bool:
    # DENSE_PAIRS word pairs and DENSE_WORDS_PER_ROW words a row; a row's length bounds its words.
    if sum(map(len, na.values())) * sum(map(len, nb.values())) < DENSE_PAIRS:
        return False
    wa, wb = (sum(len(row) - row.count(0) for row in n.values()) for n in (na, nb))
    return wa * wb >= DENSE_PAIRS and wa + wb >= DENSE_WORDS_PER_ROW * (len(na) + len(nb))


DENSE_PAIRS, DENSE_WORDS_PER_ROW = 256, 2  # the thresholds of the dense route in _products


def _kronecker_bound(na: Mapping, nb: Mapping) -> int:
    # No coefficient of ab exceeds sum_a |c| (1 + K)^j * sum_b |c|, K the largest |t power| of b.
    base = 1 + max(abs(k) for k, _, _ in nb)
    left = sum(abs(c) * base**j for row in na.values() for j, c in enumerate(row) if c)
    return left * sum(abs(c) for row in nb.values() for c in row)


def _add_kronecker(values: dict, na: Mapping, nb: Mapping, sign: int, x: int) -> None:
    # values[i+k, p, q'] += sign f(x + k) g(x) for each row t^i f(D) E[p,q] of a and
    # t^k g(D) E[q,q'] of b: their product t^(i+k) f(D+k) g(D) E[p,q'] at D = x.
    partners: dict = {}  # p -> k -> [(q', sign g(x))]
    for (k, p, q), g in nb.items():
        gx = sign * _horner(_descending(g), x)
        partners.setdefault(p, {}).setdefault(k, []).append((q, gx))
    for (i, p, q), f in na.items():
        f = _descending(f)
        for k, row in partners.get(q, {}).items():
            fx = _horner(f, x + k)
            for q2, gx in row:
                values[i + k, p, q2] = values.get((i + k, p, q2), 0) + fx * gx


def _dense_products(na: Mapping, nb: Mapping, bracket: bool) -> dict:
    # Rows of ab, or ab - ba if bracket, not reduced: row H is read off H(2^bits).
    bound = _kronecker_bound(na, nb) + (_kronecker_bound(nb, na) if bracket else 0)
    bits = bound.bit_length() + 1
    values: dict = {}
    _add_kronecker(values, na, nb, 1, 1 << bits)
    if bracket:
        _add_kronecker(values, nb, na, -1, 1 << bits)
    mask, half, rows = (1 << bits) - 1, 1 << (bits - 1), {}
    for key, n in values.items():
        row = rows[key] = []
        while n:  # the last digit read is the last nonzero one
            d = n & mask
            if d >= half:  # a negative digit, with a carry of 1 into the next
                d -= mask + 1
            row.append(d)
            n = (n - d) >> bits
    return rows


def _products(a: AlgebraElement, b: AlgebraElement, bracket: bool, psi=None) -> AlgebraElement:
    # ab, or ab - ba, plus psi C if psi is given; the C rows of a and b take no part.
    (na, nb), den = _operands(a, b, AlgebraElement), a.den * b.den
    rows = (_dense_products if _dense_route(na, nb) else _word_products)(na, nb, bracket)
    if psi is not None:
        rows[_C] = [psi.numerator * (den // psi.denominator)]
    return AlgebraElement._raw(a.rank, _reduced_rows(rows, den))


def canonical_product(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    """Composition product on the associative operator algebra.

    (t^i D^j E[p,q]) (t^k D^l E[p',q']) vanishes unless q = p' and equals
    t^(i+k) (D+k)^j D^l E[p,q'] otherwise.  Central parts of the inputs are
    ignored; the result has zero central part.
    """
    return _products(a, b, False)


def plain_bracket(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    """Commutator ab - ba of the composition product (no central term)."""
    return _products(a, b, True)


def _change_basis(nums: Mapping, convert) -> dict:
    # The rows in the other basis, each distinct row converted once per call.  Both maps
    # keep a row's length and top coefficient, so the result needs no gcd pass.
    out, done = {}, {}
    for key, row in nums.items():
        new = done.get(row)
        if new is None:
            new = done[row] = tuple(convert(row))
        out[key] = new
    return out


def to_falling(a: AlgebraElement) -> FallingElement:
    """Rewrite D^j in terms of [D]_s; the central part passes through."""
    if not isinstance(a, AlgebraElement):
        raise TypeError("expected an AlgebraElement")
    return FallingElement._raw(a.rank, (_change_basis(a.nums, _falling_row), a.den))


def from_falling(f: FallingElement) -> AlgebraElement:
    """Rewrite [D]_j in terms of D^s; inverse of to_falling."""
    if not isinstance(f, FallingElement):
        raise TypeError("expected a FallingElement")
    return AlgebraElement._raw(f.rank, (_change_basis(f.nums, _power_row), f.den))


def _psi_parity(j: int) -> int:
    # (-1)^j
    return -1 if j % 2 else 1


def _psi_weight(i: int, j: int, l: int) -> int:
    """Cocycle value on a matching pair of falling-basis words.

    psi(t^i [D]_j E[p,q], t^k [D]_l E[p',q']) is nonzero only for k = -i,
    p' = q, q' = p (the trace pairing of the matrix units) and then equals
    (-1)^j j! l! binom(i+j, j+l+1).
    """
    b = gen_binomial(i + j, j + l + 1)
    return b and _psi_parity(j) * math.factorial(j) * math.factorial(l) * b


def _psi_total(na: Mapping, nb: Mapping) -> int:
    # Sum of ca cb psi over pairs of falling words: a row (i, p, q) of a meets only the
    # row (-i, q, p) of b, and each pair of their nonzero entries weighs _psi_weight(i, j, l).
    total = 0
    for (i, p, q), fa in na.items():
        for l, cb in enumerate(nb.get((-i, q, p), ())):
            if cb:
                for j, ca in enumerate(fa):
                    if ca:
                        w = _psi_weight(i, j, l)
                        if w:
                            total += ca * cb * w
    return total


def _psi_points(r: int) -> range:
    """The points x = -r, ..., -1 of the closed form at t power r > 0."""
    return range(-r, 0)


def _descending(row) -> list:
    # The nonzero (j, c) of a D-row, highest j first, as _horner takes them.
    return [(j, row[j]) for j in range(len(row) - 1, -1, -1) if row[j]]


def _horner(words, x: int) -> int:
    # f(x) by Horner's rule over the (j, c) words of f in descending j, one x**gap a step,
    # so that a run of zero numerators costs one power, not one product per zero.
    acc, top = 0, words[0][0]
    for j, c in words:
        acc, top = acc * x ** (top - j) + c, j
    return acc * x**top


def _psi_closed(f, g, r: int) -> int:
    # Sum of f(x) g(x + r) over _psi_points(r); f, g are D-rows.
    f, g = _descending(f), _descending(g)
    return sum(_horner(f, x) * _horner(g, x + r) for x in _psi_points(r))


def cocycle_psi(a: AlgebraElement, b: AlgebraElement) -> Fraction:
    """The defining 2-cocycle of the central extension.

    In the Kac-Radul closed form: for r > 0,
    psi(t^r f(D) A, t^-r g(D) B) = tr(AB) sum_{x=-r}^{-1} f(x) g(x+r),
    antisymmetric for r < 0 and zero unless the t powers cancel.  A row
    (i, p, q) of a meets only the row (-i, q, p) of b; central parts of
    the inputs contribute nothing: C's row has i = 0.
    """
    _check_operands(a, b, AlgebraElement)
    nb, total = b.nums, 0
    for (i, p, q), f in a.nums.items():
        g = nb.get((-i, q, p))
        if g is None or not i:
            continue
        total += _psi_closed(f, g, i) if i > 0 else -_psi_closed(g, f, -i)
    return Fraction(total, a.den * b.den)


def central_bracket(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    """Bracket of the central extension: plain bracket plus psi(a, b) C."""
    return _products(a, b, True, cocycle_psi(a, b))


def bracket_falling_direct(a: FallingElement, b: FallingElement) -> FallingElement:
    """Centrally extended bracket computed entirely in the falling basis.

    For basis words t^i [D]_j A and t^k [D]_l B (A, B matrix units):

      sum_{s<=j} binom(j,s) [k+l]_s t^(i+k) [D]_(j+l-s) AB
    - sum_{s<=l} binom(l,s) [i+j]_s t^(i+k) [D]_(j+l-s) BA
    + psi-term on the central generator,

    where [n]_s is the integer falling power.  Must agree with converting
    to the power basis, applying central_bracket, and converting back.
    """
    na, nb = _operands(a, b, FallingElement)
    rows = _word_products(na, nb, True, True)
    rows[_C] = [_psi_total(na, nb)]
    return FallingElement._raw(a.rank, _reduced_rows(rows, a.den * b.den))


def homogeneous_components(a: AlgebraElement) -> dict[int, AlgebraElement]:
    """Split an element by principal grade; the zero element gives {}."""
    if not isinstance(a, AlgebraElement):
        raise TypeError("expected an AlgebraElement")
    buckets: dict[int, dict] = {}
    for (i, p, q), row in a.nums.items():  # every word of a row has one grade, C's 0
        grade = degree(Monomial(i, len(row) - 1, p, q), a.rank)
        buckets.setdefault(grade, {})[i, p, q] = row
    return {
        d: AlgebraElement._raw(a.rank, _reduced_rows(rows, a.den))
        for d, rows in sorted(buckets.items())
    }


def _sigma_sign(j: int) -> int:
    # (-1)^(j+1), the sign of sigma and of the twisted module family Vbar
    return 1 if j % 2 else -1


def sigma(a: AlgebraElement) -> AlgebraElement:
    """The order-2 twist automorphism of the centerless algebra.

    t^i D^j E[p,q] maps to (-1)^(j+1) t^i (D+i)^j E[q,p]; the identity
    matrix element maps to its negative.  Undefined on the extension, so a
    nonzero central part is rejected.
    """
    if not isinstance(a, AlgebraElement):
        raise TypeError("expected an AlgebraElement")
    if _C in a.nums:
        raise ValueError("sigma is defined on central-free elements only")
    out: dict = {}
    for (i, p, q), row in a.nums.items():  # row (i, p, q) goes to row (i, q, p) alone
        acc = out[i, q, p] = [0] * len(row)
        for j, c in enumerate(row):
            if c:
                c *= _sigma_sign(j)
                for u, w in _product_expansion(j, i):
                    acc[u] += c * w
    return AlgebraElement._raw(a.rank, _reduced_rows(out, a.den))


def embed_scalar(i: int, j: int, rank: int) -> AlgebraElement:
    """t^i D^j times the identity matrix: the scalar-operator embedding."""
    return AlgebraElement(
        rank, {Monomial(i, j, p, p): Fraction(1) for p in range(1, rank + 1)}
    )
