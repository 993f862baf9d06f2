"""Intermediate-series module families and their structure maps.

Two families act on the same index set: family V carries the natural
action of the operator algebra, family Vbar the twisted one obtained by
composing with the sigma automorphism.  Tensoring with a Jordan block of
size m replaces the scalar module parameter by an indecomposable
transformation; the central generator acts as zero on every family.

A vector is a finite combination of basis slots (k, r, s), where k shifts
the parameter exponent, r picks the matrix slot, and s the Jordan slot,
with coefficients polynomial in the parameter.  It is an exact.RowSum, as
an element is: each slot maps to a tuple of integer numerators, in
ascending powers of the parameter, over one denominator shared by the whole
vector.  act and pairing loop on these rows, act reads the element's D-rows
as they are (C's row, of matrix slot 0, meets no slot of a vector), and
.entries builds one Poly per slot on each read.
"""

from __future__ import annotations

from enum import Enum

from . import algebra
from .exact import (
    DimensionError, Poly, RowSum, _jordan_power_cached, _mul_add, _reduced, _reduced_rows
)


class Family(Enum):
    V = "V"
    VBAR = "Vbar"


class ModuleParams:
    """Which module a vector lives in.

    param is the module parameter as a polynomial in the formal
    indeterminate: the indeterminate itself for the generic module, a
    constant for a specialization, and the negated indeterminate for the
    pairing partner.  m is the Jordan block size (m = 1 is the plain
    intermediate-series case).  It is a value of its four fields but no
    tuple: unlike a NamedTuple, it equals no tuple of them.
    """

    def __init__(self, family: Family, rank: int, m: int = 1, param: Poly = Poly.var()):
        param = param if type(param) is Poly else Poly.const(param)
        # The four fields are the instance dict, which copy and pickle restore as it is.
        vars(self).update(family=family, rank=rank, m=m, param=param)
        if type(rank) is not int or rank < 1:
            raise DimensionError("rank must be a positive integer")
        if type(m) is not int or m < 1:
            raise ValueError("Jordan block size must be positive")

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return vars(self) == vars(other)

    def __hash__(self) -> int:
        return hash(tuple(vars(self).values()))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in vars(self).items())
        return f"ModuleParams({fields})"

    @staticmethod
    def formal(family: Family, rank: int, m: int = 1) -> ModuleParams:
        return ModuleParams(family, rank, m, Poly.var())

    @staticmethod
    def specialized(family: Family, rank: int, m: int, value) -> ModuleParams:
        return ModuleParams(family, rank, m, Poly.const(value))

    def dual(self) -> ModuleParams:
        """Parameters of the pairing partner: family V, negated parameter."""
        return ModuleParams(Family.V, self.rank, self.m, -self.param)


class ModuleVector(RowSum):
    """Finite-support module vector with Poly coefficients, stored as an element is
    (exact.RowSum): nums, (k, r, s) -> int tuple by power of the parameter, over den;
    .entries builds the Polys on each read.  Its constructor is RowSum's, ModuleVector(params,
    entries), entries a mapping or (slot, coefficient) pairs; repeated slots add up."""

    __slots__ = ()
    params = RowSum.ctx

    @staticmethod
    def _word(params: ModuleParams, slot) -> tuple:
        k, r, s = slot
        if not (type(k) is type(r) is type(s) is int):
            raise TypeError(f"indices of slot {slot} must be ints")
        if not (1 <= r <= params.rank):
            raise DimensionError(f"matrix slot {r} out of range for rank {params.rank}")
        if not (1 <= s <= params.m):
            raise DimensionError(f"Jordan slot {s} out of range for m = {params.m}")
        return (k, r, s), 0

    _scalar = staticmethod(Poly._scalar)

    @staticmethod
    def basis(params: ModuleParams, k: int, r: int, s: int = 1) -> ModuleVector:
        return ModuleVector(params, [((k, r, s), 1)])

    @property
    def entries(self) -> dict[tuple[int, int, int], Poly]:
        return {key: _reduced(list(row), self.den) for key, row in self.nums.items()}

    def __repr__(self) -> str:
        return f"ModuleVector({self.params!r}, {sorted(self.entries.items())!r})"


def act(x: algebra.AlgebraElement, v: ModuleVector) -> ModuleVector:
    """Apply an operator to a module vector.

    Family V:    (t^i D^j E[p,q]) v[k,q] = (param+k)^j v[i+k,p]
    Family Vbar: (t^i D^j E[p,q]) v[k,p] = (-1)^(j+1) (param+i+k)^j v[i+k,q]

    with the shifted power acting on the Jordan slot as the m x m matrix
    (param+shift)*id + J raised to the j-th power, J the upper-shift
    nilpotent: it sends Jordan slot s to slot s-d with weight band[d], the
    band of _jordan_power_cached.  The central coefficient of x acts as zero.
    The sums run on the integer numerators of x and v, each band over
    param.den ** j and each word lifted once to param.den ** j_max (j_max the
    highest D power in x), and the output is normalised by one gcd pass.
    """
    if not isinstance(x, algebra.AlgebraElement):
        raise TypeError("operators act through AlgebraElement values")
    params = v.params
    if x.rank != params.rank:
        raise DimensionError("operator and vector ranks differ")
    twisted = params.family is Family.VBAR
    m = params.m
    pnums, pden = params.param.row, params.param.den
    slots: dict[int, list] = {}
    for (k, r, s), cv in v.nums.items():
        slots.setdefault(r, []).append((k, s, cv))
    j_max = max(map(len, x.nums.values()), default=1) - 1
    out: dict[tuple[int, int, int], list] = {}
    for (i, p, q), x_row in x.nums.items():
        source, target = (p, q) if twisted else (q, p)
        partners = slots.get(source)
        if partners is None:  # no slot of v meets this row
            continue
        for j, cx in enumerate(x_row):
            if not cx:
                continue
            cx *= pden ** (j_max - j)  # the band over pden**j, lifted to pden**j_max
            if twisted:
                cx *= algebra._sigma_sign(j)
            for k, s, cv in partners:
                band = _jordan_power_cached(pnums, pden, i + k if twisted else k, m, j)
                for d, row in enumerate(band[:s]):
                    acc = out.setdefault((i + k, target, s - d), [])
                    acc += [0] * (len(cv) + len(row) - 1 - len(acc))
                    _mul_add(acc, cv, row, cx)
    return ModuleVector._raw(params, _reduced_rows(out, x.den * v.den * pden**j_max))


def grade_index(params: ModuleParams, k: int, r: int) -> int:
    """Integer grade of the basis slot (k, r); the Jordan slot is ungraded.

    Family V uses grade = k*rank + r - 1, family Vbar grade = k*rank
    + rank - r; both are bijections between (k, r) pairs and integers.
    """
    n = params.rank
    if not (1 <= r <= n):
        raise ValueError(f"matrix slot {r} out of range for rank {n}")
    if params.family is Family.V:
        return k * n + r - 1
    return k * n + n - r


def slot_of_grade(params: ModuleParams, grade: int) -> tuple[int, int]:
    """Inverse of grade_index."""
    n = params.rank
    k, rem = divmod(grade, n)
    if params.family is Family.V:
        return k, rem + 1
    return k, n - rem


def pairing(w: ModuleVector, v: ModuleVector) -> Poly:
    """Contravariant bilinear pairing of a Vbar vector against a V vector.

    Defined on basis slots by <w[k,p], v[k',q]> = 1 when k + k' = 0 and
    p = q, else 0.  The second argument must carry the negated parameter
    (see ModuleParams.dual); both sides must have m = 1.
    """
    if w.params.rank != v.params.rank:
        raise DimensionError("vector ranks differ")
    if w.params.family is not Family.VBAR or v.params.family is not Family.V:
        raise ValueError("pairing takes a Vbar vector first and a V vector second")
    if w.params.m != 1 or v.params.m != 1:
        raise ValueError("pairing is defined for m = 1 only")
    if v.params.param != -w.params.param:
        raise ValueError("pairing partner must carry the negated parameter")
    vn, total = v.nums, []
    for (k, p, _s), cw in w.nums.items():
        cv = vn.get((-k, p, 1))
        if cv is not None:
            total.extend([0] * (len(cw) + len(cv) - 1 - len(total)))
            _mul_add(total, cw, cv)
    return _reduced(total, w.den * v.den)
