"""Seeded randomized and exhaustive small-box verification of the kernel
identities, producing a deterministic structured report.

Every comparison is exact; there are no tolerances anywhere.  Each check
draws from its own generator seeded by (seed, check name), so the report
is independent of execution order, and results are assembled sorted by
check name.  A failure is data in the report, not an exception.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field, fields
from fractions import Fraction
from itertools import product as iter_product
from typing import Callable, Iterator

from . import algebra, expr, reps
from .algebra import _C, AlgebraElement, FallingElement, Monomial
from .exact import _reduced_rows, gen_binomial
from .reps import Family, ModuleParams, ModuleVector

_FAMILIES = (Family.V, Family.VBAR)

# Generator box for the extremal-vector spot checks; the positive part of
# the algebra is generated from this box by repeated brackets with t.
_EXTREMAL_I_BOUND = 2
_EXTREMAL_J_BOUND = 2


@dataclass(frozen=True)
class SuiteConfig:
    """Knobs of a verification run.

    samples counts draws per rank (and per family/Jordan size where those
    apply); checks selects a subset by name, None meaning all.
    """

    ranks: tuple[int, ...] = (1, 2)
    i_bound: int = 3
    j_bound: int = 3
    m_values: tuple[int, ...] = (1, 2)
    samples: int = 200
    seed: int = 7
    checks: tuple[str, ...] | None = None

    def __post_init__(self):
        if not self.ranks or any(n < 1 for n in self.ranks):
            raise ValueError("ranks must be a nonempty list of positive integers")
        if self.i_bound < 0 or self.j_bound < 0:
            raise ValueError("bounds must be nonnegative")
        if not self.m_values or any(m < 1 for m in self.m_values):
            raise ValueError("m_values must be a nonempty list of positive integers")
        if self.samples < 1:
            raise ValueError("samples must be positive")
        if not (0 <= self.seed < 2**64):
            raise ValueError("seed must fit in 64 unsigned bits")


@dataclass(frozen=True)
class CheckResult:
    name: str
    samples: int
    passed: bool
    counterexample: str | None
    elapsed: float


@dataclass(frozen=True)
class Report:
    config: SuiteConfig
    results: tuple[CheckResult, ...] = field(default_factory=tuple)

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def to_json(self, include_timing: bool = True) -> dict:
        checks = []
        for r in self.results:
            row = {
                "name": r.name,
                "samples": r.samples,
                "passed": r.passed,
                "counterexample": r.counterexample,
            }
            if include_timing:
                row["elapsed_s"] = round(r.elapsed, 6)
            checks.append(row)
        config = {}
        for f in fields(SuiteConfig):
            value = getattr(self.config, f.name)
            config[f.name] = list(value) if isinstance(value, tuple) else value
        return {"passed": self.passed, "config": config, "checks": checks}

    def to_text(self) -> str:
        lines = []
        for r in self.results:
            status = "PASS" if r.passed else "FAIL"
            lines.append(f"[{status}] {r.name}  samples={r.samples}  time={r.elapsed:.3f}s")
            if r.counterexample is not None:
                lines.append(f"       counterexample: {r.counterexample}")
        failed = sum(1 for r in self.results if not r.passed)
        if not self.results:
            lines.append("result: PASS (no checks selected)")
        elif failed:
            lines.append(f"result: FAIL ({failed} of {len(self.results)} checks failed)")
        else:
            lines.append(f"result: PASS ({len(self.results)} checks)")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Samplers.  Everything below is fully determined by the passed-in rng.


def _below(bits, n: int) -> int:
    """Draw from range(n) by the calls to bits = rng.getrandbits that rng.randrange(n) makes."""
    k = n.bit_length()
    r = bits(k)
    while r >= n:
        r = bits(k)
    return r


def _sample_word(bits, rank: int, i_bound: int, j_bound: int) -> tuple[int, int, int, int]:
    i, j = _below(bits, 2 * i_bound + 1) - i_bound, _below(bits, j_bound + 1)
    return i, j, _below(bits, rank) + 1, _below(bits, rank) + 1


def sample_monomial(rng: random.Random, rank: int, i_bound: int, j_bound: int) -> Monomial:
    """Uniform draw from |i| <= i_bound, 0 <= j <= j_bound, p,q in [1,rank]."""
    return Monomial(*_sample_word(rng.getrandbits, rank, i_bound, j_bound))


def _sample_num(bits) -> int:
    """A small rational c/d (|c| <= 3, 1 <= d <= 3) as its numerator over 6 = lcm(1, 2, 3)."""
    return (-18, -12, -6, 6, 12, 18)[_below(bits, 6)] // (_below(bits, 3) + 1)


def _sample_coeff(rng: random.Random) -> Fraction:
    return Fraction(_sample_num(rng.getrandbits), 6)


def sample_element(
    rng: random.Random,
    rank: int,
    i_bound: int,
    j_bound: int,
    allow_central: bool = False,
    cls=AlgebraElement,
):
    """Short random combination (1-3 terms, small rational coefficients).

    cls is the element type built from the terms: AlgebraElement, or
    FallingElement to read j as a falling power.  The numerators are drawn
    over 6 and the element is built in normal form, bypassing validation.
    """
    bits = rng.getrandbits
    rows: dict[tuple[int, int, int], list[int]] = {}
    for _ in range(_below(bits, 3) + 1):
        i, j, p, q = _sample_word(bits, rank, i_bound, j_bound)
        rows.setdefault((i, p, q), [0] * (j_bound + 1))[j] += _sample_num(bits)
    rows[_C] = [_sample_num(bits) if allow_central and rng.random() < 0.3 else 0]
    return cls._raw(rank, _reduced_rows(rows, 6))


def sample_falling_element(
    rng: random.Random,
    rank: int,
    i_bound: int,
    j_bound: int,
    allow_central: bool = False,
) -> FallingElement:
    return sample_element(rng, rank, i_bound, j_bound, allow_central, FallingElement)


def sample_module_vector(
    rng: random.Random, params: ModuleParams, i_bound: int
) -> ModuleVector:
    """Short random vector; coefficients are degree <= 1 in the parameter,
    drawn over 6 (the linear one first) and built in normal form."""
    bits = rng.getrandbits
    nums: dict[tuple[int, int, int], list[int]] = {}
    for _ in range(_below(bits, 3) + 1):
        k = _below(bits, 2 * i_bound + 1) - i_bound
        key = (k, _below(bits, params.rank) + 1, _below(bits, params.m) + 1)
        linear = _sample_num(bits) if rng.random() < 0.5 else 0
        c0, c1 = nums.get(key, (0, 0))
        nums[key] = [c0 + _sample_num(bits), c1 + linear]
    return ModuleVector._raw(params, _reduced_rows(nums, 6))


# ---------------------------------------------------------------------------
# Checks.  Each takes (config, rng) and yields once per sample: None when
# the identity holds, else the counterexample printed in the CLI grammar.
# run_suite counts the samples and stops at the first counterexample.

_CHECKS: dict[str, Callable[[SuiteConfig, random.Random], Iterator[str | None]]] = {}


def _check(name: str):
    def register(fn):
        _CHECKS[name] = fn
        return fn

    return register


def available_checks() -> tuple[str, ...]:
    return tuple(sorted(_CHECKS))


def _witness(head: str, note: str | None = None, **named) -> str:
    """A counterexample: the head, each named input in the CLI grammar, then the note."""
    parts = [head]
    for name, value in named.items():
        if isinstance(value, FallingElement):
            value = expr.format_falling_element(value)
        elif isinstance(value, AlgebraElement):
            value = expr.format_element(value)
        else:
            value = expr.format_module_vector(value)
        parts.append(f"{name} = {value}")
    if note is not None:
        parts.append(note)
    return "; ".join(parts)


def _sampled(name: str, cases):
    """Register the decorated trial(cfg, rng, context) as a check of cfg.samples
    trials per (head, context) case of cases(cfg).  A trial returns None when the
    identity holds on its sample, else the named inputs (and note) for _witness."""

    def register(trial):
        @_check(name)
        def check(cfg, rng):
            for head, context in cases(cfg):
                for _ in range(cfg.samples):
                    failing = trial(cfg, rng, context)
                    yield None if failing is None else _witness(head, **failing)

        return trial

    return register


def _ranks(context=lambda n: n):
    """Cases: one per rank n, headed n=<n>, with context(n) as the context."""
    return lambda cfg: ((f"n={n}", context(n)) for n in cfg.ranks)


def _modules(*families):
    """Cases: one formal module per rank, family and Jordan size."""
    return lambda cfg: (
        (f"n={n} family={family.value} m={m}", ModuleParams.formal(family, n, m))
        for n, family, m in iter_product(cfg.ranks, families, cfg.m_values)
    )


def _identity(name: str, arity: int, fails, allow_central=False, cls=AlgebraElement):
    """Register a check that draws arity elements per rank and sample and
    fails on the sample when fails(*elements) is true."""

    @_sampled(name, _ranks())
    def trial(cfg, rng, n):
        xs = [
            sample_element(rng, n, cfg.i_bound, cfg.j_bound, allow_central, cls)
            for _ in range(arity)
        ]
        return dict(zip("abc", xs)) if fails(*xs) else None


def _cyclic(term):
    """fails(a, b, c): term summed over the cyclic permutations is nonzero."""
    return lambda a, b, c: bool(term(a, b, c) + term(b, c, a) + term(c, a, b))


_identity(
    "antisymmetry", 2,
    lambda a, b: algebra.central_bracket(a, b) != -algebra.central_bracket(b, a),
    allow_central=True,
)
_identity(
    "jacobi_plain", 3,
    _cyclic(lambda a, b, c: algebra.plain_bracket(a, algebra.plain_bracket(b, c))),
)
_identity(
    "jacobi_central", 3,
    _cyclic(lambda a, b, c: algebra.central_bracket(a, algebra.central_bracket(b, c))),
    allow_central=True,
)
_identity(
    "cocycle_identity", 3,
    _cyclic(lambda a, b, c: algebra.cocycle_psi(algebra.plain_bracket(a, b), c)),
)
_identity(
    "associativity", 3,
    lambda a, b, c: algebra.canonical_product(algebra.canonical_product(a, b), c)
    != algebra.canonical_product(a, algebra.canonical_product(b, c)),
)
_identity(
    "falling_agreement", 2,
    lambda a, b: algebra.bracket_falling_direct(a, b)
    != algebra.to_falling(
        algebra.central_bracket(algebra.from_falling(a), algebra.from_falling(b))
    ),
    allow_central=True,
    cls=FallingElement,
)
_identity(
    "sigma_bracket", 2,
    lambda a, b: algebra.sigma(algebra.plain_bracket(a, b))
    != algebra.plain_bracket(algebra.sigma(a), algebra.sigma(b)),
)
_identity("sigma_involution", 1, lambda a: algebra.sigma(algebra.sigma(a)) != a)


@_sampled("grading_additivity", _ranks())
def _grading_additivity(cfg, rng, n):
    ma = sample_monomial(rng, n, cfg.i_bound, cfg.j_bound)
    mb = sample_monomial(rng, n, cfg.i_bound, cfg.j_bound)
    a = AlgebraElement.term(n, *ma, coeff=_sample_coeff(rng))
    b = AlgebraElement.term(n, *mb, coeff=_sample_coeff(rng))
    expected = algebra.degree(ma, n) + algebra.degree(mb, n)
    comps = algebra.homogeneous_components(algebra.central_bracket(a, b))
    return dict(a=a, b=b) if any(d != expected for d in comps) else None


@_check("sigma_identity_sign")
def _check_sigma_identity_sign(cfg, rng):
    for n in cfg.ranks:
        ident = algebra.embed_scalar(0, 0, n)
        bad = algebra.sigma(ident) != -ident
        yield f"n={n}; sigma(identity) != -identity" if bad else None


@_sampled("twist_action", _ranks(lambda n: [ModuleParams.formal(f, n) for f in _FAMILIES]))
def _twist_action(cfg, rng, params):
    params_v, params_b = params
    x = sample_element(rng, params_v.rank, cfg.i_bound, cfg.j_bound)
    vb = sample_module_vector(rng, params_b, cfg.i_bound)
    image = reps.act(algebra.sigma(x), ModuleVector._raw(params_v, (vb.nums, vb.den)))
    bad = reps.act(x, vb) != ModuleVector._raw(params_b, (image.nums, image.den))
    return dict(x=x, v=vb) if bad else None


@_sampled("module_axiom_V", _modules(Family.V))
@_sampled("module_axiom_Vbar", _modules(Family.VBAR))
def _module_axiom(cfg, rng, params):
    n = params.rank
    x = sample_element(rng, n, cfg.i_bound, cfg.j_bound, allow_central=True)
    y = sample_element(rng, n, cfg.i_bound, cfg.j_bound, allow_central=True)
    v = sample_module_vector(rng, params, cfg.i_bound)
    lhs = reps.act(algebra.central_bracket(x, y), v)
    rhs = reps.act(x, reps.act(y, v)) - reps.act(y, reps.act(x, v))
    return dict(x=x, y=y, v=v) if lhs != rhs else None


@_sampled("pairing_contravariance", _ranks(lambda n: ModuleParams.formal(Family.VBAR, n)))
def _pairing_contravariance(cfg, rng, params_w):
    x = sample_element(rng, params_w.rank, cfg.i_bound, cfg.j_bound)
    w = sample_module_vector(rng, params_w, cfg.i_bound)
    v = sample_module_vector(rng, params_w.dual(), cfg.i_bound)
    lhs = reps.pairing(reps.act(x, w), v)
    rhs = -reps.pairing(w, reps.act(x, v))
    return dict(x=x, w=w, v=v) if lhs != rhs else None


@_check("matrix_unit_bracket")
def _check_matrix_unit_bracket(cfg, rng):
    # [D E[p,q], t E[p',q']] = [q = p'] (t + t D) E[p,q'] - [q' = p] t D E[p',q],
    # exhaustive over matrix slots.
    for n in cfg.ranks:
        for p, q, pp, qq in iter_product(range(1, n + 1), repeat=4):
            a = AlgebraElement.term(n, 0, 1, p, q)
            b = AlgebraElement.term(n, 1, 0, pp, qq)
            left, right = int(q == pp), -int(qq == p)
            words = [((1, 0, p, qq), left), ((1, 1, p, qq), left), ((1, 1, pp, q), right)]
            bad = algebra.central_bracket(a, b) != AlgebraElement(n, words)
            yield f"n={n}; a = D E[{p},{q}]; b = t E[{pp},{qq}]" if bad else None


@_check("vector_field_bracket")
def _check_vector_field_bracket(cfg, rng):
    # [t^i [D]_1, t^k] = k t^(i+k) - delta(i,-k) binom(i+1, 2) N C on the
    # scalar embedding, checked both directly in the falling basis and
    # through the power-basis bracket.
    for n in cfg.ranks:
        diag = range(1, n + 1)
        for i in range(-cfg.i_bound, cfg.i_bound + 1):
            for k in range(-cfg.i_bound, cfg.i_bound + 1):
                a = FallingElement(n, {Monomial(i, 1, p, p): 1 for p in diag})
                b = FallingElement(n, {Monomial(k, 0, p, p): 1 for p in diag})
                terms = {Monomial(i + k, 0, p, p): Fraction(k) for p in diag} if k else {}
                central = -gen_binomial(i + 1, 2) * n if i == -k else Fraction(0)
                expected = FallingElement(n, terms, central)
                direct = algebra.bracket_falling_direct(a, b)
                via = algebra.to_falling(
                    algebra.central_bracket(algebra.from_falling(a), algebra.from_falling(b))
                )
                bad = direct != expected or via != expected
                yield f"n={n}; i={i}; k={k}" if bad else None


@_check("grade_bijection")
def _check_grade_bijection(cfg, rng):
    for n in cfg.ranks:
        for family in _FAMILIES:
            params = ModuleParams.formal(family, n)
            for g in range(-100, 101):
                k, r = reps.slot_of_grade(params, g)
                bad = not (1 <= r <= n) or reps.grade_index(params, k, r) != g
                yield f"n={n} family={family.value}; grade={g}" if bad else None
            seen: set[int] = set()
            for k in range(-25, 26):
                for r in range(1, n + 1):
                    g = reps.grade_index(params, k, r)
                    bad = g in seen or reps.slot_of_grade(params, g) != (k, r)
                    yield f"n={n} family={family.value}; k={k} r={r}" if bad else None
                    seen.add(g)


@_sampled("module_grading", _modules(*_FAMILIES))
def _module_grading(cfg, rng, params):
    n = params.rank
    mono = sample_monomial(rng, n, cfg.i_bound, cfg.j_bound)
    x = AlgebraElement.term(n, *mono)
    k = rng.randint(-cfg.i_bound, cfg.i_bound)
    r = rng.randint(1, n)
    s = rng.randint(1, params.m)
    v = ModuleVector.basis(params, k, r, s)
    shift = algebra.degree(mono, n)
    base = reps.grade_index(params, k, r)
    image = reps.act(x, v)
    bad = any(
        reps.grade_index(params, k2, r2) != base + shift for (k2, r2, _s2) in image.nums
    )
    return dict(x=x, v=v) if bad else None


def _extremal_boxes(n):
    """The formal rank-n family-V module and the box generators of each sign."""
    positive, negative = [], []
    for d, mono in reps._generator_box(n, _EXTREMAL_I_BOUND, _EXTREMAL_J_BOUND):
        if d:
            (positive if d > 0 else negative).append(AlgebraElement.term(n, *mono))
    return ModuleParams.formal(Family.V, n), positive, negative


@_sampled("no_hw_lw", _ranks(_extremal_boxes))
def _no_hw_lw(cfg, rng, box):
    # With a formal parameter no vector of the generic family-V module is
    # extremal: some bounded generator of positive grade and some of
    # negative grade must act nonzero on every homogeneous vector.
    params, positive, negative = box
    k = rng.randint(-cfg.i_bound, cfg.i_bound)
    r = rng.randint(1, params.rank)
    v = ModuleVector(params, [((k, r, 1), _sample_coeff(rng))])
    for sign, gens in (("positive", positive), ("negative", negative)):
        if not any(reps.act(g, v) for g in gens):
            return dict(v=v, note=f"annihilated by the {sign} box")
    return None


# ---------------------------------------------------------------------------


def run_suite(config: SuiteConfig) -> Report:
    """Run the selected checks and assemble a deterministic report."""
    if config.checks is None:
        names = sorted(_CHECKS)
    else:
        for name in config.checks:
            if name not in _CHECKS:
                raise ValueError(f"unknown check name: {name}")
        names = sorted(set(config.checks))
    results = []
    for name in names:
        rng = random.Random(f"{config.seed}:{name}")
        start = time.perf_counter()
        samples, counterexample = 0, None
        for samples, counterexample in enumerate(_CHECKS[name](config, rng), 1):
            if counterexample is not None:
                break
        elapsed = time.perf_counter() - start
        results.append(
            CheckResult(name, samples, counterexample is None, counterexample, elapsed)
        )
    return Report(config=config, results=tuple(results))
