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
from .algebra import AlgebraElement, FallingElement, Monomial
from .exact import Poly, gen_binomial
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


def sample_monomial(rng: random.Random, rank: int, i_bound: int, j_bound: int) -> Monomial:
    """Uniform draw from |i| <= i_bound, 0 <= j <= j_bound, p,q in [1,rank]."""
    return Monomial(
        rng.randint(-i_bound, i_bound),
        rng.randint(0, j_bound),
        rng.randint(1, rank),
        rng.randint(1, rank),
    )


def _sample_num(rng: random.Random) -> int:
    """A small rational c/d (|c| <= 3, 1 <= d <= 3) as its numerator over 6 = lcm(1, 2, 3)."""
    return rng.choice((-3, -2, -1, 1, 2, 3)) * 6 // rng.randint(1, 3)


def _sample_coeff(rng: random.Random) -> Fraction:
    return Fraction(_sample_num(rng), 6)


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
    nums: dict[tuple[int, int, int, int], int] = {}
    for _ in range(rng.randint(1, 3)):
        key = tuple(sample_monomial(rng, rank, i_bound, j_bound))
        nums[key] = nums.get(key, 0) + _sample_num(rng)
    central = _sample_coeff(rng) if allow_central and rng.random() < 0.3 else 0
    return cls._raw(rank, algebra._from_ints(nums.items(), 6), central)


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
    """Short random vector; coefficients are degree <= 1 in the parameter."""
    entries: dict[tuple[int, int, int], Poly] = {}
    zero = Poly(())
    for _ in range(rng.randint(1, 3)):
        key = (
            rng.randint(-i_bound, i_bound),
            rng.randint(1, params.rank),
            rng.randint(1, params.m),
        )
        linear = _sample_coeff(rng) if rng.random() < 0.5 else 0
        poly = Poly((_sample_coeff(rng), linear))
        entries[key] = entries.get(key, zero) + poly
    return ModuleVector(params, entries)


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


def _witness(head: str, **named) -> str:
    """A counterexample: the head, then each named input in the CLI grammar."""
    parts = [head]
    for name, value in named.items():
        if isinstance(value, FallingElement):
            value = expr.format_falling_element(value)
        elif isinstance(value, AlgebraElement):
            value = expr.format_element(value)
        else:
            value = expr.format_module_vector(value)
        parts.append(f"{name} = {value}")
    return "; ".join(parts)


def _identity(name: str, arity: int, fails, allow_central=False, cls=AlgebraElement):
    """Register a check that draws arity elements per rank and sample and
    fails on the sample when fails(*elements) is true."""

    def check(cfg, rng):
        for n in cfg.ranks:
            for _ in range(cfg.samples):
                xs = [
                    sample_element(rng, n, cfg.i_bound, cfg.j_bound, allow_central, cls)
                    for _ in range(arity)
                ]
                yield _witness(f"n={n}", **dict(zip("abc", xs))) if fails(*xs) else None

    _CHECKS[name] = check


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


@_check("grading_additivity")
def _check_grading_additivity(cfg, rng):
    for n in cfg.ranks:
        for _ in range(cfg.samples):
            ma = sample_monomial(rng, n, cfg.i_bound, cfg.j_bound)
            mb = sample_monomial(rng, n, cfg.i_bound, cfg.j_bound)
            a = AlgebraElement.term(n, *ma, coeff=_sample_coeff(rng))
            b = AlgebraElement.term(n, *mb, coeff=_sample_coeff(rng))
            expected = algebra.degree(ma, n) + algebra.degree(mb, n)
            comps = algebra.homogeneous_components(algebra.central_bracket(a, b))
            bad = any(d != expected for d in comps)
            yield _witness(f"n={n}", a=a, b=b) if bad else None


@_check("sigma_identity_sign")
def _check_sigma_identity_sign(cfg, rng):
    for n in cfg.ranks:
        ident = algebra.embed_scalar(0, 0, n)
        bad = algebra.sigma(ident) != -ident
        yield f"n={n}; sigma(identity) != -identity" if bad else None


@_check("twist_action")
def _check_twist_action(cfg, rng):
    for n in cfg.ranks:
        params_v = ModuleParams.formal(Family.V, n)
        params_b = ModuleParams.formal(Family.VBAR, n)
        for _ in range(cfg.samples):
            x = sample_element(rng, n, cfg.i_bound, cfg.j_bound)
            vb = sample_module_vector(rng, params_b, cfg.i_bound)
            v = ModuleVector(params_v, vb.entries)
            lhs = reps.act(x, vb)
            rhs = reps.act(algebra.sigma(x), v)
            bad = lhs.entries != rhs.entries
            yield _witness(f"n={n}", x=x, v=vb) if bad else None


def _module_axiom(cfg, rng, family):
    for n in cfg.ranks:
        for m in cfg.m_values:
            params = ModuleParams.formal(family, n, m)
            for _ in range(cfg.samples):
                x = sample_element(rng, n, cfg.i_bound, cfg.j_bound, allow_central=True)
                y = sample_element(rng, n, cfg.i_bound, cfg.j_bound, allow_central=True)
                v = sample_module_vector(rng, params, cfg.i_bound)
                lhs = reps.act(algebra.central_bracket(x, y), v)
                rhs = reps.act(x, reps.act(y, v)) - reps.act(y, reps.act(x, v))
                head = f"n={n} family={family.value} m={m}"
                yield _witness(head, x=x, y=y, v=v) if lhs != rhs else None


@_check("module_axiom_V")
def _check_module_axiom_v(cfg, rng):
    return _module_axiom(cfg, rng, Family.V)


@_check("module_axiom_Vbar")
def _check_module_axiom_vbar(cfg, rng):
    return _module_axiom(cfg, rng, Family.VBAR)


@_check("pairing_contravariance")
def _check_pairing_contravariance(cfg, rng):
    for n in cfg.ranks:
        params_w = ModuleParams.formal(Family.VBAR, n)
        params_v = params_w.dual()
        for _ in range(cfg.samples):
            x = sample_element(rng, n, cfg.i_bound, cfg.j_bound)
            w = sample_module_vector(rng, params_w, cfg.i_bound)
            v = sample_module_vector(rng, params_v, cfg.i_bound)
            lhs = reps.pairing(reps.act(x, w), v)
            rhs = -reps.pairing(w, reps.act(x, v))
            yield _witness(f"n={n}", x=x, w=w, v=v) if lhs != rhs else None


@_check("matrix_unit_bracket")
def _check_matrix_unit_bracket(cfg, rng):
    # Closed form of [D E[p,q], t E[p',q']], exhaustive over matrix slots.
    for n in cfg.ranks:
        for p, q, pp, qq in iter_product(range(1, n + 1), repeat=4):
            a = AlgebraElement.term(n, 0, 1, p, q)
            b = AlgebraElement.term(n, 1, 0, pp, qq)
            rhs_terms: dict[Monomial, Fraction] = {}
            if q == pp:
                for key in (Monomial(1, 0, p, qq), Monomial(1, 1, p, qq)):
                    rhs_terms[key] = rhs_terms.get(key, Fraction(0)) + 1
            if qq == p:
                key = Monomial(1, 1, pp, q)
                rhs_terms[key] = rhs_terms.get(key, Fraction(0)) - 1
            bad = algebra.central_bracket(a, b) != AlgebraElement(n, rhs_terms)
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


@_check("module_grading")
def _check_module_grading(cfg, rng):
    for n in cfg.ranks:
        for family in _FAMILIES:
            for m in cfg.m_values:
                params = ModuleParams.formal(family, n, m)
                for _ in range(cfg.samples):
                    mono = sample_monomial(rng, n, cfg.i_bound, cfg.j_bound)
                    x = AlgebraElement.term(n, *mono)
                    k = rng.randint(-cfg.i_bound, cfg.i_bound)
                    r = rng.randint(1, n)
                    s = rng.randint(1, m)
                    v = ModuleVector.basis(params, k, r, s)
                    shift = algebra.degree(mono, n)
                    base = reps.grade_index(params, k, r)
                    image = reps.act(x, v)
                    bad = any(
                        reps.grade_index(params, k2, r2) != base + shift
                        for (k2, r2, _s2) in image.entries
                    )
                    head = f"n={n} family={family.value} m={m}"
                    yield _witness(head, x=x, v=v) if bad else None


@_check("no_hw_lw")
def _check_no_hw_lw(cfg, rng):
    # With a formal parameter no vector of the generic family-V module is
    # extremal: some bounded generator of positive grade and some of
    # negative grade must act nonzero on every homogeneous vector.
    for n in cfg.ranks:
        params = ModuleParams.formal(Family.V, n)
        monos = [
            Monomial(i, j, p, q)
            for i in range(-_EXTREMAL_I_BOUND, _EXTREMAL_I_BOUND + 1)
            for j in range(_EXTREMAL_J_BOUND + 1)
            for p in range(1, n + 1)
            for q in range(1, n + 1)
        ]
        positive = [AlgebraElement.term(n, *g) for g in monos if algebra.degree(g, n) > 0]
        negative = [AlgebraElement.term(n, *g) for g in monos if algebra.degree(g, n) < 0]
        for _ in range(cfg.samples):
            k = rng.randint(-cfg.i_bound, cfg.i_bound)
            r = rng.randint(1, n)
            v = ModuleVector(params, {(k, r, 1): Poly((_sample_coeff(rng),))})
            if not any(reps.act(g, v) for g in positive):
                yield _witness(f"n={n}", v=v) + "; annihilated by the positive box"
            elif not any(reps.act(g, v) for g in negative):
                yield _witness(f"n={n}", v=v) + "; annihilated by the negative box"
            else:
                yield None


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
