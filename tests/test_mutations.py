"""Mutation sensitivity of the verification suite.

Each named check must fail under at least one documented single-site
corruption of the kernel.  Mutations are applied by monkeypatching
module-level helpers; the suite reaches the kernel through module
attributes, so the patches take effect without test-only hooks in the
shipped code.  The timing-free report of each run, unmutated and under
each mutation, must match tests/golden/mutation_reports.json (see
tests/test_golden.py on recording it).
"""

import json
import math
from contextlib import contextmanager
from pathlib import Path

import pytest

import mdop.algebra as algebra
import mdop.exact as exact
import mdop.reps as reps
from mdop.exact import gen_binomial
from mdop.reps import ModuleVector
from mdop.verify import SuiteConfig, available_checks, run_suite

CFG = SuiteConfig(ranks=(1, 2), samples=40, seed=11, m_values=(1, 2))
REPORTS = Path(__file__).resolve().parent / "golden" / "mutation_reports.json"
_GOLDEN = json.loads(REPORTS.read_text())

_ORIG_PSI = algebra.cocycle_psi
_ORIG_ADD_PRODUCTS = algebra._add_products
_ORIG_GRADE = reps.grade_index
_ORIG_ACT = reps.act
_ORIG_POWER = exact._power
# The memos that hold expansions read from _power, emptied around each mutated run.
_CACHES = (algebra._product_expansion, exact._jordan_power_cached)


def _negated_cocycle(a, b):
    return -_ORIG_PSI(a, b)


def _psi_points_past_zero(r):
    # The closed form summed over x = -r, ..., 0: one point too many.
    return range(-r, 1)


def _unsigned_products(rows, na, nb, sign, falling=False):
    # Every product added with sign +1, so a commutator becomes ab + ba.
    _ORIG_ADD_PRODUCTS(rows, na, nb, 1, falling)


def _truncated_expansion(j, k):
    # Drop every s > 0 summand of (D + k)^j.
    return ((j, 1),)


def _biased_expansion(j, k):
    out = []
    for s in range(j + 1):
        c = gen_binomial(j, s) * (k + 1) ** s
        if c:
            out.append((j - s, c))
    return tuple(out)


def _biased_power(base, exponent):
    # The linear branch of _power expanding (c0 + 1 + c1 x)^j: its constant biased by one.
    if len(base) != 2:
        return _ORIG_POWER(base, exponent)
    c0, c1 = base
    return [
        math.comb(exponent, e) * (c0 + 1) ** (exponent - e) * c1**e for e in range(exponent + 1)
    ]


def _shifted_grade(params, k, r):
    return _ORIG_GRADE(params, k, r) + 1


def _act_zeroed_on_positive(x, v):
    if x.terms and all(algebra.degree(m, x.rank) > 0 for m in x.terms):
        return ModuleVector.zero(v.params)
    return _ORIG_ACT(x, v)


class _AlgebraWithoutTwistSign:
    """The algebra module as reps.act reads it, with the twist sign dropped.

    Only the Vbar action sees the constant sign; sigma keeps its own.
    """

    _sigma_sign = staticmethod(lambda j: 1)

    def __getattr__(self, name):
        return getattr(algebra, name)


def _act_target_shifted(x, v):
    image = _ORIG_ACT(x, v)
    return ModuleVector(
        image.params, {(k + 1, r, s): c for (k, r, s), c in image.entries.items()}
    )


# (mutation name, target module or modules, attribute, replacement, checks observed to fail)
MUTATIONS = [
    (
        "cocycle_sign_flip",
        algebra, "cocycle_psi", _negated_cocycle,
        {"falling_agreement", "vector_field_bracket"},
    ),
    (
        # Only the falling-basis bracket reads the parity; the power-basis
        # cocycle is the closed form, so the two routes disagree.
        "cocycle_parity_dropped",
        algebra, "_psi_parity", lambda j: 1,
        {"falling_agreement", "vector_field_bracket"},
    ),
    (
        # The closed form is antisymmetric by construction, so antisymmetry holds.
        "cocycle_range_off_by_one",
        algebra, "_psi_points", _psi_points_past_zero,
        {"cocycle_identity", "falling_agreement", "jacobi_central", "vector_field_bracket"},
    ),
    (
        # Both bracket routes lose the sign alike, so falling_agreement holds.
        "commutator_sign_dropped",
        algebra, "_add_products", _unsigned_products,
        {
            "antisymmetry", "jacobi_central", "jacobi_plain", "matrix_unit_bracket",
            "module_axiom_V", "module_axiom_Vbar", "sigma_bracket", "vector_field_bracket",
        },
    ),
    (
        "product_sum_truncated",
        algebra, "_product_expansion", _truncated_expansion,
        {
            "cocycle_identity", "falling_agreement", "jacobi_central",
            "matrix_unit_bracket", "module_axiom_V", "module_axiom_Vbar",
            "twist_action", "vector_field_bracket",
        },
    ),
    (
        "product_shift_biased",
        algebra, "_product_expansion", _biased_expansion,
        {
            "associativity", "cocycle_identity", "falling_agreement",
            "jacobi_central", "jacobi_plain", "matrix_unit_bracket",
            "module_axiom_V", "module_axiom_Vbar", "sigma_bracket",
            "twist_action", "vector_field_bracket",
        },
    ),
    (
        # The one binomial expansion behind products, sigma and act's Jordan bands, patched
        # at both bindings that read it.  With warm caches no check fails, hence _mutated.
        "power_shift_biased",
        (exact, algebra), "_power", _biased_power,
        {
            "associativity", "cocycle_identity", "falling_agreement",
            "jacobi_central", "jacobi_plain", "matrix_unit_bracket",
            "module_axiom_V", "module_axiom_Vbar", "pairing_contravariance",
            "sigma_bracket", "twist_action", "vector_field_bracket",
        },
    ),
    (
        # The sign dropped in the Vbar action only, as reps reaches it.
        "twist_sign_dropped",
        reps, "algebra", _AlgebraWithoutTwistSign(),
        {"module_axiom_Vbar", "pairing_contravariance", "twist_action"},
    ),
    (
        # One sign serves sigma and the Vbar action, so twist_action, which
        # compares the two, still holds when both lose it.
        "sigma_sign_dropped",
        algebra, "_sigma_sign", lambda j: 1,
        {
            "module_axiom_Vbar", "pairing_contravariance", "sigma_bracket",
            "sigma_identity_sign", "sigma_involution",
        },
    ),
    (
        "degree_mutated",
        algebra, "degree", lambda m, n: m.i * n + m.p + m.q,
        {"grading_additivity", "module_grading", "no_hw_lw"},
    ),
    (
        "grade_forward_shifted",
        reps, "grade_index", _shifted_grade,
        {"grade_bijection"},
    ),
    (
        "act_zeroed_on_positive",
        reps, "act", _act_zeroed_on_positive,
        {"module_axiom_V", "module_axiom_Vbar", "no_hw_lw", "twist_action"},
    ),
    (
        "act_target_shifted",
        reps, "act", _act_target_shifted,
        {"module_axiom_V", "module_axiom_Vbar", "module_grading", "pairing_contravariance"},
    ),
]


@pytest.mark.parametrize(
    "name,module,attr,replacement,expected",
    MUTATIONS,
    ids=[m[0] for m in MUTATIONS],
)
def test_mutation_is_detected(name, module, attr, replacement, expected):
    with _mutated(module, attr, replacement):
        report = run_suite(CFG)
    failed = {r.name for r in report.results if not r.passed}
    assert expected <= failed
    # A failing check must carry a replayable counterexample.
    for row in report.results:
        if not row.passed:
            assert row.counterexample
    assert timing_free(report) == _GOLDEN[name]


def test_every_check_is_covered_by_some_mutation():
    covered = set()
    for _, _, _, _, expected in MUTATIONS:
        covered |= expected
    assert covered == set(available_checks())


def test_unmutated_suite_passes():
    report = run_suite(CFG)
    assert report.passed
    assert timing_free(report) == _GOLDEN["unmutated"]


@contextmanager
def _mutated(modules, attr, replacement):
    """attr replaced at each of modules (a module or a tuple of them), with _CACHES
    emptied on entry and on exit, so that no run reads an expansion cached by another."""
    for cache in _CACHES:
        cache.cache_clear()
    try:
        with pytest.MonkeyPatch.context() as patch:
            for module in modules if isinstance(modules, tuple) else (modules,):
                patch.setattr(module, attr, replacement)
            yield
    finally:
        for cache in _CACHES:
            cache.cache_clear()


def timing_free(report) -> dict:
    """The report as JSON without timing, in the form the golden file holds."""
    return json.loads(json.dumps(report.to_json(include_timing=False)))


def mutation_reports() -> dict:
    """timing_free(run_suite(CFG)) unmutated and under each mutation, by name."""
    reports = {"unmutated": timing_free(run_suite(CFG))}
    for name, module, attr, replacement, _ in MUTATIONS:
        with _mutated(module, attr, replacement):
            reports[name] = timing_free(run_suite(CFG))
    return reports

