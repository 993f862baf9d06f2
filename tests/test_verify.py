"""Verification suite plumbing: determinism, sampling, report shape."""

import os
import random
import threading
from fractions import Fraction

import pytest

from mdop import algebra as algebra_module
from mdop import expr
from mdop import reps as reps_module
from mdop import shares as shares_module
from mdop.algebra import AlgebraElement, FallingElement, Monomial
from mdop.exact import Poly
from mdop.reps import Family, ModuleParams, ModuleVector, act
from mdop.verify import (
    SuiteConfig,
    _extremal_boxes,
    _sample_coeff,
    available_checks,
    run_suite,
    sample_element,
    sample_falling_element,
    sample_module_vector,
    sample_monomial,
)
from row_store import assert_rows_normal
from test_mutations import assert_no_child_left, force_shares, timing_free

SMALL = SuiteConfig(ranks=(1, 2), samples=20, seed=7)


class TestSampling:
    def test_golden_first_draw(self):
        rng = random.Random(42)
        assert sample_monomial(rng, 2, 3, 3) == Monomial(2, 0, 1, 2)

    def test_singleton_box(self):
        rng = random.Random(0)
        for _ in range(20):
            assert sample_monomial(rng, 1, 0, 0) == Monomial(0, 0, 1, 1)

    @pytest.mark.parametrize(
        "seed,vectors,next_bits",
        [
            (
                5,
                [
                    "(-a + 2)*v[-3,1,1] - 2/3*v[-1,2,1] + 1/2*v[1,1,1]",
                    "-3*v[3,2]",
                    "(1/2a - 3/2)*v[-2,1,3] + (-3a - 2)*v[1,1,1] + (-2/3a + 1)*v[3,1,2]",
                ],
                1782010769,
            ),
            (
                2026,
                [
                    "2/3*v[-1,1,1]",
                    "(-3/2a - 1)*v[-2,1] + v[3,3]",
                    "(2/3a - 1/2)*v[1,1,3] + (-1/2a + 1/3)*v[2,1,1]",
                ],
                1964723331,
            ),
        ],
    )
    def test_golden_first_vector_draws(self, seed, vectors, next_bits):
        # The draws and the generator state after them are pinned: the
        # default suite and the benchmark's act/pair inputs depend on both.
        rng = random.Random(seed)
        shapes = ((Family.V, 2, 2), (Family.VBAR, 3, 1), (Family.V, 1, 3))
        drawn = [
            sample_module_vector(rng, ModuleParams.formal(family, n, m), 3)
            for family, n, m in shapes
        ]
        assert [expr.format_module_vector(v) for v in drawn] == vectors
        assert rng.getrandbits(32) == next_bits

    @pytest.mark.parametrize("value", [Fraction(-1, 3), Fraction(5, 2), 0, 3])
    def test_a_number_as_parameter_folds_the_formal_draw(self, value):
        # Same draws, each coefficient evaluated at the number: constants only.
        for seed in range(100):
            rng_f, rng_s = random.Random(seed), random.Random(seed)
            formal = sample_module_vector(rng_f, ModuleParams.formal(Family.VBAR, 2, 2), 3)
            params = ModuleParams.specialized(Family.VBAR, 2, 2, value)
            special = sample_module_vector(rng_s, params, 3)
            folded = {key: c(value) for key, c in formal.entries.items()}
            assert special == ModuleVector(params, folded)
            assert all(c.degree == 0 for c in special.entries.values())
            assert_rows_normal(special.nums, special.den)
            assert rng_s.getstate() == rng_f.getstate()

    def test_vector_draws_are_in_normal_form(self):
        rng = random.Random(3)
        params = ModuleParams.formal(Family.VBAR, 2, 2)
        for _ in range(300):
            for c in sample_module_vector(rng, params, 1).entries.values():
                assert c
                assert_rows_normal(c.nums, c.den)

    def test_same_seed_same_sequence(self):
        a = random.Random(99)
        b = random.Random(99)
        draws_a = [sample_element(a, 2, 3, 3, allow_central=True) for _ in range(25)]
        draws_b = [sample_element(b, 2, 3, 3, allow_central=True) for _ in range(25)]
        assert draws_a == draws_b


# The samplers as written with randint and choice, built through the public
# constructors: the draws from getrandbits must match them call for call.


def ref_monomial(rng, rank, i_bound, j_bound):
    i, j = rng.randint(-i_bound, i_bound), rng.randint(0, j_bound)
    return Monomial(i, j, rng.randint(1, rank), rng.randint(1, rank))


def ref_coeff(rng):
    return Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 3))


def ref_element(rng, rank, i_bound, j_bound, allow_central, cls):
    terms = {}
    for _ in range(rng.randint(1, 3)):
        mono = ref_monomial(rng, rank, i_bound, j_bound)
        terms[mono] = terms.get(mono, 0) + ref_coeff(rng)
    central = ref_coeff(rng) if allow_central and rng.random() < 0.3 else 0
    return cls(rank, terms, central)


def ref_vector(rng, params, i_bound):
    entries = {}
    for _ in range(rng.randint(1, 3)):
        k = rng.randint(-i_bound, i_bound)
        key = (k, rng.randint(1, params.rank), rng.randint(1, params.m))
        linear = ref_coeff(rng) if rng.random() < 0.5 else 0
        entries[key] = entries.get(key, Poly(())) + Poly((ref_coeff(rng), linear))
    return ModuleVector(params, entries)


def _draw_batch(rng, samplers, seed):
    element, falling, monomial, coeff, vector = samplers
    out = []
    for n in (1, 2, 3):
        i_bound, j_bound = seed % 4, (seed // 4) % 4
        params = ModuleParams.formal((Family.V, Family.VBAR)[seed % 2], n, 1 + seed % 3)
        for central in (False, True):
            out.append(element(rng, n, i_bound, j_bound, central))
            out.append(falling(rng, n, i_bound, j_bound, central))
        out += [monomial(rng, n, i_bound, j_bound), coeff(rng), vector(rng, params, i_bound)]
    return out


class TestSamplersMatchRandint:
    def test_same_draws_and_generator_state(self):
        new = (
            sample_element, sample_falling_element, sample_monomial, _sample_coeff,
            sample_module_vector,
        )
        ref = (
            lambda rng, *a: ref_element(rng, *a, AlgebraElement),
            lambda rng, *a: ref_element(rng, *a, FallingElement),
            ref_monomial,
            ref_coeff,
            ref_vector,
        )
        for seed in range(300):
            rng_new, rng_ref = random.Random(seed), random.Random(seed)
            assert _draw_batch(rng_new, new, seed) == _draw_batch(rng_ref, ref, seed)
            assert rng_new.getstate() == rng_ref.getstate()


class TestRunSuite:
    def test_all_checks_pass(self):
        report = run_suite(SMALL)
        assert report.passed
        assert len(report.results) == len(available_checks())
        assert [r.name for r in report.results] == sorted(available_checks())

    def test_empty_selection_gives_empty_report(self):
        report = run_suite(SuiteConfig(ranks=(1,), samples=1, checks=()))
        assert report.results == ()
        assert report.passed
        assert "no checks selected" in report.to_text()

    def test_unknown_check_rejected(self):
        with pytest.raises(ValueError, match="unknown check"):
            run_suite(SuiteConfig(checks=("does_not_exist",)))

    def test_reports_are_deterministic(self):
        first = run_suite(SMALL)
        second = run_suite(SMALL)
        assert timing_free(first) == timing_free(second)

    def test_selection_independent_of_other_checks(self):
        # Per-check seeding: running one check alone or with the rest gives
        # the same sample count and verdict.
        full = run_suite(SMALL)
        solo = run_suite(
            SuiteConfig(ranks=(1, 2), samples=20, seed=7, checks=("jacobi_central",))
        )
        full_row = next(r for r in full.results if r.name == "jacobi_central")
        solo_row = solo.results[0]
        assert (full_row.name, full_row.samples, full_row.passed) == (
            solo_row.name,
            solo_row.samples,
            solo_row.passed,
        )

    def test_sample_counts_at_a_non_default_config(self):
        # Cases per check: a rank, or a rank x family x Jordan size, each
        # run for cfg.samples trials; the exhaustive checks count their cells.
        cfg = SuiteConfig(ranks=(1, 3), m_values=(1, 3), samples=4, i_bound=2)
        counts = {r.name: r.samples for r in run_suite(cfg).results}
        per_rank = dict.fromkeys(
            (
                "antisymmetry", "associativity", "cocycle_identity", "falling_agreement",
                "grading_additivity", "jacobi_central", "jacobi_plain", "no_hw_lw",
                "pairing_contravariance", "sigma_bracket", "sigma_involution",
                "twist_action",
            ),
            8,
        )
        assert counts == {
            **per_rank,
            "module_axiom_V": 16,
            "module_axiom_Vbar": 16,
            "module_grading": 32,
            "grade_bijection": 1212,
            "matrix_unit_bracket": 82,
            "sigma_identity_sign": 2,
            "vector_field_bracket": 50,
        }

    def test_json_shape(self):
        report = run_suite(SuiteConfig(ranks=(1,), samples=2, checks=("antisymmetry",)))
        data = report.to_json()
        assert data["passed"] is True
        assert data["config"]["ranks"] == [1]
        row = data["checks"][0]
        assert set(row) == {"name", "samples", "passed", "counterexample", "elapsed_s"}

    def test_text_report_lines(self):
        report = run_suite(SuiteConfig(ranks=(1,), samples=2, checks=("antisymmetry",)))
        text = report.to_text()
        assert text.startswith("[PASS] antisymmetry")
        assert text.endswith("result: PASS (1 checks)")

    def test_a_grade_shared_by_two_slots_fails_grade_bijection(self, monkeypatch):
        # At rank 2 in family V, grade_index sends the slot (0, 2) to the grade
        # of (0, 1), and slot_of_grade sends the grade left free to (60, 1),
        # outside the window of slots.  Every grade of the window still goes to
        # a slot and back; the slots' round trip sees the two slots of one grade.
        grade, slot = reps_module.grade_index, reps_module.slot_of_grade
        moved = {(0, 2): (0, 1), (60, 1): (0, 2)}

        def colliding_grade(params, k, r):
            if params.rank == 2 and params.family is Family.V:
                k, r = moved.get((k, r), (k, r))
            return grade(params, k, r)

        def slot_of_free_grade(params, g):
            if params.rank == 2 and params.family is Family.V and g == grade(params, 0, 2):
                return 60, 1
            return slot(params, g)

        monkeypatch.setattr(reps_module, "grade_index", colliding_grade)
        monkeypatch.setattr(reps_module, "slot_of_grade", slot_of_free_grade)
        (row,) = run_suite(SuiteConfig(checks=("grade_bijection",))).results
        assert not row.passed
        assert row.counterexample == "n=2 family=V; k=0 r=2"


class TestShares:
    """Each check's samples shared out over forked workers, one share per usable CPU."""

    @pytest.fixture
    def shares(self, monkeypatch):
        return lambda count: force_shares(monkeypatch, count)

    def test_one_share_per_usable_cpu_up_to_two(self, monkeypatch):
        if hasattr(os, "sched_getaffinity"):
            assert shares_module._usable_cpus() == len(os.sched_getaffinity(0))
        for cpus, count in ((1, 1), (2, 2), (3, 2), (64, 2)):
            monkeypatch.setattr(shares_module, "_usable_cpus", lambda: cpus)
            assert shares_module.share_count() == count

    def test_one_share_forks_nothing(self, shares, monkeypatch):
        shares(1)
        monkeypatch.setattr(os, "fork", None)
        assert run_suite(SMALL).passed

    def test_a_short_stream_forks_nothing(self, monkeypatch):
        # Streams of up to _ALONE samples are evaluated in the calling process
        # alone; a longer one forks a worker for each share but the first.
        forks = []

        def counted_fork():
            forks.append(None)
            return fork()

        fork = os.fork
        monkeypatch.setattr(os, "fork", counted_fork)
        alone = shares_module._ALONE
        for samples, forked in ((1, 0), (alone, 0), (alone + 1, 2)):
            forks.clear()
            stream = lambda: (lambda: None for _ in range(samples))  # noqa: E731
            assert shares_module.first_failing(stream, 3) == (samples, None)
            assert len(forks) == forked
        assert_no_child_left()

    def test_the_small_checks_fork_nothing(self, monkeypatch):
        monkeypatch.setattr(shares_module, "_usable_cpus", lambda: 2)
        assert shares_module.share_count() == 2
        monkeypatch.setattr(os, "fork", None)
        small = ("matrix_unit_bracket", "sigma_identity_sign", "vector_field_bracket")
        assert run_suite(SuiteConfig(checks=small)).passed
        assert run_suite(SuiteConfig(samples=5, checks=("jacobi_central",))).passed

    def test_one_share_without_fork(self, monkeypatch):
        monkeypatch.setattr(shares_module, "_usable_cpus", lambda: 3)
        monkeypatch.delattr(os, "fork")
        assert shares_module.share_count() == 1

    def test_one_share_in_a_threaded_process(self, monkeypatch):
        monkeypatch.setattr(shares_module, "_usable_cpus", lambda: 3)
        done = threading.Event()
        waiter = threading.Thread(target=done.wait)
        waiter.start()
        try:
            assert shares_module.share_count() == 1
        finally:
            done.set()
            waiter.join()

    @pytest.mark.parametrize("count", [1, 2, 3])
    def test_no_child_outlives_a_run(self, shares, count):
        shares(count)
        assert run_suite(SMALL).passed
        assert_no_child_left()

    @pytest.mark.parametrize("count", [1, 2, 3])
    def test_a_kernel_error_in_a_worker_is_raised_in_the_caller(self, shares, monkeypatch, count):
        # sigma raises on the rank-1 sample of index 1, which a worker owns at
        # 2 and 3 shares; the caller evaluates it again and raises with its own
        # traceback.
        class Boom(Exception):
            pass

        cfg = SuiteConfig(ranks=(1,), samples=6, checks=("sigma_involution",))
        rng = random.Random(f"{cfg.seed}:sigma_involution")
        drawn = [sample_element(rng, 1, cfg.i_bound, cfg.j_bound) for _ in range(2)]
        sigma = algebra_module.sigma

        def sigma_raising_on_sample_1(x):
            if x == drawn[1]:
                raise Boom
            return sigma(x)

        shares(count)
        monkeypatch.setattr(algebra_module, "sigma", sigma_raising_on_sample_1)
        with pytest.raises(Boom) as raised:
            run_suite(cfg)
        assert raised.traceback[-1].name == "sigma_raising_on_sample_1"
        assert_no_child_left()


class TestConfigValidation:
    def test_bad_samples(self):
        with pytest.raises(ValueError):
            SuiteConfig(samples=0)

    def test_bad_rank(self):
        with pytest.raises(ValueError):
            SuiteConfig(ranks=(0,))

    def test_bad_jordan_sizes(self):
        for m_values in ((), (0,), (1, -2)):
            with pytest.raises(ValueError, match="m_values"):
                SuiteConfig(m_values=m_values)

    def test_bad_seed(self):
        with pytest.raises(ValueError):
            SuiteConfig(seed=-1)
        with pytest.raises(ValueError):
            SuiteConfig(seed=2**64)

    def test_bad_bounds(self):
        with pytest.raises(ValueError):
            SuiteConfig(i_bound=-1)


class TestExtremalBoxes:
    # The box of no_hw_lw: t^i D^j E[p,q] with |i| <= 2 and j <= 2, split by the sign of
    # the grade i*n + p - q; generators of grade 0 are in neither half.
    @staticmethod
    def _full_scan(n, degree):
        positive, negative = [], []
        slots = range(1, n + 1)
        for i in range(-2, 3):
            for j in range(3):
                for p in slots:
                    for q in slots:
                        d = degree(Monomial(i, j, p, q), n)
                        if d:
                            term = AlgebraElement.term(n, i, j, p, q)
                            (positive if d > 0 else negative).append(term)
        return positive, negative

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_box_splits_the_full_scan_by_grade_sign(self, n):
        params, positive, negative = _extremal_boxes(n)
        assert params == ModuleParams.formal(Family.V, n)
        want = self._full_scan(n, lambda m, rank: m.i * rank + m.p - m.q)
        assert (positive, negative) == want
        assert len(positive) == len(negative) == 3 * (2 * n * n + n * (n - 1) // 2)

    def test_box_reads_the_degree_at_call_time(self, monkeypatch):
        # The degree_mutated mutation reaches no_hw_lw only through this lookup.
        mutated = lambda m, rank: m.i * rank + m.p + m.q  # noqa: E731
        monkeypatch.setattr(algebra_module, "degree", mutated)
        _, positive, negative = _extremal_boxes(2)
        assert (positive, negative) == self._full_scan(2, mutated)
        monkeypatch.undo()
        assert _extremal_boxes(2)[1] != positive

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("k", [-2, -1, 0, 1, 2])
    def test_no_homogeneous_vector_is_extremal(self, n, k):
        # With a formal parameter both halves of the box reach every basis vector.
        params, positive, negative = _extremal_boxes(n)
        for r in range(1, n + 1):
            for c in (1, Fraction(-3, 2)):
                v = ModuleVector(params, [((k, r, 1), c)])
                assert any(act(g, v) for g in positive)
                assert any(act(g, v) for g in negative)

    @pytest.mark.parametrize(
        "killed,side", [(lambda d: True, "positive"), (lambda d: d < 0, "negative")]
    )
    def test_an_annihilated_vector_names_its_side(self, monkeypatch, killed, side):
        def act_killing(x, v):
            (mono,) = x.terms
            if killed(algebra_module.degree(mono, x.rank)):
                return ModuleVector.zero(v.params)
            return act(x, v)

        monkeypatch.setattr(reps_module, "act", act_killing)
        (row,) = run_suite(SuiteConfig(ranks=(1,), samples=5, checks=("no_hw_lw",))).results
        assert (row.passed, row.samples) == (False, 1)
        assert row.counterexample.endswith(f"annihilated by the {side} box")
