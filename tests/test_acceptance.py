"""End-to-end acceptance run: every contract criterion at its stated scale.

Each test prints one pass/fail line (visible with `pytest -s`); a failed
assertion keeps the line unprinted and fails the test.  All comparisons
are exact, with zero tolerance anywhere.
"""

import json
import random
import time
from fractions import Fraction

import mdop.algebra as algebra
from mdop.algebra import FallingElement, Monomial, embed_scalar
from mdop.cli import main as cli_main
from mdop.exact import gen_binomial
from mdop.expr import format_element, parse_element
from mdop.verify import SuiteConfig, run_suite, sample_element

SEED = 20260809


def _report(**kwargs):
    report = run_suite(SuiteConfig(seed=SEED, **kwargs))
    return report, {r.name: r for r in report.results}


def _announce(number: int, text: str) -> None:
    print(f"criterion {number:02d}: PASS - {text}")


class TestCriterion01CentralJacobi:
    def test_jacobi_exact_at_scale(self):
        start = time.perf_counter()
        report, rows = _report(
            ranks=(1, 2, 3), i_bound=4, j_bound=4, m_values=(1,),
            samples=1000, checks=("jacobi_central",),
        )
        elapsed = time.perf_counter() - start
        row = rows["jacobi_central"]
        assert row.passed, row.counterexample
        assert row.samples >= 3000  # 1000 triples per rank
        assert elapsed < 60.0
        _announce(1, f"central Jacobi on {row.samples} triples in {elapsed:.1f}s")


class TestCriterion02CocycleSpotValues:
    def test_scalar_cocycle_value(self):
        for n in (1, 2, 3):
            value = algebra.cocycle_psi(embed_scalar(1, 0, n), embed_scalar(-1, 0, n))
            assert value == n

    def test_vector_field_closed_form(self):
        checked = 0
        for n in (1, 2, 3):
            diag = range(1, n + 1)
            for i in range(-4, 5):
                for k in range(-4, 5):
                    a = FallingElement(n, {Monomial(i, 1, p, p): 1 for p in diag})
                    b = FallingElement(n, {Monomial(k, 0, p, p): 1 for p in diag})
                    terms = (
                        {Monomial(i + k, 0, p, p): Fraction(k) for p in diag}
                        if k else {}
                    )
                    central = -gen_binomial(i + 1, 2) * n if i == -k else Fraction(0)
                    expected = FallingElement(n, terms, central)
                    assert algebra.bracket_falling_direct(a, b) == expected
                    via = algebra.to_falling(
                        algebra.central_bracket(
                            algebra.from_falling(a), algebra.from_falling(b)
                        )
                    )
                    assert via == expected
                    checked += 1
        _announce(2, f"cocycle spot values and {checked} closed-form brackets")


class TestCriterion03BasisAgreement:
    def test_falling_direct_matches_conversion_path(self):
        report, rows = _report(
            ranks=(1, 2, 3), i_bound=4, j_bound=4, m_values=(1,),
            samples=200, checks=("falling_agreement",),
        )
        row = rows["falling_agreement"]
        assert row.passed, row.counterexample
        assert row.samples >= 500
        _announce(3, f"basis agreement on {row.samples} falling pairs")


class TestCriterion04ModuleAxiom:
    def test_axiom_for_all_four_families(self):
        report, rows = _report(
            ranks=(1, 2), i_bound=4, j_bound=4, m_values=(1, 2, 3),
            samples=250, checks=("module_axiom_V", "module_axiom_Vbar"),
        )
        for name in ("module_axiom_V", "module_axiom_Vbar"):
            row = rows[name]
            assert row.passed, row.counterexample
            # 2 ranks x 250 samples = 500 per (family, m) combination
            assert row.samples == 2 * 3 * 250
        _announce(4, "module axiom for both families at m = 1, 2, 3")


class TestCriterion05TwistCoherence:
    def test_twisted_action_matches_sigma_composition(self):
        report, rows = _report(
            ranks=(1, 2, 3), i_bound=3, j_bound=3, m_values=(1,),
            samples=100, checks=("twist_action",),
        )
        row = rows["twist_action"]
        assert row.passed, row.counterexample
        assert row.samples >= 200

    def test_sigma_is_an_involutive_automorphism(self):
        report, rows = _report(
            ranks=(1, 2), i_bound=3, j_bound=3, m_values=(1,),
            samples=250, checks=("sigma_bracket", "sigma_involution"),
        )
        for name in ("sigma_bracket", "sigma_involution"):
            row = rows[name]
            assert row.passed, row.counterexample
            assert row.samples >= 500

    def test_sigma_negates_identity(self):
        for n in (1, 2, 3):
            ident = embed_scalar(0, 0, n)
            assert algebra.sigma(ident) == -ident
        _announce(5, "twist coherence, sigma involution and identity sign")


class TestCriterion06PairingContravariance:
    def test_pairing(self):
        report, rows = _report(
            ranks=(1, 2), i_bound=3, j_bound=3, m_values=(1,),
            samples=100, checks=("pairing_contravariance",),
        )
        row = rows["pairing_contravariance"]
        assert row.passed, row.counterexample
        assert row.samples >= 200
        _announce(6, f"pairing contravariance on {row.samples} samples")


class TestCriterion07Grading:
    def test_bracket_degree_additivity(self):
        report, rows = _report(
            ranks=(1, 2), i_bound=4, j_bound=4, m_values=(1,),
            samples=250, checks=("grading_additivity",),
        )
        row = rows["grading_additivity"]
        assert row.passed, row.counterexample
        assert row.samples >= 500

    def test_grade_bijection_and_dimension_one(self):
        report, rows = _report(
            ranks=(1, 2, 3, 4), i_bound=3, j_bound=3, m_values=(1,),
            samples=1, checks=("grade_bijection",),
        )
        row = rows["grade_bijection"]
        assert row.passed, row.counterexample
        _announce(7, "degree additivity, grade bijection, one slot per grade")


class TestCriterion08MatrixUnitBracket:
    def test_exhaustive_over_matrix_slots(self):
        report, rows = _report(
            ranks=(1, 2, 3), i_bound=3, j_bound=3, m_values=(1,),
            samples=1, checks=("matrix_unit_bracket",),
        )
        row = rows["matrix_unit_bracket"]
        assert row.passed, row.counterexample
        assert row.samples == 1 + 2**4 + 3**4
        _announce(8, "matrix-unit bracket identity exhaustively for N = 1, 2, 3")


class TestCriterion09NoExtremalVectors:
    def test_sampled_homogeneous_vectors_are_not_extremal(self):
        report, rows = _report(
            ranks=(1, 2, 3), i_bound=3, j_bound=3, m_values=(1,),
            samples=100, checks=("no_hw_lw",),
        )
        row = rows["no_hw_lw"]
        assert row.passed, row.counterexample
        assert row.samples >= 100
        _announce(9, f"no extremal vectors among {row.samples} homogeneous samples")


class TestCriterion10Cli:
    def test_round_trip_corpus(self):
        rng = random.Random(SEED)
        count = 0
        for n in (1, 2, 3):
            for _ in range(40):
                e = sample_element(rng, n, 4, 4, allow_central=True)
                assert parse_element(format_element(e), n) == e
                count += 1
        assert count >= 100

    def test_exit_codes(self, capsys, monkeypatch):
        assert cli_main(["bracket", "--n", "1", "D", "t"]) == 0
        assert cli_main(["bracket", "--n", "1", "D", "t +"]) == 2

        import mdop.algebra as algebra_module
        original = algebra_module.cocycle_psi
        monkeypatch.setattr(algebra_module, "cocycle_psi", lambda a, b: -original(a, b))
        code = cli_main(
            ["verify", "--n", "1", "--samples", "5", "--checks", "vector_field_bracket"]
        )
        assert code == 1
        capsys.readouterr()

    def test_default_verify_run_exits_zero(self, capsys):
        assert cli_main(["verify", "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["passed"] is True
        _announce(10, "CLI round-trip corpus, exit codes, default verify run")


class TestCriterion11MutationSensitivity:
    CFG = dict(ranks=(1, 2), samples=30, m_values=(1, 2))

    def _failing(self):
        report = run_suite(SuiteConfig(seed=SEED, **self.CFG))
        return {r.name for r in report.results if not r.passed}

    def test_cocycle_sign_flip_is_detected(self, monkeypatch):
        original = algebra.cocycle_psi
        monkeypatch.setattr(algebra, "cocycle_psi", lambda a, b: -original(a, b))
        assert self._failing()

    def test_product_truncation_is_detected(self, monkeypatch):
        monkeypatch.setattr(
            algebra, "_product_expansion", lambda j, k: ((j, 1),)
        )
        assert self._failing()

    def test_twist_sign_removal_is_detected(self, monkeypatch):
        monkeypatch.setattr(algebra, "_sigma_sign", lambda j: 1)
        assert self._failing()
        _announce(11, "all three kernel mutations trip named checks")
