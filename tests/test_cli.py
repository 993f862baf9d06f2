"""Command-line interface: commands, formats, exit codes."""

import json
import os
import subprocess
import sys

import pytest

from mdop import algebra, expr
from mdop.cli import main
from mdop.verify import available_checks


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCommands:
    def test_bracket(self, capsys):
        code, out, _ = run_cli(capsys, "bracket", "--n", "1", "D", "t")
        assert code == 0
        assert out.strip() == "t"

    def test_bracket_picks_up_central_term(self, capsys):
        code, out, _ = run_cli(capsys, "bracket", "--n", "1", "t", "t^-1")
        assert code == 0
        assert out.strip() == "C"

    def test_product(self, capsys):
        code, out, _ = run_cli(capsys, "product", "--n", "1", "D", "t")
        assert code == 0
        assert out.strip() == "t + t D"

    def test_cocycle(self, capsys):
        code, out, _ = run_cli(capsys, "cocycle", "--n", "3", "t", "t^-1")
        assert code == 0
        assert out.strip() == "3"

    def test_sigma(self, capsys):
        code, out, _ = run_cli(capsys, "sigma", "--n", "1", "t")
        assert code == 0
        assert out.strip() == "-t"

    def test_degree(self, capsys):
        code, out, _ = run_cli(capsys, "degree", "--n", "2", "t D^3 E[1,2] + E[1,2]")
        assert code == 0
        assert out.splitlines() == ["-1: E[1,2]", "1: t D^3 E[1,2]"]

    def test_convert_to_falling(self, capsys):
        code, out, _ = run_cli(capsys, "convert", "--n", "1", "--to", "falling", "D^2")
        assert code == 0
        assert out.strip() == "FD + FD^2"

    def test_convert_back_to_power(self, capsys):
        code, out, _ = run_cli(capsys, "convert", "--n", "1", "--to", "power", "FD^2")
        assert code == 0
        assert out.strip() == "-D + D^2"

    def test_act(self, capsys):
        code, out, _ = run_cli(
            capsys, "act", "--n", "2", "--family", "V", "t^2 D E[1,2]", "v[3,2]"
        )
        assert code == 0
        assert out.strip() == "(a + 3)*v[5,1]"

    def test_act_specialized_lambda(self, capsys):
        code, out, _ = run_cli(
            capsys, "act", "--n", "1", "--lambda", "1/2", "D", "v[0,1]"
        )
        assert code == 0
        assert out.strip() == "1/2*v[0,1]"

    def test_pair(self, capsys):
        code, out, _ = run_cli(capsys, "pair", "--n", "1", "v[2,1]", "v[-2,1]")
        assert code == 0
        assert out.strip() == "1"

    def test_json_element_output(self, capsys):
        code, out, _ = run_cli(
            capsys, "bracket", "--n", "1", "--format", "json", "t", "t^-1"
        )
        assert code == 0
        assert json.loads(out) == {"n": 1, "central": "1", "terms": []}

    def test_json_act_output(self, capsys):
        code, out, _ = run_cli(
            capsys, "act", "--n", "1", "--format", "json", "t", "v[0,1]"
        )
        assert code == 0
        assert json.loads(out) == {
            "family": "V",
            "n": 1,
            "m": 1,
            "lambda": "formal",
            "entries": [{"k": 1, "r": 1, "s": 1, "coeff": ["1"]}],
        }


class TestLeadingMinusSpellings:
    # argparse reads a value that starts with '-' as an option: a negative
    # --lambda must be joined with '=', and a negative expression must
    # follow '--'.
    def test_negative_lambda_joined(self, capsys):
        code, out, _ = run_cli(capsys, "act", "--n", "1", "--lambda=-1/3", "D", "v[2,1]")
        assert code == 0
        assert out.strip() == "5/3*v[2,1]"

    def test_negative_lambda_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "act", "--n", "1", "--format", "json", "--lambda=-1/3", "D", "v[2,1]"
        )
        assert code == 0
        assert json.loads(out)["lambda"] == "-1/3"

    def test_negative_lambda_for_pair(self, capsys):
        code, out, _ = run_cli(capsys, "pair", "--n", "1", "--lambda=-1/3", "3*v[2,1]", "v[-2,1]")
        assert code == 0
        assert out.strip() == "3"

    def test_negative_lambda_separate_is_refused(self, capsys):
        for command in ("act", "pair"):
            code, _, err = run_cli(capsys, command, "--n", "1", "--lambda", "-1/3", "D", "v[2,1]")
            assert code == 2
            assert "--lambda" in err

    def test_negative_expression_after_double_dash(self, capsys):
        code, out, _ = run_cli(capsys, "bracket", "--n", "1", "--", "-t", "D")
        assert code == 0
        assert out.strip() == "t"

    def test_negative_expression_without_double_dash_is_refused(self, capsys):
        assert run_cli(capsys, "bracket", "--n", "1", "-t", "D")[0] == 2


class TestVerifyCommand:
    def test_small_all_pass_run(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--n", "1", "--samples", "5", "--seed", "3"
        )
        assert code == 0
        assert "result: PASS" in out

    def test_json_report(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "verify", "--n", "1", "--samples", "5", "--seed", "3",
            "--checks", "antisymmetry,sigma_involution", "--format", "json",
        )
        assert code == 0
        data = json.loads(out)
        assert data["passed"] is True
        assert [c["name"] for c in data["checks"]] == ["antisymmetry", "sigma_involution"]

    def test_list_checks(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--list-checks")
        assert code == 0
        assert "jacobi_central" in out.split()

    def test_list_checks_text_is_one_name_per_line(self, capsys):
        assert run_cli(capsys, "verify", "--list-checks", "--format", "text") == (
            0, "\n".join(available_checks()) + "\n", ""
        )

    def test_list_checks_json_is_an_array_of_names(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--list-checks", "--format", "json")
        assert (code, err) == (0, "")
        assert json.loads(out) == list(available_checks())

    def test_unknown_check_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--checks", "nope")
        assert code == 2
        assert "unknown check" in err

    def test_empty_check_list_is_usage_error(self, capsys):
        for names in ("", ",", " , "):
            code, out, err = run_cli(capsys, "verify", "--checks", names)
            assert (code, out) == (2, "")
            assert "expected at least one check name" in err

    def test_failing_check_exits_one(self, capsys, monkeypatch):
        import mdop.algebra as algebra_module

        original = algebra_module.cocycle_psi
        monkeypatch.setattr(
            algebra_module, "cocycle_psi", lambda a, b: -original(a, b)
        )
        code, out, _ = run_cli(
            capsys,
            "verify", "--n", "1", "--samples", "5",
            "--checks", "vector_field_bracket",
        )
        assert code == 1
        assert "FAIL" in out


class TestExitCodes:
    def test_parse_error_is_two(self, capsys):
        code, _, err = run_cli(capsys, "bracket", "--n", "1", "D", "t +")
        assert code == 2
        assert "error:" in err

    def test_dimension_error_is_two(self, capsys):
        code, _, err = run_cli(capsys, "bracket", "--n", "2", "E[3,1]", "t")
        assert code == 2
        assert "out of range" in err

    def test_usage_error_is_two(self, capsys):
        assert run_cli(capsys, "bracket", "--n", "1", "D")[0] == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ("verify", "--n", ""),
            ("verify", "--format", "xml"),
            ("verify", "--checks", ""),
            ("bracket", "--n", "1", "D"),
        ],
    )
    def test_usage_error_is_one_line(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")

    def test_d_power_above_limit_is_refused_before_kernel_work(self, capsys, monkeypatch):
        # D^20000 once ran for minutes; the parser now refuses it before any
        # table or product is built.
        def reached(*args):
            raise AssertionError("the kernel was reached")

        monkeypatch.setattr(expr, "falling_to_power_coeffs", reached)
        for name in ("canonical_product", "central_bracket", "to_falling"):
            monkeypatch.setattr(algebra, name, reached)
        for argv in (
            ("product", "--n", "1", "D^20000", "t^7"),
            ("bracket", "--n", "1", "t", "FD^20000"),
            ("convert", "--n", "1", "--to", "falling", "D^20000"),
            ("convert", "--n", "1", "--to", "power", "FD^20000"),
        ):
            code, out, err = run_cli(capsys, *argv)
            assert (code, out) == (2, "")
            assert err.startswith(f"error: D power of a term above the limit {expr.MAX_D_POWER}")
            assert err.count("\n") == 1

    def test_internal_error_is_three(self, capsys, monkeypatch):
        # A fault of the program is neither a refusal (2) nor a failed check (1).
        def broken(*args):
            raise RuntimeError("kernel fault\non two lines")

        monkeypatch.setattr(algebra, "central_bracket", broken)
        code, out, err = run_cli(capsys, "bracket", "--n", "1", "D", "t")
        assert (code, out) == (3, "")
        assert err == "error: internal error: RuntimeError: kernel fault on two lines\n"
        assert "Traceback" not in err

    def test_help_exits_zero(self, capsys):
        assert run_cli(capsys, "--help")[0] == 0


def test_module_entry_point():
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-m", "mdop", "bracket", "--n", "1", "D", "t"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "t"


def _stirling_first_row(j):
    # Coefficients of x(x-1)...(x-j+1), multiplied out factor by factor.
    poly = [1]
    for u in range(j):
        shifted = [0] + poly
        for s, c in enumerate(poly):
            shifted[s] -= u * c
        poly = shifted
    return poly


def _stirling_second_row(j):
    # S(j, s) from the triangle S(n, s) = s S(n-1, s) + S(n-1, s-1).
    row = [1]
    for n in range(1, j + 1):
        row = [0] + [s * row[s] + row[s - 1] for s in range(1, n)] + [1]
    return row


def _falling_power(x, j):
    out = 1
    for u in range(j):
        out *= x - u
    return out


class TestHighExponentConvert:
    # Beyond D^493 the tables were once built by recursion and crashed.
    J = 1200

    def _coeffs(self, capsys, target, text):
        code, out, err = run_cli(capsys, "convert", "--n", "1", "--to", target, "--format", "json", text)
        assert (code, err) == (0, "")
        terms = json.loads(out)["terms"]
        assert all((t["i"], t["p"], t["q"]) == (0, 1, 1) for t in terms)
        coeffs = [0] * (self.J + 1)
        for t in terms:
            coeffs[t["j"]] = int(t["coeff"])
        return coeffs

    def test_power_to_falling(self, capsys):
        coeffs = self._coeffs(capsys, "falling", f"D^{self.J}")
        assert coeffs == _stirling_second_row(self.J)
        x = self.J + 7
        assert sum(c * _falling_power(x, s) for s, c in enumerate(coeffs)) == x**self.J

    def test_falling_to_power(self, capsys):
        coeffs = self._coeffs(capsys, "power", f"FD^{self.J}")
        assert coeffs == _stirling_first_row(self.J)
        x = self.J + 7
        assert sum(c * x**s for s, c in enumerate(coeffs)) == _falling_power(x, self.J)

    def test_same_basis_is_unchanged(self, capsys):
        code, out, _ = run_cli(capsys, "convert", "--n", "1", "--to", "power", f"D^{self.J}")
        assert (code, out.strip()) == (0, f"D^{self.J}")

    def test_text_output(self, capsys):
        code, out, _ = run_cli(capsys, "convert", "--n", "1", "--to", "falling", f"D^{self.J}")
        assert code == 0
        assert out.startswith("FD + ") and out.strip().endswith(f" + FD^{self.J}")


def test_act_on_zero_vector(capsys):
    code, out, err = run_cli(capsys, "act", "--n", "1", "--family", "V", "t", "0")
    assert (code, out.strip(), err) == (0, "0", "")
