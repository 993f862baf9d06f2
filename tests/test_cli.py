"""Command-line interface: commands, formats, exit codes."""

import json
import os
import subprocess
import sys
import time

import pytest

from mdop import algebra, cli, expr
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

    @pytest.mark.parametrize(
        "argv,config",
        [
            ((), {}),
            (("--seed", "3", "--n", "1"), {"seed": 3, "ranks": (1,)}),
            (
                ("--m", "2", "--samples", "9", "--i-bound", "1", "--j-bound", "0"),
                {"m_values": (2,), "samples": 9, "i_bound": 1, "j_bound": 0},
            ),
            (("--checks", "no_hw_lw"), {"checks": ("no_hw_lw",)}),
        ],
    )
    def test_flags_not_given_keep_the_suite_defaults(self, capsys, monkeypatch, argv, config):
        import mdop.verify as verify_module

        seen = []

        def capture(cfg):
            seen.append(cfg)
            return verify_module.Report(config=cfg)

        monkeypatch.setattr(verify_module, "run_suite", capture)
        assert run_cli(capsys, "verify", *argv)[0] == 0
        assert seen == [verify_module.SuiteConfig(**config)]

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


class TestRenderOnlyTheRequestedFormat:
    @staticmethod
    def _broken(*args):
        raise AssertionError("the form not asked for was built")

    def test_text_builds_no_json(self, capsys, monkeypatch):
        monkeypatch.setattr(expr, "element_to_json", self._broken)
        assert run_cli(capsys, "bracket", "--n", "1", "D", "t") == (0, "t\n", "")

    def test_json_builds_no_text(self, capsys, monkeypatch):
        expected = expr.element_to_json(expr.parse_element("t", 1))
        monkeypatch.setattr(expr, "format_element", self._broken)
        code, out, err = run_cli(capsys, "bracket", "--n", "1", "--format", "json", "D", "t")
        assert (code, err) == (0, "")
        assert json.loads(out) == expected

    def test_components_render_one_form(self, capsys, monkeypatch):
        monkeypatch.setattr(expr, "element_to_json", self._broken)
        assert run_cli(capsys, "degree", "--n", "1", "t + D")[0] == 0
        monkeypatch.undo()
        monkeypatch.setattr(expr, "format_element", self._broken)
        assert run_cli(capsys, "degree", "--n", "1", "--format", "json", "t + D")[0] == 0


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

    @pytest.mark.parametrize(
        "argv,message",
        [
            (("bracket", "--n", "0", "t", "D"), "rank must be a positive integer"),
            (("act", "--n", "0", "t", "v[0,1]"), "rank must be a positive integer"),
            (
                ("verify", "--n", "1,x", "--list-checks"),
                "argument --n: expected a comma-separated integer list, got '1,x'",
            ),
            (
                ("bracket", "--n", "2", "E[1,3]", "D"),
                "matrix index 3 out of range for rank 2 (column 5)",
            ),
            (("bracket", "--n", "1", "FD FD", "D"), "at most one FD atom per term (column 4)"),
            (
                ("bracket", "--n", "2", "E[1,1] E[1,2]", "D"),
                "at most one E atom per term (column 8)",
            ),
            (("act", "--n", "1", "t", "(a+)v[0,1]"), "expected a coefficient or 'a' (column 4)"),
            # A size flag's reader keeps argparse's wording for a malformed int.
            (("bracket", "--n", "x", "t", "D"), "argument --n: invalid int value: 'x'"),
            (("act", "--m", "2.0", "t", "v[0,1]"), "argument --m: invalid int value: '2.0'"),
            (("verify", "--i-bound", "1.5"), "argument --i-bound: invalid int value: '1.5'"),
            (("verify", "--j-bound", ""), "argument --j-bound: invalid int value: ''"),
        ],
    )
    def test_refusal_is_its_one_line(self, capsys, argv, message):
        assert run_cli(capsys, *argv) == (2, "", f"error: {message}\n")

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

    def test_t_power_above_limit_is_refused_before_kernel_work(self, capsys, monkeypatch):
        def reached(*args):
            raise AssertionError("the kernel was reached")

        for name in ("cocycle_psi", "central_bracket"):
            monkeypatch.setattr(algebra, name, reached)
        top = expr.MAX_T_POWER
        for argv in (
            ("cocycle", "--n", "1", "--", f"t^-{top + 1} D^1200", f"t^{top + 1} D^1200"),
            ("bracket", "--n", "1", "--", "D", f"t^{top} t"),
            ("bracket", "--n", "1", "--", "t^-99999999999", "t"),
        ):
            start = time.perf_counter()
            code, out, err = run_cli(capsys, *argv)
            assert time.perf_counter() - start < 1
            assert (code, out) == (2, "")
            assert err.startswith(f"error: t power of a term above the limit {top}")
            assert err.count("\n") == 1

    @pytest.mark.parametrize("flag", ["--n", "--m"])
    @pytest.mark.parametrize("value", ["0", "1,0", "-2"])
    def test_verify_refusal_names_the_flag(self, capsys, flag, value):
        code, out, err = run_cli(capsys, "verify", flag, value)
        assert (code, out) == (2, "")
        assert err == f"error: argument {flag}: expected positive integers, got {value!r}\n"

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


def _run_module(*argv, timeout=None):
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "mdop", *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=timeout,
    )


def test_module_entry_point():
    proc = _run_module("bracket", "--n", "1", "D", "t")
    assert proc.returncode == 0
    assert proc.stdout.strip() == "t"


@pytest.fixture
def all_digits():
    # Reading the printed values back needs more digits than the interpreter's cap.
    cap = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    yield cap
    sys.set_int_max_str_digits(cap)


class TestCancellingHighWords:
    # Two words t^-r D^1200 and t^r D^1200: the cocycle sums over r points,
    # and its value has thousands of digits, printed in full.

    @staticmethod
    def _psi(r):
        return -sum(x**1200 * (x + r) ** 1200 for x in range(-r, 0))

    @pytest.mark.parametrize("r", [600, expr.MAX_T_POWER])
    def test_cocycle(self, all_digits, r):
        proc = _run_module("cocycle", "--n", "1", "--", f"t^-{r} D^1200", f"t^{r} D^1200", timeout=60)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert int(proc.stdout) == self._psi(r)

    def test_bracket_at_the_limit(self, all_digits):
        r = expr.MAX_T_POWER
        proc = _run_module("bracket", "--n", "1", "--", f"t^-{r} D^1200", f"t^{r} D^1200", timeout=60)
        assert (proc.returncode, proc.stderr) == (0, "")
        psi = self._psi(r)
        assert psi < 0 and proc.stdout.endswith(f" - {-psi} C\n")

    def test_the_digit_cap_on_input_is_restored(self, capsys):
        cap = sys.get_int_max_str_digits()
        code, out, _ = run_cli(capsys, "cocycle", "--n", "1", "--", "t^-200 D^1200", "t^200 D^1200")
        assert code == 0 and len(out) > cap
        assert sys.get_int_max_str_digits() == cap
        code, _, err = run_cli(capsys, "cocycle", "--n", "1", "t", "9" * (cap + 1))
        assert code == 2 and "limit" in err

    def test_a_literal_past_the_digit_cap_is_one_line_with_its_column(self, capsys):
        cap = sys.get_int_max_str_digits()
        literal = "9" * (cap + 1)
        code, out, err = run_cli(capsys, "bracket", "--n", "1", "t", f"D + {literal} t")
        assert (code, out) == (2, "")
        assert err == (
            f"error: integer literal of {cap + 1} digits exceeds the digit limit {cap} (column 5)\n"
        )
        assert "sys." not in err

    @pytest.mark.parametrize("command", ["act", "pair"])
    @pytest.mark.parametrize("form", ["{}", "-{}", "1/{}", "{}/7", "1.{}"])
    def test_a_lambda_past_the_digit_cap_is_one_line_and_not_echoed(self, capsys, command, form):
        cap = sys.get_int_max_str_digits()
        lam = form.format("9" * (cap + 1))
        code, out, err = run_cli(capsys, command, "--n", "1", f"--lambda={lam}", "t", "v[1,1]")
        assert (code, out) == (2, "")
        assert err == f"error: --lambda of {cap + 1} digits exceeds the digit limit {cap}\n"

    def test_a_lambda_at_the_digit_cap_is_read(self, capsys):
        lam = "1/" + "9" * sys.get_int_max_str_digits()
        code, out, err = run_cli(capsys, "act", "--n", "1", f"--lambda={lam}", "t", "v[1,1]")
        assert (code, out, err) == (0, "v[2,1]\n", "")


class TestLambdaExponent:
    # Fraction reads 1e1000000 by building 10**1000000 itself, which once ran
    # for 19 s; an exponent past the digit limit is refused before it is read.

    @pytest.mark.parametrize("command", ["act", "pair"])
    @pytest.mark.parametrize(
        "lam", ["1e1000000", "1e100000", "-2.5E+4301", "1e1_000_000", "3E-00004301", "1e" + "9" * 40]
    )
    def test_a_large_exponent_is_refused_at_once(self, capsys, monkeypatch, command, lam):
        def reached(*args):
            raise AssertionError("Fraction was called")

        monkeypatch.setattr(cli, "Fraction", reached)
        start = time.perf_counter()
        code, out, err = run_cli(capsys, command, "--n", "1", f"--lambda={lam}", "t", "v[1,1]")
        assert time.perf_counter() - start < 1
        assert (code, out) == (2, "")
        cap = sys.get_int_max_str_digits()
        assert err == f"error: --lambda exponent exceeds the digit limit {cap}\n"

    @pytest.mark.parametrize(
        "lam,shown",
        [
            ("3/2", "5/2"),
            ("-1/3", "2/3"),
            ("5/2", "7/2"),
            ("2.5e-3", "401/400"),
            ("formal", "(a + 1)"),
            ("1e4300", "1" + "0" * 4299 + "1"),
        ],
    )
    def test_values_within_the_limit_read_as_before(self, capsys, all_digits, lam, shown):
        # D v[1,1] = (lambda + 1) v[1,1] in family V.
        code, out, err = run_cli(capsys, "act", "--n", "1", f"--lambda={lam}", "D", "v[1,1]")
        assert (code, out, err) == (0, f"{shown}*v[1,1]\n", "")


class TestRankLimit:
    TOP = expr.MAX_RANK

    @pytest.mark.parametrize(
        "argv",
        [
            ("bracket", "t", "D"),
            ("product", "t", "D"),
            ("cocycle", "t", "t^-1"),
            ("sigma", "t"),
            ("degree", "t"),
            ("convert", "--to", "falling", "D"),
            ("act", "t", "v[0,1]"),
            ("pair", "v[0,1]", "v[0,1]"),
            ("verify",),
            ("verify", "--list-checks"),
        ],
    )
    def test_a_rank_above_the_limit_is_refused(self, capsys, argv):
        ranks = f"1,{self.TOP + 1}" if argv[0] == "verify" else str(self.TOP + 1)
        start = time.perf_counter()
        code, out, err = run_cli(capsys, argv[0], "--n", ranks, *argv[1:])
        assert time.perf_counter() - start < 1
        assert (code, out) == (2, "")
        assert err == f"error: argument --n: rank above the limit {self.TOP}\n"

    def test_the_limit_itself_is_accepted(self, capsys):
        code, out, _ = run_cli(capsys, "cocycle", "--n", str(self.TOP), "t", "t^-1")
        assert (code, out) == (0, f"{self.TOP}\n")
        code, out, _ = run_cli(capsys, "verify", "--n", str(self.TOP), "--list-checks")
        assert code == 0 and out.split() == list(available_checks())


class TestSizeLimits:
    # (argv with the value above the limit in place of {}, flag, what, limit)
    CASES = [
        (("verify", "--i-bound", "{}"), "--i-bound", "t power bound", expr.MAX_I_BOUND),
        (("verify", "--j-bound", "{}"), "--j-bound", "D power bound", expr.MAX_J_BOUND),
        (("verify", "--m", "1,{}"), "--m", "Jordan block size", expr.MAX_JORDAN),
        (("act", "--m", "{}", "t", "v[0,1]"), "--m", "Jordan block size", expr.MAX_JORDAN),
    ]

    @pytest.mark.parametrize("argv,flag,what,top", CASES, ids=[c[0][0] + c[1] for c in CASES])
    def test_a_size_above_the_limit_is_refused(self, capsys, argv, flag, what, top):
        argv = [a.format(top + 1) for a in argv]
        start = time.perf_counter()
        code, out, err = run_cli(capsys, *argv)
        assert time.perf_counter() - start < 1
        assert (code, out) == (2, "")
        assert err == f"error: argument {flag}: {what} above the limit {top}\n"

    def test_the_limits_themselves_are_accepted(self, capsys):
        top_i, top_j, top_m = expr.MAX_I_BOUND, expr.MAX_J_BOUND, expr.MAX_JORDAN
        code, out, _ = run_cli(
            capsys, "verify", "--i-bound", str(top_i), "--j-bound", str(top_j),
            "--m", f"1,{top_m}", "--list-checks",
        )
        assert code == 0 and out.split() == list(available_checks())
        code, out, _ = run_cli(capsys, "act", "--m", str(top_m), "t", f"v[0,1,{top_m}]")
        assert (code, out) == (0, f"v[1,1,{top_m}]\n")


_DEG, _TOP = expr.MAX_A_DEGREE, expr.MAX_T_POWER
_DENSE = "*".join(["(a+1)"] * (_DEG + 1))
# (what is refused, its limit, a vector above the limit, the column of the refusal)
_VECTOR_LIMIT_CASES = [
    ("degree in a", _DEG, "a^3000000 v[0,1]", 1),
    ("degree in a", _DEG, f"a^{_DEG + 1} v[0,1]", 1),
    ("degree in a", _DEG, "a^99999999999999999999 v[0,1]", 1),
    ("degree in a", _DEG, f"a^{_DEG} * 2 * a v[0,1]", len(f"a^{_DEG} * ") + 1),
    ("degree in a", _DEG, f"3 (a^{_DEG} + 1)(a - 1) v[0,1]", len(f"3 (a^{_DEG} + 1)") + 1),
    ("degree in a", _DEG, f"{_DENSE} v[0,1]", len(_DENSE) - 4),
    ("degree in a", _DEG, f"(a^{_DEG + 1} - a^{_DEG + 1}) v[0,1]", 2),
    ("grade shift of a slot", _TOP, f"v[{'9' * 40},1]", 3),
    ("grade shift of a slot", _TOP, f"v[{_TOP + 1},1]", 3),
    ("grade shift of a slot", _TOP, f"2 v[0,1] - v[-{_TOP + 1},1]", 14),
    ("grade shift of a slot", _TOP, f"v[+{'9' * 4000},1]", 3),
]


class TestVectorLimits:
    """The degree in a of a vector coefficient and the grade shift of a slot are
    refused at their column before any act or pairing runs.  Unbounded, act of D
    on a^3000000 v[0,1] ran 16.5 s, and D^1200 on a slot of 40 digits 19.2 s."""

    @pytest.mark.parametrize("command", ["act", "pair"])
    @pytest.mark.parametrize("what,top,vector,column", _VECTOR_LIMIT_CASES)
    def test_a_value_above_the_limit_is_refused_at_its_column(
        self, capsys, monkeypatch, command, what, top, vector, column
    ):
        from mdop import reps

        def reached(*args):
            raise AssertionError("the kernel was reached")

        for name in ("act", "pairing"):
            monkeypatch.setattr(reps, name, reached)
        if command == "act":
            argv = ("act", "--n", "1", "D^1200", vector)
        else:
            argv = ("pair", "--n", "1", vector, "v[-3,1]")
        start = time.perf_counter()
        code, out, err = run_cli(capsys, *argv)
        assert time.perf_counter() - start < 1
        assert (code, out) == (2, "")
        assert err == f"error: {what} above the limit {top} (column {column})\n"

    def test_the_limits_themselves_are_accepted(self, capsys):
        dense = "*".join(["(a+1)"] * _DEG)
        code, out, _ = run_cli(capsys, "act", "--n", "1", "1", f"{dense} v[{_TOP},1]")
        assert code == 0 and out.endswith(f" + 1)*v[{_TOP},1]\n")
        assert out.startswith(f"(a^{_DEG} + {_DEG}a^{_DEG - 1} + ")
        code, out, _ = run_cli(capsys, "act", "--n", "1", "t", f"a^{_DEG} v[-{_TOP},1]")
        assert (code, out) == (0, f"a^{_DEG}*v[{1 - _TOP},1]\n")
        code, out, _ = run_cli(capsys, "pair", "--n", "1", f"a^{_DEG} v[3,1]", "a v[-3,1]")
        assert (code, out) == (0, f"a^{_DEG + 1}\n")
        # A coefficient whose factors multiply out to zero keeps no degree.
        zero = f"0 * a^{_DEG} * a^{_DEG} v[0,1]"
        code, out, _ = run_cli(capsys, "act", "--n", "1", "D", zero)
        assert (code, out) == (0, "0\n")


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
