"""Command-line interface: commands, formats, exit codes."""

import gc
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
            (("bracket", "--n", "0", "t", "D"), "argument --n: rank below 1"),
            (("act", "--n", "0", "t", "v[0,1]"), "argument --n: rank below 1"),
            # A single operand, and a refusal that is no parse error, name no operand.
            (("sigma", "--n", "1", "t +"), "expected a coefficient or an atom (column 4)"),
            (
                ("act", "--n", "1", "--lambda", "x", "t +", "v[0,1]"),
                "argument --lambda: expected a rational",
            ),
            (("verify", "--n", "1,x", "--list-checks"), "argument --n: expected an integer"),
            (
                ("bracket", "--n", "2", "E[1,3]", "D"),
                "EXPR 1: matrix index 3 out of range for rank 2 (column 5)",
            ),
            (
                ("bracket", "--n", "1", "FD FD", "D"),
                "EXPR 1: at most one FD atom per term (column 4)",
            ),
            (
                ("bracket", "--n", "2", "E[1,1] E[1,2]", "D"),
                "EXPR 1: at most one E atom per term (column 8)",
            ),
            (
                ("act", "--n", "1", "t", "(a+)v[0,1]"),
                "VECTOR: expected a coefficient or 'a' (column 4)",
            ),
            # A size flag's malformed value is refused in the reader's words, not echoed.
            (("bracket", "--n", "x", "t", "D"), "argument --n: expected an integer"),
            (("act", "--m", "2.0", "t", "v[0,1]"), "argument --m: unexpected character '.'"),
            (("verify", "--i-bound", "1.5"), "argument --i-bound: unexpected character '.'"),
            (("verify", "--j-bound", ""), "argument --j-bound: expected an integer"),
            # A size flag refuses its lower end as it is read, with the flag named.
            (("act", "--m=0", "t", "v[0,1]"), "argument --m: Jordan block size below 1"),
            (("bracket", "--n=-2", "t", "D"), "argument --n: rank below 1"),
            (("verify", "--i-bound=-1"), "argument --i-bound: t power bound below 0"),
            (("verify", "--j-bound=-3"), "argument --j-bound: D power bound below 0"),
            # The grammar's digits are 0-9; another script's digit is no number.
            (("sigma", "--n", "1", "٣ t^١٢"), "unexpected character '٣' (column 1)"),
            (("bracket", "--n", "1", "D", "t^५"), "EXPR 2: unexpected character '५' (column 3)"),
            (("degree", "--n", "1", "１ D"), "unexpected character '１' (column 1)"),
            # A flag's number is read as a term's: ASCII digits, no '_', no decimal or exponent.
            (("bracket", "--n", "٢", "E[1,2]", "E[2,1]"), "argument --n: unexpected character '٢'"),
            (("bracket", "--n", "1_0", "t", "D"), "argument --n: unexpected character '_'"),
            (("act", "--m=١", "t", "v[0,1]"), "argument --m: unexpected character '١'"),
            (("verify", "--n", "1,٢"), "argument --n: unexpected character '٢'"),
            (("act", "--lambda=٣/٢", "t", "v[0,1]"), "argument --lambda: unexpected character '٣'"),
            (("act", "--lambda=1_5/2", "t", "v[0,1]"), "argument --lambda: unexpected character '_'"),
            (("act", "--lambda=1.5", "t", "v[0,1]"), "argument --lambda: unexpected character '.'"),
            (("pair", "--lambda=1e3", "v[0,1]", "v[0,1]"), "argument --lambda: expected end of input"),
            # A value past the digit limit is refused by its length alone; it is not echoed.
            (
                ("bracket", "--n", "9" * (expr.digit_limit() + 700), "t", "D"),
                f"argument --n: integer literal of {expr.digit_limit() + 700} digits exceeds "
                f"the digit limit {expr.digit_limit()}",
            ),
            (
                ("verify", "--n", "1," + "9" * (expr.digit_limit() + 700)),
                f"argument --n: integer literal of {expr.digit_limit() + 700} digits exceeds "
                f"the digit limit {expr.digit_limit()}",
            ),
            # A list entry given twice is refused, so a list holds each rank or size once.
            (("verify", "--n", "2,2", "--list-checks"), "argument --n: rank 2 given twice"),
            (
                ("verify", "--m", "1,2,1", "--list-checks"),
                "argument --m: Jordan block size 1 given twice",
            ),
            # A check name or a choice outside its list is refused without the value.
            (
                ("verify", "--checks", "nope"),
                "argument --checks: unknown check name; see --list-checks",
            ),
            (
                ("verify", "--checks", "antisymmetry," + "x" * 300),
                "argument --checks: unknown check name; see --list-checks",
            ),
            # A known name given twice is refused as a list entry is, and echoed.
            (
                ("verify", "--checks", "antisymmetry,antisymmetry"),
                "argument --checks: check name antisymmetry given twice",
            ),
            (
                ("bracket", "--format", "x" * 300, "t", "D"),
                "argument --format: expected one of text, json",
            ),
            (("verify", "--format", "xml"), "argument --format: expected one of text, json"),
            (("act", "--family", "W", "t", "v[0,1]"), "argument --family: expected one of V, Vbar"),
            (("convert", "--to", "x" * 300, "t"), "argument --to: expected one of falling, power"),
            (
                ("x" * 300, "t", "D"),
                "argument command: expected one of bracket, product, cocycle, sigma, degree, "
                "convert, act, pair, verify",
            ),
            # --samples and --seed are size flags too, read and bounded as they are parsed.
            (("verify", "--samples", "0"), "argument --samples: sample count below 1"),
            (("verify", "--seed", "-1"), "argument --seed: seed below 0"),
            (
                ("verify", "--samples", str(expr.MAX_SAMPLES + 1), "--checks", "sigma_identity_sign"),
                f"argument --samples: sample count above the limit {expr.MAX_SAMPLES}",
            ),
        ],
    )
    def test_refusal_is_its_one_line(self, capsys, argv, message):
        assert run_cli(capsys, *argv) == (2, "", f"error: {message}\n")

    def test_a_long_list_of_one_repeated_entry_is_refused_at_once(self, capsys):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "verify", "--n", ",".join(["2"] * 10_000), "--list-checks")
        assert time.perf_counter() - start < 1
        assert (code, out, err) == (2, "", "error: argument --n: rank 2 given twice\n")

    def test_d_power_above_limit_is_refused_before_kernel_work(self, capsys, monkeypatch):
        # D^20000 once ran for minutes; the parser now refuses it before any
        # table or product is built.
        def reached(*args):
            raise AssertionError("the kernel was reached")

        monkeypatch.setattr(expr, "falling_to_power_coeffs", reached)
        for name in ("canonical_product", "central_bracket", "to_falling"):
            monkeypatch.setattr(algebra, name, reached)
        for argv, operand in (
            (("product", "--n", "1", "D^20000", "t^7"), "EXPR 1: "),
            (("bracket", "--n", "1", "t", "FD^20000"), "EXPR 2: "),
            (("convert", "--n", "1", "--to", "falling", "D^20000"), ""),
            (("convert", "--n", "1", "--to", "power", "FD^20000"), ""),
        ):
            code, out, err = run_cli(capsys, *argv)
            assert (code, out) == (2, "")
            limit = f"D power of a term above the limit {expr.MAX_D_POWER}"
            assert err.startswith(f"error: {operand}{limit}")
            assert err.count("\n") == 1

    def test_t_power_above_limit_is_refused_before_kernel_work(self, capsys, monkeypatch):
        def reached(*args):
            raise AssertionError("the kernel was reached")

        for name in ("cocycle_psi", "central_bracket"):
            monkeypatch.setattr(algebra, name, reached)
        top = expr.MAX_T_POWER
        for argv, operand in (
            (
                ("cocycle", "--n", "1", "--", f"t^-{top + 1} D^1200", f"t^{top + 1} D^1200"),
                "EXPR 1",
            ),
            (("bracket", "--n", "1", "--", "D", f"t^{top} t"), "EXPR 2"),
            (("bracket", "--n", "1", "--", "t^-99999999999", "t"), "EXPR 1"),
        ):
            start = time.perf_counter()
            code, out, err = run_cli(capsys, *argv)
            assert time.perf_counter() - start < 1
            assert (code, out) == (2, "")
            assert err.startswith(f"error: {operand}: t power of a term above the limit {top}")
            assert err.count("\n") == 1

    @pytest.mark.parametrize("flag", ["--n", "--m"])
    @pytest.mark.parametrize("value", ["0", "1,0", "-2"])
    def test_verify_refusal_names_the_flag(self, capsys, flag, value):
        code, out, err = run_cli(capsys, "verify", flag, value)
        assert (code, out) == (2, "")
        what = {"--n": "rank", "--m": "Jordan block size"}[flag]
        assert err == f"error: argument {flag}: {what} below 1\n"

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


def _run_module(*argv, timeout=None, stdout=subprocess.PIPE, entry=("-m", "mdop")):
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, *entry, *argv],
        stdout=stdout,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
        timeout=timeout,
    )


@pytest.mark.parametrize(
    "argv",
    [
        ("bracket", "--n", "1", "D", "t"),
        ("bracket", "--n", "1", "t +", "D"),  # refused by the expression parser
        ("sigma", "--n", "1"),  # refused by argparse
        ("no-such-command", "t"),
    ],
)
def test_module_entry_point(capsys, argv):
    proc = _run_module(*argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == run_cli(capsys, *argv)


@pytest.mark.parametrize(
    "argv", [("bracket", "--n", "1", "D", "t"), ("convert", "--n", "1", "--to", "falling", "D^480")]
)
def test_closed_stdout_exits_141_without_a_traceback(argv):
    # 141 is 128 + SIGPIPE, what a shell reports for a writer whose reader left;
    # exit 1 would read as a failed verify check.
    read, write = os.pipe()
    os.close(read)
    try:
        proc = _run_module(*argv, stdout=write, timeout=60)
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (141, "")


# Runs `mdop <argv>` as `python -m mdop` does, then prints the exit code and
# the number of objects the collector holds frozen.
_FREEZE_PROBE = """
import gc, runpy
try:
    runpy.run_module("mdop", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    print(exc.code, gc.get_freeze_count())
"""


def test_process_entry_freezes_the_heap_after_the_call():
    proc = _run_module("bracket", "--n", "1", "D", "t", entry=("-c", _FREEZE_PROBE))
    out, last = proc.stdout.splitlines()
    code, frozen = map(int, last.split())
    assert (out, code, proc.stderr) == ("t", 0, "")
    assert frozen > 0


def test_in_process_call_leaves_the_collector_alone(capsys):
    before = gc.get_freeze_count(), gc.isenabled()
    assert run_cli(capsys, "bracket", "--n", "1", "D", "t")[0] == 0
    assert run_cli(capsys, "sigma", "--n", "1")[0] == 2
    assert (gc.get_freeze_count(), gc.isenabled()) == before


def _subcommands(parser) -> list[str]:
    (commands,) = parser._subparsers._group_actions
    return list(commands.choices)


@pytest.mark.parametrize("name", ["bracket", "convert", "act", "pair", "verify"])
def test_a_named_subcommand_builds_its_parser_alone(name):
    assert _subcommands(cli.build_parser(name)) == [name]


@pytest.mark.parametrize("command", [None, "--help", "no-such-command"])
def test_no_subcommand_name_builds_every_parser(command):
    assert _subcommands(cli.build_parser(command)) == [
        "bracket", "product", "cocycle", "sigma", "degree", "convert", "act", "pair", "verify"
    ]


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
            f"error: EXPR 2: integer literal of {cap + 1} digits exceeds the digit limit {cap} "
            "(column 5)\n"
        )
        assert "sys." not in err

    @pytest.mark.parametrize("command", ["act", "pair"])
    @pytest.mark.parametrize("form", ["{}", "-{}", "1/{}", "{}/7"])
    def test_a_lambda_past_the_digit_cap_is_one_line_and_not_echoed(self, capsys, command, form):
        cap = sys.get_int_max_str_digits()
        lam = form.format("9" * (cap + 1))
        code, out, err = run_cli(capsys, command, "--n", "1", f"--lambda={lam}", "t", "v[1,1]")
        assert (code, out) == (2, "")
        refusal = f"integer literal of {cap + 1} digits exceeds the digit limit {cap}"
        assert err == f"error: argument --lambda: {refusal}\n"

    def test_without_a_cap_literals_and_lambda_keep_the_limit_4300(self, capsys, all_digits):
        literal = "9" * 4301
        code, out, err = run_cli(capsys, "bracket", "--n", "1", "t", f"D + {literal} t")
        assert (code, out) == (2, "")
        literal_refusal = "integer literal of 4301 digits exceeds the digit limit 4300 (column 5)"
        assert err == f"error: EXPR 2: {literal_refusal}\n"
        code, out, err = run_cli(capsys, "act", "--n", "1", f"--lambda={literal}", "t", "v[1,1]")
        assert (code, out) == (2, "")
        assert err == "error: argument --lambda: integer literal of 4301 digits exceeds the digit limit 4300\n"
        code, out, err = run_cli(capsys, "bracket", "--n", "1", "D", f"{literal[1:]} t")
        assert (code, out, err) == (0, f"{literal[1:]} t\n", "")

    def test_a_lambda_at_the_digit_cap_is_read(self, capsys):
        lam = "1/" + "9" * sys.get_int_max_str_digits()
        code, out, err = run_cli(capsys, "act", "--n", "1", f"--lambda={lam}", "t", "v[1,1]")
        assert (code, out, err) == (0, "v[2,1]\n", "")


class TestLambdaExponent:
    # Fraction reads 1e1000000 by building 10**1000000 itself, which once ran
    # for 19 s; --lambda is now written as a term's coefficient, so an exponent
    # form is refused by the tokens it leaves, and no Fraction is built.

    # Each value and the reader's refusal of it.
    REFUSALS = {
        "1e1000000": "expected end of input",
        "1e100000": "expected end of input",
        "-2.5E+4301": "unexpected character '.'",
        "1e1_000_000": "unexpected character '_'",
        "3E-00004301": "expected end of input",
        "1e" + "9" * 40: "expected end of input",
    }

    @pytest.mark.parametrize("command", ["act", "pair"])
    @pytest.mark.parametrize("lam", list(REFUSALS))
    def test_a_large_exponent_is_refused_at_once(self, capsys, monkeypatch, command, lam):
        def reached(*args):
            raise AssertionError("Fraction was called")

        monkeypatch.setattr(expr, "Fraction", reached)
        start = time.perf_counter()
        code, out, err = run_cli(capsys, command, "--n", "1", f"--lambda={lam}", "t", "v[1,1]")
        assert time.perf_counter() - start < 1
        assert (code, out, err) == (2, "", f"error: argument --lambda: {self.REFUSALS[lam]}\n")

    @pytest.mark.parametrize(
        "lam,shown",
        [
            ("3/2", "5/2"),
            ("-1/3", "2/3"),
            ("5/2", "7/2"),
            ("formal", "(a + 1)"),
        ],
    )
    def test_values_within_the_limit_read_as_before(self, capsys, all_digits, lam, shown):
        # D v[1,1] = (lambda + 1) v[1,1] in family V.
        code, out, err = run_cli(capsys, "act", "--n", "1", f"--lambda={lam}", "D", "v[1,1]")
        assert (code, out, err) == (0, f"{shown}*v[1,1]\n", "")


class TestRankLimit:
    TOP = expr.MAX_RANK
    COMMANDS = [
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
    ]

    @pytest.mark.parametrize("argv", COMMANDS)
    def test_a_rank_above_the_limit_is_refused(self, capsys, argv):
        ranks = f"1,{self.TOP + 1}" if argv[0] == "verify" else str(self.TOP + 1)
        start = time.perf_counter()
        code, out, err = run_cli(capsys, argv[0], "--n", ranks, *argv[1:])
        assert time.perf_counter() - start < 1
        assert (code, out) == (2, "")
        assert err == f"error: argument --n: rank above the limit {self.TOP}\n"

    @pytest.mark.parametrize("argv", COMMANDS)
    def test_a_rank_below_one_is_refused(self, capsys, argv):
        ranks = "1,0" if argv[0] == "verify" else "0"
        code, out, err = run_cli(capsys, argv[0], f"--n={ranks}", *argv[1:])
        assert (code, out) == (2, "")
        assert err == "error: argument --n: rank below 1\n"

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
        (("verify", "--samples", "{}"), "--samples", "sample count", expr.MAX_SAMPLES),
        (("verify", "--seed", "{}"), "--seed", "seed", 2**64 - 1),
    ]

    @pytest.mark.parametrize("argv,flag,what,top", CASES, ids=[c[0][0] + c[1] for c in CASES])
    def test_a_size_above_the_limit_is_refused(self, capsys, argv, flag, what, top):
        argv = [a.format(top + 1) for a in argv]
        start = time.perf_counter()
        code, out, err = run_cli(capsys, *argv)
        assert time.perf_counter() - start < 1
        assert (code, out) == (2, "")
        assert err == f"error: argument {flag}: {what} above the limit {top}\n"

    # (argv with the value below the low end in place of {}, flag, what, low end)
    LOW_CASES = [
        (("verify", "--i-bound", "{}"), "--i-bound", "t power bound", 0),
        (("verify", "--j-bound", "{}"), "--j-bound", "D power bound", 0),
        (("verify", "--m", "1,{}"), "--m", "Jordan block size", 1),
        (("act", "--m", "{}", "t", "v[0,1]"), "--m", "Jordan block size", 1),
        (("verify", "--samples", "{}"), "--samples", "sample count", 1),
        (("verify", "--seed", "{}"), "--seed", "seed", 0),
    ]

    @pytest.mark.parametrize(
        "argv,flag,what,low", LOW_CASES, ids=[c[0][0] + c[1] for c in LOW_CASES]
    )
    def test_a_size_below_its_low_end_is_refused(self, capsys, argv, flag, what, low):
        argv = [a.format(low - 1) for a in argv]
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == f"error: argument {flag}: {what} below {low}\n"

    def test_the_low_ends_themselves_are_accepted(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--i-bound", "0", "--j-bound", "0", "--m", "1", "--list-checks"
        )
        assert code == 0 and out.split() == list(available_checks())
        code, out, _ = run_cli(capsys, "act", "--m", "1", "t", "v[0,1]")
        assert (code, out) == (0, "v[1,1]\n")
        argv = ("verify", "--samples", "1", "--seed", "0", "--checks", "sigma_identity_sign")
        assert run_cli(capsys, *argv)[0] == 0

    def test_the_limits_themselves_are_accepted(self, capsys):
        top_i, top_j, top_m = expr.MAX_I_BOUND, expr.MAX_J_BOUND, expr.MAX_JORDAN
        code, out, _ = run_cli(
            capsys, "verify", "--i-bound", str(top_i), "--j-bound", str(top_j),
            "--m", f"1,{top_m}", "--list-checks",
        )
        assert code == 0 and out.split() == list(available_checks())
        code, out, _ = run_cli(capsys, "act", "--m", str(top_m), "t", f"v[0,1,{top_m}]")
        assert (code, out) == (0, f"v[1,1,{top_m}]\n")
        # sigma_identity_sign costs the same at every sample count.
        top_samples, top_seed = str(expr.MAX_SAMPLES), str(2**64 - 1)
        argv = ("--samples", top_samples, "--seed", top_seed, "--checks", "sigma_identity_sign")
        code, out, _ = run_cli(capsys, "verify", *argv, "--format", "json")
        assert code == 0 and json.loads(out)["config"]["samples"] == expr.MAX_SAMPLES


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
            argv, operand = ("act", "--n", "1", "D^1200", vector), "VECTOR"
        else:
            argv, operand = ("pair", "--n", "1", vector, "v[-3,1]"), "VBAR_VECTOR"
        start = time.perf_counter()
        code, out, err = run_cli(capsys, *argv)
        assert time.perf_counter() - start < 1
        assert (code, out) == (2, "")
        assert err == f"error: {operand}: {what} above the limit {top} (column {column})\n"

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


_FORMAL_ONLY = "'a' is read only when the module parameter is formal"


class TestTheFormalParameterUnderANumber:
    """A number given as --lambda leaves no formal 'a' to read: a coefficient that
    uses 'a' is refused at the column of its first 'a', in either format, after the
    name of the operand it is in."""

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize(
        "argv,operand,column",
        [
            (("pair", "--n", "1", "--lambda=-1/3", "(a)*v[2,1]", "v[-2,1]"), "VBAR_VECTOR", 2),
            (
                ("pair", "--n", "1", "--lambda=0", "v[2,1]", "v[-2,1] - 1/2 a^2 v[0,1]"),
                "V_VECTOR",
                15,
            ),
            (("pair", "--n", "1", "--lambda=5/2", "(a - a)*v[2,1]", "v[-2,1]"), "VBAR_VECTOR", 2),
            (
                ("act", "--n", "2", "--m", "2", "--lambda=3/2", "t", "v[0,1,2] + (1 - a)*v[1,2]"),
                "VECTOR",
                17,
            ),
            (
                ("act", "--n", "1", "--family", "Vbar", "--lambda=-7", "D", "2 * 3a v[0,1]"),
                "VECTOR",
                6,
            ),
        ],
    )
    def test_a_coefficient_in_a_is_refused_at_its_column(self, capsys, fmt, argv, operand, column):
        code, out, err = run_cli(capsys, argv[0], "--format", fmt, *argv[1:])
        assert (code, out) == (2, "")
        assert err == f"error: {operand}: {_FORMAL_ONLY} (column {column})\n"

    def test_a_syntax_error_before_the_a_is_reported_first(self, capsys):
        code, out, err = run_cli(capsys, "pair", "--n", "1", "--lambda=1/2", "v[0,1]", "(a v[0,1]")
        assert (code, out, err) == (2, "", "error: V_VECTOR: expected ')', found 'v' (column 4)\n")

    def test_a_formal_parameter_reads_a_on_both_sides(self, capsys):
        argv = ("pair", "--n", "1", "--lambda=formal", "(a)*v[2,1]", "v[-2,1]")
        assert run_cli(capsys, *argv) == (0, "a\n", "")
        code, out, _ = run_cli(capsys, "pair", "--n", "1", "(a)*v[2,1]", "a v[-2,1]")
        assert (code, out) == (0, "a^2\n")
        code, out, _ = run_cli(capsys, "act", "--n", "1", "--lambda=-1/3", "D", "3/2 v[0,1]")
        assert (code, out) == (0, "-1/2*v[0,1]\n")


# Each two-operand command: the metavars of its operands as --help shows them, where a
# repeated one carries its 1-based position, and two operands it accepts.
_TWO_OPERANDS = {
    "bracket": (("EXPR 1", "EXPR 2"), ("t", "D")),
    "product": (("EXPR 1", "EXPR 2"), ("t", "D")),
    "cocycle": (("EXPR 1", "EXPR 2"), ("t", "D")),
    "act": (("EXPR", "VECTOR"), ("t", "v[0,1]")),
    "pair": (("VBAR_VECTOR", "V_VECTOR"), ("v[0,1]", "v[0,1]")),
}
# What a stray X after each accepted operand is refused with.
_STRAY_X = {
    "t X": "unknown atom 'X' (atoms are t, D, FD, E[p,q], C) (column 3)",
    "D X": "unknown atom 'X' (atoms are t, D, FD, E[p,q], C) (column 3)",
    "v[0,1] X": "expected '+', '-' or end of input, found 'X' (column 8)",
}


class TestARefusalNamesItsOperand:
    """In a two-operand command a parse refusal opens with the metavar of the operand
    it is in, and where the metavar repeats, with its 1-based position."""

    def test_the_two_operands_of_bracket_are_told_apart(self, capsys):
        first = run_cli(capsys, "bracket", "--n", "1", "t +", "D")
        second = run_cli(capsys, "bracket", "--n", "1", "D", "t +")
        assert first == (2, "", "error: EXPR 1: expected a coefficient or an atom (column 4)\n")
        assert second == (2, "", "error: EXPR 2: expected a coefficient or an atom (column 4)\n")

    @pytest.mark.parametrize("command", sorted(_TWO_OPERANDS))
    @pytest.mark.parametrize("position", [0, 1])
    def test_each_operand_is_named(self, capsys, command, position):
        names, operands = _TWO_OPERANDS[command]
        operands = list(operands)
        operands[position] += " X"
        code, out, err = run_cli(capsys, command, "--n", "1", *operands)
        assert (code, out) == (2, "")
        assert err == f"error: {names[position]}: {_STRAY_X[operands[position]]}\n"

    @pytest.mark.parametrize("command", sorted(_TWO_OPERANDS))
    def test_the_names_are_the_metavars_of_help(self, capsys, command):
        code, out, _ = run_cli(capsys, command, "--help")
        usage = " ".join(out.split())  # one line, however argparse wraps it
        metavars = " ".join(name.split()[0] for name in _TWO_OPERANDS[command][0])
        assert code == 0 and f"] {metavars} " in usage


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
