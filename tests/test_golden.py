"""Golden outputs: canonical CLI text and JSON must stay byte-identical.

tests/golden/cli_corpus.json holds a fixed corpus of CLI calls, with the
exit code, stdout and stderr each one produced when the corpus was
captured: every subcommand in text and JSON, 10-30-term operands with
2-digit rationals, --lambda specialisations, and refused input.
tests/golden/verify_default.json holds the default `verify --format json`
report with the timing fields removed.  tests/golden/cli_help.json holds
the --help text of the top-level parser and of every subcommand at
COLUMNS=80.  tests/golden/mutation_reports.json holds the timing-free
report of run_suite(CFG) of tests/test_mutations.py, unmutated and under
each of its MUTATIONS, keyed by mutation name; test_mutations.py compares
each run it makes against it.  Any change to these bytes is a change of
the output format and must be deliberate; such a change is recorded by
writing run(argv) of each case, default_verify_report() and
help_text(command) back into the files, and json.dumps(mutation_reports(),
indent=1) of test_mutations.py, plus a newline, into mutation_reports.json.
"""

import contextlib
import io
import json
import re
from pathlib import Path

import pytest

from mdop.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
CORPUS = GOLDEN / "cli_corpus.json"
VERIFY_DEFAULT = GOLDEN / "verify_default.json"
HELP = GOLDEN / "cli_help.json"
HELP_COMMANDS = (
    "", "bracket", "product", "cocycle", "sigma", "degree", "convert", "act", "pair", "verify",
)


def _strip_timing(argv: list[str], stdout: str) -> str:
    if argv[0] != "verify" or not stdout:
        return stdout
    if "json" not in argv:
        return re.sub(r"time=\d+\.\d+s", "time=*", stdout)
    report = json.loads(stdout)
    for row in report["checks"]:
        del row["elapsed_s"]
    return json.dumps(report) + "\n"


def run(argv: list[str]) -> tuple[int, str, str]:
    """Exit code, stdout (timing removed) and stderr of one in-process call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, _strip_timing(argv, out.getvalue()), err.getvalue()


def default_verify_report() -> str:
    return run(["verify", "--format", "json"])[1]


def help_text(command: str) -> str:
    """The --help output of the top-level parser ("") or of one subcommand."""
    code, stdout, stderr = run([command, "--help"] if command else ["--help"])
    assert (code, stderr) == (0, "")
    return stdout


_CASES = json.loads(CORPUS.read_text())


@pytest.mark.parametrize("case", _CASES, ids=[f"{i:03d}-{c['argv'][0]}" for i, c in enumerate(_CASES)])
def test_cli_corpus(case):
    assert run(case["argv"]) == (case["exit"], case["stdout"], case["stderr"])


def test_default_verify_report():
    assert default_verify_report() == VERIFY_DEFAULT.read_text()


@pytest.mark.parametrize("command", HELP_COMMANDS, ids=[c or "mdop" for c in HELP_COMMANDS])
def test_help_text(monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "80")
    assert help_text(command) == json.loads(HELP.read_text())[command]
