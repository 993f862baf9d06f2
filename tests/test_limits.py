"""High-D calls at the CLI limit: each runs as its own process under a time
limit, and its output is checked by evaluating the falling factorials.  And
every limit of mdop.expr is documented in README "Resource limits"."""

import json
import re
from pathlib import Path

import pytest

from mdop import expr
from test_cli import _falling_power, _run_module, all_digits  # noqa: F401 (a fixture)

J = 1200
TIMEOUT_S = 10


def _run(*argv):
    proc = _run_module(*argv, timeout=TIMEOUT_S)
    assert (proc.returncode, proc.stderr) == (0, "")
    return proc.stdout


def test_convert_to_falling():
    out = json.loads(_run("convert", "--n", "1", "--to", "falling", "--format", "json", f"FD^{J}"))
    coeffs = {t["j"]: int(t["coeff"]) for t in out["terms"]}
    for x in (-3, 0, J - 1, J, J + 7):
        assert sum(c * _falling_power(x, s) for s, c in coeffs.items()) == _falling_power(x, J)


@pytest.mark.parametrize("l", [J, 40])
def test_cocycle(all_digits, l):
    # psi(t^-r f(D), t^r g(D)) = -sum_{x=-r}^{-1} g(x) f(x + r), f = [D]_l and
    # g = [D]_1200: zero when l > r, since f(x + r) = [x + r]_l vanishes there.
    r = 50
    out = _run("cocycle", "--n", "1", "--", f"t^-{r} FD^{l}", f"t^{r} FD^{J}")
    expected = -sum(_falling_power(x, J) * _falling_power(x + r, l) for x in range(-r, 0))
    assert int(out) == expected
    assert (expected == 0) == (l > r)


def test_every_limit_is_in_the_readme_table():
    # A new or changed MAX_* constant cannot go undocumented.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("### Resource limits", 1)[1].split("\n## ", 1)[0]
    text = " ".join(section.split())
    limits = {name: value for name, value in vars(expr).items() if name.startswith("MAX_")}
    assert len(limits) >= 7
    for name, value in limits.items():
        assert re.search(rf"`mdop\.expr\.{name}` = {value}(?!\d)", text), name
