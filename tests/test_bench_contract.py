"""The names and call shapes the benchmark harness in bench/ relies on.

bench/ is not part of the test suite, so a change could remove a name it
calls and still pass.  These tests read every mdop name bench/*.py refers
to, call the kernel in the shapes the harness uses, and run the CLI and
kernel-large workloads' call schedules in-process through the harness's
own checkers.
"""

import ast
import contextlib
import importlib
import io
import random
import subprocess
from fractions import Fraction
from pathlib import Path

import pytest

from mdop import algebra, cli, exact, reps, verify
from mdop.algebra import AlgebraElement, FallingElement, Monomial
from mdop.exact import Poly
from mdop.reps import Family, ModuleParams, ModuleVector

BENCH = Path(__file__).resolve().parent.parent / "bench"
SOURCES = sorted(BENCH.glob("*.py"))


def _trees():
    return [ast.parse(path.read_text()) for path in SOURCES]


def _referenced_names():
    """(module, attribute) pairs for every mdop name bench/*.py mentions."""
    names = set()
    for tree in _trees():
        aliases = {}  # local name -> mdop module path
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module:
                if node.module == "mdop":
                    for a in node.names:
                        aliases[a.asname or a.name] = f"mdop.{a.name}"
                elif node.module.startswith("mdop."):
                    names.update((node.module, a.name) for a in node.names)
            elif isinstance(node, ast.Import):
                for a in node.names:
                    if a.name.startswith("mdop."):
                        aliases[a.name] = a.name
        for node in ast.walk(tree):
            if not isinstance(node, ast.Attribute):
                continue
            if isinstance(node.value, ast.Name) and node.value.id in aliases:
                names.add((aliases[node.value.id], node.attr))
            elif ast.unparse(node.value) in aliases:  # dotted, as mdop.cli.main
                names.add((ast.unparse(node.value), node.attr))
    return sorted(names)


def _string_tuple(name):
    for tree in _trees():
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == name for t in node.targets)
            ):
                return ast.literal_eval(node.value)
    raise LookupError(name)


def test_bench_sources_found():
    assert {"layers.py", "workloads.py"} <= {path.name for path in SOURCES}
    assert len(_referenced_names()) > 20


@pytest.mark.parametrize("module,attr", _referenced_names())
def test_referenced_name_resolves(module, attr):
    assert hasattr(importlib.import_module(module), attr)


@pytest.mark.parametrize("table_name", ("ALGEBRA_OPS", "KERNEL_OPS"))
def test_ops_called_by_name_resolve(table_name):
    for op in _string_tuple(table_name):
        assert callable(getattr(algebra, op)), op


def test_jordan_power_shape():
    base = Poly((Fraction(3, 101) + 4, 1))
    band = exact.jordan_shifted_power(base, 3, 8)
    assert isinstance(band, tuple) and len(band) == 3
    assert all(isinstance(w, Poly) for w in band)


def test_stirling_tables_clear_and_rebuild():
    # Rows are built on each call and nothing is kept, so a rebuild is equal.
    for table in (exact.power_to_falling_coeffs, exact.falling_to_power_coeffs):
        assert not hasattr(table, "cache_clear")
        row = table(64)
        assert row[64] == 1 and table(64) == row


def test_sampler_shapes():
    rng = random.Random(5)
    assert isinstance(verify.sample_element(rng, 2, 3, 3), AlgebraElement)
    assert isinstance(verify.sample_element(rng, 2, 3, 3, allow_central=True), AlgebraElement)
    falling = verify.sample_falling_element(rng, 2, 3, 3, allow_central=True)
    assert isinstance(falling, FallingElement)
    assert isinstance(verify.sample_falling_element(rng, 2, 3, 3), FallingElement)
    params = ModuleParams.specialized(Family.V, 2, 3, Fraction(1, 97))
    assert isinstance(verify.sample_module_vector(rng, params, 3), ModuleVector)


def test_algebra_ops_accept_harness_arguments():
    rng = random.Random(6)
    a, b = (verify.sample_element(rng, 2, 3, 3) for _ in range(2))
    fa, fb = (verify.sample_falling_element(rng, 2, 3, 3) for _ in range(2))
    for op in _string_tuple("ALGEBRA_OPS"):
        if op == "bracket_falling_direct":
            args = (fa, fb)
        elif op in ("sigma", "to_falling"):
            args = (a,)
        else:
            args = (a, b)
        getattr(algebra, op)(*args)
    assert isinstance(algebra.from_falling(fa), AlgebraElement)


def test_terms_map_monomials_to_fractions():
    table = {Monomial(-2, 3, 1, 2): Fraction(-7, 9), Monomial(1, 0, 2, 2): Fraction(5)}
    for cls in (AlgebraElement, FallingElement):
        assert cls(2, table).terms == table
    a = AlgebraElement(2, table)
    b = AlgebraElement(2, {Monomial(1, 1, 2, 1): 3})
    out = algebra.central_bracket(a, b)
    assert out.terms
    for mono, c in out.terms.items():
        assert type(mono) is Monomial and type(c) is Fraction
        assert tuple(mono) == (mono.i, mono.j, mono.p, mono.q)  # unpacked by the oracles


def test_module_calls_accept_harness_arguments():
    rng = random.Random(7)
    params_w = ModuleParams.formal(Family.VBAR, 2)
    w = verify.sample_module_vector(rng, params_w, 3)
    v = verify.sample_module_vector(rng, params_w.dual(), 3)
    assert isinstance(reps.pairing(w, v), Poly)
    x = verify.sample_element(rng, 2, 3, 3)
    image = reps.act(x, verify.sample_module_vector(rng, ModuleParams.formal(Family.V, 2, 2), 3))
    assert all(isinstance(c, Poly) for c in image.entries.values())


def test_cli_schedule_passes_the_harness_checks(monkeypatch):
    # Two seeds of three passes: every subcommand in text and JSON, the
    # malformed inputs and one high-exponent convert per pass.
    monkeypatch.syspath_prepend(str(BENCH))  # workloads imports its siblings by name
    workloads = importlib.import_module("workloads")
    tally = workloads.Tally()
    for seed in (1, 2):
        rng = random.Random(seed)
        for pass_index in range(3):
            for call in workloads.cli_schedule(rng, pass_index):
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = cli.main(list(call.argv))
                proc = subprocess.CompletedProcess(call.argv, code, out.getvalue(), err.getvalue())
                workloads.check_cli(call, proc, tally)
    assert tally.attempted == 120
    assert tally.failed == 0, tally.notes


def test_kernel_schedule_passes_the_harness_checks(monkeypatch):
    # Seed 1, passes 0-6: every term count 10-30 at ranks 1 and 3 for each
    # op of the mix, plus the nested bracket, checked in-process by the
    # harness's second routes.
    monkeypatch.syspath_prepend(str(BENCH))
    workloads = importlib.import_module("workloads")
    tally = workloads.Tally()
    rng = random.Random(1)
    for pass_index in range(7):
        for op, args in workloads.kernel_schedule(rng, pass_index):
            out = workloads.call_kernel(op, args)
            tally.record(workloads.check_kernel(op, args, out), f"{op} rank={args[0].rank}")
    assert tally.attempted == 7 * 44
    assert tally.failed == 0, tally.notes
