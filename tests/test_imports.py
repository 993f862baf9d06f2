"""What a process loads: the package resolves its exports on first use, and
each CLI subcommand imports only the layers it needs.

The import-graph tests start a fresh interpreter per case, with no bytecode
written, run the CLI as `python -m mdop` does and read sys.modules at exit.
"""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mdop

SRC = Path(__file__).resolve().parent.parent / "src"
SUBMODULES = ("algebra", "cli", "exact", "expr", "reps", "verify")

# Runs `mdop <argv>` as `python -m mdop` does, then prints the exit code and
# every loaded module on the last line.
_CLI_PROBE = """
import runpy, sys
try:
    runpy.run_module("mdop", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
print(code, *sorted(sys.modules))
"""


def _child(*args: str) -> list[str]:
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1].split()


def _cli_modules(*argv: str) -> tuple[int, set[str]]:
    code, *modules = _child("-c", _CLI_PROBE, *argv)
    return int(code), set(modules)


ELEMENT_CALLS = [
    ("bracket", "--n", "1", "D", "t"),
    ("product", "--n", "2", "--format", "json", "D E[1,2]", "t"),
    ("cocycle", "--n", "1", "t", "t^-1"),
    ("sigma", "--n", "1", "t D"),
    ("degree", "--n", "2", "t E[1,2] + D"),
    ("convert", "--n", "1", "--to", "falling", "D^2"),
]
REFUSED_CALLS = [
    ("bracket", "--n", "1", "t +", "D"),
    ("sigma", "--n", "1"),
]
MODULE_CALLS = [
    ("act", "--n", "2", "--m", "2", "--lambda=3/2", "t E[1,2]", "v[0,2,2]"),
    ("pair", "--n", "1", "v[2,1]", "v[-2,1]"),
]


def test_import_loads_no_submodule():
    loaded = _child("-c", "import mdop, sys; print('mdop', *sorted(sys.modules))")
    assert [name for name in loaded if name.startswith("mdop.")] == []


@pytest.mark.parametrize(
    "argv,code", [(argv, 0) for argv in ELEMENT_CALLS] + [(argv, 2) for argv in REFUSED_CALLS]
)
def test_element_path_loads_no_reps_verify_or_dataclasses(argv, code):
    exit_code, loaded = _cli_modules(*argv)
    assert exit_code == code
    assert {"mdop.algebra", "mdop.expr", "mdop.cli"} <= loaded
    assert not loaded & {"mdop.reps", "mdop.verify", "dataclasses", "inspect"}


@pytest.mark.parametrize("argv", MODULE_CALLS)
def test_module_commands_load_reps_only(argv):
    exit_code, loaded = _cli_modules(*argv)
    assert exit_code == 0
    assert "mdop.reps" in loaded
    assert not loaded & {"mdop.verify", "dataclasses"}


def test_verify_loads_its_layer():
    # The probe sees a load when there is one.
    exit_code, loaded = _cli_modules("verify", "--list-checks")
    assert exit_code == 0
    assert {"mdop.reps", "mdop.verify", "dataclasses"} <= loaded


def test_the_samplers_load_no_process_machinery():
    # mdop.shares forks the workers of run_suite; drawing samples needs none of it.
    loaded = set(_child("-c", "import sys, mdop.verify; print(*sorted(sys.modules))"))
    assert "mdop.verify" in loaded
    assert not loaded & {"mdop.shares", "mmap", "signal"}


def test_submodule_resolves_on_attribute_access():
    loaded = _child("-c", "import mdop; print(mdop.verify.run_suite.__name__)")
    assert loaded == ["run_suite"]


def test_every_export_resolves():
    homes = [importlib.import_module(f"mdop.{name}") for name in SUBMODULES]
    assert mdop.__all__ == sorted(set(mdop.__all__))
    for name in mdop.__all__:
        namespace = {}
        exec(f"from mdop import {name}", namespace)
        value = getattr(mdop, name)
        assert namespace[name] is value
        assert any(getattr(home, name, None) is value for home in homes)


def test_star_import_binds_every_export():
    namespace = {}
    exec("from mdop import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(mdop.__all__)


def test_dir_lists_exports_and_submodules():
    assert set(mdop.__all__) | set(SUBMODULES) <= set(dir(mdop))


def test_submodules_are_attributes():
    for name in SUBMODULES:
        assert getattr(mdop, name) is importlib.import_module(f"mdop.{name}")


def test_unknown_name_is_refused():
    with pytest.raises(AttributeError, match="no_such_name"):
        mdop.no_such_name
    with pytest.raises(ImportError):
        exec("from mdop import no_such_name", {})
