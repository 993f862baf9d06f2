"""Tiny versions of the benchmark workloads.

Run with ``python -m pytest -q bench/tests``.  They check that every
metric named in BENCHMARK.json comes out with its unit, and that a
deliberately corrupted output is counted as failed.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import layers  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import workloads as wl  # noqa: E402
from mdop import algebra, verify  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY_SUITE = verify.SuiteConfig(seed=1, samples=2)


def tiny(workload: str) -> wl.Run:
    if workload == "verify-default":
        return wl.verify_default(1, 0, config=TINY_SUITE)
    if workload == "kernel-large":
        return wl.kernel_large(1, 0, passes=1)
    return wl.cli_oneshot(1, 0, passes=1)


def units(spec_list) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in spec_list}


def test_spec_lists_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES)


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_end_to_end_metrics_have_names_and_units(workload):
    result = tiny(workload)
    metrics, samples, _ = run.summarize(result, [0.1, 0.12, 0.11])
    assert {name: unit for name, (_, unit) in metrics.items()} == units(SPEC["end_to_end"])
    assert all(value > 0 for value, _ in metrics.values())
    assert samples["op_p90_ms"] == len(result.times["op"])
    assert result.tally.wrong == 0


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_per_layer_metrics_have_names_and_units(workload):
    metrics, tally = layers.per_layer(workload, 1, config=TINY_SUITE)
    assert {name: unit for name, (_, unit) in metrics.items()} == units(SPEC["per_layer"])
    assert tally.wrong == 0
    assert metrics["trace.algebra.self_s"][0] > 0
    if workload == "kernel-large":
        # The workload bypasses every layer above algebra.
        for layer in ("verify", "reps", "expr"):
            assert metrics[f"trace.{layer}.self_s"][0] == 0


def test_runs_end_on_whole_cycles():
    began = wl.time.perf_counter()
    assert wl.keep_going(0, began, 0, None, 7)
    assert wl.keep_going(3, began, 0, None, 7)
    assert not wl.keep_going(7, began, 0, None, 7)
    assert wl.keep_going(7, began, 60, None, 7)


def test_times_are_scaled_by_the_run_speed_factor():
    probe = speed.SpeedProbe()
    probe.calibrations = [speed.REFERENCE_S / 2] * 3  # the loop ran twice as fast
    result = wl.scaled_run(wl.Tally(), {"op": [1.0, 3.0]}, {"busy_wall_s": 4.0}, 1.0, probe)
    assert result.speed_factor == 2
    assert result.times["op"] == [2.0, 6.0]
    assert result.counts["busy_s"] == 8.0


def test_corrupted_kernel_output_is_failed(monkeypatch):
    original = algebra.sigma
    monkeypatch.setattr(algebra, "sigma", lambda a: -original(a))
    result = wl.kernel_large(1, 0, passes=1)
    sigma_calls = len(wl.KERNEL_RANKS) * len(wl.KERNEL_BANDS)
    assert result.tally.failed == result.tally.wrong == sigma_calls
    metrics, _, extra = run.summarize(result, [0.1])
    assert extra["fail_ratio"] == sigma_calls / result.tally.attempted
    assert metrics["ok_ratio"][0] == 1 - extra["fail_ratio"]


def test_corrupted_suite_is_failed(monkeypatch):
    corrupt = "import mdop.algebra as A; s = A.sigma; A.sigma = lambda a: -s(a)\n"
    monkeypatch.setattr(wl, "_SUITE_CHILD", corrupt + wl._SUITE_CHILD)
    result = wl.verify_default(1, 0, config=TINY_SUITE)
    assert result.tally.wrong >= 2  # sigma_identity_sign and sigma_bracket at least


def test_corrupted_cli_output_is_failed():
    corrupt = (
        "-c",
        "import sys; from mdop.cli import main; print('x'); sys.exit(main(sys.argv[1:]))",
    )
    result = wl.cli_oneshot(1, 0, passes=1, launcher=corrupt)
    assert result.tally.failed == result.tally.wrong == result.tally.attempted
    metrics, _, _ = run.summarize(result, [0.1])
    assert metrics["ok_ratio"][0] == 0


def test_high_exponent_reference_matches_library_below_the_crash():
    call = wl.high_call(300, 0)
    assert call.argv[-1] == "D^300"
    from mdop import expr

    element = expr.parse_element("D^300", 1)
    assert wl._emit(algebra.to_falling(element), "text") == call.stdout


def test_scheduled_high_calls_succeed_and_the_probe_shows_the_crash():
    env = wl.child_env()
    for j, variant in wl.HIGH_CALLS:
        call = wl.high_call(j, variant)
        proc = wl.run_child(["-m", "mdop", *call.argv], env)[1]
        assert proc.returncode == 0 and proc.stdout == call.stdout + "\n"
    crash = wl.high_call(max(wl.HIGH_PROBE_J), 0)
    proc = wl.run_child(["-m", "mdop", *crash.argv], env)[1]
    assert proc.returncode == 1 and "RecursionError" in proc.stderr


def test_refuses_to_run_without_sources():
    # A copy of the benchmark alone, kept inside the benchmark's output directory.
    layers.OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=layers.OUT) as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(
            BENCH, Path(bare, "bench"), ignore=shutil.ignore_patterns("out", "__pycache__")
        )
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "kernel-large", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
    assert proc.returncode != 0
    assert proc.stdout == ""
