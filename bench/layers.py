"""Per-layer metrics: timings of single calls into each module, work counts,
and the traced run of a workload.

Every timing calls a public function of one layer from outside, at fixed
term counts and D powers, on inputs drawn from the workload seed.
"""

from __future__ import annotations

import contextlib
import dataclasses
import random
import statistics
import tempfile
import time
from fractions import Fraction
from pathlib import Path

from mdop import algebra, exact, expr, reps, verify
from mdop.algebra import FallingElement
from mdop.exact import Poly
from mdop.reps import Family, ModuleParams

import tracer as tracing
import workloads as wl

OUT = Path(__file__).resolve().parent / "out"


def median_us(fn, args_list: list[tuple], batches: int = 5) -> float:
    """Median over equal batches of args_list of the mean time per call, in µs."""
    size = max(1, len(args_list) // batches)
    per_call = []
    for b in range(batches):
        chunk = args_list[b * size : (b + 1) * size] or args_list[:size]
        start = time.perf_counter()
        for args in chunk:
            fn(*args)
        per_call.append((time.perf_counter() - start) / len(chunk))
    return statistics.median(per_call) * 1e6


def _poly(rng: random.Random, degree: int) -> Poly:
    return Poly([wl.two_digit(rng) for _ in range(degree)] + [Fraction(rng.randint(1, 99), 7)])


def _stirling_cold(j: int) -> None:
    for table in (exact.power_to_falling_coeffs, exact.falling_to_power_coeffs):
        if hasattr(table, "cache_clear"):  # the tables need not stay cached
            table.cache_clear()
        table(j)


def exact_layer(rng: random.Random) -> dict:
    d2 = [(_poly(rng, 2), _poly(rng, 2)) for _ in range(50)] * 40
    d8 = [(_poly(rng, 8), _poly(rng, 8)) for _ in range(50)] * 10
    # A base seen before would hit the cache; every call here takes a new one.
    bases = [(Poly((Fraction(k, 101) + rng.randint(0, 9), 1)), 3, 8) for k in range(200)]
    return {
        "exact.poly_mul_us.d2": (median_us(Poly.__mul__, d2), "us"),
        "exact.poly_mul_us.d8": (median_us(Poly.__mul__, d8), "us"),
        "exact.stirling_cold_ms.j64": (median_us(_stirling_cold, [(64,)] * 15) / 1e3, "ms"),
        "exact.stirling_cold_ms.j256": (median_us(_stirling_cold, [(256,)] * 5) / 1e3, "ms"),
        "exact.jordan_power_us.m3_j8": (median_us(exact.jordan_shifted_power, bases), "us"),
    }


ALGEBRA_OPS = (
    "canonical_product",
    "central_bracket",
    "cocycle_psi",
    "sigma",
    "to_falling",
    "bracket_falling_direct",
)


def _op_args(op: str, a, b, fa, fb) -> tuple:
    if op == "bracket_falling_direct":
        return (fa, fb)
    if op in ("sigma", "to_falling"):
        return (a,)
    return (a, b)


def algebra_layer(rng: random.Random, tally: wl.Tally) -> dict:
    small = [
        tuple(verify.sample_element(rng, 2, 3, 3) for _ in range(2))
        + tuple(verify.sample_falling_element(rng, 2, 3, 3) for _ in range(2))
        for _ in range(50)
    ]
    a, b = (wl.large_element(rng, 3, 30) for _ in range(2))
    fa, fb = (wl.large_element(rng, 3, 30, FallingElement) for _ in range(2))
    out = {}
    for op in ALGEBRA_OPS:
        fn = getattr(algebra, op)
        calls = [_op_args(op, *row) for row in small] * 4
        out[f"algebra.{op}_us.small"] = (median_us(fn, calls), "us")
        args = _op_args(op, a, b, fa, fb)
        reps_large = 25 if op in ("sigma", "to_falling") else 5
        out[f"algebra.{op}_us.large"] = (median_us(fn, [args] * reps_large), "us")
        tally.record(wl.check_kernel(op, args, fn(*args)), f"{op} large")
    bracket = algebra.central_bracket(a, b)
    coeffs = [*bracket.terms.values(), bracket.central]
    matches = sum(ma.q == mb.p for ma in a.terms for mb in b.terms)
    out["algebra.out_terms.large"] = (len(bracket.terms), "count")
    out["algebra.coeff_bits_max.large"] = (
        max(max(c.numerator.bit_length(), c.denominator.bit_length()) for c in coeffs),
        "bits",
    )
    out["algebra.pair_match_ratio.large"] = (matches / (len(a.terms) * len(b.terms)), "ratio")
    return out


def reps_layer(rng: random.Random) -> dict:
    def pairs(m: int, count: int, special: bool):
        rows = []
        for k in range(count):
            params = (
                ModuleParams.specialized(Family.V, 2, m, Fraction(k + 1, 97))
                if special
                else ModuleParams.formal(Family.V, 2, m)
            )
            rows.append((verify.sample_element(rng, 2, 3, 3), verify.sample_module_vector(rng, params, 3)))
        return rows

    m1, m2 = pairs(1, 50, False), pairs(2, 50, False)
    m3 = pairs(3, 250, True)  # a fresh parameter per call, so the Jordan cache misses
    params_w = ModuleParams.formal(Family.VBAR, 2)
    pairing_args = [
        (verify.sample_module_vector(rng, params_w, 3), verify.sample_module_vector(rng, params_w.dual(), 3))
        for _ in range(50)
    ]
    visited = matched = 0
    for x, v in m1 + m2 + m3:
        for mono in x.terms:
            for key in v.entries:
                visited += 1
                matched += mono.q == key[1]
    return {
        "reps.act_us.m1_formal": (median_us(reps.act, m1 * 10), "us"),
        "reps.act_us.m2_formal": (median_us(reps.act, m2 * 10), "us"),
        "reps.act_us.m3_special": (median_us(reps.act, m3), "us"),
        "reps.pairing_us": (median_us(reps.pairing, pairing_args * 20), "us"),
        "reps.act_pair_match_ratio": (matched / visited, "ratio"),
    }


def expr_layer(rng: random.Random) -> dict:
    elements = [wl.large_element(rng, 3, 30) for _ in range(10)]
    texts = [(expr.format_element(e), 3) for e in elements]
    params = ModuleParams.formal(Family.V, 2, 2)
    vectors = [
        (expr.format_module_vector(verify.sample_module_vector(rng, params, 3)), params)
        for _ in range(50)
    ]
    return {
        "expr.parse_element_us.t30": (median_us(expr.parse_element, texts * 5), "us"),
        "expr.format_element_us.t30": (
            median_us(expr.format_element, [(e,) for e in elements] * 5),
            "us",
        ),
        "expr.parse_module_vector_us": (median_us(expr.parse_module_vector, vectors * 10), "us"),
    }


def verify_layer(config: verify.SuiteConfig, tally: wl.Tally) -> dict:
    """Each check alone at the given config, in this process."""
    out, total_samples = {}, 0
    for name in verify.available_checks():
        report = verify.run_suite(dataclasses.replace(config, checks=(name,)))
        wl.check_report(report.config, report.to_json()["checks"], tally)
        (result,) = report.results
        out[f"verify.check_s.{name}"] = (result.elapsed, "s")
        total_samples += result.samples
    out["verify.samples"] = (total_samples, "count")
    return out


def cli_layer(rng: random.Random, tally: wl.Tally) -> dict:
    env = wl.child_env()
    floor = statistics.median(wl.run_child(["-c", "pass"], env)[0] for _ in range(5))
    imported = statistics.median(wl.run_child(["-c", "import mdop.cli"], env)[0] for _ in range(5))
    out = {
        "cli.interp_floor_ms": (floor * 1e3, "ms"),
        "cli.import_ms": ((imported - floor) * 1e3, "ms"),
    }
    for kind in wl.CLI_SUBCOMMANDS:
        call = wl.small_call(rng, kind, "text")
        times = []
        for _ in range(3):
            elapsed, proc = wl.run_child(["-m", "mdop", *call.argv], env)
            wl.check_cli(call, proc, tally)
            times.append(elapsed)
        out[f"cli.call_ms.{kind}"] = (statistics.median(times) * 1e3, "ms")
    # The known crash: convert at fixed high exponents, the same for every
    # seed.  A crash is counted here and not in the tally; a wrong result is.
    probe = wl.Tally()
    for j in wl.HIGH_PROBE_J:
        for variant in range(3):
            call = wl.high_call(j, variant)
            wl.check_cli(call, wl.run_child(["-m", "mdop", *call.argv], env)[1], probe)
    if probe.wrong:
        tally.record(False, f"high-exponent probe: {probe.notes}")
    out["cli.high_exponent_ok"] = (probe.attempted - probe.failed, "count")
    return out


@contextlib.contextmanager
def _installed(tr: tracing.Tracer):
    uninstall = tr.install()
    try:
        yield
    finally:
        uninstall()


def traced_run(workload: str, config: verify.SuiteConfig, tally: wl.Tally) -> dict:
    """Passes of the workload with spans on, against the same passes with them off.

    The passes run untraced, traced, traced, untraced, so that a steady
    drift of the machine's speed cancels from the overhead; all run after
    the caches are warm.  Wall times are compared, and the spans of the
    last traced pass give the self times.
    """
    OUT.mkdir(exist_ok=True)
    seed = config.seed
    wall = {False: 0.0, True: 0.0}
    for traced in (False, True, True, False):
        tr = tracing.Tracer()
        if workload == "verify-default":
            with _installed(tr) if traced else contextlib.nullcontext():
                start = time.perf_counter()
                report = verify.run_suite(config)
                wall[traced] += time.perf_counter() - start
            wl.check_report(config, report.to_json()["checks"], tally)
            spans = tr.to_json()
        elif workload == "kernel-large":
            around = (lambda: _installed(tr)) if traced else contextlib.nullcontext
            run = wl.kernel_large(seed, 0, passes=1, around=around)
            wall[traced] += run.counts["busy_wall_s"]
            tally.merge(run.tally)
            spans = tr.to_json()
        elif workload == "cli-oneshot":
            with tempfile.TemporaryDirectory(dir=OUT) as spans_dir:
                launcher = (str(Path(tracing.__file__)), spans_dir, "--")
                run = wl.cli_oneshot(seed, 0, passes=1, launcher=launcher if traced else ("-m", "mdop"))
                parts = [tracing.read(path) for path in sorted(Path(spans_dir).iterdir())]
            wall[traced] += run.counts["busy_wall_s"]
            tally.merge(run.tally)
            spans = tracing.merge(parts)
        else:
            raise ValueError(f"unknown workload {workload}")
        if traced:
            traced_spans = spans
    tracing.write(traced_spans, OUT / f"spans-{workload}-s{seed}.json.gz")
    selfs = tracing.self_times(traced_spans)
    out = {f"trace.{layer}.self_s": (selfs[layer], "s") for layer in tracing.LAYERS}
    out["trace.overhead_ratio"] = (wall[True] / wall[False] - 1, "ratio")
    out["trace.spans"] = (len(traced_spans["start"]), "count")
    return out


def per_layer(
    workload: str, seed: int, config: verify.SuiteConfig | None = None
) -> tuple[dict, wl.Tally]:
    """Every per-layer metric, for the traced run of the given workload.

    config is the suite run by the verify layer and by a traced
    verify-default; the default config at this seed unless given.
    """
    config = config or verify.SuiteConfig(seed=seed)
    rng = random.Random(seed)
    tally = wl.Tally()
    metrics = {}
    metrics.update(exact_layer(rng))
    metrics.update(algebra_layer(rng, tally))
    metrics.update(reps_layer(rng))
    metrics.update(expr_layer(rng))
    metrics.update(verify_layer(config, tally))
    metrics.update(cli_layer(rng, tally))
    metrics.update(traced_run(workload, config, tally))
    return metrics, tally
