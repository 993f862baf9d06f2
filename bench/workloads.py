"""The three workloads: seeded inputs, timed calls and output checks.

Each workload is a closed loop with a single client: the next operation
starts only after the previous one has finished, and at most one child
process runs at a time.  A workload runs passes over a fixed schedule;
``between``, if given, is called after each pass, outside the timing.  Inputs come from random.Random(seed) alone.
Outputs are checked outside the timed region.  Every operation that does
not give the expected result counts as failed; a failed operation whose
program exited normally (exit 0, or exit 2 with a message) but gave a
different result is also counted as wrong.  A crash (a traceback, or any
other exit code) is failed but not wrong.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from mdop import algebra, expr, reps, verify
from mdop.algebra import AlgebraElement, FallingElement, Monomial
from mdop.reps import Family, ModuleParams

import oracles
import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


@dataclass
class Tally:
    """Operations attempted, failed and wrong, with the first failures named."""

    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    notes: list[str] = field(default_factory=list)

    def record(self, ok: bool, what: str, crashed: bool = False) -> None:
        self.attempted += 1
        if ok:
            return
        self.failed += 1
        if not crashed:
            self.wrong += 1
        if len(self.notes) < 5:
            self.notes.append(("crash: " if crashed else "wrong: ") + what)

    def merge(self, other: Tally) -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.wrong += other.wrong
        self.notes.extend(other.notes[: max(0, 5 - len(self.notes))])


@dataclass
class Run:
    """What one workload run measured."""

    tally: Tally
    times: dict[str, list[float]]  # named timing samples, seconds at the reference speed
    counts: dict[str, float]  # work done, by name
    peak_rss_mb: float
    speed_factor: float  # reference-speed seconds per wall second in this run


def scaled_run(tally, times, counts, peak_rss_mb, probe: speed.SpeedProbe) -> Run:
    """A Run whose wall times are scaled by the probe's factor; busy_wall_s
    keeps the wall time of the timed work."""
    factor = probe.factor
    counts = {**counts, "busy_s": counts["busy_wall_s"] * factor}
    times = {kind: [t * factor for t in values] for kind, values in times.items()}
    return Run(tally, times, counts, peak_rss_mb, factor)


def percentile(values: list[float], pct: int) -> float:
    """The pct-th percentile by statistics.quantiles' default method."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100)[pct - 1]


def keep_going(
    done: int, began: float, seconds: float, passes: int | None, cycle: int = 1
) -> bool:
    """Run whole cycles of passes until the time is spent, at least one; or
    exactly `passes`.  The passes of a cycle differ in their mix, so a run
    of whole cycles has the same mix whatever its length."""
    if passes is not None:
        return done < passes
    return done == 0 or done % cycle != 0 or time.perf_counter() - began < seconds


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(args: list[str], env: dict) -> tuple[float, subprocess.CompletedProcess]:
    """Run one child Python process to completion; returns (wall seconds, result)."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=120
    )
    return time.perf_counter() - start, proc


def time_import(env: dict) -> float:
    """Wall time of a fresh interpreter running ``import mdop``."""
    return run_child(["-c", "import mdop"], env)[0]


def self_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def children_rss_mb() -> float:
    """Largest ru_maxrss of any child so far; it includes this process's
    resident pages at the time of the spawn."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024


# ---------------------------------------------------------------------------
# verify-default: the headline run of the verification suite.


def expected_samples(cfg: verify.SuiteConfig) -> dict[str, int]:
    """Samples each check runs at a config, from the loop bounds of the checks."""
    ranks, per = cfg.ranks, len(cfg.ranks) * cfg.samples
    box = 2 * cfg.i_bound + 1
    modules = len(cfg.ranks) * len(cfg.m_values) * cfg.samples
    counts = dict.fromkeys(
        (
            "antisymmetry", "associativity", "cocycle_identity", "falling_agreement",
            "grading_additivity", "jacobi_central", "jacobi_plain", "no_hw_lw",
            "pairing_contravariance", "sigma_bracket", "sigma_involution", "twist_action",
        ),
        per,
    )
    counts.update(
        module_axiom_V=modules,
        module_axiom_Vbar=modules,
        module_grading=2 * modules,
        sigma_identity_sign=len(ranks),
        matrix_unit_bracket=sum(n**4 for n in ranks),
        vector_field_bracket=len(ranks) * box * box,
        grade_bijection=sum(2 * (201 + 51 * n) for n in ranks),
    )
    return counts


def check_report(config: verify.SuiteConfig, checks: list[dict], tally: Tally) -> None:
    """One tally entry per check: it passed and ran the expected sample count.

    checks are rows of Report.to_json()["checks"].
    """
    expected = expected_samples(config)
    names = [c["name"] for c in checks]
    if names != sorted(expected) and config.checks is None:
        tally.record(False, f"report lists checks {names}")
    for c in checks:
        ok = c["passed"] and c["samples"] == expected.get(c["name"])
        tally.record(ok, f"{c['name']}: passed={c['passed']} samples={c['samples']}")


# A child process runs one suite with fresh caches, as `mdop verify` does,
# and reports the wall time to the verdict and its peak memory beside the
# report.  It runs the checks one by one, in run_suite's order, so that the
# calibration loop can run between them; each check is seeded by name, so
# the work is that of one whole run_suite.  The peak is VmHWM: ru_maxrss
# of a child also counts the parent's pages from before exec.
_SUITE_CHILD = """
import dataclasses, json, sys, time
sys.path.insert(0, sys.argv[2])
import speed
from mdop import verify
fields = json.loads(sys.argv[1])
config = verify.SuiteConfig(
    **{k: tuple(v) if isinstance(v, list) else v for k, v in fields.items()}
)
rows, verdict, calibrations = [], 0.0, [speed.calibrate()]
for name in sorted(config.checks or verify.available_checks()):
    start = time.perf_counter()
    report = verify.run_suite(dataclasses.replace(config, checks=(name,)))
    verdict += time.perf_counter() - start
    calibrations.append(speed.calibrate())
    rows += report.to_json()["checks"]
with open("/proc/self/status") as status:
    rss_mb = int(status.read().split("VmHWM:")[1].split()[0]) / 1024
print(json.dumps(
    {"verdict_s": verdict, "rss_mb": rss_mb, "checks": rows, "calibrations": calibrations}
))
"""


def verify_default(
    seed: int, seconds: float, config: verify.SuiteConfig | None = None, between=None
) -> Run:
    """Whole-suite passes at the default config until the time is spent.

    Each pass is one run_suite in a fresh child process, so every pass
    starts from the same cold caches.  Each pass takes its own suite seed,
    drawn from `seed`: the cost of a suite depends on the elements its
    seed samples, and a run then averages over several suites.
    """
    config = config or verify.SuiteConfig(seed=seed)
    suite_seeds = random.Random(seed)
    env = child_env()
    tally = Tally()
    verdicts, rss = [], []
    per_check: dict[str, list[float]] = {}  # check name -> [wall seconds, samples]
    probe = speed.SpeedProbe()
    began = time.perf_counter()
    while keep_going(len(verdicts), began, seconds, None):
        suite = dataclasses.replace(config, seed=suite_seeds.randrange(2**32))
        arg = json.dumps(dataclasses.asdict(suite))
        _, proc = run_child(["-c", _SUITE_CHILD, arg, str(HERE)], env)
        if proc.returncode != 0:
            raise RuntimeError(f"suite child failed:\n{proc.stderr}")
        result = json.loads(proc.stdout)
        verdicts.append(result["verdict_s"])
        probe.calibrations += result["calibrations"]
        if between:
            between()
        rss.append(result["rss_mb"])
        for c in result["checks"]:
            row = per_check.setdefault(c["name"], [0.0, 0])
            row[0] += c["elapsed_s"]
            row[1] += c["samples"]
        check_report(suite, result["checks"], tally)
    # Single samples are not timed inside run_suite; each checked sample
    # counts with its check's mean time per sample over the run.
    sample_times = [t for wall, n in per_check.values() for t in [wall / n] * n]
    return scaled_run(
        tally,
        {"verdict": verdicts, "op": sample_times},
        {"ops": len(sample_times), "busy_wall_s": sum(verdicts)},
        max(rss),
        probe,
    )


# ---------------------------------------------------------------------------
# kernel-large: a fixed mix of kernel calls on large operands.

KERNEL_OPS = (
    "canonical_product",
    "central_bracket",
    "cocycle_psi",
    "sigma",
    "to_falling",
    "from_falling",
    "bracket_falling_direct",
)
KERNEL_RANKS = (1, 3)
# Term counts come from three bands, 10-16, 17-23 and 24-30.  Each slot of
# the mix takes a different offset in its band every pass, so seven passes
# use every size from 10 to 30 and the per-call times spread evenly over
# their range, with no gap for the percentiles to straddle.
KERNEL_BANDS = (10, 17, 24)
KERNEL_BAND_WIDTH = 7
NESTED_TERMS = 10  # [a,[b,c]] grows fast; 10 terms each already yields ~1500
KERNEL_I_BOUND = 6
KERNEL_J_BOUND = 8


def two_digit(rng: random.Random) -> Fraction:
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 99), rng.randint(1, 99))


def large_element(rng: random.Random, rank: int, terms: int, cls=AlgebraElement):
    """Exactly `terms` distinct words with 2-digit rational coefficients.

    D powers and matrix slots are dealt out evenly (j cycles through 0..8
    and (p, q) through all rank^2 slots, each list shuffled), so operands of
    one size cost nearly the same whatever the seed; i is uniform in
    [-6, 6].
    """
    powers = [k % (KERNEL_J_BOUND + 1) for k in range(terms)]
    slots = [(k % rank + 1, k // rank % rank + 1) for k in range(terms)]
    rng.shuffle(powers)
    rng.shuffle(slots)
    table: dict[Monomial, Fraction] = {}
    for j, (p, q) in zip(powers, slots):
        mono = Monomial(rng.randint(-KERNEL_I_BOUND, KERNEL_I_BOUND), j, p, q)
        while mono in table:
            mono = mono._replace(i=rng.randint(-KERNEL_I_BOUND, KERNEL_I_BOUND))
        table[mono] = two_digit(rng)
    return cls(rank, table)


def kernel_schedule(rng: random.Random, pass_index: int = 0) -> list[tuple[str, tuple]]:
    """One pass of the fixed mix: every op at every rank and size band, then nested."""
    calls = []
    for rank in KERNEL_RANKS:
        for band in KERNEL_BANDS:
            for k, op in enumerate(KERNEL_OPS):
                terms = band + (pass_index + 3 * k + rank) % KERNEL_BAND_WIDTH
                falling = op in ("from_falling", "bracket_falling_direct")
                cls = FallingElement if falling else AlgebraElement
                arity = 1 if op in ("sigma", "to_falling", "from_falling") else 2
                calls.append((op, tuple(large_element(rng, rank, terms, cls) for _ in range(arity))))
        calls.append(("nested_bracket", tuple(large_element(rng, rank, NESTED_TERMS) for _ in range(3))))
    return calls


def call_kernel(op: str, args: tuple):
    if op == "nested_bracket":
        a, b, c = args
        return algebra.central_bracket(a, algebra.central_bracket(b, c))
    return getattr(algebra, op)(*args)


def _same_action(lhs, rhs_of, falling: bool = False) -> bool:
    """lhs acts on every basis vector as rhs_of(vector) says it should."""
    return all(
        oracles.apply(lhs, v, falling) == rhs_of(v) for v in oracles.basis_vectors(lhs.rank)
    )


def check_kernel(op: str, args: tuple, out) -> bool:
    """Second route for each kernel result; see oracles for the evaluator."""
    ap = oracles.apply
    if op == "canonical_product":
        a, b = args
        return _same_action(out, lambda v: ap(a, ap(b, v)))
    if op == "central_bracket":
        a, b = args
        commutator = lambda v: oracles.combine((1, ap(a, ap(b, v))), (-1, ap(b, ap(a, v))))
        return out.central == algebra.cocycle_psi(a, b) and _same_action(out, commutator)
    if op == "cocycle_psi":
        a, b = args
        return out == algebra.central_bracket(a, b).central == -algebra.cocycle_psi(b, a)
    if op == "sigma":
        (a,) = args
        return algebra.sigma(out) == a and _same_action(
            out, lambda v: oracles.apply_twisted(a, v)
        )
    if op == "to_falling":
        (a,) = args
        return algebra.from_falling(out) == a and _same_action(
            out, lambda v: ap(a, v), falling=True
        )
    if op == "from_falling":
        (f,) = args
        return algebra.to_falling(out) == f and _same_action(
            out, lambda v: ap(f, v, falling=True)
        )
    if op == "bracket_falling_direct":
        # The power-basis route: the operands are converted to powers of D
        # and their commutator is taken by the evaluator, against the
        # result evaluated in falling powers.  central_bracket on the
        # converted operands would cost five times the call it checks.
        fa, fb = args
        a, b = algebra.from_falling(fa), algebra.from_falling(fb)
        commutator = lambda v: oracles.combine((1, ap(a, ap(b, v))), (-1, ap(b, ap(a, v))))
        return out.central == algebra.cocycle_psi(a, b) and _same_action(
            out, commutator, falling=True
        )
    if op == "nested_bracket":
        a, b, c = args

        def nested(v):
            return oracles.combine(
                (1, ap(a, ap(b, ap(c, v)))),
                (-1, ap(a, ap(c, ap(b, v)))),
                (-1, ap(b, ap(c, ap(a, v)))),
                (1, ap(c, ap(b, ap(a, v)))),
            )

        inner = algebra.plain_bracket(b, c)
        return out.central == algebra.cocycle_psi(a, inner) and _same_action(out, nested)
    raise ValueError(f"unknown kernel op {op}")


def kernel_large(
    seed: int,
    seconds: float,
    passes: int | None = None,
    around=contextlib.nullcontext,
    between=None,
) -> Run:
    """Passes of the fixed mix until the time (or the given pass count) is spent.

    An untimed pass on other operands fills the caches first.  The calls of
    a pass run inside ``around()`` (the tracer hooks in there) and are
    checked only after the last of them has finished.
    """
    rng = random.Random(seed)
    tally = Tally()
    op_times, verdicts = [], []
    for op, args in kernel_schedule(random.Random(-seed)):  # fills the caches, untimed
        call_kernel(op, args)
    probe = speed.SpeedProbe()
    began = time.perf_counter()
    while keep_going(len(verdicts), began, seconds, passes, KERNEL_BAND_WIDTH):
        schedule = kernel_schedule(rng, len(verdicts))
        results, spent = [], 0.0
        with around():
            for op, args in schedule:
                start = time.perf_counter()
                out = call_kernel(op, args)
                elapsed = time.perf_counter() - start
                probe.add(elapsed)
                results.append(out)
                op_times.append(elapsed)
                spent += elapsed
        verdicts.append(spent)
        if between:
            between()
        for (op, args), out in zip(schedule, results):
            tally.record(check_kernel(op, args, out), f"{op} rank={args[0].rank}")
    return scaled_run(
        tally,
        {"verdict": verdicts, "op": op_times},
        {"ops": len(op_times), "busy_wall_s": sum(op_times)},
        self_rss_mb(),
        probe,
    )


# ---------------------------------------------------------------------------
# cli-oneshot: one process per command, cold caches every time.

# The high-exponent calls, one per pass in turn, as (j, variant) for
# high_call; the same for every seed.  convert crashes with a
# RecursionError from j = 492 on; the schedule stays below that, so that
# every timed call succeeds and a run's failure count does not depend on
# how many passes it makes.  The per-layer run probes the crash at the
# fixed exponents of HIGH_PROBE_J instead.  FD^j to falling costs three
# times as much as the other two at one j, so it takes a lower j.
HIGH_CALLS = ((480, 0), (460, 1), (320, 2))
HIGH_PROBE_J = (300, 450, 500, 550, 600)
MALFORMED = (
    ("bracket", "--n", "2", "E[3,1]", "t"),
    ("product", "--n", "1", "t^", "D"),
    ("sigma", "--n", "1", "t + C"),
    ("degree", "--n", "1", "D^-1"),
    ("convert", "--n", "1", "--to", "falling", "t X"),
    ("act", "--n", "1", "t", "v[0,2]"),
    ("pair", "--n", "1", "--lambda", "x", "v[0,1]", "v[0,1]"),
    ("cocycle", "--n", "1", "t 1/0", "t"),
    ("act", "--n", "1", "--m", "2", "t", "v[0,1,3]"),
    ("sigma", "--n", "2", "t E[1,2"),
)
CLI_SUBCOMMANDS = ("bracket", "product", "cocycle", "sigma", "degree", "convert", "act", "pair")


@dataclass(frozen=True)
class CliCall:
    kind: str  # a subcommand, "malformed" or "high"
    argv: tuple[str, ...]
    stdout: str | None  # expected stdout; None for malformed input


def _emit(element, fmt: str) -> str:
    if fmt == "json":
        if isinstance(element, FallingElement):
            return json.dumps(expr.falling_element_to_json(element))
        return json.dumps(expr.element_to_json(element))
    if isinstance(element, FallingElement):
        return expr.format_falling_element(element)
    return expr.format_element(element)


def _small(rng: random.Random, rank: int, central: bool = False) -> AlgebraElement:
    return verify.sample_element(rng, rank, 3, 3, allow_central=central)


def _vector(rng: random.Random, params: ModuleParams, bound: int):
    # The vector grammar has no literal for the zero vector, so draw again.
    v = verify.sample_module_vector(rng, params, bound)
    while not v:
        v = verify.sample_module_vector(rng, params, bound)
    return v


def small_call(rng: random.Random, kind: str, fmt: str) -> CliCall:
    """A small valid call and the output the library gives for it in-process."""
    rank = rng.randint(1, 2)
    common = ("--n", str(rank), "--format", fmt)
    if kind in ("bracket", "product", "cocycle"):
        a, b = _small(rng, rank, True), _small(rng, rank, True)
        if kind == "cocycle":
            value = algebra.cocycle_psi(a, b)
            out = json.dumps({"value": str(value)}) if fmt == "json" else str(value)
        else:
            fn = algebra.central_bracket if kind == "bracket" else algebra.canonical_product
            out = _emit(fn(a, b), fmt)
        return CliCall(kind, (kind, *common, "--", expr.format_element(a), expr.format_element(b)), out)
    if kind == "sigma":
        a = _small(rng, rank)
        return CliCall(kind, (kind, *common, "--", expr.format_element(a)), _emit(algebra.sigma(a), fmt))
    if kind == "degree":
        a = _small(rng, rank, True)
        parts = algebra.homogeneous_components(a)
        if fmt == "json":
            rows = [{"degree": d, "element": expr.element_to_json(c)} for d, c in parts.items()]
            out = json.dumps({"components": rows})
        else:
            out = "\n".join(f"{d}: {expr.format_element(c)}" for d, c in parts.items()) or "0"
        return CliCall(kind, (kind, *common, "--", expr.format_element(a)), out)
    if kind == "convert":
        if rng.random() < 0.5:
            a = _small(rng, rank, True)
            text, out = expr.format_element(a), _emit(algebra.to_falling(a), fmt)
            target = "falling"
        else:
            f = verify.sample_falling_element(rng, rank, 3, 3, allow_central=True)
            text, out = expr.format_falling_element(f), _emit(algebra.from_falling(f), fmt)
            target = "power"
        return CliCall(kind, (kind, *common, "--to", target, "--", text), out)
    if kind == "act":
        family = rng.choice((Family.V, Family.VBAR))
        m = rng.randint(1, 2)
        lam = rng.choice(("formal", "3/2", "-1/3"))
        params = (
            ModuleParams.formal(family, rank, m)
            if lam == "formal"
            else ModuleParams.specialized(family, rank, m, Fraction(lam))
        )
        x = _small(rng, rank, True)
        v = _vector(rng, params, 3)
        image = reps.act(x, v)
        out = (
            json.dumps(expr.module_vector_to_json(image))
            if fmt == "json"
            else expr.format_module_vector(image)
        )
        flags = ("--family", family.value, "--m", str(m), f"--lambda={lam}")
        return CliCall(
            kind,
            (kind, *common, *flags, "--", expr.format_element(x), expr.format_module_vector(v)),
            out,
        )
    if kind == "pair":
        lam = rng.choice(("formal", "5/2"))
        params_w = (
            ModuleParams.formal(Family.VBAR, rank)
            if lam == "formal"
            else ModuleParams.specialized(Family.VBAR, rank, 1, Fraction(lam))
        )
        w = _vector(rng, params_w, 2)
        v = _vector(rng, params_w.dual(), 2)
        value = reps.pairing(w, v)
        out = json.dumps(expr.poly_to_json(value)) if fmt == "json" else expr.format_poly(value)
        texts = (expr.format_module_vector(w), expr.format_module_vector(v))
        return CliCall(kind, (kind, *common, f"--lambda={lam}", "--", *texts), out)
    raise ValueError(f"unknown subcommand {kind}")


def high_call(j: int, variant: int) -> CliCall:
    """convert on D^j (variant 0) or FD^j (1: to power, 2: to falling),
    checked against the Stirling tables of oracles."""
    if variant == 0:
        coeffs, text, target, cls = oracles.stirling_second(j), f"D^{j}", "falling", FallingElement
    elif variant == 1:
        coeffs, text, target, cls = oracles.stirling_first(j), f"FD^{j}", "power", AlgebraElement
    else:
        coeffs, text, target, cls = [0] * j + [1], f"FD^{j}", "falling", FallingElement
    element = cls(1, {Monomial(0, s, 1, 1): c for s, c in enumerate(coeffs) if c})
    return CliCall("high", ("convert", "--n", "1", "--to", target, text), _emit(element, "text"))


def cli_schedule(rng: random.Random, pass_index: int) -> list[CliCall]:
    """One pass of 20 calls: each subcommand twice (text, then JSON), plus
    two malformed inputs, a text bracket and one high-exponent convert (5%)."""
    calls = [small_call(rng, kind, "text") for kind in CLI_SUBCOMMANDS]
    calls.append(CliCall("malformed", rng.choice(MALFORMED), None))
    calls += [small_call(rng, kind, "json") for kind in CLI_SUBCOMMANDS]
    calls.append(CliCall("malformed", rng.choice(MALFORMED), None))
    calls.append(small_call(rng, "bracket", "text"))
    calls.append(high_call(*HIGH_CALLS[pass_index % len(HIGH_CALLS)]))
    return calls


def check_cli(call: CliCall, proc: subprocess.CompletedProcess, tally: Tally) -> None:
    what = " ".join(call.argv)[:120]
    crashed = proc.returncode not in (0, 2) or "Traceback" in proc.stderr
    if call.stdout is None:
        lines = proc.stderr.strip().splitlines()
        ok = (
            proc.returncode == 2
            and not proc.stdout
            and len(lines) == 1
            and lines[0].startswith("error: ")
        )
    else:
        ok = proc.returncode == 0 and proc.stdout == call.stdout + "\n"
    tally.record(ok, f"{what} -> exit {proc.returncode}", crashed=crashed and not ok)


def cli_oneshot(
    seed: int,
    seconds: float,
    passes: int | None = None,
    launcher: tuple[str, ...] = ("-m", "mdop"),
    between=None,
) -> Run:
    """Passes of the 20-call schedule until the time (or pass count) is spent."""
    rng = random.Random(seed)
    env = child_env()
    tally = Tally()
    op_times, verdicts, by_kind = [], [], {}
    high = failed_high = 0
    probe = speed.SpeedProbe()
    began = time.perf_counter()
    while keep_going(len(verdicts), began, seconds, passes, len(HIGH_CALLS)):
        spent = 0.0
        for call in cli_schedule(rng, len(verdicts)):
            elapsed, proc = run_child([*launcher, *call.argv], env)
            probe.add(elapsed)
            spent += elapsed
            op_times.append(elapsed)
            by_kind.setdefault(call.kind, []).append(elapsed)
            before = tally.failed
            check_cli(call, proc, tally)
            if call.kind == "high":
                high += 1
                failed_high += tally.failed - before
        verdicts.append(spent)
        if between:
            between()
    times = {"verdict": verdicts, "op": op_times}
    times.update({f"call.{kind}": values for kind, values in by_kind.items()})
    counts = {
        "ops": len(op_times),
        "busy_wall_s": sum(op_times),
        "high_exponent_calls": high,
        "high_exponent_failed": failed_high,
    }
    return scaled_run(tally, times, counts, children_rss_mb(), probe)


WORKLOADS = {
    "verify-default": verify_default,
    "kernel-large": kernel_large,
    "cli-oneshot": cli_oneshot,
}
