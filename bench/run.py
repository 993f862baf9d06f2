"""Benchmark of the mdop kernel: one command for every workload and metric.

    python3 bench/run.py --workload kernel-large --seed 1 --seconds 20 --trace 0

--trace 0 measures the end-to-end metrics of the workload with nothing
wrapped; --trace 1 measures the per-layer metrics, including a traced
pass of the workload.  --workload all runs every workload both ways.
Each metric is printed on its own line with its unit, and the whole record
(environment, metrics, sample counts, first failures) is written to
bench/out/BENCH_<workload>_s<seed>_t<trace>.json.  The last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics.  See README.md in this directory for what each
workload and metric is for.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("verify-default", "kernel-large", "cli-oneshot")


def git_revision(root: Path) -> str:
    """The checked-out commit, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def summarize(run, setup: list[float]):
    """End-to-end metrics of a workload run: (metrics, sample counts, extras).

    setup holds wall times; like every time of the run, they are scaled to
    the reference speed by the run's speed factor.
    """
    import workloads as wl

    ops = run.times["op"]
    tally = run.tally
    metrics = {
        "setup_s": (statistics.median(setup) * run.speed_factor, "s"),
        "verdict_s": (statistics.fmean(run.times["verdict"]), "s"),
        "ops_per_s": (run.counts["ops"] / run.counts["busy_s"], "1/s"),
        "op_p50_ms": (wl.percentile(ops, 50) * 1e3, "ms"),
        "op_p90_ms": (wl.percentile(ops, 90) * 1e3, "ms"),
        "ok_ratio": (1 - tally.failed / tally.attempted, "ratio"),
        "peak_rss_mb": (run.peak_rss_mb, "MB"),
    }
    samples = {
        "setup_s": len(setup),
        "verdict_s": len(run.times["verdict"]),
        "op_p50_ms": len(ops),
        "op_p90_ms": len(ops),
    }
    extra = {k: v for k, v in run.counts.items() if k != "busy_s"}
    extra["speed_factor"] = run.speed_factor
    extra["fail_ratio"] = tally.failed / tally.attempted
    for kind, values in sorted(run.times.items()):
        if kind.startswith("call."):
            extra[f"{kind}_p50_ms"] = statistics.median(values) * 1e3
    return metrics, samples, extra


def end_to_end(workload: str, seed: int, seconds: float):
    import workloads as wl

    # Import times drift with the machine over seconds, so they are sampled
    # before the run and again after every pass, and the median is taken.
    env = wl.child_env()
    wl.time_import(env)  # compiles the bytecode on a fresh checkout
    setup = [wl.time_import(env) for _ in range(5)]
    run = wl.WORKLOADS[workload](seed, seconds, between=lambda: setup.append(wl.time_import(env)))
    return (*summarize(run, setup), run.tally)


def per_layer(workload: str, seed: int, seconds: float):
    """Per-layer metrics; each layer does a fixed amount of work, so seconds is unused."""
    import layers

    metrics, tally = layers.per_layer(workload, seed)
    return metrics, {}, {}, tally


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "mdop" / "__init__.py").is_file():
        print(f"error: no mdop sources under {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(HERE)]

    if args.workload == "all":
        runs = [(name, trace) for trace in (0, 1) for name in WORKLOAD_NAMES]
    else:
        runs = [(args.workload, args.trace)]
    env = {
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "git_revision": git_revision(ROOT),
        "seed": args.seed,
        "seconds": args.seconds,
    }
    print("# " + json.dumps(env))
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name, trace in runs:
        measure = per_layer if trace else end_to_end
        metrics, samples, extra, tally = measure(name, args.seed, args.seconds)
        print(f"## workload {name} trace {trace}")
        for metric, (value, unit) in metrics.items():
            count = f"  (n={samples[metric]})" if metric in samples else ""
            print(f"{metric} {value!r} {unit}{count}")
        for key, value in extra.items():
            print(f"# {key} = {value}")
        print(f"# attempted={tally.attempted} failed={tally.failed} wrong={tally.wrong}")
        for note in tally.notes:
            print(f"# {note}")
        as_json = {m: {"value": v, "unit": u} for m, (v, u) in metrics.items()}
        record = {
            "env": {**env, "workload": name, "trace": trace},
            "metrics": as_json,
            "samples": samples,
            "extra": extra,
            "attempted": tally.attempted,
            "failed": tally.failed,
            "wrong": tally.wrong,
            "notes": tally.notes,
        }
        out = HERE / "out" / f"BENCH_{name}_s{args.seed}_t{trace}.json"
        out.parent.mkdir(exist_ok=True)
        out.write_text(json.dumps(record, indent=2) + "\n")
        print(f"# record written to {out.relative_to(ROOT)}")
        prefix = f"{name}/" if len(runs) > 1 else ""
        result["correct"] = result["correct"] and tally.wrong == 0
        result["attempted"] += tally.attempted
        result["failed"] += tally.failed
        result["metrics"].update({prefix + m: value for m, value in as_json.items()})
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
