#!/usr/bin/env python3
"""The tropvor benchmark: one closed-loop workload per run.

    python3 perfbench/run.py --workload lift_certify --seed 1 --seconds 36 --trace 0

One process and one thread send one operation at a time, the next only when
the previous one has returned, from the workload's seeded stream, until the
operations have taken ``--seconds`` of time.  Every output is checked.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it give the same
metrics by name, with their units and the tail's percentile.

With ``--trace 0`` the metrics are the end-to-end ones.  With ``--trace 1``
the tracer's wrappers are installed before set-up, a fixed batch of the
stream runs traced, the per-layer metrics come from the wrappers, the spans
are written to ``perfbench/out/``, and the same batch then runs untraced to
give the tracing overhead.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
from itertools import islice
from pathlib import Path
from time import perf_counter

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPEATS = 7
SETUP_TIMEOUT_S = 60

END_TO_END = (
    ("ops_per_s", "1/s"),
    ("op_p50_s", "s"),
    ("op_tail_s", "s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.NAMES)
    p.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not 0 < args.seconds <= 60:
        p.error("--seconds must be in (0, 60]")
    return args


def measure_setup(workload: str, seed: int) -> float:
    """Median of set-ups timed in fresh interpreters, each of which imports
    tropvor, generates the inputs and loads the reference outputs."""
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=True,
        )
        times.append(float(proc.stdout.split()[-1]))
    return statistics.median(times)


def run_op(op, refs: dict, tracer=None) -> tuple:
    """Latency and problems of one operation; an exception is a problem."""
    t0 = perf_counter()
    try:
        out = op.run()
    except Exception as exc:  # a failed operation is counted, not fatal
        return perf_counter() - t0, [f"{type(exc).__name__}: {exc}"]
    latency = perf_counter() - t0
    if tracer is not None:
        tracer.uninstall()
        if op.cli:
            tracer.add("cli.output_bytes", len(out[1].encode()))
    problems = workloads.check(op, out, refs)
    if tracer is not None:
        tracer.install()
    return latency, problems


def timed_loop(ops, refs: dict, seconds: float = math.inf, tracer=None, log=sys.stderr) -> tuple:
    """Run ops until their latencies add up to seconds; (latencies, failed)."""
    latencies, failed, busy = [], 0, 0.0
    for i, op in enumerate(ops, 1):
        if busy >= seconds:
            break
        if tracer is not None:
            tracer.op = i
        latency, problems = run_op(op, refs, tracer)
        latencies.append(latency)
        busy += latency
        if problems:
            failed += 1
            print(f"FAILED {op.key}: {'; '.join(problems)}", file=log)
    return latencies, failed


def tail(latencies: list) -> tuple:
    """Latency at the highest percentile with at least ten operations
    beyond it, and that percentile; the maximum when there are too few."""
    ordered = sorted(latencies)
    k = len(ordered) - 11 if len(ordered) >= 11 else len(ordered) - 1
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def end_to_end(args) -> tuple:
    setup_s = measure_setup(args.workload, args.seed)
    mods = workloads.load_modules(ROOT)
    wl = workloads.build(args.workload, args.seed, mods, OUT)
    refs = workloads.load_reference()
    latencies, failed = timed_loop(wl.stream(), refs, args.seconds)
    tail_s, pct = tail(latencies)
    metrics = {
        "ops_per_s": len(latencies) / sum(latencies),
        "op_p50_s": statistics.median(latencies),
        "op_tail_s": tail_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": setup_s,
    }
    notes = [
        f"op_tail_s is p{pct:.1f} of {len(latencies)} operations",
        f"fail_ratio = {failed / len(latencies):.4f} ({failed} of {len(latencies)})",
    ]
    units = dict(END_TO_END)
    return {k: (v, units[k]) for k, v in metrics.items()}, len(latencies), failed, notes


def traced(args) -> tuple:
    mods = workloads.load_modules(ROOT)
    tracer = tracing.Tracer(mods)
    tracer.install()
    try:
        wl = workloads.build(args.workload, args.seed, mods, OUT)
        refs = workloads.load_reference()
        batch = list(islice(wl.stream(), wl.trace_ops))
        latencies, failed = timed_loop(batch, refs, tracer=tracer)
    finally:
        tracer.uninstall()
    untraced_s = sum(run_op(op, {})[0] for op in batch)
    OUT.mkdir(parents=True, exist_ok=True)
    spans = OUT / f"spans-{args.workload}-{args.seed}.jsonl"
    tracer.write_spans(spans)
    metrics = tracing.per_layer_metrics(tracer, sum(latencies), untraced_s, len(batch))
    notes = [f"{len(tracer.spans)} spans written to {spans.relative_to(ROOT)}"]
    return metrics, len(batch), failed, notes


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        metrics, attempted, failed, notes = (traced if args.trace else end_to_end)(args)
    except (OSError, ImportError, subprocess.SubprocessError) as exc:
        print(f"perfbench: cannot run: {exc}", file=sys.stderr)
        return 2
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    for note in notes:
        print(note)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
