"""Set-up, timed loop, metrics and report of one benchmark run."""

from __future__ import annotations

import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import scipy

import liftcurve
import oracles
import spans
from run import THREAD_VARS
from workloads import WORKLOADS, scoring

# Set-up is measured in fresh interpreters: one unmeasured start fills the
# bytecode and file caches, then one start after every timed round (outside
# the timing), topped up to SETUP_MIN; the median is reported. Spreading the
# starts over the run keeps a slow spell of a shared machine from setting
# all of them.
SETUP_MIN = 5
SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import liftcurve
liftcurve.default_registry()
t1 = time.perf_counter()
if not liftcurve.__file__.startswith(sys.argv[1]):
    sys.exit(f"imported liftcurve from {liftcurve.__file__}")
print(repr(t1 - t0))
"""
# Largest share of an operation's wall time the layer spans may leave
# uncovered (the benchmark's own glue between calls), plus a fixed slack:
# a shared machine can deschedule the process for a few milliseconds, and
# such a stall lands in the glue of whichever operation it hits.
TRACE_ACCOUNTING_BOUND = 0.05
TRACE_ACCOUNTING_SLACK_S = 0.005
TAIL_BEYOND = 10  # samples beyond the reported tail percentile
END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "rows_per_s": "1/s",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "kde.fit_s": "s",
    "kde.grid_density_s": "s",
    "kde.kernel_evals": "count",
    "kde.evals_per_s": "1/s",
    "resample.weights_s": "s",
    "resample.draw_s": "s",
    "resample.draws": "count",
    "resample.draws_per_s": "1/s",
    "fit.solve_s": "s",
    "fit.iterations": "count",
    "fit.converged_frac": "ratio",
    "fit.sse_gap": "ratio",
    "models.eval_s": "s",
    "models.points_per_s": "1/s",
    "ingest.parse_s": "s",
    "ingest.rows_per_s": "1/s",
    "ingest.write_s": "s",
    "ingest.dropped_rows": "count",
    "scoring.registry_s": "s",
    "scoring.score_s": "s",
    "scoring.rows_per_s": "1/s",
    "scoring.write_s": "s",
    "scoring.read_s": "s",
    "diagnostics.myriad_s": "s",
    "diagnostics.rolling_s": "s",
    "diagnostics.distribution_s": "s",
    "diagnostics.windows": "count",
    "cli.ingest_s": "s",
    "cli.fit_s": "s",
    "cli.score_s": "s",
    "cli.diagnose_s": "s",
    "cli.bytes_written": "bytes",
    "trace.overhead_s": "s",
    "trace.unattributed_frac": "ratio",
}


def measure_setup(src: Path) -> float:
    done = subprocess.run(
        [sys.executable, "-c", SETUP_CODE, str(src)],
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def tail(latencies: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it, and its value.

    With ten or fewer samples no percentile qualifies; the maximum is
    reported as percentile 100.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return 100.0, ordered[-1]
    index = n - 1 - TAIL_BEYOND
    return 100.0 * (index + 1) / n, ordered[index]


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
    }


def run(args, root: Path, src: Path) -> int:
    if not Path(liftcurve.__file__).resolve().is_relative_to(src.resolve()):
        print(f"error: liftcurve imported from {liftcurve.__file__}, not from {src}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]()
    print(
        f"liftcurve benchmark: workload={workload.name} seed={args.seed} "
        f"seconds={args.seconds:g} trace={args.trace}"
    )
    print("env: " + json.dumps(environment(), sort_keys=True))

    setup: list[float] = []
    if not args.trace:
        measure_setup(src)  # unmeasured: fills the caches
    tracer = spans.Tracer() if args.trace else spans.NullTracer()
    registry = tracer.call(spans.REGISTRY_SPAN, scoring.default_registry)

    work = root / ".bench_work" / f"{workload.name}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        workload.prepare(work, args.seed, registry)
        rss = {"prepare": max_rss_mb()}
        between = None if args.trace else lambda: setup.append(measure_setup(src))
        outcome = timed_loop(workload, tracer, args.seconds, bool(args.trace), rss, between)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if work.parent.is_dir() and not any(work.parent.iterdir()):
            work.parent.rmdir()

    rounds, warm, oracle, errors = outcome
    untraced = [r for r, traced, _ in rounds if not traced]
    walls = [wall for _, traced, wall in rounds if not traced]
    latencies = [op.latency for r in untraced for op in r.ops]
    ops = [op for r in ([warm[0]] if warm else []) + [r for r, _, _ in rounds] for op in r.ops]
    attempted = len(ops)
    failed = sum(1 for op in ops if op.error)
    for message in errors + oracle.failures:
        print(f"FAILED: {message}", file=sys.stderr)
    for op in ops:
        if op.error:
            print(f"failed operation: {op.error}", file=sys.stderr)
    if not walls or (args.trace and len(untraced) == len(rounds)):
        print("error: no round completed", file=sys.stderr)
        return 1
    while not args.trace and len(setup) < SETUP_MIN:
        setup.append(measure_setup(src))

    wall = statistics.median(walls)
    percentile, tail_value = tail(latencies)
    print(f"rounds: 1 warm-up ({warm[1]:.4f} s), {len(untraced)} untraced, {len(rounds) - len(untraced)} traced; "
          "timed untraced round walls (s): "
          + ", ".join(f"{w:.4f}" for w in walls))
    print("ru_maxrss (MB) after: " + ", ".join(f"{step} {mb:.1f}" for step, mb in rss.items()))
    if args.trace:
        metrics = per_layer(rounds, tracer, workload, wall)
        for op_id, own, duration in spans.unattributed(tracer):
            if own > TRACE_ACCOUNTING_BOUND * duration + TRACE_ACCOUNTING_SLACK_S:
                oracle.failures.append(
                    f"operation {op_id}: layer spans leave {own:.4f} s of {duration:.4f} s unattributed "
                    f"(bound {TRACE_ACCOUNTING_BOUND:.0%} + {TRACE_ACCOUNTING_SLACK_S * 1000:g} ms)"
                )
        out_dir = root / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        spans_path = out_dir / f"spans-{workload.name}-seed{args.seed}.jsonl"
        tracer.dump(spans_path)
        print(f"spans: {len(tracer.spans)} written to {spans_path.relative_to(root)}")
        units = PER_LAYER_UNITS
    else:
        metrics = {
            "setup_s": statistics.median(setup),
            "wall_s": wall,
            "op_p50_s": statistics.median(latencies),
            "op_tail_s": tail_value,
            "rows_per_s": workload.rows_per_round / wall,
            "peak_rss_mb": max_rss_mb(),
        }
        units = END_TO_END_UNITS
        notes = {
            "setup_s": f"median of {len(setup)} fresh-process imports + default_registry()",
            "wall_s": f"median round wall over {len(walls)} rounds",
            "op_p50_s": f"median of {len(latencies)} operations",
            "op_tail_s": f"p{percentile:.1f} of {len(latencies)} operations"
            + (" (max: too few samples for ten beyond)" if percentile == 100.0 else ""),
            "rows_per_s": f"{workload.rows_per_round} input rows per round / wall_s",
            "peak_rss_mb": "ru_maxrss of this process (see the ru_maxrss line for what set it)",
        }
        for name, value in metrics.items():
            print(f"{name:>14} {value:14.6g} {units[name]:<5} {notes[name]}")
    failed_frac = failed / attempted if attempted else 1.0
    print(f"{'failed_frac':>14} {failed_frac:14.6g} {'ratio':<5} {failed} of {attempted} operations")
    print(f"{'max_rel_err':>14} {oracle.max_rel_err:14.6g} {'ratio':<5} worst oracle error")
    print("oracle checks (worst error / tolerance):")
    for name, (err, tol) in sorted(oracle.worst.items()):
        print(f"    {name:<32} {err:.3g} / {tol:.3g}")
    if args.trace:
        for name, value in metrics.items():
            print(f"{name:>28} {value:14.6g} {units[name]}")
    # A failed operation is counted in ``failed``. The outputs are wrong only
    # when an output check fails, a round's shared step raises, or the
    # program raised in an operation and so left nothing to check; a solver
    # that fell short of the optimum fails its operation, not the run.
    correct = not oracle.failures and not errors and not any(op.raised for op in ops)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


def max_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_loop(workload, tracer, seconds: float, traced: bool, rss: dict[str, float], between=None):
    """Run one warm-up round, then timed rounds until the next would overrun ``seconds``.

    The warm-up round is untraced and untimed: it pays the first-call costs
    (lazy imports, heap growth, page faults) that would otherwise land in
    the first timed round and set ``op_tail_s``. Its outputs are checked,
    and its operations count as attempted, like any other round's.
    Untraced mode then runs untraced rounds only. Traced mode alternates an
    untraced and a traced round, so the pair gives the tracing overhead.
    At least one round (one pair) is always timed. ``between`` is called
    after each timed round, outside the timing. ``rss`` records the peak
    resident memory after each round's work and after its check, so the
    report shows which of them sets ``peak_rss_mb``.

    Returns the timed rounds as (round, traced, wall), the warm-up round
    as (round, wall) (None if it raised), the oracle and the errors of
    rounds that raised.
    """
    oracle = oracles.Oracle()
    null = spans.NullTracer()
    modes = (null, tracer) if traced else (null,)

    def one_round(mode, index: int, label: str):
        workload.before_round()
        mode.round = index if mode is not null else None
        start = time.perf_counter()
        try:
            rnd = workload.run_round(mode, index)
        finally:
            wall = time.perf_counter() - start
            mode.round = None
        rss[f"round {label}"] = max_rss_mb()
        workload.verify(rnd, oracle)
        rss[f"check {label}"] = max_rss_mb()
        rnd.out = None  # verified outputs would otherwise pile up in peak_rss_mb
        for op in rnd.ops:
            op.out = None
        return rnd, wall

    rounds, errors = [], []
    try:
        warm = one_round(null, 0, "warm-up")
    except Exception as exc:  # the round's shared step or its check raised: stop and report
        errors.append(f"warm-up round: {type(exc).__name__}: {exc}")
        return rounds, None, oracle, errors
    used = 0.0
    index = 1
    while True:
        step = 0.0
        for mode in modes:
            try:
                rnd, wall = one_round(mode, index, str(index))
            except Exception as exc:  # the round's shared step or its check raised: stop and report
                errors.append(f"round {index}: {type(exc).__name__}: {exc}")
                return rounds, warm, oracle, errors
            rounds.append((rnd, mode is not null, wall))
            if between is not None:
                between()
            step += wall
            index += 1
        used += step
        if used + step > seconds:
            return rounds, warm, oracle, errors


def per_layer(rounds, tracer, workload, untraced_wall: float) -> dict[str, float]:
    metrics = spans.layer_metrics(tracer)
    traced = [(r, wall) for r, is_traced, wall in rounds if is_traced]
    bytes_written = [r.counts.get("cli.bytes_written", 0) for r, _ in traced]
    metrics["cli.bytes_written"] = statistics.median(bytes_written)
    metrics["fit.sse_gap"] = max(workload.sse_gaps, default=0.0)
    metrics["trace.overhead_s"] = statistics.median(wall for _, wall in traced) - untraced_wall
    return {name: metrics[name] for name in PER_LAYER_UNITS}
