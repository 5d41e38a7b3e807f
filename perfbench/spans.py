"""In-memory spans around the benchmark's calls into the program's layers.

A span records a name, start, end, the index of its parent span, the
operation and round it belongs to, and exact work counts taken from the
call's arguments and result. Spans stay in memory until the run ends. A layer's
self time is its span's duration minus the time its child spans cover;
children never overlap because the benchmark runs one client on one
thread.
"""

from __future__ import annotations

import contextlib
import functools
import json
import statistics
import time
from dataclasses import dataclass, field

OP_SPAN = "op"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: str | None
    round: int | None
    counts: dict[str, int] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class NullTracer:
    """Tracing off: calls go straight through."""

    round: int | None = None

    def call(self, name, fn, *args, count=None, **kwargs):
        return fn(*args, **kwargs)

    @contextlib.contextmanager
    def operation(self, op_id: str):
        yield

    @contextlib.contextmanager
    def patched(self, module, names):
        yield


class Tracer:
    """Records a span around every call made through it."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._op: str | None = None
        self.round: int | None = None  # set by the caller around a traced round

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self._op, self.round))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._stack.pop()

    def call(self, name, fn, *args, count=None, **kwargs):
        """Run ``fn`` inside a span; ``count(args, kwargs, result)`` gives its work counts."""
        index = self._open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            self._close(index)
        if count is not None:
            self.spans[index].counts = count(args, kwargs, result)
        return result

    @contextlib.contextmanager
    def operation(self, op_id: str):
        self._op = op_id
        index = self._open(OP_SPAN)
        try:
            yield
        finally:
            self._close(index)
            self._op = None

    @contextlib.contextmanager
    def patched(self, module, names):
        """Wrap ``module.<attr>`` in spans while the block runs.

        ``names`` maps an attribute to ``(span name, count function)``. Used
        where the benchmark enters the program through ``cli.main``: the
        spans then sit on the calls the cli layer makes into the others.
        """
        saved = {attr: getattr(module, attr) for attr in names}
        for attr, (span_name, count) in names.items():
            original = saved[attr]

            @functools.wraps(original)
            def wrapper(*args, _fn=original, _name=span_name, _count=count, **kwargs):
                return self.call(_name, _fn, *args, count=_count, **kwargs)

            setattr(module, attr, wrapper)
        try:
            yield
        finally:
            for attr, original in saved.items():
                setattr(module, attr, original)

    def self_times(self) -> list[float]:
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                covered[span.parent] += span.duration
        return [span.duration - c for span, c in zip(self.spans, covered)]

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for index, span in enumerate(self.spans):
                record = {"id": index, **span.__dict__}
                fh.write(json.dumps(record, sort_keys=True) + "\n")


# Per-layer time metrics: the self time of these spans, summed over one
# traced round, median over traced rounds. ``resample.compute_weights``
# contains the m = n ``density_batch`` call (it is inside the program, so
# it has no span of its own): ``resample.weights_s`` is mostly KDE time.
LAYER_TIMES = {
    "kde.fit_s": ("kde.fit_kde",),
    "kde.grid_density_s": ("kde.density_batch",),
    "resample.weights_s": ("resample.compute_weights",),
    "resample.draw_s": ("resample.resample",),
    "fit.solve_s": ("fit.fit",),
    "models.eval_s": (
        "models.evaluate",
        "models.first_derivative",
        "models.second_derivative",
        "models.param_gradient",
    ),
    "ingest.parse_s": ("ingest.parse_csv",),
    "ingest.write_s": ("ingest.write_normalized_csv",),
    "scoring.score_s": ("scoring.score_dataset",),
    "scoring.write_s": ("scoring.write_scored_csv",),
    "scoring.read_s": ("scoring.read_scored_csv",),
    "diagnostics.myriad_s": ("diagnostics.myriad_averages",),
    "diagnostics.rolling_s": ("diagnostics.rolling_quantiles",),
    "diagnostics.distribution_s": ("diagnostics.score_distribution",),
}
# Per-command times of the cli layer: the whole duration of each
# ``cli.<command>`` span, with the parse, fit, score, read and write calls
# the command makes, summed over one traced round, median over traced
# rounds. (Their self time would be only argparse, JSON and manifest glue.)
COMMAND_TIMES = {
    "cli.ingest_s": "cli.ingest",
    "cli.fit_s": "cli.fit",
    "cli.score_s": "cli.score",
    "cli.diagnose_s": "cli.diagnose",
}
# Exact per-round counts: metric -> count key summed over a round's spans.
LAYER_COUNTS = {
    "kde.kernel_evals": "kernel_evals",
    "resample.draws": "draws",
    "fit.iterations": "iterations",
    "ingest.dropped_rows": "dropped",
    "diagnostics.windows": "windows",
}
REGISTRY_SPAN = "scoring.default_registry"


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator > 0 else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer numbers from the traced spans.

    Returns the time and count metrics plus the rates derived from them,
    and ``trace.unattributed_frac``: the largest share of an operation's
    wall time that no layer span covers (the benchmark's own glue).
    """
    self_times = tracer.self_times()
    by_round: dict[int, tuple[dict[str, float], dict[str, int], dict[str, float]]] = {}
    for span, own in zip(tracer.spans, self_times):
        if span.round is None:
            continue
        times, counts, whole = by_round.setdefault(span.round, ({}, {}, {}))
        times[span.name] = times.get(span.name, 0.0) + own
        whole[span.name] = whole.get(span.name, 0.0) + span.duration
        for key, value in span.counts.items():
            counts[key] = counts.get(key, 0) + value
    per_round = list(by_round.values())

    def median_of(fn) -> float:
        return statistics.median(fn(times, counts) for times, counts, _ in per_round)

    out: dict[str, float] = {}
    for metric, names in LAYER_TIMES.items():
        out[metric] = median_of(lambda t, c, names=names: sum(t.get(n, 0.0) for n in names))
    for metric, name in COMMAND_TIMES.items():
        out[metric] = statistics.median(whole.get(name, 0.0) for _, _, whole in per_round)
    for metric, key in LAYER_COUNTS.items():
        out[metric] = median_of(lambda t, c, key=key: c.get(key, 0))
    out["kde.evals_per_s"] = median_of(
        lambda t, c: _ratio(
            c.get("kernel_evals", 0),
            t.get("kde.density_batch", 0.0) + t.get("resample.compute_weights", 0.0),
        )
    )
    out["resample.draws_per_s"] = median_of(
        lambda t, c: _ratio(c.get("draws", 0), t.get("resample.resample", 0.0))
    )
    out["fit.converged_frac"] = median_of(lambda t, c: _ratio(c.get("converged", 0), c.get("fits", 0)))
    out["models.points_per_s"] = median_of(
        lambda t, c: _ratio(
            c.get("model_points", 0), sum(t.get(n, 0.0) for n in LAYER_TIMES["models.eval_s"])
        )
    )
    out["ingest.rows_per_s"] = median_of(
        lambda t, c: _ratio(c.get("rows_parsed", 0), t.get("ingest.parse_csv", 0.0))
    )
    out["scoring.rows_per_s"] = median_of(
        lambda t, c: _ratio(c.get("rows_scored", 0), t.get("scoring.score_dataset", 0.0))
    )
    registry = [s.duration for s in tracer.spans if s.name == REGISTRY_SPAN]
    out["scoring.registry_s"] = statistics.median(registry) if registry else 0.0
    glue = [own / duration for _, own, duration in unattributed(tracer) if duration > 0]
    out["trace.unattributed_frac"] = max(glue, default=0.0)
    return out


def unattributed(tracer: Tracer) -> list[tuple[str, float, float]]:
    """``(operation id, time no layer span covers, wall time)`` of every operation."""
    return [
        (span.op, own, span.duration)
        for span, own in zip(tracer.spans, tracer.self_times())
        if span.name == OP_SPAN
    ]
