"""The benchmark's three closed-loop workloads.

Each workload has one client: the next operation starts only when the
previous one is done. A round is the workload's fixed unit of work; the
runner times rounds, and each round is a list of operations with their
own latencies. ``verify`` checks a round's outputs against the oracles
outside the timed region: the first round fully, later rounds for
bit-identity with the first. An operation fails when it raises, when a fit
does not converge or when a CLI command exits nonzero; the outputs a failed
operation did produce are still checked.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import importlib
import io
import json
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import inputs
import oracles

diagnostics = importlib.import_module("liftcurve.diagnostics")
fit_mod = importlib.import_module("liftcurve.fit")
ingest = importlib.import_module("liftcurve.ingest")
kde = importlib.import_module("liftcurve.kde")
models = importlib.import_module("liftcurve.models")
resample = importlib.import_module("liftcurve.resample")
scoring = importlib.import_module("liftcurve.scoring")
cli = importlib.import_module("liftcurve.cli")

SEXES = ("M", "F")
ORACLE_POINTS = 32  # seeded evaluation points per KDE oracle check


@dataclass
class Op:
    latency: float
    error: str | None
    out: object = None
    raised: bool = False  # the program raised, so there is no output to check


@dataclass
class Round:
    index: int
    ops: list[Op]
    out: object = None
    counts: dict[str, int] = field(default_factory=dict)


def timed_op(tracer, op_id: str, fn, *args) -> Op:
    """Run one operation; an exception fails the operation, not the run."""
    start = time.perf_counter()
    try:
        with tracer.operation(op_id):
            out = fn(*args)
    except Exception as exc:  # a failed operation is counted and reported, the loop goes on
        return Op(time.perf_counter() - start, f"{op_id}: {type(exc).__name__}: {exc}", raised=True)
    return Op(time.perf_counter() - start, None, out)


def fail_ops(rnd: Round, why: str) -> None:
    for op in rnd.ops:
        if op.error is None:
            op.error = why


# Work counts attached to spans.


def parse_counts(args, kwargs, result):
    stats = result[1]
    return {"rows_parsed": stats.total_rows, "dropped": stats.total_rows - stats.kept}


def fit_counts(args, kwargs, result):
    return {"iterations": result.iterations, "fits": 1, "converged": int(result.converged)}


def point_counts(args, kwargs, result):
    return {"model_points": int(np.size(args[1]))}


def scored_counts(args, kwargs, result):
    return {"rows_scored": len(result)}


def window_counts(args, kwargs, result):
    return {"windows": len(result.center_bodyweight_kg)}


def draw_counts(args, kwargs, result):
    return {"draws": len(result)}


def weight_counts(args, kwargs, result):
    return {"kernel_evals": len(args[0]) * args[1].n}


def density_counts(args, kwargs, result):
    return {"kernel_evals": args[0].n * len(result)}


def sample_rows(seed: int, label: str, n: int, size: int) -> np.ndarray:
    return np.sort(inputs.stream(seed, label).choice(n, size=min(size, n), replace=False))


def call_fit(tracer, x, y, family):
    return tracer.call("fit.fit", fit_mod.fit, x, y, fit_mod.FitConfig(family=family), count=fit_counts)


def check_sse(oracle: oracles.Oracle, family: str, params, sse, x, y) -> bool:
    """The reported SSE must be that of the returned parameters."""
    return oracle.close("fit.sse", sse, oracles.sse(family, params, x, y), oracles.CLOSED_FORM_TOL)


def fit_shortfall(oracle: oracles.Oracle, family: str, params, converged, iterations, x, y, gaps):
    """Why the solver fell short of the optimum on this input, or None.

    A fit that did not converge, or that converged more than
    ``SSE_GAP_TOL`` above scipy's best SSE, fails its operation, which
    ``failed`` counts. The outputs are still checked for the parameters
    returned, so a shortfall alone does not make the run incorrect.
    ``gaps`` collects the gaps of converged fits.
    """
    if not converged:
        return f"{family} fit did not converge in {iterations} iterations"
    gap = oracles.sse_gap(family, params, x, y)
    gaps.append(gap)
    if not oracle.measure("fit.sse_gap", max(gap, 0.0), oracles.SSE_GAP_TOL):
        return f"{family} fit converged {gap:.3g} above the best SSE (tolerance {oracles.SSE_GAP_TOL:g})"
    return None


def result_shortfall(oracle: oracles.Oracle, result, x, y, gaps):
    p = result.params
    return fit_shortfall(oracle, p.family.value, (p.L, p.k, p.x0), result.converged, result.iterations, x, y, gaps)


def fail_short(rnd: Round, shortfall: dict[int, str], labels) -> None:
    """Fail each operation whose fit fell short in the fully checked round.

    Later rounds reproduce that round bit for bit, so the same fits fall short.
    """
    for i, (op, label) in enumerate(zip(rnd.ops, labels)):
        if op.error is None and i in shortfall:
            op.error = f"{label}: {shortfall[i]}"


class Flatten:
    """Raw CSV -> parse -> per sex: KDE, inverse-density weights, grid density,
    resampling, myriad averages and fraction below 60 kg.

    The logistic fit of the resampled sample is held back: on some seeds the
    solver does not converge on the flattened female sample (see README.md).
    """

    name = "flatten"
    valid = {"M": 24_000, "F": 12_000}
    junk = 720
    draws = 50_000
    grid = np.linspace(30.0, 200.0, 512)
    threshold_kg = 60.0

    def prepare(self, work: Path, seed: int, registry) -> None:
        self.seed = seed
        self.raw = inputs.write_raw_csv(work / "flatten.csv", seed, self.name, self.valid, self.junk)
        self.rows_per_round = self.raw.rows
        self.resample_seed = {
            sex: int.from_bytes(hashlib.sha256(f"{seed}:resample:{sex}".encode()).digest()[:8], "little")
            for sex in SEXES
        }
        self.reference = None
        self.sse_gaps: list[float] = []  # no fits here

    def before_round(self) -> None:
        pass

    def run_round(self, tracer, index: int) -> Round:
        entries, stats = tracer.call("ingest.parse_csv", ingest.parse_csv, self.raw.path, count=parse_counts)
        ops = [
            timed_op(tracer, f"{index}.{sex}", self._chain, tracer, entries, ingest.Sex(sex))
            for sex in SEXES
        ]
        return Round(index, ops, stats)

    def _chain(self, tracer, entries, sex):
        subset = [e for e in entries if e.sex is sex]
        model = tracer.call("kde.fit_kde", kde.fit_kde, [e.bodyweight_kg for e in subset])
        weights = tracer.call(
            "resample.compute_weights", resample.compute_weights, subset, model, count=weight_counts
        )
        grid_density = tracer.call(
            "kde.density_batch", kde.density_batch, model, self.grid, count=density_counts
        )
        plan = resample.ResamplePlan(k=self.draws, seed=self.resample_seed[sex.value])
        plan = resample.resolve_plan(plan, model)
        drawn = tracer.call("resample.resample", resample.resample, subset, weights, plan, count=draw_counts)
        bw = np.array([e.bodyweight_kg for e in subset])
        total = np.array([e.total_kg for e in subset])
        drawn_bw = np.array([e.bodyweight_kg for e in drawn])
        drawn_total = np.array([e.total_kg for e in drawn])
        myriads = [
            tracer.call("diagnostics.myriad_averages", diagnostics.myriad_averages, b, t)
            for b, t in ((bw, total), (drawn_bw, drawn_total))
        ]
        below = [
            tracer.call("diagnostics.fraction_below", diagnostics.fraction_below, b, self.threshold_kg)
            for b in (bw, drawn_bw)
        ]
        return {
            "sex": sex.value,
            "bandwidth": model.bandwidth,
            "bw": bw,
            "total": total,
            "weights": weights,
            "grid_density": grid_density,
            "drawn_bw": drawn_bw,
            "drawn_total": drawn_total,
            "myriads": myriads,
            "below": below,
        }

    def verify(self, rnd: Round, oracle: oracles.Oracle) -> None:
        stats = rnd.out
        ok = oracle.exact("ingest.dropped_by_reason", stats.dropped_by_reason, self.raw.planted)
        ok &= oracle.exact("ingest.kept", stats.kept, sum(self.valid.values()))
        if not ok:
            fail_ops(rnd, "ingest drop counts differ from the planted counts")
        labels = [f"{rnd.index}.{sex}" for sex in SEXES]
        if self.reference is None:
            for op, label in zip(rnd.ops, labels):
                if op.out is not None and not self._check_chain(op.out, oracle):
                    op.error = op.error or f"{label}: oracle check failed"
            self.reference = [op.out for op in rnd.ops]
        else:
            for op, ref, label in zip(rnd.ops, self.reference, labels):
                if op.out is not None and ref is not None and not _same_chain(op.out, ref):
                    oracle.exact("flatten.repeatable", False, True)
                    op.error = f"{label}: outputs differ from round 0"

    def _check_chain(self, out, oracle: oracles.Oracle) -> bool:
        sex, bw = out["sex"], out["bw"]
        want_bw = np.sort(self.raw.samples[sex].bodyweight_kg)
        ok = oracle.close("ingest.bodyweights", np.sort(bw), want_bw, 0.0)
        h = oracles.scott_bandwidth(bw)
        ok &= oracle.close("kde.bandwidth", out["bandwidth"], h, oracles.KDE_TOL)
        rows = sample_rows(self.seed, f"oracle:weights:{sex}", bw.size, ORACLE_POINTS)
        want_w = 1.0 / np.maximum(oracles.kde_density(bw, h, bw[rows]), resample.DEFAULT_WEIGHT_FLOOR)
        ok &= oracle.close("resample.weights", out["weights"][rows], want_w, oracles.KDE_TOL)
        rows = sample_rows(self.seed, f"oracle:grid:{sex}", self.grid.size, ORACLE_POINTS)
        want_g = oracles.kde_density(bw, h, self.grid[rows])
        ok &= oracle.close("kde.grid_density", out["grid_density"][rows], want_g, oracles.KDE_TOL)
        drawn_bw, drawn_total = out["drawn_bw"], out["drawn_total"]
        ok &= oracle.exact("resample.draws", drawn_bw.size, self.draws)
        ok &= oracle.exact("resample.positive", bool(np.all(drawn_bw > 0)), True)
        from_sample = bool(np.all(np.isin(drawn_total, out["total"])))
        ok &= oracle.exact("resample.totals_from_sample", from_sample, True)
        for (b, t), bins in zip(((bw, out["total"]), (drawn_bw, drawn_total)), out["myriads"]):
            want_mb, want_mt = oracles.myriad(b, t)
            tol = oracles.CLOSED_FORM_TOL
            ok &= oracle.close("diagnostics.myriad", bins.mean_bodyweight_kg, want_mb, tol)
            ok &= oracle.close("diagnostics.myriad", bins.mean_total_kg, want_mt, tol)
        for b, got in zip((bw, drawn_bw), out["below"]):
            ok &= oracle.close("diagnostics.fraction_below", got, np.mean(b < self.threshold_kg), 0.0)
        return ok


def _same_chain(a, b) -> bool:
    arrays = ("weights", "grid_density", "drawn_bw", "drawn_total")
    return all(np.array_equal(a[key], b[key]) for key in arrays) and a["below"] == b["below"]


class FitSweep:
    """Both curve families on 2k/10k/40k samples per sex, each fit followed by
    curve evaluation on a grid, model scoring and score diagnostics."""

    name = "fit_sweep"
    sizes = (2_000, 10_000, 40_000)
    families = (models.ModelFamily.LOGISTIC, models.ModelFamily.VON_BERTALANFFY)
    grid = np.linspace(35.0, 200.0, 1000)
    window = 100

    def prepare(self, work: Path, seed: int, registry) -> None:
        self.seed = seed
        self.registry = registry
        self.samples = {}
        for sex in SEXES:
            for n in self.sizes:
                s = inputs.lifter_sample(seed, f"{self.name}:{sex}:{n}", sex, n)
                entries = [
                    ingest.LifterEntry(
                        sex=ingest.Sex(sex),
                        bodyweight_kg=float(b) / 100,
                        best_squat_kg=float(sq) / 100,
                        best_bench_kg=float(be) / 100,
                        best_deadlift_kg=float(dl) / 100,
                        total_kg=float(t) / 100,
                        equipment="Raw",
                        division="Open",
                        event="SBD",
                    )
                    for b, sq, be, dl, t in zip(s.bodyweight_c, s.squat_c, s.bench_c, s.deadlift_c, s.total_c)
                ]
                self.samples[(sex, n)] = (s.bodyweight_kg, s.total_kg, entries)
        self.rows_per_round = len(self.families) * sum(len(v[0]) for v in self.samples.values())
        self.reference = None
        self.shortfall: dict[int, str] = {}
        self.sse_gaps: list[float] = []

    def before_round(self) -> None:
        pass

    def run_round(self, tracer, index: int) -> Round:
        ops = []
        for (sex, n), (x, y, entries) in self.samples.items():
            for family in self.families:
                op_id = f"{index}.{sex}{n}.{family.value}"
                ops.append(timed_op(tracer, op_id, self._op, tracer, sex, x, y, entries, family))
        return Round(index, ops)

    def _op(self, tracer, sex, x, y, entries, family):
        result = call_fit(tracer, x, y, family)
        params = result.params
        curves = [
            tracer.call(f"models.{fn.__name__}", fn, params, self.grid, count=point_counts)
            for fn in (
                models.evaluate,
                models.first_derivative,
                models.second_derivative,
                models.param_gradient,
            )
        ]
        self.registry.add_model_params(ingest.Sex(sex), params)
        scored = tracer.call(
            "scoring.score_dataset", scoring.score_dataset, entries, "model", self.registry, count=scored_counts
        )
        scores = np.array([score for _, score in scored])
        dist = tracer.call("diagnostics.score_distribution", diagnostics.score_distribution, scores)
        rq = tracer.call(
            "diagnostics.rolling_quantiles",
            diagnostics.rolling_quantiles,
            x,
            scores,
            window=self.window,
            count=window_counts,
        )
        return {"sex": sex, "fit": result, "curves": curves, "scores": scores, "dist": dist, "rq": rq}

    def verify(self, rnd: Round, oracle: oracles.Oracle) -> None:
        labels = [f"{rnd.index}.{sex}{n}.{family.value}" for sex, n in self.samples for family in self.families]
        if self.reference is None:
            for i, (op, label) in enumerate(zip(rnd.ops, labels)):
                if op.out is None:
                    continue
                if not self._check_op(op.out, oracle):
                    op.error = op.error or f"{label}: oracle check failed"
                x, y, _ = self.samples[(op.out["sex"], len(op.out["scores"]))]
                why = result_shortfall(oracle, op.out["fit"], x, y, self.sse_gaps)
                if why:
                    self.shortfall[i] = why
            self.reference = [op.out for op in rnd.ops]
        else:
            for op, ref, label in zip(rnd.ops, self.reference, labels):
                if op.out is not None and ref is not None and not (
                    op.out["fit"].params == ref["fit"].params and np.array_equal(op.out["scores"], ref["scores"])
                ):
                    oracle.exact("fit_sweep.repeatable", False, True)
                    op.error = f"{label}: outputs differ from round 0"
        fail_short(rnd, self.shortfall, labels)

    def _check_op(self, out, oracle: oracles.Oracle) -> bool:
        result = out["fit"]
        n = len(out["scores"])
        x, y, _ = self.samples[(out["sex"], n)]
        family = result.params.family.value
        theta = (result.params.L, result.params.k, result.params.x0)
        ok = check_sse(oracle, family, theta, result.sse, x, y)
        wants = (
            oracles.curve(family, *theta, self.grid),
            *oracles.curve_slopes(family, theta, self.grid),
            oracles.curve_jacobian(family, theta, self.grid),
        )
        for name, got, want in zip(("evaluate", "first", "second", "gradient"), out["curves"], wants):
            # derivative closed forms cancel near the inflection, so scale by the largest value
            err = float(np.max(np.abs(got - want)) / np.max(np.abs(want)))
            ok &= oracle.check(f"models.{name}", err, oracles.CLOSED_FORM_TOL)
        scores = out["scores"]
        want_scores = oracles.model_score(family, theta, x, y)
        ok &= oracle.close("scoring.model", scores, want_scores, oracles.CLOSED_FORM_TOL)
        dist = out["dist"]
        centered = scores - scores.mean()
        m2 = np.mean(centered**2)
        ok &= oracle.close("diagnostics.distribution", dist.mean, scores.mean(), oracles.CLOSED_FORM_TOL)
        ok &= oracle.close("diagnostics.distribution", dist.std, np.sqrt(m2), oracles.CLOSED_FORM_TOL)
        ok &= oracle.close("diagnostics.distribution", dist.skewness, np.mean(centered**3) / m2**1.5, 1e-8)
        rq = out["rq"]
        ok &= oracle.exact("diagnostics.windows", len(rq.center_bodyweight_kg), n - self.window + 1)
        rows = sample_rows(self.seed, f"oracle:rolling:{n}", n - self.window + 1, 8)
        want = oracles.rolling_quantile_rows(x, scores, self.window, rows, rq.levels)
        ok &= oracle.close("diagnostics.rolling", rq.values[rows], want, oracles.CLOSED_FORM_TOL)
        return ok


# cli_pipeline: the spans sit on the calls the cli layer makes into the
# other layers, installed by patching the names ``liftcurve.cli`` imported.
CLI_PATCHES = {
    "parse_csv": ("ingest.parse_csv", parse_counts),
    "write_normalized_csv": ("ingest.write_normalized_csv", None),
    "fit": ("fit.fit", fit_counts),
    "default_registry": ("scoring.default_registry", None),
    "score_dataset": ("scoring.score_dataset", scored_counts),
    "write_scored_csv": ("scoring.write_scored_csv", None),
    "read_scored_csv": ("scoring.read_scored_csv", None),
    "myriad_averages": ("diagnostics.myriad_averages", None),
    "rolling_quantiles": ("diagnostics.rolling_quantiles", window_counts),
    "score_distribution": ("diagnostics.score_distribution", None),
    "fraction_below": ("diagnostics.fraction_below", None),
    "write_myriad_csv": ("diagnostics.write_myriad_csv", None),
    "write_quantiles_csv": ("diagnostics.write_quantiles_csv", None),
    "write_distribution_csv": ("diagnostics.write_distribution_csv", None),
}


def read_csv_columns(path, names=None) -> dict[str, np.ndarray]:
    """The named columns of a CSV (all if ``names`` is None), read row by row.

    Only the wanted columns are held, each value parsed as it is read: a
    float, except the ``Sex`` column. This keeps the check's memory below
    the program's, so ``peak_rss_mb`` is set by the timed work.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        names = header if names is None else names
        index = [header.index(name) for name in names]
        parse = [str if name == "Sex" else float for name in names]
        columns: list[list] = [[] for _ in names]
        for row in reader:
            for column, i, fn in zip(columns, index, parse):
                column.append(fn(row[i]))
    return {name: np.array(column) for name, column in zip(names, columns)}


def file_digest(path: Path) -> str:
    with open(path, "rb") as fh:
        return hashlib.file_digest(fh, "sha256").hexdigest()


class CliPipeline:
    """``cli.main`` in-process: ingest -> fit --family vb -> score wilks, ipf_gl,
    model -> diagnose; each command reads the files the previous one wrote."""

    name = "cli_pipeline"
    valid = {"M": 38_800, "F": 19_400}
    junk = 1_800
    systems = ("wilks", "ipf_gl", "model")
    window = 100
    threshold_kg = 60.0

    def prepare(self, work: Path, seed: int, registry) -> None:
        self.seed = seed
        self.raw = inputs.write_raw_csv(work / "cli_raw.csv", seed, self.name, self.valid, self.junk)
        self.rows_per_round = self.raw.rows
        self.out = work / "cli_out"
        self.params = work / "cli_model_params.json"
        self.reference = None
        self.shortfall: dict[int, str] = {}
        self.sse_gaps: list[float] = []

    def before_round(self) -> None:
        shutil.rmtree(self.out, ignore_errors=True)

    def run_round(self, tracer, index: int) -> Round:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
            with tracer.patched(cli, CLI_PATCHES):
                op = timed_op(tracer, f"{index}.pass", self._pass, tracer)
        if op.out:
            stderr = "".join(f" | {line}" for line in err.getvalue().splitlines())
            op.error = f"{index}.pass: " + "; ".join(op.out) + stderr
        files = sorted(p for p in self.out.rglob("*") if p.is_file())
        counts = {"cli.bytes_written": sum(p.stat().st_size for p in files)}
        return Round(index, [op], counts=counts)

    def _pass(self, tracer) -> list[str]:
        """Run every command, also after one exits nonzero; return the failures.

        A fit that does not converge still writes its parameters (exit code
        3), so the commands after it run on them.
        """
        out = self.out
        failures: list[str] = []

        def run(command, *argv):
            code = tracer.call(f"cli.{command}", cli.main, [command, *map(str, argv)])
            if code != 0:
                failures.append(f"liftcurve {command} exited with code {code}")

        normalized = out / "ingest" / "normalized.csv"
        run("ingest", "--input", self.raw.path, "--output-dir", out / "ingest")
        run("fit", "--input", normalized, "--output-dir", out / "fit", "--family", "vb")
        records = [
            json.loads(path.read_text())
            for path in (out / "fit" / f"fit_von_bertalanffy_{sex}.json" for sex in ("F", "M"))
            if path.is_file()
        ]
        self.params.write_text(json.dumps(records, indent=2, sort_keys=True) + "\n")
        for system in self.systems:
            extra = ("--params", self.params) if system == "model" else ()
            target = out / f"score_{system}"
            run("score", "--input", normalized, "--output-dir", target, "--system", system, *extra)
        run(
            "diagnose", "--input", out / "score_model" / "scored.csv", "--output-dir", out / "diagnose",
            "--myriad", "--window", self.window, "--below", self.threshold_kg,
        )
        return failures

    def verify(self, rnd: Round, oracle: oracles.Oracle) -> None:
        op = rnd.ops[0]
        digests = {
            str(p.relative_to(self.out)): file_digest(p) for p in sorted(self.out.rglob("*")) if p.is_file()
        }
        label = f"{rnd.index}.pass"
        if self.reference is None:
            if not self._check_outputs(oracle):
                op.error = op.error or f"{label}: oracle check failed"
            self.reference = digests
        else:
            names = digests.keys() | self.reference.keys()
            changed = sorted(name for name in names if digests.get(name) != self.reference.get(name))
            if not oracle.exact("cli.byte_identical", changed, []):
                op.error = f"{label}: output files differ from the first pass"
        fail_short(rnd, self.shortfall, [label])

    def _check_outputs(self, oracle: oracles.Oracle) -> bool:
        """Check every output the pass wrote; a command that failed wrote none to check."""
        out = self.out
        required = [out / "ingest" / "ingest_stats.json", out / "ingest" / "normalized.csv"]
        required += [out / "fit" / f"fit_von_bertalanffy_{s}.json" for s in SEXES]
        if not oracle.exact("cli.outputs", [str(p) for p in required if not p.is_file()], []):
            return False
        stats = json.loads((out / "ingest" / "ingest_stats.json").read_text())
        ok = oracle.exact("ingest.dropped_by_reason", stats["dropped_by_reason"], self.raw.planted)
        ok &= oracle.exact("ingest.kept", stats["kept"], sum(self.valid.values()))
        cols = read_csv_columns(out / "ingest" / "normalized.csv", ("Sex", "BodyweightKg", "TotalKg"))
        sex, bw, total = cols["Sex"], cols["BodyweightKg"], cols["TotalKg"]
        for s in SEXES:
            want = np.sort(self.raw.samples[s].bodyweight_kg)
            ok &= oracle.close("ingest.bodyweights", np.sort(bw[sex == s]), want, 0.0)
        params = {}
        for s in SEXES:
            record = json.loads((out / "fit" / f"fit_von_bertalanffy_{s}.json").read_text())
            theta = (record["L"], record["k"], record["x0"])
            params[s] = theta
            x, y = bw[sex == s], total[sex == s]
            ok &= check_sse(oracle, "von_bertalanffy", theta, record["sse"], x, y)
            why = fit_shortfall(
                oracle, "von_bertalanffy", theta, record["converged"], record["iterations"], x, y, self.sse_gaps
            )
            if why:
                self.shortfall[0] = f"{s}: {why}"
        scored = {}
        for system in self.systems:
            path = out / f"score_{system}" / "scored.csv"
            if not path.is_file():
                continue
            cols = read_csv_columns(path, ("Sex", "BodyweightKg", "TotalKg", "Score"))
            sex, bw, total, score = cols["Sex"], cols["BodyweightKg"], cols["TotalKg"], cols["Score"]
            scored[system] = (sex, bw, total, score)
            for s in SEXES:
                m = sex == s
                if system == "wilks":
                    want = oracles.wilks(s, bw[m], total[m])
                elif system == "ipf_gl":
                    want = oracles.ipf_gl(s, bw[m], total[m])
                else:
                    want = oracles.model_score("von_bertalanffy", params[s], bw[m], total[m])
                err = oracles.printed_err(score[m], want, 3)
                ok &= oracle.check(f"scoring.{system}", err, oracles.PRINTED_TOL)
        summary_path = out / "diagnose" / "diagnostics_summary.json"
        if "model" not in scored or not summary_path.is_file():
            return ok
        # diagnose read the model-scored file
        sex, bw, total, score = scored["model"]
        summary = json.loads(summary_path.read_text())
        for s in SEXES:
            m = sex == s
            got = summary["fraction_below"][f"{self.threshold_kg:g}"][s]
            ok &= oracle.close("diagnostics.fraction_below", got, np.mean(bw[m] < self.threshold_kg), 0.0)
            myriad_columns = ("mean_bodyweight_kg", "mean_total_kg")
            myriad = read_csv_columns(out / "diagnose" / f"myriad_{s}.csv", myriad_columns)
            for column, want in zip(myriad_columns, oracles.myriad(bw[m], total[m])):
                ok &= oracle.close("diagnostics.myriad", myriad[column], want, oracles.CLOSED_FORM_TOL)
            quantiles = read_csv_columns(out / "diagnose" / f"quantiles_{s}.csv")
            windows = int(m.sum()) - self.window + 1
            ok &= oracle.exact("diagnostics.windows", len(quantiles["center_bodyweight_kg"]), windows)
            rows = sample_rows(self.seed, f"oracle:rolling:{s}", windows, 8)
            levels = [float(c[1:]) for c in quantiles if c.startswith("q")]
            got = np.array([[quantiles[f"q{q:g}"][r] for q in levels] for r in rows], dtype=float)
            want = oracles.rolling_quantile_rows(bw[m], score[m], self.window, rows, levels)
            ok &= oracle.close("diagnostics.rolling", got, want, oracles.CLOSED_FORM_TOL)
        return ok


WORKLOADS = {w.name: w for w in (Flatten, FitSweep, CliPipeline)}
