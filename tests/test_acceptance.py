"""Acceptance gate: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v``; the terminal summary
(see conftest) lists one PASS/FAIL line per criterion.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from liftcurve.cli import derive_seed, main
from liftcurve.diagnostics import (
    fraction_below,
    myriad_averages,
    rolling_quantiles,
    score_distribution,
)
from liftcurve.fit import FitConfig, fit
from liftcurve.ingest import FilterPolicy, Sex, parse_csv
from liftcurve.kde import BandwidthMode, KdeModel, density_batch, fit_kde
from liftcurve.models import (
    GrowthParams,
    ModelFamily,
    asymptote,
    evaluate,
    first_derivative,
    second_derivative,
)
from liftcurve.resample import ResamplePlan, flatten_resample, resample
from liftcurve.scoring import GlCoefficients, ScoreRegistry, gl_score, model_score, score_dataset

from synth import bimodal_bodyweights, chi_square_uniformity, logistic_xy, make_entry
from test_cli import read_tree, write_entries_csv

LOGISTIC_TRUTH = GrowthParams(ModelFamily.LOGISTIC, 722.3, 0.05447, 53.4)


def test_criterion_1_synthetic_recovery():
    """10k logistic points + noise(std 30): params within 2%, under 5 s."""
    x, y = logistic_xy(n=10_000, seed=42)
    start = time.perf_counter()
    result = fit(x, y, FitConfig(family=ModelFamily.LOGISTIC))
    elapsed = time.perf_counter() - start
    errors = {
        "L": abs(result.params.L - LOGISTIC_TRUTH.L) / LOGISTIC_TRUTH.L,
        "k": abs(result.params.k - LOGISTIC_TRUTH.k) / LOGISTIC_TRUTH.k,
        "x0": abs(result.params.x0 - LOGISTIC_TRUTH.x0) / LOGISTIC_TRUTH.x0,
    }
    assert result.converged
    assert all(err < 0.02 for err in errors.values()), errors
    assert elapsed < 5.0
    print(f"criterion 1 PASS: errors={ {k: f'{v:.2%}' for k, v in errors.items()} } {elapsed:.2f}s")


def test_criterion_2_derivative_correctness():
    """Analytic derivatives match central differences at 100 random draws."""
    rng = np.random.Generator(np.random.Philox(key=2024))
    for _ in range(100):
        family = ModelFamily.VON_BERTALANFFY if rng.random() < 0.5 else ModelFamily.LOGISTIC
        params = GrowthParams(
            family,
            L=float(rng.uniform(100.0, 1500.0)),
            k=float(rng.uniform(0.005, 0.2)),
            x0=float(rng.uniform(0.0, 100.0)),
        )
        # keep k|x-x0| in [0.3, 4] so derivative scales beat float noise
        u = float(rng.uniform(0.3, 4.0)) * (1 if rng.random() < 0.5 else -1)
        x = params.x0 + u / params.k

        h1 = 1e-5 * max(1.0, abs(x))
        fd1 = (evaluate(params, x + h1) - evaluate(params, x - h1)) / (2 * h1)
        d1 = first_derivative(params, x)
        assert abs(d1 - fd1) / abs(fd1) < 1e-6

        h2 = 1e-3 / params.k
        fd2 = (
            evaluate(params, x + h2) - 2 * evaluate(params, x) + evaluate(params, x - h2)
        ) / h2**2
        d2 = second_derivative(params, x)
        assert abs(d2 - fd2) / abs(fd2) < 1e-4
    print("criterion 2 PASS: 100 draws, first<1e-6, second<1e-4")


def test_criterion_3_structural_invariants():
    """f(0)=0, curvature flip at x0, VB growth identity, GL/VB score identity."""
    logistic = LOGISTIC_TRUTH
    assert abs(evaluate(logistic, 0.0)) < 1e-12 * logistic.L

    step = 0.01
    grid = np.arange(max(0.0, logistic.x0 - 50.0), logistic.x0 + 50.0 + step / 2, step)
    values = evaluate(logistic, grid)
    second_diff = values[2:] - 2 * values[1:-1] + values[:-2]
    signs = np.sign(second_diff)
    nonzero = np.nonzero(signs)[0]
    flips = [(i, j) for i, j in zip(nonzero[:-1], nonzero[1:]) if signs[i] != signs[j]]
    assert len(flips) == 1
    lo_x, hi_x = grid[flips[0][0] + 1], grid[flips[0][1] + 1]
    assert lo_x - step <= logistic.x0 <= hi_x + step

    vb = GrowthParams(ModelFamily.VON_BERTALANFFY, 776.7, 0.02045, 22.33)
    xs = np.linspace(vb.x0 - 20.0, vb.x0 + 300.0, 500)
    identity_gap = np.abs(
        first_derivative(vb, xs) - vb.k * (vb.L - evaluate(vb, xs))
    ) / np.abs(first_derivative(vb, xs))
    assert np.max(identity_gap) < 1e-10

    rng = np.random.Generator(np.random.Philox(key=33))
    for _ in range(50):
        L = float(rng.uniform(400.0, 1000.0))
        k = float(rng.uniform(0.01, 0.1))
        x0 = float(rng.uniform(0.0, 25.0))
        coeffs = GlCoefficients(A=L, B=L * math.exp(k * x0), C=k)
        params = GrowthParams(ModelFamily.VON_BERTALANFFY, L, k, x0)
        x = float(rng.uniform(31.0, 249.0))
        y = float(rng.uniform(100.0, 900.0))
        a, b = gl_score(x, y, coeffs), model_score(x, y, params)
        assert abs(a - b) / abs(b) < 1e-10
    print("criterion 3 PASS: f(0)=0, sign flip at x0, VB identity, GL/VB equivalence")


def test_criterion_4_kde_correctness():
    """Unit mass, two-point closed form, batch == naive loop on 1e6 points."""
    rng = np.random.Generator(np.random.Philox(key=44))
    sample = np.concatenate([rng.normal(70, 4, 2000), rng.normal(95, 4, 2000)])
    model = fit_kde(sample)
    h = model.bandwidth
    grid = np.arange(sample.min() - 8 * h, sample.max() + 8 * h, h / 10)
    integral = float(np.trapezoid(density_batch(model, grid), grid))
    assert abs(integral - 1.0) < 1e-3

    two_point = KdeModel(points=np.array([-1.0, 1.0]), bandwidth=1.0)
    closed_form = math.exp(-0.5) / math.sqrt(2 * math.pi)
    assert abs(density_batch(two_point, [0.0])[0] - closed_form) < 1e-12

    points = rng.normal(85.0, 15.0, 1000)
    kde1000 = KdeModel(points=points, bandwidth=2.0)
    xs = rng.uniform(30.0, 140.0, 1_000_000)
    batch = density_batch(kde1000, xs)
    naive = np.zeros(xs.size)
    for p in points:  # explicit loop over kernels, independent accumulation order
        naive += np.exp(-0.5 * ((p - xs) / 2.0) ** 2)
    naive /= points.size * 2.0 * math.sqrt(2 * math.pi)
    max_rel = float(np.max(np.abs(batch - naive) / naive))
    assert max_rel < 1e-12
    print(f"criterion 4 PASS: integral={integral:.6f}, naive-loop max rel diff={max_rel:.2e}")


def test_criterion_5_resampling_flattening():
    """Bimodal fixture flattens to <25% of the original chi-square; seeded runs identical."""
    bodyweights = bimodal_bodyweights(n=50_000, seed=7)
    entries = [make_entry(b, 400.0) for b in bodyweights]
    kde = fit_kde(bodyweights)
    plan = ResamplePlan(k=50_000, seed=99)
    resampled, resolved = flatten_resample(entries, kde, plan)
    out_bw = np.array([e.bodyweight_kg for e in resampled])
    chi_original = chi_square_uniformity(bodyweights)
    chi_resampled = chi_square_uniformity(out_bw)
    assert chi_resampled < 0.25 * chi_original

    weights = np.ones(100)
    again = resample(entries[:100], weights, ResamplePlan(k=5000, seed=123, jitter_std_kg=1.0))
    once = resample(entries[:100], weights, ResamplePlan(k=5000, seed=123, jitter_std_kg=1.0))
    assert again == once
    print(
        f"criterion 5 PASS: chi2 {chi_original:.0f} -> {chi_resampled:.0f} "
        f"({chi_resampled / chi_original:.1%}), bit-identical reruns"
    )


def test_criterion_6_pinned_snapshot_envelope(snapshot_csv):
    """Loose envelopes on the hash-pinned snapshot; full pipeline under 5 min."""
    start = time.perf_counter()
    entries, _ = parse_csv(snapshot_csv)
    males = [e for e in entries if e.sex is Sex.MALE]
    females = [e for e in entries if e.sex is Sex.FEMALE]

    frac = fraction_below([e.bodyweight_kg for e in males], 53.4)
    assert 0.0005 <= frac <= 0.01

    fitted = {}
    for label, subset in (("M", males), ("F", females)):
        kde = fit_kde([e.bodyweight_kg for e in subset])
        plan = ResamplePlan(k=100_000, seed=derive_seed(0, f"resample:{label}"))
        resampled, _ = flatten_resample(subset, kde, plan)
        x = [e.bodyweight_kg for e in resampled]
        y = [e.total_kg for e in resampled]
        logistic = fit(x, y, FitConfig(family=ModelFamily.LOGISTIC))
        vb = fit(x, y, FitConfig(family=ModelFamily.VON_BERTALANFFY))
        assert logistic.converged and vb.converged
        fitted[label] = (logistic.params, vb.params)

    male_logistic, male_vb = fitted["M"]
    assert 40.0 <= male_logistic.x0 <= 65.0
    assert 600.0 <= male_vb.L <= 900.0

    skews = {}
    for label, subset in (("M", males), ("F", females)):
        registry = ScoreRegistry()
        registry.add_model_params(Sex(label), fitted[label][0])
        scores = np.array([score for _, score in score_dataset(subset, "model", registry)])
        skews[label] = score_distribution(scores).skewness
        # exercise the remaining diagnostics on the same pipeline output
        myriad_averages(
            [e.bodyweight_kg for e in subset], [e.total_kg for e in subset]
        )
        rolling_quantiles([e.bodyweight_kg for e in subset], scores, window=100)
    assert abs(skews["F"]) > abs(skews["M"])

    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    print(
        f"criterion 6 PASS: frac={frac:.3%}, logistic x0={male_logistic.x0:.1f}, "
        f"vb L={male_vb.L:.0f}, skew F={skews['F']:.2f} > M={skews['M']:.2f}, {elapsed:.0f}s"
    )


def test_criterion_7_diagnostics_oracles():
    """Rolling quantiles vs naive sort, seeded skewness, myriad linearity."""
    rng = np.random.Generator(np.random.Philox(key=77))
    bodyweights = rng.uniform(40.0, 180.0, 1000)
    scores = rng.normal(100.0, 15.0, 1000)
    levels = (0.05, 0.25, 0.5, 0.75, 0.95)
    rq = rolling_quantiles(bodyweights, scores, window=100, levels=levels)
    order = np.argsort(bodyweights, kind="stable")
    sorted_scores = scores[order]
    for i in range(rq.values.shape[0]):
        window = np.sort(sorted_scores[i : i + 100])
        assert np.array_equal(rq.values[i], np.quantile(window, levels, method="linear"))

    normal = np.random.Generator(np.random.Philox(key=101)).standard_normal(100_000)
    assert abs(score_distribution(normal).skewness) < 0.03

    bw = rng.uniform(40, 180, 30_000)
    bins = myriad_averages(bw, 5.0 * bw)
    gap = np.max(np.abs(bins.mean_total_kg - 5.0 * bins.mean_bodyweight_kg))
    assert gap < 1e-9 * np.max(bins.mean_total_kg)
    print(f"criterion 7 PASS: quantile oracle exact, skew ok, myriad gap={gap:.2e}")


def test_criterion_8_end_to_end_determinism(tmp_path):
    """Identical manifests (same inputs, args, seed) yield byte-identical files."""
    src = tmp_path / "data.csv"
    write_entries_csv(src, n_per_sex=800, seed=2025)
    work = tmp_path / "work"

    def run_chain():
        assert main(["ingest", "--input", str(src), "--output-dir", str(work)]) == 0
        assert main(
            [
                "fit", "--input", str(work / "normalized.csv"), "--output-dir", str(work),
                "--family", "logistic", "--sex", "both", "--resample", "2000", "--seed", "11",
            ]
        ) == 0
        assert main(
            [
                "score", "--input", str(work / "normalized.csv"), "--output-dir", str(work),
                "--system", "ipf_gl",
            ]
        ) == 0
        assert main(
            [
                "diagnose", "--input", str(work / "scored.csv"), "--output-dir", str(work),
                "--myriad", "--window", "100", "--below", "53.4",
            ]
        ) == 0
        return read_tree(work)

    first = run_chain()
    second = run_chain()
    assert first.keys() == second.keys()
    diffs = [name for name in first if first[name] != second[name]]
    assert diffs == []
    print(f"criterion 8 PASS: {len(first)} files byte-identical across reruns")
