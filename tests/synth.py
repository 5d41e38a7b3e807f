"""Deterministic synthetic data builders shared across the test suite.

Everything here is seeded through Philox keys so repeated runs (and the
pinned-snapshot hash check) are byte-reproducible within an environment.
"""

from __future__ import annotations

import csv

import numpy as np

from liftcurve.ingest import LifterEntry, Sex
from liftcurve.kde import fit_kde
from liftcurve.models import GrowthParams, ModelFamily, evaluate
from liftcurve.resample import ResamplePlan, flatten_resample

# Generating curves for the synthetic snapshot. Chosen so the male
# logistic location sits near the low-bodyweight inflection seen in real
# data and roughly 0.3% of males fall below 53.4 kg.
MALE_CURVE = GrowthParams(ModelFamily.LOGISTIC, L=730.0, k=0.055, x0=53.0)
FEMALE_CURVE = GrowthParams(ModelFamily.LOGISTIC, L=630.0, k=0.032, x0=26.0)
MALE_LOG_BW = (4.4175, 0.16)  # ln-bodyweight mean/std; P(bw < 53.4) ~ 0.3%
FEMALE_LOG_BW = (4.1431, 0.15)
MALE_NOISE_SIGMA = 0.18  # multiplicative lognormal spread of totals
FEMALE_NOISE_SIGMA = 0.28  # wider + more skewed than the male spread

SNAPSHOT_SEED = 20250809


def rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=seed))


def make_entry(
    bodyweight: float,
    total: float,
    sex: Sex = Sex.MALE,
    equipment: str = "Raw",
    division: str = "Open",
    event: str = "SBD",
) -> LifterEntry:
    """Entry with the total split evenly across the three lifts."""
    part = round(total / 3.0, 2)
    return LifterEntry(
        sex=sex,
        bodyweight_kg=float(bodyweight),
        best_squat_kg=part,
        best_bench_kg=part,
        best_deadlift_kg=round(total - 2 * part, 2),
        total_kg=float(total),
        equipment=equipment,
        division=division,
        event=event,
    )


def bimodal_bodyweights(n: int = 50_000, seed: int = 7) -> np.ndarray:
    """Two Gaussians at 70/95 kg (std 4), 50/50 mix."""
    gen = rng(seed)
    means = np.where(gen.random(n) < 0.5, 70.0, 95.0)
    return means + gen.normal(0.0, 4.0, n)


def chi_square_uniformity(sample, bins: int = 20) -> float:
    """Chi-square statistic against a flat histogram.

    Bins are equal-width over the sample's central 99% range; values
    outside that range are ignored.
    """
    arr = np.asarray(sample, dtype=float)
    lo, hi = np.quantile(arr, [0.005, 0.995])
    counts, _ = np.histogram(arr, bins=bins, range=(lo, hi))
    expected = counts.sum() / bins
    return float(np.sum((counts - expected) ** 2 / expected))


def logistic_xy(
    n: int = 10_000,
    params: GrowthParams = GrowthParams(ModelFamily.LOGISTIC, 722.3, 0.05447, 53.4),
    noise_std: float = 30.0,
    x_range: tuple[float, float] = (40.0, 180.0),
    seed: int = 42,
) -> tuple[np.ndarray, np.ndarray]:
    """(bodyweight, total) pairs from a logistic curve plus Gaussian noise."""
    gen = rng(seed)
    x = gen.uniform(*x_range, n)
    y = evaluate(params, x) + gen.normal(0.0, noise_std, n)
    return x, np.maximum(y, 1.0)


def _lift_rows(gen, sexes, bodyweights, totals):
    rows = []
    frac = gen.normal([0.355, 0.265], 0.012, size=(len(totals), 2))
    for sex, bw, total, (f_squat, f_bench) in zip(sexes, bodyweights, totals, frac):
        squat = round(total * f_squat, 2)
        bench = round(total * f_bench, 2)
        dead = round(total - squat - bench, 2)
        total_exact = round(squat + bench + dead, 2)
        rows.append(
            {
                "Sex": sex,
                "Equipment": "Raw",
                "Division": "Open",
                "Event": "SBD",
                "BodyweightKg": f"{bw:.2f}",
                "Best3SquatKg": f"{squat:.2f}",
                "Best3BenchKg": f"{bench:.2f}",
                "Best3DeadliftKg": f"{dead:.2f}",
                "TotalKg": f"{total_exact:.2f}",
            }
        )
    return rows


def _valid_rows(gen, sex_tag, n, curve, log_bw, noise_sigma):
    bw = np.exp(gen.normal(log_bw[0], log_bw[1], n))
    totals = evaluate(curve, bw) * np.exp(gen.normal(0.0, noise_sigma, n))
    totals = np.maximum(totals, 30.0)
    return _lift_rows(gen, [sex_tag] * n, bw, totals)


def _junk_rows(gen, n_junk: int):
    """Rows that a default-policy parse must drop, in fixed proportions."""
    rows = []
    kinds = ["equipment", "division", "event", "negative_lift", "sex", "malformed"]
    for i in range(n_junk):
        kind = kinds[i % len(kinds)]
        bw = float(gen.uniform(50, 140))
        total = float(gen.uniform(200, 700))
        row = _lift_rows(gen, ["M"], [bw], [total])[0]
        if kind == "equipment":
            row["Equipment"] = "Single-ply"
        elif kind == "division":
            row["Division"] = "Juniors 14-18"
        elif kind == "event":
            row["Event"] = "B"
        elif kind == "negative_lift":
            row["Best3BenchKg"] = f"-{row['Best3BenchKg']}"
        elif kind == "sex":
            row["Sex"] = "Mx"
        else:
            row["BodyweightKg"] = "n/a"
        rows.append(row)
    return rows


def write_snapshot_csv(
    path,
    n_males: int = 40_000,
    n_females: int = 20_000,
    n_junk: int = 1_200,
    seed: int = SNAPSHOT_SEED,
) -> None:
    """Write the deterministic OpenPowerlifting-shaped snapshot CSV."""
    gen = rng(seed)
    rows = (
        _valid_rows(gen, "M", n_males, MALE_CURVE, MALE_LOG_BW, MALE_NOISE_SIGMA)
        + _valid_rows(gen, "F", n_females, FEMALE_CURVE, FEMALE_LOG_BW, FEMALE_NOISE_SIGMA)
        + _junk_rows(gen, n_junk)
    )
    order = gen.permutation(len(rows))
    columns = [
        "Name",
        "Sex",
        "Equipment",
        "Division",
        "Event",
        "BodyweightKg",
        "Best3SquatKg",
        "Best3BenchKg",
        "Best3DeadliftKg",
        "TotalKg",
    ]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for serial, idx in enumerate(order):
            row = rows[idx]
            row["Name"] = f"Lifter{serial:06d}"
            writer.writerow([row[c] for c in columns])


def female_xy(n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Female (bodyweight, total) pairs shaped like the synthetic snapshot, rounded to 0.01 kg."""
    gen = rng(seed)
    x = np.round(np.exp(gen.normal(*FEMALE_LOG_BW, n)), 2)
    noise = np.exp(gen.normal(0.0, FEMALE_NOISE_SIGMA, n))
    return x, np.round(np.maximum(evaluate(FEMALE_CURVE, x) * noise, 30.0), 2)


def flattened_female_xy(n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """The female sample after KDE inverse-density resampling to n draws."""
    x, y = female_xy(n, seed)
    entries = [make_entry(b, t, sex=Sex.FEMALE) for b, t in zip(x, y)]
    drawn, _ = flatten_resample(entries, fit_kde(x), ResamplePlan(k=n, seed=seed))
    return np.array([e.bodyweight_kg for e in drawn]), np.array([e.total_kg for e in drawn])
