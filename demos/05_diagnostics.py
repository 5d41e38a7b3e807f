"""
Dataset and score diagnostics
=============================

Three plot-ready data products:

* myriad averages -- mean total per group of 10,000 bodyweight-sorted
  results (a robust look at the growth trend);
* rolling score quantiles -- is the score flat across bodyweight?
* score distribution -- moments plus a moment-matched Gaussian.

Run:  python demos/05_diagnostics.py
"""

import numpy as np

from liftcurve import (
    GrowthParams,
    LifterEntry,
    ModelFamily,
    ScoreRegistry,
    Sex,
    evaluate,
    fraction_below,
    myriad_averages,
    rolling_quantiles,
    score_dataset,
    score_distribution,
)

rng = np.random.Generator(np.random.Philox(key=9))
curve = GrowthParams(ModelFamily.LOGISTIC, L=722.3, k=0.05447, x0=53.4)

n = 60_000
bodyweights = np.exp(rng.normal(4.42, 0.16, n))
totals = evaluate(curve, bodyweights) * np.exp(rng.normal(0.0, 0.18, n))

bins = myriad_averages(bodyweights, totals)
print("myriad averages (10,000 results per group):")
for bw, total, count in zip(bins.mean_bodyweight_kg, bins.mean_total_kg, bins.counts):
    print(f"  mean bw {bw:6.1f} kg -> mean total {total:6.1f} kg  (n={count})")

# score every result against the curve it was drawn from
entries = [LifterEntry(Sex.MALE, bw, t / 3, t / 3, t / 3, t, "Raw", "Open", "SBD")
           for bw, t in zip(bodyweights.tolist(), totals.tolist())]
registry = ScoreRegistry()
registry.add_model_params(Sex.MALE, curve)
scores = np.array([score for _, score in score_dataset(entries, "model", registry)])

rq = rolling_quantiles(bodyweights, scores, window=100)
print("\nrolling score quantiles, every 10,000th window "
      f"(levels {rq.levels}):")
for i in range(0, rq.values.shape[0], 10_000):
    row = " ".join(f"{v:6.1f}" for v in rq.values[i])
    print(f"  bw~{rq.center_bodyweight_kg[i]:6.1f} kg: {row}")

dist = score_distribution(scores)
print(f"\nscore distribution: mean={dist.mean:.2f} std={dist.std:.2f} "
      f"skew={dist.skewness:.3f} excess kurtosis={dist.excess_kurtosis:.3f}")
print(f"gaussian fit: mean={dist.gaussian_mean:.2f} std={dist.gaussian_std:.2f} "
      f"({dist.histogram_counts.size} Freedman-Diaconis bins)")

threshold = 53.4
print(f"\nfraction of the sample below {threshold} kg: "
      f"{fraction_below(bodyweights, threshold):.3%}")
