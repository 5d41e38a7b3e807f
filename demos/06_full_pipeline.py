"""
The whole pipeline, end to end
==============================

ingest -> KDE -> inverse-density resample -> fit -> score -> diagnose,
using the library API throughout. Every step is also available as a CLI
subcommand (liftcurve ingest/fit/score/diagnose); the CLI additionally
writes manifests so identical runs are byte-identical.

Run:  python demos/06_full_pipeline.py
"""

import tempfile
from pathlib import Path

import numpy as np

from liftcurve import (
    FitConfig,
    FilterPolicy,
    GrowthParams,
    ModelFamily,
    ResamplePlan,
    ScoreRegistry,
    Sex,
    evaluate,
    fit_kde,
    flatten_resample,
    fraction_below,
    parse_csv,
    score_dataset,
    score_distribution,
    to_table_record,
    write_normalized_csv,
)
from liftcurve.fit import fit
from liftcurve.ingest import LifterEntry

workdir = Path(tempfile.mkdtemp(prefix="liftcurve_demo_"))

# --- build a raw competition CSV (some rows will fail the filters) -----
rng = np.random.Generator(np.random.Philox(key=31))
curve = GrowthParams(ModelFamily.LOGISTIC, L=730.0, k=0.055, x0=53.0)
rows = []
for bw in np.exp(rng.normal(4.42, 0.16, 8000)):
    total = float(evaluate(curve, bw) * np.exp(rng.normal(0.0, 0.18)))
    third = round(total / 3, 2)
    dead = round(total - 2 * third, 2)
    rows.append(LifterEntry(Sex.MALE, round(float(bw), 2), third, third, dead,
                            round(2 * third + dead, 2), "Raw", "Open", "SBD"))
source = workdir / "competition.csv"
write_normalized_csv(rows, source)

# --- ingest ------------------------------------------------------------
entries, stats = parse_csv(source, FilterPolicy(sex=Sex.MALE))
print(f"ingest: kept {stats.kept}/{stats.total_rows} rows")

# --- flatten the bodyweight distribution -------------------------------
bodyweights = [e.bodyweight_kg for e in entries]
kde = fit_kde(bodyweights)
resampled, plan = flatten_resample(entries, kde, ResamplePlan(k=20_000, seed=42))
print(f"resample: k={plan.k}, bandwidth={kde.bandwidth:.2f} kg, jitter={plan.jitter_std_kg:.2f} kg")

# --- fit both families on the resampled data ---------------------------
x = [e.bodyweight_kg for e in resampled]
y = [e.total_kg for e in resampled]
logistic = fit(x, y, FitConfig(family=ModelFamily.LOGISTIC))
vb = fit(x, y, FitConfig(family=ModelFamily.VON_BERTALANFFY))
print("fit (table layout):")
print(" ", to_table_record(logistic.params, "M", "resampled", sig_figs=4))
print(" ", to_table_record(vb.params, "M", "resampled", sig_figs=4))

# --- score the original entries against the fitted curve ---------------
registry = ScoreRegistry()
registry.add_model_params(Sex.MALE, logistic.params)
scores = np.array([score for _, score in score_dataset(entries, "model", registry)])
dist = score_distribution(scores)
print(f"score: mean={dist.mean:.1f} std={dist.std:.1f} skew={dist.skewness:.2f}")

# --- low-bodyweight share, the motivation for the logistic family ------
inflection = logistic.params.x0
share = fraction_below(bodyweights, inflection)
print(f"diagnose: {share:.2%} of athletes sit below the fitted inflection "
      f"({inflection:.1f} kg)")

print(f"\nartifacts in {workdir}")
print("CLI equivalent:")
print(f"  liftcurve ingest --input {source.name} --output-dir out")
print("  liftcurve fit --input out/normalized.csv --output-dir out \\")
print("      --family logistic --sex M --resample 20000 --seed 42")
print("  liftcurve score --input out/normalized.csv --output-dir out \\")
print("      --system model --params out/fit_logistic_M_table.json")
print("  liftcurve diagnose --input out/scored.csv --output-dir out \\")
print("      --myriad --window 100 --below 53.4")
