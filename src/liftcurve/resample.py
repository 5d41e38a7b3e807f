"""Inverse-density resampling to flatten the bodyweight distribution.

Entries are drawn with replacement with probability proportional to
``w_i = 1 / g(x_i)`` where ``g`` is the KDE of the bodyweight sample, so
over-represented bodyweights are down-weighted and the resampled
distribution is approximately uniform over the data's support. Drawn
bodyweights can additionally be blurred with Gaussian jitter (totals are
never perturbed).

Draws use cumulative-weight inversion driven by a Philox counter-based
generator, so output is a pure, bit-reproducible function of
``(entries, weights, plan)``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .ingest import LifterEntry
from .kde import KdeModel, density_batch

# Caps at 1 / DEFAULT_WEIGHT_FLOOR the weight of outliers of effectively zero density.
DEFAULT_WEIGHT_FLOOR = 1e-8
# The smallest jittered bodyweight kept: below it, 2-decimal rounding gives 0.00 kg.
MIN_JITTERED_KG = 0.005


@dataclass(frozen=True)
class ResamplePlan:
    """Parameters of one resampling run.

    ``jitter_std_kg=None`` means "use the KDE bandwidth"; it is resolved
    by :func:`resolve_plan` (or :func:`flatten_resample`) before drawing.
    """

    k: int = 100_000
    seed: int = 0
    jitter_std_kg: float | None = None

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError(f"target sample count must be >= 1, got {self.k}")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in an unsigned 64-bit integer")
        if self.jitter_std_kg is not None and not self.jitter_std_kg >= 0:
            raise ValueError(f"jitter_std_kg must be >= 0, got {self.jitter_std_kg}")


def resolve_plan(plan: ResamplePlan, kde: KdeModel) -> ResamplePlan:
    """Fill an unset jitter with the KDE bandwidth (the data's own smoothing scale)."""
    if plan.jitter_std_kg is not None:
        return plan
    return replace(plan, jitter_std_kg=kde.bandwidth)


def compute_weights(entries, kde: KdeModel) -> np.ndarray:
    """Inverse-density weights ``1 / max(g(x_i), DEFAULT_WEIGHT_FLOOR)`` for each entry."""
    bodyweights = np.asarray([e.bodyweight_kg for e in entries], dtype=float)
    dens = density_batch(kde, bodyweights)
    if not np.all(np.isfinite(dens)):
        raise RuntimeError("KDE produced non-finite densities for finite inputs")
    weights = 1.0 / np.maximum(dens, DEFAULT_WEIGHT_FLOOR)
    if not np.all(np.isfinite(weights) & (weights > 0)):
        raise RuntimeError("non-finite or non-positive resampling weight")
    return weights


def resample(entries, weights, plan: ResamplePlan) -> list[LifterEntry]:
    """Draw ``plan.k`` entries with replacement, probability proportional to weight.

    With positive jitter each drawn bodyweight is perturbed by independent
    Gaussian noise; a perturbation landing below 0.005 kg, which would be
    written as ``0.00`` kg or less, is redrawn.
    Identical inputs give bit-identical output.
    """
    entries = list(entries)
    if not entries:
        raise ValueError("cannot resample from an empty entry list")
    w = np.asarray(weights, dtype=float)
    if w.shape != (len(entries),):
        raise ValueError(f"got {len(entries)} entries but {w.size} weights")
    if not np.all(np.isfinite(w) & (w > 0)):
        raise ValueError("weights must be finite and positive")
    if plan.jitter_std_kg is None:
        raise ValueError("plan.jitter_std_kg is unresolved; use resolve_plan() or set it explicitly")

    rng = np.random.Generator(np.random.Philox(key=plan.seed))
    cumulative = np.cumsum(w)
    u = rng.random(plan.k) * cumulative[-1]
    idx = np.searchsorted(cumulative, u, side="right")
    np.clip(idx, 0, len(entries) - 1, out=idx)

    if plan.jitter_std_kg == 0:
        return [entries[i] for i in idx]

    base = np.asarray([entries[i].bodyweight_kg for i in idx], dtype=float)
    jittered = base + rng.normal(0.0, plan.jitter_std_kg, plan.k)
    bad = jittered < MIN_JITTERED_KG
    while bad.any():
        jittered[bad] = base[bad] + rng.normal(0.0, plan.jitter_std_kg, int(bad.sum()))
        bad = jittered < MIN_JITTERED_KG
    return [entries[i]._replace(bodyweight_kg=bw) for i, bw in zip(idx.tolist(), jittered.tolist())]


def flatten_resample(entries, kde: KdeModel, plan: ResamplePlan) -> tuple[list[LifterEntry], ResamplePlan]:
    """Full inverse-density pipeline: weights, jitter resolution, then draws.

    Returns the resampled entries and the resolved plan actually used
    (handy for sidecar metadata).
    """
    resolved = resolve_plan(plan, kde)
    weights = compute_weights(entries, kde)
    return resample(entries, weights, resolved), resolved
