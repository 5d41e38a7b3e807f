import dataclasses

import numpy as np
import pytest
from scipy import stats

from liftcurve.kde import KdeModel, fit_kde
from liftcurve.resample import (
    DEFAULT_WEIGHT_FLOOR,
    ResamplePlan,
    compute_weights,
    flatten_resample,
    resample,
    resolve_plan,
)

from synth import bimodal_bodyweights, chi_square_uniformity, make_entry


def uniform_entries(n, lo=50.0, hi=150.0, seed=1):
    rng = np.random.Generator(np.random.Philox(key=seed))
    return [make_entry(b, 400.0) for b in rng.uniform(lo, hi, n)]


class TestWeights:
    def test_uniform_data_gives_near_constant_weights(self):
        # analytic density of the generator is 1/(hi-lo) = 0.01 away from
        # the support edges, where the KDE is unbiased
        entries = uniform_entries(30_000)
        kde = fit_kde([e.bodyweight_kg for e in entries])
        weights = compute_weights(entries, kde)
        bw = np.array([e.bodyweight_kg for e in entries])
        interior = (bw > 50.0 + 4 * kde.bandwidth) & (bw < 150.0 - 4 * kde.bandwidth)
        inner = weights[interior]
        assert inner.max() / inner.min() < 1.1
        assert inner.mean() == pytest.approx(100.0, rel=0.05)

    def test_symmetric_two_point_model_gives_equal_weights(self):
        entries = [make_entry(69.0, 300.0), make_entry(71.0, 300.0)]
        kde = KdeModel(points=np.array([69.0, 71.0]), bandwidth=1.5)
        weights = compute_weights(entries, kde)
        assert weights[0] == weights[1]

    def test_floor_clamps_vanishing_density(self):
        # the lone kernel sits 10 bandwidths away: g ~ 7.7e-23 << floor
        entries = [make_entry(10.0, 300.0)]
        kde = KdeModel(points=np.array([0.0]), bandwidth=1.0)
        weights = compute_weights(entries, kde)
        assert weights[0] == pytest.approx(1 / DEFAULT_WEIGHT_FLOOR, rel=1e-12)

    def test_weights_positive_and_finite(self):
        entries = uniform_entries(500, seed=3)
        kde = fit_kde([e.bodyweight_kg for e in entries])
        weights = compute_weights(entries, kde)
        assert np.all(np.isfinite(weights)) and np.all(weights > 0)


class TestResample:
    def test_same_seed_bit_identical(self):
        entries = uniform_entries(400, seed=5)
        weights = np.ones(len(entries))
        plan = ResamplePlan(k=1000, seed=123, jitter_std_kg=1.0)
        first = resample(entries, weights, plan)
        second = resample(entries, weights, plan)
        assert first == second

    def test_different_seed_differs(self):
        entries = uniform_entries(400, seed=5)
        weights = np.ones(len(entries))
        a = resample(entries, weights, ResamplePlan(k=1000, seed=1, jitter_std_kg=0.0))
        b = resample(entries, weights, ResamplePlan(k=1000, seed=2, jitter_std_kg=0.0))
        assert a != b

    def test_single_entry_repeats(self):
        entry = make_entry(80.0, 500.0)
        out = resample([entry], [2.0], ResamplePlan(k=5, seed=0, jitter_std_kg=0.0))
        assert out == [entry] * 5

    def test_zero_jitter_outputs_are_input_members(self):
        entries = uniform_entries(50, seed=9)
        weights = np.linspace(1.0, 3.0, 50)
        out = resample(entries, weights, ResamplePlan(k=500, seed=4, jitter_std_kg=0.0))
        pool = set(entries)
        assert all(e in pool for e in out)

    def test_equal_weights_match_multinomial(self):
        entries = [make_entry(60.0 + i, 300.0 + i) for i in range(10)]
        plan = ResamplePlan(k=100_000, seed=77, jitter_std_kg=0.0)
        out = resample(entries, np.ones(10), plan)
        counts = np.zeros(10)
        index = {e: i for i, e in enumerate(entries)}
        for e in out:
            counts[index[e]] += 1
        result = stats.chisquare(counts)
        assert result.pvalue > 0.001

    def test_weight_bias_shows_in_frequencies(self):
        entries = [make_entry(60.0, 300.0), make_entry(90.0, 500.0)]
        out = resample(entries, [3.0, 1.0], ResamplePlan(k=20_000, seed=8, jitter_std_kg=0.0))
        heavy = sum(1 for e in out if e.bodyweight_kg == 60.0)
        assert heavy / len(out) == pytest.approx(0.75, abs=0.02)

    def test_jitter_perturbs_bodyweight_only(self):
        entries = [make_entry(80.0, 500.0)]
        plan = ResamplePlan(k=4000, seed=21, jitter_std_kg=2.5)
        out = resample(entries, [1.0], plan)
        bodyweights = np.array([e.bodyweight_kg for e in out])
        assert np.all(bodyweights > 0)
        assert not np.any(bodyweights == 80.0)
        assert np.std(bodyweights) == pytest.approx(2.5, rel=0.1)
        assert {e.total_kg for e in out} == {500.0}
        assert {e.best_squat_kg for e in out} == {entries[0].best_squat_kg}

    def test_jitter_redraws_until_positive(self):
        # bodyweight 1 kg with 5 kg jitter forces many redraws
        entries = [make_entry(1.0, 100.0)]
        plan = ResamplePlan(k=2000, seed=3, jitter_std_kg=5.0)
        out = resample(entries, [1.0], plan)
        assert all(e.bodyweight_kg > 0 for e in out)

    def test_jitter_redraws_what_would_be_written_as_zero(self):
        # a 0.02 kg bodyweight with 0.01 kg jitter puts about 4 % of first draws in (0, 0.005) kg
        entries = [make_entry(0.02, 100.0)]
        out = resample(entries, [1.0], ResamplePlan(k=2000, seed=5, jitter_std_kg=0.01))
        bodyweights = [e.bodyweight_kg for e in out]
        assert min(bodyweights) >= 0.005
        assert "0.00" not in {f"{bw:.2f}" for bw in bodyweights}

    def test_validation_errors(self):
        entries = uniform_entries(10, seed=2)
        with pytest.raises(ValueError):
            ResamplePlan(k=0)
        with pytest.raises(ValueError):
            resample([], [], ResamplePlan(k=5, jitter_std_kg=0.0))
        with pytest.raises(ValueError):
            resample(entries, [1.0] * 9, ResamplePlan(k=5, jitter_std_kg=0.0))
        with pytest.raises(ValueError):
            resample(entries, [-1.0] * 10, ResamplePlan(k=5, jitter_std_kg=0.0))
        with pytest.raises(ValueError):
            # unresolved jitter must be rejected, not guessed
            resample(entries, [1.0] * 10, ResamplePlan(k=5))


class TestFlatten:
    def test_plan_resolution_uses_bandwidth(self):
        kde = KdeModel(points=np.array([70.0, 90.0]), bandwidth=2.25)
        resolved = resolve_plan(ResamplePlan(k=10), kde)
        assert resolved.jitter_std_kg == 2.25
        explicit = resolve_plan(ResamplePlan(k=10, jitter_std_kg=0.5), kde)
        assert explicit.jitter_std_kg == 0.5

    def test_bimodal_flattening_small(self):
        bw = bimodal_bodyweights(n=8000, seed=17)
        entries = [make_entry(b, 400.0) for b in bw]
        kde = fit_kde(bw)
        out, resolved = flatten_resample(entries, kde, ResamplePlan(k=8000, seed=31))
        out_bw = np.array([e.bodyweight_kg for e in out])
        assert chi_square_uniformity(out_bw) < 0.25 * chi_square_uniformity(bw)
        assert resolved.jitter_std_kg == kde.bandwidth

    def test_flatten_is_deterministic(self):
        bw = bimodal_bodyweights(n=2000, seed=23)
        entries = [make_entry(b, 400.0) for b in bw]
        kde = fit_kde(bw)
        plan = ResamplePlan(k=3000, seed=6)
        first, _ = flatten_resample(entries, kde, plan)
        second, _ = flatten_resample(entries, kde, plan)
        assert first == second


def test_plan_is_frozen():
    plan = ResamplePlan(k=10, seed=1, jitter_std_kg=0.0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        plan.k = 20
