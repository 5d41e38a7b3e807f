import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liftcurve.errors import ConfigError
from liftcurve.ingest import Sex
from liftcurve.models import GrowthParams, ModelFamily, evaluate
from liftcurve.scoring import (
    GlCoefficients,
    ScoreRegistry,
    WilksCoefficients,
    default_registry,
    gl_score,
    model_score,
    read_scored_csv,
    score_dataset,
    wilks_score,
    write_scored_csv,
)

from synth import make_entry

# spot values frozen from a 50-digit mpmath evaluation of the published
# coefficient sets shipped in data/coefficients.json
WILKS_MALE_100_500 = 304.29453595332545
WILKS_FEMALE_60_300 = 334.46606258791513
GL_MALE_93_700 = 91.57479953944506
GL_FEMALE_63_400 = 87.51326620344923

FLAT_WILKS = WilksCoefficients(a=500.0, b=0.0, c=0.0, d=0.0, e=0.0, f=0.0, C=500.0)
LOGISTIC_MALE_RESAMPLED = GrowthParams(ModelFamily.LOGISTIC, 722.3, 0.05447, 53.40)


class TestWilks:
    def test_constant_denominator(self):
        assert wilks_score(93.0, 500.0, FLAT_WILKS) == 500.0
        assert wilks_score(45.0, 500.0, FLAT_WILKS) == 500.0

    def test_numerator_constant_rescales(self):
        wilks2 = WilksCoefficients(a=500.0, b=0.0, c=0.0, d=0.0, e=0.0, f=0.0, C=600.0)
        assert wilks_score(93.0, 500.0, wilks2) == 600.0

    def test_published_male_spot_value(self):
        registry = default_registry()
        score = wilks_score(100.0, 500.0, registry.resolve("wilks", Sex.MALE))
        assert abs(score - WILKS_MALE_100_500) < 0.01
        assert score == pytest.approx(WILKS_MALE_100_500, rel=1e-10)

    def test_published_female_spot_value(self):
        registry = default_registry()
        score = wilks_score(60.0, 300.0, registry.resolve("wilks", Sex.FEMALE))
        assert abs(score - WILKS_FEMALE_60_300) < 0.01

    def test_domain_guard(self):
        with pytest.raises(ValueError):
            wilks_score(25.0, 500.0, FLAT_WILKS)
        with pytest.raises(ValueError):
            wilks_score(260.0, 500.0, FLAT_WILKS)

    def test_nonpositive_polynomial_rejected_at_load(self):
        with pytest.raises(ConfigError):
            WilksCoefficients(a=-1.0, b=0.0, c=0.0, d=0.0, e=0.0, f=0.0, C=500.0)


class TestGl:
    def test_definitional_unity(self):
        coeffs = GlCoefficients(A=1200.0, B=1000.0, C=0.01)
        x = 93.0
        denominator = 1200.0 - 1000.0 * math.exp(-0.01 * x)
        assert gl_score(x, denominator / 100.0, coeffs) == pytest.approx(1.0, rel=1e-12)

    def test_flat_model_when_B_zero(self):
        coeffs = GlCoefficients(A=800.0, B=0.0, C=0.01)
        for x in (40.0, 93.0, 180.0):
            assert gl_score(x, 400.0, coeffs) == pytest.approx(100.0 * 400.0 / 800.0, rel=1e-12)

    def test_published_spot_values(self):
        registry = default_registry()
        male = gl_score(93.0, 700.0, registry.resolve("ipf_gl", Sex.MALE))
        female = gl_score(63.0, 400.0, registry.resolve("ipf_gl", Sex.FEMALE))
        assert abs(male - GL_MALE_93_700) < 0.01
        assert abs(female - GL_FEMALE_63_400) < 0.01

    def test_domain_guard(self):
        coeffs = GlCoefficients(A=1200.0, B=1000.0, C=0.01)
        with pytest.raises(ValueError):
            gl_score(29.34, 300.0, coeffs)
        with pytest.raises(ValueError):
            gl_score(260.0, 900.0, coeffs)

    def test_invalid_coefficients_rejected(self):
        with pytest.raises(ConfigError):
            GlCoefficients(A=-5.0, B=10.0, C=0.01)
        with pytest.raises(ConfigError):
            # denominator non-positive at 30 kg
            GlCoefficients(A=100.0, B=1000.0, C=0.001)


class TestModelScore:
    def test_self_score_is_scale(self):
        x = 93.0
        y = evaluate(LOGISTIC_MALE_RESAMPLED, x)
        assert model_score(x, y, LOGISTIC_MALE_RESAMPLED) == 100.0
        assert model_score(x, y, LOGISTIC_MALE_RESAMPLED, scale=500.0) == 500.0

    def test_linear_in_total(self):
        base = model_score(93.0, 300.0, LOGISTIC_MALE_RESAMPLED)
        assert model_score(93.0, 600.0, LOGISTIC_MALE_RESAMPLED) == pytest.approx(
            2.0 * base, rel=1e-12
        )

    def test_table3_spot_value(self):
        # 610.1 kg at 93 kg sits a hair above the curve, so just over 100
        score = model_score(93.0, 610.1, LOGISTIC_MALE_RESAMPLED)
        assert score == pytest.approx(100.0, abs=0.1)

    def test_rejects_nonpositive_expectation(self):
        vb = GrowthParams(ModelFamily.VON_BERTALANFFY, 700.0, 0.02, 25.0)
        with pytest.raises(ValueError):
            model_score(20.0, 500.0, vb)  # below the VB zero crossing
        with pytest.raises(ValueError):
            model_score(-5.0, 500.0, LOGISTIC_MALE_RESAMPLED)


class TestProperties:
    @settings(max_examples=60)
    @given(
        # published female polynomials are positive only up to ~208 kg
        st.floats(35.0, 200.0),
        st.floats(50.0, 1000.0),
        st.floats(10.0, 300.0),
    )
    def test_scores_increase_in_total(self, x, y, dy):
        registry = default_registry()
        for system, sex in (("wilks", Sex.MALE), ("wilks2", Sex.FEMALE), ("ipf_gl", Sex.MALE)):
            coeffs = registry.resolve(system, sex)
            fn = wilks_score if system.startswith("wilks") else gl_score
            assert fn(x, y + dy, coeffs) > fn(x, y, coeffs)
        assert model_score(x, y + dy, LOGISTIC_MALE_RESAMPLED) > model_score(
            x, y, LOGISTIC_MALE_RESAMPLED
        )

    @settings(max_examples=60)
    @given(st.floats(54.0, 200.0), st.floats(0.5, 30.0))
    def test_logistic_score_decreases_beyond_midpoint(self, x, dx):
        y = 500.0
        assert model_score(x + dx, y, LOGISTIC_MALE_RESAMPLED) < model_score(
            x, y, LOGISTIC_MALE_RESAMPLED
        )

    def test_ranking_invariant_under_total_rescaling(self):
        rng = np.random.Generator(np.random.Philox(key=15))
        entries = [
            make_entry(bw, total, sex=Sex.MALE)
            for bw, total in zip(rng.uniform(45, 200, 200), rng.uniform(100, 900, 200))
        ]
        registry = default_registry()
        for system in ("wilks", "wilks2", "ipf_gl"):
            base = [s for _, s in score_dataset(entries, system, registry)]
            scaled_entries = [
                make_entry(e.bodyweight_kg, e.total_kg * 3.7, sex=e.sex) for e in entries
            ]
            scaled = [s for _, s in score_dataset(scaled_entries, system, registry)]
            assert np.array_equal(np.argsort(base), np.argsort(scaled))

    @settings(max_examples=80)
    @given(
        st.floats(400.0, 1000.0),
        st.floats(0.01, 0.1),
        st.floats(0.0, 25.0),
        st.floats(31.0, 249.0),
    )
    def test_gl_equals_vb_model_score(self, L, k, x0, x):
        # (A, B, C) = (L, L*exp(k*x0), k) makes the GL denominator the VB curve
        vb = GrowthParams(ModelFamily.VON_BERTALANFFY, L, k, x0)
        coeffs = GlCoefficients(A=L, B=L * math.exp(k * x0), C=k)
        y = 500.0
        assert gl_score(x, y, coeffs) == pytest.approx(model_score(x, y, vb), rel=1e-10)


class TestRegistry:
    def test_missing_pair_is_config_error(self):
        registry = ScoreRegistry.from_records([])
        with pytest.raises(ConfigError, match="wilks"):
            registry.resolve("wilks", Sex.MALE)

    def test_unknown_system_rejected_at_load(self):
        with pytest.raises(ConfigError):
            ScoreRegistry.from_records([{"system": "dots", "sex": "M"}])

    def test_missing_coefficient_named(self):
        record = {"system": "ipf_gl", "sex": "M", "A": 1200.0, "B": 1000.0}
        with pytest.raises(ConfigError, match="C"):
            ScoreRegistry.from_records([record])

    def test_model_params_registration(self):
        registry = ScoreRegistry.from_records([])
        registry.add_model_params(Sex.MALE, LOGISTIC_MALE_RESAMPLED)
        assert registry.resolve("model", Sex.MALE) is LOGISTIC_MALE_RESAMPLED

    def test_config_file_round_trip(self, tmp_path):
        config = tmp_path / "coeffs.json"
        config.write_text(
            json.dumps(
                [
                    {"system": "ipf_gl", "sex": "M", "A": 1200.0, "B": 1000.0, "C": 0.01},
                    {
                        "system": "model",
                        "sex": "F",
                        "family": "logistic",
                        "L": 630.8,
                        "k": 0.032019,
                        "x0": 25.87,
                    },
                ]
            )
        )
        registry = ScoreRegistry.from_config(config)
        assert registry.resolve("ipf_gl", Sex.MALE).A == 1200.0
        assert registry.resolve("model", Sex.FEMALE).x0 == 25.87

    def test_invalid_json_is_config_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ConfigError):
            ScoreRegistry.from_config(bad)


class TestScoreDataset:
    def test_empty_in_empty_out(self):
        assert score_dataset([], "wilks", default_registry()) == []

    def test_singleton_matches_scalar(self):
        registry = default_registry()
        entry = make_entry(93.0, 700.0, sex=Sex.MALE)
        [(out_entry, score)] = score_dataset([entry], "ipf_gl", registry)
        assert out_entry is entry
        assert score == gl_score(93.0, 700.0, registry.resolve("ipf_gl", Sex.MALE))

    def test_batch_equals_scalar_loop(self):
        rng = np.random.Generator(np.random.Philox(key=29))
        registry = default_registry()
        entries = [
            make_entry(bw, total, sex=sex)
            for bw, total, sex in zip(
                rng.uniform(40, 180, 1000),
                rng.uniform(100, 900, 1000),
                [Sex.MALE if u < 0.5 else Sex.FEMALE for u in rng.random(1000)],
            )
        ]
        batch = score_dataset(entries, "wilks2", registry)
        for entry, score in batch:
            expected = wilks_score(
                entry.bodyweight_kg, entry.total_kg, registry.resolve("wilks2", entry.sex)
            )
            assert score == expected

    def test_unresolvable_sex_fails_before_scoring(self):
        registry = ScoreRegistry.from_records(
            [{"system": "ipf_gl", "sex": "M", "A": 1200.0, "B": 1000.0, "C": 0.01}]
        )
        entries = [make_entry(80.0, 500.0, sex=Sex.MALE), make_entry(60.0, 300.0, sex=Sex.FEMALE)]
        with pytest.raises(ConfigError, match="F"):
            score_dataset(entries, "ipf_gl", registry)


def test_scored_csv_round_trip(tmp_path):
    registry = default_registry()
    entries = [make_entry(93.0, 700.0), make_entry(74.0, 560.0), make_entry(120.0, 800.0)]
    scored = score_dataset(entries, "ipf_gl", registry)
    path = tmp_path / "scored.csv"
    write_scored_csv(scored, path)
    back = read_scored_csv(path)
    assert [e for e, _ in back] == entries
    for (_, original), (_, reread) in zip(scored, back):
        assert reread == pytest.approx(original, abs=5e-4)  # 3-decimal rounding
