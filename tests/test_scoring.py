import csv
import json
import math
import re
import tempfile
from collections import Counter
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import row_reference
from liftcurve import ingest
from liftcurve.errors import ConfigError, SchemaError
from liftcurve.ingest import LifterEntry, Sex, write_normalized_csv
from liftcurve.models import GrowthParams, ModelFamily, evaluate, from_table_record, to_table_record
from liftcurve.scoring import (
    SYSTEMS,
    GlCoefficients,
    ScoreRegistry,
    WilksCoefficients,
    default_registry,
    drop_unscorable,
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

    @pytest.mark.parametrize(
        "record, field",
        [
            ({"system": "wilks", "sex": "M", "a": "nan", "b": 0.0, "c": 0.0, "d": 0.0, "e": 0.0, "f": 0.0,
              "C": 500.0}, "a"),
            ({"system": "wilks", "sex": "M", "a": 500.0, "b": 0.0, "c": 0.0, "d": 0.0, "e": 0.0, "f": 0.0,
              "C": "inf"}, "C"),
            ({"system": "wilks2", "sex": "F", "a": 500.0, "b": 0.0, "c": 0.0, "d": 0.0, "e": 0.0, "f": "inf",
              "C": 600.0}, "f"),
            ({"system": "ipf_gl", "sex": "M", "A": "inf", "B": 1000.0, "C": 0.01}, "A"),
        ],
        ids=["wilks-a-nan", "wilks-C-inf", "wilks-f-inf", "gl-A-inf"],
    )
    def test_non_finite_coefficient_rejected_at_load(self, record, field):
        where = f"{record['system']}/{record['sex']}"
        with pytest.raises(ConfigError, match=f"^{where}: .*coefficient '{field}' must be finite"):
            ScoreRegistry.from_records([record])

    @pytest.mark.parametrize(
        "record, message",
        [
            ({"system": "ipf_gl", "sex": "F", "A": -1.0, "B": 1000.0, "C": 0.01},
             "ipf_gl/F: GL coefficients out of range"),
            ({"system": "wilks", "sex": "F", "a": 500.0, "b": -5.0, "c": 0.0, "d": 0.0, "e": 0.0, "f": 0.0,
              "C": 500.0}, "wilks/F: Wilks denominator polynomial is not positive"),
        ],
        ids=["gl-negative-A", "wilks-negative-b"],
    )
    def test_out_of_range_record_named(self, record, message):
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}"):
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
        assert score == row_reference.gl_score(93.0, 700.0, registry.resolve("ipf_gl", Sex.MALE))

    def test_batch_equals_scalar_loop(self):
        rng = np.random.Generator(np.random.Philox(key=29))
        registry = model_registry()
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
            expected = row_reference.wilks_score(
                entry.bodyweight_kg, entry.total_kg, registry.resolve("wilks2", entry.sex)
            )
            assert score == expected
        # np.exp in place of math.exp changes about 3 % of these GL scores in the last bit
        for system in ("wilks", "ipf_gl", "model"):
            batch = score_dataset(entries, system, registry)
            want = [row_reference.score_entry(e, system, registry) for e in entries]
            assert [score for _, score in batch] == want

    def test_unresolvable_sex_fails_before_scoring(self):
        registry = ScoreRegistry.from_records(
            [{"system": "ipf_gl", "sex": "M", "A": 1200.0, "B": 1000.0, "C": 0.01}]
        )
        entries = [make_entry(80.0, 500.0, sex=Sex.MALE), make_entry(60.0, 300.0, sex=Sex.FEMALE)]
        with pytest.raises(ConfigError, match="F"):
            score_dataset(entries, "ipf_gl", registry)


    def test_female_first_interleaved_rows_equal_row_reference(self):
        # F, M, F, M, ...: the first row's sex comes first among the groups
        rng = np.random.Generator(np.random.Philox(key=31))
        registry = model_registry()
        rows = np.round(rng.uniform([20.0, 100.0], [260.0, 900.0], size=(400, 2)), 2)
        entries = [make_entry(bw, total, sex=(Sex.FEMALE, Sex.MALE)[i % 2]) for i, (bw, total) in enumerate(rows)]
        for system in SYSTEMS:
            errors = [raised_by(row_reference.score_entry, e, system, registry) for e in entries]
            kept, counts = drop_unscorable(entries, system, registry)
            assert kept == [e for e, error in zip(entries, errors) if error is None]
            reasons = [reason_named_by(error) for error in errors if error is not None]
            assert list(counts.items()) == list(Counter(reasons).items())
            # women's Wilks polynomials are negative above ~208 kg; GL's denominator is positive;
            # the female model is zero at 40 kg and the male one positive for every x > 0
            assert len(counts) == (2 if system in ("wilks", "wilks2") else 1)
            scored = score_dataset(kept, system, registry)
            assert [e for e, _ in scored] == kept
            assert repr([score for _, score in scored]) == repr(
                [row_reference.score_entry(e, system, registry) for e in kept]
            )

    @pytest.mark.parametrize("first", list(Sex), ids=lambda sex: sex.value)
    def test_with_no_sex_registered_the_first_sex_is_named(self, first):
        other = Sex.MALE if first is Sex.FEMALE else Sex.FEMALE
        entries = [make_entry(80.0, 500.0, sex=first), make_entry(60.0, 300.0, sex=other)]
        registry = ScoreRegistry.from_records([])
        for call in (score_dataset, drop_unscorable):
            with pytest.raises(ConfigError, match=f"sex='{first.value}'"):
                call(entries, "ipf_gl", registry)


def model_registry() -> ScoreRegistry:
    """The packaged registry plus a model per sex: a logistic (positive for
    every x > 0) and a Von Bertalanffy that is zero at 40 kg."""
    registry = default_registry()
    registry.add_model_params(Sex.MALE, LOGISTIC_MALE_RESAMPLED)
    registry.add_model_params(Sex.FEMALE, GrowthParams(ModelFamily.VON_BERTALANFFY, 600.0, 0.03, 40.0))
    return registry


def raised_by(fn, *args) -> BaseException | None:
    try:
        fn(*args)
    except (ValueError, ConfigError) as exc:
        return exc
    return None


def reason_named_by(error: BaseException) -> str:
    """The drop reason that an error of the per-row reference names."""
    message = str(error)
    if message.startswith("bodyweight"):
        return "bodyweight_out_of_domain"
    if message.startswith("total"):
        return "non_positive_total"
    return "non_positive_denominator"


def first_error(entries, system, registry) -> BaseException | None:
    """What the per-row reference raises for the first row it cannot score."""
    errors = (raised_by(row_reference.score_entry, e, system, registry) for e in entries)
    return next((exc for exc in errors if exc is not None), None)


SCORERS = {
    "wilks": (wilks_score, row_reference.wilks_score),
    "wilks2": (wilks_score, row_reference.wilks_score),
    "ipf_gl": (gl_score, row_reference.gl_score),
    "model": (model_score, row_reference.model_score),
}

# ints, NaN, infinities, zero, negatives and both domain edges, as floats and as np.float64
kg_values_and_edges = (
    st.floats(-1e4, 1e4)
    | st.integers(-10, 300)
    | st.sampled_from([0, -3, 30, 250, 0.0, -3.0, 25.0, 29.99, 30.0, 250.0, 250.01, 230.0])
    | st.sampled_from([math.nan, math.inf, -math.inf])
)
kg_inputs = kg_values_and_edges | kg_values_and_edges.map(np.float64)


entry_rows = st.lists(
    st.builds(
        make_entry,
        st.floats(20.0, 260.0) | st.sampled_from([30.0, 40.0, 208.5, 250.0]),
        st.floats(1.0, 1500.0),
        st.sampled_from(Sex),
    ),
    max_size=40,
)


class TestVectorisedScoring:
    """score_dataset, drop_unscorable and the per-row scorers all run one array
    kernel; they must match the per-row reference bit for bit, error for error."""

    @settings(max_examples=60, deadline=None)
    @given(entry_rows)
    def test_equals_per_row_score_entry(self, entries):
        registry = model_registry()
        for system in SYSTEMS:
            kept, _ = drop_unscorable(entries, system, registry)
            scored = score_dataset(kept, system, registry)
            assert [e for e, _ in scored] == kept
            assert [score for _, score in scored] == [row_reference.score_entry(e, system, registry) for e in kept]

    @pytest.mark.parametrize("x, y", [("93", 700.0), (b"93", 700.0), (None, 700.0), (93.0, "700"), (93.0, None)])
    def test_per_row_scorers_reject_non_numbers(self, x, y):
        registry = model_registry()
        for scorer, reference, system in (
            (wilks_score, row_reference.wilks_score, "wilks"),
            (gl_score, row_reference.gl_score, "ipf_gl"),
            (model_score, row_reference.model_score, "model"),
        ):
            coeffs = registry.resolve(system, Sex.MALE)
            with pytest.raises(TypeError) as want:
                reference(x, y, coeffs)
            with pytest.raises(TypeError, match=re.escape(str(want.value))):
                scorer(x, y, coeffs)

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.tuples(
                # below and at the female model's 40 kg zero, both Wilks domain edges, NaN
                st.floats(-10.0, 260.0) | st.sampled_from([0.0, 30.0, 39.99, 40.0, 208.5, 250.0, math.nan]),
                st.floats(1.0, 1500.0) | st.sampled_from([0.0, -5.0, math.nan, math.inf]),
                st.sampled_from(Sex),
            ),
            max_size=40,
        )
    )
    def test_drop_unscorable_drops_exactly_the_rows_score_entry_rejects(self, rows):
        registry = model_registry()
        entries = [make_entry(93.0, 700.0, sex)._replace(bodyweight_kg=x, total_kg=y) for x, y, sex in rows]
        for system in SYSTEMS:
            errors = [raised_by(row_reference.score_entry, e, system, registry) for e in entries]
            kept, counts = drop_unscorable(entries, system, registry)
            assert kept == [e for e, error in zip(entries, errors) if error is None]
            reasons = [reason_named_by(error) for error in errors if error is not None]
            assert list(counts.items()) == list(Counter(reasons).items())

    @pytest.mark.parametrize(
        "system, rows",
        [
            ("wilks", [(80.0, 500.0, Sex.MALE), (25.0, 300.0, Sex.FEMALE), (90.0, -1.0, Sex.MALE)]),
            ("wilks", [(60.0, 300.0, Sex.FEMALE), (230.0, 400.0, Sex.FEMALE), (20.0, 400.0, Sex.MALE)]),
            ("wilks2", [(60.0, 300.0, Sex.FEMALE), (230.0, -5.0, Sex.FEMALE), (230.0, 400.0, Sex.FEMALE)]),
            ("ipf_gl", [(80.0, 500.0, Sex.MALE), (70.0, 0.0, Sex.MALE), (251.0, 300.0, Sex.FEMALE)]),
            ("ipf_gl", [(80.0, 500.0, Sex.MALE), (float("nan"), 400.0, Sex.FEMALE)]),
            ("model", [(80.0, 500.0, Sex.MALE), (float("nan"), 400.0, Sex.MALE)]),
            ("model", [(90.0, 500.0, Sex.MALE), (50.0, 300.0, Sex.FEMALE), (40.0, 300.0, Sex.FEMALE)]),
            ("model", [(90.0, 500.0, Sex.MALE), (35.0, 300.0, Sex.FEMALE), (-3.0, 300.0, Sex.MALE)]),
            ("model", [(90.0, 500.0, Sex.MALE), (0.0, 300.0, Sex.MALE)]),
            ("model", [(90.0, float("inf"), Sex.MALE), (0.0, 300.0, Sex.MALE)]),
        ],
        ids=[
            "wilks-domain", "wilks-denominator", "wilks2-total-and-denominator", "gl-total", "gl-nan-bodyweight",
            "model-nan-bodyweight", "model-at-zero", "model-below-zero", "model-zero-bodyweight",
            "model-infinite-total",
        ],
    )
    def test_raises_what_the_first_bad_row_raises(self, system, rows):
        registry = model_registry()
        entries = [make_entry(bw, total, sex=sex) for bw, total, sex in rows]
        want = first_error(entries, system, registry)
        got = raised_by(score_dataset, entries, system, registry)
        assert type(got) is type(want)
        assert str(got) == str(want)

    @pytest.mark.parametrize("system", SYSTEMS)
    def test_a_bad_total_is_dropped_as_a_non_positive_total(self, system):
        # the women's Wilks polynomials are negative at 230 kg too, but the total is checked first
        entries = [make_entry(60.0, 300.0, sex=Sex.FEMALE), make_entry(230.0, -5.0, sex=Sex.FEMALE)]
        registry = model_registry()
        kept, counts = drop_unscorable(entries, system, registry)
        assert kept == entries[:1]
        assert counts == {"non_positive_total": 1}
        with pytest.raises(ValueError, match=re.escape("total must be positive and finite, got -5.0")):
            SCORERS[system][0](230.0, -5.0, registry.resolve(system, Sex.FEMALE))

    @settings(max_examples=300, deadline=None)
    @given(kg_inputs, kg_inputs, st.sampled_from(Sex))
    def test_per_row_scorers_equal_row_reference(self, x, y, sex):
        registry = model_registry()
        for system in SYSTEMS:
            coeffs = registry.resolve(system, sex)
            scorer, reference = SCORERS[system]
            want = raised_by(reference, x, y, coeffs)
            if want is None:
                got = scorer(x, y, coeffs)
                assert type(got) is float
                assert repr(got) == repr(float(reference(x, y, coeffs)))
            else:
                got = raised_by(scorer, x, y, coeffs)
                assert type(got) is type(want)
                assert str(got) == str(want)

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.tuples(kg_inputs, kg_inputs, st.sampled_from(Sex)), max_size=6))
    def test_score_dataset_equals_row_reference(self, rows):
        registry = model_registry()
        entries = [make_entry(93.0, 700.0, sex)._replace(bodyweight_kg=x, total_kg=y) for x, y, sex in rows]
        for system in SYSTEMS:
            want = first_error(entries, system, registry)
            if want is None:
                got = [score for _, score in score_dataset(entries, system, registry)]
                assert repr(got) == repr([float(row_reference.score_entry(e, system, registry)) for e in entries])
            else:
                got = raised_by(score_dataset, entries, system, registry)
                assert type(got) is type(want)
                assert str(got) == str(want)

    @pytest.mark.parametrize("system", SYSTEMS)
    def test_float32_inputs_score_as_float64(self, system):
        # NumPy 2 promotion would keep a float32 input, and so the Wilks polynomial and GL exponent, in float32
        registry = model_registry()
        [(_, want)] = score_dataset([make_entry(93.0, 700.0, sex=Sex.FEMALE)], system, registry)
        scorer = SCORERS[system][0]
        assert scorer(np.float32(93.0), np.float32(700.0), registry.resolve(system, Sex.FEMALE)) == want


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


def read_csv_rows(path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


text_cells = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00"), max_size=8)
kg_values = st.floats(0.0, 2000.0)
scored_pairs = st.lists(
    st.tuples(
        st.builds(
            LifterEntry,
            sex=st.sampled_from(Sex),
            bodyweight_kg=kg_values,
            best_squat_kg=kg_values,
            best_bench_kg=kg_values,
            best_deadlift_kg=kg_values,
            total_kg=kg_values,
            equipment=text_cells,
            division=text_cells,
            event=text_cells,
        ),
        st.floats(),
    ),
    max_size=20,
)


any_floats = st.floats(allow_subnormal=True) | st.sampled_from([-0.0, 0.005, 2.675, 1e300])
any_entries = st.builds(
    LifterEntry,
    sex=st.sampled_from(Sex),
    bodyweight_kg=any_floats,
    best_squat_kg=any_floats,
    best_bench_kg=any_floats,
    best_deadlift_kg=any_floats,
    total_kg=any_floats,
    equipment=text_cells | st.sampled_from(['a,b', 'say "x"', "two\nlines", "cr\r", " lead", ""]),
    division=text_cells,
    event=text_cells,
)


class TestScoredCsvFormat:
    """A scored CSV row is the normalized row of its entry plus a Score cell."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(any_entries, any_floats), max_size=20))
    def test_bytes_equal_per_row_csv_writer(self, scored):
        with tempfile.TemporaryDirectory() as tmp:
            got, want = Path(tmp) / "got.csv", Path(tmp) / "want.csv"
            entries = [entry for entry, _ in scored]
            write_normalized_csv(iter(entries), got)
            row_reference.write_normalized_csv(entries, want)
            assert got.read_bytes() == want.read_bytes()
            write_scored_csv(iter(scored), got)
            row_reference.write_scored_csv(scored, want)
            assert got.read_bytes() == want.read_bytes()

    @settings(max_examples=100, deadline=None)
    @given(scored_pairs)
    def test_scored_row_is_normalized_row_plus_score(self, scored):
        with tempfile.TemporaryDirectory() as tmp:
            normalized_path, scored_path = Path(tmp) / "normalized.csv", Path(tmp) / "scored.csv"
            write_normalized_csv([entry for entry, _ in scored], normalized_path)
            write_scored_csv(scored, scored_path)
            normalized = read_csv_rows(normalized_path)
            want = [normalized[0] + ["Score"]]
            want += [row + [f"{score:.3f}"] for row, (_, score) in zip(normalized[1:], scored)]
            assert read_csv_rows(scored_path) == want

    @pytest.mark.parametrize(
        "column, cell, message",
        [
            ("BodyweightKg", "oops", "invalid entry row (bodyweight)"),
            ("Sex", "X", "invalid entry row (sex)"),
            ("Score", "oops", "malformed Score cell"),
            ("Score", "", "malformed Score cell"),
        ],
    )
    def test_bad_row_raises_naming_its_line(self, tmp_path, column, cell, message):
        path = tmp_path / "scored.csv"
        entries = [make_entry(93.0, 700.0), make_entry(74.0, 560.0), make_entry(120.0, 800.0)]
        write_scored_csv(score_dataset(entries, "ipf_gl", default_registry()), path)
        rows = read_csv_rows(path)
        rows[2][rows[0].index(column)] = cell  # line 3: the second data row
        with open(path, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows(rows)
        with pytest.raises(SchemaError, match=re.escape(f"{path}:3: {message}")):
            read_scored_csv(path)

    def test_missing_score_column_is_schema_error(self, tmp_path):
        path = tmp_path / "normalized.csv"
        write_normalized_csv([make_entry(93.0, 700.0)], path)
        with pytest.raises(SchemaError, match=re.escape(f"{path}: missing required column(s): Score")):
            read_scored_csv(path)



def write_corrupted_scored_csv(path, corrupt) -> None:
    """Ten scored rows (lines 2-11), with ``(line, column, cell)`` replacements."""
    entries = [make_entry(60.0 + i, 400.0 + i, Sex.MALE if i % 2 else Sex.FEMALE) for i in range(10)]
    write_scored_csv(score_dataset(entries, "ipf_gl", default_registry()), path)
    rows = read_csv_rows(path)
    for line, column, cell in corrupt:
        rows[line - 1][rows[0].index(column)] = cell
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows)


def read_or_error(read, path):
    try:
        return read(path)
    except SchemaError as exc:
        return str(exc)


class TestReadScoredCsvBlocks:
    """With blocks of 4 rows, lines 2-5, 6-9 and 10-11 fall in three blocks."""

    @pytest.mark.parametrize(
        "corrupt, message",
        [
            ([(7, "Score", "oops")], "7: malformed Score cell"),
            ([(7, "Sex", "X")], "7: invalid entry row (sex)"),
            ([(7, "Score", ""), (10, "TotalKg", "")], "7: malformed Score cell"),
            ([(10, "Score", ""), (7, "TotalKg", "")], "7: invalid entry row (missing_total)"),
            ([(7, "Score", "x"), (8, "Sex", "X")], "7: malformed Score cell"),
            ([(7, "Sex", "X"), (8, "Score", "x")], "7: invalid entry row (sex)"),
            ([(7, "Sex", "X"), (7, "Score", "x")], "7: invalid entry row (sex)"),
            ([(3, "Score", "x"), (7, "Sex", "X")], "3: malformed Score cell"),
        ],
    )
    def test_first_bad_row_in_file_order_names_its_line(self, tmp_path, corrupt, message):
        path = tmp_path / "scored.csv"
        write_corrupted_scored_csv(path, corrupt)
        with mock.patch.object(ingest, "_BLOCK_ROWS", 4):
            with pytest.raises(SchemaError, match=re.escape(f"{path}:{message}")):
                read_scored_csv(path)
        with pytest.raises(SchemaError, match=re.escape(f"{path}:{message}")):
            row_reference.read_scored_csv(path)

    @pytest.mark.parametrize(
        "layout, line", [("blank line before", 5), ("newline in a cell before", 5), ("newline in its own cell", 4)]
    )
    @pytest.mark.parametrize(
        "column, cell, problem", [("Score", "oops", "malformed Score cell"), ("Sex", "X", "invalid entry row (sex)")]
    )
    @pytest.mark.parametrize("block_rows", [1, 2, 3, 2048])
    def test_error_names_the_physical_line(self, tmp_path, layout, line, column, cell, problem, block_rows):
        # the third data row goes bad; with blocks of 2 an extra line before it sits in the block before
        path = tmp_path / "scored.csv"
        write_corrupted_scored_csv(path, [(4, column, cell)])
        rows = [[*row, "note"] for row in read_csv_rows(path)]
        rows[0][-1] = "Note"
        if layout == "blank line before":
            rows.insert(2, [])
        elif layout == "newline in a cell before":
            rows[1][-1] = "two\nlines"
        else:
            rows[3][-1] = "two\nlines"
        with open(path, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows(rows)
        with mock.patch.object(ingest, "_BLOCK_ROWS", block_rows):
            with pytest.raises(SchemaError, match=re.escape(f"{path}:{line}: {problem}")):
                read_scored_csv(path)
        with pytest.raises(SchemaError, match=re.escape(f"{path}:{line}: {problem}")):
            row_reference.read_scored_csv(path)

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(2, 11),
                st.sampled_from(["Sex", "BodyweightKg", "Best3BenchKg", "TotalKg", "Score"]),
                st.sampled_from(["", "x", "nan", "-5", " 1_0 ", "1e400", "F", "0.004"]),
            ),
            max_size=3,
        ),
        st.sampled_from([1, 3, 4, 2048]),
    )
    def test_same_result_as_row_reference(self, corrupt, block_rows):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "scored.csv"
            write_corrupted_scored_csv(path, corrupt)
            with mock.patch.object(ingest, "_BLOCK_ROWS", block_rows):
                got = read_or_error(read_scored_csv, path)
            want = read_or_error(row_reference.read_scored_csv, path)
        assert repr(got) == repr(want)  # a "nan" Score cell reads as NaN, which == would reject


class TestFitRecords:
    def test_table_and_internal_layouts(self):
        vb = GrowthParams(ModelFamily.VON_BERTALANFFY, 600.0, 0.03, 40.0)
        table = to_table_record(LOGISTIC_MALE_RESAMPLED, "M", "resampled", sig_figs=4)
        internal = {"sex": "F", "dataset": "original", "family": "von_bertalanffy", "L": 600.0, "k": 0.03,
                    "x0": 40.0, "sse": 1.5, "converged": True}
        registry = ScoreRegistry()
        registry.add_fit_records([table, internal])
        assert registry.resolve("model", Sex.MALE) == from_table_record(table)[0]
        assert registry.resolve("model", Sex.FEMALE) == vb

    def test_internal_record_missing_field_is_config_error(self):
        registry = ScoreRegistry()
        with pytest.raises(ConfigError, match="model/M: invalid growth params: 'k'"):
            registry.add_fit_records([{"sex": "M", "family": "logistic", "L": 700.0, "x0": 50.0}])
