import math

import numpy as np
import pytest
import mpmath
from hypothesis import example, given, settings
from hypothesis import strategies as st

from liftcurve.models import (
    GrowthParams,
    ModelFamily,
    asymptote,
    evaluate,
    first_derivative,
    from_table_record,
    inflection_point,
    param_gradient,
    parse_family,
    second_derivative,
    to_table_record,
)

VB_MALE_ORIGINAL = GrowthParams(ModelFamily.VON_BERTALANFFY, L=776.7, k=0.02045, x0=22.33)
LOGISTIC_MALE_RESAMPLED = GrowthParams(ModelFamily.LOGISTIC, L=722.3, k=0.05447, x0=53.40)
LOGISTIC_FEMALE_RESAMPLED = GrowthParams(ModelFamily.LOGISTIC, L=630.8, k=0.032019, x0=25.87)

# frozen from a 50-digit mpmath evaluation of the closed forms
VB_MALE_AT_100 = 618.0496577286924
LOGISTIC_MALE_AT_93 = 610.0523735232388
LOGISTIC_MALE_ASYMPTOTE = 684.938843986593


def params_strategy(family):
    return st.builds(
        lambda L, k, x0: GrowthParams(family, L, k, x0),
        st.floats(100.0, 1500.0),
        st.floats(0.005, 0.2),
        st.floats(0.0, 100.0),
    )


any_params = st.one_of(
    params_strategy(ModelFamily.VON_BERTALANFFY),
    params_strategy(ModelFamily.LOGISTIC),
)

# offsets where derivative magnitudes stay clear of float noise
offset_units = st.one_of(st.floats(0.3, 4.0), st.floats(-4.0, -0.3))


def mp_param_gradient(params: GrowthParams, x: float) -> list[float]:
    """d f / d (L, k, x0) of the closed forms: mpmath finite differences at 50 digits."""

    def f(L, k, x0):
        if params.family is ModelFamily.VON_BERTALANFFY:
            return L * (1 - mpmath.exp(-k * (x - x0)))
        return L * (1 / (1 + mpmath.exp(-k * (x - x0))) - 1 / (1 + mpmath.exp(k * x0)))

    theta = (params.L, params.k, params.x0)
    with mpmath.workdps(50):
        return [float(mpmath.diff(f, theta, order)) for order in ((1, 0, 0), (0, 1, 0), (0, 0, 1))]


class TestEvaluate:
    def test_vb_vanishes_at_x0(self):
        assert evaluate(VB_MALE_ORIGINAL, VB_MALE_ORIGINAL.x0) == pytest.approx(0.0, abs=1e-12)

    def test_logistic_zero_at_zero_bodyweight(self):
        assert evaluate(LOGISTIC_MALE_RESAMPLED, 0.0) == 0.0

    def test_vb_table_value_at_100(self):
        assert evaluate(VB_MALE_ORIGINAL, 100.0) == pytest.approx(VB_MALE_AT_100, rel=1e-12)

    def test_logistic_table_value_at_93(self):
        assert evaluate(LOGISTIC_MALE_RESAMPLED, 93.0) == pytest.approx(
            LOGISTIC_MALE_AT_93, rel=1e-12
        )

    def test_vectorised_matches_scalar(self):
        xs = np.array([40.0, 70.0, 93.0, 150.0])
        batch = evaluate(LOGISTIC_MALE_RESAMPLED, xs)
        for x, value in zip(xs, batch):
            assert value == evaluate(LOGISTIC_MALE_RESAMPLED, float(x))

    def test_nonfinite_input_rejected(self):
        for bad in (math.nan, math.inf, [1.0, math.nan]):
            with pytest.raises(ValueError):
                evaluate(VB_MALE_ORIGINAL, bad)

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            GrowthParams(ModelFamily.LOGISTIC, L=-1.0, k=0.05, x0=10.0)
        with pytest.raises(ValueError):
            GrowthParams(ModelFamily.LOGISTIC, L=500.0, k=0.0, x0=10.0)
        with pytest.raises(ValueError):
            GrowthParams(ModelFamily.LOGISTIC, L=500.0, k=0.05, x0=math.inf)


class TestDerivatives:
    def test_vb_slope_at_x0_is_kL(self):
        expected = VB_MALE_ORIGINAL.k * VB_MALE_ORIGINAL.L
        assert first_derivative(VB_MALE_ORIGINAL, VB_MALE_ORIGINAL.x0) == pytest.approx(
            expected, rel=1e-12
        )

    def test_logistic_slope_at_midpoint_is_quarter_kL(self):
        p = LOGISTIC_MALE_RESAMPLED
        assert first_derivative(p, p.x0) == pytest.approx(p.L * p.k / 4.0, rel=1e-12)

    def test_logistic_curvature_zero_at_midpoint(self):
        assert second_derivative(LOGISTIC_MALE_RESAMPLED, LOGISTIC_MALE_RESAMPLED.x0) == 0.0

    def test_vb_curvature_negative(self):
        xs = np.linspace(VB_MALE_ORIGINAL.x0 - 30, VB_MALE_ORIGINAL.x0 + 200, 64)
        assert np.all(second_derivative(VB_MALE_ORIGINAL, xs) < 0)

    def test_logistic_curvature_sign_flips_at_x0(self):
        p = LOGISTIC_MALE_RESAMPLED
        assert second_derivative(p, p.x0 - 5.0) > 0
        assert second_derivative(p, p.x0 + 5.0) < 0

    @settings(max_examples=150)
    @given(any_params, offset_units)
    def test_first_derivative_matches_central_difference(self, params, u):
        x = params.x0 + u / params.k
        h = 1e-5 * max(1.0, abs(x))
        fd = (evaluate(params, x + h) - evaluate(params, x - h)) / (2 * h)
        assert first_derivative(params, x) == pytest.approx(fd, rel=1e-6)

    @settings(max_examples=150)
    @given(any_params, offset_units)
    def test_second_derivative_matches_central_difference(self, params, u):
        x = params.x0 + u / params.k
        h = 1e-3 / params.k  # step on the curvature length scale
        fd = (
            evaluate(params, x + h) - 2 * evaluate(params, x) + evaluate(params, x - h)
        ) / h**2
        assert second_derivative(params, x) == pytest.approx(fd, rel=1e-4)

    @settings(max_examples=100)
    @given(params_strategy(ModelFamily.VON_BERTALANFFY), offset_units)
    def test_vb_growth_identity(self, params, u):
        # f' = k * (L - f), pointwise
        x = params.x0 + u / params.k
        lhs = first_derivative(params, x)
        rhs = params.k * (params.L - evaluate(params, x))
        assert lhs == pytest.approx(rhs, rel=1e-10)

    @settings(max_examples=60)
    @given(any_params, offset_units)
    # k*x0 close to u makes the logistic d/dx0 a near-cancellation, where a
    # float central difference was off by 1.1e-10
    @example(GrowthParams(ModelFamily.LOGISTIC, L=100.0, k=0.005, x0=59.921875), 0.3)
    def test_param_gradient_matches_finite_differences(self, params, u):
        x = params.x0 + u / params.k
        grad = param_gradient(params, x)
        want = mp_param_gradient(params, x)
        for j in range(3):
            assert grad[j] == pytest.approx(want[j], rel=1e-5, abs=1e-10)


class TestStructure:
    def test_inflection_point_logistic(self):
        assert inflection_point(LOGISTIC_MALE_RESAMPLED) == 53.40
        assert inflection_point(LOGISTIC_FEMALE_RESAMPLED) == 25.87

    def test_inflection_point_vb_is_none(self):
        assert inflection_point(VB_MALE_ORIGINAL) is None

    def test_asymptote_vb_is_L(self):
        assert asymptote(VB_MALE_ORIGINAL) == 776.7

    def test_asymptote_logistic_table_value(self):
        assert asymptote(LOGISTIC_MALE_RESAMPLED) == pytest.approx(
            LOGISTIC_MALE_ASYMPTOTE, rel=1e-12
        )

    def test_asymptote_logistic_approaches_L_for_large_kx0(self):
        p = GrowthParams(ModelFamily.LOGISTIC, L=500.0, k=1.0, x0=60.0)
        assert asymptote(p) == pytest.approx(500.0, rel=1e-12)

    @settings(max_examples=60)
    @given(params_strategy(ModelFamily.VON_BERTALANFFY))
    def test_vb_strictly_increasing_and_below_L(self, params):
        # stay below k*(x - x0) ~ 25 where float64 can still resolve L - f
        xs = np.linspace(params.x0, params.x0 + 25.0 / params.k, 257)
        values = evaluate(params, xs)
        assert np.all(np.diff(values) > 0)
        assert np.all(values < params.L)

    @settings(max_examples=60)
    @given(params_strategy(ModelFamily.LOGISTIC))
    def test_logistic_zero_origin_and_increasing(self, params):
        assert abs(evaluate(params, 0.0)) < 1e-12 * params.L
        xs = np.linspace(0.0, params.x0 + 25.0 / params.k, 257)
        assert np.all(np.diff(evaluate(params, xs)) > 0)

    def test_logistic_second_difference_sign_change_near_x0(self):
        p = LOGISTIC_MALE_RESAMPLED
        step = 0.01
        grid = np.arange(max(0.0, p.x0 - 50.0), p.x0 + 50.0 + step / 2, step)
        values = evaluate(p, grid)
        second_diff = values[2:] - 2 * values[1:-1] + values[:-2]
        signs = np.sign(second_diff)
        nonzero = np.nonzero(signs)[0]
        flips = [
            (i, j)
            for i, j in zip(nonzero[:-1], nonzero[1:])
            if signs[i] != signs[j]
        ]
        assert len(flips) == 1
        lo_idx, hi_idx = flips[0]
        # second_diff[i] sits at grid[i + 1]
        lo_x, hi_x = grid[lo_idx + 1], grid[hi_idx + 1]
        assert lo_x - step <= p.x0 <= hi_x + step

    def test_logistic_matches_vb_in_the_tail(self):
        # matched asymptote and tail slope: kv = k, Lv = logistic asymptote,
        # x0v chosen so the leading exponential terms coincide
        p = LOGISTIC_MALE_RESAMPLED
        L_vb = asymptote(p)
        x0_vb = p.x0 + math.log(p.L / L_vb) / p.k
        vb = GrowthParams(ModelFamily.VON_BERTALANFFY, L=L_vb, k=p.k, x0=x0_vb)
        xs = np.linspace(p.x0 + 10.0 / p.k, p.x0 + 30.0 / p.k, 200)
        gap = np.abs(evaluate(p, xs) - evaluate(vb, xs)) / L_vb
        assert np.max(gap) < 1e-3


class TestTableRecords:
    def test_unit_conversion_round_trip(self):
        record = to_table_record(VB_MALE_ORIGINAL, "M", "original")
        assert record["L_1e2kg"] == pytest.approx(7.767, rel=1e-12)
        assert record["k_1e-2perkg"] == pytest.approx(2.045, rel=1e-12)
        assert record["x0_kg"] == 22.33
        params, sex, dataset = from_table_record(record)
        assert sex == "M" and dataset == "original"
        assert params.L == pytest.approx(VB_MALE_ORIGINAL.L, rel=1e-14)
        assert params.k == pytest.approx(VB_MALE_ORIGINAL.k, rel=1e-14)
        assert params.family is ModelFamily.VON_BERTALANFFY

    def test_sig_fig_rounding(self):
        params = GrowthParams(ModelFamily.LOGISTIC, L=722.34567, k=0.0544712, x0=53.40123)
        record = to_table_record(params, "M", "resampled", sig_figs=4)
        assert record["L_1e2kg"] == 7.223
        assert record["k_1e-2perkg"] == 5.447
        assert record["x0_kg"] == 53.40

    def test_invalid_records_rejected(self):
        with pytest.raises(ValueError):
            to_table_record(VB_MALE_ORIGINAL, "X", "original")
        with pytest.raises(ValueError):
            to_table_record(VB_MALE_ORIGINAL, "M", "latest")
        with pytest.raises(ValueError):
            from_table_record({"family": "logistic", "sex": "M"})

    def test_parse_family_aliases(self):
        assert parse_family("vb") is ModelFamily.VON_BERTALANFFY
        assert parse_family("vonbertalanffy") is ModelFamily.VON_BERTALANFFY
        assert parse_family("logistic") is ModelFamily.LOGISTIC
        with pytest.raises(ValueError):
            parse_family("quadratic")
