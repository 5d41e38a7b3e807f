import numpy as np
import pytest

from scipy.optimize import least_squares

from liftcurve.fit import FitConfig, auto_init, default_bounds, fit
from liftcurve.models import GrowthParams, ModelFamily, evaluate, param_gradient

from synth import female_xy, flattened_female_xy, logistic_xy

LOGISTIC_TRUTH = GrowthParams(ModelFamily.LOGISTIC, 722.3, 0.05447, 53.4)
VB_TRUTH = GrowthParams(ModelFamily.VON_BERTALANFFY, 776.7, 0.02045, 22.33)


class TestAutoInit:
    def test_amplitude_rule(self):
        x = np.linspace(40.0, 180.0, 100)
        y = np.full(100, 700.0)
        y[-1] = 700.0
        init = auto_init(x, y, ModelFamily.LOGISTIC)
        assert init.L == pytest.approx(735.0, rel=1e-12)

    def test_rate_rule(self):
        x = np.linspace(40.0, 180.0, 100)
        y = np.linspace(200.0, 700.0, 100)
        init = auto_init(x, y, ModelFamily.LOGISTIC)
        assert init.k == pytest.approx(2.0 / 140.0, rel=1e-12)

    def test_location_rules(self):
        x = np.linspace(40.0, 180.0, 1000)
        y = np.linspace(200.0, 700.0, 1000)
        vb = auto_init(x, y, ModelFamily.VON_BERTALANFFY)
        assert vb.x0 == pytest.approx(0.25 * np.quantile(x, 0.01), rel=1e-12)
        lg = auto_init(x, y, ModelFamily.LOGISTIC)
        assert lg.x0 == pytest.approx(np.median(x) - 140.0, rel=1e-12)

    def test_degenerate_x_range_raises(self):
        x = np.full(20, 80.0)
        y = np.linspace(200.0, 300.0, 20)
        with pytest.raises(ValueError):
            auto_init(x, y, ModelFamily.LOGISTIC)


class TestFit:
    def test_noiseless_vb_interpolation(self):
        x = np.linspace(35.0, 180.0, 100)
        y = evaluate(VB_TRUTH, x)
        result = fit(x, y, FitConfig(family=ModelFamily.VON_BERTALANFFY))
        assert result.sse < 1e-12
        assert result.params.L == pytest.approx(VB_TRUTH.L, rel=1e-6)
        assert result.params.k == pytest.approx(VB_TRUTH.k, rel=1e-6)
        assert result.params.x0 == pytest.approx(VB_TRUTH.x0, rel=1e-6)

    def test_noiseless_logistic_interpolation(self):
        x = np.linspace(20.0, 200.0, 120)
        y = evaluate(LOGISTIC_TRUTH, x)
        result = fit(x, y, FitConfig(family=ModelFamily.LOGISTIC))
        assert result.sse < 1e-12
        assert result.params.x0 == pytest.approx(LOGISTIC_TRUTH.x0, rel=1e-6)

    def test_synthetic_logistic_recovery_within_2pct(self):
        x, y = logistic_xy(n=10_000, seed=42)
        result = fit(x, y, FitConfig(family=ModelFamily.LOGISTIC))
        assert result.converged
        assert result.params.L == pytest.approx(LOGISTIC_TRUTH.L, rel=0.02)
        assert result.params.k == pytest.approx(LOGISTIC_TRUTH.k, rel=0.02)
        assert result.params.x0 == pytest.approx(LOGISTIC_TRUTH.x0, rel=0.02)

    def test_auto_init_converges_quickly_on_synthetic_fixture(self):
        x, y = logistic_xy(n=10_000, seed=42)
        result = fit(x, y, FitConfig(family=ModelFamily.LOGISTIC))
        assert result.converged and result.iterations <= 100

    def test_constant_data_reports_degenerate(self):
        x = np.linspace(40.0, 150.0, 50)
        y = np.full(50, 500.0)
        bounds = default_bounds(x, y)
        for family in (ModelFamily.LOGISTIC, ModelFamily.VON_BERTALANFFY):
            result = fit(x, y, FitConfig(family=family))
            at_bound = any(
                np.isclose(value, edge)
                for value, (lo, hi) in zip(
                    (result.params.L, result.params.k, result.params.x0), bounds
                )
                for edge in (lo, hi)
            )
            assert (not result.converged) or at_bound

    def test_deterministic(self):
        x, y = logistic_xy(n=2_000, seed=11)
        config = FitConfig(family=ModelFamily.LOGISTIC)
        first = fit(x, y, config)
        second = fit(x, y, config)
        assert first.params == second.params
        assert first.sse == second.sse
        assert first.iterations == second.iterations

    def test_rmse_definition_and_covariance_shape(self):
        x, y = logistic_xy(n=1_000, seed=13)
        result = fit(x, y, FitConfig(family=ModelFamily.LOGISTIC))
        assert result.rmse == pytest.approx(np.sqrt(result.sse / x.size), rel=1e-12)
        assert result.covariance_proxy.shape == (3, 3)
        assert np.all(np.diag(result.covariance_proxy) >= 0)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            fit([1.0] * 5, [1.0] * 5, FitConfig(family=ModelFamily.LOGISTIC))
        with pytest.raises(ValueError):
            fit(np.linspace(-5, 5, 20), np.ones(20), FitConfig(family=ModelFamily.LOGISTIC))
        with pytest.raises(ValueError):
            fit(np.linspace(1, 5, 20), np.ones(19), FitConfig(family=ModelFamily.LOGISTIC))


class TestSolverInternals:
    def test_single_start_never_worse_than_init(self):
        for x, y in (logistic_xy(n=500, seed=19), female_xy(500, seed=19)):
            for family in ModelFamily:
                result = fit(x, y, FitConfig(family=family))
                residual = y - evaluate(auto_init(x, y, family), x)
                assert result.sse <= residual @ residual

    def test_jacobian_matches_finite_differences_at_init_and_solution(self):
        x, y = logistic_xy(n=800, seed=23)
        config = FitConfig(family=ModelFamily.LOGISTIC)
        init = auto_init(x, y, ModelFamily.LOGISTIC)
        solution = fit(x, y, config).params
        probe_x = x[:50]
        for params in (init, solution):
            grad = param_gradient(params, probe_x)
            theta = np.array([params.L, params.k, params.x0])
            for j in range(3):
                h = 1e-6 * max(1.0, abs(theta[j]))
                hi = theta.copy()
                lo = theta.copy()
                hi[j] += h
                lo[j] -= h
                fd = (
                    evaluate(GrowthParams(params.family, *hi), probe_x)
                    - evaluate(GrowthParams(params.family, *lo), probe_x)
                ) / (2 * h)
                scale = np.maximum(np.abs(fd), 1e-8)
                assert np.max(np.abs(grad[:, j] - fd) / scale) < 1e-5


def reference_sse(family: ModelFamily, x, y, starts) -> float:
    """Lowest SSE of a full (L, k, x0) trust-region fit at 1e-12 tolerances from any start."""
    lo, hi = np.array(default_bounds(x, y)).T
    best = np.inf
    for start in starts:
        sol = least_squares(
            lambda t: evaluate(GrowthParams(family, *t), x) - y,
            np.clip(start, lo, hi),
            jac=lambda t: param_gradient(GrowthParams(family, *t), x),
            bounds=(lo, hi),
            method="trf",
            x_scale="jac",
            ftol=1e-12,
            xtol=1e-12,
            gtol=1e-12,
            max_nfev=2000,
        )
        best = min(best, float(sol.fun @ sol.fun))
    return best


class TestOptimality:
    @pytest.mark.parametrize(
        "family, sample",
        [
            (ModelFamily.LOGISTIC, lambda: logistic_xy(n=2_000, seed=29)),
            (ModelFamily.VON_BERTALANFFY, lambda: logistic_xy(n=2_000, params=VB_TRUTH, seed=31)),
            (ModelFamily.LOGISTIC, lambda: female_xy(2_000, seed=37)),
            (ModelFamily.VON_BERTALANFFY, lambda: female_xy(2_000, seed=37)),
            (ModelFamily.LOGISTIC, lambda: flattened_female_xy(2_000, seed=2)),
            (ModelFamily.LOGISTIC, lambda: female_xy(40_000, seed=41)),
            (ModelFamily.VON_BERTALANFFY, lambda: female_xy(40_000, seed=41)),
        ],
        ids=[
            "logistic", "vb", "female-logistic", "female-vb", "flattened-female-logistic",
            "lattice-logistic", "lattice-vb",
        ],
    )
    def test_sse_matches_full_trust_region_reference(self, family, sample):
        x, y = sample()
        result = fit(x, y, FitConfig(family=family))
        p = result.params
        x0 = float(np.median(x)) if family is ModelFamily.LOGISTIC else 0.0
        independent = (1.1 * np.max(y), 3.0 / np.ptp(x), x0)
        best = reference_sse(family, x, y, [(p.L, p.k, p.x0), independent])
        assert result.converged
        assert (result.sse - best) / best <= 1e-6

    def test_flattened_female_optimum_has_L_on_its_bound(self):
        # the case above that exercises the clipped-amplitude branch
        x, y = flattened_female_xy(2_000, seed=2)
        result = fit(x, y, FitConfig(family=ModelFamily.LOGISTIC))
        assert result.params.L == default_bounds(x, y)[0][1]
        assert result.active_bounds == (1, 0, 0)
        assert result.to_record()["active_bounds"] == [1, 0, 0]

    def test_synthetic_fit_has_no_active_bound(self):
        x, y = female_xy(2_000, seed=37)
        result = fit(x, y, FitConfig(family=ModelFamily.LOGISTIC))
        assert result.active_bounds == (0, 0, 0)
        assert result.to_record()["active_bounds"] == [0, 0, 0]


class TestGroupedFit:
    """The solver runs over distinct bodyweights; what it reports must be the full-data figures."""

    @pytest.fixture(scope="class")
    def lattice(self):
        # 40,000 rows on the 0.01 kg lattice share 4,893 bodyweights
        x, y = female_xy(40_000, seed=41)
        assert np.array_equal(x, np.round(x, 2)) and np.unique(x).size < x.size / 8
        return x, y

    @pytest.mark.parametrize("family", list(ModelFamily), ids=lambda f: f.value)
    def test_sse_is_over_every_row(self, lattice, family):
        x, y = lattice
        result = fit(x, y, FitConfig(family=family))
        residual = y - evaluate(result.params, x)
        assert result.sse == pytest.approx(residual @ residual, rel=1e-12)
        assert result.rmse == pytest.approx(np.sqrt(residual @ residual / x.size), rel=1e-12)

    @pytest.mark.parametrize("family", list(ModelFamily), ids=lambda f: f.value)
    def test_covariance_equals_full_data_covariance(self, lattice, family):
        x, y = lattice
        result = fit(x, y, FitConfig(family=family))
        jac = param_gradient(result.params, x)
        full = (result.sse / (x.size - 3)) * np.linalg.pinv(jac.T @ jac)
        # J^T J has condition number 6e10-2e11 here; the grouped and full sums
        # differ by 1.7e-9 (VB) and 5.9e-9 (logistic), and by at most 1.5e-8
        # over seeds 41-47
        np.testing.assert_allclose(result.covariance_proxy, full, rtol=1e-7, atol=0)
