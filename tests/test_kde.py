import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liftcurve import kde
from liftcurve.kde import (
    BandwidthMode,
    KdeModel,
    density,
    density_batch,
    fit_kde,
    scott_bandwidth,
)

INV_SQRT_2PI = 0.3989422804014327  # 1/sqrt(2*pi)
K_AT_ONE = 0.24197072451914335  # exp(-1/2)/sqrt(2*pi)


def naive_density(points, h, xs):
    """Pure-python double loop; the independent oracle."""
    points = list(points)
    norm = len(points) * h * math.sqrt(2 * math.pi)
    out = []
    for x in xs:
        total = 0.0
        for p in points:
            total += math.exp(-0.5 * ((p - x) / h) ** 2)
        out.append(total / norm)
    return np.asarray(out)


class TestBandwidth:
    def test_paper_literal_powers_of_ten_and_two(self):
        assert scott_bandwidth(100_000, mode=BandwidthMode.PAPER_LITERAL) == pytest.approx(
            0.1, rel=1e-14
        )
        assert scott_bandwidth(32, mode=BandwidthMode.PAPER_LITERAL) == pytest.approx(
            0.5, rel=1e-14
        )

    def test_std_scaled(self):
        assert scott_bandwidth(100_000, 15.0, BandwidthMode.STD_SCALED) == pytest.approx(
            1.5, rel=1e-14
        )

    def test_insufficient_data(self):
        with pytest.raises(ValueError):
            scott_bandwidth(1, 1.0)

    def test_std_scaled_needs_positive_std(self):
        with pytest.raises(ValueError):
            scott_bandwidth(100, 0.0, BandwidthMode.STD_SCALED)
        with pytest.raises(ValueError):
            scott_bandwidth(100, None, BandwidthMode.STD_SCALED)


class TestDensity:
    def test_single_standard_kernel_at_center(self):
        model = KdeModel(points=np.array([0.0]), bandwidth=1.0)
        assert density(model, 0.0) == pytest.approx(INV_SQRT_2PI, rel=1e-12)

    def test_two_point_closed_form(self):
        model = KdeModel(points=np.array([-1.0, 1.0]), bandwidth=1.0)
        assert density(model, 0.0) == pytest.approx(K_AT_ONE, rel=1e-12)

    @settings(max_examples=50)
    @given(st.floats(0.5, 50.0), st.floats(0.1, 5.0), st.floats(-60.0, 60.0))
    def test_symmetric_points_give_symmetric_density(self, a, h, x):
        model = KdeModel(points=np.array([-a, a]), bandwidth=h)
        assert density(model, x) == pytest.approx(density(model, -x), rel=1e-12)

    @settings(max_examples=30)
    @given(st.floats(-500.0, 500.0))
    def test_translation_equivariance(self, shift):
        pts = np.array([60.0, 75.0, 75.5, 90.0, 120.0])
        model = KdeModel(points=pts, bandwidth=3.0)
        shifted = KdeModel(points=pts + shift, bandwidth=3.0)
        for x in (58.0, 77.0, 101.0):
            assert density(shifted, x + shift) == pytest.approx(density(model, x), rel=1e-9)

    def test_batch_equals_naive_loop(self):
        rng = np.random.Generator(np.random.Philox(key=11))
        pts = rng.normal(80.0, 12.0, 300)
        model = KdeModel(points=pts, bandwidth=2.5)
        xs = rng.uniform(40.0, 120.0, 500)
        expected = naive_density(pts, 2.5, xs)
        got = density_batch(model, xs)
        assert np.max(np.abs(got - expected) / expected) < 1e-12

    def test_batch_singleton_matches_scalar(self):
        model = KdeModel(points=np.array([70.0, 90.0]), bandwidth=2.0)
        assert density_batch(model, [77.7])[0] == density(model, 77.7)

    def test_batch_crosses_chunk_boundaries(self):
        # sizes beyond one tile and one point block
        rng = np.random.Generator(np.random.Philox(key=3))
        pts = rng.normal(80.0, 10.0, 9000)
        model = KdeModel(points=pts, bandwidth=1.7)
        xs = rng.uniform(50.0, 110.0, 4100)
        got = density_batch(model, xs)
        probe = [0, 1, 2047, 2048, 4099]
        expected = naive_density(pts, 1.7, xs[probe])
        assert np.max(np.abs(got[probe] - expected) / expected) < 1e-12

    def test_density_positive_everywhere_finite(self):
        model = KdeModel(points=np.array([70.0]), bandwidth=2.0)
        assert density(model, 40.0) > 0
        assert density(model, 120.0) > 0

    def test_integral_is_one(self):
        rng = np.random.Generator(np.random.Philox(key=5))
        pts = np.concatenate([rng.normal(70, 4, 1500), rng.normal(95, 4, 1500)])
        model = fit_kde(pts)
        h = model.bandwidth
        grid = np.arange(pts.min() - 8 * h, pts.max() + 8 * h, h / 10)
        integral = np.trapezoid(density_batch(model, grid), grid)
        assert integral == pytest.approx(1.0, abs=1e-3)

    def test_nonfinite_inputs_rejected(self):
        model = KdeModel(points=np.array([1.0, 2.0]), bandwidth=1.0)
        with pytest.raises(ValueError):
            density(model, math.nan)
        with pytest.raises(ValueError):
            density_batch(model, [1.0, math.inf])

    def test_batch_of_nothing_is_empty(self):
        model = KdeModel(points=np.array([70.0, 90.0]), bandwidth=2.0)
        assert density_batch(model, []).shape == (0,)


class TestTiles:
    """Each row of a tile is summed on its own, so tile edges change no bit."""

    @pytest.mark.parametrize("n", [1, 2, 8191, 8192, 8193, 16385])
    @pytest.mark.parametrize("extra", [-1, 0, 1])
    def test_batch_equals_scalar_and_split_calls(self, n, extra):
        rows = kde._TILE_PAIRS // min(n, kde._POINT_CHUNK)
        m = rows + extra
        rng = np.random.Generator(np.random.Philox(key=n))
        model = KdeModel(points=rng.normal(80.0, 12.0, n), bandwidth=1.9)
        xs = rng.uniform(40.0, 120.0, m)
        got = density_batch(model, xs)
        probe = {0, 1, rows - 2, rows - 1, rows, m - 1, *rng.integers(0, m, 8).tolist()}
        for i in sorted(i for i in probe if i < m):
            assert got[i] == density(model, xs[i]), i
        for cut in (1, m // 3, rows - 1):
            joined = np.concatenate([density_batch(model, xs[:cut]), density_batch(model, xs[cut:])])
            assert np.array_equal(joined, got), cut

    def test_peak_memory_is_one_small_tile(self):
        rng = np.random.Generator(np.random.Philox(key=21))
        pts = rng.normal(80.0, 12.0, 9000)
        model = KdeModel(points=pts, bandwidth=1.5)
        tracemalloc.start()
        try:
            density_batch(model, pts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20


class TestFitKde:
    def test_bandwidth_follows_scott_rule(self):
        rng = np.random.Generator(np.random.Philox(key=9))
        pts = rng.normal(80.0, 15.0, 4000)
        model = fit_kde(pts)
        expected = np.std(pts, ddof=1) * 4000 ** -0.2
        assert model.bandwidth == pytest.approx(expected, rel=1e-12)

    def test_paper_literal_mode(self):
        rng = np.random.Generator(np.random.Philox(key=9))
        pts = rng.normal(80.0, 15.0, 100_000)
        model = fit_kde(pts, mode=BandwidthMode.PAPER_LITERAL)
        assert model.bandwidth == pytest.approx(0.1, rel=1e-12)

    def test_model_points_immutable(self):
        model = fit_kde(np.array([1.0, 2.0, 3.0]))
        with pytest.raises(ValueError):
            model.points[0] = 99.0

    def test_rejects_degenerate_input(self):
        with pytest.raises(ValueError):
            fit_kde([1.0])
        with pytest.raises(ValueError):
            KdeModel(points=np.array([1.0, 2.0]), bandwidth=0.0)
