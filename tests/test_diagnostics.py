import csv
import math
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from liftcurve import diagnostics
from liftcurve.diagnostics import (
    MyriadBins,
    RollingQuantiles,
    ScoreDistribution,
    fraction_below,
    myriad_averages,
    rolling_quantiles,
    score_distribution,
    write_distribution_csv,
    write_myriad_csv,
    write_quantiles_csv,
)


def naive_rolling_quantiles(bodyweights, scores, window, levels):
    """Per-window sort with hand-rolled order-statistic interpolation."""
    order = np.argsort(bodyweights, kind="stable")
    bw = np.asarray(bodyweights, dtype=float)[order]
    sc = np.asarray(scores, dtype=float)[order]
    centers, rows = [], []
    for start in range(bw.size - window + 1):
        window_scores = sorted(sc[start : start + window])
        row = []
        for level in levels:
            pos = level * (window - 1)
            lo = int(np.floor(pos))
            frac = pos - lo
            hi = min(lo + 1, window - 1)
            row.append(window_scores[lo] * (1 - frac) + window_scores[hi] * frac)
        rows.append(row)
        window_bw = sorted(bw[start : start + window])
        mid = (window - 1) / 2
        lo = int(np.floor(mid))
        centers.append(
            window_bw[lo] if window % 2 else (window_bw[lo] + window_bw[lo + 1]) / 2
        )
    return np.asarray(centers), np.asarray(rows)


class TestMyriad:
    def test_exact_partition(self):
        rng = np.random.Generator(np.random.Philox(key=1))
        bw = rng.uniform(40, 180, 20_000)
        totals = rng.uniform(100, 900, 20_000)
        bins = myriad_averages(bw, totals)
        assert list(bins.counts) == [10_000, 10_000]
        assert np.all(np.diff(bins.mean_bodyweight_kg) > 0)

    def test_identical_entries_single_bin(self):
        bins = myriad_averages([77.0] * 50, [450.0] * 50, group_size=10_000)
        assert list(bins.counts) == [50]
        assert bins.mean_bodyweight_kg[0] == 77.0
        assert bins.mean_total_kg[0] == 450.0

    def test_linear_generator_oracle(self):
        rng = np.random.Generator(np.random.Philox(key=2))
        bw = rng.uniform(40, 180, 30_000)
        totals = 5.0 * bw
        bins = myriad_averages(bw, totals)
        assert np.max(
            np.abs(bins.mean_total_kg - 5.0 * bins.mean_bodyweight_kg)
        ) < 1e-9 * np.max(bins.mean_total_kg)

    def test_runt_group_merges(self):
        bw = np.arange(20_500, dtype=float)
        bins = myriad_averages(bw, bw * 2, group_size=10_000)
        assert list(bins.counts) == [10_000, 10_500]

    def test_partial_group_survives_if_big_enough(self):
        bw = np.arange(25_000, dtype=float)
        bins = myriad_averages(bw, bw * 2, group_size=10_000)
        assert list(bins.counts) == [10_000, 10_000, 5_000]

    def test_tiebreak_by_total_then_order(self):
        bw = [80.0, 80.0, 80.0, 70.0]
        totals = [500.0, 300.0, 400.0, 600.0]
        bins = myriad_averages(bw, totals, group_size=2)
        # sorted pairs: (70,600) (80,300) (80,400) (80,500)
        assert bins.mean_total_kg[0] == pytest.approx((600.0 + 300.0) / 2)
        assert bins.mean_total_kg[1] == pytest.approx((400.0 + 500.0) / 2)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            myriad_averages([], [])


def sliding_view_reference(bodyweights, scores, window, levels):
    """np.quantile and np.median over the full sliding view of the bodyweight-sorted rows."""
    order = np.argsort(bodyweights, kind="stable")
    bw = np.asarray(bodyweights, dtype=float)[order]
    sc = np.asarray(scores, dtype=float)[order]
    values = np.quantile(sliding_window_view(sc, window), levels, axis=1, method="linear").T
    return np.median(sliding_window_view(bw, window), axis=1), values


def assert_matches_sliding_view(bw, scores, window, levels):
    rq = rolling_quantiles(bw, scores, window=window, levels=levels)
    centers, values = sliding_view_reference(bw, scores, window, levels)
    assert np.array_equal(rq.center_bodyweight_kg, centers, equal_nan=True)
    assert np.array_equal(rq.values, values, equal_nan=True)


quantile_levels = st.lists(st.floats(0.001, 0.999), min_size=1, max_size=6, unique=True).map(
    lambda levels: tuple(sorted(levels))
)


class TestRollingQuantilesBitForBit:
    """rolling_quantiles sorts windows in blocks and interpolates itself; it
    must equal np.quantile / np.median over the sliding view exactly."""

    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(2, 40),
        st.integers(0, 60),
        st.integers(1, 9),
        quantile_levels,
        st.integers(0, 2**32 - 1),
        st.booleans(),
        st.booleans(),
    )
    def test_small_blocks(self, window, extra, block, levels, seed, nan_scores, nan_bodyweights):
        rng = np.random.Generator(np.random.Philox(key=seed))
        n = window + extra
        bw = rng.choice(np.round(rng.uniform(40, 180, 12), 1), n)  # heavily tied
        scores = np.round(rng.normal(100, 20, n), 2)
        if nan_scores:
            scores[rng.integers(0, n, 2)] = np.nan
        if nan_bodyweights:
            bw[rng.integers(0, n)] = np.nan
        with mock.patch.object(diagnostics, "_WINDOWS_PER_SORT", block):
            assert_matches_sliding_view(bw, scores, window, levels)

    @pytest.mark.parametrize("window", [99, 100])
    @pytest.mark.parametrize("past_edge", [-1, 0, 1, 4097])
    def test_across_a_block_edge(self, window, past_edge):
        rng = np.random.Generator(np.random.Philox(key=window + past_edge))
        n = diagnostics._WINDOWS_PER_SORT + window - 1 + past_edge
        bw = np.round(rng.lognormal(4.4, 0.2, n), 2)
        scores = rng.normal(100, 20, n)
        scores[n // 2] = np.nan
        levels = (0.05, 0.25, 0.5, 0.75, 0.95)
        assert_matches_sliding_view(bw, scores, window, levels)


class TestRollingQuantiles:
    def test_matches_naive_oracle_exactly(self):
        rng = np.random.Generator(np.random.Philox(key=3))
        bw = rng.uniform(40, 180, 1_000)
        scores = rng.normal(100, 15, 1_000)
        levels = (0.05, 0.25, 0.5, 0.75, 0.95)
        rq = rolling_quantiles(bw, scores, window=100, levels=levels)
        # same multiset through np.quantile: must agree bit for bit
        order = np.argsort(bw, kind="stable")
        sorted_scores = scores[order]
        for i in (0, 1, 450, 900):
            window = np.sort(sorted_scores[i : i + 100])
            expected = np.quantile(window, levels, method="linear")
            assert np.array_equal(rq.values[i], expected)
        # independent interpolation arithmetic: equal to float tolerance
        centers, rows = naive_rolling_quantiles(bw, scores, 100, levels)
        assert np.allclose(rq.values, rows, rtol=1e-12, atol=1e-12)
        assert np.allclose(rq.center_bodyweight_kg, centers, rtol=1e-12, atol=1e-12)

    def test_constant_scores_constant_tracks(self):
        bw = np.linspace(40, 180, 300)
        rq = rolling_quantiles(bw, np.full(300, 123.0), window=50)
        assert np.all(rq.values == 123.0)

    def test_window_equal_to_n_gives_whole_sample_quantiles(self):
        rng = np.random.Generator(np.random.Philox(key=4))
        bw = rng.uniform(40, 180, 200)
        scores = rng.normal(100, 10, 200)
        rq = rolling_quantiles(bw, scores, window=200)
        assert rq.values.shape == (1, 5)
        assert np.array_equal(
            rq.values[0], np.quantile(scores, rq.levels, method="linear")
        )

    @settings(max_examples=40)
    @given(st.integers(0, 10_000))
    def test_levels_monotone_at_every_position(self, seed):
        rng = np.random.Generator(np.random.Philox(key=seed))
        bw = rng.uniform(40, 180, 240)
        scores = rng.normal(100, 20, 240)
        rq = rolling_quantiles(bw, scores, window=60)
        assert np.all(np.diff(rq.values, axis=1) >= 0)

    def test_insufficient_rows(self):
        with pytest.raises(ValueError):
            rolling_quantiles([70.0, 80.0], [1.0, 2.0], window=100)

    def test_bad_levels_rejected(self):
        bw = np.linspace(40, 180, 200)
        scores = np.linspace(80, 120, 200)
        with pytest.raises(ValueError):
            rolling_quantiles(bw, scores, window=50, levels=(0.5, 0.25))
        with pytest.raises(ValueError):
            rolling_quantiles(bw, scores, window=50, levels=(0.0, 0.5))


class TestScoreDistribution:
    def test_symmetric_three_point_sample(self):
        dist = score_distribution([99.0, 100.0, 101.0])
        assert dist.skewness == 0.0
        assert dist.mean == 100.0

    def test_seeded_standard_normal_skewness(self):
        rng = np.random.Generator(np.random.Philox(key=101))
        dist = score_distribution(rng.standard_normal(100_000) + 100.0)
        assert abs(dist.skewness) < 0.03
        assert abs(dist.excess_kurtosis) < 0.1

    def test_exponential_skewness_near_two(self):
        rng = np.random.Generator(np.random.Philox(key=102))
        dist = score_distribution(rng.exponential(1.0, 100_000) + 50.0)
        assert dist.skewness == pytest.approx(2.0, abs=0.1)

    def test_histogram_counts_sum_to_n(self):
        rng = np.random.Generator(np.random.Philox(key=6))
        scores = rng.normal(100, 12, 5_000)
        dist = score_distribution(scores)
        assert dist.histogram_counts.sum() == 5_000
        assert dist.histogram_edges.size == dist.histogram_counts.size + 1

    def test_gaussian_fit_matches_moments(self):
        rng = np.random.Generator(np.random.Philox(key=7))
        scores = rng.normal(100, 12, 2_000)
        dist = score_distribution(scores)
        assert dist.gaussian_mean == dist.mean
        assert dist.gaussian_std == dist.std
        assert dist.std == pytest.approx(np.std(scores), rel=1e-12)

    @settings(max_examples=40)
    @given(st.floats(-50.0, 50.0), st.floats(0.1, 10.0))
    def test_skewness_invariant_under_positive_affine_maps(self, shift, scale):
        rng = np.random.Generator(np.random.Philox(key=8))
        scores = rng.exponential(2.0, 3_000)
        base = score_distribution(scores).skewness
        mapped = score_distribution(shift + scale * scores).skewness
        assert mapped == pytest.approx(base, rel=1e-9, abs=1e-9)

    def test_degenerate_distribution_rejected(self):
        with pytest.raises(ValueError):
            score_distribution([5.0, 5.0, 5.0])
        with pytest.raises(ValueError):
            score_distribution([5.0])


class TestFractionBelow:
    def test_edges(self):
        bw = [50.0, 60.0, 70.0]
        assert fraction_below(bw, 40.0) == 0.0
        assert fraction_below(bw, 80.0) == 1.0
        assert fraction_below(bw, 60.0) == pytest.approx(1 / 3)

    def test_strictness(self):
        assert fraction_below([53.4, 53.4], 53.4) == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            fraction_below([], 50.0)


class TestCsvExports:
    def test_myriad_csv(self, tmp_path):
        bins = myriad_averages([70.0, 80.0, 90.0, 100.0], [400, 500, 600, 700], group_size=2)
        path = tmp_path / "myriad.csv"
        write_myriad_csv(bins, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "mean_bodyweight_kg,mean_total_kg,count"
        assert len(lines) == 3

    def test_quantiles_csv(self, tmp_path):
        rng = np.random.Generator(np.random.Philox(key=9))
        rq = rolling_quantiles(rng.uniform(40, 180, 150), rng.normal(100, 10, 150), window=50)
        path = tmp_path / "quantiles.csv"
        write_quantiles_csv(rq, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "center_bodyweight_kg,q0.05,q0.25,q0.5,q0.75,q0.95"
        assert len(lines) == 1 + rq.values.shape[0]

    def test_distribution_csv(self, tmp_path):
        rng = np.random.Generator(np.random.Philox(key=10))
        dist = score_distribution(rng.normal(100, 10, 1_000))
        path = tmp_path / "distribution.csv"
        write_distribution_csv(dist, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "bin_left,bin_right,count"
        counts = [int(line.rsplit(",", 1)[1]) for line in lines[1:]]
        assert sum(counts) == 1_000


def write_rows_reference(path, header, rows) -> None:
    """One ``writerow`` per row, floats as ``repr`` strings: the bytes every export must keep."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([cell if isinstance(cell, int) else repr(float(cell)) for cell in row])


edge_floats = st.one_of(
    st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 1e-300, -1e-300, 5e-324, 1.7976931348623157e308]),
    st.floats(allow_nan=True, allow_infinity=True),
)
big_counts = st.one_of(st.sampled_from([0, 1, 2**31, 2**53 + 1, 2**63 - 1]), st.integers(0, 2**63 - 1))


class TestCsvExportBytes:
    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(edge_floats, edge_floats, big_counts), max_size=6))
    def test_myriad_csv(self, rows):
        bins = MyriadBins(
            group_size=2,
            mean_bodyweight_kg=np.array([r[0] for r in rows], dtype=float),
            mean_total_kg=np.array([r[1] for r in rows], dtype=float),
            counts=np.array([r[2] for r in rows], dtype=np.int64),
        )
        self.assert_same_bytes(
            lambda path: write_myriad_csv(bins, path), ["mean_bodyweight_kg", "mean_total_kg", "count"], rows
        )

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 4).flatmap(lambda k: st.lists(st.lists(edge_floats, min_size=k + 1, max_size=k + 1), max_size=6)))
    def test_quantiles_csv(self, rows):
        levels = (0.05, 0.25, 0.5, 0.75)[: len(rows[0]) - 1] if rows else (0.5,)
        rq = RollingQuantiles(
            window=3,
            levels=levels,
            center_bodyweight_kg=np.array([r[0] for r in rows], dtype=float),
            values=np.array([r[1:] for r in rows], dtype=float).reshape(len(rows), len(levels)),
        )
        header = ["center_bodyweight_kg"] + [f"q{level:g}" for level in levels]
        self.assert_same_bytes(lambda path: write_quantiles_csv(rq, path), header, rows)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(edge_floats, min_size=1, max_size=7), st.data())
    def test_distribution_csv(self, edges, data):
        counts = data.draw(st.lists(big_counts, min_size=len(edges) - 1, max_size=len(edges) - 1))
        dist = ScoreDistribution(
            mean=0.0,
            std=1.0,
            skewness=0.0,
            excess_kurtosis=0.0,
            histogram_edges=np.array(edges, dtype=float),
            histogram_counts=np.array(counts, dtype=np.int64),
            gaussian_mean=0.0,
            gaussian_std=1.0,
        )
        rows = list(zip(edges[:-1], edges[1:], counts))
        self.assert_same_bytes(lambda path: write_distribution_csv(dist, path), ["bin_left", "bin_right", "count"], rows)

    @staticmethod
    def assert_same_bytes(write, header, rows):
        with tempfile.TemporaryDirectory() as tmp:
            got, want = Path(tmp) / "got.csv", Path(tmp) / "want.csv"
            write_rows_reference(want, header, rows)
            for block_rows in (1, 2, diagnostics._WRITE_ROWS):
                with mock.patch.object(diagnostics, "_WRITE_ROWS", block_rows):
                    write(got)
                assert got.read_bytes() == want.read_bytes(), block_rows
