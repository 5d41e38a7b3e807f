"""Dataset and score-distribution diagnostics.

The figures of merit here are plain data products, ready for external
plotting: bodyweight "myriad" averages (means over consecutive groups of
10,000 bodyweight-sorted results), rolling score quantiles over a sliding
window, score-distribution moments with a moment-matched Gaussian fit,
and the fraction of a sample below a bodyweight threshold.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

DEFAULT_GROUP_SIZE = 10_000
DEFAULT_WINDOW = 100
DEFAULT_LEVELS = (0.05, 0.25, 0.5, 0.75, 0.95)


@dataclass(frozen=True)
class MyriadBins:
    """Per-group means over bodyweight-sorted results."""

    group_size: int
    mean_bodyweight_kg: np.ndarray
    mean_total_kg: np.ndarray
    counts: np.ndarray


@dataclass(frozen=True)
class RollingQuantiles:
    """Score quantile tracks along the bodyweight axis.

    ``values[i, j]`` is the ``levels[j]`` quantile of the scores in the
    i-th window; ``center_bodyweight_kg[i]`` is that window's median
    bodyweight.
    """

    window: int
    levels: tuple[float, ...]
    center_bodyweight_kg: np.ndarray
    values: np.ndarray


@dataclass(frozen=True)
class ScoreDistribution:
    """Moment summary plus histogram of a score sample."""

    mean: float
    std: float
    skewness: float
    excess_kurtosis: float
    histogram_edges: np.ndarray
    histogram_counts: np.ndarray
    gaussian_mean: float
    gaussian_std: float


def myriad_averages(bodyweight_kg, total_kg, group_size: int = DEFAULT_GROUP_SIZE) -> MyriadBins:
    """Mean total per consecutive bodyweight group of ``group_size`` results.

    Results are sorted by bodyweight (ties broken by total, then input
    order) and partitioned into consecutive groups. A trailing partial
    group survives on its own only if it holds at least a tenth of
    ``group_size``; otherwise it merges into the previous group.
    """
    bw = np.asarray(bodyweight_kg, dtype=float).ravel()
    total = np.asarray(total_kg, dtype=float).ravel()
    if bw.size != total.size:
        raise ValueError(f"bodyweight and total lengths differ: {bw.size} vs {total.size}")
    if bw.size == 0:
        raise ValueError("myriad averages need a non-empty sample")
    if group_size < 1:
        raise ValueError(f"group_size must be >= 1, got {group_size}")

    order = np.lexsort((total, bw))  # primary key last
    bw = bw[order]
    total = total[order]

    edges = list(range(0, bw.size, group_size))
    boundaries = edges + [bw.size]
    last = boundaries[-1] - boundaries[-2]
    if len(boundaries) > 2 and 0 < last < group_size / 10:
        boundaries.pop(-2)  # merge runt group into its predecessor

    means_bw, means_total, counts = [], [], []
    for start, stop in zip(boundaries[:-1], boundaries[1:]):
        means_bw.append(bw[start:stop].mean())
        means_total.append(total[start:stop].mean())
        counts.append(stop - start)
    return MyriadBins(
        group_size=group_size,
        mean_bodyweight_kg=np.asarray(means_bw),
        mean_total_kg=np.asarray(means_total),
        counts=np.asarray(counts, dtype=int),
    )


# windows sorted per block: bounds the sorted copy at 4096 * window floats
_WINDOWS_PER_SORT = 4096


def _sorted_quantiles(rows: np.ndarray, levels: tuple[float, ...]) -> np.ndarray:
    """``np.quantile(rows, levels, axis=1, method="linear").T`` for rows already sorted.

    The same arithmetic as numpy's: virtual index ``(w - 1) * q``, then
    ``a + d * g`` below ``g = 0.5`` and ``b - d * (1 - g)`` from it on, with
    ``d = b - a``. A row holding NaN (sorted last) takes that NaN, as in numpy.
    """
    out = np.empty((rows.shape[0], len(levels)))
    for j, q in enumerate(levels):
        index = (rows.shape[1] - 1) * q
        lo = math.floor(index)
        g = index - lo
        a, b = rows[:, lo], rows[:, lo + 1]
        d = b - a
        out[:, j] = a + d * g if g < 0.5 else b - d * (1 - g)
    nan_rows = np.isnan(rows[:, -1])
    out[nan_rows] = rows[nan_rows, -1:]
    return out


def rolling_quantiles(
    bodyweight_kg,
    scores,
    window: int = DEFAULT_WINDOW,
    levels: tuple[float, ...] = DEFAULT_LEVELS,
) -> RollingQuantiles:
    """Empirical score quantiles over a stride-1 sliding bodyweight window.

    Quantiles interpolate linearly between order statistics. The windows
    are sorted in blocks, so the values and centres equal ``np.quantile``
    and ``np.median`` over the sliding view bit for bit, NaN included.
    Raises :class:`ValueError` when the sample is smaller than the window.
    """
    bw = np.asarray(bodyweight_kg, dtype=float).ravel()
    sc = np.asarray(scores, dtype=float).ravel()
    if bw.size != sc.size:
        raise ValueError(f"bodyweight and score lengths differ: {bw.size} vs {sc.size}")
    if window < 2:
        raise ValueError(f"window must be >= 2, got {window}")
    if bw.size < window:
        raise ValueError(f"insufficient data: {bw.size} rows for window {window}")
    levels = tuple(float(q) for q in levels)
    if not all(0 < q < 1 for q in levels):
        raise ValueError(f"quantile levels must lie in (0, 1), got {levels}")
    if any(b <= a for a, b in zip(levels, levels[1:])):
        raise ValueError(f"quantile levels must be strictly increasing, got {levels}")

    order = np.argsort(bw, kind="stable")
    bw = bw[order]
    sc = sc[order]
    score_windows = sliding_window_view(sc, window)
    values = np.empty((score_windows.shape[0], len(levels)))
    for start in range(0, score_windows.shape[0], _WINDOWS_PER_SORT):
        chunk = np.sort(score_windows[start : start + _WINDOWS_PER_SORT], axis=1)
        values[start : start + chunk.shape[0]] = _sorted_quantiles(chunk, levels)
    # bw is sorted (NaN last), so each window's median is its middle element
    # or the mean of its middle two, and a window holding NaN ends in one
    half = window // 2
    if window % 2:
        centers = bw[half : bw.size - half]
    else:
        centers = (bw[half - 1 : bw.size - half] + bw[half : bw.size - half + 1]) / 2
    last = bw[window - 1 :]
    centers = np.where(np.isnan(last), last, centers)
    return RollingQuantiles(
        window=window,
        levels=levels,
        center_bodyweight_kg=centers,
        values=values,
    )


def score_distribution(scores) -> ScoreDistribution:
    """Moment summary of a score sample with a moment-matched Gaussian fit.

    Skewness is ``m3 / m2**1.5`` and excess kurtosis ``m4 / m2**2 - 3``
    with ``m_k`` the (biased) sample central moments; the Gaussian fit is
    the matching ``(mean, sqrt(m2))``. The histogram uses the
    Freedman-Diaconis bin width.
    """
    sc = np.asarray(scores, dtype=float).ravel()
    if sc.size < 2:
        raise ValueError(f"score distribution needs at least 2 scores, got {sc.size}")
    if not np.all(np.isfinite(sc)):
        raise ValueError("scores must be finite")
    mean = float(sc.mean())
    centered = sc - mean
    m2 = float(np.mean(centered**2))
    if m2 <= 0:
        raise ValueError("degenerate score distribution: zero variance")
    m3 = float(np.mean(centered**3))
    m4 = float(np.mean(centered**4))
    std = float(np.sqrt(m2))
    counts, edges = np.histogram(sc, bins="fd")
    return ScoreDistribution(
        mean=mean,
        std=std,
        skewness=m3 / m2**1.5,
        excess_kurtosis=m4 / m2**2 - 3.0,
        histogram_edges=edges,
        histogram_counts=counts,
        gaussian_mean=mean,
        gaussian_std=std,
    )


def fraction_below(bodyweight_kg, threshold_kg: float) -> float:
    """Share of the sample strictly below ``threshold_kg``."""
    bw = np.asarray(bodyweight_kg, dtype=float).ravel()
    if bw.size == 0:
        raise ValueError("fraction_below needs a non-empty sample")
    return float(np.count_nonzero(bw < threshold_kg)) / bw.size


# Tidy CSV exports (one row per bin / window position).

_WRITE_ROWS = 4096


def _write_columns(fh, *columns) -> None:
    """Write equal-length columns as rows, a block of rows at a time.

    Each cell is the ``repr`` of its value, which is how :mod:`csv` writes a
    float or an int, and neither is ever quoted; ``tolist`` keeps integer
    counts as ints, and blocks keep the Python copies of the columns small.
    """
    row = ",".join(["%r"] * len(columns)) + "\r\n"
    for i in range(0, len(columns[0]), _WRITE_ROWS):
        fh.writelines(map(row.__mod__, zip(*(column[i : i + _WRITE_ROWS].tolist() for column in columns))))


def write_myriad_csv(bins: MyriadBins, path) -> None:
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(["mean_bodyweight_kg", "mean_total_kg", "count"])
        _write_columns(fh, bins.mean_bodyweight_kg, bins.mean_total_kg, bins.counts)


def write_quantiles_csv(rq: RollingQuantiles, path) -> None:
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(["center_bodyweight_kg"] + [f"q{level:g}" for level in rq.levels])
        _write_columns(fh, rq.center_bodyweight_kg, *rq.values.T)


def write_distribution_csv(dist: ScoreDistribution, path) -> None:
    edges = dist.histogram_edges
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(["bin_left", "bin_right", "count"])
        _write_columns(fh, edges[:-1], edges[1:], dist.histogram_counts)
