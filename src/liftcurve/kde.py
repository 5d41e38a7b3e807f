"""Gaussian kernel density estimation of the bodyweight distribution.

The estimate is ``g(x) = (1/(n*h)) * sum_i K((x_i - x)/h)`` with the
standard Gaussian kernel ``K(u) = exp(-u^2/2)/sqrt(2*pi)`` and a Scott's
rule bandwidth. Two bandwidth conventions are supported:

* ``StdScaled`` (default): ``h = sample_std * n**(-1/5)`` -- the spread-
  scaled rule used by mainstream KDE implementations.
* ``PaperLiteral``: ``h = n**(-1/5)`` -- a bare number applied as kg,
  kept behind a flag for exact replication of pipelines that use it.

Evaluation is direct O(n*m) (no tree or FFT approximation). The sample
is cut into point blocks at fixed edges, and each block's kernel terms for
a few evaluation points at a time are computed in one small tile buffer
that is reused throughout and stays in cache. A point's density is the
sum of its per-block row sums in block order, and each row is summed on
its own, so the result is bit-stable for a given model: it does not
depend on how many points are evaluated together.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

_SQRT_2PI = math.sqrt(2.0 * math.pi)

# Point-block edges are a fixed constant so that summation order, and
# therefore the exact float result, never depends on the environment.
_POINT_CHUNK = 8192
# Kernel terms per tile (1 MiB of float64); sets only how many evaluation
# points share a tile, which changes no bit of the result.
_TILE_PAIRS = 2**17


class BandwidthMode(enum.Enum):
    PAPER_LITERAL = "paper"
    STD_SCALED = "scaled"


def scott_bandwidth(
    n: int,
    sample_std: float | None = None,
    mode: BandwidthMode = BandwidthMode.STD_SCALED,
) -> float:
    """Scott's-rule bandwidth for a sample of size ``n``.

    ``sample_std`` (kg) is required for ``StdScaled`` and ignored for
    ``PaperLiteral``. Raises :class:`ValueError` for ``n < 2``.
    """
    if n < 2:
        raise ValueError(f"bandwidth needs at least 2 points, got n={n}")
    factor = float(n) ** -0.2
    if mode is BandwidthMode.PAPER_LITERAL:
        return factor
    if sample_std is None or not sample_std > 0:
        raise ValueError(f"StdScaled mode needs a positive sample_std, got {sample_std!r}")
    return sample_std * factor


@dataclass(frozen=True)
class KdeModel:
    """Fitted density model: sample points plus a positive bandwidth (kg)."""

    points: np.ndarray
    bandwidth: float

    def __post_init__(self) -> None:
        pts = np.array(self.points, dtype=float)
        if pts.ndim != 1 or pts.size < 1:
            raise ValueError("points must be a non-empty 1-d array")
        if not np.all(np.isfinite(pts)):
            raise ValueError("points must be finite")
        if not (np.isfinite(self.bandwidth) and self.bandwidth > 0):
            raise ValueError(f"bandwidth must be positive, got {self.bandwidth!r}")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    @property
    def n(self) -> int:
        return self.points.size


def fit_kde(points, mode: BandwidthMode = BandwidthMode.STD_SCALED) -> KdeModel:
    """Fit a :class:`KdeModel` to a sample of bodyweights.

    Every point is kept: evaluation is exact over the whole sample, and
    the bandwidth follows ``mode`` from the sample's size and spread.
    """
    pts = np.asarray(points, dtype=float).ravel()
    if pts.size < 2:
        raise ValueError(f"KDE fit needs at least 2 points, got {pts.size}")
    if not np.all(np.isfinite(pts)):
        raise ValueError("points must be finite")
    std = float(np.std(pts, ddof=1))
    return KdeModel(points=pts, bandwidth=scott_bandwidth(pts.size, std, mode))


def density_batch(model: KdeModel, xs) -> np.ndarray:
    """Density (kg^-1) at each evaluation point.

    Direct summation over all model points, one tile of at most
    ``_TILE_PAIRS`` kernel terms at a time; strictly positive for finite
    inputs near the sample.
    """
    eval_x = np.asarray(xs, dtype=float).ravel()
    if not np.all(np.isfinite(eval_x)):
        raise ValueError("evaluation points must be finite")
    pts = model.points
    width = min(pts.size, _POINT_CHUNK)
    rows = _TILE_PAIRS // width
    tile = np.empty(min(rows, eval_x.size) * width)
    c = -0.5 / model.bandwidth**2
    out = np.zeros(eval_x.size)
    for i in range(0, eval_x.size, rows):
        chunk = eval_x[i : i + rows, None]
        acc = out[i : i + rows]
        for j in range(0, pts.size, _POINT_CHUNK):
            block = pts[j : j + _POINT_CHUNK]
            z = tile[: chunk.size * block.size].reshape(chunk.size, block.size)
            np.subtract(block, chunk, out=z)
            np.square(z, out=z)
            z *= c
            np.exp(z, out=z)
            acc += z.sum(axis=1)
    out /= model.n * model.bandwidth * _SQRT_2PI
    return out


def density(model: KdeModel, x: float) -> float:
    """Density (kg^-1) at a single point; equals ``density_batch`` elementwise."""
    return float(density_batch(model, np.asarray([x]))[0])

