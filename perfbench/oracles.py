"""Oracles that check the program's outputs, independent of its code.

Each check reports an error and the tolerance it must stay within. Errors
are relative (``|got - want| / |want|``) unless a check says otherwise.
Closed forms are recomputed here with numpy from the published constants;
least-squares fits are checked against ``scipy.optimize.least_squares``.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import least_squares

# Tolerances, fixed from float64 rounding of the compared computations.
KDE_TOL = 1e-9  # chunked vs. one-pass summation of up to ~1e5 terms
CLOSED_FORM_TOL = 1e-10
SSE_GAP_TOL = 1e-6  # program SSE above the best scipy SSE, relative
PRINTED_TOL = 1e-9  # error beyond the rounding of a printed value

# Published coefficients: original Wilks (C = 500) and IPF GL (raw SBD).
WILKS = {
    "M": (-216.0475144, 16.2606339, -0.002388645, -0.00113732, 7.01863e-06, -1.291e-08, 500.0),
    "F": (594.31747775582, -27.23842536447, 0.82112226871, -0.00930733913, 4.731582e-05, -9.054e-08, 500.0),
}
IPF_GL = {"M": (1199.72839, 1025.18162, 0.00921), "F": (610.32796, 1045.59282, 0.03048)}


class Oracle:
    """Collects check outcomes; ``failures`` lists the checks that failed."""

    def __init__(self) -> None:
        self.worst: dict[str, tuple[float, float]] = {}
        self.failures: list[str] = []

    def measure(self, name: str, error: float, tol: float) -> bool:
        """Record an error against its tolerance without failing the run."""
        error = float(error)
        prev = self.worst.get(name, (0.0, tol))[0]
        self.worst[name] = (max(prev, error) if math.isfinite(error) else math.inf, tol)
        return math.isfinite(error) and error <= tol

    def check(self, name: str, error: float, tol: float) -> bool:
        ok = self.measure(name, error, tol)
        if not ok:
            self.failures.append(f"{name}: error {float(error):.3g} > tolerance {tol:.3g}")
        return ok

    def close(self, name: str, got, want, tol: float) -> bool:
        return self.check(name, rel_err(got, want), tol)

    def exact(self, name: str, got, want) -> bool:
        ok = got == want
        self.worst.setdefault(name, (0.0, 0.0))
        if not ok:
            self.worst[name] = (math.inf, 0.0)
            self.failures.append(f"{name}: got {got!r}, want {want!r}")
        return ok

    @property
    def max_rel_err(self) -> float:
        return max((err for err, _ in self.worst.values()), default=0.0)


def rel_err(got, want) -> float:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return math.inf
    if got.size == 0:
        return 0.0
    scale = np.maximum(np.abs(want), np.finfo(float).tiny)
    return float(np.max(np.abs(got - want) / scale))


def printed_err(printed, exact, decimals: int) -> float:
    """Relative error of printed values beyond their rounding to ``decimals``."""
    printed = np.asarray(printed, dtype=float)
    exact = np.asarray(exact, dtype=float)
    if printed.shape != exact.shape:
        return math.inf
    if printed.size == 0:
        return 0.0
    slack = 0.5 * 10.0**-decimals
    excess = np.maximum(np.abs(printed - exact) - slack * (1 + 1e-9), 0.0)
    return float(np.max(excess / np.maximum(np.abs(exact), np.finfo(float).tiny)))


# KDE


def scott_bandwidth(points) -> float:
    pts = np.asarray(points, dtype=float)
    return float(np.std(pts, ddof=1)) * pts.size**-0.2


def kde_density(points, bandwidth: float, xs) -> np.ndarray:
    """Direct one-pass float64 Gaussian KDE sum at each of ``xs``."""
    pts = np.asarray(points, dtype=float)
    out = np.empty(len(xs))
    for i, x in enumerate(np.asarray(xs, dtype=float)):
        u = (pts - x) / bandwidth
        out[i] = np.sum(np.exp(-0.5 * u * u)) / (pts.size * bandwidth * math.sqrt(2 * math.pi))
    return out


# Growth curves and scores


def curve(family: str, L: float, k: float, x0: float, x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if family == "von_bertalanffy":
        return L * (1.0 - np.exp(-k * (x - x0)))
    return L * (1.0 / (1.0 + np.exp(-k * (x - x0))) - 1.0 / (1.0 + math.exp(k * x0)))


def curve_jacobian(family: str, theta, x) -> np.ndarray:
    L, k, x0 = theta
    if family == "von_bertalanffy":
        e = np.exp(-k * (x - x0))
        return np.stack([1.0 - e, L * (x - x0) * e, -L * k * e], axis=1)
    s = 1.0 / (1.0 + np.exp(-k * (x - x0)))
    c = 1.0 / (1.0 + math.exp(k * x0))
    ds = s * (1.0 - s)
    dc = c * (1.0 - c)
    return np.stack([s - c, L * ((x - x0) * ds + x0 * dc), L * k * (dc - ds)], axis=1)


def curve_slopes(family: str, theta, x) -> tuple[np.ndarray, np.ndarray]:
    """First and second derivative of the curve in bodyweight."""
    L, k, x0 = theta
    if family == "von_bertalanffy":
        e = np.exp(-k * (x - x0))
        return L * k * e, -L * k * k * e
    s = 1.0 / (1.0 + np.exp(-k * (x - x0)))
    return L * k * s * (1 - s), L * k * k * s * (1 - s) * (1 - 2 * s)


def wilks(sex: str, bodyweight, total) -> np.ndarray:
    a, b, c, d, e, f, C = WILKS[sex]
    x = np.asarray(bodyweight, dtype=float)
    return C * np.asarray(total, dtype=float) / (a + b * x + c * x**2 + d * x**3 + e * x**4 + f * x**5)


def ipf_gl(sex: str, bodyweight, total) -> np.ndarray:
    A, B, C = IPF_GL[sex]
    return 100.0 * np.asarray(total, dtype=float) / (A - B * np.exp(-C * np.asarray(bodyweight, dtype=float)))


def model_score(family: str, params, bodyweight, total) -> np.ndarray:
    return 100.0 * np.asarray(total, dtype=float) / curve(family, *params, bodyweight)


# Least squares


def box_bounds(x, y) -> tuple[list[float], list[float]]:
    """The program's documented default box: L in (0, 3 max y], k in [1e-4, 1], x0 in [-100, min x + 100]."""
    y_max = float(np.max(y))
    return [1e-9 * y_max, 1e-4, -100.0], [3.0 * y_max, 1.0, float(np.min(x)) + 100.0]


def sse(family: str, params, x, y) -> float:
    r = np.asarray(y, dtype=float) - curve(family, *params, x)
    return float(r @ r)


def best_sse(family: str, x, y, starts) -> float:
    """Lowest SSE scipy's bounded trust-region solver reaches from any of ``starts``."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    lo, hi = box_bounds(x, y)
    best = math.inf
    for start in starts:
        theta0 = np.clip(np.asarray(start, dtype=float), lo, hi)
        result = least_squares(
            lambda t: curve(family, *t, x) - y,
            theta0,
            jac=lambda t: curve_jacobian(family, t, x),
            bounds=(lo, hi),
            method="trf",
            x_scale="jac",
            ftol=1e-12,
            xtol=1e-12,
            gtol=1e-12,
            max_nfev=2000,
        )
        best = min(best, sse(family, result.x, x, y))
    return best


def independent_start(family: str, x, y) -> tuple[float, float, float]:
    """A start taken from the data alone: amplitude above the top total, rate from the range."""
    x = np.asarray(x, dtype=float)
    L0 = 1.1 * float(np.max(y))
    k0 = 3.0 / float(np.max(x) - np.min(x))
    x0 = 0.0 if family == "von_bertalanffy" else float(np.median(x))
    return L0, k0, x0


def sse_gap(family: str, params, x, y) -> float:
    """Relative excess of the program's SSE over the best scipy SSE (<= 0 is no gap)."""
    ours = sse(family, params, x, y)
    best = best_sse(family, x, y, [params, independent_start(family, x, y)])
    return (ours - best) / best


# Diagnostics


def myriad(bodyweight, total, group: int = 10_000) -> tuple[np.ndarray, np.ndarray]:
    """Group means over bodyweight-sorted results, a runt tail merged into its predecessor."""
    bw = np.asarray(bodyweight, dtype=float)
    tot = np.asarray(total, dtype=float)
    order = np.lexsort((tot, bw))
    bw, tot = bw[order], tot[order]
    cuts = list(range(0, bw.size, group)) + [bw.size]
    if len(cuts) > 2 and 0 < cuts[-1] - cuts[-2] < group / 10:
        del cuts[-2]
    pairs = list(zip(cuts[:-1], cuts[1:]))
    return (
        np.array([bw[a:b].mean() for a, b in pairs]),
        np.array([tot[a:b].mean() for a, b in pairs]),
    )


def rolling_quantile_rows(bodyweight, scores, window: int, rows, levels) -> np.ndarray:
    """Quantiles of the scores in the given stride-1 windows over bodyweight order."""
    order = np.argsort(np.asarray(bodyweight, dtype=float), kind="stable")
    sc = np.asarray(scores, dtype=float)[order]
    return np.array([np.quantile(sc[r : r + window], levels) for r in rows])
