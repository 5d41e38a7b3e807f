"""Nonlinear least squares for growth-curve parameters.

Both families are linear in the amplitude ``L``: ``f(x) = L * g(x; k, x0)``.
So for any ``(k, x0)`` the best amplitude has the closed form
``L* = clip(g.y / g.g, L_lo, L_hi)``, and :func:`fit` minimises
``sum((L* g(x_i) - y_i)^2)`` over ``(k, x0)`` alone (variable projection,
Golub & Pereyra 1973) with one bounded trust-region-reflective
``scipy.optimize.least_squares`` call and the exact Jacobian of that
reduced residual. ``init.L`` is therefore unused; ``tolerance`` is the
solver's ``ftol``, ``xtol`` and ``gtol``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .models import GrowthParams, ModelFamily, param_gradient

Bounds = tuple[tuple[float, float], tuple[float, float], tuple[float, float]]


@dataclass(frozen=True)
class FitConfig:
    """Solver configuration; ``init=None`` triggers :func:`auto_init`.

    Only ``init.k`` and ``init.x0`` are used: ``L`` is solved in closed
    form. ``max_iterations`` caps function evaluations, and ``tolerance``
    is the solver's ``ftol``, ``xtol`` and ``gtol``.
    """

    family: ModelFamily
    init: GrowthParams | None = None
    bounds: Bounds | None = None
    max_iterations: int = 200
    tolerance: float = 1e-10

    def __post_init__(self) -> None:
        if self.tolerance <= 0:
            raise ValueError(f"tolerance must be positive, got {self.tolerance}")
        if self.max_iterations < 1:
            raise ValueError(f"max_iterations must be >= 1, got {self.max_iterations}")
        if self.bounds is not None:
            for lo, hi in self.bounds:
                if not lo < hi:
                    raise ValueError(f"bounds need lo < hi, got ({lo}, {hi})")


@dataclass(frozen=True)
class FitResult:
    params: GrowthParams
    sse: float
    rmse: float
    iterations: int  # function evaluations
    converged: bool
    covariance_proxy: np.ndarray  # (J^T J)^-1 scaled by residual variance

    def to_record(self) -> dict:
        """Serialisable summary (internal kg units)."""
        return {
            "family": self.params.family.value,
            "L": self.params.L,
            "k": self.params.k,
            "x0": self.params.x0,
            "sse": self.sse,
            "rmse": self.rmse,
            "iterations": self.iterations,
            "converged": self.converged,
        }


def _validate_data(x, y) -> tuple[np.ndarray, np.ndarray]:
    x = np.asarray(x, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    if x.size != y.size:
        raise ValueError(f"x and y lengths differ: {x.size} vs {y.size}")
    if x.size < 10:
        raise ValueError(f"insufficient data: need at least 10 points, got {x.size}")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise ValueError("data must be finite")
    if not (np.all(x > 0) and np.all(y > 0)):
        raise ValueError("data must be positive (kg)")
    return x, y


def default_bounds(x: np.ndarray, y: np.ndarray) -> Bounds:
    """Box bounds that keep the exponentials from running away.

    L in (0, 3*max(y)], k in [1e-4, 1], x0 in [-100, min(x)+100].
    """
    y_max = float(np.max(y))
    return (
        (1e-9 * y_max, 3.0 * y_max),
        (1e-4, 1.0),
        (-100.0, float(np.min(x)) + 100.0),
    )


def auto_init(x, y, family: ModelFamily, bounds: Bounds | None = None) -> GrowthParams:
    """Data-driven starting point.

    ``L0 = 1.05*max(y)``; ``k0 = 2/range(x)``; the location starts below
    the data for Von Bertalanffy and two rate lengths under the median
    for the logistic. The result is projected into ``bounds``.
    """
    x, y = _validate_data(x, y)
    x_range = float(np.max(x) - np.min(x))
    if x_range <= 0:
        raise ValueError("degenerate x-range: max(x) == min(x)")
    L0 = 1.05 * float(np.max(y))
    k0 = 2.0 / x_range
    if family is ModelFamily.VON_BERTALANFFY:
        x0 = 0.25 * float(np.quantile(x, 0.01))
    else:
        x0 = float(np.median(x)) - 2.0 / k0
    if bounds is None:
        bounds = default_bounds(x, y)
    lo, hi = np.array(bounds).T
    L0, k0, x0 = np.clip([L0, k0, x0], lo, hi)
    return GrowthParams(family=family, L=float(L0), k=float(k0), x0=float(x0))


def fit(x, y, config: FitConfig) -> FitResult:
    """Fit growth-curve parameters to ``(bodyweight, total)`` data.

    Deterministic for fixed data and config. A fit that stops at the
    evaluation cap, or whose ``(k, x0)`` the data do not identify (the
    reduced Jacobian is numerically singular), returns ``converged=False``
    rather than raising.
    """
    # imported here, not at module level: scipy.optimize takes longer to
    # import than the rest of the package, and only fitting needs it
    from scipy.optimize import least_squares

    x, y = _validate_data(x, y)
    bounds = config.bounds if config.bounds is not None else default_bounds(x, y)
    init = config.init if config.init is not None else auto_init(x, y, config.family, bounds)
    (L_lo, L_hi), *nonlinear = bounds
    lo, hi = np.array(nonlinear).T

    @lru_cache(maxsize=1)  # least_squares asks for the residual and the Jacobian at the same point
    def project(key: bytes):
        """Unit curve g, its (k, x0) columns, g.g, the best L and whether L is clipped."""
        grad = param_gradient(GrowthParams(config.family, 1.0, *np.frombuffer(key)), x)
        g, dg = grad[:, 0], grad[:, 1:]
        gg = g @ g
        L_free = (g @ y) / gg
        return g, dg, gg, min(max(L_free, L_lo), L_hi), not L_lo < L_free < L_hi

    def residual(theta: np.ndarray) -> np.ndarray:
        g, _, _, L, _ = project(theta.tobytes())
        return L * g - y

    def jacobian(theta: np.ndarray) -> np.ndarray:
        g, dg, gg, L, clipped = project(theta.tobytes())
        if clipped:
            return L * dg
        dL = (dg.T @ y - 2.0 * L * (dg.T @ g)) / gg
        return L * dg + np.outer(g, dL)

    tol = config.tolerance
    sol = least_squares(
        residual, np.clip([init.k, init.x0], lo, hi), jac=jacobian, bounds=(lo, hi),
        method="trf", x_scale="jac", ftol=tol, xtol=tol, gtol=tol, max_nfev=config.max_iterations,
    )
    # On flat data trf can stop inside the box where the SSE has underflowed,
    # although the minimiser lies on its edge. The reduced Jacobian is then
    # singular in relative (k, x0) units, and the fit is not reported as converged.
    smallest = np.linalg.svd(sol.jac * np.abs(sol.x), compute_uv=False)[-1]
    identified = smallest > np.sqrt(np.finfo(float).eps) * np.linalg.norm(y)

    k, x0 = map(float, sol.x)
    params = GrowthParams(config.family, float(project(sol.x.tobytes())[3]), k, x0)
    sse = float(sol.fun @ sol.fun)
    jac = param_gradient(params, x)
    dof = max(x.size - 3, 1)
    covariance = (sse / dof) * np.linalg.pinv(jac.T @ jac)
    return FitResult(
        params=params,
        sse=sse,
        rmse=float(np.sqrt(sse / x.size)),
        iterations=int(sol.nfev),
        converged=bool(sol.status > 0 and identified),
        covariance_proxy=covariance,
    )
