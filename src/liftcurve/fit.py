"""Nonlinear least squares for growth-curve parameters.

Both families are linear in the amplitude ``L``: ``f(x) = L * g(x; k, x0)``.
Ingest rounds bodyweights to 0.01 kg, so rows pile up on few distinct
bodyweights. :func:`fit` therefore runs over the distinct bodyweights
``x_j``, each with its row count ``n_j`` and mean total ``ybar_j``:
``sum_i (f(x_i) - y_i)^2 = sum_j n_j (f(x_j) - ybar_j)^2 + const``, so both
sums have the same minimiser. For any ``(k, x0)`` the best amplitude has the
closed form ``L* = clip(sum n g ybar / sum n g^2, L_lo, L_hi)``, and the fit
minimises ``sum n (L* g - ybar)^2`` over ``(k, x0)`` alone (variable
projection, Golub & Pereyra 1973) with one bounded trust-region-reflective
``scipy.optimize.least_squares`` call and the exact Jacobian of that
reduced residual, started from the ``(k, x0)`` of :func:`auto_init` inside
:func:`default_bounds`. The solver's ``ftol``, ``xtol`` and ``gtol`` are all
:data:`TOLERANCE`. The reported SSE and RMSE are over every input row.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .models import GrowthParams, ModelFamily, param_gradient

Bounds = tuple[tuple[float, float], tuple[float, float], tuple[float, float]]

TOLERANCE = 1e-10  # the solver's ftol, xtol and gtol


@dataclass(frozen=True)
class FitConfig:
    """Solver configuration: the curve family and a cap on function evaluations.

    The solver stops at :data:`TOLERANCE` or at ``max_iterations``.
    """

    family: ModelFamily
    max_iterations: int = 200

    def __post_init__(self) -> None:
        if self.max_iterations < 1:
            raise ValueError(f"max_iterations must be >= 1, got {self.max_iterations}")


@dataclass(frozen=True)
class FitResult:
    params: GrowthParams
    sse: float
    rmse: float
    iterations: int  # function evaluations
    converged: bool
    covariance_proxy: np.ndarray  # (J^T J)^-1 scaled by residual variance
    # per (L, k, x0): -1 on the lower bound, +1 on the upper bound, 0 inside
    active_bounds: tuple[int, int, int]

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
            "active_bounds": list(self.active_bounds),
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


def auto_init(x, y, family: ModelFamily) -> GrowthParams:
    """Data-driven starting point.

    ``L0 = 1.05*max(y)``; ``k0 = 2/range(x)``; the location starts below
    the data for Von Bertalanffy and two rate lengths under the median
    for the logistic. The result is projected into :func:`default_bounds`.
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
    lo, hi = np.array(default_bounds(x, y)).T
    L0, k0, x0 = np.clip([L0, k0, x0], lo, hi)
    return GrowthParams(family=family, L=float(L0), k=float(k0), x0=float(x0))


def fit(x, y, config: FitConfig) -> FitResult:
    """Fit growth-curve parameters to ``(bodyweight, total)`` data.

    The solver runs over the distinct bodyweights (see the module
    docstring); ``sse``, ``rmse`` and ``covariance_proxy`` are those of the
    fitted curve on every row. Deterministic for fixed data and config. A
    fit that stops at the evaluation cap, or whose ``(k, x0)`` the data do
    not identify (the reduced Jacobian is numerically singular), returns
    ``converged=False`` rather than raising. ``active_bounds`` says which
    parameters the box, not the data, holds: L's from the clip of its
    closed form, k's and x0's from the solver's active set.
    """
    # imported here, not at module level: scipy.optimize takes longer to
    # import than the rest of the package, and only fitting needs it
    from scipy.optimize import least_squares

    x, y = _validate_data(x, y)
    init = auto_init(x, y, config.family)
    (L_lo, L_hi), *nonlinear = default_bounds(x, y)
    lo, hi = np.array(nonlinear).T
    # sqrt(n)-weighted rows over the distinct bodyweights xs: the same J^T J as
    # the full fit, and an SSE short of it by a constant
    xs, group, n = np.unique(x, return_inverse=True, return_counts=True)
    y_sum = np.bincount(group, weights=y)
    y_bar = y_sum / n
    root_n = np.sqrt(n)

    @lru_cache(maxsize=1)  # least_squares asks for the residual and the Jacobian at the same point
    def project(key: bytes):
        """Unit curve g, its (k, x0) columns, n.g^2, the best L and its clipped side (-1, 0 or +1)."""
        grad = param_gradient(GrowthParams(config.family, 1.0, *np.frombuffer(key)), xs)
        g, dg = grad[:, 0], grad[:, 1:]
        ng = n * g
        gg = ng @ g
        L_free = (g @ y_sum) / gg
        side = 0 if L_lo < L_free < L_hi else -1 if L_free <= L_lo else 1
        return g, dg, ng, gg, min(max(L_free, L_lo), L_hi), side

    def residual(theta: np.ndarray) -> np.ndarray:
        g, *_, L, _ = project(theta.tobytes())
        return root_n * (L * g - y_bar)

    def jacobian(theta: np.ndarray) -> np.ndarray:
        g, dg, ng, gg, L, side = project(theta.tobytes())
        jac = L * dg
        if not side:  # a clipped L does not move with (k, x0)
            jac += np.outer(g, (dg.T @ y_sum - 2.0 * L * (dg.T @ ng)) / gg)
        return root_n[:, None] * jac

    sol = least_squares(
        residual, [init.k, init.x0], jac=jacobian, bounds=(lo, hi), method="trf",
        x_scale="jac", ftol=TOLERANCE, xtol=TOLERANCE, gtol=TOLERANCE, max_nfev=config.max_iterations,
    )
    # On flat data trf can stop inside the box where the SSE has underflowed,
    # although the minimiser lies on its edge. The reduced Jacobian is then
    # singular in relative (k, x0) units, and the fit is not reported as converged.
    smallest = np.linalg.svd(sol.jac * np.abs(sol.x), compute_uv=False)[-1]
    identified = smallest > np.sqrt(np.finfo(float).eps) * np.linalg.norm(y)

    k, x0 = map(float, sol.x)
    g, *_, L, L_side = project(sol.x.tobytes())
    params = GrowthParams(config.family, float(L), k, x0)
    r = L * g[group] - y
    sse = float(r @ r)
    jac = param_gradient(params, xs)
    dof = max(x.size - 3, 1)
    covariance = (sse / dof) * np.linalg.pinv(jac.T @ (n[:, None] * jac))
    return FitResult(
        params=params,
        sse=sse,
        rmse=float(np.sqrt(sse / x.size)),
        iterations=int(sol.nfev),
        converged=bool(sol.status > 0 and identified),
        covariance_proxy=covariance,
        active_bounds=(L_side, *map(int, sol.active_mask)),
    )
