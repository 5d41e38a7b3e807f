"""Growth-model families mapping bodyweight to expected total strength.

Two saturating families are provided:

* Von Bertalanffy, ``f(x) = L * (1 - exp(-k*(x - x0)))`` -- strictly
  increasing with diminishing returns everywhere and supremum ``L``.
* Offset logistic, ``f(x) = L * (sigmoid(k*(x - x0)) - sigmoid(-k*x0))`` --
  increasing returns below ``x0``, diminishing above, and ``f(0) = 0``
  exactly by construction of the subtracted constant.

Parameters are kept in plain kg / kg^-1 internally; the ``1e2 kg`` and
``1e-2 kg^-1`` scalings used by published coefficient tables are applied
only in :func:`to_table_record` / :func:`from_table_record`.

All evaluation functions are pure, vectorised over bodyweight, and accept
scalars or array-likes (returning a matching shape).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np


class ModelFamily(enum.Enum):
    """Supported growth-curve families."""

    VON_BERTALANFFY = "von_bertalanffy"
    LOGISTIC = "logistic"


_FAMILY_ALIASES = {
    "von_bertalanffy": ModelFamily.VON_BERTALANFFY,
    "vonbertalanffy": ModelFamily.VON_BERTALANFFY,
    "vb": ModelFamily.VON_BERTALANFFY,
    "logistic": ModelFamily.LOGISTIC,
}


def parse_family(tag: str | ModelFamily) -> ModelFamily:
    """Map a family tag (``"vb"``, ``"logistic"``, ...) to :class:`ModelFamily`."""
    if isinstance(tag, ModelFamily):
        return tag
    try:
        return _FAMILY_ALIASES[tag.strip().lower().replace("-", "_")]
    except (KeyError, AttributeError):
        raise ValueError(f"unknown model family tag: {tag!r}") from None


@dataclass(frozen=True)
class GrowthParams:
    """Parameters of one growth curve.

    Attributes
    ----------
    family : ModelFamily
        Curve family the parameters belong to.
    L : float
        Amplitude in kg; must be positive.
    k : float
        Rate in kg^-1; must be positive.
    x0 : float
        Location in kg (Von Bertalanffy zero crossing, logistic midpoint).
    """

    family: ModelFamily
    L: float
    k: float
    x0: float

    def __post_init__(self) -> None:
        for name in ("L", "k", "x0"):
            value = getattr(self, name)
            if not np.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if self.L <= 0:
            raise ValueError(f"L must be positive, got {self.L}")
        if self.k <= 0:
            raise ValueError(f"k must be positive, got {self.k}")


def _expit(u):
    # scipy.special is imported on first use: it takes longer to import than the rest
    # of the package. 1 / (1 + np.exp(-u)) would differ from it in the last bit.
    from scipy.special import expit

    return expit(u)


def _validated_x(x) -> tuple[np.ndarray, bool]:
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError("bodyweight input must be finite")
    return arr, arr.ndim == 0


def _finish(out: np.ndarray, scalar: bool):
    return out.item() if scalar else out


def evaluate(params: GrowthParams, x):
    """Expected total (kg) at bodyweight ``x`` (kg).

    Evaluation is defined for all real ``x``; scoring callers are expected
    to guard ``x > 0`` themselves.
    """
    arr, scalar = _validated_x(x)
    u = params.k * (arr - params.x0)
    if params.family is ModelFamily.VON_BERTALANFFY:
        out = params.L * -np.expm1(-u)
    else:
        # sigma(k*(0 - x0)) and the offset are the same expression, so
        # f(0) == 0 holds bit-exactly.
        out = params.L * (_expit(u) - _expit(-params.k * params.x0))
    return _finish(out, scalar)


def first_derivative(params: GrowthParams, x):
    """Analytic df/dx in kg per kg.

    For the offset logistic this is the exact derivative of the shifted
    curve, ``L*k*sigma*(1 - sigma)``; the subtracted constant has zero
    slope.
    """
    arr, scalar = _validated_x(x)
    u = params.k * (arr - params.x0)
    if params.family is ModelFamily.VON_BERTALANFFY:
        out = params.L * params.k * np.exp(-u)
    else:
        out = params.L * params.k * _expit(u) * _expit(-u)
    return _finish(out, scalar)


def second_derivative(params: GrowthParams, x):
    """Analytic d2f/dx2 in kg per kg^2.

    Von Bertalanffy is concave wherever ``f < L``; the logistic changes
    sign at ``x0`` (positive below, negative above).
    """
    arr, scalar = _validated_x(x)
    u = params.k * (arr - params.x0)
    if params.family is ModelFamily.VON_BERTALANFFY:
        out = -params.L * params.k**2 * np.exp(-u)
    else:
        s = _expit(u)
        s_c = _expit(-u)
        out = params.L * params.k**2 * s * s_c * (s_c - s)
    return _finish(out, scalar)


def inflection_point(params: GrowthParams) -> float | None:
    """Bodyweight where curvature changes sign, or ``None`` if it never does."""
    if params.family is ModelFamily.LOGISTIC:
        return params.x0
    return None


def asymptote(params: GrowthParams) -> float:
    """Supremum of the curve as bodyweight grows without bound (kg)."""
    if params.family is ModelFamily.VON_BERTALANFFY:
        return params.L
    return float(params.L * _expit(params.k * params.x0))


def param_gradient(params: GrowthParams, x) -> np.ndarray:
    """Gradient of ``f(x)`` with respect to ``(L, k, x0)``.

    Returns an array of shape ``x.shape + (3,)`` with columns ordered
    ``(df/dL, df/dk, df/dx0)``. This is the analytic Jacobian used by the
    least-squares fitter.
    """
    arr, scalar = _validated_x(x)
    u = params.k * (arr - params.x0)
    if params.family is ModelFamily.VON_BERTALANFFY:
        e = np.exp(-u)
        d_L = -np.expm1(-u)
        d_k = params.L * (arr - params.x0) * e
        d_x0 = -params.L * params.k * e
    else:
        s = _expit(u)
        s_c = _expit(-u)
        c = _expit(-params.k * params.x0)
        c_c = _expit(params.k * params.x0)
        d_L = s - c
        d_k = params.L * ((arr - params.x0) * s * s_c + params.x0 * c * c_c)
        d_x0 = params.L * params.k * (c * c_c - s * s_c)
    grad = np.stack([d_L, d_k, d_x0], axis=-1)
    if scalar:
        return grad.reshape(3)
    return grad


# Coefficient-table (de)serialisation. Published tables report L in 1e2 kg
# and k in 1e-2 kg^-1; records use those units, internal params plain kg.

_SEXES = ("F", "M")
_DATASETS = ("original", "resampled")


def _round_sig(value: float, sig_figs: int) -> float:
    return float(f"{value:.{sig_figs}g}")


def to_table_record(
    params: GrowthParams,
    sex: str,
    dataset: str,
    sig_figs: int | None = None,
) -> dict:
    """Serialise params to a table-layout JSON record.

    ``sig_figs`` rounds the three coefficients (table style); ``None``
    keeps full precision.
    """
    if sex not in _SEXES:
        raise ValueError(f"sex must be one of {_SEXES}, got {sex!r}")
    if dataset not in _DATASETS:
        raise ValueError(f"dataset must be one of {_DATASETS}, got {dataset!r}")
    values = {
        "L_1e2kg": params.L / 100.0,
        "k_1e-2perkg": params.k * 100.0,
        "x0_kg": params.x0,
    }
    if sig_figs is not None:
        values = {key: _round_sig(val, sig_figs) for key, val in values.items()}
    return {"family": params.family.value, "sex": sex, "dataset": dataset, **values}


def float_fields(record: dict, names) -> dict[str, float]:
    """``record[name]`` as a float for each of ``names``.

    A missing field raises KeyError; one that is not a number raises
    ValueError naming it.
    """
    fields = {}
    for name in names:
        try:
            fields[name] = float(record[name])
        except (TypeError, ValueError):
            raise ValueError(f"field {name!r} is not a number: {record[name]!r}") from None
    return fields


def from_table_record(record: dict) -> tuple[GrowthParams, str, str]:
    """Parse a table-layout record back into ``(params, sex, dataset)``."""
    try:
        family = parse_family(record["family"])
        sex = record["sex"]
        dataset = record["dataset"]
        L, k, x0 = float_fields(record, ("L_1e2kg", "k_1e-2perkg", "x0_kg")).values()
        params = GrowthParams(family=family, L=L * 100.0, k=k / 100.0, x0=x0)
    except KeyError as exc:
        raise ValueError(f"table record missing field {exc.args[0]!r}") from None
    if sex not in _SEXES:
        raise ValueError(f"table record has invalid sex {sex!r}")
    if dataset not in _DATASETS:
        raise ValueError(f"table record has invalid dataset {dataset!r}")
    return params, sex, dataset
