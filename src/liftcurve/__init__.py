"""Bodyweight-to-strength growth curves, KDE inverse-density resampling,
and powerlifting score diagnostics.

The functions ``fit.fit`` and ``resample.resample`` are not re-exported
here, so that ``liftcurve.fit`` and ``liftcurve.resample`` name their
modules: use ``from liftcurve.fit import fit``.
"""

from .diagnostics import (
    MyriadBins,
    RollingQuantiles,
    ScoreDistribution,
    fraction_below,
    myriad_averages,
    rolling_quantiles,
    score_distribution,
)
from .errors import ConfigError, SchemaError
from .fit import FitConfig, FitResult, auto_init
from .ingest import FilterPolicy, IngestStats, LifterEntry, Sex, parse_csv, write_normalized_csv
from .kde import BandwidthMode, KdeModel, density, density_batch, fit_kde, scott_bandwidth
from .models import (
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
from .resample import ResamplePlan, compute_weights, flatten_resample, resolve_plan
from .scoring import (
    GlCoefficients,
    ScoreRegistry,
    WilksCoefficients,
    default_registry,
    gl_score,
    model_score,
    score_dataset,
    wilks_score,
)

__version__ = "0.1.0"

__all__ = [
    "BandwidthMode",
    "ConfigError",
    "FilterPolicy",
    "FitConfig",
    "FitResult",
    "GlCoefficients",
    "GrowthParams",
    "IngestStats",
    "KdeModel",
    "LifterEntry",
    "ModelFamily",
    "MyriadBins",
    "ResamplePlan",
    "RollingQuantiles",
    "SchemaError",
    "ScoreDistribution",
    "ScoreRegistry",
    "Sex",
    "WilksCoefficients",
    "asymptote",
    "auto_init",
    "compute_weights",
    "default_registry",
    "density",
    "density_batch",
    "evaluate",
    "first_derivative",
    "fit_kde",
    "flatten_resample",
    "fraction_below",
    "from_table_record",
    "gl_score",
    "inflection_point",
    "model_score",
    "myriad_averages",
    "param_gradient",
    "parse_csv",
    "parse_family",
    "resolve_plan",
    "rolling_quantiles",
    "score_dataset",
    "score_distribution",
    "scott_bandwidth",
    "second_derivative",
    "to_table_record",
    "wilks_score",
    "write_normalized_csv",
]
