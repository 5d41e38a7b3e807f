"""Bodyweight-adjusted strength scores.

Three systems are implemented:

* Wilks / Wilks-2: ``C * y / poly5(x)`` with sex-specific 5th-order
  polynomial coefficients (C = 500 original, 600 for the 2020 revision).
* IPF GL: ``100 * y / (A - B*exp(-C*x))``.
* Model score: ``scale * y / f(x)`` for a fitted growth curve ``f``.

Coefficient values are deliberately not hard-coded: they load from a
versioned JSON config (see ``data/coefficients.json``, populated from
published sources) through :class:`ScoreRegistry`.

The Wilks polynomial is only validated over 30-250 kg, so Wilks and GL
scoring guard that domain; model scores only require ``f(x) > 0``.
"""

from __future__ import annotations

import csv
import json
import math
from collections import Counter
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .errors import ConfigError, SchemaError
from .ingest import REQUIRED_COLUMNS, FilterPolicy, LifterEntry, Sex, _classify_row
from .models import GrowthParams, evaluate, parse_family

WILKS_DOMAIN_KG = (30.0, 250.0)
# Published women's Wilks polynomials go non-positive above ~208 kg, so the
# load-time sanity check stops at 200; scoring beyond that still raises if
# the denominator has gone non-positive.
WILKS_VALIDATION_KG = (30.0, 200.0)
MODEL_SCORE_SCALE = 100.0

SYSTEMS = ("wilks", "wilks2", "ipf_gl", "model")


@dataclass(frozen=True)
class WilksCoefficients:
    """Denominator polynomial ``a + bx + ... + fx^5`` plus the numerator constant C."""

    a: float
    b: float
    c: float
    d: float
    e: float
    f: float
    C: float

    def __post_init__(self) -> None:
        if self.C <= 0:
            raise ConfigError(f"Wilks constant C must be positive, got {self.C}")
        # reject configs whose polynomial dips non-positive anywhere on
        # the validated range
        grid = np.linspace(*WILKS_VALIDATION_KG, 1701)
        if np.min(self._poly(grid)) <= 0:
            raise ConfigError(
                f"Wilks denominator polynomial is not positive over {WILKS_VALIDATION_KG} kg"
            )

    def _poly(self, x):
        return self.a + x * (self.b + x * (self.c + x * (self.d + x * (self.e + x * self.f))))


@dataclass(frozen=True)
class GlCoefficients:
    """IPF GL denominator ``A - B*exp(-C*x)``.

    ``B = 0`` is allowed as the degenerate flat model (score independent
    of bodyweight).
    """

    A: float
    B: float
    C: float

    def __post_init__(self) -> None:
        if not (self.A > 0 and self.B >= 0 and self.C > 0):
            raise ConfigError(f"GL coefficients out of range, got {self!r}")
        # denominator is increasing in x, so positivity at 30 kg covers the domain
        if self.A - self.B * math.exp(-self.C * WILKS_DOMAIN_KG[0]) <= 0:
            raise ConfigError("GL denominator is not positive at 30 kg")


def _check_domain(x: float) -> None:
    lo, hi = WILKS_DOMAIN_KG
    if not (math.isfinite(x) and lo <= x <= hi):
        raise ValueError(f"bodyweight {x!r} outside validated scoring domain [{lo}, {hi}] kg")


def _check_total(y: float) -> None:
    if not (math.isfinite(y) and y > 0):
        raise ValueError(f"total must be positive and finite, got {y!r}")


def wilks_score(x: float, y: float, coeffs: WilksCoefficients) -> float:
    """Wilks points for bodyweight ``x`` kg and total ``y`` kg."""
    _check_domain(x)
    _check_total(y)
    denominator = float(coeffs._poly(x))
    if denominator <= 0:
        raise ConfigError(f"Wilks denominator non-positive at x={x}")
    return coeffs.C * y / denominator


def gl_score(x: float, y: float, coeffs: GlCoefficients) -> float:
    """IPF GL points for bodyweight ``x`` kg and total ``y`` kg."""
    _check_domain(x)
    _check_total(y)
    denominator = coeffs.A - coeffs.B * math.exp(-coeffs.C * x)
    if denominator <= 0:
        raise ConfigError(f"GL denominator non-positive at x={x}")
    return 100.0 * y / denominator


def model_score(x: float, y: float, params: GrowthParams, scale: float = MODEL_SCORE_SCALE) -> float:
    """Growth-model score ``scale * y / f(x)``.

    ``y == f(x)`` scores exactly ``scale``. Raises for bodyweights at or
    below the model's zero.
    """
    if not (math.isfinite(x) and x > 0):
        raise ValueError(f"bodyweight must be positive and finite, got {x!r}")
    _check_total(y)
    expected = evaluate(params, x)
    if expected <= 0:
        raise ValueError(f"model expectation non-positive at x={x} kg; cannot score")
    # grouped so that y == f(x) scores exactly `scale`
    return scale * (y / expected)


class ScoreRegistry:
    """Immutable-after-load map from ``(system, sex)`` to coefficient sets."""

    def __init__(self) -> None:
        self._entries: dict[tuple[str, Sex], WilksCoefficients | GlCoefficients | GrowthParams] = {}

    @classmethod
    def from_records(cls, records) -> "ScoreRegistry":
        registry = cls()
        for record in records:
            registry._add_record(record)
        return registry

    @classmethod
    def from_config(cls, path) -> "ScoreRegistry":
        """Load a registry from a JSON config (a list of records, or
        ``{"records": [...]}``)."""
        try:
            with open(path, encoding="utf-8") as fh:
                payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON: {exc}") from None
        if isinstance(payload, dict):
            payload = payload.get("records")
        if not isinstance(payload, list):
            raise ConfigError(f"{path}: expected a list of coefficient records")
        return cls.from_records(payload)

    def _add_record(self, record: dict) -> None:
        try:
            system = record["system"]
            sex = Sex(record["sex"])
        except (KeyError, ValueError) as exc:
            raise ConfigError(f"invalid coefficient record {record!r}: {exc}") from None
        if system in ("wilks", "wilks2"):
            try:
                coeffs = WilksCoefficients(
                    **{name: float(record[name]) for name in "abcdef"},
                    C=float(record["C"]),
                )
            except KeyError as exc:
                raise ConfigError(f"{system}/{sex.value}: missing coefficient {exc.args[0]!r}") from None
        elif system == "ipf_gl":
            try:
                coeffs = GlCoefficients(A=float(record["A"]), B=float(record["B"]), C=float(record["C"]))
            except KeyError as exc:
                raise ConfigError(f"ipf_gl/{sex.value}: missing coefficient {exc.args[0]!r}") from None
        elif system == "model":
            try:
                coeffs = GrowthParams(
                    family=parse_family(record["family"]),
                    L=float(record["L"]),
                    k=float(record["k"]),
                    x0=float(record["x0"]),
                )
            except (KeyError, ValueError) as exc:
                raise ConfigError(f"model/{sex.value}: invalid growth params: {exc}") from None
        else:
            raise ConfigError(f"unknown scoring system {system!r} (expected one of {SYSTEMS})")
        self._entries[(system, sex)] = coeffs

    def add_model_params(self, sex: Sex, params: GrowthParams) -> None:
        """Register fitted growth params under the "model" system."""
        self._entries[("model", sex)] = params

    def resolve(self, system: str, sex: Sex):
        try:
            return self._entries[(system, sex)]
        except KeyError:
            raise ConfigError(f"no coefficients registered for system={system!r}, sex={sex.value!r}") from None

    def systems(self) -> list[tuple[str, str]]:
        return sorted((system, sex.value) for system, sex in self._entries)


def default_registry() -> ScoreRegistry:
    """Registry backed by the packaged coefficient config."""
    path = resources.files("liftcurve").joinpath("data/coefficients.json")
    with resources.as_file(path) as config_path:
        return ScoreRegistry.from_config(config_path)


def score_entry(entry: LifterEntry, system: str, registry: ScoreRegistry) -> float:
    coeffs = registry.resolve(system, entry.sex)
    if system in ("wilks", "wilks2"):
        return wilks_score(entry.bodyweight_kg, entry.total_kg, coeffs)
    if system == "ipf_gl":
        return gl_score(entry.bodyweight_kg, entry.total_kg, coeffs)
    if system == "model":
        return model_score(entry.bodyweight_kg, entry.total_kg, coeffs)
    raise ConfigError(f"unknown scoring system {system!r}")


def drop_unscorable(entries, system: str, registry: ScoreRegistry) -> tuple[list[LifterEntry], dict[str, int]]:
    """The entries ``system`` can score, in order, and the others counted by reason.

    Wilks and GL raise outside the validated bodyweight domain, and a Wilks
    polynomial can reach zero inside it (women's, above ~208 kg).
    """
    kept: list[LifterEntry] = []
    dropped: Counter[str] = Counter()
    lo, hi = WILKS_DOMAIN_KG
    for entry in entries:
        x = entry.bodyweight_kg
        if system in ("wilks", "wilks2", "ipf_gl") and not lo <= x <= hi:
            dropped["bodyweight_out_of_domain"] += 1
        elif system in ("wilks", "wilks2") and registry.resolve(system, entry.sex)._poly(x) <= 0:
            dropped["non_positive_denominator"] += 1
        else:
            kept.append(entry)
    return kept, dict(dropped)


def score_dataset(entries, system: str, registry: ScoreRegistry) -> list[tuple[LifterEntry, float]]:
    """Score every entry, preserving order.

    Resolves each needed ``(system, sex)`` pair up front so a missing
    registry entry fails before any work is done.
    """
    entries = list(entries)
    for sex in {e.sex for e in entries}:
        registry.resolve(system, sex)
    return [(entry, score_entry(entry, system, registry)) for entry in entries]


# Scored CSV round-trip: normalized entry columns plus Score (3 decimals).

_PASSTHROUGH_POLICY = FilterPolicy(
    require_raw=False, require_open_division=False, require_full_event=False
)


def write_scored_csv(scored, path) -> None:
    """Write ``(entry, score)`` pairs as a normalized CSV with a Score column."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(REQUIRED_COLUMNS) + ["Score"])
        for entry, score in scored:
            writer.writerow(
                [
                    entry.sex.value,
                    entry.equipment,
                    entry.division,
                    entry.event,
                    f"{entry.bodyweight_kg:.2f}",
                    f"{entry.best_squat_kg:.2f}",
                    f"{entry.best_bench_kg:.2f}",
                    f"{entry.best_deadlift_kg:.2f}",
                    f"{entry.total_kg:.2f}",
                    f"{score:.3f}",
                ]
            )


def read_scored_csv(path) -> list[tuple[LifterEntry, float]]:
    """Read a CSV produced by :func:`write_scored_csv`.

    Strict by design: these files are machine-written, so a malformed row
    raises instead of being silently dropped.
    """
    scored: list[tuple[LifterEntry, float]] = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or "Score" not in reader.fieldnames:
            raise SchemaError(f"{path}: missing required column(s): Score")
        missing = [col for col in REQUIRED_COLUMNS if col not in reader.fieldnames]
        if missing:
            raise SchemaError(f"{path}: missing required column(s): {', '.join(missing)}")
        for line, row in enumerate(reader, start=2):
            outcome = _classify_row(row, _PASSTHROUGH_POLICY)
            if not isinstance(outcome, LifterEntry):
                raise SchemaError(f"{path}:{line}: invalid entry row ({outcome})")
            try:
                score = float(row["Score"])
            except (TypeError, ValueError):
                raise SchemaError(f"{path}:{line}: malformed Score cell") from None
            scored.append((outcome, score))
    return scored
