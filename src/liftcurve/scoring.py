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

Each rule is written once, in one array kernel that returns the scores
and a reason code for every row it cannot score. :func:`score_dataset` and
:func:`drop_unscorable` run it per sex, on the columns that
:func:`liftcurve.ingest.columns_by_sex` splits out; :func:`wilks_score`,
:func:`gl_score` and :func:`model_score` run it on one row (as float64),
so both give the same bits and raise the same errors.
"""

from __future__ import annotations

import csv
import json
import math
import operator
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .errors import ConfigError, SchemaError
from .ingest import (
    DROP_REASONS, PASSTHROUGH_POLICY, REQUIRED_COLUMNS, LifterEntry, Sex, columns_by_sex, normalized_lines, read_blocks
)
from .models import GrowthParams, evaluate, float_fields, from_table_record, parse_family

WILKS_DOMAIN_KG = (30.0, 250.0)
# Published women's Wilks polynomials go non-positive above ~208 kg, so the
# load-time sanity check stops at 200; scoring beyond that still raises if
# the denominator has gone non-positive.
WILKS_VALIDATION_KG = (30.0, 200.0)
MODEL_SCORE_SCALE = 100.0

SYSTEMS = ("wilks", "wilks2", "ipf_gl", "model")


def _require_finite(kind: str, coeffs) -> None:
    """Raise :class:`ConfigError` naming the first non-finite field of ``coeffs``:
    the range checks pass inf and miss NaN, which compares false."""
    for name, value in vars(coeffs).items():
        if not math.isfinite(value):
            raise ConfigError(f"{kind} coefficient {name!r} must be finite, got {value!r}")


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
        _require_finite("Wilks", self)
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
        _require_finite("GL", self)
        if not (self.A > 0 and self.B >= 0 and self.C > 0):
            raise ConfigError(f"GL coefficients out of range, got {self!r}")
        # denominator is increasing in x, so positivity at 30 kg covers the domain
        if self.A - self.B * math.exp(-self.C * WILKS_DOMAIN_KG[0]) <= 0:
            raise ConfigError("GL denominator is not positive at 30 kg")


def wilks_score(x: float, y: float, coeffs: WilksCoefficients) -> float:
    """Wilks points for bodyweight ``x`` kg and total ``y`` kg."""
    return _score_row("wilks", coeffs, x, y)


def gl_score(x: float, y: float, coeffs: GlCoefficients) -> float:
    """IPF GL points for bodyweight ``x`` kg and total ``y`` kg."""
    return _score_row("ipf_gl", coeffs, x, y)


def model_score(x: float, y: float, params: GrowthParams) -> float:
    """Growth-model score ``MODEL_SCORE_SCALE * y / f(x)``.

    ``y == f(x)`` scores exactly ``MODEL_SCORE_SCALE`` (100). Raises for
    bodyweights at or below the model's zero.
    """
    return _score_row("model", params, x, y)


def read_json(path):
    """The JSON value in the file at ``path``; a ``ConfigError`` naming the file if it is not JSON."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from None


def _require_object(record) -> None:
    if not isinstance(record, dict):
        raise ConfigError(f"coefficient record {record!r} is not a JSON object")


class ScoreRegistry:
    """Map from ``(system, sex)`` to coefficient sets.

    Loaded from records or a config file; :meth:`add_model_params` and
    :meth:`add_fit_records` add or replace "model" entries afterwards.
    """

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
        payload = read_json(path)
        if isinstance(payload, dict):
            payload = payload.get("records")
        if not isinstance(payload, list):
            raise ConfigError(f"{path}: expected a list of coefficient records")
        return cls.from_records(payload)

    def _add_record(self, record: dict) -> None:
        _require_object(record)
        try:
            system = record["system"]
            sex = Sex(record["sex"])
        except (KeyError, ValueError) as exc:
            raise ConfigError(f"invalid coefficient record {record!r}: {exc}") from None
        where = f"{system}/{sex.value}"
        if system in ("wilks", "wilks2", "ipf_gl"):
            try:
                fields = float_fields(record, "ABC" if system == "ipf_gl" else "abcdefC")
                coeffs = GlCoefficients(**fields) if system == "ipf_gl" else WilksCoefficients(**fields)
            except KeyError as exc:
                raise ConfigError(f"{where}: missing coefficient {exc.args[0]!r}") from None
            except ValueError as exc:  # also the ConfigError of an out-of-range coefficient
                raise ConfigError(f"{where}: {exc}") from None
        elif system == "model":
            try:
                coeffs = GrowthParams(parse_family(record["family"]), **float_fields(record, ("L", "k", "x0")))
            except (KeyError, ValueError) as exc:
                raise ConfigError(f"{where}: invalid growth params: {exc}") from None
        else:
            raise ConfigError(f"unknown scoring system {system!r} (expected one of {SYSTEMS})")
        self._entries[(system, sex)] = coeffs

    def add_model_params(self, sex: Sex, params: GrowthParams) -> None:
        """Register fitted growth params under the "model" system."""
        self._entries[("model", sex)] = params

    def add_fit_records(self, records) -> None:
        """Register the growth params of ``fit`` output records under "model".

        A record is in table units (``fit_<family>_<sex>_table.json``) or in
        internal units (``fit_<family>_<sex>.json``: a "model" coefficient
        record with extra fields).
        """
        for record in records:
            _require_object(record)
            if "L_1e2kg" in record:
                try:
                    params, sex, _ = from_table_record(record)
                except ValueError as exc:
                    raise ConfigError(f"model/{record.get('sex')}: invalid growth params: {exc}") from None
                self.add_model_params(Sex(sex), params)
            else:
                self._add_record({**record, "system": "model"})

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


# Why the kernel flags a row, in the order the per-row scorers check.
_REASONS = ("bodyweight_out_of_domain", "non_positive_total", "non_positive_denominator")


def _score_arrays(system: str, coeffs, x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Score float64 bodyweights ``x`` and totals ``y`` under ``system``: the one copy of the rules.

    Returns the scores and a reason code per row: -1 if it is scorable, else
    an index into ``_REASONS`` (and its score is meaningless). For model
    scores the domain is ``x > 0`` and the denominator is ``f(x)``, scaled
    by ``MODEL_SCORE_SCALE``; Wilks and GL carry their own scale. GL uses
    ``math.exp`` per element because ``np.exp`` can differ from it in the
    last bit.
    """
    if system == "model":
        in_domain = np.isfinite(x) & (x > 0)
    else:
        lo, hi = WILKS_DOMAIN_KG
        in_domain = (lo <= x) & (x <= hi)
    xd = x[in_domain]
    if system in ("wilks", "wilks2"):
        scale, denominator = coeffs.C, coeffs._poly(xd)
    elif system == "ipf_gl":
        scale = 100.0
        denominator = coeffs.A - coeffs.B * np.fromiter(map(math.exp, (-coeffs.C * xd).tolist()), float, xd.size)
    elif system == "model":
        scale, denominator = MODEL_SCORE_SCALE, evaluate(coeffs, xd)
    else:
        raise ConfigError(f"unknown scoring system {system!r}")
    den = np.full(x.shape, np.nan)
    den[in_domain] = denominator
    # model scores group y / f(x) so that y == f(x) scores exactly the scale;
    # only flagged rows can divide badly
    with np.errstate(divide="ignore", invalid="ignore"):
        scores = scale * (y / den) if system == "model" else scale * y / den
    # the first reason checked is assigned last
    reason = np.where(den <= 0, 2, -1)
    reason[~(np.isfinite(y) & (y > 0))] = 1
    reason[~in_domain] = 0
    return scores, reason


def _unscorable(system: str, x, y, reason: int) -> Exception:
    """The error for a row of bodyweight ``x`` and total ``y`` flagged with ``reason``.

    The message shows the caller's own ``x`` and ``y``.
    """
    if reason == 0:
        if system == "model":
            return ValueError(f"bodyweight must be positive and finite, got {x!r}")
        lo, hi = WILKS_DOMAIN_KG
        return ValueError(f"bodyweight {x!r} outside validated scoring domain [{lo}, {hi}] kg")
    if reason == 1:
        return ValueError(f"total must be positive and finite, got {y!r}")
    if system == "model":
        return ValueError(f"model expectation non-positive at x={x} kg; cannot score")
    return ConfigError(f"{'GL' if system == 'ipf_gl' else 'Wilks'} denominator non-positive at x={x}")


def _score_row(system: str, coeffs, x, y) -> float:
    """Score one row through the kernel, raising :func:`_unscorable` if it is flagged."""
    # TypeError for a str, bytes or None, which np.array would convert or misreport
    math.isfinite(x), math.isfinite(y)
    scores, reason = _score_arrays(system, coeffs, np.array([x], dtype=float), np.array([y], dtype=float))
    if reason[0] >= 0:
        raise _unscorable(system, x, y, reason[0])
    return scores.item()


def _score_by_sex(entries: list[LifterEntry], system: str, registry: ScoreRegistry) -> tuple[np.ndarray, np.ndarray]:
    """Scores and reason codes of ``entries`` in input order, scored per sex
    present; the sex that appears first resolves its ``(system, sex)`` coefficients first."""
    scores = np.empty(len(entries))
    reason = np.full(len(entries), -1)
    for sex, (rows, x, y) in columns_by_sex(entries).items():
        if rows.size:
            scores[rows], reason[rows] = _score_arrays(system, registry.resolve(system, sex), x, y)
    return scores, reason


def drop_unscorable(entries, system: str, registry: ScoreRegistry) -> tuple[list[LifterEntry], dict[str, int]]:
    """The entries ``system`` can score, in order, and the others counted by reason.

    Drops exactly the rows the per-row scorer rejects, each counted under
    the reason its error names: ``bodyweight_out_of_domain`` (outside Wilks
    and GL's validated range, or not positive for a model),
    ``non_positive_total``, or ``non_positive_denominator`` (a women's Wilks
    polynomial above ~208 kg, or a model curve at or below its zero).
    """
    entries = list(entries)
    reason = _score_by_sex(entries, system, registry)[1]
    drop = reason >= 0
    kept = [entry for entry, dropped in zip(entries, drop.tolist()) if not dropped]
    names = [_REASONS[code] for code in reason[drop].tolist()]
    # reasons in order of first occurrence
    return kept, {name: names.count(name) for name in dict.fromkeys(names)}


def score_dataset(entries, system: str, registry: ScoreRegistry) -> list[tuple[LifterEntry, float]]:
    """Score every entry, preserving order.

    Scores each sex's rows at once on arrays, bit for bit equal to the
    per-row scorers. If a row cannot be scored, the first such row in input
    order raises what the per-row scorer raises for it.
    """
    entries = list(entries)
    scores, reason = _score_by_sex(entries, system, registry)
    flagged = np.flatnonzero(reason >= 0)
    if flagged.size:
        entry = entries[flagged[0]]
        raise _unscorable(system, entry.bodyweight_kg, entry.total_kg, reason[flagged[0]])
    return list(zip(entries, scores.tolist()))


# Scored CSV: the normalized entry row plus a Score cell (3 decimals).

SCORE_COLUMN = "Score"


def is_scored_csv(path) -> bool:
    """Whether the CSV at ``path`` has a Score column, read from its header alone."""
    with open(path, newline="", encoding="utf-8") as fh:
        return SCORE_COLUMN in next(csv.reader(fh), [])


def write_scored_csv(scored, path) -> None:
    """Write ``(entry, score)`` pairs as a normalized CSV with a Score column."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow([*REQUIRED_COLUMNS, SCORE_COLUMN])
        scored = list(scored)
        scores = map("%.3f".__mod__, map(operator.itemgetter(1), scored))
        fh.writelines(normalized_lines(map(operator.itemgetter(0), scored), scores))


def read_scored_csv(path) -> list[tuple[LifterEntry, float]]:
    """Read a CSV produced by :func:`write_scored_csv`.

    Strict by design: these files are machine-written, so the first
    malformed row raises :class:`SchemaError` naming the physical line on
    which it starts (the header is line 1) instead of being dropped.
    """
    scored: list[tuple[LifterEntry, float]] = []
    for reasons, entries, (score_cells,) in read_blocks(path, PASSTHROUGH_POLICY, (SCORE_COLUMN,)):
        try:
            scores = list(map(float, score_cells))
        except ValueError:
            scores = None
        if scores is None or len(entries) < len(score_cells):
            # find the first bad row of the block
            for offset, (reason, cell) in enumerate(zip(reasons.tolist(), score_cells)):
                if reason >= 0:
                    raise _row_error(path, len(scored) + offset, f"invalid entry row ({DROP_REASONS[reason]})")
                try:
                    float(cell)
                except ValueError:
                    raise _row_error(path, len(scored) + offset, "malformed Score cell") from None
        scored += zip(entries, scores)
    return scored


def _row_error(path, record: int, problem: str) -> SchemaError:
    """``problem`` at data row ``record`` (0-based, blank lines skipped), named by the line it starts on.

    Re-reads the file, so only the error path pays for counting physical
    lines; a blank line or a quoted cell holding a newline moves them.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        next(reader)
        start = reader.line_num + 1
        for row in reader:
            if row:
                if record == 0:
                    break
                record -= 1
            start = reader.line_num + 1
    return SchemaError(f"{path}:{start}: {problem}")
