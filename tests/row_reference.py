"""Per-row code that ``liftcurve`` replaced, kept as a test reference.

The CSV reader reads each row with :class:`csv.DictReader` and classifies it
on its own, with the checks in drop-reason order. The block reader of
``liftcurve.ingest`` must give the same entries, row count and drop counts
(in the same key order), and ``read_scored_csv`` must raise the same errors.

The scorers check and score one row at a time. The array kernel of
``liftcurve.scoring`` must give the same scores bit for bit and raise the
same errors, for ``score_dataset`` and for the per-row scorers alike.

The writers hand one row of cells at a time to :class:`csv.writer`. The
column writers of ``liftcurve`` must write the same bytes.
"""

import csv
import math
import re
from collections import Counter

from liftcurve.errors import ConfigError, SchemaError
from liftcurve.ingest import PASSTHROUGH_POLICY, REQUIRED_COLUMNS, FilterPolicy, IngestStats, LifterEntry, Sex
from liftcurve.models import GrowthParams, evaluate
from liftcurve.scoring import (
    MODEL_SCORE_SCALE,
    SCORE_COLUMN,
    WILKS_DOMAIN_KG,
    GlCoefficients,
    ScoreRegistry,
    WilksCoefficients,
)

TOTAL_SLACK_KG = 0.5


def parse_kg(cell):
    """Positive kg value rounded to 2 decimals, or None if missing/invalid.

    Positivity is checked after rounding, so a value that rounds to 0.00 kg
    is dropped here rather than kept and then dropped on a re-parse.
    """
    if cell is None:
        return None
    text = cell.strip()
    if not text:
        return None
    try:
        value = float(text)
    except ValueError:
        return None
    value = round(value, 2)
    if not math.isfinite(value) or value <= 0:
        return None
    return value


def classify_row(row, policy):
    """Return a LifterEntry for a kept row, or the drop-reason string."""
    sex_cell = (row.get("Sex") or "").strip().upper()
    try:
        sex = Sex(sex_cell)
    except ValueError:
        return "sex"
    if policy.sex is not None and sex is not policy.sex:
        return "sex"

    equipment = (row.get("Equipment") or "").strip()
    if policy.analysis_set and equipment.lower() != "raw":
        return "equipment"

    division = (row.get("Division") or "").strip()
    if policy.analysis_set and "open" not in division.lower():
        return "division"

    event = (row.get("Event") or "").strip()
    if policy.analysis_set and event.upper() != "SBD":
        return "event"

    bodyweight = parse_kg(row.get("BodyweightKg"))
    if bodyweight is None:
        return "bodyweight"

    squat = parse_kg(row.get("Best3SquatKg"))
    bench = parse_kg(row.get("Best3BenchKg"))
    deadlift = parse_kg(row.get("Best3DeadliftKg"))
    if squat is None or bench is None or deadlift is None:
        return "missing_lift"

    total = parse_kg(row.get("TotalKg"))
    if total is None:
        return "missing_total"
    if abs(total - (squat + bench + deadlift)) > TOTAL_SLACK_KG:
        return "inconsistent_total"

    return LifterEntry(
        sex=sex,
        bodyweight_kg=bodyweight,
        best_squat_kg=squat,
        best_bench_kg=bench,
        best_deadlift_kg=deadlift,
        total_kg=total,
        equipment=equipment,
        division=division,
        event=event,
    )


LINE_BREAK = re.compile(r"\r\n|\r|\n")


def read_rows(path, extra_columns=()):
    """Yield ``(line, row)`` per record, ``line`` being the physical line it ends on."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames
        if header is None:
            raise SchemaError(f"{path}: file is empty, expected a header row")
        missing = [col for col in (*REQUIRED_COLUMNS, *extra_columns) if col not in header]
        if missing:
            raise SchemaError(f"{path}: missing required column(s): {', '.join(missing)}")
        for row in reader:
            yield reader.line_num, row


def first_line(end, row):
    """The physical line on which a record that ends on line ``end`` starts."""
    cells = [cell for cell in row.values() if isinstance(cell, str)] + row.get(None, [])
    return end - sum(len(LINE_BREAK.findall(cell)) for cell in cells)


def parse_csv(path, policy=FilterPolicy()):
    entries = []
    dropped = Counter()
    total_rows = 0
    for _, row in read_rows(path):
        total_rows += 1
        outcome = classify_row(row, policy)
        if isinstance(outcome, LifterEntry):
            entries.append(outcome)
        else:
            dropped[outcome] += 1
    return entries, IngestStats(total_rows=total_rows, kept=len(entries), dropped_by_reason=dict(dropped))


def read_scored_csv(path):
    scored = []
    for end, row in read_rows(path, (SCORE_COLUMN,)):
        line = first_line(end, row)
        outcome = classify_row(row, PASSTHROUGH_POLICY)
        if not isinstance(outcome, LifterEntry):
            raise SchemaError(f"{path}:{line}: invalid entry row ({outcome})")
        try:
            score = float(row[SCORE_COLUMN])
        except (TypeError, ValueError):
            raise SchemaError(f"{path}:{line}: malformed Score cell") from None
        scored.append((outcome, score))
    return scored


def normalized_cells(entry):
    return [
        entry.sex.value,
        entry.equipment,
        entry.division,
        entry.event,
        f"{entry.bodyweight_kg:.2f}",
        f"{entry.best_squat_kg:.2f}",
        f"{entry.best_bench_kg:.2f}",
        f"{entry.best_deadlift_kg:.2f}",
        f"{entry.total_kg:.2f}",
    ]


def write_normalized_csv(entries, path):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(REQUIRED_COLUMNS)
        for entry in entries:
            writer.writerow(normalized_cells(entry))


def write_scored_csv(scored, path):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([*REQUIRED_COLUMNS, SCORE_COLUMN])
        for entry, score in scored:
            writer.writerow([*normalized_cells(entry), f"{score:.3f}"])


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


def score_entry(entry: LifterEntry, system: str, registry: ScoreRegistry) -> float:
    coeffs = registry.resolve(system, entry.sex)
    if system in ("wilks", "wilks2"):
        return wilks_score(entry.bodyweight_kg, entry.total_kg, coeffs)
    if system == "ipf_gl":
        return gl_score(entry.bodyweight_kg, entry.total_kg, coeffs)
    if system == "model":
        return model_score(entry.bodyweight_kg, entry.total_kg, coeffs)
    raise ConfigError(f"unknown scoring system {system!r}")
