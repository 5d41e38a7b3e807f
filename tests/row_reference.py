"""The per-row CSV reader that ``liftcurve.ingest`` replaced, kept as a test reference.

Each row is read with :class:`csv.DictReader` and classified on its own, with
the checks in drop-reason order. The block reader of ``liftcurve.ingest``
must give the same entries, row count and drop counts (in the same key
order), and ``read_scored_csv`` must raise the same errors.
"""

import csv
import math
from collections import Counter

from liftcurve.errors import SchemaError
from liftcurve.ingest import PASSTHROUGH_POLICY, REQUIRED_COLUMNS, FilterPolicy, IngestStats, LifterEntry, Sex
from liftcurve.scoring import SCORE_COLUMN

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
    if policy.require_raw and equipment.lower() != "raw":
        return "equipment"

    division = (row.get("Division") or "").strip()
    if policy.require_open_division and "open" not in division.lower():
        return "division"

    event = (row.get("Event") or "").strip()
    if policy.require_full_event and event.upper() != "SBD":
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

    if policy.bodyweight_range is not None:
        lo, hi = policy.bodyweight_range
        if not lo <= bodyweight <= hi:
            return "bodyweight_range"

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


def read_rows(path, extra_columns=()):
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames
        if header is None:
            raise SchemaError(f"{path}: file is empty, expected a header row")
        missing = [col for col in (*REQUIRED_COLUMNS, *extra_columns) if col not in header]
        if missing:
            raise SchemaError(f"{path}: missing required column(s): {', '.join(missing)}")
        yield from reader


def parse_csv(path, policy=None):
    if policy is None:
        policy = FilterPolicy()
    entries = []
    dropped = Counter()
    total_rows = 0
    for row in read_rows(path):
        total_rows += 1
        outcome = classify_row(row, policy)
        if isinstance(outcome, LifterEntry):
            entries.append(outcome)
        else:
            dropped[outcome] += 1
    return entries, IngestStats(total_rows=total_rows, kept=len(entries), dropped_by_reason=dict(dropped))


def read_scored_csv(path):
    scored = []
    for line, row in enumerate(read_rows(path, (SCORE_COLUMN,)), start=2):
        outcome = classify_row(row, PASSTHROUGH_POLICY)
        if not isinstance(outcome, LifterEntry):
            raise SchemaError(f"{path}:{line}: invalid entry row ({outcome})")
        try:
            score = float(row[SCORE_COLUMN])
        except (TypeError, ValueError):
            raise SchemaError(f"{path}:{line}: malformed Score cell") from None
        scored.append((outcome, score))
    return scored
