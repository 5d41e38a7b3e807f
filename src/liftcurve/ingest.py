"""Parse OpenPowerlifting-format CSV files and filter to the analysis set.

The analysis population is raw (unequipped) lifters in the open age
division who posted a valid attempt in all three movements. Upstream
encodes a best lift that was missed on every attempt as a negative
number, so any non-positive best lift drops the row.

All kg values are normalised to 2 decimals at parse time, which makes
``parse -> write_normalized_csv -> parse`` a fixed point.
"""

from __future__ import annotations

import csv
import enum
import math
from collections import Counter
from dataclasses import dataclass

from .errors import SchemaError

REQUIRED_COLUMNS = (
    "Sex",
    "Equipment",
    "Division",
    "Event",
    "BodyweightKg",
    "Best3SquatKg",
    "Best3BenchKg",
    "Best3DeadliftKg",
    "TotalKg",
)

# A federation may round the reported total; entries whose total strays
# further than this from the sum of best lifts are treated as corrupt.
TOTAL_SLACK_KG = 0.5


class Sex(enum.Enum):
    FEMALE = "F"
    MALE = "M"


@dataclass(frozen=True)
class LifterEntry:
    """One competition result (per-result, not per-athlete)."""

    sex: Sex
    bodyweight_kg: float
    best_squat_kg: float
    best_bench_kg: float
    best_deadlift_kg: float
    total_kg: float
    equipment: str
    division: str
    event: str


@dataclass(frozen=True)
class FilterPolicy:
    """Row filters applied during parsing.

    The division match is a case-insensitive substring test for "open"
    because the upstream field is free text.
    """

    require_raw: bool = True
    require_open_division: bool = True
    require_full_event: bool = True
    sex: Sex | None = None
    bodyweight_range: tuple[float, float] | None = None

    def __post_init__(self) -> None:
        if self.bodyweight_range is not None:
            lo, hi = self.bodyweight_range
            if not lo < hi:
                raise ValueError(f"bodyweight_range needs min < max, got {self.bodyweight_range}")


# Keeps any equipment, division and event: for reading back files written
# from rows that already passed a policy.
PASSTHROUGH_POLICY = FilterPolicy(require_raw=False, require_open_division=False, require_full_event=False)


@dataclass
class IngestStats:
    total_rows: int
    kept: int
    dropped_by_reason: dict[str, int]


def _parse_kg(cell: str | None) -> float | None:
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


def _classify_row(row: dict, policy: FilterPolicy) -> LifterEntry | str:
    """Return a LifterEntry for a kept row, or the drop-reason string.

    Checks run in a fixed order (policy filters, then numeric validity,
    then consistency) so each row is counted under exactly one reason.
    """
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

    bodyweight = _parse_kg(row.get("BodyweightKg"))
    if bodyweight is None:
        return "bodyweight"

    squat = _parse_kg(row.get("Best3SquatKg"))
    bench = _parse_kg(row.get("Best3BenchKg"))
    deadlift = _parse_kg(row.get("Best3DeadliftKg"))
    if squat is None or bench is None or deadlift is None:
        return "missing_lift"

    total = _parse_kg(row.get("TotalKg"))
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
    """Yield the rows of a CSV as dicts, after checking its header.

    Raises :class:`SchemaError` if the file is empty or lacks one of
    :data:`REQUIRED_COLUMNS` or ``extra_columns``.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames
        if header is None:
            raise SchemaError(f"{path}: file is empty, expected a header row")
        missing = [col for col in (*REQUIRED_COLUMNS, *extra_columns) if col not in header]
        if missing:
            raise SchemaError(f"{path}: missing required column(s): {', '.join(missing)}")
        yield from reader


def parse_csv(path, policy: FilterPolicy | None = None) -> tuple[list[LifterEntry], IngestStats]:
    """Parse an OpenPowerlifting-format CSV, returning kept entries and stats.

    Raises :class:`SchemaError` if a required column is absent; I/O
    problems propagate as :class:`OSError`. Malformed cells never raise --
    the row is dropped and counted.
    """
    if policy is None:
        policy = FilterPolicy()
    entries: list[LifterEntry] = []
    dropped: Counter[str] = Counter()
    total_rows = 0
    for row in read_rows(path):
        total_rows += 1
        outcome = _classify_row(row, policy)
        if isinstance(outcome, LifterEntry):
            entries.append(outcome)
        else:
            dropped[outcome] += 1
    stats = IngestStats(total_rows=total_rows, kept=len(entries), dropped_by_reason=dict(dropped))
    return entries, stats


def normalized_cells(entry: LifterEntry) -> list[str]:
    """The cells of ``entry``'s normalized row, in :data:`REQUIRED_COLUMNS` order."""
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


def write_normalized_csv(entries, path) -> None:
    """Write entries back out with upstream column names and 2-decimal kg values."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(REQUIRED_COLUMNS)
        writer.writerows(map(normalized_cells, entries))
