"""Parse OpenPowerlifting-format CSV files and filter to the analysis set.

The analysis population is raw (unequipped) lifters in the open age
division who posted a valid attempt in all three movements. Upstream
encodes a best lift that was missed on every attempt as a negative
number, so any non-positive best lift drops the row.

All kg values are normalised to 2 decimals at parse time, which makes
``parse -> write_normalized_csv -> parse`` a fixed point.

Files are read by column, a block of rows at a time (:func:`read_blocks`):
each kg column is parsed in one ``map(float)`` pass, each row gets its drop
reason from numpy masks, and entries are built only for the rows kept.
Blank lines are skipped, cells missing from a short row read as empty and
a repeated column name takes its last occurrence, as with
:class:`csv.DictReader`.

Files are written a column at a time too (:func:`normalized_lines`): each
distinct text cell is quoted once, as :mod:`csv` quotes it, and each row is
then formatted in one ``%`` operation, byte for byte what
:class:`csv.writer` writes.
"""

from __future__ import annotations

import csv
import enum
import io
import math
from dataclasses import dataclass
from itertools import compress, islice, repeat
from operator import attrgetter, is_
from typing import NamedTuple

import numpy as np

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

# Each dropped row is counted under the first of these that applies.
DROP_REASONS = (
    "sex",
    "equipment",
    "division",
    "event",
    "bodyweight",
    "missing_lift",
    "missing_total",
    "inconsistent_total",
)

# Rows per block: bounds the memory held in raw cells while reading. On
# 60k-row files 2,048 read about 15 % faster than 8,192.
_BLOCK_ROWS = 2048


class Sex(enum.Enum):
    FEMALE = "F"
    MALE = "M"


_SEX_BY_CODE = {sex.value: sex for sex in Sex}


class LifterEntry(NamedTuple):
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

    ``analysis_set`` keeps only the analysis set: raw equipment, an open
    division and the full SBD event. The division match is a
    case-insensitive substring test for "open" because the upstream field
    is free text. ``sex`` keeps one sex, ``None`` both.
    """

    analysis_set: bool = True
    sex: Sex | None = None


# Keeps any equipment, division and event: for reading back files written
# from rows that already passed a policy.
PASSTHROUGH_POLICY = FilterPolicy(analysis_set=False)


@dataclass
class IngestStats:
    total_rows: int
    kept: int
    dropped_by_reason: dict[str, int]


def _float_or_nan(cell: str) -> float:
    try:
        return float(cell.strip())
    except ValueError:
        return math.nan


def round_kg(x: np.ndarray) -> np.ndarray:
    """Round the float64 array ``x`` in place to 2 decimals, as Python's
    correctly rounded ``round(value, 2)`` does, and return it.

    This is the value ingest reads back from a ``%.2f`` kg cell written from ``x``.
    """
    # np.round leaves a value unchanged only where it already is the nearest
    # double to a 2-decimal number, which Python's correctly rounded round()
    # leaves unchanged too; the other values go through round()
    with np.errstate(over="ignore", invalid="ignore"):
        inexact = np.flatnonzero(np.round(x, 2) != x)
    x[inexact] = [round(value, 2) for value in x[inexact].tolist()]
    return x


def _kg_column(cells) -> np.ndarray:
    """Positive kg values rounded to 2 decimals, NaN where missing or invalid.

    Positivity is checked after rounding, so a value that rounds to 0.00 kg
    is invalid here rather than kept and then dropped on a re-parse.
    """
    try:
        x = np.fromiter(map(float, cells), float, len(cells))
    except ValueError:
        x = np.fromiter(map(_float_or_nan, cells), float, len(cells))
    round_kg(x)
    return np.where(np.isfinite(x) & (x > 0), x, np.nan)


def _fails(cells, test) -> np.ndarray:
    """Mask of the cells whose stripped text fails ``test``, tested once per distinct cell."""
    failing = {cell: not test(cell.strip()) for cell in set(cells)}
    return np.fromiter(map(failing.__getitem__, cells), bool, len(cells))


def _classify_block(columns, policy: FilterPolicy) -> tuple[np.ndarray, list[LifterEntry]]:
    """Drop-reason codes of a block's rows and the entries of the rows kept.

    ``columns`` holds the cells of :data:`REQUIRED_COLUMNS`. A code indexes
    :data:`DROP_REASONS`, -1 for a kept row; each row gets the first reason
    that applies, so it is counted under exactly one.
    """
    sex, equipment, division, event = columns[:4]
    bodyweight, squat, bench, deadlift, total = map(_kg_column, columns[4:])
    never = np.zeros(len(sex), dtype=bool)
    sexes = tuple(Sex) if policy.sex is None else (policy.sex,)
    with np.errstate(over="ignore"):  # a lift sum past the double range is inconsistent, as in Python
        lift_sum = squat + bench + deadlift
    conditions = [
        _fails(sex, lambda text: _SEX_BY_CODE.get(text.upper()) in sexes),
        _fails(equipment, lambda text: text.lower() == "raw") if policy.analysis_set else never,
        _fails(division, lambda text: "open" in text.lower()) if policy.analysis_set else never,
        _fails(event, lambda text: text.upper() == "SBD") if policy.analysis_set else never,
        np.isnan(bodyweight),
        np.isnan(squat) | np.isnan(bench) | np.isnan(deadlift),
        np.isnan(total),
        np.abs(total - lift_sum) > TOTAL_SLACK_KG,
    ]
    reasons = np.select(conditions, list(range(len(DROP_REASONS))), -1)
    kept = reasons < 0
    mask = kept.tolist()
    fields = zip(
        map(_SEX_BY_CODE.__getitem__, map(str.upper, map(str.strip, compress(sex, mask)))),
        *(column[kept].tolist() for column in (bodyweight, squat, bench, deadlift, total)),
        *(map(str.strip, compress(cells, mask)) for cells in (equipment, division, event)),
    )
    return reasons, list(map(LifterEntry._make, fields))


def read_blocks(path, policy: FilterPolicy, extra_columns=()):
    """Read the CSV at ``path`` in blocks of rows, after checking its header.

    Yields ``(reasons, entries, extra)`` per block: the drop-reason code of
    each row (an index into :data:`DROP_REASONS`, -1 for a kept row), the
    entries of the kept rows under ``policy``, and the cells of each of
    ``extra_columns``. Raises :class:`SchemaError` if the file is empty or
    lacks one of :data:`REQUIRED_COLUMNS` or ``extra_columns``.
    """
    names = (*REQUIRED_COLUMNS, *extra_columns)
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise SchemaError(f"{path}: file is empty, expected a header row")
        missing = [col for col in names if col not in header]
        if missing:
            raise SchemaError(f"{path}: missing required column(s): {', '.join(missing)}")
        # a repeated name maps to its last occurrence
        position = {name: i for i, name in enumerate(header)}
        positions = [position[name] for name in names]
        width = max(positions) + 1
        while block := list(islice(reader, _BLOCK_ROWS)):
            rows = list(filter(None, block))
            if not rows:
                continue
            if min(map(len, rows)) < width:
                rows = [row + [""] * (width - len(row)) for row in rows]
            # zip hands out one column at a time, so the columns past the
            # last one wanted are never built
            columns = list(islice(zip(*rows), width))
            columns = [columns[i] for i in positions]
            reasons, entries = _classify_block(columns[: len(REQUIRED_COLUMNS)], policy)
            yield reasons, entries, columns[len(REQUIRED_COLUMNS) :]


def parse_csv(path, policy: FilterPolicy = FilterPolicy()) -> tuple[list[LifterEntry], IngestStats]:
    """Parse an OpenPowerlifting-format CSV, returning kept entries and stats.

    Raises :class:`SchemaError` if a required column is absent; I/O
    problems propagate as :class:`OSError`. Malformed cells never raise --
    the row is dropped and counted. Reasons are listed in order of first
    occurrence.
    """
    entries: list[LifterEntry] = []
    dropped: dict[str, int] = {}
    total_rows = 0
    for reasons, kept, _ in read_blocks(path, policy):
        total_rows += reasons.size
        entries += kept
        for code in dict.fromkeys(reasons[reasons >= 0].tolist()):
            name = DROP_REASONS[code]
            dropped[name] = dropped.get(name, 0) + int(np.count_nonzero(reasons == code))
    stats = IngestStats(total_rows=total_rows, kept=len(entries), dropped_by_reason=dropped)
    return entries, stats


def columns_by_sex(entries: list[LifterEntry]) -> dict[Sex, tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """``{sex: (rows, bodyweight_kg, total_kg)}`` for both sexes: each sex's row
    indices into ``entries`` and the values at those rows, as arrays.

    Sexes present come in order of first appearance, an absent one last with
    empty arrays. A row whose sex is not ``Sex.FEMALE`` is male. Sex is
    tested by identity, which is cheaper per row than hashing the enum member.
    """
    n = len(entries)
    x = np.fromiter(map(attrgetter("bodyweight_kg"), entries), float, n)
    y = np.fromiter(map(attrgetter("total_kg"), entries), float, n)
    female = np.fromiter(map(is_, map(attrgetter("sex"), entries), repeat(Sex.FEMALE)), bool, n)
    order = (Sex.FEMALE, Sex.MALE) if n and entries[0].sex is Sex.FEMALE else (Sex.MALE, Sex.FEMALE)
    columns = {}
    for sex in order:
        rows = np.flatnonzero(female if sex is Sex.FEMALE else ~female)
        columns[sex] = (rows, x[rows], y[rows])
    return columns


_KG_FIELDS = ("bodyweight_kg", "best_squat_kg", "best_bench_kg", "best_deadlift_kg", "total_kg")
_NORMALIZED_ROW = "%s,%s,%s,%s,%.2f,%.2f,%.2f,%.2f,%.2f"


def _csv_cell(value) -> str:
    """``value`` as :class:`csv.writer` writes it in a row of several cells: quoted only if it must be."""
    buffer = io.StringIO()
    csv.writer(buffer).writerow([value, ""])
    return buffer.getvalue()[: -len(",\r\n")]


def normalized_lines(entries, extra_cells=None):
    """Each entry's normalized row as :class:`csv.writer` writes it, line end included.

    Cells come in :data:`REQUIRED_COLUMNS` order, kg values with 2
    decimals. ``extra_cells``, if given, adds one cell per entry after
    them; those cells are written as they are, so they must be text that
    :mod:`csv` would not quote, such as a formatted number.
    """
    entries = list(entries)
    columns = []
    # ``_value_`` is the sex code without the per-row cost of Enum's ``value`` property
    for text in map(attrgetter, ("sex._value_", "equipment", "division", "event")):
        cells = list(map(text, entries))
        quoted = {cell: _csv_cell(cell) for cell in set(cells)}
        columns.append(map(quoted.__getitem__, cells))
    columns += (map(attrgetter(name), entries) for name in _KG_FIELDS)
    if extra_cells is not None:
        columns.append(extra_cells)
    row = _NORMALIZED_ROW + ",%s" * (len(columns) - len(REQUIRED_COLUMNS)) + "\r\n"
    return map(row.__mod__, zip(*columns))


def write_normalized_csv(entries, path) -> None:
    """Write entries back out with upstream column names and 2-decimal kg values."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(REQUIRED_COLUMNS)
        fh.writelines(normalized_lines(entries))
