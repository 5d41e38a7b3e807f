"""Seeded input generator owned by the benchmark.

Produces OpenPowerlifting-shaped data: untruncated lognormal bodyweights,
totals on an offset-logistic curve with
multiplicative lognormal noise, and junk rows planted in fixed proportions
for every ingest drop reason. It imports
nothing from the program or its tests, so a change there never shifts the
benchmark's inputs. Every stream is a Philox generator keyed by hashing the
workload seed with a label, so one input does not depend on the size of
another.
"""

from __future__ import annotations

import csv
import hashlib
import math
from dataclasses import dataclass

import numpy as np

# Shape constants, copied (not imported) from the repository's
# OpenPowerlifting-shaped test snapshot, tests/synth.py, so that both describe
# the same population while a change to the tests never shifts these inputs:
# generating curve (L kg, k 1/kg, x0 kg), ln-bodyweight (mean, std), the
# multiplicative lognormal spread of totals, and the floor on totals. The
# snapshot puts the male inflection near the low-bodyweight bend of real
# data, with about 0.3 % of males below 53.4 kg; its female spread is wider
# and more skewed than the male one.
CURVES = {"M": (730.0, 0.055, 53.0), "F": (630.0, 0.032, 26.0)}
LOG_BODYWEIGHT = {"M": (4.4175, 0.16), "F": (4.1431, 0.15)}
NOISE_SIGMA = {"M": 0.18, "F": 0.28}
TOTAL_FLOOR_KG = 30.0

COLUMNS = (
    "Name",
    "Sex",
    "Event",
    "Equipment",
    "Age",
    "Division",
    "BodyweightKg",
    "Best3SquatKg",
    "Best3BenchKg",
    "Best3DeadliftKg",
    "TotalKg",
    "Federation",
    "Date",
)
COLUMN_INDEX = {name: i for i, name in enumerate(COLUMNS)}
VALID_DIVISIONS = ("Open", "Pro Open", "Open Raw", "MR-Open")
FEDERATIONS = ("USAPL", "IPF", "USPA", "RPS", "CPU")

# Ingest drop reasons under the default filter policy, each planted in an
# equal share of the junk rows. Each junk row is otherwise valid, so it is
# counted under exactly its planted reason.
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


def stream(seed: int, label: str) -> np.random.Generator:
    digest = hashlib.sha256(f"perfbench:{seed}:{label}".encode()).digest()
    return np.random.Generator(np.random.Philox(key=int.from_bytes(digest[:8], "little")))


def logistic_total(sex: str, bodyweight: np.ndarray) -> np.ndarray:
    L, k, x0 = CURVES[sex]
    return L * (1.0 / (1.0 + np.exp(-k * (bodyweight - x0))) - 1.0 / (1.0 + math.exp(k * x0)))


@dataclass(frozen=True)
class Sample:
    """Valid results of one sex, kg values held as integer centi-kg."""

    sex: str
    bodyweight_c: np.ndarray
    squat_c: np.ndarray
    bench_c: np.ndarray
    deadlift_c: np.ndarray

    @property
    def total_c(self) -> np.ndarray:
        return self.squat_c + self.bench_c + self.deadlift_c

    @property
    def bodyweight_kg(self) -> np.ndarray:
        return self.bodyweight_c / 100.0

    @property
    def total_kg(self) -> np.ndarray:
        return self.total_c / 100.0

    def __len__(self) -> int:
        return self.bodyweight_c.size


def lifter_sample(seed: int, label: str, sex: str, n: int) -> Sample:
    """``n`` valid results: bodyweight, total on the curve, lifts summing to the total."""
    gen = stream(seed, label)
    mu, sigma = LOG_BODYWEIGHT[sex]
    bodyweight = np.exp(gen.normal(mu, sigma, n))
    total = logistic_total(sex, bodyweight) * np.exp(gen.normal(0.0, NOISE_SIGMA[sex], n))
    total = np.maximum(total, TOTAL_FLOOR_KG)
    shares = gen.normal([0.355, 0.265], 0.012, size=(n, 2))
    squat = np.rint(total * shares[:, 0] * 100).astype(np.int64)
    bench = np.rint(total * shares[:, 1] * 100).astype(np.int64)
    deadlift = np.rint(total * 100).astype(np.int64) - squat - bench
    return Sample(sex, np.rint(bodyweight * 100).astype(np.int64), squat, bench, deadlift)


def _kg(centi: int) -> str:
    return f"{centi // 100}.{centi % 100:02d}"


def _spoil(row: list[str], reason: str) -> None:
    col = COLUMN_INDEX
    if reason == "sex":
        row[col["Sex"]] = "Mx"
    elif reason == "equipment":
        row[col["Equipment"]] = "Single-ply"
    elif reason == "division":
        row[col["Division"]] = "Juniors 14-18"
    elif reason == "event":
        row[col["Event"]] = "B"
    elif reason == "bodyweight":
        row[col["BodyweightKg"]] = "n/a"
    elif reason == "missing_lift":
        # upstream writes a lift missed on every attempt as a negative number
        row[col["Best3BenchKg"]] = "-" + row[col["Best3BenchKg"]]
    elif reason == "missing_total":
        row[col["TotalKg"]] = ""
    elif reason == "inconsistent_total":
        row[col["TotalKg"]] = _kg(int(round(float(row[col["TotalKg"]]) * 100)) + 1000)
    else:
        raise ValueError(f"unknown drop reason {reason!r}")


@dataclass(frozen=True)
class RawCsv:
    """A written raw CSV and what a default-policy ingest must make of it."""

    path: str
    rows: int
    samples: dict[str, Sample]
    planted: dict[str, int]


def write_raw_csv(path, seed: int, label: str, n_valid: dict[str, int], n_junk: int) -> RawCsv:
    """Write a shuffled raw CSV of valid rows per sex plus ``n_junk`` junk rows.

    Junk rows cycle through :data:`DROP_REASONS`, so their counts per reason
    are fixed by ``n_junk`` alone. Rows are formatted as they are written:
    only the generated arrays are held, never the rows as strings.
    """
    gen = stream(seed, f"{label}:rows")
    samples = {sex: lifter_sample(seed, f"{label}:{sex}", sex, n) for sex, n in n_valid.items()}
    parts = [*samples.values(), lifter_sample(seed, f"{label}:junk", "M", n_junk)]
    n = sum(len(part) for part in parts)
    sex = np.concatenate([np.full(len(part), part.sex) for part in parts])
    bodyweight, squat, bench, deadlift = (
        np.concatenate([getattr(part, name) for part in parts])
        for name in ("bodyweight_c", "squat_c", "bench_c", "deadlift_c")
    )
    reason = np.full(n, -1)
    reason[n - n_junk :] = np.arange(n_junk) % len(DROP_REASONS)
    divisions = gen.integers(0, len(VALID_DIVISIONS), n)
    federations = gen.integers(0, len(FEDERATIONS), n)
    ages = gen.integers(18, 60, n)
    days = gen.integers(0, 3650, n)
    order = gen.permutation(n)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(COLUMNS)
        for serial, i in enumerate(order):
            sq, be, dl, day = int(squat[i]), int(bench[i]), int(deadlift[i]), int(days[i])
            row = [
                f"Lifter {serial:06d}",
                str(sex[i]),
                "SBD",
                "Raw",
                f"{ages[i]}.5",
                VALID_DIVISIONS[divisions[i]],
                _kg(int(bodyweight[i])),
                _kg(sq),
                _kg(be),
                _kg(dl),
                _kg(sq + be + dl),
                FEDERATIONS[federations[i]],
                f"{2014 + day // 365}-{1 + day % 12:02d}-{1 + day % 28:02d}",
            ]
            if reason[i] >= 0:
                _spoil(row, DROP_REASONS[reason[i]])
            writer.writerow(row)
    planted = {name: int(np.sum(reason == r)) for r, name in enumerate(DROP_REASONS)}
    return RawCsv(path=str(path), rows=n, samples=samples, planted=planted)
