import csv
import re
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import row_reference
from liftcurve import ingest
from liftcurve.errors import SchemaError
from liftcurve.ingest import (
    PASSTHROUGH_POLICY,
    REQUIRED_COLUMNS,
    FilterPolicy,
    LifterEntry,
    Sex,
    parse_csv,
    round_kg,
    write_normalized_csv,
)

FIXTURE = Path(__file__).parent / "data" / "sample20.csv"

EXPECTED_DROPS = {
    "equipment": 1,
    "division": 1,
    "event": 1,
    "missing_lift": 1,
    "bodyweight": 1,
    "missing_total": 1,
    "inconsistent_total": 1,
    "sex": 1,
}


class TestFixtureParsing:
    def test_keeps_twelve_of_twenty(self):
        entries, stats = parse_csv(FIXTURE)
        assert stats.total_rows == 20
        assert stats.kept == 12 == len(entries)
        assert stats.dropped_by_reason == EXPECTED_DROPS

    def test_accounting_adds_up(self):
        _, stats = parse_csv(FIXTURE)
        assert stats.kept + sum(stats.dropped_by_reason.values()) == stats.total_rows

    def test_first_kept_row_values(self):
        entries, _ = parse_csv(FIXTURE)
        first = entries[0]
        assert first == LifterEntry(
            sex=Sex.MALE,
            bodyweight_kg=93.0,
            best_squat_kg=250.0,
            best_bench_kg=160.0,
            best_deadlift_kg=290.0,
            total_kg=700.0,
            equipment="Raw",
            division="Open",
            event="SBD",
        )

    def test_kept_entries_satisfy_invariants(self):
        entries, _ = parse_csv(FIXTURE)
        for e in entries:
            assert e.bodyweight_kg > 0 and e.total_kg > 0
            assert min(e.best_squat_kg, e.best_bench_kg, e.best_deadlift_kg) > 0
            lift_sum = e.best_squat_kg + e.best_bench_kg + e.best_deadlift_kg
            assert abs(e.total_kg - lift_sum) <= 0.5

    def test_rounding_slack_total_is_kept(self):
        entries, _ = parse_csv(FIXTURE)
        slack = [e for e in entries if e.total_kg == 515.4]
        assert len(slack) == 1

    def test_entry_is_an_immutable_tuple(self):
        entries, _ = parse_csv(FIXTURE)
        first = entries[0]
        assert tuple(first) == (Sex.MALE, 93.0, 250.0, 160.0, 290.0, 700.0, "Raw", "Open", "SBD")
        with pytest.raises(AttributeError):
            first.bodyweight_kg = 80.0
        assert first._replace(bodyweight_kg=80.0).bodyweight_kg == 80.0

    def test_case_variants_pass_filters(self):
        entries, _ = parse_csv(FIXTURE)
        assert any(e.equipment == "RAW" for e in entries)
        assert any(e.division == "open" for e in entries)
        assert any(e.division == "M-Open" for e in entries)


class TestPolicies:
    def test_sex_filter(self):
        males, stats = parse_csv(FIXTURE, FilterPolicy(sex=Sex.MALE))
        assert all(e.sex is Sex.MALE for e in males)
        assert len(males) == 7
        # 5 female keepers, the female bad-total row, and Mx all land on sex
        assert stats.dropped_by_reason["sex"] == 7

    def test_permissive_policy_keeps_equipped(self):
        entries, stats = parse_csv(FIXTURE, FilterPolicy(analysis_set=False))
        assert any(e.equipment == "Single-ply" for e in entries)
        assert any(e.division == "Juniors" for e in entries)
        # the B-event row has missing lifts, so it still drops
        assert stats.dropped_by_reason["missing_lift"] == 2


class TestErrors:
    def test_missing_column_names_it(self, tmp_path):
        broken = tmp_path / "broken.csv"
        broken.write_text("Sex,Equipment,Division,Event,Best3SquatKg,Best3BenchKg,Best3DeadliftKg,TotalKg\n")
        with pytest.raises(SchemaError, match="BodyweightKg"):
            parse_csv(broken)

    def test_empty_file_is_schema_error(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        with pytest.raises(SchemaError):
            parse_csv(empty)

    def test_header_only_file_parses_to_nothing(self, tmp_path):
        header_only = tmp_path / "header.csv"
        header_only.write_text(
            "Sex,Equipment,Division,Event,BodyweightKg,Best3SquatKg,Best3BenchKg,Best3DeadliftKg,TotalKg\n"
        )
        entries, stats = parse_csv(header_only)
        assert entries == [] and stats.total_rows == 0

    def test_unreadable_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            parse_csv(tmp_path / "missing.csv")


class TestRoundTrip:
    def test_reserialized_output_parses_identically(self, tmp_path):
        entries, _ = parse_csv(FIXTURE)
        out = tmp_path / "normalized.csv"
        write_normalized_csv(entries, out)
        reparsed, stats = parse_csv(out)
        assert reparsed == entries
        assert stats.kept == stats.total_rows == len(entries)

    def test_two_decimal_formatting(self, tmp_path):
        entries, _ = parse_csv(FIXTURE)
        out = tmp_path / "normalized.csv"
        write_normalized_csv(entries, out)
        lines = out.read_text().strip().splitlines()
        assert lines[1].split(",")[4:] == ["93.00", "250.00", "160.00", "290.00", "700.00"]

    def test_values_rounded_at_parse(self, tmp_path):
        src = tmp_path / "precise.csv"
        src.write_text(
            "Sex,Equipment,Division,Event,BodyweightKg,Best3SquatKg,Best3BenchKg,Best3DeadliftKg,TotalKg\n"
            "M,Raw,Open,SBD,93.456789,250.004,160.001,290.002,700.004\n"
        )
        entries, _ = parse_csv(src)
        assert entries[0].bodyweight_kg == 93.46
        assert entries[0].total_kg == 700.0

    def test_round_kg_is_pythons_round(self):
        values = [0.125, 0.135, 2.675, 93.456789, 0.004, 0.005, -1.005, 1e300, 5e-324]
        x = np.array(values + [np.nan, np.inf])
        assert round_kg(x) is x
        assert x[:-2].tolist() == [round(v, 2) for v in values]
        assert np.isnan(x[-2]) and x[-1] == np.inf


# Rows start consistent (total = sum of lifts within a little more than the
# slack either way) and then have any cell swapped for a malformed one, so
# that each drop reason and the kept path all occur. 0.004 kg is positive
# but rounds to 0.00 kg.
bad_kg_cells = st.sampled_from(["", " ", "abc", "nan", "inf", "-120.5", "0", "-0.0", "1e400"])
text_cells = st.text(alphabet=' ,"abcOPENopen-xyz\'', max_size=8)


@st.composite
def csv_rows(draw):
    lift = st.floats(0.001, 400.0) | st.sampled_from([0.004, 0.005])
    squat, bench, deadlift = (draw(lift) for _ in range(3))
    total = squat + bench + deadlift + draw(st.floats(-0.7, 0.7))
    kg = {
        "BodyweightKg": draw(st.floats(20.0, 250.0) | st.sampled_from([0.004, 0.005])),
        "Best3SquatKg": squat,
        "Best3BenchKg": bench,
        "Best3DeadliftKg": deadlift,
        "TotalKg": total,
    }
    row = {
        "Sex": draw(st.sampled_from(["M", "F", "m", " f ", "", "X"])),
        "Equipment": draw(st.sampled_from(["Raw", " raw", "Wraps"]) | text_cells),
        "Division": draw(st.sampled_from(["Open", "MR-O", "Juniors"]) | text_cells),
        "Event": draw(st.sampled_from(["SBD", "sbd", "B"]) | text_cells),
        **{name: f"{value:.{draw(st.integers(0, 4))}f}" for name, value in kg.items()},
    }
    for name in draw(st.lists(st.sampled_from(sorted(kg)), max_size=2)):
        row[name] = draw(bad_kg_cells)
    return row


policies = st.builds(
    FilterPolicy,
    analysis_set=st.booleans(),
    sex=st.sampled_from([None, Sex.MALE, Sex.FEMALE]),
)


def write_rows(path: Path, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=REQUIRED_COLUMNS)
        writer.writeheader()
        writer.writerows(rows)


class TestIngestProperties:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(csv_rows(), max_size=30), policies)
    def test_every_row_counted_under_exactly_one_reason(self, rows, policy):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "raw.csv"
            write_rows(path, rows)
            entries, stats = parse_csv(path, policy)
        assert stats.total_rows == len(rows)
        assert stats.kept == len(entries)
        assert stats.kept + sum(stats.dropped_by_reason.values()) == stats.total_rows
        assert all(count > 0 for count in stats.dropped_by_reason.values())

    @settings(max_examples=150, deadline=None)
    @given(st.lists(csv_rows(), max_size=30), policies)
    @example(
        [dict(zip(REQUIRED_COLUMNS, ["M", "Raw", "Open", "SBD", "0.004", "100", "100", "100", "300"]))],
        FilterPolicy(),
    )
    def test_parse_write_parse_is_a_fixed_point(self, rows, policy):
        with tempfile.TemporaryDirectory() as tmp:
            raw, first, second = (Path(tmp) / name for name in ("raw.csv", "first.csv", "second.csv"))
            write_rows(raw, rows)
            entries, _ = parse_csv(raw, policy)
            write_normalized_csv(entries, first)
            reparsed, stats = parse_csv(first, policy)
            write_normalized_csv(reparsed, second)
            assert reparsed == entries
            assert stats.kept == stats.total_rows
            assert second.read_bytes() == first.read_bytes()


# Raw files for the block reader: any column order, extra and repeated
# columns (a repeated name reads its last occurrence), short rows and blank
# lines, and kg cells at rounding ties, out of range, with underscores or
# padded with whitespace.
tricky_kg_cells = st.sampled_from(
    ["0.005", "0.0050", "0.004", "2.675", "2.6750", "1.005", "55.555", "1.0049", "1e300", "1e400", "1_000",
     " 93.5 ", "\t7.125", "\x1c12.5\x1c", "-0.004", "nan", "-inf", "1e-320"]
)


@st.composite
def raw_files(draw):
    names = list(REQUIRED_COLUMNS) + draw(
        st.lists(st.sampled_from(["Name", "Federation", *REQUIRED_COLUMNS]), max_size=3)
    )
    header = draw(st.permutations(names))
    last = {name: i for i, name in enumerate(header)}
    lines = []
    for row in draw(st.lists(csv_rows(), max_size=25)):
        for name in draw(st.lists(st.sampled_from(REQUIRED_COLUMNS[4:]), max_size=2)):
            row[name] = draw(tricky_kg_cells)
        cells = [
            row[name] if last.get(name) == i and name in row else draw(tricky_kg_cells | text_cells)
            for i, name in enumerate(header)
        ]
        if draw(st.booleans()):
            cells = cells[: draw(st.integers(1, len(cells)))]
        lines.append(cells)
        if draw(st.integers(0, 5)) == 0:
            lines.append([])  # csv.writer writes an empty list as a blank line
    return header, lines


class TestBlockReaderMatchesRowReference:
    """``parse_csv`` equals the per-row ``csv.DictReader`` reference in ``row_reference``."""

    @settings(max_examples=300, deadline=None)
    @given(raw_files(), policies, st.sampled_from([1, 2, 3, 7, 2048]))
    @example(
        (list(REQUIRED_COLUMNS), [["M", "Raw", "Open", "SBD", "0.005", "2.675", "1.005", "1e300", "1_000"]]),
        FilterPolicy(),
        1,
    )
    @example(  # the lift sum overflows to inf
        (list(REQUIRED_COLUMNS), [["M", "Raw", "Open", "SBD", "90", "1e308", "1e308", "1e308", "1e308"]]),
        FilterPolicy(),
        1,
    )
    @example(  # a short row reads its missing Event cell as empty
        (
            [*REQUIRED_COLUMNS[:3], *REQUIRED_COLUMNS[4:], "Event"],
            [["M", "Raw", "Open", "90", "100", "80", "120", "300"]],
        ),
        PASSTHROUGH_POLICY,
        1,
    )
    def test_same_entries_and_counts(self, raw, policy, block_rows):
        header, lines = raw
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "raw.csv"
            with open(path, "w", newline="", encoding="utf-8") as fh:
                csv.writer(fh).writerows([header, *lines])
            with mock.patch.object(ingest, "_BLOCK_ROWS", block_rows):
                entries, stats = parse_csv(path, policy)
            want_entries, want_stats = row_reference.parse_csv(path, policy)
        assert entries == want_entries
        assert [type(value) for entry in entries for value in entry] == [
            type(value) for entry in want_entries for value in entry
        ]
        assert stats.total_rows == want_stats.total_rows
        assert stats.kept == want_stats.kept
        assert list(stats.dropped_by_reason.items()) == list(want_stats.dropped_by_reason.items())

    @pytest.mark.parametrize(
        "text, message",
        [
            ("", "file is empty, expected a header row"),
            ("\nM,Raw\n", "missing required column(s): Sex, Equipment"),
            ("Sex,Equipment,Event\nM,Raw,SBD\n", "missing required column(s): Division, BodyweightKg"),
        ],
    )
    def test_same_header_errors(self, tmp_path, text, message):
        path = tmp_path / "raw.csv"
        path.write_text(text)
        for parse in (parse_csv, row_reference.parse_csv):
            with pytest.raises(SchemaError, match=re.escape(f"{path}: {message}")):
                parse(path)
