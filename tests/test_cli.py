import ast
import json
from pathlib import Path

import numpy as np
import pytest

from liftcurve import cli
from liftcurve.cli import main
from liftcurve.diagnostics import fraction_below, rolling_quantiles, write_quantiles_csv
from liftcurve.ingest import Sex, parse_csv, write_normalized_csv
from liftcurve.models import GrowthParams, ModelFamily, evaluate, to_table_record
from liftcurve.scoring import default_registry, read_scored_csv, wilks_score, write_scored_csv

from synth import flattened_female_xy, logistic_xy, make_entry

FIXTURE = Path(__file__).parent / "data" / "sample20.csv"
WORKLOADS = Path(__file__).parent.parent / "perfbench" / "workloads.py"
LOGISTIC_MALE = GrowthParams(ModelFamily.LOGISTIC, 722.3, 0.05447, 53.40)
# the "policy" payload that ingest and fit write to their manifests
MANIFEST_POLICY = {
    "bodyweight_range": None,
    "require_full_event": True,
    "require_open_division": True,
    "require_raw": True,
    "sex": None,
}


def write_entries_csv(path, n_per_sex=600, seed=51):
    males_x, males_y = logistic_xy(n=n_per_sex, seed=seed)
    females_x, females_y = logistic_xy(
        n=n_per_sex,
        params=GrowthParams(ModelFamily.LOGISTIC, 630.8, 0.032019, 25.87),
        x_range=(35.0, 130.0),
        seed=seed + 1,
    )
    entries = [make_entry(b, t, sex=Sex.MALE) for b, t in zip(males_x, males_y)] + [
        make_entry(b, t, sex=Sex.FEMALE) for b, t in zip(females_x, females_y)
    ]
    write_normalized_csv(entries, path)
    return entries


def write_sex_counts_csv(path, n_female, n_male):
    """The first ``n_female`` women and ``n_male`` men of :func:`write_entries_csv`'s sample."""
    entries = write_entries_csv(path, n_per_sex=max(n_female, n_male))
    females = [e for e in entries if e.sex is Sex.FEMALE][:n_female]
    males = [e for e in entries if e.sex is Sex.MALE][:n_male]
    write_normalized_csv(males + females, path)


def read_tree(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir()) if p.is_file()}


class TestIngestCommand:
    def test_fixture_summary(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["ingest", "--input", str(FIXTURE), "--output-dir", str(out)])
        assert code == 0
        stats = json.loads((out / "ingest_stats.json").read_text())
        assert stats["kept"] == 12
        assert stats["total_rows"] == 20
        assert sum(stats["dropped_by_reason"].values()) == 8
        assert "kept 12 of 20 rows" in capsys.readouterr().out
        assert (out / "normalized.csv").exists()
        assert (out / "ingest_manifest.json").exists()

    def test_missing_column_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("Sex,Equipment,Division,Event,Best3SquatKg,Best3BenchKg,Best3DeadliftKg,TotalKg\n")
        code = main(["ingest", "--input", str(bad), "--output-dir", str(tmp_path / "o")])
        assert code == 2
        assert "BodyweightKg" in capsys.readouterr().err

    def test_header_only_file_keeps_zero(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text(
            "Sex,Equipment,Division,Event,BodyweightKg,Best3SquatKg,Best3BenchKg,Best3DeadliftKg,TotalKg\n"
        )
        out = tmp_path / "out"
        code = main(["ingest", "--input", str(empty), "--output-dir", str(out)])
        assert code == 0
        assert json.loads((out / "ingest_stats.json").read_text())["kept"] == 0

    def test_unreadable_input_exits_1(self, tmp_path):
        code = main(
            ["ingest", "--input", str(tmp_path / "nope.csv"), "--output-dir", str(tmp_path / "o")]
        )
        assert code == 1

    def test_sex_filter_flag(self, tmp_path):
        out = tmp_path / "out"
        code = main(["ingest", "--input", str(FIXTURE), "--output-dir", str(out), "--sex", "F"])
        assert code == 0
        entries, _ = parse_csv(out / "normalized.csv")
        assert len(entries) == 5 and all(e.sex is Sex.FEMALE for e in entries)

    @pytest.mark.parametrize("sex_args, sex", [([], None), (["--sex", "F"], "F")])
    def test_manifest_records_the_policy(self, tmp_path, sex_args, sex):
        out = tmp_path / "out"
        assert main(["ingest", "--input", str(FIXTURE), "--output-dir", str(out), *sex_args]) == 0
        manifest = json.loads((out / "ingest_manifest.json").read_text())
        assert manifest["policy"] == {**MANIFEST_POLICY, "sex": sex}


class TestFitCommand:
    def test_fit_writes_table_and_internal_json(self, tmp_path):
        src = tmp_path / "data.csv"
        write_entries_csv(src)
        out = tmp_path / "out"
        code = main(
            [
                "fit", "--input", str(src), "--output-dir", str(out),
                "--family", "logistic", "--sex", "M",
                "--resample", "2000", "--seed", "42",
            ]
        )
        assert code == 0
        table = json.loads((out / "fit_logistic_M_table.json").read_text())
        assert table["family"] == "logistic"
        assert table["sex"] == "M" and table["dataset"] == "resampled"
        assert set(table) >= {"L_1e2kg", "k_1e-2perkg", "x0_kg"}
        internal = json.loads((out / "fit_logistic_M.json").read_text())
        assert internal["converged"] is True
        # table values are the 4-significant-figure rounding of the internal ones
        assert table["L_1e2kg"] == float(f"{internal['L'] / 100:.4g}")
        assert (out / "resampled_M.csv").exists()
        assert (out / "resample_plan_M.json").exists()

    def test_fit_recovers_generator_params(self, tmp_path, capsys):
        src = tmp_path / "data.csv"
        write_entries_csv(src, n_per_sex=4000, seed=61)
        out = tmp_path / "out"
        code = main(
            ["fit", "--input", str(src), "--output-dir", str(out), "--family", "logistic", "--sex", "M"]
        )
        assert code == 0
        internal = json.loads((out / "fit_logistic_M.json").read_text())
        assert internal["L"] == pytest.approx(722.3, rel=0.05)
        assert internal["x0"] == pytest.approx(53.4, rel=0.05)
        assert internal["active_bounds"] == [0, 0, 0]
        assert "bound" not in capsys.readouterr().err

    def test_amplitude_on_its_bound_is_reported(self, tmp_path, capsys):
        x, y = flattened_female_xy(2_000, seed=2)
        src = tmp_path / "flattened.csv"
        write_normalized_csv([make_entry(b, t, sex=Sex.FEMALE) for b, t in zip(x, y)], src)
        out = tmp_path / "out"
        code = main(
            ["fit", "--input", str(src), "--output-dir", str(out), "--family", "logistic", "--sex", "F"]
        )
        assert code == 0
        internal = json.loads((out / "fit_logistic_F.json").read_text())
        assert internal["active_bounds"] == [1, 0, 0]
        assert "warning: fit logistic F: L on its upper bound" in capsys.readouterr().err

    def test_vb_fit_on_female_subset(self, tmp_path):
        src = tmp_path / "data.csv"
        write_entries_csv(src)
        out = tmp_path / "out"
        code = main(["fit", "--input", str(src), "--output-dir", str(out), "--family", "vb", "--sex", "F"])
        assert code == 0
        table = json.loads((out / "fit_von_bertalanffy_F_table.json").read_text())
        assert table["family"] == "von_bertalanffy"
        assert {"L_1e2kg", "k_1e-2perkg", "x0_kg"} <= set(table)

    def test_repeat_run_is_byte_identical(self, tmp_path):
        src = tmp_path / "data.csv"
        write_entries_csv(src)
        out = tmp_path / "out"
        argv = [
            "fit", "--input", str(src), "--output-dir", str(out),
            "--family", "logistic", "--sex", "both",
            "--resample", "1500", "--seed", "7",
        ]
        assert main(argv) == 0
        first = read_tree(out)
        assert main(argv) == 0
        assert read_tree(out) == first

    def test_manifest_records_policy_and_solver_settings(self, tmp_path):
        src = tmp_path / "data.csv"
        write_entries_csv(src)
        out = tmp_path / "out"
        argv = ["fit", "--input", str(src), "--output-dir", str(out), "--family", "vb", "--sex", "M",
                "--max-iterations", "150"]
        assert main(argv) == 0
        manifest = json.loads((out / "fit_manifest.json").read_text())
        assert manifest["policy"] == MANIFEST_POLICY
        assert manifest["fit_config"] == {"max_iterations": 150, "tolerance": 1e-10}
        assert "failed" not in manifest

    def test_seed_changes_resample_output(self, tmp_path):
        src = tmp_path / "data.csv"
        write_entries_csv(src)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        base = ["fit", "--input", str(src), "--family", "logistic", "--sex", "M", "--resample", "500"]
        assert main(base + ["--output-dir", str(out_a), "--seed", "1"]) == 0
        assert main(base + ["--output-dir", str(out_b), "--seed", "2"]) == 0
        assert (out_a / "resampled_M.csv").read_bytes() != (out_b / "resampled_M.csv").read_bytes()

    def test_nonconvergence_exits_3_with_partial_results(self, tmp_path):
        src = tmp_path / "data.csv"
        write_entries_csv(src)
        out = tmp_path / "out"
        code = main(
            [
                "fit", "--input", str(src), "--output-dir", str(out),
                "--family", "logistic", "--sex", "M", "--max-iterations", "1",
            ]
        )
        assert code == 3
        internal = json.loads((out / "fit_logistic_M.json").read_text())
        assert internal["converged"] is False

    def test_bad_resample_count_exits_2_before_writing(self, tmp_path, capsys):
        src = tmp_path / "data.csv"
        write_entries_csv(src)
        out = tmp_path / "out"
        code = main(["fit", "--input", str(src), "--output-dir", str(out), "--family", "vb", "--resample", "-1"])
        assert code == 2
        assert capsys.readouterr().err == "error: target sample count must be >= 1, got -1\n"
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize(
        "n_female, n_male, thin, extra, reason",
        [
            (5, 200, "F", [], "insufficient data: need at least 10 points, got 5"),
            (200, 5, "M", [], "insufficient data: need at least 10 points, got 5"),
            (1, 200, "F", ["--resample", "500"], "KDE fit needs at least 2 points, got 1"),
        ],
    )
    def test_thin_sex_fails_alone(self, tmp_path, capsys, n_female, n_male, thin, extra, reason):
        src = tmp_path / "data.csv"
        write_sex_counts_csv(src, n_female, n_male)
        out, alone = tmp_path / "out", tmp_path / "alone"
        base = ["fit", "--input", str(src), "--family", "logistic", *extra]
        assert main(base + ["--output-dir", str(out)]) == 2
        assert f"error: fit logistic {thin}: {reason}\n" in capsys.readouterr().err
        manifest = json.loads((out / "fit_manifest.json").read_text())
        assert manifest["failed"] == {thin: reason}
        # the other sex's files are those of a run on that sex alone
        fitted = "M" if thin == "F" else "F"
        assert main(base + ["--output-dir", str(alone), "--sex", fitted]) == 0
        written = read_tree(out)
        assert written.pop("fit_manifest.json")
        assert written == {name: data for name, data in read_tree(alone).items() if name != "fit_manifest.json"}
        assert list(manifest["resample_plans"] or {}) == (["M"] if extra else [])

    def test_requested_sex_without_rows_exits_2_with_a_manifest(self, tmp_path, capsys):
        src = tmp_path / "data.csv"
        write_sex_counts_csv(src, 0, 200)
        out = tmp_path / "out"
        assert main(["fit", "--input", str(src), "--output-dir", str(out), "--family", "vb", "--sex", "F"]) == 2
        reason = "insufficient data: need at least 10 points, got 0"
        assert capsys.readouterr().err == f"error: fit von_bertalanffy F: {reason}\n"
        assert [p.name for p in out.iterdir()] == ["fit_manifest.json"]
        manifest = json.loads((out / "fit_manifest.json").read_text())
        assert manifest["failed"] == {"F": reason}
        assert manifest["sex"] == "F"

    def test_fixture_is_too_thin_for_either_sex(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["ingest", "--input", str(FIXTURE), "--output-dir", str(out)]) == 0
        assert main(["fit", "--input", str(out / "normalized.csv"), "--output-dir", str(out), "--family", "vb"]) == 2
        assert capsys.readouterr().err == (
            "error: fit von_bertalanffy F: insufficient data: need at least 10 points, got 5\n"
            "error: fit von_bertalanffy M: insufficient data: need at least 10 points, got 7\n"
        )
        assert not list(out.glob("fit_von_bertalanffy_*"))
        assert json.loads((out / "fit_manifest.json").read_text())["failed"] == {
            "F": "insufficient data: need at least 10 points, got 5",
            "M": "insufficient data: need at least 10 points, got 7",
        }

    def test_failed_sex_outranks_nonconvergence(self, tmp_path):
        src = tmp_path / "data.csv"
        write_sex_counts_csv(src, 5, 200)
        out = tmp_path / "out"
        argv = ["fit", "--input", str(src), "--output-dir", str(out), "--family", "logistic", "--max-iterations", "1"]
        assert main(argv) == 2
        assert json.loads((out / "fit_logistic_M.json").read_text())["converged"] is False

    @pytest.mark.parametrize("family, name", [("vb", "von_bertalanffy"), ("logistic", "logistic")])
    def test_refit_of_resampled_file_reproduces_the_fit(self, tmp_path, family, name):
        src = tmp_path / "data.csv"
        write_entries_csv(src)
        out = tmp_path / "out"
        argv = ["fit", "--input", str(src), "--output-dir", str(out), "--family", family]
        assert main(argv + ["--resample", "3000", "--seed", "7"]) == 0
        for sex in ("F", "M"):
            refit = tmp_path / f"refit_{sex}"
            assert main(
                [
                    "fit", "--input", str(out / f"resampled_{sex}.csv"), "--output-dir", str(refit),
                    "--family", family, "--sex", sex,
                ]
            ) == 0
            for suffix in ("", "_table"):
                reported = json.loads((out / f"fit_{name}_{sex}{suffix}.json").read_text())
                refitted = json.loads((refit / f"fit_{name}_{sex}{suffix}.json").read_text())
                assert (reported.pop("dataset"), refitted.pop("dataset")) == ("resampled", "original")
                assert refitted == reported


class TestScoreCommand:
    def test_model_self_score_is_100(self, tmp_path):
        entries = [make_entry(93.0, round(evaluate(LOGISTIC_MALE, 93.0), 2), sex=Sex.MALE)]
        src = tmp_path / "data.csv"
        write_normalized_csv(entries, src)
        params_file = tmp_path / "params.json"
        params_file.write_text(json.dumps(to_table_record(LOGISTIC_MALE, "M", "resampled")))
        out = tmp_path / "out"
        code = main(
            [
                "score", "--input", str(src), "--output-dir", str(out),
                "--system", "model", "--params", str(params_file),
            ]
        )
        assert code == 0
        lines = (out / "scored.csv").read_text().strip().splitlines()
        assert lines[1].rsplit(",", 1)[1] == "100.000"

    def test_three_row_fixture_matches_scalar_oracle(self, tmp_path):
        entries = [
            make_entry(74.0, 560.0, sex=Sex.MALE),
            make_entry(93.0, 700.0, sex=Sex.MALE),
            make_entry(63.0, 380.0, sex=Sex.FEMALE),
        ]
        src = tmp_path / "data.csv"
        write_normalized_csv(entries, src)
        out = tmp_path / "out"
        assert main(["score", "--input", str(src), "--output-dir", str(out), "--system", "wilks"]) == 0
        registry = default_registry()
        lines = (out / "scored.csv").read_text().strip().splitlines()[1:]
        for entry, line in zip(entries, lines):
            expected = wilks_score(
                entry.bodyweight_kg, entry.total_kg, registry.resolve("wilks", entry.sex)
            )
            assert line.rsplit(",", 1)[1] == f"{expected:.3f}"

    def test_empty_input_empty_output(self, tmp_path):
        src = tmp_path / "data.csv"
        write_normalized_csv([], src)
        out = tmp_path / "out"
        code = main(["score", "--input", str(src), "--output-dir", str(out), "--system", "ipf_gl"])
        assert code == 0
        lines = (out / "scored.csv").read_text().strip().splitlines()
        assert len(lines) == 1  # header only

    @pytest.mark.parametrize(
        "system, kept, dropped_by_reason",
        [
            ("wilks", [74.0, 63.0], {"bodyweight_out_of_domain": 2, "non_positive_denominator": 1}),
            ("ipf_gl", [74.0, 215.0, 63.0], {"bodyweight_out_of_domain": 2}),
        ],
        ids=["wilks", "ipf_gl"],
    )
    def test_unscorable_rows_are_dropped_and_counted(self, tmp_path, capsys, system, kept, dropped_by_reason):
        entries = [
            make_entry(74.0, 560.0, sex=Sex.MALE),
            make_entry(29.34, 150.0, sex=Sex.FEMALE),
            make_entry(215.0, 400.0, sex=Sex.FEMALE),  # women's Wilks denominator < 0 here
            make_entry(260.0, 900.0, sex=Sex.MALE),
            make_entry(63.0, 380.0, sex=Sex.FEMALE),
        ]
        src = tmp_path / "data.csv"
        write_normalized_csv(entries, src)
        out = tmp_path / "out"
        assert main(["score", "--input", str(src), "--output-dir", str(out), "--system", system]) == 0
        stats = json.loads((out / "score_stats.json").read_text())
        assert stats == {"rows_in": 5, "scored": len(kept), "dropped_by_reason": dropped_by_reason}
        assert [e.bodyweight_kg for e, _ in read_scored_csv(out / "scored.csv")] == kept
        assert f"({5 - len(kept)} dropped)" in capsys.readouterr().out

    def test_model_rows_at_or_below_the_curve_zero_are_dropped_and_counted(self, tmp_path, capsys):
        src = tmp_path / "data.csv"
        write_normalized_csv([make_entry(bw, 500.0, sex=Sex.MALE) for bw in (35.0, 74.0, 93.0)], src)
        params = tmp_path / "params.json"
        params.write_text(
            json.dumps({"family": "von_bertalanffy", "sex": "M", "L": 739.79, "k": 0.0335, "x0": 36.66})
        )
        out = tmp_path / "out"
        args = ["score", "--input", str(src), "--output-dir", str(out), "--system", "model", "--params", str(params)]
        assert main(args) == 0
        assert "scored 2 of 3" in capsys.readouterr().out
        stats = json.loads((out / "score_stats.json").read_text())
        assert stats["dropped_by_reason"] == {"non_positive_denominator": 1}
        assert [e.bodyweight_kg for e, _ in read_scored_csv(out / "scored.csv")] == [74.0, 93.0]

    def test_model_without_params_exits_2(self, tmp_path):
        src = tmp_path / "data.csv"
        write_normalized_csv([make_entry(93.0, 700.0)], src)
        code = main(
            ["score", "--input", str(src), "--output-dir", str(tmp_path / "o"), "--system", "model"]
        )
        assert code == 2

    def test_malformed_params_file_exits_2_naming_it(self, tmp_path, capsys):
        src = tmp_path / "data.csv"
        write_normalized_csv([make_entry(93.0, 700.0)], src)
        params = tmp_path / "p.json"
        params.write_text("{")
        code = main(
            [
                "score", "--input", str(src), "--output-dir", str(tmp_path / "o"),
                "--system", "model", "--params", str(params),
            ]
        )
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {params}: invalid JSON: "
            "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)\n"
        )

    def test_env_config_override(self, tmp_path, monkeypatch):
        config = tmp_path / "flat.json"
        config.write_text(
            json.dumps(
                [
                    {"system": "wilks", "sex": "M", "a": 500.0, "b": 0.0, "c": 0.0,
                     "d": 0.0, "e": 0.0, "f": 0.0, "C": 500.0},
                ]
            )
        )
        monkeypatch.setenv("LIFTCURVE_CONFIG", str(config))
        src = tmp_path / "data.csv"
        write_normalized_csv([make_entry(93.0, 500.0, sex=Sex.MALE)], src)
        out = tmp_path / "out"
        assert main(["score", "--input", str(src), "--output-dir", str(out), "--system", "wilks"]) == 0
        lines = (out / "scored.csv").read_text().strip().splitlines()
        assert lines[1].rsplit(",", 1)[1] == "500.000"

    @pytest.mark.parametrize("value", [None, "x"])
    @pytest.mark.parametrize(
        "layout, record, field",
        [
            ("config", {"system": "ipf_gl", "sex": "M", "A": 1200.0, "B": 1000.0, "C": 0.01}, "A"),
            ("config", {"system": "wilks", "sex": "M", "a": 500.0, "b": 0.0, "c": 0.0,
                        "d": 0.0, "e": 0.0, "f": 0.0, "C": 500.0}, "C"),
            ("params", {"sex": "M", "dataset": "original", "family": "logistic",
                        "L": 722.3, "k": 0.05447, "x0": 53.4}, "L"),
            ("params", to_table_record(LOGISTIC_MALE, "M", "resampled"), "L_1e2kg"),
        ],
        ids=["config-gl", "config-wilks", "params-internal", "params-table"],
    )
    def test_non_numeric_coefficient_exits_2_naming_it(
        self, tmp_path, monkeypatch, capsys, layout, record, field, value
    ):
        src = tmp_path / "data.csv"
        write_normalized_csv([make_entry(93.0, 700.0, sex=Sex.MALE)], src)
        record_file = tmp_path / "record.json"
        record_file.write_text(json.dumps([{**record, field: value}]))
        args = ["score", "--input", str(src), "--output-dir", str(tmp_path / "o")]
        if layout == "config":
            monkeypatch.setenv("LIFTCURVE_CONFIG", str(record_file))
            system = record["system"]
            args += ["--system", system]
        else:
            system = "model"
            args += ["--system", "model", "--params", str(record_file)]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert f"{system}/M" in err and repr(field) in err and repr(value) in err

    @pytest.mark.parametrize("layout, payload", [("config", [1]), ("params", ["abc"])])
    def test_non_object_record_exits_2_naming_it(self, tmp_path, monkeypatch, capsys, layout, payload):
        src = tmp_path / "data.csv"
        write_normalized_csv([make_entry(93.0, 700.0, sex=Sex.MALE)], src)
        record_file = tmp_path / "record.json"
        record_file.write_text(json.dumps(payload))
        args = ["score", "--input", str(src), "--output-dir", str(tmp_path / "o")]
        if layout == "config":
            monkeypatch.setenv("LIFTCURVE_CONFIG", str(record_file))
            args += ["--system", "wilks"]
        else:
            args += ["--system", "model", "--params", str(record_file)]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert f"record {payload[0]!r} is not a JSON object" in err

    def test_non_finite_coefficient_exits_2_naming_it(self, tmp_path, monkeypatch, capsys):
        config = tmp_path / "config.json"
        config.write_text(
            json.dumps([{"system": "wilks", "sex": "M", "a": 500.0, "b": 0.0, "c": 0.0,
                         "d": 0.0, "e": 0.0, "f": 0.0, "C": "inf"}])
        )
        monkeypatch.setenv("LIFTCURVE_CONFIG", str(config))
        src = tmp_path / "data.csv"
        write_normalized_csv([make_entry(93.0, 700.0, sex=Sex.MALE)], src)
        args = ["score", "--input", str(src), "--output-dir", str(tmp_path / "o"), "--system", "wilks"]
        assert main(args) == 2
        assert "Wilks coefficient 'C' must be finite, got inf" in capsys.readouterr().err

    def test_missing_sex_coefficients_exit_2(self, tmp_path, monkeypatch):
        config = tmp_path / "male_only.json"
        config.write_text(
            json.dumps([{"system": "ipf_gl", "sex": "M", "A": 1200.0, "B": 1000.0, "C": 0.01}])
        )
        monkeypatch.setenv("LIFTCURVE_CONFIG", str(config))
        src = tmp_path / "data.csv"
        write_normalized_csv([make_entry(60.0, 300.0, sex=Sex.FEMALE)], src)
        code = main(
            ["score", "--input", str(src), "--output-dir", str(tmp_path / "o"), "--system", "ipf_gl"]
        )
        assert code == 2


class TestDiagnoseCommand:
    def test_myriad_two_bins_on_20k_fixture(self, tmp_path):
        rng = np.random.Generator(np.random.Philox(key=71))
        entries = [
            make_entry(b, t, sex=Sex.MALE)
            for b, t in zip(rng.uniform(40, 180, 20_000), rng.uniform(200, 900, 20_000))
        ]
        src = tmp_path / "data.csv"
        write_normalized_csv(entries, src)
        out = tmp_path / "out"
        assert main(["diagnose", "--input", str(src), "--output-dir", str(out), "--myriad"]) == 0
        lines = (out / "myriad_M.csv").read_text().strip().splitlines()
        assert len(lines) == 3  # header + 2 bins

    def test_below_matches_library(self, tmp_path):
        rng = np.random.Generator(np.random.Philox(key=73))
        bodyweights = rng.uniform(40, 180, 500)
        entries = [make_entry(b, 500.0, sex=Sex.MALE) for b in bodyweights]
        src = tmp_path / "data.csv"
        write_normalized_csv(entries, src)
        out = tmp_path / "out"
        assert main(
            ["diagnose", "--input", str(src), "--output-dir", str(out), "--below", "53.4"]
        ) == 0
        summary = json.loads((out / "diagnostics_summary.json").read_text())
        parsed, _ = parse_csv(src)
        expected = fraction_below([e.bodyweight_kg for e in parsed], 53.4)
        assert summary["fraction_below"]["53.4"]["M"] == pytest.approx(expected, rel=1e-12)

    def test_quantiles_and_distribution_from_scored_csv(self, tmp_path):
        src = tmp_path / "data.csv"
        write_entries_csv(src, n_per_sex=400, seed=81)
        scored_dir = tmp_path / "scored"
        assert main(
            ["score", "--input", str(src), "--output-dir", str(scored_dir), "--system", "ipf_gl"]
        ) == 0
        out = tmp_path / "diag"
        assert main(
            [
                "diagnose", "--input", str(scored_dir / "scored.csv"),
                "--output-dir", str(out), "--window", "100",
            ]
        ) == 0
        assert (out / "quantiles_M.csv").exists()
        assert (out / "quantiles_F.csv").exists()
        summary = json.loads((out / "diagnostics_summary.json").read_text())
        assert "M" in summary["skewness"] and "F" in summary["skewness"]
        # the command is a thin wrapper: bytes must equal the library export
        scored = read_scored_csv(scored_dir / "scored.csv")
        male_pairs = [(e, s) for e, s in scored if e.sex is Sex.MALE]
        rq = rolling_quantiles(
            [e.bodyweight_kg for e, _ in male_pairs], [s for _, s in male_pairs], window=100
        )
        reference = tmp_path / "reference.csv"
        write_quantiles_csv(rq, reference)
        assert reference.read_bytes() == (out / "quantiles_M.csv").read_bytes()

    def test_insufficient_rows_warns_and_skips(self, tmp_path, capsys):
        src = tmp_path / "data.csv"
        write_entries_csv(src, n_per_sex=30, seed=83)
        scored_dir = tmp_path / "scored"
        assert main(
            ["score", "--input", str(src), "--output-dir", str(scored_dir), "--system", "ipf_gl"]
        ) == 0
        out = tmp_path / "diag"
        code = main(
            [
                "diagnose", "--input", str(scored_dir / "scored.csv"),
                "--output-dir", str(out), "--window", "100",
            ]
        )
        assert code == 0
        assert not (out / "quantiles_M.csv").exists()
        assert "skipping rolling quantiles" in capsys.readouterr().err

    def test_one_row_sex_skips_its_distribution_only(self, tmp_path, capsys):
        src = tmp_path / "data.csv"
        males = [make_entry(60.0 + i / 10, 500.0 + i, sex=Sex.MALE) for i in range(150)]
        write_normalized_csv(males + [make_entry(55.0, 300.0, sex=Sex.FEMALE)], src)
        scored_dir = tmp_path / "scored"
        assert main(
            ["score", "--input", str(src), "--output-dir", str(scored_dir), "--system", "ipf_gl"]
        ) == 0
        out = tmp_path / "diag"
        capsys.readouterr()
        code = main(
            [
                "diagnose", "--input", str(scored_dir / "scored.csv"), "--output-dir", str(out),
                "--myriad", "--window", "100", "--below", "60",
            ]
        )
        assert code == 0
        assert "warning: F: score distribution needs at least 2 scores, got 1, skipping distribution" in (
            capsys.readouterr().err
        )
        assert sorted(p.name for p in out.iterdir()) == [
            "diagnose_manifest.json", "diagnostics_summary.json", "distribution_M.csv",
            "myriad_F.csv", "myriad_M.csv", "quantiles_M.csv",
        ]
        summary = json.loads((out / "diagnostics_summary.json").read_text())
        assert list(summary["skewness"]) == ["M"]
        assert summary["fraction_below"] == {"60": {"F": 1.0, "M": 0.0}}

    def test_malformed_scored_row_exits_2_naming_its_line(self, tmp_path, capsys):
        src = tmp_path / "data.csv"
        write_entries_csv(src, n_per_sex=100, seed=85)
        scored_dir = tmp_path / "scored"
        assert main(
            ["score", "--input", str(src), "--output-dir", str(scored_dir), "--system", "ipf_gl"]
        ) == 0
        path = scored_dir / "scored.csv"
        lines = path.read_bytes().split(b"\r\n")
        lines[5] = lines[5].rsplit(b",", 1)[0] + b",oops"  # line 6: the 5th data row
        path.write_bytes(b"\r\n".join(lines))
        out = tmp_path / "diag"
        code = main(["diagnose", "--input", str(path), "--output-dir", str(out), "--window", "100"])
        assert code == 2
        assert f"error: {path}:6: malformed Score cell" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    def test_normalized_input_is_read_leniently(self, tmp_path):
        src = tmp_path / "data.csv"
        write_normalized_csv([make_entry(b, 500.0, sex=Sex.MALE) for b in (50.0, 60.0, 70.0, 80.0)], src)
        with open(src, "a", encoding="utf-8") as fh:
            fh.write("M,Raw,Open,SBD,oops,150,150,200,500\r\n")
        out = tmp_path / "out"
        assert main(
            ["diagnose", "--input", str(src), "--output-dir", str(out), "--window", "2", "--below", "65"]
        ) == 0
        summary = json.loads((out / "diagnostics_summary.json").read_text())
        assert summary == {"skewness": {}, "fraction_below": {"65": {"M": 0.5}}}
        assert not (out / "quantiles_M.csv").exists()

    @pytest.mark.parametrize("write", [write_scored_csv, write_normalized_csv], ids=["scored", "normalized"])
    def test_header_only_input_writes_an_empty_summary(self, tmp_path, write):
        src = tmp_path / "data.csv"
        write([], src)
        out = tmp_path / "out"
        assert main(
            [
                "diagnose", "--input", str(src), "--output-dir", str(out),
                "--myriad", "--window", "5", "--below", "60",
            ]
        ) == 0
        assert sorted(p.name for p in out.iterdir()) == ["diagnose_manifest.json", "diagnostics_summary.json"]
        assert (out / "diagnostics_summary.json").read_text() == '{\n  "fraction_below": {},\n  "skewness": {}\n}\n'
        manifest = json.loads((out / "diagnose_manifest.json").read_text())
        assert (manifest["myriad"], manifest["window"], manifest["below"]) == (True, 5, [60.0])


def cli_patch_names() -> list[str]:
    """The keys of ``CLI_PATCHES`` in the benchmark's workloads, read without importing it."""
    for node in ast.parse(WORKLOADS.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["CLI_PATCHES"]:
            return [ast.literal_eval(key) for key in node.value.keys]
    raise AssertionError(f"no CLI_PATCHES in {WORKLOADS}")


class TestBenchmarkPatchPoints:
    """The benchmark wraps these ``liftcurve.cli`` globals in spans."""

    def test_every_patched_name_is_a_cli_attribute(self):
        names = cli_patch_names()
        assert names
        assert [name for name in names if not callable(getattr(cli, name, None))] == []

    def test_commands_call_every_patched_name_through_module_globals(self, tmp_path, monkeypatch):
        called = set()
        for name in cli_patch_names():

            def wrapper(*args, _name=name, _fn=getattr(cli, name), **kwargs):
                called.add(_name)
                return _fn(*args, **kwargs)

            monkeypatch.setattr(cli, name, wrapper)
        src = tmp_path / "data.csv"
        write_entries_csv(src, n_per_sex=200, seed=87)
        work = tmp_path / "work"
        normalized = str(work / "normalized.csv")
        assert main(["ingest", "--input", str(src), "--output-dir", str(work)]) == 0
        assert main(["fit", "--input", normalized, "--output-dir", str(work), "--family", "logistic"]) == 0
        params = tmp_path / "params.json"
        records = [json.loads((work / f"fit_logistic_{sex}.json").read_text()) for sex in ("F", "M")]
        params.write_text(json.dumps(records))
        assert main(
            [
                "score", "--input", normalized, "--output-dir", str(work),
                "--system", "model", "--params", str(params),
            ]
        ) == 0
        assert main(
            [
                "diagnose", "--input", str(work / "scored.csv"), "--output-dir", str(work),
                "--myriad", "--window", "50", "--below", "60",
            ]
        ) == 0
        assert sorted(called) == sorted(cli_patch_names())


class TestPipelineDeterminism:
    def test_full_chain_rerun_is_byte_identical(self, tmp_path):
        src = tmp_path / "data.csv"
        write_entries_csv(src, n_per_sex=500, seed=91)
        work = tmp_path / "work"

        def run_chain():
            assert main(["ingest", "--input", str(src), "--output-dir", str(work)]) == 0
            assert main(
                [
                    "fit", "--input", str(work / "normalized.csv"), "--output-dir", str(work),
                    "--family", "logistic", "--sex", "both",
                    "--resample", "800", "--seed", "5",
                ]
            ) == 0
            assert main(
                [
                    "score", "--input", str(work / "normalized.csv"),
                    "--output-dir", str(work), "--system", "wilks2",
                ]
            ) == 0
            assert main(
                [
                    "diagnose", "--input", str(work / "scored.csv"), "--output-dir", str(work),
                    "--myriad", "--window", "50", "--below", "53.4",
                ]
            ) == 0
            return read_tree(work)

        first = run_chain()
        second = run_chain()
        assert first == second
        assert len(first) > 10
