import json
from pathlib import Path

import numpy as np
import pytest

from liftcurve.cli import main
from liftcurve.diagnostics import fraction_below, rolling_quantiles, write_quantiles_csv
from liftcurve.ingest import Sex, parse_csv, write_normalized_csv
from liftcurve.models import GrowthParams, ModelFamily, evaluate, to_table_record
from liftcurve.scoring import default_registry, read_scored_csv, wilks_score

from synth import logistic_xy, make_entry

FIXTURE = Path(__file__).parent / "data" / "sample20.csv"
LOGISTIC_MALE = GrowthParams(ModelFamily.LOGISTIC, 722.3, 0.05447, 53.40)


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

    def test_fit_recovers_generator_params(self, tmp_path):
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

    def test_model_without_params_exits_2(self, tmp_path):
        src = tmp_path / "data.csv"
        write_normalized_csv([make_entry(93.0, 700.0)], src)
        code = main(
            ["score", "--input", str(src), "--output-dir", str(tmp_path / "o"), "--system", "model"]
        )
        assert code == 2

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
