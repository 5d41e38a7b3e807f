"""Command-line pipeline: ingest -> (resample) -> fit -> score -> diagnose.

Each ``cmd_<name>(args, out_dir)`` does its command's work and returns
``(exit code, manifest settings)``. :func:`main` creates the output
directory, writes ``<command>_manifest.json`` for every command that
returns, whatever its exit code, and maps exceptions to exit codes.
Rerunning a command with an identical manifest (same input bytes, same
arguments) reproduces every output file byte for byte. All randomness
flows from the single ``--seed`` value; per-purpose sub-seeds are derived
by hashing the seed with a fixed label.

Exit codes:

- 0: ok.
- 1: I/O error; no manifest.
- 2: config or schema error, no manifest; or ``fit`` could not fit a
  requested sex. Then the other sexes' fits and the manifest, with the
  reason under ``failed``, are still written.
- 3: a fit did not converge; its results and the manifest are still written.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .diagnostics import (
    fraction_below,
    myriad_averages,
    rolling_quantiles,
    score_distribution,
    write_distribution_csv,
    write_myriad_csv,
    write_quantiles_csv,
)
from .errors import ConfigError
from .fit import TOLERANCE, FitConfig, fit
from .ingest import PASSTHROUGH_POLICY, FilterPolicy, Sex, parse_csv, round_kg, write_normalized_csv
from .kde import BandwidthMode, fit_kde
from .models import parse_family, to_table_record
from .resample import DEFAULT_WEIGHT_FLOOR, ResamplePlan, flatten_resample
from .scoring import (
    SYSTEMS,
    ScoreRegistry,
    default_registry,
    drop_unscorable,
    is_scored_csv,
    read_json,
    read_scored_csv,
    score_dataset,
    write_scored_csv,
)

EXIT_OK = 0
EXIT_IO = 1
EXIT_CONFIG = 2
EXIT_NO_CONVERGENCE = 3

CONFIG_ENV_VAR = "LIFTCURVE_CONFIG"

_SEX_ORDER = (Sex.FEMALE, Sex.MALE)


def derive_seed(master_seed: int, label: str) -> int:
    """Stable 64-bit sub-seed for ``label``, derived from the manifest seed."""
    digest = hashlib.sha256(f"{master_seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


def _json_dump(payload, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _requested_sexes(tag: str) -> list[Sex]:
    if tag == "both":
        return list(_SEX_ORDER)
    return [Sex(tag)]


def _policy_payload(policy: FilterPolicy) -> dict:
    """Manifest policy keys: the analysis-set switch is written under each
    ``require_*`` key and ``bodyweight_range`` is null, so manifests keep their layout."""
    return {
        "require_raw": policy.analysis_set,
        "require_open_division": policy.analysis_set,
        "require_full_event": policy.analysis_set,
        "sex": policy.sex.value if policy.sex else None,
        "bodyweight_range": None,
    }


def cmd_ingest(args: argparse.Namespace, out_dir: Path) -> tuple[int, dict]:
    policy = FilterPolicy(sex=None if args.sex == "both" else Sex(args.sex))
    entries, stats = parse_csv(args.input, policy)
    write_normalized_csv(entries, out_dir / "normalized.csv")
    _json_dump(
        {
            "total_rows": stats.total_rows,
            "kept": stats.kept,
            "dropped_by_reason": stats.dropped_by_reason,
        },
        out_dir / "ingest_stats.json",
    )
    dropped = stats.total_rows - stats.kept
    print(f"kept {stats.kept} of {stats.total_rows} rows ({dropped} dropped)")
    for reason in sorted(stats.dropped_by_reason):
        print(f"  dropped[{reason}] = {stats.dropped_by_reason[reason]}")
    return EXIT_OK, {"policy": _policy_payload(policy)}


def cmd_fit(args: argparse.Namespace, out_dir: Path) -> tuple[int, dict]:
    family = parse_family(args.family)
    bandwidth_mode = BandwidthMode(args.bandwidth)
    policy = FilterPolicy()
    entries, _ = parse_csv(args.input, policy)
    config = FitConfig(family=family, max_iterations=args.max_iterations)
    # checked once, before any sex: a bad --resample or --jitter fails them all
    plan = ResamplePlan(k=args.resample, jitter_std_kg=args.jitter) if args.resample else None
    dataset = "resampled" if plan else "original"

    plans: dict[str, dict] = {}
    failed: dict[str, str] = {}
    any_diverged = False
    for sex in _requested_sexes(args.sex):
        subset = [e for e in entries if e.sex is sex]
        label = sex.value
        try:
            if plan:
                kde = fit_kde([e.bodyweight_kg for e in subset], mode=bandwidth_mode)
                drawn, resolved = flatten_resample(
                    subset, kde, replace(plan, seed=derive_seed(args.seed, f"resample:{label}"))
                )
                # fit the bodyweights that the written file holds, rounded as ingest rounds them
                bodyweights = round_kg(np.array([e.bodyweight_kg for e in drawn])).tolist()
                subset = [e._replace(bodyweight_kg=bw) for e, bw in zip(drawn, bodyweights)]
            result = fit([e.bodyweight_kg for e in subset], [e.total_kg for e in subset], config)
        except ValueError as exc:
            print(f"error: fit {family.value} {label}: {exc}", file=sys.stderr)
            failed[label] = str(exc)
            continue
        if plan:
            write_normalized_csv(subset, out_dir / f"resampled_{label}.csv")
            plans[label] = {
                "k": resolved.k,
                "seed": resolved.seed,
                "jitter_std_kg": resolved.jitter_std_kg,
                "weight_floor": DEFAULT_WEIGHT_FLOOR,
                "bandwidth_kg": kde.bandwidth,
                "bandwidth_mode": bandwidth_mode.value,
            }
            _json_dump(plans[label], out_dir / f"resample_plan_{label}.json")
        table = to_table_record(result.params, label, dataset, sig_figs=4)
        _json_dump(table, out_dir / f"fit_{family.value}_{label}_table.json")
        record = {"sex": label, "dataset": dataset, **result.to_record()}
        _json_dump(record, out_dir / f"fit_{family.value}_{label}.json")
        state = "converged" if result.converged else "did NOT converge"
        print(
            f"fit {family.value} {label} ({dataset}): L={result.params.L:.4g} "
            f"k={result.params.k:.4g} x0={result.params.x0:.4g} "
            f"rmse={result.rmse:.4g} [{state} in {result.iterations} it]"
        )
        on_bound = [
            f"{name} on its {'lower' if side < 0 else 'upper'} bound"
            for name, side in zip(("L", "k", "x0"), result.active_bounds)
            if side
        ]
        if on_bound:
            print(f"warning: fit {family.value} {label}: {', '.join(on_bound)}", file=sys.stderr)
        if not result.converged:
            any_diverged = True

    code = EXIT_CONFIG if failed else EXIT_NO_CONVERGENCE if any_diverged else EXIT_OK
    return code, {
        **({"failed": failed} if failed else {}),
        "policy": _policy_payload(policy),
        "family": family.value,
        "sex": args.sex,
        "bandwidth_mode": bandwidth_mode.value,
        "resample_plans": plans or None,
        "fit_config": {"max_iterations": config.max_iterations, "tolerance": TOLERANCE},
        "seed": args.seed,
    }


def _load_registry(args: argparse.Namespace) -> ScoreRegistry:
    config_path = os.environ.get(CONFIG_ENV_VAR)
    registry = ScoreRegistry.from_config(config_path) if config_path else default_registry()
    if args.system == "model":
        if not args.params:
            raise ConfigError("--params FILE is required for --system model")
        payload = read_json(args.params)
        registry.add_fit_records(payload if isinstance(payload, list) else [payload])
    return registry


def cmd_score(args: argparse.Namespace, out_dir: Path) -> tuple[int, dict]:
    registry = _load_registry(args)
    entries, _ = parse_csv(args.input, PASSTHROUGH_POLICY)
    scorable, dropped_by_reason = drop_unscorable(entries, args.system, registry)
    scored = score_dataset(scorable, args.system, registry)
    write_scored_csv(scored, out_dir / "scored.csv")
    _json_dump(
        {"rows_in": len(entries), "scored": len(scored), "dropped_by_reason": dropped_by_reason},
        out_dir / "score_stats.json",
    )
    dropped = len(entries) - len(scored)
    print(f"scored {len(scored)} of {len(entries)} entries with system={args.system} ({dropped} dropped)")
    for reason in sorted(dropped_by_reason):
        print(f"  dropped[{reason}] = {dropped_by_reason[reason]}")
    return EXIT_OK, {
        "system": args.system,
        "params": str(args.params) if args.params else None,
        "config": os.environ.get(CONFIG_ENV_VAR),
    }


def cmd_diagnose(args: argparse.Namespace, out_dir: Path) -> tuple[int, dict]:
    # a scored file is read strictly; a normalized one leniently, without scores
    has_scores = is_scored_csv(args.input)
    if has_scores:
        scored = read_scored_csv(args.input)
    else:
        entries, _ = parse_csv(args.input, PASSTHROUGH_POLICY)
        scored = [(entry, None) for entry in entries]

    summary: dict = {"skewness": {}, "fraction_below": {}}
    for sex in _SEX_ORDER:
        pairs = [(e, s) for e, s in scored if e.sex is sex]
        if not pairs:
            continue
        label = sex.value
        bodyweights = [e.bodyweight_kg for e, _ in pairs]
        if args.myriad:
            bins = myriad_averages(bodyweights, [e.total_kg for e, _ in pairs])
            write_myriad_csv(bins, out_dir / f"myriad_{label}.csv")
        if has_scores:
            scores = [s for _, s in pairs]
            if args.window and len(scores) >= args.window:
                rq = rolling_quantiles(bodyweights, scores, window=args.window)
                write_quantiles_csv(rq, out_dir / f"quantiles_{label}.csv")
            elif args.window:
                print(
                    f"warning: {label}: {len(scores)} rows < window {args.window}, "
                    "skipping rolling quantiles",
                    file=sys.stderr,
                )
            try:
                dist = score_distribution(scores)
            except ValueError as exc:
                print(f"warning: {label}: {exc}, skipping distribution", file=sys.stderr)
            else:
                write_distribution_csv(dist, out_dir / f"distribution_{label}.csv")
                summary["skewness"][label] = dist.skewness
        for threshold in args.below or []:
            summary["fraction_below"].setdefault(f"{threshold:g}", {})[label] = fraction_below(
                bodyweights, threshold
            )

    _json_dump(summary, out_dir / "diagnostics_summary.json")
    return EXIT_OK, {"myriad": bool(args.myriad), "window": args.window, "below": list(args.below or [])}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="liftcurve",
        description="Bodyweight-to-strength curve fitting and score diagnostics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--input", required=True, help="input CSV path")
    common.add_argument("--output-dir", required=True, help="directory for outputs")

    p_ingest = sub.add_parser("ingest", parents=[common], help="parse and filter a dataset CSV")
    p_ingest.add_argument("--sex", choices=["F", "M", "both"], default="both")
    p_ingest.set_defaults(func=cmd_ingest)

    p_fit = sub.add_parser("fit", parents=[common], help="fit growth models, optionally on resampled data")
    p_fit.add_argument("--sex", choices=["F", "M", "both"], default="both")
    p_fit.add_argument("--family", choices=["vb", "logistic"], required=True)
    p_fit.add_argument("--resample", type=int, default=0, metavar="K",
                       help="resample to K entries before fitting (0 = fit the original data)")
    p_fit.add_argument("--seed", type=int, default=0)
    p_fit.add_argument("--bandwidth", choices=["paper", "scaled"], default="scaled")
    p_fit.add_argument("--jitter", type=float, default=None, metavar="STD",
                       help="bodyweight jitter std in kg (default: KDE bandwidth)")
    p_fit.add_argument("--max-iterations", type=int, default=200)
    p_fit.set_defaults(func=cmd_fit)

    p_score = sub.add_parser("score", parents=[common], help="append a score column")
    p_score.add_argument("--system", choices=SYSTEMS, required=True)
    p_score.add_argument("--params", default=None, help="growth-params JSON for --system model")
    p_score.set_defaults(func=cmd_score)

    p_diag = sub.add_parser("diagnose", parents=[common], help="dataset / score diagnostics CSVs")
    p_diag.add_argument("--myriad", action="store_true", help="write bodyweight-group averages")
    p_diag.add_argument("--window", type=int, default=0, metavar="N",
                        help="rolling-quantile window (0 = skip)")
    p_diag.add_argument("--below", type=float, action="append", metavar="X",
                        help="report fraction of sample below X kg (repeatable)")
    p_diag.set_defaults(func=cmd_diagnose)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    out_dir = Path(args.output_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        code, settings = args.func(args, out_dir)
        manifest = {"command": args.command, "input": str(args.input), "output_dir": str(args.output_dir)}
        _json_dump({**manifest, **settings}, out_dir / f"{args.command}_manifest.json")
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:  # SchemaError and ConfigError among them
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return code


if __name__ == "__main__":
    sys.exit(main())
