"""Self-check: the exact counts repeat exactly for a fixed seed.

Runs every workload twice in traced mode with the same seed and fails
unless each exact count is identical in both runs. Run from the root of a
checkout:

    python3 perfbench/selfcheck.py [--seed N]
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
WORKLOADS = ("flatten", "fit_sweep", "cli_pipeline")
EXACT_COUNTS = (
    "kde.kernel_evals",
    "fit.iterations",
    "resample.draws",
    "ingest.dropped_rows",
    "diagnostics.windows",
    "cli.bytes_written",
)


def counts(workload: str, seed: int) -> dict[str, float]:
    # --seconds 1: the warm-up round, then one untraced and one traced round
    done = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed)]
        + ["--seconds", "1", "--trace", "1"],
        capture_output=True,
        text=True,
        timeout=300,
    )
    if done.returncode != 0:
        raise SystemExit(f"{workload}: benchmark exited with code {done.returncode}\n{done.stderr}")
    metrics = json.loads(done.stdout.strip().splitlines()[-1])["metrics"]
    return {name: metrics[name]["value"] for name in EXACT_COUNTS}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    ok = True
    for workload in WORKLOADS:
        first, second = counts(workload, args.seed), counts(workload, args.seed)
        for name in EXACT_COUNTS:
            same = first[name] == second[name]
            ok &= same
            verdict = "ok" if same else "DIFFERS"
            print(f"{workload:<13} {name:<22} {first[name]:>14.15g} {second[name]:>14.15g} {verdict}")
    print("exact counts repeat" if ok else "exact counts differ between runs with the same seed")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
