"""End-to-end benchmark of the liftcurve pipeline.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload flatten|fit_sweep|cli_pipeline \\
        --seed N --seconds S --trace 0|1

Builds its inputs from ``--seed``, runs the workload's rounds in a closed
loop (one client, one thread of Python) for about ``--seconds`` of timed
work, checks every output against the oracles in ``oracles.py`` and prints
a report followed, on the last line, by one JSON object. With ``--trace 0``
its metrics are the end-to-end metrics; with ``--trace 1`` untraced and
traced rounds alternate and the metrics are the per-layer numbers from the
traced rounds' spans. Failed operations are counted in the JSON. Exits 1
if an output check failed or the program raised, 2 if the program's
sources are missing.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# BLAS only ever multiplies n-by-3 Jacobians here; one thread keeps runs
# steady on a shared machine and stays within nproc.
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOAD_NAMES = ("flatten", "fit_sweep", "cli_pipeline")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "liftcurve" / "__init__.py").is_file():
        print(f"error: no liftcurve sources under {SRC}; run from a repository checkout", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    import runner  # imports numpy and liftcurve, so only after the thread pin

    return runner.run(args, ROOT, SRC)


if __name__ == "__main__":
    sys.exit(main())
