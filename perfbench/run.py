"""Benchmark of the asrlab paper recipe.

    python3 perfbench/run.py --workload ctc_recipe --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

Run from the root of a source checkout: the package is imported from
./src. Each workload runs in its own process (`all` starts one per
workload). The untraced run (--trace 0) sets up its inputs several
times, repeats the workload for --seconds and prints every end-to-end
metric; the traced run (--trace 1) prints the per-layer metrics. The
last line of output is one JSON object {correct, attempted, failed,
metrics}. See perfbench/NOTES.md.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# BLAS/OpenMP threads are fixed before numpy is first imported
NPROC = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else (os.cpu_count() or 1)
BLAS_THREADS = min(2, NPROC)
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Benchmark of the asrlab paper recipe.")
    ap.add_argument("--workload", required=True, help="ctc_recipe, las_recipe, paper_ckpt_io or all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "smoke"), default="full",
                    help="smoke: tiny inputs and desk-shape checkpoints, for the benchmark's tests")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "asrlab" / "__init__.py").is_file():
        print(f"perfbench: no asrlab sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import harness

    return harness.main(args, ROOT, blas_threads=BLAS_THREADS, nproc=NPROC)


if __name__ == "__main__":
    sys.exit(main())
