"""Entry point of the end-to-end benchmark (see README.md beside it).

    python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmarks/e2e/run.py [--trace] [--repeat 2] [--spread 10] [--smoke] [--scale F]

The program under test is the checkout's own ``src/``; the benchmark
never measures an installed copy.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SOURCE = HERE.parents[1] / "src"


def prepare_environment() -> None:
    """One BLAS thread (the box has two shared cores) and no ``REPRO_*``
    override: the program receives only what the harness passes it."""
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[name] = "1"
    for name in [name for name in os.environ if name.startswith("REPRO_")]:
        del os.environ[name]
    if not (SOURCE / "repro").is_dir():
        sys.exit(f"run.py: no program to measure: {SOURCE / 'repro'} is missing")
    sys.path[:0] = [str(SOURCE), str(HERE)]


if __name__ == "__main__":
    prepare_environment()
    from e2ebench.report import main

    sys.exit(main())
