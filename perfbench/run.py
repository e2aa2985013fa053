"""Benchmark entry point: python3 perfbench/run.py --workload NAME [--seed N]
[--seconds S] [--trace 0|1], run from the root of a source checkout.

Pins BLAS/OpenMP to one thread before numpy is imported and imports
patchdenoise from the checkout's `src`. Without that source tree it exits
with code 2 and prints no result.
"""

import os
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def main() -> int:
    if not (SRC / "patchdenoise" / "__init__.py").is_file():
        print(f"perfbench: no patchdenoise sources under {SRC}", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import bench

    return bench.main()


if __name__ == "__main__":
    sys.exit(main())
