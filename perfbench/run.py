"""curvegp benchmark entry point.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

This file only pins the BLAS thread count, finds the checkout's curvegp
sources and hands over to `harness.main`. It exits 2, printing no result,
when the checkout holds no curvegp sources. See perfbench/README.md.
"""

import os
import sys
import time

PROCESS_START = time.perf_counter()

# Pin the BLAS/OpenMP thread count before numpy is first imported: the
# optimizer's path, and so its iteration counts, depends on it.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")

if __name__ == "__main__":
    if not os.path.isfile(os.path.join(SRC, "curvegp", "cli.py")):
        print(f"error: no curvegp sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path[:0] = [SRC, BENCH_DIR]
    import harness
    sys.exit(harness.main(sys.argv[1:], ROOT, PROCESS_START, BLAS_THREADS))
