"""Run one benchmark workload and print its result as the last stdout line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout. ``--trace 0`` measures the end-to-end
metrics over about S reference seconds of jobs; ``--trace 1`` runs a fixed
job list untraced and then traced and reports the per-layer metrics. See
perfbench/README.md.
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

# one BLAS thread, set before numpy loads: the matrices are at most 64x64
# and extra threads only contend for the two CPUs of the reference machine
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
# a closed loop with one client: no process pool inside the CLI
os.environ.pop("PUREDIST_THREADS", None)

SRC = Path(__file__).resolve().parent.parent / "src"


def parse_args(argv):
    import jobs
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(jobs.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def main(argv=None):
    if not (SRC / "puredist" / "__init__.py").is_file():
        print(f"error: no puredist sources at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    args = parse_args(argv)
    import harness
    return harness.main(args, STARTED)


if __name__ == "__main__":
    sys.exit(main())
