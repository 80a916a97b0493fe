"""Time the protocol workloads' pool jobs on two checkouts in one process.

Imports each root's ``src/puredist`` under its own package name
(``checkouts.load_package``), runs the same pool jobs of each named
workload through ``perfbench.jobs.run_job`` on both back to back,
alternating which goes first, ``REPEATS`` times over, and prints as JSON
per workload the number of jobs, each side's total of its best time per
job in seconds, their ratio B/A, and whether every output of B equals A's.
Since both sides share the process and the moments of their runs, a drift
of the host's speed falls on both alike, which separate benchmark runs
cannot promise.

    python3 tools/pool_time.py ROOT_A ROOT_B WORKLOAD...

The jobs of a workload are ``JOBS[workload]`` of its pool, whose inputs go
to a temporary directory; ``perfbench`` is imported from ROOT_A. Like
``perfbench/run.py``, it runs with one BLAS thread (``checkouts`` pins it).
"""

import json
import sys
import tempfile
import time
import warnings
from pathlib import Path

from checkouts import load_package

# the protocol workloads (tools/verify_split.py splits verify-suite by check)
JOBS = {"compare-sweep": range(2, 400, 5), "kd-quantum": range(3, 600, 7)}
REPEATS = 3


def time_pool(pds, jobs, workload) -> dict:
    """Both packages' best times on the workload's ``JOBS``, in turn per job."""
    best, same = [0.0, 0.0], True
    with tempfile.TemporaryDirectory() as workdir, warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the quality warnings of the pool
        specs = jobs.prepare(pds[0], workload, workdir)
        for i, index in enumerate(JOBS[workload]):
            times, outputs = [float("inf")] * 2, [None] * 2
            for r in range(REPEATS):
                for k in ((i + r) % 2, (i + r + 1) % 2):
                    start = time.perf_counter()
                    outputs[k] = jobs.run_job(pds[k], workload, specs[index])
                    times[k] = min(times[k], time.perf_counter() - start)
            best = [b + t for b, t in zip(best, times)]
            same = same and outputs[0] == outputs[1]
    return {"jobs": len(JOBS[workload]), "a_s": best[0], "b_s": best[1],
            "ratio": best[1] / best[0], "outputs_equal": same}


def main(argv) -> int:
    if len(argv) < 3 or any(w not in JOBS for w in argv[2:]):
        print(f"usage: python3 tools/pool_time.py ROOT_A ROOT_B WORKLOAD... "
              f"(WORKLOAD one of {', '.join(JOBS)})", file=sys.stderr)
        return 2
    roots = [Path(a).resolve() for a in argv[:2]]
    sys.path.insert(0, str(roots[0]))
    from perfbench import jobs

    pds = [load_package(name, root) for name, root in zip(("puredist_a", "puredist_b"), roots)]
    out = {"roots": [str(r) for r in roots], "repeats": REPEATS,
           "workloads": {w: time_pool(pds, jobs, w) for w in argv[2:]}}
    print(json.dumps(out, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
