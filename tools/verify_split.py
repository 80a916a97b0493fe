"""Time each ``puredist verify`` check on the verify-suite pool chunks.

Runs every check of ``puredist.verify.SUITE`` on the pool chunks that the
verify-suite benchmark runs (``perfbench.jobs._pool_rng`` seeds, its trials
and eps), untraced, in one process, and prints as JSON each check's median
time per chunk in seconds and the round total, the sum of those medians;
then each check's slowest chunk and the check whose slowest chunk is the
slowest of all, the one that sets verify-suite's ``job_s.tail``.

    python3 tools/verify_split.py [ROOT]

ROOT is a checkout of the repository (default: the one holding this script);
its ``src/puredist`` and ``perfbench`` are imported, so the same script times
a ``git archive`` extraction of any commit. The ``CHUNKS`` of every check run
in turn, ``REPEATS`` times over; a chunk's time is the best of its runs.
"""

import json
import statistics
import sys
import time
import warnings
from pathlib import Path

CHUNKS = range(20, 30)
REPEATS = 3


def main(argv) -> int:
    root = Path(argv[0] if argv else Path(__file__).resolve().parent.parent).resolve()
    sys.path[:0] = [str(root / "src"), str(root)]
    from perfbench import jobs
    from puredist import verify

    best = {name: [float("inf")] * len(CHUNKS) for name in verify.MANIFEST}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the compression checks' quality warnings
        for _ in range(REPEATS):
            for name, check in zip(verify.MANIFEST, verify.SUITE):
                for i, chunk in enumerate(CHUNKS):
                    rng = jobs._pool_rng(name, chunk)
                    start = time.perf_counter()
                    check(rng, jobs.VERIFY_TRIALS, jobs.VERIFY_EPS)
                    best[name][i] = min(best[name][i], time.perf_counter() - start)
    checks = {name: statistics.median(times) for name, times in best.items()}
    slowest = {name: max(times) for name, times in best.items()}
    print(json.dumps({"root": str(root), "chunks": [CHUNKS.start, CHUNKS.stop],
                      "repeats": REPEATS, "checks_s": checks,
                      "round_s": sum(checks.values()), "slowest_chunk_s": slowest,
                      "slowest_check": max(slowest, key=slowest.get)}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
