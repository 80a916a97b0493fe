"""Time each ``puredist verify`` check on the verify-suite pool chunks.

Runs every check of ``puredist.verify.SUITE`` on the pool chunks that the
verify-suite benchmark runs (``perfbench.jobs._pool_rng`` seeds, its trials
and eps), untraced, in one process, and prints as JSON each check's median
time per chunk in seconds and the round total, the sum of those medians;
then each check's slowest chunk and the check whose slowest chunk is the
slowest of all, the one that sets verify-suite's ``job_s.tail``.

    python3 tools/verify_split.py [ROOT]
    python3 tools/verify_split.py ROOT_A ROOT_B

ROOT is a checkout of the repository (default: the one holding this script);
its ``src/puredist`` and ``perfbench`` are imported, so the same script times
a ``git archive`` extraction of any commit. The ``CHUNKS`` of every check run
in turn, ``REPEATS`` times over; a chunk's time is the best of its runs.
Like ``perfbench/run.py``, it runs with one BLAS thread (``checkouts`` pins
it).

With two roots, each root's ``src/puredist`` is imported in this one process
under its own package name (``puredist_a`` and ``puredist_b``, by
``checkouts.load_package``), and every chunk runs on both back to back,
alternating which goes first, so a drift of the host's speed falls on both
alike. It prints per check both medians and their ratio B/A, then both
rounds and their ratio. ``perfbench`` is imported from ROOT_A.
"""

import json
import statistics
import sys
import time
import warnings
from pathlib import Path

from checkouts import load_package

CHUNKS = range(20, 30)
REPEATS = 3


def best_times(verifies, jobs) -> list:
    """Per verify module, each check's best time per chunk, the modules run
    back to back on each chunk, the first of them turning with each run."""
    best = [{name: [float("inf")] * len(CHUNKS) for name in verifies[0].MANIFEST}
            for _ in verifies]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the compression checks' quality warnings
        for r in range(REPEATS):
            for name in verifies[0].MANIFEST:
                for i, chunk in enumerate(CHUNKS):
                    for k in range(len(verifies)):
                        k = (k + r + i) % len(verifies)
                        check = verifies[k].SUITE[verifies[k].MANIFEST.index(name)]
                        rng = jobs._pool_rng(name, chunk)
                        start = time.perf_counter()
                        check(rng, jobs.VERIFY_TRIALS, jobs.VERIFY_EPS)
                        best[k][name][i] = min(best[k][name][i], time.perf_counter() - start)
    return best


def main(argv) -> int:
    roots = [Path(a).resolve() for a in argv] or [Path(__file__).resolve().parent.parent]
    if len(roots) > 2:
        print("usage: python3 tools/verify_split.py [ROOT | ROOT_A ROOT_B]", file=sys.stderr)
        return 2
    sys.path.insert(0, str(roots[0]))
    from perfbench import jobs

    names = ["puredist"] if len(roots) == 1 else ["puredist_a", "puredist_b"]
    best = best_times([load_package(n, root).verify for n, root in zip(names, roots)], jobs)
    checks = [{name: statistics.median(times) for name, times in b.items()} for b in best]
    if len(roots) == 1:
        slowest = {name: max(times) for name, times in best[0].items()}
        out = {"root": str(roots[0]), "chunks": [CHUNKS.start, CHUNKS.stop],
               "repeats": REPEATS, "checks_s": checks[0], "round_s": sum(checks[0].values()),
               "slowest_chunk_s": slowest, "slowest_check": max(slowest, key=slowest.get)}
    else:
        a, b = checks
        rounds = [sum(c.values()) for c in checks]
        out = {"roots": [str(r) for r in roots], "chunks": [CHUNKS.start, CHUNKS.stop],
               "repeats": REPEATS,
               "checks_s": {name: {"a": a[name], "b": b[name], "ratio": b[name] / a[name]}
                            for name in a},
               "round_s": {"a": rounds[0], "b": rounds[1], "ratio": rounds[1] / rounds[0]}}
    print(json.dumps(out, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
