"""Time the benchmark workloads' pool jobs on two checkouts in one process.

    python3 tools/pool_time.py ROOT_A ROOT_B WORKLOAD...

Imports each root's ``src/puredist`` under its own package name
(``load_package``) and runs the same pool jobs of each workload, ``JOBS`` of
its pool (for verify-suite, those chunks of every check), through
``perfbench.jobs.run_job`` on both back to back, alternating which goes
first, ``REPEATS`` times over. Prints as JSON per workload the number of
jobs, each side's total of its best time per job in seconds, their ratio
B/A, each side's median best job time (``median_s``) and the ratio B/A of
those medians (``median_ratio``), each side's slowest job, whether all
outputs agree and, where they do not, each JSON field that differs
(``moved``: on how many jobs, and its largest absolute move); for
verify-suite also the totals, ratio, medians, median ratio and slowest jobs
per check. A drift of the host's speed falls on both sides alike, as
separate benchmark runs cannot promise. ROOT ROOT times one checkout
against itself. Inputs go to a temporary directory, ``perfbench`` comes
from ROOT_A, and BLAS runs one thread, as in ``perfbench/run.py``.
"""

import importlib.util
import json
import os
import statistics
import sys
import tempfile
import time
import warnings
from pathlib import Path

# before numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

JOBS = {"compare-sweep": range(2, 400, 5), "kd-quantum": range(3, 600, 7),
        "verify-suite": range(20, 30)}
REPEATS = 3


def load_package(name: str, root: Path):
    """``root``'s ``src/puredist`` imported as the package ``name``, with
    every module that a ``perfbench`` job uses (``cli`` imports them all).
    A package loaded before under ``name`` is dropped first, modules and all;
    the package imports itself only relatively, so two names share no module."""
    for stale in [m for m in sys.modules if m == name or m.startswith(name + ".")]:
        del sys.modules[stale]
    src = root / "src" / "puredist"
    spec = importlib.util.spec_from_file_location(name, src / "__init__.py",
                                                  submodule_search_locations=[str(src)])
    sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sys.modules[name])
    importlib.import_module(f"{name}.cli")
    return sys.modules[name]


def _sides(times) -> dict:
    a, b = zip(*times)
    medians = [statistics.median(a), statistics.median(b)]
    return {"a_s": sum(a), "b_s": sum(b), "ratio": sum(b) / sum(a), "median_s": medians,
            "median_ratio": medians[1] / medians[0], "slowest_s": [max(a), max(b)]}


def _larger(last, move):
    """The larger of two absolute moves; None (a move that is not a number) wins."""
    return None if last is None or move is None else max(last, move)


def field_moves(a: str, b: str) -> dict:
    """Each field, named by its innermost JSON key, whose values differ
    between the outputs ``a`` and ``b``, with its largest absolute move;
    None where a differing value is not a number, and ``output`` names what
    sits under no key (the whole output, when either is not JSON)."""
    moves = {}

    def walk(x, y, field):
        if isinstance(x, dict) and isinstance(y, dict) and x.keys() == y.keys():
            for key in x:
                walk(x[key], y[key], key)
        elif isinstance(x, list) and isinstance(y, list) and len(x) == len(y):
            for u, v in zip(x, y):
                walk(u, v, field)
        elif x != y:
            numbers = all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (x, y))
            moves[field] = _larger(moves.get(field, 0.0), abs(x - y) if numbers else None)

    try:
        walk(json.loads(a), json.loads(b), "output")
    except ValueError:
        return {"output": None}
    return moves


def time_pool(pds, jobs, workload) -> dict:
    """Both packages' best times on the workload's jobs, in turn per job."""
    indices = JOBS[workload]
    if workload == "verify-suite":  # those chunks of every check
        indices = [check * jobs.VERIFY_CHUNKS + chunk for check in range(len(pds[0].verify.SUITE))
                   for chunk in indices]
    best, same, moved = [], True, {}
    with tempfile.TemporaryDirectory() as workdir, warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the quality warnings of the pool
        specs = jobs.prepare(pds[0], workload, workdir)
        for i, index in enumerate(indices):
            times, outputs = [float("inf")] * 2, [None] * 2
            for r in range(REPEATS):
                for k in ((i + r) % 2, (i + r + 1) % 2):
                    start = time.perf_counter()
                    outputs[k] = jobs.run_job(pds[k], workload, specs[index])
                    times[k] = min(times[k], time.perf_counter() - start)
            best.append(times)
            if outputs[0] != outputs[1]:
                same = False
                for field, move in field_moves(*outputs).items():
                    entry = moved.setdefault(field, {"jobs": 0, "max_abs": 0.0})
                    entry["jobs"] += 1
                    entry["max_abs"] = _larger(entry["max_abs"], move)
    out = {"jobs": len(indices), **_sides(best), "outputs_equal": same, "moved": moved}
    if workload == "verify-suite":
        checks = {}
        for index, times in zip(indices, best):
            checks.setdefault(pds[0].verify.MANIFEST[specs[index][0]], []).append(times)
        out["checks"] = {name: _sides(t) for name, t in checks.items()}
    return out


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
