"""Hash every output of a benchmark workload's job pool.

Runs every job of each named workload's pool once, in pool order, untraced,
in one process, and prints per workload the pool size, the number of
outputs that miss their references (by ``perfbench.jobs.matches``), the
number that equal their references' bytes and the sha256 of all outputs in
pool order, each followed by a NUL byte. Two checkouts whose hashes agree
produce the same bytes on the whole pool; the reference check alone allows
floats to move within ``FLOAT_TOL``, so the byte count shows how far the
outputs have drifted from the bytes the references pin.

    python3 tools/pool_hash.py [ROOT] WORKLOAD...

ROOT is a checkout of the repository (default: the one holding this script);
its ``src/puredist`` and ``perfbench`` are imported, so the same script hashes
a ``git archive`` extraction of any commit. A failed job's output is its
error text. The pool's input files go to a temporary directory. The exit
status is 1 when any job failed or missed its reference, so a bit-for-bit
gate can be scripted, and 0 otherwise.
"""

import hashlib
import sys
import tempfile
import warnings
from pathlib import Path


def main(argv) -> int:
    root = Path(__file__).resolve().parent.parent
    if argv and Path(argv[0]).is_dir():
        root, argv = Path(argv[0]).resolve(), argv[1:]
    if not argv:
        print("usage: python3 tools/pool_hash.py [ROOT] WORKLOAD...", file=sys.stderr)
        return 2
    sys.path[:0] = [str(root / "src"), str(root)]
    from perfbench import jobs
    import puredist.cli  # noqa: F401  (imports every module a job uses)
    import puredist as pd

    missed = False
    for workload in argv:
        refs, digest, misses, same = jobs.load_refs(workload), hashlib.sha256(), 0, 0
        with tempfile.TemporaryDirectory() as workdir, warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the quality warnings of the pool
            specs = jobs.prepare(pd, workload, workdir)
            for spec, ref in zip(specs, refs):
                try:
                    output = jobs.run_job(pd, workload, spec)
                except Exception as exc:  # a failed job misses its ref
                    output = f"{type(exc).__name__}: {exc}"
                    misses += 1
                else:
                    misses += not jobs.matches(workload, output, ref)
                    same += output == ref["out"]
                digest.update(output.encode() + b"\0")
        print(f"{workload}: pool {len(specs)}, ref misses {misses}, ref bytes {same}, "
              f"sha256 {digest.hexdigest()}")
        missed = missed or misses > 0
    return int(missed)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
