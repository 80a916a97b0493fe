"""Regenerate the committed reference outputs of one workload's job pool.

    python3 perfbench/make_refs.py --workload NAME

Runs every pool job once with the current sources and writes
``perfbench/refs/<workload>.jsonl.gz``: one record per pool index with the
job's output text (or its error) and ``ref_s``, its time in reference
seconds, by which the kd-quantum strata are formed. Only rerun it when a
change is meant to alter outputs, and say so with the change.
"""

import argparse
import gzip
import json
import os
import shutil
import sys
import time
import warnings
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("PUREDIST_THREADS", None)
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import harness  # noqa: E402
import jobs  # noqa: E402


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(jobs.WORKLOADS))
    args = ap.parse_args()
    program = harness.Program(fresh=False)
    workdir = harness.WORK_DIR / f"refs-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    probe = harness.SpeedProbe()
    records = []
    try:
        specs = jobs.prepare(program, args.workload, workdir)
        probe.start()
        for i, spec in enumerate(specs):
            out = error = None
            start = time.perf_counter()
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    out = jobs.run_job(program, args.workload, spec)
            except Exception as exc:  # recorded as the expected outcome
                error = type(exc).__name__
                print(f"job {i}: {error}: {exc}", file=sys.stderr)
            ref_s = probe.ref_seconds(start, time.perf_counter())
            records.append({"i": i, "out": out, "error": error, "ref_s": round(ref_s, 4)})
            if i % 50 == 0:
                print(f"{args.workload}: {i}/{len(specs)}", file=sys.stderr)
    finally:
        probe.stop()
        shutil.rmtree(workdir, ignore_errors=True)
    jobs.REFS_DIR.mkdir(exist_ok=True)
    # mtime=0 keeps the file byte-identical for identical records
    with open(jobs.refs_path(args.workload), "wb") as raw, \
            gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as fh:
        for rec in records:
            fh.write((json.dumps(rec, sort_keys=True) + "\n").encode())
    failed = sum(r["error"] is not None for r in records)
    print(f"{args.workload}: {len(records)} jobs, {failed} failed", file=sys.stderr)


if __name__ == "__main__":
    main()
