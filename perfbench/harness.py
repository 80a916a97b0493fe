"""Closed-loop benchmark runner: set-up, timed run, traced run, report.

One process, one client, one job at a time. ``run.py`` pins the BLAS
thread pools to one thread and puts the checkout's ``src`` first on
``sys.path`` before this module (and numpy) is imported.
"""

import bisect
import hashlib
import importlib
import itertools
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import time
import warnings
from pathlib import Path

import numpy as np

import jobs
import tracer

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "_out"
WORK_DIR = Path(__file__).resolve().parent / "_work"

SETUP_PASSES = 3      # at least, and as many more as fit in SETUP_MIN_S
SETUP_MIN_S = 1.0
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_BEYOND = 10
PUREDIST_MODULES = ("cli", "sampling", "states", "verify")
# The reference machine's speed drifts by up to 2x over seconds as its
# neighbours load the host, with CPU time moving in step. A fixed numpy task
# that shares nothing with puredist is timed every PROBE_INTERVAL_S, and
# every timed interval is scaled by PROBE_REF_S / (probe time), giving
# "reference seconds": wall seconds on a host where the probe takes
# PROBE_REF_S, as the reference machine does when unloaded.
PROBE_INTERVAL_S = 0.05
PROBE_WINDOW_S = 0.25
PROBE_PIECE_S = 0.5
PROBE_REPS = 20
PROBE_REF_S = 3.0e-4
WARNING_COUNTS = {  # counter name -> start of the UserWarning message
    "compression.quality_warnings": "compression normalization",
    "entropy.i_max_cq.cap_hits": "i_max_cq hit the iteration cap",
}


class Program:
    """The puredist modules a run uses, imported afresh on request."""

    def __init__(self, fresh):
        if fresh:
            for name in [n for n in sys.modules
                         if n == "puredist" or n.startswith("puredist.")]:
                del sys.modules[name]
        for name in PUREDIST_MODULES:
            setattr(self, name, importlib.import_module(f"puredist.{name}"))


class SpeedProbe:
    """Samples the host's speed from a SIGALRM timer while it is running."""

    def __init__(self):
        g = np.random.default_rng(0).normal(size=(2, 8, 8))
        m = g[0] + 1j * g[1]
        self._matrix = m + m.conj().T
        self.times = []
        self.factors = []

    def _sample(self, signum, frame):
        t = time.perf_counter()
        for _ in range(PROBE_REPS):
            np.linalg.eigh(self._matrix)
        self.times.append(t)
        self.factors.append(PROBE_REF_S / (time.perf_counter() - t))

    def start(self):
        self._sample(None, None)
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def ref_seconds(self, start, end):
        """The wall interval [start, end] in reference seconds.

        Each piece of at most ``PROBE_PIECE_S`` is scaled by the median of
        the samples within ``PROBE_WINDOW_S`` of it. The median ignores a
        sample whose task was descheduled, which says nothing about the
        speed of the code around it.
        """
        total, a = 0.0, start
        while a < end:
            b = min(end, a + PROBE_PIECE_S)
            lo = bisect.bisect_left(self.times, a - PROBE_WINDOW_S)
            hi = bisect.bisect_right(self.times, b + PROBE_WINDOW_S)
            if lo == hi:  # no sample near: take the nearest one
                lo = min(lo, len(self.times) - 1)
                hi = lo + 1
            total += (b - a) * statistics.median(self.factors[lo:hi])
            a = b
        return total


def environment():
    blas = "unknown"
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (TypeError, KeyError):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas": blas,
        "threads": {v: os.environ.get(v) for v in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "machine": platform.machine(),
    }


def setup(workload, workdir, started):
    """Import puredist, generate and write the pool's inputs and load the
    references: ``SETUP_PASSES`` times, and more until ``SETUP_MIN_S`` has
    passed. Returns the last pass's state and the (start, end) of every
    pass. The first pass starts at ``started`` (the start of the process),
    later ones re-import puredist afresh."""
    spans = []
    while len(spans) < SETUP_PASSES or time.perf_counter() - started < SETUP_MIN_S:
        t = time.perf_counter() if spans else started
        program = Program(fresh=bool(spans))
        specs = jobs.prepare(program, workload, workdir)
        refs = jobs.load_refs(workload)
        spans.append((t, time.perf_counter()))
    return program, specs, refs, spans


def execute(program, workload, specs, refs, idx, span=None):
    """Run pool job ``idx``, time it and check it against its reference."""
    error = output = None
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        start = time.perf_counter()
        try:
            output = jobs.run_job(program, workload, specs[idx], span)
        except Exception as exc:  # a failed job is counted, never fatal
            error = f"{type(exc).__name__}: {exc}"
        end = time.perf_counter()
    ok = error is None and jobs.matches(workload, output, refs[idx])
    counts = {k: sum(str(w.message).startswith(prefix) for w in caught)
              for k, prefix in WARNING_COUNTS.items()}
    return {"job": idx, "start": start, "end": end, "done": time.perf_counter(),
            "ok": ok, "error": error, "warnings": counts,
            "digest": hashlib.sha256((output or error).encode()).hexdigest()[:16]}


def tail(walls):
    """Wall time at the highest ladder percentile with at least
    ``TAIL_BEYOND`` jobs beyond it (nearest rank)."""
    ordered = sorted(walls)
    n = len(ordered)
    for p in TAIL_LADDER:
        rank = max(1, int(np.ceil(p / 100.0 * n)))
        if n - rank >= TAIL_BEYOND:
            return ordered[rank - 1], p, n - rank
    return ordered[-1], 100.0, 0


def plan(rounds, refs, seconds):
    """The seed's whole rounds whose reference times (``ref_s``) add up to
    at most ``seconds``, and at least one round. The list depends only on
    the seed, so the parent and a change run the same jobs."""
    idxs, total, n_rounds = [], 0.0, 0
    for rnd in rounds:
        cost = sum(refs[i]["ref_s"] for i in rnd)
        if n_rounds and total + cost > seconds:
            return idxs, n_rounds
        idxs += rnd
        total += cost
        n_rounds += 1


def warning_totals(records):
    return {k: sum(r["warnings"][k] for r in records) for k in WARNING_COUNTS}


def end_to_end(records, n_rounds, setup_spans, probe):
    """End-to-end metrics in reference seconds, with the wall-clock figures
    alongside in the detail. The timed phase is the sum of the jobs' spans
    from start to check; the gaps between them are loop overhead."""
    correct = sum(r["ok"] for r in records)
    figures = {}
    for kind, span_s in (("ref", probe.ref_seconds), ("wall", lambda a, b: b - a)):
        walls = [span_s(r["start"], r["end"]) for r in records]
        tail_s, tail_p, beyond = tail(walls)
        figures[kind] = {
            "setup_s": statistics.median(span_s(a, b) for a, b in setup_spans),
            "jobs_per_s": correct / sum(span_s(r["start"], r["done"]) for r in records),
            "job_s.p50": statistics.median(walls),
            "job_s.tail": tail_s,
        }
    metrics = dict(figures["ref"], peak_rss_mb=resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    detail = {
        "samples": {"setup_s": len(setup_spans), "jobs_per_s": len(records),
                    "job_s.p50": len(records), "job_s.tail": len(records),
                    "peak_rss_mb": 1},
        "wall_clock": figures["wall"],
        "setup_passes_wall_s": [b - a for a, b in setup_spans],
        "probe_samples": len(probe.times),
        "host_speed": {"min": min(probe.factors), "median": statistics.median(probe.factors),
                       "max": max(probe.factors)},
        "rounds": n_rounds,
        "job_s.tail.percentile": tail_p,
        "job_s.tail.jobs_beyond": beyond,
        "failed_frac": (len(records) - correct) / len(records),
    }
    return metrics, detail


def traced_run(program, workload, specs, refs, rounds, n_jobs, spans_path):
    """Run a fixed job list untraced, then traced; return per-layer metrics.

    The list is the first ``n_jobs`` of the seed's rounds, so two traced
    runs with one seed do identical work and their counts must agree.
    """
    idxs = list(itertools.islice(itertools.chain.from_iterable(rounds), n_jobs))
    t = time.perf_counter()
    plain = [execute(program, workload, specs, refs, i) for i in idxs]
    untraced_wall = time.perf_counter() - t

    tr = tracer.Tracer()
    span = lambda: tr.span(tracer.VERIFY_CHECK)  # noqa: E731
    records = []
    with tr.installed():
        t = time.perf_counter()
        for j, i in enumerate(idxs):
            tr.job = j
            records.append(execute(program, workload, specs, refs, i, span))
        traced_wall = time.perf_counter() - t
    tr.write_spans(spans_path)

    values = tr.values
    metrics = {}
    names = [f"{m}.{a}" for m, a in tracer.TARGETS] + [tracer.VERIFY_CHECK]
    for name in names:
        metrics[f"{name}.calls"] = tr.calls.get(name, 0)
        metrics[f"{name}.self_s"] = tr.self_ns.get(name, 0) / 1e9
    n_compress = metrics["compression.compress_measurement.calls"]
    metrics.update({
        "entropy.i_max_cq.iterations": values["entropy.i_max_cq.iterations"],
        "entropy.i_max_cq.iterations.max": values["entropy.i_max_cq.iterations.max"],
        "entropy.i_max_cq.gap.max": values["entropy.i_max_cq.gap.max"],
        "entropy.d_h.eig_calls": values["entropy.d_h.eig_calls"],
        "compression.c_norm.min": values["compression.c_norm.min"] or 0.0,
        "compression.bot_mass.mean": (values["compression.bot_mass.sum"] / n_compress
                                      if n_compress else 0.0),
        "compression.nice_frac": (values["compression.nice_pairs"]
                                  / values["compression.table_pairs"]
                                  if values["compression.table_pairs"] else 0.0),
        "protocols.no_good_k": values["protocols.no_good_k"],
    })
    metrics.update(warning_totals(records))
    self_total = 0.0
    for layer, s in tr.layer_self_s().items():
        metrics[f"layer.{layer}.self_s"] = s
        self_total += s
    metrics.update({
        "trace.wall_s": traced_wall,
        "trace.untraced_wall_s": untraced_wall,
        "trace.overhead_s": traced_wall - untraced_wall,
        "trace.self_s": self_total,
        "trace.coverage": self_total / traced_wall,
    })
    detail = {
        "trace.jobs": len(idxs),
        "spans": len(tr.spans),
        "spans_file": str(spans_path),
        "digests": [r["digest"] for r in records],
        "untraced_digests_match": [r["digest"] for r in plain] == [r["digest"] for r in records],
    }
    if workload == "compare-sweep":
        seeds = n_jobs * jobs.COMPARE_SEEDS_PER_JOB
        detail["calls_per_seed"] = {
            name: metrics[f"{name}.calls"] / seeds for name in (
                "states.control_state", "compression.simulated_conditionals",
                "compression.nice_sets", "compression.compress_measurement",
                "compression.find_good_k", "entropy.i_max_cq")}
    return plain + records, metrics, detail


def main(args, started):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    wl = jobs.WORKLOADS[args.workload]
    OUT_DIR.mkdir(exist_ok=True)
    workdir = WORK_DIR / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    probe = SpeedProbe()
    if not args.trace:
        probe.start()
    try:
        program, specs, refs, setup_spans = setup(args.workload, workdir, started)
        rounds = jobs.rounds(args.workload, args.seed, refs)
        stem = f"{args.workload}-seed{args.seed}"
        if args.trace:
            records, metrics, detail = traced_run(
                program, args.workload, specs, refs, rounds, wl.trace_jobs,
                OUT_DIR / f"{stem}-spans.csv")
        else:
            idxs, n_rounds = plan(rounds, refs, args.seconds)
            records = [execute(program, args.workload, specs, refs, i) for i in idxs]
            probe.stop()
            metrics, detail = end_to_end(records, n_rounds, setup_spans, probe)
            detail.update(warning_totals(records))
    finally:
        probe.stop()
        shutil.rmtree(workdir, ignore_errors=True)

    failures = [{"job": r["job"], "error": r["error"]} for r in records if not r["ok"]]
    detail.update({"workload": args.workload, "seed": args.seed,
                   "seconds": args.seconds, "trace": args.trace,
                   "environment": environment(), "failures": failures[:10]})
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        raise KeyError(f"harness computed no value for {missing}")
    result = {
        "correct": not failures,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    (OUT_DIR / f"{stem}-trace{args.trace}.json").write_text(
        json.dumps({"result": result, "detail": detail}, indent=1) + "\n")
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0
