"""The three workloads: seeded instance pools, job execution, reference checks.

Each workload owns a fixed pool of jobs, numbered 0..size-1 and generated
from ``POOL_SEED``; ``refs/<workload>.jsonl.gz`` holds the output of every
pool job at the commit that defined the benchmark. The run's ``--seed``
only chooses which pool jobs run and in what order (``rounds``), so
every output a run produces has a committed reference to be checked
against.
"""

import contextlib
import gzip
import io
import itertools
import json
import math
import zlib
from pathlib import Path
from typing import NamedTuple

import numpy as np

POOL_SEED = 2403_16466
REFS_DIR = Path(__file__).resolve().parent / "refs"

# tolerances of the reference check: floats of the protocol outputs match to
# the i_max_cq convergence threshold; verify worst slacks are plain
# closed-form arithmetic and match much tighter
FLOAT_TOL = 1e-6
SLACK_TOL = 1e-9

COMPARE_ARGS = ("--K", "16", "--L", "16", "--eps", "0.25")
COMPARE_SEEDS_PER_JOB = 3
KD_ARGS = ("--K", "8", "--L", "16", "--eps", "0.1")
KD_SHAPES = ((4, 4, 2), (3, 4, 3), (4, 4, 4))  # (|A|, |B|, rank of rho_AB)
KD_STRATUM = 6
VERIFY_TRIALS = 100   # trials per chunk; the suite's //50 and //100 checks get 2 and 1
VERIFY_EPS = 0.1      # the `puredist verify` default
VERIFY_CHUNKS = 128   # chunks per check in the pool


class Workload(NamedTuple):
    pool_size: int
    trace_jobs: int  # length of the traced run's fixed job list


WORKLOADS = {
    "compare-sweep": Workload(400, trace_jobs=16),
    "kd-quantum": Workload(600, trace_jobs=24),
    "verify-suite": Workload(18 * VERIFY_CHUNKS, trace_jobs=18 * 8),
}


class JobError(Exception):
    """A protocol command returned a nonzero exit code."""


def _pool_rng(name, index):
    return np.random.default_rng([POOL_SEED, zlib.crc32(name.encode()), index])


def _compare_instance(pd, index):
    """Classical source A through a random cyclic noise channel to B:
    p(a, b) = p_A(a) c((b - a) mod 4), with one dominant symbol in each."""
    rng = _pool_rng("compare-sweep", index)
    top = rng.uniform(0.5, 0.95)
    p_a = np.concatenate([[top], rng.dirichlet(np.ones(7)) * (1 - top)])
    c0 = rng.uniform(0.6, 0.95)
    noise = np.concatenate([[c0], rng.dirichlet(np.ones(3)) * (1 - c0)])
    joint = np.array([p_a[a] * np.roll(noise, a % 4) for a in range(8)])
    first = int(rng.integers(1, 1_000_000))
    psi = pd.sampling.classical_correlated_pure(rng, 8, 4, joint=joint)
    return psi.density(), first


def _kd_instance(pd, index):
    """Ginibre rho_AB of rank r with a Wishart POVM of 3-4 outcomes on A."""
    rng = _pool_rng("kd-quantum", index)
    da, db, rank = KD_SHAPES[index % len(KD_SHAPES)]
    rho = pd.sampling.ginibre_density(rng, da * db, rank)
    povm = pd.sampling.random_povm(rng, da, int(rng.integers(3, 5)), register="A")
    seed = int(rng.integers(1, 1_000_000))
    return pd.states.DensityOperator([("A", da), ("B", db)], rho), povm, seed


def _pairs(mat):
    flat = np.asarray(mat, dtype=complex).reshape(-1)
    return np.column_stack([flat.real, flat.imag]).tolist()


def _write_json(path, obj):
    # the state/POVM file format of puredist.io; floats round-trip exactly
    with open(path, "w") as fh:
        fh.write(json.dumps(obj))


def _save_state(state, path):
    _write_json(path, {"registers": [{"label": l, "dim": d} for l, d in state.registers],
                       "matrix": _pairs(state.matrix)})


def _save_povm(povm, path):
    _write_json(path, {"register": povm.register,
                       "labels": [str(l) for l in povm.labels],
                       "elements": [_pairs(e) for e in povm.elements]})


def prepare(pd, workload, workdir):
    """Generate the pool, write its JSON inputs under ``workdir`` and return
    one job spec per pool index."""
    workdir = Path(workdir)
    if workload == "verify-suite":
        return [(check, chunk) for check in range(len(pd.verify.SUITE))
                for chunk in range(VERIFY_CHUNKS)]
    specs = []
    if workload == "compare-sweep":
        povm_path = str(workdir / "basis8.json")
        _save_povm(pd.sampling.basis_povm(8, "A"), povm_path)
        for i in range(WORKLOADS[workload].pool_size):
            state, first = _compare_instance(pd, i)
            state_path = str(workdir / f"state{i}.json")
            _save_state(state, state_path)
            last = first + COMPARE_SEEDS_PER_JOB - 1
            specs.append(["compare", "--state", state_path, "--povm", povm_path,
                          *COMPARE_ARGS, "--seeds", f"{first}..{last}"])
        return specs
    for i in range(WORKLOADS[workload].pool_size):
        state, povm, seed = _kd_instance(pd, i)
        state_path = str(workdir / f"state{i}.json")
        povm_path = str(workdir / f"povm{i}.json")
        _save_state(state, state_path)
        _save_povm(povm, povm_path)
        specs.append(["kd-oneshot", "--state", state_path, "--povm", povm_path,
                      *KD_ARGS, "--seeds", str(seed)])
    return specs


def run_job(pd, workload, spec, span=None):
    """Run one job and return its output text; raises on failure.

    Protocol jobs call ``puredist.cli.main`` in-process and return its
    stdout. A verify job runs one chunk of one check; ``span`` (a context
    manager factory) lets a tracer open the chunk's root span.
    """
    if workload != "verify-suite":
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = pd.cli.main(list(spec))
        if code != 0:
            raise JobError(f"exit code {code}: {err.getvalue().strip()}")
        return out.getvalue()
    check, chunk = spec
    name = pd.verify.MANIFEST[check]
    rng = _pool_rng(name, chunk)
    with span() if span else contextlib.nullcontext():
        result = pd.verify.SUITE[check](rng, VERIFY_TRIALS, VERIFY_EPS)
    return json.dumps({"check": result.name, "trials": int(result.trials),
                       "violations": int(result.violations),
                       "worst": float(result.worst)}, sort_keys=True)


def _same(got, ref, tol):
    if isinstance(ref, bool) or isinstance(got, bool):
        return got is ref
    if isinstance(ref, (int, float)) and isinstance(got, (int, float)):
        if isinstance(ref, int) and isinstance(got, int):
            return got == ref
        if math.isinf(ref) or math.isinf(got) or math.isnan(ref):
            return got == ref
        return abs(got - ref) <= tol
    if isinstance(ref, dict) and isinstance(got, dict):
        return got.keys() == ref.keys() and all(_same(got[k], ref[k], tol) for k in ref)
    if isinstance(ref, list) and isinstance(got, list):
        return len(got) == len(ref) and all(_same(g, r, tol) for g, r in zip(got, ref))
    return got == ref


def matches(workload, output, ref):
    """Whether a job's output agrees with its reference record.

    Integers and strings must match exactly and floats to ``FLOAT_TOL``
    (verify slacks to ``SLACK_TOL``); a verify chunk must also be free of
    violations.
    """
    if ref["out"] is None or output is None:
        return False
    if output == ref["out"]:
        return workload != "verify-suite" or json.loads(output)["violations"] == 0
    try:
        got = json.loads(output)
    except ValueError:
        return False
    want = json.loads(ref["out"])
    if workload == "verify-suite":
        return got["violations"] == 0 and _same(got, want, SLACK_TOL)
    return _same(got, want, FLOAT_TOL)


def refs_path(workload):
    return REFS_DIR / f"{workload}.jsonl.gz"


def load_refs(workload):
    with gzip.open(refs_path(workload), "rt") as fh:
        refs = [json.loads(line) for line in fh]
    if [r["i"] for r in refs] != list(range(WORKLOADS[workload].pool_size)):
        raise ValueError(f"{refs_path(workload)} does not cover the pool")
    return refs


def rounds(workload, seed, refs):
    """Endless sequence of rounds, lists of pool indices, for this seed.

    The pool is split into strata, each in a fixed member order. A round
    visits every stratum once, in a fixed order, and takes its next member,
    starting at an offset drawn from the seed. Every round therefore holds
    the pool's mix of jobs, and no job repeats until a stratum has used all
    its members.

    - compare-sweep: one stratum; the jobs cost about the same.
    - verify-suite: one stratum per check, in suite order, so a round is
      one chunk of every check.
    - kd-quantum: strata of ``KD_STRATUM`` jobs with adjacent reference
      times (``ref_s``), each ordered by that time and visited in
      golden-ratio order, so that any stretch of a round mixes cheap and
      heavy instances. The times have a heavy tail from the ``i_max_cq``
      iteration counts, and the strata keep that tail at its pool share in
      every round.

    Strata are paired, first with second, third with fourth, and so on;
    the second of a pair walks its members backwards from the same offset
    (antithetic sampling). On kd-quantum a slow pick in one stratum then
    meets a fast one in its neighbour, which halves the spread of a
    round's total time between seeds.
    """
    n = WORKLOADS[workload].pool_size
    if workload == "compare-sweep":
        strata = [list(range(n))]
    elif workload == "verify-suite":
        strata = [list(range(c * VERIFY_CHUNKS, (c + 1) * VERIFY_CHUNKS))
                  for c in range(n // VERIFY_CHUNKS)]
    else:
        ranked = sorted(range(n), key=lambda i: (-refs[i]["ref_s"], i))
        strata = [sorted(ranked[k:k + KD_STRATUM], key=lambda i: (refs[i]["ref_s"], i))
                  for k in range(0, n, KD_STRATUM)]
    visit = list(range(len(strata)))
    if workload == "kd-quantum":
        golden = (math.sqrt(5) - 1) / 2
        visit.sort(key=lambda k: ((k * golden) % 1.0, k))
    rng = np.random.default_rng([seed, zlib.crc32(workload.encode())])
    offsets = rng.integers(0, 1 << 30, size=(len(strata) + 1) // 2)

    def member(k, r):
        members = strata[k]
        pos = (offsets[k // 2] + r) % len(members)
        return members[pos] if k % 2 == 0 else members[-1 - pos]

    for r in itertools.count():
        yield [member(k, r) for k in visit]
