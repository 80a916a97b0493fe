"""Self-tests of the benchmark harness: python3 -m pytest perfbench -q"""

import json
import os
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for _p in (str(ROOT / "src"), str(HERE)):
    if _p not in sys.path:
        sys.path.insert(0, _p)

import harness  # noqa: E402
import jobs  # noqa: E402


@pytest.fixture
def scratch(request):
    """A fresh directory under perfbench/_work, removed afterwards."""
    path = harness.WORK_DIR / f"test-{request.node.name}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def _traced(workload, seed, n_jobs, scratch):
    program = harness.Program(fresh=False)
    specs = jobs.prepare(program, workload, scratch)
    refs = jobs.load_refs(workload)
    rounds = jobs.rounds(workload, seed, refs)
    return harness.traced_run(program, workload, specs, refs, rounds, n_jobs,
                              scratch / f"{workload}-spans.csv")


def _counts(metrics):
    return {k: v for k, v in metrics.items()
            if k.endswith((".calls", ".iterations", ".iterations.max", ".eig_calls",
                           ".nice_frac", ".no_good_k", ".cap_hits",
                           ".quality_warnings"))}


def test_compare_traced_counts_repeat_and_match_per_seed_calls(scratch):
    records, first, detail = _traced("compare-sweep", 11, 3, scratch)
    _, second, _ = _traced("compare-sweep", 11, 3, scratch)
    assert all(r["ok"] for r in records)
    assert _counts(first) == _counts(second)
    assert detail["calls_per_seed"] == {
        "states.control_state": 11, "compression.simulated_conditionals": 8,
        "compression.nice_sets": 4, "compression.compress_measurement": 2,
        "compression.find_good_k": 2, "entropy.i_max_cq": 2}
    assert first["cli.main.calls"] == 3
    assert first["io.load_state.calls"] == 3 * jobs.COMPARE_SEEDS_PER_JOB
    assert 0.5 < first["trace.coverage"] <= 1.0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(first) == {m["name"] for m in spec["per_layer"]}


_HASH_SEED_SCRIPT = textwrap.dedent("""
    import json, sys
    from pathlib import Path
    sys.path[:0] = [sys.argv[1], sys.argv[2]]
    import harness, jobs
    program = harness.Program(fresh=False)
    refs = jobs.load_refs("verify-suite")
    specs = jobs.prepare(program, "verify-suite", sys.argv[3])
    rounds = jobs.rounds("verify-suite", 5, refs)
    records, metrics, detail = harness.traced_run(
        program, "verify-suite", specs, refs, rounds, 36, Path(sys.argv[3]) / "spans.csv")
    print(json.dumps({"ok": all(r["ok"] for r in records),
                      "digests": [r["digest"] for r in records],
                      "calls": {k: v for k, v in metrics.items() if k.endswith(".calls")}}))
""")


def test_verify_suite_is_independent_of_the_hash_seed(scratch):
    runs = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, OPENBLAS_NUM_THREADS="1")
        proc = subprocess.run(
            [sys.executable, "-c", _HASH_SEED_SCRIPT, str(ROOT / "src"), str(HERE),
             str(scratch)],
            capture_output=True, text=True, env=env, timeout=300, check=True)
        runs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    assert runs[0]["ok"] and runs[1]["ok"]
    assert runs[0]["digests"] == runs[1]["digests"]
    assert runs[0]["calls"] == runs[1]["calls"]
    assert runs[0]["calls"]["entropy.i_max_cq.calls"] == 0
    assert runs[0]["calls"]["entropy.d_h.calls"] > 0


def test_reference_check_tolerances():
    ref = {"out": json.dumps({"a": 1, "x": [0.5, 2.0], "s": "inf", "k": None})}
    ok = json.dumps({"a": 1, "x": [0.5 + 5e-7, 2.0], "s": "inf", "k": None})
    assert jobs.matches("kd-quantum", ok, ref)
    assert not jobs.matches("kd-quantum", ok.replace('"a": 1', '"a": 2'), ref)
    off = json.dumps({"a": 1, "x": [0.5 + 5e-6, 2.0], "s": "inf", "k": None})
    assert not jobs.matches("kd-quantum", off, ref)
    assert not jobs.matches("kd-quantum", ok.replace('"inf"', '"nan"'), ref)
    assert not jobs.matches("kd-quantum", None, ref)

    chunk = {"check": "c", "trials": 100, "violations": 0, "worst": 1e-3}
    vref = {"out": json.dumps(chunk)}
    assert jobs.matches("verify-suite", json.dumps(chunk), vref)
    assert not jobs.matches("verify-suite", json.dumps(dict(chunk, worst=1e-3 + 1e-8)), vref)
    bad = {"out": json.dumps(dict(chunk, violations=1))}
    assert not jobs.matches("verify-suite", bad["out"], bad)


def test_kd_rounds_take_every_stratum_once():
    refs = jobs.load_refs("kd-quantum")
    n = jobs.WORKLOADS["kd-quantum"].pool_size
    ranked = sorted(range(n), key=lambda i: (-refs[i]["ref_s"], i))
    stratum = {i: r // jobs.KD_STRATUM for r, i in enumerate(ranked)}
    n_strata = -(-n // jobs.KD_STRATUM)
    rounds = jobs.rounds("kd-quantum", 3, refs)
    first, second = next(rounds), next(rounds)
    for rnd in (first, second):
        assert sorted(stratum[i] for i in rnd) == list(range(n_strata))
    assert not set(first) & set(second)
    assert next(jobs.rounds("kd-quantum", 3, refs)) == first
    assert next(jobs.rounds("kd-quantum", 4, refs)) != first


def _run(cwd, *extra):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify-suite",
         "--seed", "4", "--seconds", "2", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def test_run_prints_every_end_to_end_metric():
    proc = _run(ROOT, "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert list(result["metrics"]) == [m["name"] for m in spec["end_to_end"]]
    assert [w["name"] for w in spec["workloads"]] == list(jobs.WORKLOADS)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_run_fails_without_the_sources(scratch):
    shutil.copy(ROOT / "BENCHMARK.json", scratch)
    shutil.copytree(HERE, scratch / "perfbench",
                    ignore=shutil.ignore_patterns("_out", "_work", "__pycache__"))
    proc = _run(scratch, "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
