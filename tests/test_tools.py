"""Smoke tests of the timing tools that compare two checkouts in one
process: ``tools/pool_time.py`` and ``tools/verify_split.py``, each with
this repository loaded as both sides, on a narrowed set of jobs."""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def tools(monkeypatch):
    """The tools directory and the repository root importable; afterwards the
    BLAS variables that ``checkouts`` sets on import are restored and the
    packages the tools loaded are dropped."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    monkeypatch.syspath_prepend(str(ROOT))
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    import pool_time
    import verify_split
    yield pool_time, verify_split
    for name in [m for m in sys.modules if m.split(".")[0] in ("puredist_a", "puredist_b")]:
        del sys.modules[name]


def test_pool_time_on_two_compare_jobs(tools, monkeypatch, capsys):
    pool_time, _ = tools
    monkeypatch.setattr(pool_time, "JOBS", {"compare-sweep": range(2, 12, 5)})
    assert pool_time.main([str(ROOT), str(ROOT), "compare-sweep"]) == 0
    out = json.loads(capsys.readouterr().out)["workloads"]["compare-sweep"]
    assert out["jobs"] == 2 and out["outputs_equal"] is True
    assert out["a_s"] > 0 and out["b_s"] > 0


def test_verify_split_on_one_chunk(tools, monkeypatch, capsys):
    _, verify_split = tools
    monkeypatch.setattr(verify_split, "CHUNKS", range(20, 21))
    assert verify_split.main([str(ROOT), str(ROOT)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["chunks"] == [20, 21] and len(out["checks_s"]) == 18
    assert all(c["a"] > 0 and c["b"] > 0 for c in out["checks_s"].values())
    assert out["round_s"]["a"] > 0 and out["round_s"]["b"] > 0
