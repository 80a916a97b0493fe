"""Smoke tests of the tools that compare checkouts: ``tools/pool_time.py``,
which times two checkouts in one process and shows the fields where their
outputs differ, here this repository loaded as both sides on a narrowed set
of jobs, and ``tools/pool_hash.py``, whose exit status is the reference
gate and whose byte count shows drift within it, on a narrowed pool; and of ``tools/code_lines.py``, the size figure,
on a module written here."""

import json
import statistics
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def tools(monkeypatch):
    """The tools directory and the repository root importable; afterwards
    ``sys.path`` (which ``pool_hash`` prepends to) and the BLAS variables that
    ``pool_time`` sets on import are restored, and the packages the tools
    loaded are dropped."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    monkeypatch.syspath_prepend(str(ROOT))
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    import pool_hash
    import pool_time
    yield pool_time, pool_hash
    for name in [m for m in sys.modules if m.split(".")[0] in ("puredist_a", "puredist_b")]:
        del sys.modules[name]


def test_pool_time_on_two_compare_jobs(tools, monkeypatch, capsys):
    pool_time, _ = tools
    monkeypatch.setattr(pool_time, "JOBS", {"compare-sweep": range(2, 12, 5)})
    assert pool_time.main([str(ROOT), str(ROOT), "compare-sweep"]) == 0
    out = json.loads(capsys.readouterr().out)["workloads"]["compare-sweep"]
    assert out["jobs"] == 2 and out["outputs_equal"] is True and out["moved"] == {}
    assert out["a_s"] > 0 and out["b_s"] > 0
    # the median of two jobs' best times is their mean
    assert out["median_s"] == pytest.approx([out["a_s"] / 2, out["b_s"] / 2])
    assert out["median_ratio"] == pytest.approx(out["ratio"])


def test_pool_time_shows_the_fields_that_moved(tools, monkeypatch, capsys):
    pool_time, _ = tools
    from perfbench import jobs

    run_job = jobs.run_job

    def shifted(pd, workload, spec, span=None):
        # side B's margins move by 0.5; every other field keeps its value
        out = run_job(pd, workload, spec, span)
        if pd.__name__ != "puredist_b":
            return out
        got = json.loads(out)
        for report in got["reports"]:
            report["margin"] += 0.5
        return json.dumps(got)

    monkeypatch.setattr(jobs, "run_job", shifted)
    monkeypatch.setattr(pool_time, "JOBS", {"compare-sweep": range(2, 12, 5)})
    assert pool_time.main([str(ROOT), str(ROOT), "compare-sweep"]) == 0
    out = json.loads(capsys.readouterr().out)["workloads"]["compare-sweep"]
    assert out["outputs_equal"] is False
    assert out["moved"] == {"margin": {"jobs": 2, "max_abs": pytest.approx(0.5)}}
    # a move that is not a number has no size, nor has an output that is not JSON
    assert pool_time.field_moves('{"a": [1, "x"]}', '{"a": [1, "y"]}') == {"a": None}
    assert pool_time.field_moves("x", "y") == {"output": None}


def test_pool_time_on_one_verify_chunk_of_every_check(tools, monkeypatch, capsys):
    pool_time, _ = tools
    monkeypatch.setitem(pool_time.JOBS, "verify-suite", range(20, 21))
    assert pool_time.main([str(ROOT), str(ROOT), "verify-suite"]) == 0
    out = json.loads(capsys.readouterr().out)["workloads"]["verify-suite"]
    assert out["jobs"] == 18 and out["outputs_equal"] is True
    assert len(out["checks"]) == 18
    for check in out["checks"].values():
        # one chunk: a check's total is its slowest job
        assert check["a_s"] > 0 and check["b_s"] > 0
        assert check["slowest_s"] == check["median_s"] == [check["a_s"], check["b_s"]]
        assert check["median_ratio"] == check["ratio"]
    assert out["a_s"] == pytest.approx(sum(c["a_s"] for c in out["checks"].values()))
    # the workload's medians are those of the 18 jobs, one a check
    checks = out["checks"].values()
    medians = [statistics.median(c[side] for c in checks) for side in ("a_s", "b_s")]
    assert out["median_s"] == medians and out["median_ratio"] == medians[1] / medians[0]


def test_pool_hash_exits_1_when_an_output_misses_its_ref(tools, monkeypatch, capsys):
    _, pool_hash = tools
    from perfbench import jobs

    refs = jobs.load_refs("compare-sweep")[:3]
    monkeypatch.setitem(jobs.WORKLOADS, "compare-sweep", jobs.Workload(3, trace_jobs=3))
    monkeypatch.setattr(jobs, "load_refs", lambda workload: refs)
    assert pool_hash.main([str(ROOT), "compare-sweep"]) == 0
    assert "pool 3, ref misses 0," in capsys.readouterr().out
    changed = json.loads(refs[1]["out"])
    changed["reports"][0]["margin"] += 1.0
    refs[1] = dict(refs[1], out=json.dumps(changed))
    assert pool_hash.main([str(ROOT), "compare-sweep"]) == 1
    assert "pool 3, ref misses 1," in capsys.readouterr().out



def test_pool_hash_counts_the_outputs_that_keep_their_refs_bytes(tools, monkeypatch, capsys):
    # an output that moved within FLOAT_TOL still matches its ref, so the exit
    # status stays 0, but it no longer has the ref's bytes
    _, pool_hash = tools
    from perfbench import jobs

    refs = jobs.load_refs("compare-sweep")[:3]
    monkeypatch.setitem(jobs.WORKLOADS, "compare-sweep", jobs.Workload(3, trace_jobs=3))
    monkeypatch.setattr(jobs, "load_refs", lambda workload: refs)
    assert pool_hash.main([str(ROOT), "compare-sweep"]) == 0
    assert "pool 3, ref misses 0, ref bytes 3," in capsys.readouterr().out
    moved = json.loads(refs[2]["out"])
    moved["reports"][0]["margin"] += jobs.FLOAT_TOL / 10
    refs[2] = dict(refs[2], out=json.dumps(moved))
    assert pool_hash.main([str(ROOT), "compare-sweep"]) == 0
    assert "pool 3, ref misses 0, ref bytes 2," in capsys.readouterr().out

def test_code_lines_counts_neither_docstrings_nor_comments_nor_blank_lines(
        tmp_path, monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    import code_lines

    (tmp_path / "mod.py").write_text(
        '"""A module docstring\n\nover three lines."""\n'
        "\n"
        "# a comment line\n"
        "import math\n"
        'TEXT = """a string that is\n'
        'not a docstring"""\n'
        "\n"
        "\n"
        "class C:\n"
        '    """A class docstring."""\n'
        "\n"
        "    def f(self, x):\n"
        '        """A function\n'
        '        docstring."""\n'
        "        # an indented comment\n"
        "        return math.sqrt(x)  # a trailing comment\n")
    assert code_lines.code_lines(tmp_path / "mod.py") == 6
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.split() == ["mod", "6", "total", "6"]
