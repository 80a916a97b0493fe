"""Golden stdout bytes of every CLI subcommand on small fixed instances,
and of every demo script.

The expected files under ``tests/golden/`` pin the exact output bytes, so
any refactor that changes a single digit fails here; a command that takes
``--out`` must write the same bytes to that file. The ``purity-trace``
case pins ``protocols.purity_trace``, which no subcommand prints, and
``demo-NN.txt`` the stdout of ``demos/NN_*.py``. They pin
the numpy and OpenBLAS build of the machine that wrote them, and the
OpenBLAS kernel it picked, ``Core: SkylakeX`` (``OPENBLAS_VERBOSE=2``
prints it): floats are printed at 17 significant digits, and another BLAS
or kernel may round differently in the last place. Under
``OPENBLAS_CORETYPE=Haswell`` or ``Zen`` the eight ``*-mixed`` CLI cases and
demo 04 fail. Regenerate them (only after a deliberate output change) with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io as _io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from puredist import io, sampling
from puredist.cli import COMMANDS, main
from puredist.protocols import purity_trace
from puredist.states import DensityOperator

GOLDEN = Path(__file__).resolve().parent / "golden"
ROOT = GOLDEN.parent.parent
DEMOS = sorted((ROOT / "demos").glob("[0-9][0-9]_*.py"))

BELL = ("--state", "bell.json", "--povm", "basis.json", "--eps", "0.25")
MIXED = ("--state", "mixed.json", "--povm", "povm3.json", "--eps", "0.1")
SEEDS = ("--seeds", "1..3")
SWEEP = ("--K", "4", "--L", "8", *SEEDS)

CASES = {
    "entropy-bell": ("entropy", *BELL),
    "entropy-mixed": ("entropy", *MIXED),
    "distill-local-bell": ("distill-local", "--state", "bell.json", "--eps", "0.25"),
    "distill-local-mixed": ("distill-local", "--state", "mixed.json", "--eps", "0.1"),
    "protocol-a-bell": ("protocol-a", *BELL, *SEEDS),
    "protocol-a-mixed": ("protocol-a", *MIXED, *SEEDS),
    "kd-oneshot-bell": ("kd-oneshot", *BELL, *SWEEP),
    "kd-oneshot-mixed": ("kd-oneshot", *MIXED, *SWEEP),
    "fewqubits-bell": ("fewqubits", *BELL, *SWEEP),
    "fewqubits-mixed": ("fewqubits", *MIXED, *SWEEP),
    "compare-bell": ("compare", *BELL, *SWEEP),
    "compare-bell-csv": ("compare", *BELL, *SWEEP, "--format", "csv"),
    "compare-mixed": ("compare", *MIXED, *SWEEP),
    "compare-mixed-csv": ("compare", *MIXED, *SWEEP, "--format", "csv"),
    "bounds-bell": ("bounds", *BELL),
    "bounds-mixed": ("bounds", *MIXED),
    "verify": ("verify", "--trials", "20"),
    "purity-trace": None,  # no subcommand prints it: print_purity_trace
}


def write_mixed(directory: Path):
    """A rank-2 mixed 4x4 rho_AB with a random 3-outcome POVM on A; its
    I_max fixed point iterates."""
    rng = np.random.default_rng(20240817)
    rho = sampling.ginibre_density(rng, 16, 2)
    povm = sampling.random_povm(rng, 4, 3, register="A")
    io.save_state(DensityOperator([("A", 4), ("B", 4)], rho), str(directory / "mixed.json"))
    io.save_povm(povm, str(directory / "povm3.json"))


def print_purity_trace():
    """Every (step, value) of ``purity_trace`` at 17 digits on the Bell
    instance and on demo 04's 4-outcome classical instance."""
    small = np.array([[0.40, 0.05], [0.05, 0.20], [0.04, 0.16], [0.06, 0.04]])
    cases = (
        ("bell", sampling.bell_pair(), 2, 0.25),
        ("demo04", sampling.classical_correlated_pure(None, 4, 2, joint=small / small.sum()),
         4, 0.1),
    )
    for name, psi_ab, da, eps in cases:
        psi = sampling.purified_input(psi_ab)
        for step, value in purity_trace(psi, sampling.basis_povm(da, "A"), eps):
            print(name, step, repr(value))
    return 0


def run_case(name: str) -> str:
    out = _io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = print_purity_trace() if CASES[name] is None else main(list(CASES[name]))
    assert rc == 0, name
    return out.getvalue()


def run_demo(path: Path) -> bytes:
    """The stdout of a demo script, run in a fresh process on ``src/``."""
    proc = subprocess.run([sys.executable, str(path)], capture_output=True, timeout=600,
                          env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout


def demo_golden(path: Path) -> Path:
    return GOLDEN / f"demo-{path.name[:2]}.txt"


@pytest.fixture
def inputs(bell_file, basis_file, tmp_path, monkeypatch):
    write_mixed(tmp_path)
    # relative paths: entropy and bounds print the POVM path as a key
    monkeypatch.chdir(tmp_path)


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden_bytes(name, inputs, tmp_path):
    expected = (GOLDEN / f"{name}.txt").read_text()
    assert run_case(name) == expected
    if CASES[name] is not None and "--out" in COMMANDS[CASES[name][0]][1]:
        # the same bytes through --out FILE, and nothing on stdout
        path, out = tmp_path / f"{name}.out", _io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main([*CASES[name], "--out", str(path)]) == 0
        assert out.getvalue() == ""
        assert path.read_bytes() == (GOLDEN / f"{name}.txt").read_bytes()


def test_verify_prints_its_golden_bytes_under_python_O():
    # the runtime invariants are exceptions, not asserts, so the checks of the
    # stacked solvers still run, and print the same bytes, under -O
    code = "import sys; from puredist.cli import main; sys.exit(main(sys.argv[1:]))"
    proc = subprocess.run([sys.executable, "-O", "-c", code, *CASES["verify"]],
                          capture_output=True, timeout=600,
                          env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == (GOLDEN / "verify.txt").read_bytes()


@pytest.mark.parametrize("name", ["compare-mixed", "fewqubits-mixed"])
def test_each_seed_of_a_sweep_prints_what_it_prints_alone(name, inputs):
    # guards the per-Instance caches: a seed's record must not depend on the
    # seeds the same Instance ran before it
    args = list(CASES[name])
    at = args.index("--seeds") + 1

    def records(seeds):
        args[at] = seeds
        out = _io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(args) == 0
        (recs,) = json.loads(out.getvalue()).values()
        return [io.dumps(r) for r in recs]

    swept = records("1..3")
    assert swept == [records(str(seed))[0] for seed in (1, 2, 3)]
    assert len(set(swept)) == 3


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_stdout_matches_golden_bytes(demo):
    assert run_demo(demo) == demo_golden(demo).read_bytes()


if __name__ == "__main__":
    import tempfile
    import warnings

    warnings.simplefilter("ignore")
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        # the bell_file and basis_file fixtures of conftest.py
        bell = np.zeros((4, 4))
        bell[0, 0] = bell[0, 3] = bell[3, 0] = bell[3, 3] = 0.5
        io.save_state(DensityOperator([("A", 2), ("B", 2)], bell), f"{tmp}/bell.json")
        io.save_povm(sampling.basis_povm(2, "A"), f"{tmp}/basis.json")
        write_mixed(Path(tmp))
        here = os.getcwd()
        os.chdir(tmp)
        try:
            for case in sorted(CASES):
                (GOLDEN / f"{case}.txt").write_text(run_case(case))
                print(case, file=sys.stderr)
        finally:
            os.chdir(here)
    for demo in DEMOS:
        demo_golden(demo).write_bytes(run_demo(demo))
        print(demo.name, file=sys.stderr)
