"""The n-copy ladder: the iid setting of the paper, rho^{(x) n} measured by
Lambda^{(x) n}, on a quantum and a classical two-qubit input at n <= 3.
The compression cap is multiplicative over copies and I_max is additive,
so each rung must reproduce the one-copy figures. On the
classical input the ``entropy`` command's H_H of each marginal, up to
n = 3, must be the type-class value of ``oracles.h_h_iid``."""

import json

import numpy as np
import pytest

from puredist import entropy, io
from puredist.cli import main
from puredist.compression import Instance
from puredist.sampling import basis_povm, ginibre_density, random_povm
from puredist.states import DensityOperator

from oracles import h_h_iid, tensor_power


def quantum_input():
    """A rank-2 Ginibre rho_AB on two qubits with a 2-outcome Wishart POVM on A."""
    rng = np.random.default_rng(7)
    rho = DensityOperator([("A", 2), ("B", 2)], ginibre_density(rng, 4, 2))
    return rho, random_povm(rng, 2, 2, register="A")


def classical_input():
    """diag(0.55, 0.05, 0.1, 0.3) measured in A's basis."""
    return DensityOperator([("A", 2), ("B", 2)], np.diag([0.55, 0.05, 0.1, 0.3])), basis_povm(2)


RUNGS = [(quantum_input, 2), (quantum_input, 3), (classical_input, 2), (classical_input, 3)]
IDS = ["quantum-2", "quantum-3", "classical-2", "classical-3"]


def instance(rho, povm):
    return Instance(rho.purify(), povm, 0.1)


def test_tensor_power_orders_the_copies_as_a_then_b():
    # <a1 a2 b1 b2| rho (x) rho |a1' a2' b1' b2'> = rho[a1 b1, a1' b1'] rho[a2 b2, a2' b2']
    rho, povm = quantum_input()
    two, povm2 = tensor_power(rho, povm, 2)
    m = rho.matrix.reshape(2, 2, 2, 2)
    want = np.einsum("acAC,bdBD->abcdABCD", m, m).reshape(16, 16)
    assert two.registers == (("A", 4), ("B", 4))
    assert np.abs(two.matrix - want).max() <= 1e-15
    assert len(povm2) == 4 and np.array_equal(povm2.elements[1],
                                              np.kron(povm.elements[0], povm.elements[1]))


@pytest.mark.parametrize("make, n", RUNGS, ids=IDS)
def test_the_compression_cap_of_n_copies_is_the_nth_power(make, n):
    # S of Lambda^{(x) n} on rho^{(x) n} is S^{(x) n}, so c_cap multiplies
    rho, povm = make()
    one = instance(rho, povm).c_cap
    got = instance(*tensor_power(rho, povm, n)).c_cap
    assert abs(got - one ** n) <= 1e-12 * one ** n, (got, one ** n)


@pytest.mark.parametrize("make, n", RUNGS, ids=IDS)
def test_i_max_of_n_copies_overlaps_n_times_one_copy(make, n):
    # at eps = 0 no symbol is dropped, and the certified n-copy interval
    # meets n times the one-copy interval
    rho, povm = make()
    one = entropy.i_max_cq(instance(rho, povm).ideal_env, 0.0)
    got = entropy.i_max_cq(instance(*tensor_power(rho, povm, n)).ideal_env, 0.0)
    for r in (one, got):
        assert r.converged and r.duality_gap <= entropy.IMAX_GAP_TOL
    lower = max(got.value - got.duality_gap, n * (one.value - one.duality_gap))
    assert lower <= min(got.value, n * one.value), (got, one)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_the_entropy_command_gives_the_type_class_h_h_of_each_classical_marginal(
        n, tmp_path, capsys):
    # each marginal of rho^{(x) n} is the n-th power of rho's: joint, A and B
    rho, povm = classical_input()
    io.save_state(tensor_power(rho, povm, n)[0], str(tmp_path / "rho.json"))
    assert main(["entropy", "--state", str(tmp_path / "rho.json"), "--eps", "0.1"]) == 0
    got = json.loads(capsys.readouterr().out)["marginals"]
    spectra = {"joint": [0.55, 0.05, 0.1, 0.3], "A": [0.6, 0.4], "B": [0.65, 0.35]}
    assert sorted(got) == sorted(spectra)
    for name, p in spectra.items():
        want = h_h_iid(p, n, 0.1)
        assert abs(got[name]["h_h"] - want) <= 1e-12, (name, got[name]["h_h"], want)
