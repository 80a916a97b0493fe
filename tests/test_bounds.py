import numpy as np
import pytest

from puredist import bounds, entropy
from puredist.compression import Instance
from puredist.sampling import (
    basis_povm,
    bell_pair,
    classical_correlated_pure,
    purified_input,
    random_density,
    random_povm,
)
from puredist.states import DensityOperator, Povm, PureState, control_state, rank1_refine

from oracles import near_pure_classical


def test_local_bounds_examples():
    pure4 = DensityOperator([("A", 4)], np.diag([1.0, 0, 0, 0]))
    eps = 0.1
    lo, up = bounds.local_purity_bounds(pure4, eps)
    assert np.isclose(up, 2 - np.log2(0.9))
    slack = np.log2(1 / eps)
    assert np.isclose(lo, 2 - np.log2(1 - eps * eps / 9) - slack - 1)
    mixed = DensityOperator([("A", 4)], np.eye(4) / 4)
    lo, up = bounds.local_purity_bounds(mixed, eps)
    assert np.isclose(up, -np.log2(1 - eps))
    assert lo <= 0


def test_local_bounds_sandwich_random(rng):
    for _ in range(300):
        d = int(rng.integers(2, 9))
        rho = random_density(rng, d)
        eps = float(rng.choice([0.05, 0.1, 0.3]))
        lo, up = bounds.local_purity_bounds(rho, eps)
        assert lo <= up + np.log2(1 / eps) + 1e-9


def test_distributed_upper_bound_trivial_povm(rng):
    psi = near_pure_classical(rng, 4, 4)
    eps = 0.1
    triv = Povm([np.eye(4)], register="A")
    got = bounds.distributed_upper_bound(Instance(psi, triv, eps))
    # single outcome: H_min(B|X) is just the (smoothed) H_min of rho^B
    cq = control_state(psi, triv, condition_on=["B"])
    want = (np.log2(4) + np.log2(4)
            - entropy.h_max_smooth(psi.marginal(["A"]), eps)
            - entropy.h_min_cq_smoothed(cq, eps))
    assert np.isclose(got, want, atol=1e-12)


def test_distributed_upper_bound_classical_hand_computed(rng):
    # uniform X on 2 symbols, conditionals |0><0| and I/2-ish superposition
    joint = np.array([[0.5, 0.0], [0.25, 0.25]])
    psi = purified_input(classical_correlated_pure(rng, 2, 2, joint=joint))
    eps = 0.1
    povm = basis_povm(2, "A")
    got = bounds.distributed_upper_bound(Instance(psi, povm, eps))
    rho_a = psi.marginal(["A"])
    hmax_a = entropy.h_max_smooth(rho_a, eps)
    cq_b = control_state(psi, povm, condition_on=["B"])
    hmin_b = entropy.h_min_cq_smoothed(cq_b, eps)
    assert np.isclose(got, 2 - hmax_a - hmin_b, atol=1e-12)
    # conditionals are pure here, so the unsmoothed H_min(B|X) vanishes
    assert abs(entropy.h_min_cq(cq_b)) <= 1e-9


def test_rank1_refinement_weakens_bound(rng):
    # refining outcomes lowers H_min(B|X) by data processing, so the
    # evaluated upper bound can only grow (the unbounded-communication
    # variant is the weaker bound)
    for _ in range(20):
        da, db = 2, int(rng.integers(2, 4))
        vec = rng.normal(size=(da, db, 2)) + 1j * rng.normal(size=(da, db, 2))
        vec /= np.linalg.norm(vec)
        psi = PureState([("A", da), ("B", db), ("R", 2)], vec)
        povm = random_povm(rng, da, 2)
        eps = 0.1
        base = bounds.distributed_upper_bound(Instance(psi, povm, eps))
        refined = bounds.distributed_upper_bound(Instance(psi, povm, eps), rank1=True)
        assert refined >= base - 1e-9


def test_rank1_hmin_monotone(rng):
    # data-processing direction: refining outcomes cannot raise H_min(B|X)
    for _ in range(20):
        da, db = 2, 3
        vec = rng.normal(size=(da, db, 2)) + 1j * rng.normal(size=(da, db, 2))
        vec /= np.linalg.norm(vec)
        psi = PureState([("A", da), ("B", db), ("R", 2)], vec)
        povm = random_povm(rng, da, 2)
        cq = control_state(psi, povm, condition_on=["B"])
        cq_ref = control_state(psi, rank1_refine(povm), condition_on=["B"])
        assert entropy.h_min_cq(cq_ref) <= entropy.h_min_cq(cq) + 1e-9


def test_ancilla_comparison_margin_asserted(rng):
    psi = near_pure_classical(rng, 8, 4)
    eps = 0.25
    out = bounds.ancilla_comparison(
        Instance(psi, basis_povm(8, "A"), eps).compression(K=4, L=16, seed=1))
    assert out["margin"] > 0  # instance chosen for a conclusive comparison
    assert out["c_borrow"] - out["d_borrow"] >= out["margin"] - 1e-9


def test_ancilla_comparison_inconclusive_when_mixed(rng):
    # perfectly correlated uniform joint: rho^A is maximally mixed, so the
    # margin is <= 0 and nothing is asserted
    joint = np.eye(4) / 4.0
    psi = purified_input(classical_correlated_pure(rng, 4, 4, joint=joint))
    out = bounds.ancilla_comparison(
        Instance(psi, basis_povm(4, "A"), 0.25).compression(K=4, L=16, seed=1))
    assert out["margin"] <= 0


def test_rate_report_consistency(rng):
    psi = near_pure_classical(rng, 8, 4)
    eps = 0.25
    rep = bounds.rate_report(Instance(psi, basis_povm(8, "A"), eps).compression(K=4, L=16, seed=2))
    # achievability never beats the upper bound beyond the declared slack
    assert rep.kd_rate <= rep.dist_upper + rep.slack_bits + 1e-9
    assert rep.fewqubits_rate <= rep.dist_upper + rep.slack_bits + 1e-9
    # communication accounting against I_max
    env = [l for l in psi.labels if l != "A"]
    cq_env = control_state(psi, basis_povm(8, "A"), condition_on=env)
    imax = entropy.i_max_cq(cq_env, eps ** 4).value
    kd = rep.extra["kd_transcript"]
    assert kd["communication"] <= imax + 4 * np.log2(1 / eps) + 1
    d = rep.to_dict()
    row = [d[c] for c in bounds.RateReport.CSV_COLUMNS]
    assert len(row) == len(bounds.RateReport.CSV_COLUMNS)
    assert d["c_borrow"] == rep.c_borrow


def test_rate_report_rejects_nonfinite():
    with pytest.raises(ValueError):
        bounds.RateReport(
            local_lower=np.inf, local_upper=1.0, dist_upper=1.0, kd_rate=0.0,
            fewqubits_rate=0.0, c_borrow=0, d_borrow=0, margin=0.0,
            final_error_kd=0.0, final_error_fq=0.0, eps=0.1, seed=0,
            slack_convention="", slack_bits=1.0, f_eps=0.1, g_eps=0.1)
