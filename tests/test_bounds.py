from dataclasses import replace

import numpy as np
import pytest

from puredist import bounds, entropy, io, linalg
from puredist.cli import main
from puredist.compression import Instance, compress_measurement, compress_seeds
from puredist.protocols import run_kd_oneshot
from puredist.sampling import (
    basis_povm,
    classical_correlated_pure,
    purified_input,
    random_density,
    random_povm,
)
from puredist.states import DensityOperator, Povm, PureState, control_state, rank1_refine

from oracles import h_h_iid, near_pure_classical


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


def _iid_local_lower(p, n, eps):
    """``local_purity_bounds``' lower bound of rho^{(x)n}, rho of spectrum p,
    through the type-class oracle."""
    return n * np.log2(len(p)) - h_h_iid(p, n, eps * eps / 9) - np.log2(1 / eps) - 1


def test_local_lower_bound_reaches_devetaks_rate_with_its_second_order_term():
    # Devetak's rate log d - S(rho) per copy, approached from below as
    # sqrt(n V) Phi^{-1}(eps^2 / 9) + O(log n) with V the varentropy
    # (Tomamichel-Hayashi, IEEE TIT 59 (2013); Li, Ann. Stat. 42 (2014))
    from scipy.stats import norm
    for p, ns in (((0.9, 0.1), (10, 100, 1000, 10_000)), ((0.6, 0.4), (10, 100, 1000, 10_000)),
                  ((0.7, 0.2, 0.1), (10, 30, 100, 300))):
        p = np.array(p)
        rho = np.diag(p)
        power = rho
        for n in range(1, {2: 6, 3: 3}[len(p)] + 1):  # the dense bound, every d^n <= 64
            for eps in (0.1, 0.3):
                lower, _ = bounds.local_purity_bounds(power, eps)
                assert abs(lower - _iid_local_lower(p, n, eps)) <= 1e-9, (p, n, eps)
            power = np.kron(power, rho)
        rate = np.log2(len(p)) + np.sum(p * np.log2(p))
        var = np.sum(p * np.log2(p) ** 2) - np.sum(p * np.log2(p)) ** 2
        for eps in (0.1, 0.3):
            gaps = [_iid_local_lower(p, n, eps) - n * rate for n in ns]
            per_copy = [abs(g) / n for g, n in zip(gaps, ns)]
            assert per_copy == sorted(per_copy, reverse=True), (p, eps)
            for g, n in zip(gaps, ns):
                second = np.sqrt(n * var) * norm.ppf(eps * eps / 9)
                assert abs(g - second) <= np.log2(n), (p, eps, n)
            # at the largest n the opposite sign misses by more than 2 log n
            assert abs(g + second) > 2 * np.log2(n), (p, eps)
        if len(p) == 2:
            assert per_copy[-1] < 0.03


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


def test_unsmoothed_bound_never_falls_under_rank1_refinement(rng):
    # at f = 0, H_min(B|X) is unsmoothed, and refining X can only lower it, so
    # dist_upper can only grow under the rank-1 refinement
    for _ in range(40):
        da, db, dr = (int(d) for d in rng.integers(2, 4, size=3))
        vec = rng.normal(size=(da, db, dr)) + 1j * rng.normal(size=(da, db, dr))
        psi = PureState([("A", da), ("B", db), ("R", dr)], vec / np.linalg.norm(vec))
        inst = Instance(psi, random_povm(rng, da, int(rng.integers(2, 5))), 0.1)
        g_eps = float(rng.choice([0.05, 0.1, 0.3]))
        base = bounds.distributed_upper_bound(inst, f_eps=0.0, g_eps=g_eps)
        refined = bounds.distributed_upper_bound(inst, f_eps=0.0, g_eps=g_eps, rank1=True)
        assert refined >= base - 1e-12


def test_pure_input_with_a_rank1_povm_has_no_conditional_min_entropy(rng):
    # a pure bipartite input measured by a rank-1 POVM on A leaves every
    # conditional on B pure, so H_min^0(B|X) = 0 and the bound is closed form
    for _ in range(40):
        da, db = (int(d) for d in rng.integers(2, 5, size=2))
        vec = rng.normal(size=(da, db)) + 1j * rng.normal(size=(da, db))
        psi = purified_input(PureState([("A", da), ("B", db)], vec / np.linalg.norm(vec)))
        povm = rank1_refine(random_povm(rng, da, int(rng.integers(2, 4))))
        g_eps = float(rng.choice([0.05, 0.1, 0.3]))
        got = bounds.distributed_upper_bound(Instance(psi, povm, 0.1), f_eps=0.0, g_eps=g_eps)
        want = np.log2(da) + np.log2(db) - entropy.h_max_smooth(psi.marginal(["A"]), g_eps)
        assert abs(got - want) <= 1e-12


def test_ancilla_comparison_margin_asserted(rng):
    psi = near_pure_classical(rng, 8, 4)
    eps = 0.25
    [rep] = bounds.rate_report(
        [compress_measurement(Instance(psi, basis_povm(8, "A"), eps), K=4, L=16, seed=1)])
    assert rep.margin > 0  # instance chosen for a conclusive comparison
    assert rep.c_borrow - rep.d_borrow >= rep.margin - 1e-9


def test_ancilla_comparison_inconclusive_when_mixed(rng):
    # perfectly correlated uniform joint: rho^A is maximally mixed, so the
    # margin is <= 0 and nothing is asserted
    joint = np.eye(4) / 4.0
    psi = purified_input(classical_correlated_pure(rng, 4, 4, joint=joint))
    [rep] = bounds.rate_report(
        [compress_measurement(Instance(psi, basis_povm(4, "A"), 0.25), K=4, L=16, seed=1)])
    assert rep.margin <= 0


def test_borrow_gap_below_the_margin_is_a_named_error(rng, monkeypatch, tmp_path, capsys):
    # the in-place protocol made to borrow more than the compressed one, on an
    # instance of positive margin: the invariant fails by name, in
    # rate_report and at the command line (exit 2, no traceback)
    psi = near_pure_classical(rng, 8, 4)
    orig = bounds.run_fewqubits
    monkeypatch.setattr(bounds, "run_fewqubits",
                        lambda views: [replace(t, borrowed=99) for t in orig(views)])
    view = compress_measurement(Instance(psi, basis_povm(8, "A"), 0.25), K=4, L=16, seed=1)
    [kd] = run_kd_oneshot([view])
    with pytest.raises(linalg.InvariantError, match=f"^borrow gap {kd.borrowed - 99} below "
                       r"margin (\d+\.\d{3})$") as exc:
        bounds.rate_report([view])
    assert float(str(exc.value).split()[-1]) > 0
    state, povm = str(tmp_path / "state.json"), str(tmp_path / "povm.json")
    io.save_state(DensityOperator([("A", 8), ("B", 4)], psi.marginal(["A", "B"])), state)
    io.save_povm(basis_povm(8, "A"), povm)
    assert main(["compare", "--state", state, "--povm", povm, "--K", "4", "--L", "16",
                 "--eps", "0.25", "--seeds", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: borrow gap ") and err.count("\n") == 1


def test_rate_report_consistency(rng):
    psi = near_pure_classical(rng, 8, 4)
    eps = 0.25
    view = compress_measurement(Instance(psi, basis_povm(8, "A"), eps), K=4, L=16, seed=2)
    [rep] = bounds.rate_report([view])
    # achievability never beats the upper bound beyond the declared slack
    assert rep.kd_rate <= rep.dist_upper + rep.slack_bits + 1e-9
    assert rep.fewqubits_rate <= rep.dist_upper + rep.slack_bits + 1e-9
    # communication accounting against I_max
    env = [l for l in psi.labels if l != "A"]
    cq_env = control_state(psi, basis_povm(8, "A"), condition_on=env)
    imax = entropy.i_max_cq(cq_env, eps ** 4).value
    [kd] = run_kd_oneshot([view])
    assert kd.communication <= imax + 4 * np.log2(1 / eps) + 1
    d = rep.to_dict()
    row = [d[c] for c in bounds.RateReport.CSV_COLUMNS]
    assert len(row) == len(bounds.RateReport.CSV_COLUMNS)
    assert d["c_borrow"] == rep.c_borrow


def test_rate_report_computes_the_instance_bounds_once(rng, monkeypatch):
    psi = near_pure_classical(rng, 8, 4)
    inst = Instance(psi, basis_povm(8, "A"), 0.25)
    calls = {"local": 0, "dist": 0, "eig_rho_a": 0}
    orig_local, orig_dist, orig_eig, orig_eigvals = (
        bounds.local_purity_bounds, bounds.distributed_upper_bound, linalg.psd_eig,
        linalg.psd_eigvals)

    def local(*args, **kwargs):
        calls["local"] += 1
        return orig_local(*args, **kwargs)

    def dist(*args, **kwargs):
        calls["dist"] += 1
        return orig_dist(*args, **kwargs)

    def eig(m, *args):
        calls["eig_rho_a"] += m is inst.rho_a
        return orig_eig(m, *args)

    def eigvals(m):
        calls["eig_rho_a"] += m is inst.rho_a
        return orig_eigvals(m)

    monkeypatch.setattr(bounds, "local_purity_bounds", local)
    monkeypatch.setattr(bounds, "distributed_upper_bound", dist)
    monkeypatch.setattr(linalg, "psd_eig", eig)
    monkeypatch.setattr(linalg, "psd_eigvals", eigvals)
    reports = bounds.rate_report(compress_seeds(inst, K=4, L=16, seeds=[1, 2, 3]))
    # one local pair (both h_h of one spectrum of rho_A, margin included) and
    # one distributed bound, whose H_max reads the same kept spectrum; the
    # tables' roots of rho_A come from that one eigensystem too
    assert calls == {"local": 1, "dist": 1, "eig_rho_a": 1}
    [fresh] = bounds.rate_report([compress_measurement(
        Instance(psi, basis_povm(8, "A"), 0.25), K=4, L=16, seed=3)])
    assert reports[-1].to_dict() == fresh.to_dict()
    assert {r.margin for r in reports} == {reports[0].local_upper - reports[0].slack_bits}


def test_rate_report_rejects_nonfinite():
    with pytest.raises(ValueError):
        bounds.RateReport(
            local_lower=np.inf, local_upper=1.0, dist_upper=1.0, kd_rate=0.0,
            fewqubits_rate=0.0, c_borrow=0, d_borrow=0, margin=0.0,
            final_error_kd=0.0, final_error_fq=0.0, eps=0.1, seed=0,
            slack_convention="", slack_bits=1.0, f_eps=0.1, g_eps=0.1)
