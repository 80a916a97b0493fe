"""Acceptance suite: every stated criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
pass lines. Tolerances and instance scales are pinned here, not configurable.
"""

import zlib

import numpy as np

from puredist import bounds, entropy, linalg
from puredist import protocols as pr
from puredist.compression import (
    Instance,
    compress_measurement,
    find_good_k,
    per_k_errors,
    validate_compression,
)
from puredist.sampling import (
    basis_povm,
    bell_pair,
    classical_correlated_pure,
    purified_input,
    random_density,
)
from puredist.states import CQState, DensityOperator, Povm, PureState, control_state
from puredist.verify import (
    check_hh_average_to_worst_case,
    check_hh_cond_data_processing,
    check_hh_cond_pure,
    check_hh_cond_purification_switch,
    check_hh_dimension_bound,
    check_hh_mixed_ancilla_additivity,
    check_hh_near_pure,
    check_hh_pure_tensor,
    check_hh_purification_duality,
    check_hh_subadditivity,
    check_hh_support_sandwich,
)

from oracles import (
    conditionals,
    imax_qubit_grid_oracle,
    near_pure_classical,
    random_cq,
    random_mixed,
)


def report(name, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}" + (f"  ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


# ----------------------------------------------------------- criterion 1

PROPERTY_CHECKS = (
    check_hh_purification_duality,
    check_hh_pure_tensor,
    check_hh_support_sandwich,
    check_hh_subadditivity,
    check_hh_mixed_ancilla_additivity,
    check_hh_dimension_bound,
    check_hh_near_pure,
    check_hh_cond_pure,
    check_hh_cond_purification_switch,
    check_hh_cond_data_processing,
    check_hh_average_to_worst_case,
)


def test_criterion_1_entropy_property_suite():
    """>= 1e3 random instances per property, zero violations."""
    failures = []
    for fn in PROPERTY_CHECKS:
        rng = np.random.default_rng(np.random.SeedSequence(2024, spawn_key=(
            zlib.crc32(fn.__name__.encode()),)))
        res = fn(rng, 1000)
        if not res.passed:
            failures.append((res.name, res.violations, res.worst))
    report("criterion 1: entropy property suite (11 properties x 1000 instances)",
           not failures, str(failures))


# ----------------------------------------------------------- criterion 2

def test_criterion_2_oracle_equivalence():
    rng = np.random.default_rng(42)
    worst_dh = 0.0
    for _ in range(500):
        d = int(rng.integers(2, 9))
        p = rng.dirichlet(np.ones(d))
        q = rng.dirichlet(np.ones(d))
        eps = float(rng.choice([0.01, 0.05, 0.1]))
        got = entropy.d_h(np.diag(p), np.diag(q), eps).value
        order = sorted(range(d), key=lambda i: -p[i] / max(q[i], 1e-300))
        need, cost = 1 - eps, 0.0
        for i in order:
            if need <= 1e-15:
                break
            take = min(1.0, need / p[i]) if p[i] > 0 else 0.0
            cost += take * q[i]
            need -= take * p[i]
        worst_dh = max(worst_dh, abs(got + np.log2(cost)))
    report("criterion 2a: d_h Neyman-Pearson vs LP, 500 commuting cases",
           worst_dh <= 1e-8, f"worst {worst_dh:.2e}")

    worst_imax = 0.0
    for _ in range(100):
        cq = random_cq(rng, int(rng.integers(2, 4)), 2)
        got = entropy.i_max_cq(cq, 0.0)
        want = imax_qubit_grid_oracle([c.matrix for c in conditionals(cq)])
        worst_imax = max(worst_imax, abs(got.value - want))
    report("criterion 2b: i_max vs Bloch grid oracle, 100 qubit cq states",
           worst_imax <= 1e-3, f"worst {worst_imax:.2e}")

    cqo = CQState([0, 1], [0.5, 0.5],
                  [DensityOperator([("B", 2)], np.diag([1.0, 0.0])),
                   DensityOperator([("B", 2)], np.diag([0.0, 1.0]))])
    got = entropy.i_max_cq(cqo, 0.0).value
    report("criterion 2c: orthogonal pure states give exactly 1 bit",
           abs(got - 1.0) <= 1e-6, f"got {got}")


# ----------------------------------------------------------- criterion 3

def test_criterion_3_local_distillation():
    rng = np.random.default_rng(3)
    ok = True
    detail = ""
    for _ in range(500):
        d = int(rng.integers(2, 9))
        rho = random_mixed(rng, d, "A", int(rng.integers(1, d + 1)))
        eps = float(rng.choice([0.01, 0.05, 0.1, 0.25]))
        iso, err = pr.local_distill(rho, eps)
        want_bits = int(np.floor(np.log2(d) - entropy.h_tilde_max(rho, eps)))
        lower, _ = bounds.local_purity_bounds(rho, eps)  # declared slack + 1
        if (err > 2 * np.sqrt(eps) + eps + 1e-9 or iso.a_p_bits != want_bits
                or iso.a_p_bits < lower - 1 - 1e-9):
            ok = False
            detail = f"d={d} eps={eps} err={err} bits={iso.a_p_bits} want={want_bits}"
            break
    report("criterion 3: local distillation, 500 random states", ok, detail)


# ----------------------------------------------------------- criterion 4

def test_criterion_4_protocol_a():
    rng = np.random.default_rng(4)
    eps = 0.1
    ok = True
    detail = ""
    for da, db, top in ((4, 4, 0.9), (4, 2, 0.8), (8, 4, 0.85)):
        psi = near_pure_classical(rng, da, db, top=top)
        t = pr.run_protocol_a(Instance(psi, basis_povm(da, "A"), eps))
        if abs(t.net_rate - t.rate_bound_real) > t.slack_bits + 1:
            ok, detail = False, f"rate {t.net_rate} vs {t.rate_bound_real}"
            break
        if t.final_error > 4 * np.sqrt(eps):
            ok, detail = False, f"error {t.final_error}"
            break
    report("criterion 4: Protocol A rate within slack+1, error <= 4 sqrt(eps)",
           ok, detail)


# ----------------------------------------------------------- criterion 5

def test_criterion_5_measurement_compression():
    rng = np.random.default_rng(5)
    psi_bell = purified_input(bell_pair())
    triv = Povm([np.eye(2)], register="A")
    rep = validate_compression(
        compress_measurement(Instance(psi_bell, triv, 0.1), K=4, L=4, seed=0))
    report("criterion 5a: povm={I} ideal_vs_simulated <= 1e-8",
           rep.ideal_vs_simulated <= 1e-8, f"{rep.ideal_vs_simulated:.2e}")

    basis = basis_povm(2, "A")
    joint = np.array([[0.4, 0.1], [0.1, 0.4]])
    psi_cl = purified_input(classical_correlated_pure(rng, 2, 2, joint=joint))
    ok = True
    detail = ""
    for name, psi in (("bell", psi_bell), ("classical", psi_cl)):
        medians = []
        for L in (8, 16, 32, 64):
            errs = [validate_compression(
                compress_measurement(Instance(psi, basis, 0.1), K=4, L=L, seed=s)
            ).ideal_vs_simulated for s in range(20)]
            medians.append(float(np.median(errs)))
        if not all(medians[i + 1] <= medians[i] + 1e-12 for i in range(3)):
            ok, detail = False, f"{name}: {medians}"
            break
    report("criterion 5b: median error non-increasing over 3 L-doublings", ok, detail)

    # rate thresholds of the compression theorem with slack 4*log2(1/eps):
    # desk scale admits eps = 0.5 (L >= 2^{Imax+4} = 32, K >= 2)
    eps = 0.5
    env = ["B", "R"]
    ideal = control_state(psi_bell, basis, condition_on=env)
    imax = entropy.i_max_cq(ideal, eps ** 4).value
    hpmax = entropy.h_prime_max(np.diag(ideal.probs), eps ** 4)
    slack = 4 * np.log2(1 / eps)
    K, L = 2, 32
    assert np.log2(L) >= imax + slack - 1e-9
    assert np.log2(K) + np.log2(L) >= hpmax + slack - 1e-9
    bots = [validate_compression(
        compress_measurement(Instance(psi_bell, basis, eps), K=K, L=L, seed=s)
    ).bot_mass for s in range(20)]
    med = float(np.median(bots))
    report("criterion 5c: median Tr[Theta_bot rho] <= 5 eps at rate thresholds",
           med <= 5 * eps, f"median {med:.3f}, threshold {5 * eps}")


# ----------------------------------------------------------- criterion 6

def test_criterion_6_derandomization():
    rng = np.random.default_rng(6)
    eps = 0.5
    psi = purified_input(bell_pair())
    basis = basis_povm(2, "A")
    K, L = 2, 32  # meets the rate conditions at eps = 0.5 (criterion 5c)
    fracs, sel_ok = [], True
    for seed in range(20):
        view = compress_measurement(Instance(psi, basis, eps), K=K, L=L, seed=seed)
        rep = pr.verify_derandomization(view)
        fracs.append(rep["fraction"])
        k = find_good_k(view)
        errs = per_k_errors([view])[0]
        if errs[k] > np.median(errs) + 1e-12:
            sel_ok = False
    med = float(np.median(fracs))
    bound = 1 - eps ** 0.125
    report("criterion 6a: nice-pair fraction >= 1 - eps^(1/8) (median, 20 seeds)",
           med >= bound, f"median {med:.3f} vs bound {bound:.3f}")
    report("criterion 6b: find_good_k error <= median per-k error", sel_ok)


# ----------------------------------------------------------- criterion 7

def fewqubits_instances(rng):
    for i in range(10):
        top = 0.86 + 0.01 * i
        yield near_pure_classical(rng, 8, 4, top=top)


def test_criterion_7_fewqubits_vs_kd():
    rng = np.random.default_rng(7)
    eps = 0.25
    slack = np.log2(1 / eps)  # 2 bits
    borrow_ok, rank1_ok, rate_ok, margin_ok = True, True, True, True
    for psi in fewqubits_instances(rng):
        povm = basis_povm(8, "A")
        rho_a = psi.marginal(["A"])
        if np.log2(8) - entropy.h_h(rho_a, eps).value < slack:
            margin_ok = False
        for seed in (1, 2, 3):
            view = compress_measurement(Instance(psi, povm, eps), K=4, L=16, seed=seed)
            [kd] = pr.run_kd_oneshot([view])
            [fq] = pr.run_fewqubits([view])
            borrow_ok &= fq.borrowed < kd.borrowed
            rank1_ok &= fq.borrowed <= slack  # basis POVM is rank-1
            rate_ok &= fq.net_rate >= kd.net_rate - 1
    report("criterion 7 precondition: log|A| - H_H(A) >= slack on all instances",
           margin_ok)
    report("criterion 7a: d_borrow < c_borrow in every paired seed", borrow_ok)
    report("criterion 7b: rank-1 POVM d_borrow <= slack_bits always", rank1_ok)
    report("criterion 7c: FewQubits net rate >= KD net rate - 1", rate_ok)


# ----------------------------------------------------------- criterion 8

def test_criterion_8_bound_consistency():
    rng = np.random.default_rng(8)
    eps = 0.25
    ok = True
    detail = ""
    for psi in fewqubits_instances(rng):
        povm = basis_povm(8, "A")
        inst = Instance(psi, povm, eps)
        up = bounds.distributed_upper_bound(inst)
        slack = np.log2(1 / eps)
        view = compress_measurement(inst, K=4, L=16, seed=1)
        for t in (*pr.run_kd_oneshot([view]), *pr.run_fewqubits([view]), pr.run_protocol_a(inst)):
            if t.net_rate > up + slack + 1e-9:
                ok, detail = False, f"{t.protocol}: {t.net_rate} > {up} + {slack}"
    rng2 = np.random.default_rng(88)
    sandwich = True
    for _ in range(200):
        d = int(rng2.integers(2, 9))
        rho = random_density(rng2, d)
        e = float(rng2.choice([0.05, 0.1, 0.25]))
        lo, hi = bounds.local_purity_bounds(rho, e)
        sandwich &= lo <= hi + np.log2(1 / e) + 1e-9
    report("criterion 8: transcripts below the distributed upper bound "
           "and local sandwich holds", ok and sandwich, detail)


# ----------------------------------------------------------- criterion 9

def test_criterion_9_uhlmann():
    rng = np.random.default_rng(9)
    worst = 0.0
    for _ in range(500):
        d_sys = int(rng.integers(2, 6))
        d_ref = int(rng.integers(2, 6))
        a = rng.normal(size=(d_sys, d_ref)) + 1j * rng.normal(size=(d_sys, d_ref))
        a /= np.linalg.norm(a)
        b = rng.normal(size=(d_sys, d_ref)) + 1j * rng.normal(size=(d_sys, d_ref))
        b /= np.linalg.norm(b)
        phi = PureState([("P", d_sys), ("R", d_ref)], a)
        chi = PureState([("Q", d_sys), ("R", d_ref)], b)
        _, ov = pr.uhlmann_unitary(phi, chi, ["P"], ["Q"])
        fid = linalg.fidelity(linalg.psd_eig(a.T @ np.conj(a)), b.T @ np.conj(b))
        worst = max(worst, abs(ov - fid))
    report("criterion 9: Uhlmann overlap equals marginal fidelity, 500 pairs",
           worst <= 1e-8, f"worst {worst:.2e}")
