from contextlib import redirect_stdout
from io import StringIO

import numpy as np
import pytest

from puredist import entropy, linalg
from puredist import protocols as pr
from puredist.bounds import rate_report
from puredist.compression import Instance, compress_measurement, compress_seeds, per_k_errors
from puredist.io import dumps
from puredist.sampling import (
    basis_povm,
    bell_pair,
    classical_correlated_pure,
    ginibre_density,
    purified_input,
    random_density,
    random_povm,
)
from puredist.states import DensityOperator, Povm, PureState, control_state

from oracles import ginibre_matrix, mixed_protocol_input, near_pure_classical, protocol_a_dense


# ------------------------------------------------------------ local distill

def test_local_distill_examples():
    iso, err = pr.local_distill(DensityOperator([("A", 4)], np.diag([1.0, 0, 0, 0])), 0.1)
    assert iso.a_p_bits == 2 and err <= 1e-8
    iso, err = pr.local_distill(DensityOperator([("A", 4)], np.eye(4) / 4), 0.1)
    assert iso.a_p_bits == 0
    spec = [0.6, 0.35] + [0.01] * 5 + [0.0]
    iso, err = pr.local_distill(DensityOperator([("A", 8)], np.diag(spec)), 0.06)
    assert iso.kept_dim == 2 and iso.a_p_bits == 2


def test_local_distill_error_and_rate(rng):
    for _ in range(150):
        d = int(rng.integers(2, 9))
        rho = random_density(rng, d)
        eps = float(rng.choice([0.01, 0.05, 0.1, 0.3]))
        iso, err = pr.local_distill(rho, eps)
        assert err <= 2 * np.sqrt(eps) + eps + 1e-9
        want_bits = int(np.floor(np.log2(d) - entropy.h_tilde_max(rho, eps)))
        assert iso.a_p_bits == want_bits
        assert iso.kept_dim <= 2 ** entropy.h_tilde_max(rho, eps) + 1e-9
        # isometry columns orthonormal
        m = iso.matrix
        assert np.max(np.abs(linalg.dagger(m) @ m - np.eye(d))) <= 1e-9


def test_local_distill_rejects_bad_eps(rng):
    with pytest.raises(ValueError):
        pr.local_distill(random_density(rng, 4), 1.0)


# -------------------------------------------------------------- protocol A

def test_protocol_a_trivial_povm_product_state(rng):
    # povm {I}: two independent local distillations, nothing borrowed
    rho_a = np.diag([0.97, 0.01, 0.01, 0.01])
    rho_b = np.diag([0.96, 0.04])
    vec_a = linalg.purify(*linalg.psd_eig(rho_a))
    da, ra = 4, vec_a.size // 4
    vec_b = linalg.purify(*linalg.psd_eig(rho_b))
    db, rb = 2, vec_b.size // 2
    vec = np.kron(vec_a, vec_b).reshape(da, ra, db, rb).transpose(0, 2, 1, 3)
    psi = PureState([("A", da), ("B", db), ("R", ra * rb)],
                    vec.reshape(da, db, ra * rb))
    t = pr.run_protocol_a(Instance(psi, Povm([np.eye(4)], register="A"), 0.1))
    iso_a, _ = pr.local_distill(DensityOperator([("A", 4)], rho_a), 0.1)
    iso_b, _ = pr.local_distill(DensityOperator([("B", 2)], rho_b), 0.1)
    assert t.borrowed == 0 and t.communication == 0
    assert t.distilled_alice == iso_a.a_p_bits
    assert t.distilled_bob == iso_b.a_p_bits
    assert t.net_rate == iso_a.a_p_bits + iso_b.a_p_bits


def test_protocol_a_classical_matches_formula(rng):
    psi = near_pure_classical(rng, 4, 4)
    eps = 0.1
    t = pr.run_protocol_a(Instance(psi, basis_povm(4, "A"), eps))
    assert abs(t.net_rate - t.rate_bound_real) <= t.slack_bits + 1
    assert t.final_error <= 4 * np.sqrt(eps)
    assert t.borrowed == 2 and t.communication == 2


def test_protocol_a_bell_bob_side_pure(rng):
    psi = purified_input(bell_pair())
    t = pr.run_protocol_a(Instance(psi, basis_povm(2, "A"), 0.1))
    # conditionals are pure on both sides: everything distills
    assert t.distilled_alice == 1 and t.distilled_bob == 1
    assert t.final_error <= 1e-9
    assert t.net_rate == 1


def test_protocol_a_transcript_fields(rng):
    psi = near_pure_classical(rng, 4, 2)
    t = pr.run_protocol_a(Instance(psi, basis_povm(4, "A"), 0.2), seed=5)
    d = t.to_dict()
    assert d["net_rate"] == d["distilled_alice"] + d["distilled_bob"] - d["borrowed"]
    assert d["seed"] == 5 and d["eps"] == 0.2


def test_protocol_a_eigendecomposes_each_branch_once(monkeypatch):
    # outcome 3 never occurs, so its branch is negligible and gets no code
    joint = np.array([[0.5, 0.1], [0.05, 0.2], [0.1, 0.05], [0.0, 0.0]])
    psi = purified_input(classical_correlated_pure(None, 4, 2, joint=joint))
    inst = Instance(psi, basis_povm(4, "A"), 0.1)
    calls = _count_calls(monkeypatch, linalg, "eig_hermitian")
    pr.run_protocol_a(inst)
    live = sum(inst.branches.masses() >= 1e-12)
    # Alice's marginal and Bob's conditional of each live branch, Bob's kept
    # by his ensemble: a second run decomposes only Alice's
    assert live == 3 and len(calls) == 2 * live
    calls.clear()
    t = pr.run_protocol_a(inst)
    assert t.distilled_alice == 2  # every live branch is good for Alice
    assert len(calls) == live


def _count_calls(monkeypatch, module, name):
    """The matrices ``module.name`` is called on, one per member of a stack."""
    calls = []
    orig = getattr(module, name)

    def counting(m, *args, **kwargs):
        calls.extend(m if np.ndim(m) == 3 else [m])
        return orig(m, *args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


def _final_error_per_branch(branches, steps, cells):
    """The per-branch loop the stacked ``_final_error`` replaced: each step
    (register, (pure, garbage) labels, bits, rows) codes branch i alone with
    ``rows[i]``, zero-padded to 2^bits * ceil(d / 2^bits) rows."""
    live = [i for i in cells if float(np.linalg.norm(branches[i].tensor)) ** 2 >= 1e-15]
    margs = {}
    for i in dict.fromkeys(live):
        br = branches[i]
        for reg, (pure, garbage), bits, rows in steps:
            d = rows.shape[-1]
            ap, ag = 2 ** bits, -(-d // 2 ** bits)
            iso = np.zeros((ap * ag, d), dtype=complex)
            iso[:d] = rows[i]
            br = br.apply(iso, [reg], out_regs=[(pure, ap), (garbage, ag)])
        margs[i] = br.marginal(["Ap", "Bp"])
    sigma = margs[live[0]]
    for i in live[1:]:
        sigma = sigma + margs[i]
    target = np.zeros(sigma.shape)
    target[0, 0] = 1.0
    return float(linalg.trace_norm(sigma - target))


@pytest.mark.parametrize("first", ["A", "B"])
def test_final_error_keeps_the_bits_of_the_per_branch_loop(rng, first):
    from puredist.sampling import random_povm
    from puredist.states import measure
    psi = mixed_protocol_input(rng, 4, 2, rank=2)
    if first == "B":  # A in the middle: every branch tensor is a strided view
        psi = PureState([("B", 2), ("A", 4), ("R", 2)], np.transpose(psi.tensor, (1, 0, 2)))
    # branch 3 is exactly zero, so below 1e-15; the cells repeat branches
    elements = list(random_povm(rng, 4, 3).elements) + [np.zeros((4, 4))]
    cells = [0, 2, 1, 0, 3, 2, 2]
    for eps in (0.05, 0.25):
        branches = measure(psi, elements, "A")
        masses = branches.masses()
        assert masses[3] < 1e-15 <= masses[:3].min()
        run = [(len(elements), cells)]
        steps = [(reg, labels, *pr._branch_codes(*pr._marginal_eig(branches, masses, reg),
                                                 masses, run, eps)[0])
                 for reg, labels in (("A", ("Ap", "Ag")), ("B", ("Bp", "Bg")))]
        [got] = pr._final_error(branches, masses, run, [[step[2:] for step in steps]],
                                [step[:2] for step in steps])
        singles = [psi.apply(linalg.psd_power(e, 0.5), ["A"]) for e in elements]
        want = _final_error_per_branch(singles, steps, cells)
        assert got == want


def test_final_error_of_runs_keeps_the_bits_of_each_run_alone(rng):
    # three runs: the second has the first's code sizes, and the third, the
    # first's branches rotated so that its zero branch comes first, is coded
    # by the identity at 0 bits; so two passes, each on the runs that it
    # takes out of the stack, with each run's bits alone
    from puredist.sampling import random_povm
    from puredist.states import measure
    psi = mixed_protocol_input(rng, 4, 2, rank=2)
    elements = list(random_povm(rng, 4, 3).elements) + [np.zeros((4, 4))]
    order = [0, 1, 2, 3, 0, 1, 2, 3, 3, 0, 1, 2]
    branches = measure(psi, [elements[i] for i in order], "A")
    masses = branches.masses()
    runs = [(4, [0, 2, 1, 0, 3]), (4, [1, 1, 2]), (4, [1, 0, 3, 2])]
    regs = [("A", ("Ap", "Ag")), ("B", ("Bp", "Bg"))]
    coded = [pr._branch_codes(*pr._marginal_eig(branches, masses, reg), masses, runs, 0.25)[0]
             for reg, _ in regs]
    identity = [(0, np.broadcast_to(np.eye(d), (4, d, d))) for d in (4, 2)]
    codes = [coded, coded, identity]
    assert coded[0][0] + coded[1][0] > 0  # the third run's sizes differ
    got = pr._final_error(branches, masses, runs, codes, regs)
    for r, (n, cells) in enumerate(runs):
        alone = PureState(branches.regs, branches.tensor[4 * r:4 * r + 4], stacked=True)
        assert got[r] == pr._final_error(alone, masses[4 * r:4 * r + 4], [(n, cells)],
                                         [codes[r]], regs)[0]
    assert got[0] != got[1]


# ---------------------------------------------------------------- kd oneshot

def test_kd_oneshot_codes_each_distinct_symbol_once(rng, monkeypatch):
    psi = near_pure_classical(rng, 4, 4, top=0.7)
    view = compress_measurement(Instance(psi, basis_povm(4, "A"), 0.25), K=8, L=16, seed=2)
    pr.run_kd_oneshot([view])  # fills the instance's and the view's caches
    distinct = len(set(view.decode[view.k].tolist()))
    assert 1 < distinct < view.L
    # every cell and the failure element carry mass, so every branch is live
    assert np.min(view.q_l_given_k(view.k)) > 1e-6
    roots = _count_calls(monkeypatch, linalg, "psd_power")
    eigs = _count_calls(monkeypatch, linalg, "eig_hermitian")
    pr.run_kd_oneshot([view])
    # one root per distinct symbol plus the failure element; each root is one
    # eigendecomposition and each live branch takes one code per party
    assert len(roots) == distinct + 1
    assert len(eigs) == len(roots) + 2 * (distinct + 1)


def test_kd_oneshot_classical(rng):
    psi = near_pure_classical(rng, 4, 4)
    eps = 0.25
    [t] = pr.run_kd_oneshot([compress_measurement(Instance(psi, basis_povm(4, "A"), eps),
        K=8, L=16, seed=3)])
    assert t.borrowed == int(np.ceil(np.log2(17)))
    assert t.communication == t.borrowed
    assert 0 <= t.final_error <= 2
    # rate formula evaluated by the entropy module stays within the slack
    assert t.net_rate <= t.rate_bound_real + t.slack_bits + 1
    assert t.net_rate >= t.rate_bound_real - 3 * (t.slack_bits + 1)


def test_kd_oneshot_trivial_povm(rng):
    psi = purified_input(bell_pair())
    [t] = pr.run_kd_oneshot(
        [compress_measurement(Instance(psi, Povm([np.eye(2)], register="A"), 0.1),
                              K=2, L=4, seed=1)])
    # reduces to local distillations (nothing distillable from Bell marginals)
    assert t.distilled_alice == 0 and t.distilled_bob == 0
    assert t.final_error <= 1e-8
    assert t.borrowed == 3  # ceil(log2(L+1))


def test_kd_oneshot_error_budget_over_seeds(rng):
    psi = near_pure_classical(rng, 4, 4)
    eps = 0.25
    errs = [t.final_error for t in pr.run_kd_oneshot(
        compress_seeds(Instance(psi, basis_povm(4, "A"), eps), K=4, L=16, seeds=range(20)))]
    budget = 2 * eps ** (1 / 16)  # weaker exponent, declared constant 2
    assert np.median(errs) <= budget


# ------------------------------------------------------------------ uhlmann

@pytest.mark.parametrize("chi_regs, message", [
    ([("A", 2), ("C", 2)], "shared registers differ"),
    ([("A", 2), ("B", 3)], "shared register 'B' has mismatched dimension"),
    ([("A", 1), ("B", 2)], "target system smaller than source"),
], ids=["labels", "dims", "smaller"])
def test_uhlmann_rejects_mismatched_states(chi_regs, message):
    phi = PureState([("A", 2), ("B", 2)], np.eye(4)[0])
    chi = PureState(chi_regs, np.eye(chi_regs[0][1] * chi_regs[1][1])[0])
    with pytest.raises(ValueError, match=message):
        pr.uhlmann_unitary(phi, chi, ["A"], ["A"])


def test_uhlmann_identical_states(rng):
    phi = mixed_protocol_input(rng, 4, 2, rank=3)
    u, ov = pr.uhlmann_unitary(phi, phi, ["A"], ["A"])
    assert abs(ov - 1) <= 1e-9
    assert np.max(np.abs(linalg.dagger(u) @ u - np.eye(4))) <= 1e-9


def test_uhlmann_equal_marginals_saturate(rng):
    # same B,R marginal reached by two different purifying isometries
    phi = mixed_protocol_input(rng, 4, 3, rank=2)
    from puredist.sampling import haar_unitary
    w = haar_unitary(ginibre_matrix(rng, 4))
    chi = phi.apply(w, ["A"])
    u, ov = pr.uhlmann_unitary(phi, chi, ["A"], ["A"])
    assert abs(ov - 1) <= 1e-8
    assert np.max(np.abs(u - w)) <= 1e-6 or abs(ov - 1) <= 1e-8


def test_uhlmann_overlap_equals_marginal_fidelity(rng):
    for _ in range(100):
        da = int(rng.integers(2, 5))
        dr = int(rng.integers(2, 5))
        va = rng.normal(size=(da, dr)) + 1j * rng.normal(size=(da, dr))
        va /= np.linalg.norm(va)
        vb = rng.normal(size=(da, dr)) + 1j * rng.normal(size=(da, dr))
        vb /= np.linalg.norm(vb)
        phi = PureState([("P", da), ("R", dr)], va)
        chi = PureState([("Q", da), ("R", dr)], vb)
        u, ov = pr.uhlmann_unitary(phi, chi, ["P"], ["Q"])
        fid = linalg.fidelity(linalg.psd_eig(va.T @ np.conj(va)), vb.T @ np.conj(vb))
        assert abs(ov - fid) <= 1e-8 and ov <= 1 + 1e-9
        moved = phi.apply(u, ["P"], out_regs=[("Q", da)])
        got = chi.tensor.reshape(-1) @ np.conj(moved.tensor.reshape(-1))
        assert abs(abs(got) - fid) <= 1e-8


def test_uhlmann_check_holds_on_a_rank_one_shared_marginal():
    # the 20th input drawn in turn from the classical and the mixed family: one
    # Uhlmann target is of rank 1 on the shared registers, and the fidelity must
    # take no roots of the rounding noise off its support (they added 1.06e-8)
    rng = np.random.default_rng(3)
    for i in range(20):
        psi = (classical_correlated_pure(rng, 8, 4) if i % 2 == 0
               else mixed_protocol_input(rng, 8, 2, rank=2))
    eye = np.eye(8)
    povm = Povm([eye[:, c] @ eye[:, c].T for c in ([0], [1, 2], [3, 4, 5, 6], [7])],
                register="A")
    view = compress_measurement(Instance(psi, povm, 0.25), K=4, L=4, seed=4)
    [t] = pr.run_fewqubits([view])
    [report] = rate_report([view])
    assert report.final_error_fq == t.final_error


def test_uhlmann_dimension_mismatch(rng):
    phi = PureState([("P", 2), ("R", 2)], np.eye(2).reshape(-1) / np.sqrt(2))
    chi = PureState([("Q", 2), ("S", 2)], np.eye(2).reshape(-1) / np.sqrt(2))
    with pytest.raises(ValueError):
        pr.uhlmann_unitary(phi, chi, ["P"], ["Q"])


# ---------------------------------------------------------------- fewqubits

def test_fewqubits_rank1_bell(rng):
    psi = purified_input(bell_pair())
    eps = 0.25
    [t] = pr.run_fewqubits([compress_measurement(Instance(psi, basis_povm(2, "A"), eps),
                                                 K=4, L=8, seed=3)])
    # rank-1 POVM: borrow stays within the declared slack
    assert t.borrowed <= t.slack_bits
    assert t.distilled_bob == 1  # Bob's conditionals are pure
    assert t.final_error <= 1e-8


def test_fewqubits_trivial_povm(rng):
    psi = purified_input(bell_pair())
    [t] = pr.run_fewqubits(
        [compress_measurement(Instance(psi, Povm([np.eye(2)], register="A"), 0.1),
                              K=2, L=2, seed=3)])
    assert t.dims["Ag"] == 1
    assert t.borrowed <= 1
    assert t.final_error <= 1e-8


def test_fewqubits_case1_on_large_A(rng):
    psi = near_pure_classical(rng, 8, 4)
    eps = 0.25
    [t] = pr.run_fewqubits([compress_measurement(Instance(psi, basis_povm(8, "A"), eps),
                                                 K=4, L=8, seed=2)])
    assert t.dims["Ap"] * t.dims["LA"] * t.dims["Ag"] == 8 * 2 ** t.borrowed
    assert t.communication == int(np.log2(t.dims["LA"]))


def test_fewqubits_case1_distills_alice_qubits_in_place():
    # a near-deterministic classical A through a near-noiseless cyclic channel
    # to B: I_max + H_H(env|X) + slack fits two qubits below log|A| = 4, so
    # Case I keeps a_p = 2 pure qubits of A with no borrow
    rng = np.random.default_rng(0)
    top = rng.uniform(0.9, 0.999)
    p_a = np.concatenate([[top], rng.dirichlet(np.ones(15)) * (1 - top)])
    c0 = rng.uniform(0.9, 0.999)
    noise = np.concatenate([[c0], rng.dirichlet(np.ones(3)) * (1 - c0)])
    joint = np.array([p_a[a] * np.roll(noise, a % 4) for a in range(16)])
    psi = purified_input(classical_correlated_pure(rng, 16, 4, joint=joint))
    view = compress_measurement(Instance(psi, basis_povm(16, "A"), 0.05, slack_bits=0.5), 4, 4, 1)
    plan = pr.plan_fewqubits(view)
    assert plan.case == "I" and plan.a_p_bits == 2 and plan.borrow == 0
    assert plan.ap_dim * plan.la_dim * plan.ag_dim == 16 << plan.borrow
    [t] = pr.run_fewqubits([view])
    assert t.case == "I" and t.distilled_alice == plan.a_p_bits and t.borrowed == 0


def test_fewqubits_codes_bob_once_per_nice_symbol(rng, monkeypatch):
    psi = near_pure_classical(rng, 8, 4)
    inst = Instance(psi, basis_povm(8, "A"), 0.25)
    view = compress_measurement(inst, K=4, L=16, seed=1)
    codes, orig = [], entropy.truncation_codes

    def counting(w, v, eps):
        codes.extend(w)  # the members of the stacked call, one spectrum each
        return orig(w, v, eps)

    monkeypatch.setattr(entropy, "truncation_codes", counting)
    pr.run_fewqubits([view])
    _, nice = view.nice
    symbols = {int(view.decode[view.k, l]) for l in nice[view.k]}
    assert len(symbols) < len(nice[view.k])
    # the first run codes each simulated symbol once, the nice ones among them
    simulated = set(np.flatnonzero(inst.live).tolist())
    assert len(codes) == len(simulated) and symbols <= simulated
    codes.clear()
    pr.run_fewqubits([compress_measurement(inst, K=4, L=16, seed=2)])
    assert codes == []  # a second seed codes none again


def test_a_fewqubits_sweep_solves_only_the_conditional_entropies_of_the_nice_verdicts(
        monkeypatch):
    # the plan's case reads H_H(E|X) at eps, the solve the nice verdicts made;
    # a sweep solves each party's H_H(.|X) at eps once and no other smoothing
    rng = np.random.default_rng(1)
    psi, povm = mixed_protocol_input(rng, 4, 4, rank=2), random_povm(rng, 4, 3)
    solves = []
    for name in ("h_h_cond_cq", "h_min_cq_smoothed"):
        def counted(cq, smoothing, solve=getattr(entropy, name), name=name):
            solves.append((name, smoothing))
            return solve(cq, smoothing)
        monkeypatch.setattr(entropy, name, counted)
    fq = pr.run_fewqubits(compress_seeds(Instance(psi, povm, 0.25), 8, 16, [1, 2, 3]))
    assert len(fq) == 3
    assert solves == [("h_h_cond_cq", 0.25)] * 2


def test_fewqubits_beats_kd_on_borrow(rng):
    psi = near_pure_classical(rng, 8, 4)
    eps = 0.25
    for seed in (1, 2, 3):
        view = compress_measurement(Instance(psi, basis_povm(8, "A"), eps), K=4, L=16, seed=seed)
        [kd] = pr.run_kd_oneshot([view])
        [fq] = pr.run_fewqubits([view])
        assert fq.borrowed < kd.borrowed
        assert fq.net_rate >= kd.net_rate - 1


def test_plan_fewqubits_cases(rng):
    psi = near_pure_classical(rng, 8, 4)
    eps = 0.25
    povm = basis_povm(8, "A")
    view = compress_measurement(Instance(psi, povm, eps), K=4, L=8, seed=2)
    plan = pr.plan_fewqubits(view)
    assert plan.case in ("I", "II")
    # the largest truncated rank (required) and its entropic cap over the nice symbols
    ranks, caps = view.instance.ag_bounds
    xs = view.decode[view.k, view.nice[1][view.k]]
    ag_required, ag_entropic_cap = np.max(ranks[xs], initial=1), np.max(caps[xs], initial=2)
    assert plan.ag_dim >= ag_required
    assert ag_required <= ag_entropic_cap
    if plan.case == "I" and plan.borrow == 0:
        assert plan.ap_dim * plan.la_dim * plan.ag_dim == 8
    # engineered high-entropy conditionals on a small A force Case II
    vec = np.zeros((2, 2, 2), dtype=complex)
    vec[0, 0, 0] = vec[0, 1, 1] = 0.5
    vec[1, 0, 1] = vec[1, 1, 0] = 0.5
    psi2 = PureState([("A", 2), ("B", 2), ("R", 2)], vec)
    povm2 = basis_povm(2, "A")
    plan2 = pr.plan_fewqubits(compress_measurement(Instance(psi2, povm2, eps), K=2, L=4, seed=0))
    assert plan2.case == "II"
    assert plan2.borrow >= 1


def test_fewqubits_empty_nice_raises():
    q = 0.9
    vec = np.zeros((2, 2, 2), dtype=complex)
    vec[0, 0, 0] = np.sqrt(q)
    vec[1, 0, 0] = np.sqrt((1 - q) / 2)
    vec[1, 1, 1] = np.sqrt((1 - q) / 2)
    psi = PureState([("A", 2), ("B", 2), ("R", 2)], vec)
    povm = Povm([np.diag([0.9, 0.0]), np.diag([0.1, 1.0])], register="A")
    from puredist.compression import NoGoodK
    with pytest.raises((NoGoodK, RuntimeError)):
        pr.run_fewqubits(
            [compress_measurement(Instance(psi, povm, 1e-12, slack_bits=0.0), K=1, L=1, seed=1)])


def test_declared_slack_reaches_the_choice_of_k():
    # the instance of test_fewqubits_empty_nice_raises: at zero slack no k
    # qualifies, so both compressed protocols fail where k is chosen
    from puredist.compression import NoGoodK, find_good_k
    q = 0.9
    vec = np.zeros((2, 2, 2), dtype=complex)
    vec[0, 0, 0] = np.sqrt(q)
    vec[1, 0, 0] = np.sqrt((1 - q) / 2)
    vec[1, 1, 1] = np.sqrt((1 - q) / 2)
    psi = PureState([("A", 2), ("B", 2), ("R", 2)], vec)
    povm = Povm([np.diag([0.9, 0.0]), np.diag([0.1, 1.0])], register="A")
    view = compress_measurement(Instance(psi, povm, 1e-12, slack_bits=0.0), K=1, L=1, seed=1)
    with pytest.raises(NoGoodK) as chosen:
        find_good_k(view)
    for run in (lambda v: pr.run_kd_oneshot([v]), lambda v: pr.run_fewqubits([v])):
        with pytest.raises(NoGoodK) as raised:
            run(view)
        assert str(raised.value) == str(chosen.value)
    # at the default slack the same table has a good k
    view = compress_measurement(Instance(psi, povm, 1e-12), K=1, L=1, seed=1)
    [t] = pr.run_kd_oneshot([view])
    assert view.k == 0 and t.slack_bits == np.log2(1e12)


# -------------------------------------------------------------- invariants

def test_purity_monotone_along_protocol(rng):
    psi = purified_input(bell_pair())
    tr = pr.purity_trace(Instance(psi, basis_povm(2, "A"), 0.1))
    vals = [v for _, v in tr]
    assert all(vals[i + 1] <= vals[i] + 1e-7 for i in range(len(vals) - 1)), tr
    # and on a mixed classical instance with power-of-two dims
    psi2 = near_pure_classical(rng, 4, 2)
    tr2 = pr.purity_trace(Instance(psi2, basis_povm(4, "A"), 0.05))
    vals2 = [v for _, v in tr2]
    assert all(vals2[i + 1] <= vals2[i] + 1e-7 for i in range(len(vals2) - 1)), tr2


@pytest.mark.parametrize("reference", ["R", "B"])
def test_purity_trace_names_bob_and_the_reference_through_the_instance(reference):
    # the Bell pair with Bob's register named C, and the reference named R
    # or even B: the trace keeps and drops registers by the instance's
    # names, so it gives the B-named Bell values bit for bit
    bell = purified_input(bell_pair())
    renamed = PureState([("A", 2), ("C", 2), (reference, 1)], bell.tensor)
    for eps in (0.1, 0.25):
        want = pr.purity_trace(Instance(bell, basis_povm(2, "A"), eps))
        assert pr.purity_trace(Instance(renamed, basis_povm(2, "A"), eps, bob_label="C")) == want


def test_fewqubits_branchwise_consistency(rng):
    # the embedding's whole point: after Alice's single unitary and the
    # dephasing, each communicated branch reproduces its truncated target
    # state, up to the Fuchs-van de Graaf envelope of the Uhlmann overlap
    from puredist import entropy, linalg
    from puredist.compression import find_good_k, nice_sets, simulated_conditionals
    psi = near_pure_classical(rng, 8, 4)
    povm = basis_povm(8, "A")
    eps = 0.25
    view = compress_measurement(Instance(psi, povm, eps), K=4, L=8, seed=2)
    k = find_good_k(view)
    plan = pr.plan_fewqubits(view)
    _, nice_all = nice_sets(view)
    nice = nice_all[k]
    _, sims, _ = simulated_conditionals(view.instance)
    env_sorted = sorted(view.instance.env)
    q = view.q_l_given_k(k)
    p_nice = np.array([q[l] for l in nice])
    p_nice /= p_nice.sum()

    smooth = eps ** 0.125
    ap, la, ag = plan.ap_dim, plan.la_dim, plan.ag_dim
    d_env = int(np.prod([psi.dim(l) for l in env_sorted]))
    target = np.zeros((ap, la, ag, d_env), dtype=complex)
    tilde = {}
    for idx, l in enumerate(nice):
        x = int(view.decode[k, l])
        w, v = (a[..., ::-1] for a in linalg.psd_eig(sims[x]))  # descending
        res = entropy.h_h(sims[x], smooth)
        weights = np.zeros_like(w)
        weights[:len(res.witness["weights"])] = res.witness["weights"]
        tw = w * weights
        tw = tw / tw.sum()
        tilde[idx] = (v * tw) @ linalg.dagger(v)
        for j in range(min(ag, len(tw))):
            if tw[j] > 1e-15:
                target[0, idx, j, :] = np.sqrt(p_nice[idx] * tw[j]) * v[:, j]
    chi = PureState([("Ap", ap), ("LA", la), ("Ag", ag)]
                    + [(l, psi.dim(l)) for l in env_sorted], target)
    u, ov = pr.uhlmann_unitary(psi, chi, ["A"], ["Ap", "LA", "Ag"])
    state = psi.apply(u, ["A"], out_regs=[("Ap", ap), ("LA", la), ("Ag", ag)])
    total_dev = 0.0
    for idx, m in enumerate(state.split("LA").marginal(env_sorted)):
        if idx < len(nice):
            total_dev += linalg.trace_norm(m - p_nice[idx] * tilde[idx])
        else:
            total_dev += linalg.trace_norm(m)
    assert total_dev <= 2 * np.sqrt(max(0.0, 1 - ov * ov)) + 1e-9


def test_protocols_on_mixed_input_with_reference(rng):
    # rank-2 shared state: the reference register is genuinely 2-dimensional
    psi = mixed_protocol_input(rng, 4, 2, rank=2)
    assert psi.dim("R") == 2
    eps = 0.25
    view = compress_measurement(Instance(psi, basis_povm(4, "A"), eps), K=4, L=8, seed=2)
    [kd] = pr.run_kd_oneshot([view])
    [fq] = pr.run_fewqubits([view])
    for t in (kd, fq):
        assert 0 <= t.final_error <= 2
        assert t.net_rate == t.distilled_alice + t.distilled_bob - t.borrowed
    assert kd.final_error <= 2 * eps ** (1 / 16)
    assert fq.borrowed <= kd.borrowed


def _rate_cases(rng):
    """(psi, povm, eps, K, L): seeded pure inputs and mixed ones of the
    kd-quantum shapes (|A|, |B|, rank) with a 3-4 outcome POVM, Bell and the
    golden mixed input (``test_golden.write_mixed``)."""
    for da, db, rank in ((4, 4, 1), (3, 4, 1), (4, 4, 2), (3, 4, 3), (4, 4, 4)):
        for _ in range(2):
            psi = mixed_protocol_input(rng, da, db, rank=rank)
            yield psi, random_povm(rng, da, int(rng.integers(3, 5))), 0.1, 8, 16
    yield purified_input(bell_pair()), basis_povm(2, "A"), 0.25, 4, 8
    golden = np.random.default_rng(20240817)
    rho = DensityOperator([("A", 4), ("B", 4)], ginibre_density(golden, 16, 2))
    yield rho.purify(), random_povm(golden, 4, 3), 0.1, 4, 8


def test_rate_formulas_read_h_h_of_a_given_x_from_the_environment(rng):
    # the branches are pure, so H_H(A|X) = H_H(E|X): both formulas read the
    # environment's solve, and agree with H_H(A|X) of the control state on A
    for psi, povm, eps, K, L in _rate_cases(rng):
        def hh(reg, e):
            return entropy.h_h_cond_cq(control_state(psi, povm, condition_on=[reg]), e).value

        def formula(e, cost):
            return np.log2(psi.dim("A")) - hh("A", e) + np.log2(psi.dim("B")) - hh("B", e) - cost

        inst = Instance(psi, povm, eps)
        t = pr.run_protocol_a(inst)
        assert abs(t.rate_bound_real - formula(eps * eps, np.log2(len(povm)))) <= 1e-12
        [kd] = pr.run_kd_oneshot([compress_measurement(inst, K=K, L=L, seed=1)])
        assert abs(kd.rate_bound_real - formula(eps, inst.imax.value)) <= 1e-12


@pytest.mark.parametrize("da", [2, 3])
@pytest.mark.parametrize("rank", [1, 2])
@pytest.mark.parametrize("outcomes", [2, 3])
def test_protocol_a_final_error_matches_the_dense_oracle(da, rank, outcomes):
    # 9 seeded instances per case, 72 in all: the full-space simulation of
    # protocol A's codes gives its final error, and the trace's last value
    # is log2 dim sigma - H_H^eps(sigma) less the trace's borrowed bits
    borrowed = np.log2(outcomes)
    for seed in range(3):
        rng = np.random.default_rng(5800 + 100 * da + 10 * rank + seed)
        psi = mixed_protocol_input(rng, da, 2, rank=rank)
        povm = random_povm(rng, da, outcomes)
        for eps in (0.05, 0.1, 0.25):
            inst = Instance(psi, povm, eps)
            sigma, error = protocol_a_dense(inst)
            assert abs(pr.run_protocol_a(inst).final_error - error) <= 1e-10
            purity = np.log2(len(sigma)) - entropy.h_h(sigma, eps).value - borrowed
            assert abs(pr.purity_trace(inst)[-1][1] - purity) <= 1e-9


def test_protocol_a_generic_povm(rng):
    psi = mixed_protocol_input(rng, 4, 2, rank=2)
    t = pr.run_protocol_a(Instance(psi, random_povm(rng, 4, 3), 0.25))
    assert t.borrowed == 2  # ceil(log2 3)
    assert 0 <= t.final_error <= 2


def test_purity_monotone_through_compressed_row(rng):
    # a compressed-measurement row is itself a POVM; the bookkeeping must
    # stay monotone when the protocol measures it coherently
    from puredist.compression import compress_measurement
    psi = purified_input(bell_pair())
    view = compress_measurement(Instance(psi, basis_povm(2, "A"), 0.1), K=2, L=4, seed=1)
    tr = pr.purity_trace(Instance(psi, Povm(view.elements[0], register="A"), 0.1))
    vals = [v for _, v in tr]
    assert all(vals[i + 1] <= vals[i] + 1e-7 for i in range(len(vals) - 1)), tr


def test_verify_derandomization_reports(rng):
    psi = near_pure_classical(rng, 4, 4)
    povm = basis_povm(4, "A")
    eps = 0.25
    rep = pr.verify_derandomization(
        compress_measurement(Instance(psi, povm, eps), K=4, L=16, seed=2))
    assert float(rep["fraction"] * 64).is_integer()  # K * L = 64 pairs
    assert 0 <= rep["fraction"] <= 1
    assert rep["passed"] == (rep["fraction"] >= rep["bound"])
    # trivial POVM: every pair is nice
    triv = Povm([np.eye(4)], register="A")
    rep2 = pr.verify_derandomization(
        compress_measurement(Instance(psi, triv, eps), K=2, L=4, seed=0))
    assert rep2["fraction"] == 1.0


# ---------------------------------------------------------- sweep scoring

def _golden_mixed_instance():
    """The golden mixed input (``test_golden.write_mixed``) at eps 0.1."""
    golden = np.random.default_rng(20240817)
    rho = DensityOperator([("A", 4), ("B", 4)], ginibre_density(golden, 16, 2))
    return Instance(rho.purify(), random_povm(golden, 4, 3, register="A"), 0.1)


@pytest.mark.parametrize("command", ["fewqubits", "kd-oneshot", "compare"])
def test_a_seed_sweep_is_scored_in_one_pass(command, tmp_path, monkeypatch):
    from test_golden import write_mixed

    from puredist import compression
    from puredist.cli import main
    write_mixed(tmp_path)
    calls, orig = [], compression._block_distances
    monkeypatch.setattr(compression, "_block_distances", lambda *a: calls.append(a) or orig(*a))
    with redirect_stdout(StringIO()):
        assert main([command, "--state", str(tmp_path / "mixed.json"), "--povm",
                     str(tmp_path / "povm3.json"), "--eps", "0.1", "--K", "4", "--L", "8",
                     "--seeds", "1..5"]) == 0
    assert len(calls) == 1


def test_kd_oneshot_on_views_of_two_sweeps_runs_each_as_its_own():
    def draw():
        inst = _golden_mixed_instance()
        return compress_seeds(inst, 4, 8, [1, 2, 3]), compress_seeds(inst, 4, 16, [4, 5])

    def dumped(transcripts):
        return [dumps(t.to_dict()) for t in transcripts]

    a, b = draw()
    got = dumped(pr.run_kd_oneshot(a[:1] + b))
    a, b = draw()
    assert got == dumped(pr.run_kd_oneshot(a[:1])) + dumped(pr.run_kd_oneshot(b))


def test_a_view_scores_its_errors_as_it_would_alone():
    inst = _golden_mixed_instance()
    view = compress_measurement(inst, K=4, L=8, seed=1)
    assert view.errors.tobytes() == per_k_errors([view])[0].tobytes()
    # the sweep is the one drawn, whatever a caller does to the list it got
    views = compress_seeds(inst, 4, 8, [2, 3, 4])
    want = [per_k_errors([v])[0].tobytes() for v in views]
    first = views.pop(0)
    views.clear()
    assert [v.errors.tobytes() for v in first.sweep] == want
