import heapq
import itertools
import subprocess
import sys
import zlib

import numpy as np
import pytest
from scipy.optimize import linprog

from puredist import entropy as ent
from puredist import linalg
from puredist.sampling import (
    ginibre_density,
    random_cq,
    random_density,
    random_povm,
    random_pure,
    random_unitary,
)
from puredist.states import CQState, DensityOperator, control_state

from oracles import imax_qubit_grid_oracle

try:
    import cvxpy
except ImportError:
    cvxpy = None

needs_cvxpy = pytest.mark.skipif(cvxpy is None, reason="cvxpy is not installed")


# ---------------------------------------------------------------- oracles

def lp_vertex_oracle(gains, costs, target):
    """Brute-force minimum over the threshold vertices of the knapsack LP
    min c.lam s.t. g.lam >= target, 0 <= lam <= 1."""
    n = len(gains)
    best = np.inf
    for ones in itertools.chain.from_iterable(
            itertools.combinations(range(n), k) for k in range(n + 1)):
        got = sum(gains[i] for i in ones)
        cost = sum(costs[i] for i in ones)
        if got >= target - 1e-12:
            best = min(best, cost)
            continue
        for j in range(n):
            if j in ones or gains[j] <= 0:
                continue
            frac = (target - got) / gains[j]
            if frac <= 1 + 1e-12:
                best = min(best, cost + frac * costs[j])
    return best


def lp_scipy_oracle(gains, costs, target):
    res = linprog(c=costs, A_ub=[[-g for g in gains]], b_ub=[-target],
                  bounds=[(0, 1)] * len(gains), method="highs")
    assert res.success
    return res.fun


def spectrum_state(spec):
    return DensityOperator([("A", len(spec))], np.diag(spec))


# ------------------------------------------------------- truncation entropies

def test_h_tilde_max_examples():
    assert ent.h_tilde_max(spectrum_state([1.0, 0, 0, 0]), 0.1) == 0.0
    assert ent.h_tilde_max(np.eye(4) / 4, 0.1) == 2.0
    got = ent.h_tilde_max(spectrum_state([0.05, 0.15, 0.3, 0.5]), 0.1)
    assert np.isclose(got, np.log2(3))


def test_h_tilde_max_cumsum_oracle(rng):
    for _ in range(100):
        d = int(rng.integers(2, 9))
        spec = rng.dirichlet(np.ones(d))
        eps = float(rng.choice([0.01, 0.05, 0.1, 0.3]))
        asc = np.sort(spec)
        k = 0
        while k < d - 1 and np.sum(asc[:k + 1]) <= eps + 1e-15:
            k += 1
        assert np.isclose(ent.h_tilde_max(spectrum_state(spec), eps), np.log2(d - k))


def test_h_prime_max_examples():
    assert ent.h_prime_max(spectrum_state([1.0, 0.0]), 0.1) == 0.0
    assert np.isclose(ent.h_prime_max(np.eye(8) / 8, 0.05), 3.0)
    got = ent.h_prime_max(spectrum_state([0.05, 0.15, 0.3, 0.5]), 0.1)
    assert np.isclose(got, np.log2(1 / 0.15))


def test_eps_validation():
    for fn in (ent.h_tilde_max, ent.h_prime_max, ent.h_max_smooth,
               lambda r, e: ent.h_h(r, e)):
        with pytest.raises(ValueError):
            fn(np.eye(2) / 2, 1.0)


def test_h_max_smooth_examples():
    assert abs(ent.h_max_smooth(spectrum_state([1.0, 0.0]), 0.1)) < 1e-12
    assert np.isclose(ent.h_max_smooth(np.eye(4) / 4, 0.01), 2.0)
    got = ent.h_max_smooth(spectrum_state([0.5, 0.3, 0.2]), 0.0)
    want = 2 * np.log2(np.sqrt(0.5) + np.sqrt(0.3) + np.sqrt(0.2))
    assert np.isclose(got, want, atol=1e-12)


def test_h_max_smooth_takes_one_spectrum(rng, monkeypatch):
    rhos = [spectrum_state([0.5, 0.3, 0.2]), np.eye(4) / 4]
    rhos += [random_density(rng, int(rng.integers(2, 9)), "A") for _ in range(20)]
    calls = []
    orig = linalg._eigh

    def counting(m):
        calls.append(np.shape(m))
        return orig(m)

    monkeypatch.setattr(linalg, "_eigh", counting)
    for rho in rhos:
        for eps in (0.0, 0.05, 0.3):
            calls.clear()
            got = ent.h_max_smooth(rho, eps)
            assert len(calls) == 1
            # the Renyi-1/2 value of the truncated spectrum, bit for bit
            supp, k = ent.truncated_support(ent._spectrum(rho), eps)
            kept = supp[k:] / np.sum(supp[k:])
            assert got == float(2.0 * np.log2(np.sum(np.sqrt(kept))))


# ------------------------------------------------------------------- h_h

def test_h_h_examples():
    assert np.isclose(ent.h_h(spectrum_state([1.0, 0.0]), 0.1).value, np.log2(0.9))
    assert np.isclose(ent.h_h(np.eye(4) / 4, 0.1).value, 2 + np.log2(0.9))
    r = ent.h_h(spectrum_state([0.5, 0.3, 0.2]), 0.1)
    # greedy optimum is lam = (1, 1, 1/2), total 5/2 (vertex oracle agrees)
    assert np.isclose(r.value, np.log2(2.5))
    assert np.allclose(r.witness["weights"], [1, 1, 0.5])


def test_h_h_matches_lp_oracles(rng):
    for _ in range(100):
        d = int(rng.integers(2, 9))
        spec = rng.dirichlet(np.ones(d))
        eps = float(rng.choice([0.01, 0.05, 0.1, 0.3]))
        got = ent.h_h(spectrum_state(spec), eps).value
        want_v = lp_vertex_oracle(spec, np.ones(d), 1 - eps)
        want_s = lp_scipy_oracle(spec, np.ones(d), 1 - eps)
        assert np.isclose(2.0 ** got, want_v, atol=1e-10)
        assert np.isclose(2.0 ** got, want_s, atol=1e-8)


def test_h_h_witness_reevaluates(rng):
    r = ent.h_h(random_density(rng, 5), 0.07)
    assert np.isclose(r.reevaluate(), r.value, atol=1e-8)
    w = r.witness
    assert np.dot(w["gains"], w["weights"]) >= 1 - 0.07 - 1e-12


def test_h_h_basis_independent(rng):
    spec = rng.dirichlet(np.ones(5))
    u = random_unitary(rng, 5)
    rotated = u @ np.diag(spec) @ linalg.dagger(u)
    assert np.isclose(ent.h_h(rotated, 0.1).value,
                      ent.h_h(spectrum_state(spec), 0.1).value, atol=1e-9)


def _h_h_sorted_reference(rho, eps):
    # h_h with an explicit sort of the support and the LP loop over numpy scalars
    w = ent._spectrum(rho)
    p = np.sort(w[w > ent.SUPPORT_TOL])[::-1]
    costs, lam, acc, target = np.ones_like(p), np.zeros(len(p)), 0.0, 1.0 - eps
    for i, g in enumerate(p):
        if acc >= target - 1e-15 or g <= 0:
            break
        lam[i] = take = min(1.0, (target - acc) / g)
        acc += take * g
    return float(np.log2(float(np.dot(costs, lam)))), lam, p, costs


def test_h_h_keeps_the_bits_of_the_sorted_numpy_scalar_path(rng):
    tol = ent.SUPPORT_TOL
    rhos = [random_density(rng, int(rng.integers(2, 17)), "A") for _ in range(40)]
    rhos += [np.eye(d) / d for d in (1, 2, 5, 16)]  # one repeated eigenvalue
    for spec in ([0.4, 0.4, 0.1, 0.1], [0.25] * 3 + [0.125] * 2,
                 # eigenvalues straddling SUPPORT_TOL, and on it
                 [1 - 5 * tol, tol, 0.5 * tol, 2 * tol, tol * (1 + 1e-15), tol * (1 - 1e-15), 1e-13],
                 [1 - 3 * tol, tol, tol, tol, 0.0]):
        spec = np.array(spec) / np.sum(spec)
        u = random_unitary(rng, len(spec))
        rhos += [np.diag(spec).astype(complex), u @ np.diag(spec) @ linalg.dagger(u)]
    for rho in rhos:
        for eps in (0.0, 0.01, 0.1, 0.3, 0.9):
            got = ent.h_h(rho, eps)
            value, lam, gains, costs = _h_h_sorted_reference(rho, eps)
            assert np.array_equal(got.value, value)
            for name, want in (("weights", lam), ("gains", gains), ("costs", costs)):
                assert np.array_equal(got.witness[name], want)


# ------------------------------------------------------------------- d_h

def test_d_h_examples(rng):
    rho = ginibre_density(rng, 3)
    for eps in (0.05, 0.3):
        assert np.isclose(ent.d_h(rho, rho, eps).value, -np.log2(1 - eps), atol=1e-9)
    r = ent.d_h(np.diag([0.5, 0.5]), np.diag([0.9, 0.1]), 0.5)
    assert np.isclose(r.value, np.log2(10), atol=1e-9)
    # eps = 0 with supp(sigma) containing supp(rho)
    rho = np.diag([0.6, 0.4, 0.0])
    sig = np.diag([0.2, 0.3, 0.5])
    assert np.isclose(ent.d_h(rho, sig, 0.0).value, -np.log2(0.5), atol=1e-9)


def test_d_h_at_eps_zero_is_the_support_projector_closed_form(rng):
    for _ in range(20):
        d = int(rng.integers(2, 9))
        rho = ginibre_density(rng, d, rank=int(rng.integers(1, d)))
        sig = ginibre_density(rng, d)
        w, v = np.linalg.eigh(rho)
        proj = v[:, w > 1e-12] @ linalg.dagger(v[:, w > 1e-12])
        want = -np.log2(np.trace(proj @ sig).real)
        first, second = ent.d_h(rho, sig, 0.0), ent.d_h(rho, sig, 0.0)
        assert np.isclose(first.value, want, rtol=0, atol=1e-9)
        assert first.value == second.value
        assert np.isclose(first.witness["achieved_mass"], 1.0, atol=1e-9)
        assert first.witness["probes"] == 0


def test_d_h_infinite_flag():
    r = ent.d_h(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]), 0.1)
    assert np.isinf(r.value) and r.witness.get("infinite")
    assert r.witness["probes"] == 0


def test_d_h_rejects_non_hermitian_rho_with_free_mass():
    # sigma's kernel holds the target mass, so rho must be checked before
    # the +inf return
    rho = np.array([[0.98, 0.3], [0.0, 0.02]])
    with pytest.raises(ValueError):
        ent.d_h(rho, np.diag([0.0, 1.0]), 0.1)


def test_d_h_neyman_pearson_vs_greedy_lp_commuting(rng):
    for _ in range(200):
        d = int(rng.integers(2, 9))
        p = rng.dirichlet(np.ones(d))
        q = rng.dirichlet(np.ones(d))
        eps = float(rng.choice([0.01, 0.05, 0.1]))
        got = ent.d_h(np.diag(p), np.diag(q), eps).value
        want = lp_scipy_oracle(p, q, 1 - eps)
        assert np.isclose(2.0 ** (-got), want, atol=1e-8)


def test_d_h_witness_is_a_valid_test(rng):
    rho = ginibre_density(rng, 4)
    sig = ginibre_density(rng, 4)
    eps = 0.1
    r = ent.d_h(rho, sig, eps)
    test = r.witness["test"]
    w, _ = linalg.eig_hermitian(test, tol=1e-7)
    assert np.min(w) >= -1e-9 and np.max(w) <= 1 + 1e-9
    mass = np.real(np.trace(test @ rho))
    assert mass >= 1 - eps - 1e-8
    assert np.isclose(-np.log2(np.real(np.trace(test @ sig))), r.value, atol=1e-8)


def test_d_h_general_beats_commuting_test(rng):
    # the Neyman-Pearson optimum can only improve on any fixed feasible test
    for _ in range(25):
        rho = ginibre_density(rng, 3)
        sig = ginibre_density(rng, 3)
        eps = 0.1
        got = ent.d_h(rho, sig, eps).value
        # feasible test built from rho's own eigenbasis
        w, v = linalg.eig_hermitian(rho)
        order = np.argsort(w)[::-1]
        acc, cost = 0.0, 0.0
        for i in order:
            if acc >= 1 - eps:
                break
            take = min(1.0, (1 - eps - acc) / w[i]) if w[i] > 0 else 0.0
            acc += take * w[i]
            vec = v[:, i]
            cost += take * np.real(np.conj(vec) @ sig @ vec)
        assert got >= -np.log2(cost) - 1e-8


def d_h_dual_bound(rho, sig, eps, t):
    """Weak SDP duality: mu (1 - eps) - Tr(mu rho - sig)_+ <= min Tr Q sig
    over tests with Tr Q rho >= 1 - eps, here at mu = 1/t."""
    lam = np.linalg.eigvalsh(rho - t * sig)
    return ((1 - eps) - lam[lam > 0].sum()) / t


@pytest.fixture
def eigh_calls(monkeypatch):
    """Counts the eigendecompositions numpy runs while the test is active."""
    calls = []
    for name in ("eigh", "eigvalsh"):
        orig = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name,
                            lambda *a, _orig=orig, **k: calls.append(1) or _orig(*a, **k))
    return calls


def test_d_h_witness_is_certified_by_duality(rng, eigh_calls):
    # Ginibre pairs, half of them with a singular sigma that leaves rho
    # some mass, below the target, on its kernel. A feasible witness test
    # whose cost meets the dual bound pins D_H without trusting d_h; on
    # these smooth pieces the search bisects, within the parent's ~52 calls.
    def kernel_mass(rho, sig):
        ws, vs = np.linalg.eigh(sig)
        ker = vs[:, ws <= 1e-12]
        return np.real(np.trace(linalg.dagger(ker) @ rho @ ker))

    for i in range(120):
        d = int(rng.integers(2, 9))
        eps = (0.01, 0.1, 0.3)[i % 3]
        rho = ginibre_density(rng, d)
        sig = ginibre_density(rng, d)
        while i % 2 and not 0 < kernel_mass(rho, sig) < 1 - eps:
            sig = ginibre_density(rng, d, rank=int(rng.integers(1, d)))
        eigh_calls.clear()
        r = ent.d_h(rho, sig, eps)
        assert len(eigh_calls) <= 52, (i, d, eps, len(eigh_calls))
        w = r.witness
        test = w["test"]
        spec = np.linalg.eigvalsh(test)
        assert spec[0] >= -1e-12 and spec[-1] <= 1 + 1e-12
        assert np.real(np.trace(test @ rho)) >= 1 - eps - 1e-12
        assert np.isclose(np.real(np.trace(test @ sig)), w["test_cost"], rtol=1e-12, atol=0)
        assert r.value == -np.log2(w["test_cost"])
        gap = np.log2(w["test_cost"]) - np.log2(d_h_dual_bound(rho, sig, eps, w["t"]))
        # a gap below zero is rounding, of the dual's cancellation at large t
        floor = -1e-12 - 1e-15 * d * (1 + w["t"]) / (w["t"] * w["test_cost"])
        assert floor <= gap <= 1e-9, (i, d, eps, gap)
        assert floor <= w["duality_gap"] <= 1e-9


def test_d_h_warns_when_it_ends_uncertified(rng, monkeypatch):
    # one probe cannot pin a Ginibre pair's threshold; the witness keeps an
    # honest gap (inf when the probe's test misses the target)
    monkeypatch.setattr(ent, "DH_MAX_PROBES", 1)
    rho, sig = ginibre_density(rng, 4), ginibre_density(rng, 4)
    with pytest.warns(UserWarning, match="not certified"):
        r = ent.d_h(rho, sig, 0.1)
    assert r.witness["duality_gap"] > ent.DH_GAP_TOL and r.witness["probes"] == 1


def test_d_h_takes_few_eigendecompositions_on_commuting_pairs(rng, eigh_calls, monkeypatch):
    # bisection took about 52; the commuting case must not fall back on the
    # greedy LP, which verify's dh-neyman-pearson-vs-lp check compares against
    monkeypatch.setattr(ent, "_greedy_lp", None)
    for _ in range(200):
        d = int(rng.integers(2, 9))
        p = rng.dirichlet(np.ones(d))
        q = rng.dirichlet(np.ones(d))
        eps = float(rng.choice([0.01, 0.1, 0.3]))
        eigh_calls.clear()
        got = ent.d_h(np.diag(p), np.diag(q), eps)
        assert len(eigh_calls) <= 12, (d, eps, len(eigh_calls))
        # rho's check, sigma's decomposition and the pencil's, then one per probe
        assert got.witness["probes"] == len(eigh_calls) - 3
        assert np.isclose(2.0 ** (-got.value), lp_scipy_oracle(p, q, 1 - eps), atol=1e-8)


# ------------------------------------------------------------ cq entropies

def qubit_cq_example():
    return CQState([0, 1], [0.5, 0.5],
                   [DensityOperator([("B", 2)], np.diag([1.0, 0.0])),
                    DensityOperator([("B", 2)], np.diag([0.5, 0.5]))])


def test_h_h_cond_cq_examples(rng):
    cq_pure = random_cq(rng, 4, 3, pure_conditionals=True)
    assert ent.h_h_cond_cq(cq_pure, 0.1).value <= 1e-12
    single = CQState([0], [1.0], [random_density(rng, 4, "B")])
    assert np.isclose(ent.h_h_cond_cq(single, 0.1).value,
                      ent.h_h(single.conditionals[0], 0.1).value, atol=1e-12)
    # hand/exhaustive LP on the 3-variable knapsack
    got = ent.h_h_cond_cq(qubit_cq_example(), 0.1).value
    gains = [0.5 * 1.0, 0.5 * 0.5, 0.5 * 0.5]
    costs = [0.5, 0.5, 0.5]
    want = lp_vertex_oracle(gains, costs, 0.9)
    assert np.isclose(2.0 ** got, want, atol=1e-12)
    assert np.isclose(got, np.log2(1.3))


def test_h_h_cond_cq_matches_scipy(rng):
    for _ in range(50):
        cq = random_cq(rng, int(rng.integers(2, 5)), int(rng.integers(2, 4)))
        eps = float(rng.choice([0.01, 0.1]))
        gains, costs = [], []
        for p, c in zip(cq.probs, cq.conditionals):
            for lam in c.spectrum():
                if lam > 1e-12:
                    gains.append(p * lam)
                    costs.append(p)
        want = lp_scipy_oracle(gains, costs, 1 - eps)
        res = ent.h_h_cond_cq(cq, eps)
        assert np.isclose(2.0 ** res.value, want, atol=1e-8)
        # the LP arrays hold exactly the pairs of this loop
        assert np.array_equal(np.sort(res.witness["gains"]), np.sort(gains))
        assert np.array_equal(np.sort(res.witness["costs"]), np.sort(costs))


def test_h_h_cond_cq_costs_keep_the_bits_of_the_broadcast(rng):
    cqs = [random_cq(rng, int(rng.integers(1, 6)), int(rng.integers(2, 6)),
                     pure_conditionals=bool(rng.integers(2))) for _ in range(40)]
    cqs.append(qubit_cq_example())  # rows with 1 and 2 support entries
    for cq in cqs:
        support = cq.spectra > ent.SUPPORT_TOL
        gains = (cq.probs[:, None] * cq.spectra)[support]
        costs = np.broadcast_to(cq.probs[:, None], support.shape)[support]
        order = np.argsort(-(gains / costs), kind="stable")
        res = ent.h_h_cond_cq(cq, 0.1)
        assert np.array_equal(res.witness["costs"], costs[order])
        assert np.array_equal(res.witness["gains"], gains[order])
        total, lam = ent._greedy_lp(gains[order], costs[order], 0.9)
        assert np.array_equal(res.witness["weights"], lam)
        assert res.value == float(np.log2(total))


def test_h_min_cq_examples(rng):
    cq_pure = random_cq(rng, 3, 4, pure_conditionals=True)
    assert abs(ent.h_min_cq(cq_pure)) <= 1e-9
    single = CQState([0], [1.0], [DensityOperator([("B", 4)], np.eye(4) / 4)])
    assert np.isclose(ent.h_min_cq(single), 2.0)
    assert np.isclose(ent.h_min_cq(qubit_cq_example()), -np.log2(0.75))


def test_h_min_cq_feasibility_grid_oracle(rng):
    # closed form equals the SDP optimum: check feasibility/optimality by a
    # fine scan over the per-symbol scalars sigma_x (diagonal certificates)
    cq = qubit_cq_example()
    got = 2.0 ** (-ent.h_min_cq(cq))
    lam0 = np.max(cq.conditionals[0].spectrum())
    lam1 = np.max(cq.conditionals[1].spectrum())
    best = np.inf
    for s0 in np.linspace(0, 1, 501):
        for s1 in np.linspace(0, 1, 501):
            if s0 >= cq.probs[0] * lam0 - 1e-12 and s1 >= cq.probs[1] * lam1 - 1e-12:
                best = min(best, s0 + s1)
    assert np.isclose(got, best, atol=2e-3)


def test_h_min_cq_smoothed(rng):
    cq = qubit_cq_example()
    assert np.isclose(ent.h_min_cq_smoothed(cq, 0.0), ent.h_min_cq(cq))
    v = ent.h_min_cq_smoothed(cq, 0.1)
    assert v >= ent.h_min_cq(cq) - 1e-12
    assert v <= np.log2(2)
    cq_pure = random_cq(rng, 3, 2, pure_conditionals=True)
    assert ent.h_min_cq_smoothed(cq_pure, 0.2) >= -1e-12


def test_h_min_cq_smoothed_matches_enumeration(rng):
    # exhaustive truncation enumeration over a discretized budget split
    for _ in range(10):
        cq = random_cq(rng, 2, 2)
        eps = 0.25
        budget = eps * eps
        best = np.inf
        for share in np.linspace(0, 1, 201):
            acc = 0.0
            for st_budget, p, c in zip((share * budget, (1 - share) * budget),
                                       cq.probs, cq.conditionals):
                w = np.sort(c.spectrum())[::-1]
                local = st_budget / p
                # optimal within one symbol: water-cut from the top
                lo, hi = 0.0, float(w[0])
                for _ in range(60):
                    mid = (lo + hi) / 2
                    if np.sum(np.maximum(w - mid, 0)) >= local:
                        lo = mid
                    else:
                        hi = mid
                acc += p * lo
            best = min(best, acc)
        got = ent.h_min_cq_smoothed(cq, eps)
        assert got >= -np.log2(best) - 1e-6  # implementation is at least as good


def loop_h_h_cond_cq(cq, eps):
    """h_h_cond_cq's value, weights, gains and costs from one spectrum() per
    conditional, the per-symbol loop it ran before it read cq.spectra."""
    gains, costs = [], []
    for p, cond in zip(cq.probs, cq.conditionals):
        w = cond.spectrum()
        w = w[w > ent.SUPPORT_TOL]
        gains.append(p * w)
        costs.append(np.full(len(w), p))
    gains, costs = np.concatenate(gains), np.concatenate(costs)
    order = np.argsort(-(gains / costs), kind="stable")
    total, lam = ent._greedy_lp(gains[order], costs[order], 1.0 - eps)
    return float(np.log2(total)), lam, gains[order], costs[order]


def loop_h_min_cq(cq):
    acc = sum(p * float(np.max(c.spectrum())) for p, c in zip(cq.probs, cq.conditionals))
    return float(-np.log2(acc))


def loop_h_min_cq_smoothed(cq, eps):
    """h_min_cq_smoothed's water cut over per-symbol dicts, as it ran
    before it read cq.spectra."""
    budget = eps * eps
    levels = []
    for p, cond in zip(cq.probs, cq.conditionals):
        w = np.sort(cond.spectrum())[::-1]
        m0 = int(np.sum(w >= w[0] - 1e-15))
        levels.append({"p": p, "w": w, "t": float(w[0]), "m": m0})
    heap = [(st["m"], i) for i, st in enumerate(levels)]
    heapq.heapify(heap)
    while budget > 1e-18 and heap:
        m, i = heapq.heappop(heap)
        st = levels[i]
        if m != st["m"]:
            continue
        w, t = st["w"], st["t"]
        nxt = float(w[st["m"]]) if st["m"] < len(w) else 0.0
        step_cost = st["p"] * st["m"] * (t - nxt)
        if step_cost <= budget:
            budget -= step_cost
            st["t"] = nxt
            while st["m"] < len(w) and w[st["m"]] >= nxt - 1e-15:
                st["m"] += 1
            if st["t"] > 0:
                heapq.heappush(heap, (st["m"], i))
        else:
            st["t"] = t - budget / (st["p"] * st["m"])
            budget = 0.0
    acc = sum(st["p"] * max(st["t"], 0.0) for st in levels)
    return float(-np.log2(max(acc, 1e-300)))


def stacked_cq_cases(rng):
    """Seeded cq states: n = 1, mixed, low-rank and pure conditionals, one
    that dropped a symbol below 1e-12, and one whose gain/cost ratios tie
    exactly across symbols, where only the pairs' order breaks the ties."""
    tied = [DensityOperator([("B", 3)], np.diag(w)) for w in ([0.5, 0.25, 0.25],
                                                             [0.25, 0.25, 0.5])]
    yield CQState([0, 1], [0.25, 0.75], tied)
    for i in range(150):
        n, d = int(rng.integers(1, 7)), int(rng.integers(2, 7))
        yield random_cq(rng, n, d, pure_conditionals=i % 3 == 0,
                        rank=int(rng.integers(1, d + 1)) if i % 3 == 1 else None)
    conds = [random_density(rng, 3, "B"), random_pure(rng, 3, "B"), random_density(rng, 3, "B")]
    dropped = CQState([0, 1, 2], [0.7, 1e-13, 0.3], conds)
    assert dropped.dropped and len(dropped) == 2
    yield dropped


def test_cq_spectra_and_entropies_keep_the_bits_of_the_per_conditional_loops(rng):
    for cq in stacked_cq_cases(rng):
        assert cq.stack.shape == (len(cq),) + cq.conditionals[0].matrix.shape
        for i, c in enumerate(cq.conditionals):
            assert np.array_equal(cq.stack[i], c.matrix)
            assert cq.spectra[i].tobytes() == c.spectrum().tobytes()
        for eps in (0.0, 0.01, 0.1, 0.3, 0.7):
            got = ent.h_h_cond_cq(cq, eps)
            value, lam, gains, costs = loop_h_h_cond_cq(cq, eps)
            assert got.value == value
            for key, want in (("weights", lam), ("gains", gains), ("costs", costs)):
                assert got.witness[key].tobytes() == want.tobytes(), key
            assert ent.h_min_cq_smoothed(cq, eps) == loop_h_min_cq_smoothed(cq, eps)
        assert ent.h_min_cq(cq) == loop_h_min_cq(cq)


def test_cq_entropies_share_one_stacked_eigendecomposition(rng, eigh_calls):
    for cq in stacked_cq_cases(rng):
        eigh_calls.clear()
        ent.h_h_cond_cq(cq, 0.1)
        ent.h_min_cq(cq)
        ent.h_min_cq_smoothed(cq, 0.0)
        ent.h_min_cq_smoothed(cq, 0.2)
        assert len(eigh_calls) == 1


# ------------------------------------------------------------------ i_max

def test_i_max_identical_and_orthogonal(rng):
    rho = random_density(rng, 3, "B")
    cq = CQState([0, 1], [0.4, 0.6], [rho, rho])
    r = ent.i_max_cq(cq, 0.0)
    assert abs(r.value) <= 1e-9 and r.duality_gap <= 1e-6
    cqo = CQState([0, 1], [0.5, 0.5],
                  [DensityOperator([("B", 2)], np.diag([1.0, 0.0])),
                   DensityOperator([("B", 2)], np.diag([0.0, 1.0]))])
    r = ent.i_max_cq(cqo, 0.0)
    assert abs(r.value - 1.0) <= 1e-6


def test_i_max_two_state_helstrom_oracle(rng):
    # closed form for 2 symbols: log2(1 + 0.5*||rho_0 - rho_1||_1)
    for _ in range(40):
        d = int(rng.integers(2, 6))
        r0 = random_density(rng, d, "B")
        r1 = random_density(rng, d, "B")
        cq = CQState([0, 1], [0.5, 0.5], [r0, r1])
        want = np.log2(1 + 0.5 * linalg.trace_distance(r0.matrix, r1.matrix))
        got = ent.i_max_cq(cq, 0.0)
        assert abs(got.value - want) <= 1e-6
        assert got.duality_gap <= 1e-6


def test_i_max_qubit_grid_oracle(rng):
    for _ in range(10):
        cq = random_cq(rng, int(rng.integers(2, 4)), 2)
        got = ent.i_max_cq(cq, 0.0)
        want = imax_qubit_grid_oracle([c.matrix for c in cq.conditionals])
        assert abs(got.value - want) <= 1e-3


def assert_sigma_feasible(cq, r):
    t = 2.0 ** r.value
    for c in cq.conditionals:
        w, _ = linalg.eig_hermitian(c.matrix - t * r.sigma.matrix, tol=1e-7)
        assert np.max(w) <= 1e-7


def test_i_max_sigma_is_feasible(rng):
    cq = random_cq(rng, 3, 3)
    assert_sigma_feasible(cq, ent.i_max_cq(cq, 0.0))


def kd_environment_ensemble(index, da, db, rank):
    """The ensemble whose I_max the kd-oneshot rate needs, for one seeded
    random mixed instance: a Ginibre rho_AB of the given rank, a Wishart
    POVM on A, and the conditionals on the environment B R of the
    purification."""
    rng = np.random.default_rng([2403_16466, zlib.crc32(b"kd-quantum"), index])
    rho = DensityOperator([("A", da), ("B", db)], ginibre_density(rng, da * db, rank))
    povm = random_povm(rng, da, int(rng.integers(3, 5)), register="A")
    return control_state(rho.purify("R"), povm, condition_on=["B", "R"])


@pytest.mark.parametrize("index, shape, long_run", [
    # values of 21 000 and 44 000 fixed-point iterations, certified to 1e-12 bits
    (486, (4, 4, 2), 0.7401880625346997),
    (361, (3, 4, 3), 0.7142149877409483),
])
def test_i_max_tail_instances_certify_through_the_newton_stage(index, shape, long_run):
    # the fixed point alone stops at its 10 000-iteration cap on both
    cq = kd_environment_ensemble(index, *shape)
    r = ent.i_max_cq(cq, 1e-4)
    assert r.converged and r.duality_gap <= 1e-9
    assert r.newton_steps > 0 and r.iterations < 10000
    assert abs(r.value - long_run) <= 2e-7
    assert_sigma_feasible(cq, r)


def test_i_max_is_invariant_under_an_isometric_embedding(rng):
    # V rho_x V^dag (d -> 2d) has half-dimensional support, so it is solved
    # on it and lifted back; the certified intervals of both solves overlap
    for _ in range(12):
        d = int(rng.integers(2, 7))
        cq = random_cq(rng, int(rng.integers(2, 5)), d)
        iso = random_unitary(rng, 2 * d)[:, :d]
        big = cq.map_conditionals(lambda c: DensityOperator(
            [("B", 2 * d)], iso @ c.matrix @ linalg.dagger(iso), validate=False))
        assert ent._joint_support(big.stack).shape == (2 * d, d)
        small, embedded = ent.i_max_cq(cq), ent.i_max_cq(big)
        assert embedded.converged and embedded.duality_gap <= 1e-9
        assert embedded.sigma.matrix.shape == (2 * d, 2 * d)
        lower = max(small.value - small.duality_gap, embedded.value - embedded.duality_gap)
        assert lower <= min(small.value, embedded.value), (small, embedded)


def test_i_max_checks_hermiticity_in_the_full_space(rng):
    # a skew part between the support and its kernel is gone from the
    # reduced states; the full-space certificate of the lifted tau rejects it
    cq = random_cq(rng, 3, 2)
    skew = np.zeros((4, 4))
    skew[0, 2], skew[2, 0] = 1e-3, -1e-3
    bad = [DensityOperator([("B", 4)], np.pad(c.matrix, (0, 2)) + (x == 0) * skew,
                           validate=False) for x, c in enumerate(cq.conditionals)]
    with pytest.raises(ValueError, match="not Hermitian"):
        ent.i_max_cq(CQState(cq.symbols, cq.probs, bad), 0.0)


@pytest.mark.parametrize("index, shape", [(0, (4, 4, 2)), (1, (3, 4, 3)), (2, (4, 4, 4))])
def test_i_max_sigma_is_feasible_on_a_rank_deficient_kd_ensemble(index, shape):
    # d = |B| rank(rho_AB) but the support of sum_x rho_x has dimension <= |A|
    cq = kd_environment_ensemble(index, *shape)
    d = cq.stack.shape[1]
    assert ent._joint_support(cq.stack).shape[1] <= shape[0] < d
    r = ent.i_max_cq(cq, 1e-4)
    assert r.converged and r.duality_gap <= 1e-9
    assert r.sigma.matrix.shape == (d, d)
    assert_sigma_feasible(cq, r)


def test_i_max_certifies_a_d64_ensemble_of_small_support():
    # the entropy-mixed input's shape, a rank-2 rho_AB with a 3-outcome POVM
    # on |A| = 4, widened to |B| = 32: d = 64, support <= 4, so the Newton
    # stage runs after the budget of the support dimension
    rng = np.random.default_rng(20240817)
    rho = DensityOperator([("A", 4), ("B", 32)], ginibre_density(rng, 128, 2))
    povm = random_povm(rng, 4, 3, register="A")
    cq = control_state(rho.purify("R"), povm, condition_on=["B", "R"])
    assert cq.stack.shape[1] == 64 and ent._joint_support(cq.stack).shape[1] <= 4
    r = ent.i_max_cq(cq, 0.0)
    assert r.converged and r.duality_gap <= 1e-9
    assert r.iterations <= ent._fixed_point_budget(4) and r.newton_steps > 0
    assert_sigma_feasible(cq, r)


def test_i_max_iteration_cap_warns_and_keeps_a_valid_interval(monkeypatch):
    cq = random_cq(np.random.default_rng(3), 3, 5)
    uncapped = ent.i_max_cq(cq, 0.0)
    monkeypatch.setattr(ent, "IMAX_MAX_ITERATIONS", 2)
    with pytest.warns(UserWarning, match="hit the iteration cap"):
        r = ent.i_max_cq(cq, 0.0)
    assert r.converged is False and r.iterations == 2 and r.newton_steps == 0
    assert r.duality_gap > 1e-6
    assert r.value - r.duality_gap <= uncapped.value <= r.value


def test_i_max_commuting_ensemble_needs_no_newton_stage():
    # classical symbols through a cyclic noise channel with a dominant entry,
    # as in the compare runs: the fixed point certifies within its budget
    for d in (2, 4, 8):
        for c0 in (0.8, 0.9, 0.95):
            noise = np.array([c0] + [(1 - c0) / (d - 1)] * (d - 1))
            conds = [DensityOperator([("B", d)], np.diag(np.roll(noise, x)))
                     for x in range(3)]
            r = ent.i_max_cq(CQState([0, 1, 2], [0.2, 0.3, 0.5], conds), 0.0)
            # commuting states: the optimum is sum_b max_x p(b|x)
            want = np.log2(np.sum(np.max([np.roll(noise, x) for x in range(3)], axis=0)))
            assert r.newton_steps == 0 and r.duality_gap <= 1e-9
            assert abs(r.value - want) <= 1e-9


def test_h_max_smooth_invariant_survives_python_O():
    # the runtime check must raise a named error even with asserts stripped
    code = (
        "import numpy as np\n"
        "from puredist import entropy, linalg\n"
        "entropy._kept_bits = lambda supp, k: -1.0\n"
        "try:\n"
        "    entropy.h_max_smooth(np.eye(4) / 4, 0.1)\n"
        "except linalg.InvariantError as exc:\n"
        "    print('raised', exc)\n")
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("raised Renyi-1/2")


def sdp_dh_oracle(rho, sigma, eps):
    d = rho.shape[0]
    pi = cvxpy.Variable((d, d), hermitian=True)
    constraints = [pi >> 0, np.eye(d) - pi >> 0,
                   cvxpy.real(cvxpy.trace(pi @ rho)) >= 1 - eps]
    prob = cvxpy.Problem(
        cvxpy.Minimize(cvxpy.real(cvxpy.trace(pi @ sigma))), constraints)
    prob.solve(solver="SCS", eps=1e-9)
    return -np.log2(max(prob.value, 1e-300))


@needs_cvxpy
def test_d_h_matches_sdp_on_noncommuting(rng):
    # fully independent semidefinite route for the general case
    for _ in range(10):
        d = int(rng.integers(2, 5))
        rho = ginibre_density(rng, d)
        sig = ginibre_density(rng, d)
        eps = float(rng.choice([0.05, 0.1, 0.3]))
        got = ent.d_h(rho, sig, eps).value
        want = sdp_dh_oracle(rho, sig, eps)
        assert abs(got - want) <= 1e-5, (got, want)


@needs_cvxpy
def test_i_max_matches_sdp_beyond_qubits(rng):
    # min Tr tau s.t. tau >= rho_x, as a plain SDP
    for _ in range(8):
        d = int(rng.integers(2, 5))
        n = int(rng.integers(2, 5))
        cq = random_cq(rng, n, d)
        tau = cvxpy.Variable((d, d), hermitian=True)
        cons = [tau - c.matrix >> 0 for c in cq.conditionals]
        prob = cvxpy.Problem(cvxpy.Minimize(cvxpy.real(cvxpy.trace(tau))), cons)
        prob.solve(solver="SCS", eps=1e-9)
        want = np.log2(prob.value)
        got = ent.i_max_cq(cq, 0.0)
        assert abs(got.value - want) <= 1e-5, (got.value, want)


@needs_cvxpy
def test_h_min_cq_matches_sdp(rng):
    # the conditioner operator pinches to a diagonal sigma^X, leaving one
    # scalar per symbol with s_x * I >= P(x) rho_x
    for _ in range(8):
        d = int(rng.integers(2, 5))
        n = int(rng.integers(2, 4))
        cq = random_cq(rng, n, d)
        s = cvxpy.Variable(n)
        cons = [s[i] * np.eye(d) - p * c.matrix >> 0
                for i, (p, c) in enumerate(zip(cq.probs, cq.conditionals))]
        prob = cvxpy.Problem(cvxpy.Minimize(cvxpy.sum(s)), cons)
        prob.solve(solver="SCS", eps=1e-9)
        want = -np.log2(prob.value)
        assert abs(ent.h_min_cq(cq) - want) <= 1e-5


def test_i_max_smoothing_drops_low_mass_symbols(rng):
    rho = random_density(rng, 2, "B")
    far = DensityOperator([("B", 2)], np.eye(2) - rho.matrix, validate=False) \
        if abs(np.trace(np.eye(2) - rho.matrix) - 1) < 1e-9 else random_density(rng, 2, "B")
    cq = CQState([0, 1, 2], [0.02, 0.49, 0.49], [far, rho, rho])
    smooth = ent.i_max_cq(cq, 0.05)
    assert abs(smooth.value) <= 1e-9  # outlier removed; the rest are identical
    rough = ent.i_max_cq(cq, 0.0)
    assert rough.value >= smooth.value - 1e-12


def _imax_support_loop(probs, eps):
    """The symbol-dropping loop ``_imax_smooth_support`` replaced, kept here
    as its reference."""
    order = np.argsort(probs, kind="stable")
    removed = 0.0
    drop = set()
    for i in order[:-1]:
        if removed + probs[i] <= eps + 1e-15:
            removed += probs[i]
            drop.add(int(i))
        else:
            break
    return [i for i in range(len(probs)) if i not in drop]


def test_imax_smooth_support_matches_the_loop(rng):
    cond = DensityOperator([("B", 1)], np.eye(1))
    for _ in range(300):
        n = int(rng.integers(1, 9))
        # masses on a few levels, so ties are common
        probs = rng.choice([1.0, 2.0, 3.0, 5.0], size=n)
        cq = CQState(list(range(n)), probs / probs.sum(), [cond] * n)
        for eps in (0.0, float(rng.uniform(0, 1)), *np.sort(cq.probs).cumsum(), 1.0, 1.5):
            got = ent._imax_smooth_support(cq, eps)
            assert got == _imax_support_loop(cq.probs, eps)
            assert all(type(i) is int for i in got)
