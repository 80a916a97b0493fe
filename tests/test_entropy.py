import heapq
import itertools
import subprocess
import sys
import zlib

import numpy as np
import pytest
from scipy.optimize import linprog

from puredist import entropy as ent
from puredist import linalg, states
from puredist.compression import Instance
from puredist.sampling import (
    basis_povm,
    classical_correlated_pure,
    flat_dirichlet,
    ginibre_density,
    ginibre_normals,
    haar_unitary,
    random_density,
    random_povm,
    standard_complex,
)
from puredist.states import CQState, DensityOperator, control_state

from oracles import (
    conditionals,
    cq_ensembles,
    cq_layout,
    ginibre_matrix,
    greedy_lp,
    h_h_iid,
    imax_commuting,
    imax_qubit_grid_oracle,
    left_padded,
    random_cq,
    random_mixed,
    random_pure,
    ranked_cq_draws,
    truncated_support,
    truncation_entropies,
)

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
    rhos += [random_density(rng, int(rng.integers(2, 9))) for _ in range(20)]
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
            # a state keeps the spectrum of its first call for the others
            assert len(calls) == (1 if eps == 0.0 or not isinstance(rho, DensityOperator) else 0)
            # the Renyi-1/2 value of the truncated spectrum, bit for bit
            supp, k = truncated_support(ent._spectrum(rho), eps)
            kept = supp[k:] / np.sum(supp[k:])
            assert got == float(2.0 * np.log2(np.sum(np.sqrt(kept))))


def truncation_cases(rng):
    """(spectrum, eps) pairs: clipped ascending spectra of widths 1-16, some
    with repeated eigenvalues, some with entries on both sides of
    SUPPORT_TOL, some with a single support eigenvalue; each at eps = 0, at
    a random eps, exactly at a boundary of its support's cumsum, just below
    one, and where eps + 1e-15 is one."""
    tol, cases = linalg.SUPPORT_TOL, []
    for _ in range(300):
        d = int(rng.integers(1, 17))
        w = rng.dirichlet(np.full(d, rng.choice([0.3, 1.0, 3.0])))
        kind = int(rng.integers(4))
        if kind == 1:  # repeated eigenvalues
            w = np.repeat(w[:(d + 1) // 2], 2)[:d]
        elif kind == 2:  # tiny entries on both sides of SUPPORT_TOL
            small = (rng.random(d) < 0.5) & (np.arange(d) != np.argmax(w))
            w[small] = rng.choice([0.0, 0.5 * tol, tol, np.nextafter(tol, 1.0), 2 * tol],
                                  size=small.sum())
        elif kind == 3:  # one support eigenvalue, maybe with tiny ones below it
            w = np.where(rng.random(d) < 0.5, 0.5 * tol, 0.0)
        w[-1] = max(w[-1], 0.5) if kind == 3 else w[-1]
        w = np.sort(w)
        cums = np.cumsum(w[w > tol])
        j = int(rng.integers(len(cums)))
        # eps + 1e-15 lands on the boundary itself, a row's cut keeps it
        edge = float(cums[j] - 1e-15) if cums[j] - 1e-15 + 1e-15 == cums[j] else 0.0
        for eps in (0.0, float(rng.uniform(0.0, 0.6)), float(cums[j]),
                    float(np.nextafter(cums[j], 0.0)), edge):
            if 0.0 <= eps < 1.0:
                cases.append((w, eps))
    return cases


def _bits(x):
    return np.float64(x).tobytes()


def test_stacked_truncation_keeps_the_bits_of_each_row(rng):
    # random left-padded stacks of the cases, one eps per row, against the
    # one-state formulas of tests/oracles.py; the one-state functions too
    cases = truncation_cases(rng)
    order = rng.permutation(len(cases))
    for chunk in np.array_split(order, 40):
        rows = [cases[i] for i in chunk]
        t = ent.Truncation(left_padded([w for w, _ in rows]), [e for _, e in rows])
        got = zip(t.h_tilde_max(), t.h_prime_max(), t.h_max_smooth())
        for (w, eps), values in zip(rows, got):
            want = truncation_entropies(w, eps)
            assert [_bits(v) for v in values] == [_bits(v) for v in want[:3]], (w, eps)
            assert [_bits(f(w, eps)) for f in (ent.h_tilde_max, ent.h_prime_max,
                                                ent.h_max_smooth)] == [_bits(v) for v in want[:3]]


def test_stacked_truncation_codes_keep_the_bits_of_each_row(rng):
    # the codes of stacks of one dimension d each, from ascending eigensystems;
    # the rows are the eigenvectors' in descending order
    cases = truncation_cases(rng)
    for d in range(1, 17):
        rows = [(w, e) for w, e in cases if len(w) == d]
        if not rows:
            continue
        w = np.array([w for w, _ in rows])
        v = np.array([ginibre_matrix(rng, d) for _ in rows])
        codes = ent.truncation_codes(w, v, [e for _, e in rows])  # one eps per row
        for (spectrum, eps), (bits, kept, out), vi in zip(rows, codes, v):
            assert (bits, kept) == truncation_entropies(spectrum, eps)[3:], (spectrum, eps)
            assert out.tobytes() == np.conj(vi[:, ::-1]).T.tobytes()


def test_spectral_entropies_take_a_state_or_its_spectrum(rng):
    # a 1-D input is the clipped ascending spectrum linalg.psd_eigvals gives
    rhos = [random_density(rng, int(rng.integers(1, 9))) for _ in range(30)]
    rhos += [spectrum_state([0.5, 0.3, 0.2, 0.0]), np.eye(4) / 4]
    for rho in rhos:
        w = linalg.psd_eigvals(rho.matrix if isinstance(rho, DensityOperator) else rho)
        for eps in (0.0, 0.05, 0.3):
            for fn in (ent.h_tilde_max, ent.h_prime_max, ent.h_max_smooth):
                assert np.float64(fn(w, eps)).tobytes() == np.float64(fn(rho, eps)).tobytes()
            got, want = ent.h_h(w, eps), ent.h_h(rho, eps)
            assert np.float64(got.value).tobytes() == np.float64(want.value).tobytes()
            for name in ("weights", "gains", "costs"):
                assert got.witness[name].tobytes() == want.witness[name].tobytes()


def test_d_h_takes_matrices_not_spectra():
    # two matrices of one dimension
    rho = np.diag([0.75, 0.25])
    for args, message in (((np.array([0.25, 0.75]), rho), "d_h takes matrices, not spectra: rho"),
                          ((rho, np.array([0.5, 0.5])), "d_h takes matrices, not spectra: sigma"),
                          ((rho, np.eye(3) / 3), r"dimension mismatch: \(2, 2\) vs \(3, 3\)")):
        with pytest.raises(ValueError, match=message):
            ent.d_h(*args, 0.1)


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


def test_h_h_of_a_kronecker_power_matches_the_iid_type_oracle(rng):
    degenerate = ([0.5, 0.5], [0.4, 0.3, 0.3], [1 / 3] * 3, [0.25] * 4, [0.4, 0.2, 0.2, 0.2],
                  [0.7, 0.1, 0.1, 0.1])
    spectra = [np.array(p) for p in degenerate]
    for d in (2, 2, 3, 3, 4, 4):  # random, min p >= 0.05: no product nears SUPPORT_TOL
        spectra.append(0.05 + (1 - 0.05 * d) * rng.dirichlet(np.ones(d)))
    for p in spectra:
        d = len(p)
        u = haar_unitary(ginibre_matrix(rng, d))
        rho = (u * p) @ u.conj().T
        power = rho
        for n in range(1, {2: 6, 3: 3, 4: 3}[d] + 1):  # every d^n <= 64
            for eps in (0.01, 0.1, 0.3):
                assert abs(ent.h_h(power, eps).value - h_h_iid(p, n, eps)) <= 1e-9, (p, n, eps)
            power = np.kron(power, rho)


def test_h_h_witness_reevaluates(rng):
    r = ent.h_h(random_density(rng, 5), 0.07)
    assert np.isclose(r.reevaluate(), r.value, atol=1e-8)
    w = r.witness
    assert np.dot(w["gains"], w["weights"]) >= 1 - 0.07 - 1e-12


def test_d_h_witness_reevaluates(rng):
    # a Neyman-Pearson witness keeps its test's cost; the +inf one has none
    for eps in (0.0, 0.1):
        r = ent.d_h(ginibre_density(rng, 4), ginibre_density(rng, 4), eps)
        assert r.method == "neyman-pearson" and r.reevaluate() == r.value
    r = ent.d_h(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]), 0.1)
    assert r.value == np.inf and r.reevaluate() == np.inf


def test_h_h_basis_independent(rng):
    spec = rng.dirichlet(np.ones(5))
    u = haar_unitary(ginibre_matrix(rng, 5))
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
    rhos = [random_density(rng, int(rng.integers(2, 17))) for _ in range(40)]
    rhos += [np.eye(d) / d for d in (1, 2, 5, 16)]  # one repeated eigenvalue
    for spec in ([0.4, 0.4, 0.1, 0.1], [0.25] * 3 + [0.125] * 2,
                 # eigenvalues straddling SUPPORT_TOL, and on it
                 [1 - 5 * tol, tol, 0.5 * tol, 2 * tol, tol * (1 + 1e-15), tol * (1 - 1e-15), 1e-13],
                 [1 - 3 * tol, tol, tol, tol, 0.0]):
        spec = np.array(spec) / np.sum(spec)
        u = haar_unitary(ginibre_matrix(rng, len(spec)))
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
    """Counts the eigendecompositions the package runs while the test is
    active: all of them pass the funnel ``linalg._eigh`` / ``_eigvalsh``."""
    calls = []
    for name in ("_eigh", "_eigvalsh"):
        orig = getattr(linalg, name)
        monkeypatch.setattr(linalg, name,
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
    monkeypatch.setattr(ent, "_greedy_many", None)
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
    single = CQState([0], [1.0], [random_mixed(rng, 4, "B")])
    assert np.isclose(ent.h_h_cond_cq(single, 0.1).value,
                      ent.h_h(conditionals(single)[0], 0.1).value, atol=1e-12)
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
        for p, c in zip(cq.probs, conditionals(cq)):
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
        total, lam = greedy_lp(gains[order], costs[order], 0.9)
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
    lam0 = np.max(conditionals(cq)[0].spectrum())
    lam1 = np.max(conditionals(cq)[1].spectrum())
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
                                       cq.probs, conditionals(cq)):
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
    for p, cond in zip(cq.probs, conditionals(cq)):
        w = cond.spectrum()
        w = w[w > ent.SUPPORT_TOL]
        gains.append(p * w)
        costs.append(np.full(len(w), p))
    gains, costs = np.concatenate(gains), np.concatenate(costs)
    order = np.argsort(-(gains / costs), kind="stable")
    total, lam = greedy_lp(gains[order], costs[order], 1.0 - eps)
    return float(np.log2(total)), lam, gains[order], costs[order]


def loop_h_min_cq(cq):
    acc = sum(p * float(np.max(c.spectrum())) for p, c in zip(cq.probs, conditionals(cq)))
    return float(-np.log2(acc))


def loop_h_min_cq_smoothed(cq, eps):
    """h_min_cq_smoothed's water cut over per-symbol dicts, as it ran
    before it read cq.spectra."""
    budget = eps * eps
    levels = []
    for p, cond in zip(cq.probs, conditionals(cq)):
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
    that dropped a symbol below 1e-12, one whose gain/cost ratios tie
    exactly across symbols, where only the pairs' order breaks the ties, and
    one of dimension 2 whose water cut at eps = 0.999 lowers a level to an
    eigenvalue of 1e-15 and cuts on from it with the multiplicity of the
    conditional's own spectrum (the padding of a wider stack must not count)."""
    tied = [DensityOperator([("B", 3)], np.diag(w)) for w in ([0.5, 0.25, 0.25],
                                                             [0.25, 0.25, 0.5])]
    yield CQState([0, 1], [0.25, 0.75], tied)
    tiny = [np.diag(w) for w in ([1e-15, 1 - 1e-15], [0.1, 0.9], [0.25, 0.75], [0.25, 0.75])]
    yield CQState(range(4), [0.59, 0.07, 0.06, 0.28], tiny, registers=[("B", 2)])
    for i in range(150):
        n, d = int(rng.integers(1, 7)), int(rng.integers(2, 7))
        yield random_cq(rng, n, d, pure_conditionals=i % 3 == 0,
                        rank=int(rng.integers(1, d + 1)) if i % 3 == 1 else None)
    conds = [random_mixed(rng, 3, "B"), random_pure(rng, 3, "B"), random_mixed(rng, 3, "B")]
    dropped = CQState([0, 1, 2], [0.7, 1e-13, 0.3], conds)
    assert len(dropped) == 2
    yield dropped


def test_cq_spectra_and_entropies_keep_the_bits_of_the_per_conditional_loops(rng):
    for cq in stacked_cq_cases(rng):
        assert cq.stack.shape == (len(cq),) + conditionals(cq)[0].matrix.shape
        for i, c in enumerate(conditionals(cq)):
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


# ------------------------------------------------------- stacked H_H solvers

def test_h_h_many_keeps_the_bits_of_h_h(rng):
    tol = ent.SUPPORT_TOL
    spectra = []
    for _ in range(200):
        d = int(rng.integers(2, 33))
        spectra.append(linalg.psd_eigvals(ginibre_density(rng, d, int(rng.integers(1, d + 1)))))
    for spec in ([1 - 5 * tol, tol, 0.5 * tol, 2 * tol, tol * (1 + 1e-15), tol * (1 - 1e-15),
                  1e-13], [1 - 3 * tol, tol, tol, tol, 0.0], [0.25] * 4, [1.0, 0.0, 0.0]):
        spectra.append(np.sort(np.array(spec) / np.sum(spec)))  # on and straddling the tolerance
    stack = left_padded(spectra)
    for eps in (0.0, 0.01, 0.1, 0.3, 0.999):
        values, weights = ent.h_h_many(stack, eps)
        for w, value, row in zip(spectra, values, weights):
            want = ent.h_h(w, eps)
            ref, lam, _, _ = _h_h_sorted_reference(w, eps)  # the scalar loop
            k = len(lam)
            assert value.tobytes() == np.float64(want.value).tobytes() == np.float64(ref).tobytes()
            assert row[:k].tobytes() == want.witness["weights"].tobytes() == lam.tobytes()
            assert not row[k:].any() and np.all(np.diff(row) <= 0)
    # one eps per row, and a one-row stack
    eps = rng.choice([0.0, 0.01, 0.1, 0.3, 0.999], size=len(spectra))
    values, _ = ent.h_h_many(stack, eps)
    assert values.tolist() == [ent.h_h(w, e).value for w, e in zip(spectra, eps.tolist())]
    assert ent.h_h_many(stack[:1], [0.1])[0].tolist() == [ent.h_h(spectra[0], 0.1).value]


def test_h_h_cond_cq_many_keeps_the_bits_of_h_h_cond_cq(rng, eigh_calls):
    # and h_min_cq_smoothed_many those of the heap loop, on the same stack of
    # states of every shape, padded into the solvers' layout
    cqs = list(stacked_cq_cases(rng))  # pure conditionals, ties and a dropped symbol among them
    eigh_calls.clear()
    ragged = linalg.per_size(linalg.psd_eigvals, [cq.stack for cq in cqs])
    probs, spectra = cq_layout([cq.probs for cq in cqs], ragged)  # the solvers' layout
    ent.h_h_cond_cq_many(probs, spectra, 0.1)
    # the spectra came from one stacked decomposition per size, the states' bits
    assert len(eigh_calls) == len({cq.stack.shape[-1] for cq in cqs})
    assert all(w.tobytes() == cq.spectra.tobytes() for cq, w in zip(cqs, ragged))
    for eps in (0.0, 0.01, 0.1, 0.3, 0.999):
        values, weights = ent.h_h_cond_cq_many(probs, spectra, [eps] * len(cqs))
        for cq, value, row in zip(cqs, values, weights):
            want = ent.h_h_cond_cq(cq, eps)
            ref, lam, _, _ = loop_h_h_cond_cq(cq, eps)  # the scalar loop
            k = len(lam)
            assert value.tobytes() == np.float64(want.value).tobytes() == np.float64(ref).tobytes()
            assert row[:k].tobytes() == want.witness["weights"].tobytes() == lam.tobytes()
            assert not row[k:].any()
        hmin = ent.h_min_cq_smoothed_many(probs, spectra, eps)
        assert hmin.tobytes() == np.array([loop_h_min_cq_smoothed(cq, eps) for cq in cqs]).tobytes()
    eps = rng.choice([0.0, 0.01, 0.1, 0.3, 0.999], size=len(cqs))
    values, _ = ent.h_h_cond_cq_many(probs, spectra, eps)
    assert values.tolist() == [ent.h_h_cond_cq(cq, e).value for cq, e in zip(cqs, eps.tolist())]
    want = [loop_h_min_cq_smoothed(cq, e) for cq, e in zip(cqs, eps.tolist())]
    assert ent.h_min_cq_smoothed_many(probs, spectra, eps).tobytes() == np.array(want).tobytes()


def test_h_h_cond_cq_many_on_arrays_drops_and_rejects_as_a_cq_state_does(rng):
    # both stacked cq solvers, h_h_cond_cq_many and h_min_cq_smoothed_many,
    # take arrays through one entry
    for i in range(60):
        n, d = int(rng.integers(2, 9)), int(rng.integers(2, 6))
        pure, rank = i % 3 == 0, int(rng.integers(1, d + 1)) if i % 3 == 1 else None
        draws = [ranked_cq_draws(rng, n, d, pure_conditionals=pure, rank=rank) for _ in range(3)]
        probs, stack, _ = cq_ensembles(*map(np.array, zip(*draws)), pure)
        spectra = linalg.per_size(linalg.psd_eigvals, list(stack))
        x = int(rng.integers(n))
        for forced in (1e-13, np.nan):  # each is dropped
            p = probs.copy()
            p[1, (x + 1) % n] += p[1, x]  # the distribution stays normalized within 1e-9
            p[1, x] = forced
            cqs = [CQState(range(n), q, m, registers=[("B", d)]) for q, m in zip(p, stack)]
            assert len(cqs[1]) == n - 1
            for eps in (0.01, 0.1, 0.3):
                values, weights = ent.h_h_cond_cq_many(list(p), spectra, eps)
                hmin = ent.h_min_cq_smoothed_many(list(p), spectra, eps)
                for cq, value, row, h in zip(cqs, values, weights, hmin):
                    want = ent.h_h_cond_cq(cq, eps)
                    k = len(want.witness["weights"])
                    assert value.tobytes() == np.float64(want.value).tobytes(), (i, forced)
                    assert row[:k].tobytes() == want.witness["weights"].tobytes()
                    assert not row[k:].any()
                    assert h.tobytes() == np.float64(ent.h_min_cq_smoothed(cq, eps)).tobytes()
        p = probs.copy()
        p[1, x] = -1e-3
        with pytest.raises(ValueError) as want:
            CQState(range(n), p[1], stack[1], registers=[("B", d)])
        for solve in (ent.h_h_cond_cq_many, ent.h_min_cq_smoothed_many):
            with pytest.raises(ValueError) as got:
                solve(list(p), spectra, 0.1)
            assert str(got.value) == str(want.value) == "negative probabilities"
    for bad in (1.0, -0.1, 1.5, float("nan")):
        with pytest.raises(ValueError) as want:
            ent.h_min_cq_smoothed(cqs[0], bad)
        for solve in (ent.h_h_cond_cq_many, ent.h_min_cq_smoothed_many):
            with pytest.raises(ValueError) as got:
                solve(list(probs), spectra, [0.1, bad, 0.1])
            assert str(got.value) == str(want.value)


def test_one_state_cq_solvers_trust_their_cq_state(rng, monkeypatch):
    # the constructor applied the probability rule; a lone solve does not again
    cq, calls = random_cq(rng, 4, 3), []
    for module in (states, ent):
        monkeypatch.setattr(module, "kept_symbols",
                            lambda probs, _orig=states.kept_symbols: calls.append(1) or _orig(probs))
    ent.h_h_cond_cq(cq, 0.1)
    ent.h_min_cq_smoothed(cq, 0.1)
    ent.h_min_cq(cq)
    assert calls == []
    ent.h_min_cq_smoothed_many([cq.probs], [cq.spectra], 0.1)  # arrays enter: the rule runs
    assert calls


def test_stacked_h_h_solvers_reject_eps_as_h_h_does(rng):
    w = np.array([0.25, 0.75])
    cq = random_cq(rng, 2, 2)
    for bad in (1.0, -0.1, 1.5, float("nan")):
        with pytest.raises(ValueError) as want:
            ent.h_h(w, bad)
        for solve in (lambda: ent.h_h_many(w[None], [bad]),
                      lambda: ent.h_h_many(np.stack([w, w]), [0.1, bad]),
                      lambda: ent.h_h_cond_cq_many([cq.probs] * 2, [cq.spectra] * 2,
                                                   [bad, 0.1])):
            with pytest.raises(ValueError) as got:
                solve()
            assert str(got.value) == str(want.value)


# ------------------------------------------------------------------ i_max

def test_i_max_identical_and_orthogonal(rng):
    rho = random_mixed(rng, 3, "B")
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
        r0 = random_mixed(rng, d, "B")
        r1 = random_mixed(rng, d, "B")
        cq = CQState([0, 1], [0.5, 0.5], [r0, r1])
        want = np.log2(1 + 0.5 * linalg.trace_norm(r0.matrix - r1.matrix))
        got = ent.i_max_cq(cq, 0.0)
        assert abs(got.value - want) <= 1e-6
        assert got.duality_gap <= 1e-6


def test_i_max_qubit_grid_oracle(rng):
    for _ in range(10):
        cq = random_cq(rng, int(rng.integers(2, 4)), 2)
        got = ent.i_max_cq(cq, 0.0)
        want = imax_qubit_grid_oracle([c.matrix for c in conditionals(cq)])
        assert abs(got.value - want) <= 1e-3


def assert_sigma_feasible(cq, r):
    t = 2.0 ** r.value
    for c in conditionals(cq):
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
    return control_state(rho.purify(), povm, condition_on=["B", "R"])


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
        iso = haar_unitary(ginibre_matrix(rng, 2 * d))[:, :d]
        big = CQState(cq.symbols, cq.probs, [DensityOperator(
            [("B", 2 * d)], iso @ c.matrix @ linalg.dagger(iso), validate=False)
            for c in conditionals(cq)])
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
                           validate=False) for x, c in enumerate(conditionals(cq))]
    with pytest.raises(linalg.NotHermitianError, match="^matrix is not Hermitian within"):
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
    # on |A| = 4, widened to |B| = 32: d = 64, support <= 4, so the stage on
    # the optimality conditions runs after its budget (15 iterations, then 2
    # Newton steps)
    rng = np.random.default_rng(20240817)
    rho = DensityOperator([("A", 4), ("B", 32)], ginibre_density(rng, 128, 2))
    povm = random_povm(rng, 4, 3, register="A")
    cq = control_state(rho.purify(), povm, condition_on=["B", "R"])
    assert cq.stack.shape[1] == 64 and ent._joint_support(cq.stack).shape[1] <= 4
    r = ent.i_max_cq(cq, 0.0)
    assert r.converged and r.duality_gap <= 1e-9
    assert r.iterations <= ent.FIXED_POINT_BUDGET and r.newton_steps > 0
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


def singular_schur(a, b):
    """A zero Schur matrix of stage 3's size, which no solve inverts."""
    return np.zeros((a.shape[1] ** 2,) * 2)


def test_i_max_resumes_the_fixed_point_when_the_newton_stage_stalls(monkeypatch):
    # a singular Schur system ends the primal-dual stage before its first
    # step; the fixed point then resumes from its own POVM and must certify
    # the same optimum. The stage on the optimality conditions is gated off,
    # so stage 3 is the one Newton stage that runs
    monkeypatch.setattr(ent, "KKT_MAX_UNKNOWNS", 0)
    reached = 0
    for index in range(6):
        cq = kd_environment_ensemble(index, *((4, 4, 2), (3, 4, 3), (4, 4, 4))[index % 3])
        newton = ent.i_max_cq(cq, 1e-4)
        with monkeypatch.context() as m:
            m.setattr(ent, "_schur", singular_schur)
            resumed = ent.i_max_cq(cq, 1e-4)
        assert resumed.converged and resumed.duality_gap <= ent.IMAX_GAP_TOL
        assert resumed.newton_steps == 0
        assert abs(resumed.value - newton.value) <= resumed.duality_gap + newton.duality_gap
        assert_sigma_feasible(cq, resumed)
        if newton.newton_steps:  # stage 3 ran, so the fixed point ran past its budget
            reached += 1
            assert resumed.iterations > newton.iterations
    assert reached == 6  # none of them certifies within FIXED_POINT_BUDGET


@pytest.mark.parametrize("scale", [-1.0, 1e15])
def test_i_max_resumes_the_fixed_point_when_the_barrier_stalls(monkeypatch, scale):
    # the primal-dual stage's two other stall exits, with each step to the
    # boundary measured along scale x its direction. Reversed (-1.0), the
    # first step leaves the cone, and its iterate is not positive definite;
    # 1e15 times longer, the steps are too short to halve the gap, and the
    # second one ends the stage. The fixed point then resumes from its own
    # POVM and certifies the same optimum. Stage 2 is gated off, so stage 3
    # runs on these kd ensembles
    monkeypatch.setattr(ent, "KKT_MAX_UNKNOWNS", 0)
    to_boundary, calls = ent._to_boundary, []

    def scaled(w, v, d):
        calls.append(1)
        return to_boundary(w, v, scale * d)

    steps = 1 if scale < 0 else 2
    for index in (0, 1, 2, 4, 5):
        cq = kd_environment_ensemble(index, *((4, 4, 2), (3, 4, 3), (4, 4, 4))[index % 3])
        newton = ent.i_max_cq(cq, 1e-4)
        assert newton.newton_steps > 0
        calls.clear()
        with monkeypatch.context() as m:
            m.setattr(ent, "_to_boundary", scaled)
            stalled = ent.i_max_cq(cq, 1e-4)
        # a step measures the predictor's and the corrector's tau and Pi
        assert len(calls) == 4 * steps and stalled.newton_steps == steps
        assert stalled.converged and stalled.duality_gap <= ent.IMAX_GAP_TOL
        assert stalled.iterations > newton.iterations
        assert abs(stalled.value - newton.value) <= stalled.duality_gap + newton.duality_gap
        assert_sigma_feasible(cq, stalled)


# The solver's stages as they were before their numpy calls were trimmed:
# the identity built per call, the slack symmetrized again, .sum/.max method
# calls, a masked inverse square root and np.linalg.solve.

def ref_povm_from(states, weights):
    d = states.shape[1]
    w, v = np.linalg.eigh(linalg.hermitian_part(weights.sum(axis=0)))
    w = linalg.clip_psd_spectrum(w)
    inv_sqrt = np.zeros_like(w)
    mask = w > 1e-12
    inv_sqrt[mask] = w[mask] ** -0.5
    t = (v * inv_sqrt) @ linalg.dagger(v)
    povm = linalg.hermitian_part(t @ weights @ t)
    slack = linalg.hermitian_part(np.eye(d) - povm.sum(axis=0))
    if np.abs(slack).max() > 1e-14:
        gains = np.real(np.einsum("ij,xji->x", slack, states))
        povm[int(np.argmax(gains))] += slack
    return povm


def ref_certify(states, povm, y):
    d = states.shape[1]
    lower = float(np.real(np.einsum("xij,xji->", povm, states)))
    excess = states - y
    if np.abs(excess - linalg.dagger(excess)).max() > 1e-6:
        raise ValueError("matrix is not Hermitian within tolerance")
    c = max(float(np.linalg.eigvalsh(linalg.hermitian_part(excess)).max()), 0.0)
    upper = float(y.trace().real) + d * c
    return lower, upper, y + c * np.eye(d)


def ref_lift(best, states, basis, povm):
    lower, best.upper, best.tau = ref_certify(
        states, basis @ povm @ linalg.dagger(basis), basis @ best.tau @ linalg.dagger(basis))
    best.lower = max(best.lower, lower)


def ref_fixed_point(states, povm, best, iterations, hand_over=False):
    rp, gaps = states @ povm, []
    for it in range(1, iterations + 1):
        povm = ref_povm_from(states, rp @ states)
        rp = states @ povm
        y = linalg.hermitian_part(rp.sum(axis=0))
        lower, upper, tau = ref_certify(states, povm, y)
        if best.update(lower, upper, tau) <= ent.IMAX_GAP_TOL:
            return povm, it
        gaps.append(float(np.log2(upper) - np.log2(max(lower, 1e-300))))
        if hand_over and it >= 2:
            # the pair gap, even contracting at the square of its last rate,
            # would still be open after the last iteration
            rate = gaps[-1] / gaps[-2]
            if rate >= 1 or gaps[-1] * rate ** (2 * (iterations - it)) > ent.IMAX_GAP_TOL:
                return povm, it
    return povm, iterations


def ref_newton_hessian(sinv):
    n, d, _ = sinv.shape
    p = sinv.real.reshape(n, d * d)
    q = sinv.imag.reshape(n, d * d)
    pq = np.concatenate([p, q])
    hess = (pq.T @ np.concatenate([p, -q])).reshape(d, d, d, d).transpose(0, 3, 1, 2).copy()
    hess += (pq.T @ np.concatenate([q, p])).reshape(d, d, d, d).transpose(0, 3, 2, 1)
    return hess


def ref_newton_step(sinv, grad):
    # the Newton step of the barrier stage that the primal-dual stage replaced
    d = sinv.shape[1]
    try:
        m = np.linalg.solve(ref_newton_hessian(sinv).reshape(d * d, d * d),
                            -(grad.real + grad.imag).reshape(-1)).reshape(d, d)
    except np.linalg.LinAlgError:
        return None
    return (m + m.T) / 2.0 + 0.5j * (m - m.T)


def test_i_max_keeps_the_bits_of_the_reference_stages(monkeypatch):
    # 48 kd environment ensembles (d = 8-16 on supports r = 3-4) and 12
    # full-support ensembles of r = 2-16; most of them reach the primal-dual
    # stage, since the stage on the optimality conditions declines at once
    monkeypatch.setattr(ent, "_kkt_newton", lambda states, povm, best: 0)
    rng = np.random.default_rng(27)
    cases = [(kd_environment_ensemble(i, *((4, 4, 2), (3, 4, 3), (4, 4, 4))[i % 3]), 1e-4)
             for i in range(48)]
    cases += [(random_cq(rng, int(rng.integers(3, 5)), d), 0.0)
              for d in (2, 2, 5, 6, 7, 8, 9, 10, 12, 13, 14, 16)]
    supports, steps = set(), 0
    for cq, eps in cases:
        got = ent.i_max_cq(cq, eps)
        with monkeypatch.context() as m:
            m.setattr(ent, "_fixed_point", ref_fixed_point)
            m.setattr(ent._Bounds, "lift", ref_lift)
            want = ent.i_max_cq(cq, eps)
        assert (got.value, got.duality_gap, got.iterations, got.newton_steps) == (
            want.value, want.duality_gap, want.iterations, want.newton_steps)
        assert got.sigma.matrix.tobytes() == want.sigma.matrix.tobytes()
        basis = ent._joint_support(cq.stack)
        supports.add(cq.stack.shape[1] if basis is None else basis.shape[1])
        steps += got.newton_steps > 0
    assert supports >= {2, 3, 4, 5, 8, 12, 16} and steps >= 40, (supports, steps)


def hermitian_stack(rng, n, d, shift=0.0):
    """n random Hermitian d x d matrices, each plus ``shift`` times I."""
    return np.stack([linalg.hermitian_part(ginibre_matrix(rng, d)) + shift * np.eye(d)
                     for _ in range(n)])


def test_newton_step_of_a_singular_system_is_none(monkeypatch):
    # the Schur matrix of zero S^-1 and Pi is singular, and a singular Schur
    # solve ends stage 3 before its first step, with the POVM it was handed
    zero = np.zeros((2, 3, 3), dtype=complex)
    assert ent._solve_hermitian(ent._schur(zero, zero), -2.0 * np.eye(3)) is None
    states, best, povm, _ = handed_over(kd_environment_ensemble(0, 4, 4, 2), 1e-4)
    assert best.gap > ent.IMAX_GAP_TOL
    monkeypatch.setattr(ent, "_schur", singular_schur)
    last, steps = ent._primal_dual(states, povm, best)
    assert steps == 0 and last is povm


def test_schur_of_one_stack_keeps_the_bits_of_the_barrier_hessian(rng):
    # with a = b = S^-1 it is the build of the replaced barrier's Newton
    # matrix, sum_x S_x^-1 H S_x^-1, op for op, and so is its solve
    for n, d in ((2, 2), (3, 4), (4, 7), (5, 16)):
        sinv, grad = hermitian_stack(rng, n, d), hermitian_stack(rng, 1, d)[0]
        assert ent._schur(sinv, sinv).tobytes() == ref_newton_hessian(sinv).tobytes()
        got = ent._solve_hermitian(ent._schur(sinv, sinv), -(grad.real + grad.imag))
        assert got.tobytes() == ref_newton_step(sinv, grad).tobytes()


def test_schur_matches_the_complex_kronecker_matrix(rng):
    # H -> sum_x (S_x^-1 H Pi_x + Pi_x H S_x^-1), stage 3's Schur map: the
    # complex matrix K = sum_x a_x (x) b_x^T on row-major vec(H), in real
    # coordinates Re K[ij,kl] + Im K[ij,lk], maps Re H + Im H of a Hermitian H
    # to Re G + Im G of its image G
    for n, d in ((2, 2), (3, 4), (4, 6)):
        sinv, pis = hermitian_stack(rng, n, d, 2 * d), hermitian_stack(rng, n, d, 2 * d)
        a, b = np.concatenate([sinv, pis]), np.concatenate([pis, sinv])
        k = sum(np.kron(x, y.T) for x, y in zip(a, b)).reshape(d, d, d, d)
        want = (k.real + k.imag.swapaxes(-1, -2)).reshape(d * d, d * d)
        got = ent._schur(a, b).reshape(d * d, d * d)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
        h = hermitian_stack(rng, 1, d)[0]
        g = np.add.reduce(a @ h @ b)
        image = got @ (h.real + h.imag).reshape(-1)
        assert np.abs(image - (g.real + g.imag).reshape(-1)).max() <= 1e-12 * np.abs(g).max()


def test_i_max_primal_dual_stage_certifies_commuting_ensembles_at_d16():
    # 8 ensembles of 5 states of 8 levels on d = 16 under one Haar rotation:
    # (n + 1) r^2 is above KKT_MAX_UNKNOWNS, so stage 3 takes over from the
    # fixed point's budget and certifies each without the resume
    rng = np.random.default_rng(2026)
    for _ in range(8):
        probs, dists = flat_dirichlet(rng, 5), np.zeros((5, 16))
        for x in range(5):
            dists[x, rng.choice(16, size=8, replace=False)] = flat_dirichlet(rng, 8)
        u = haar_unitary(standard_complex(ginibre_normals(rng, 16, n=1)))[0]
        cq = CQState(range(5), probs, (u * dists[:, None, :]) @ linalg.dagger(u),
                     registers=(("E", 16),))
        r = ent.i_max_cq(cq, 0.0)
        want = imax_commuting(probs.tolist(), dists.tolist())
        assert r.converged and r.duality_gap <= ent.IMAX_GAP_TOL
        assert r.iterations == handed_over(cq, 0.0)[3] and 0 < r.newton_steps <= 12, r
        assert r.value - r.duality_gap - 1e-12 <= want <= r.value + 1e-12, (r, want)


# the kd-quantum pool ensembles on which stage 2 needs 7-11 steps
DEGENERATE_KD = (47, 164, 193, 218, 257, 361, 366, 395, 401, 433, 453, 464, 486, 533)


def test_i_max_primal_dual_stage_certifies_the_degenerate_kd_ensembles(monkeypatch):
    # with stage 2 gated off, stage 3 certifies each from the fixed point's
    # hand-off, without the resume, and the intervals of both stages overlap
    for index in DEGENERATE_KD:
        cq = kd_environment_ensemble(index, *((4, 4, 2), (3, 4, 3), (4, 4, 4))[index % 3])
        kkt = ent.i_max_cq(cq, 1e-4)
        with monkeypatch.context() as m:
            m.setattr(ent, "KKT_MAX_UNKNOWNS", 0)
            pd = ent.i_max_cq(cq, 1e-4)
        hand_off = handed_over(cq, 1e-4)[3]
        assert kkt.iterations == hand_off and kkt.newton_steps > 6
        for r in (kkt, pd):
            assert r.converged and r.duality_gap <= ent.IMAX_GAP_TOL
            assert_sigma_feasible(cq, r)
        assert pd.iterations == hand_off and pd.newton_steps > 0
        lower = max(kkt.value - kkt.duality_gap, pd.value - pd.duality_gap)
        assert lower <= min(kkt.value, pd.value), (index, kkt, pd)


def handed_over(cq, eps):
    """The reduced states of ``cq`` at ``eps``, and the bounds and POVM that
    the reference fixed point hands the Newton stages, with the iteration it
    hands them over at."""
    states = cq.stack[ent._imax_smooth_support(cq, eps)]
    basis = ent._joint_support(states)
    if basis is not None:
        states = linalg.dagger(basis) @ states @ basis
    n, r, _ = states.shape
    best = ent._Bounds(states)
    uniform = np.broadcast_to(np.eye(r, dtype=complex) / n, (n, r, r))
    povm, it = ref_fixed_point(states, uniform, best, ent.FIXED_POINT_BUDGET, hand_over=True)
    return states, best, povm, it


def kkt_cases():
    """The 48 kd environment ensembles and 12 full-support ensembles of
    r = 3-4, with the eps each is solved at."""
    rng = np.random.default_rng(48)
    cases = [(kd_environment_ensemble(i, *((4, 4, 2), (3, 4, 3), (4, 4, 4))[i % 3]), 1e-4)
             for i in range(48)]
    return cases + [(random_cq(rng, int(rng.integers(3, 6)), 3 + i % 2), 0.0) for i in range(12)]


def test_i_max_certified_intervals_overlap_with_and_without_the_kkt_stage(monkeypatch):
    # stage 2 declined at once (as on a singular system) leaves the barrier to
    # certify; both solves certify the same optimum, and stage 2 certifies
    # most of the ensembles it runs on
    kkt, after = ent._kkt_newton, []

    def recorded(states, povm, best):
        steps = kkt(states, povm, best)
        after.append(best.gap <= ent.IMAX_GAP_TOL)
        return steps

    for cq, eps in kkt_cases():
        with monkeypatch.context() as m:
            m.setattr(ent, "_kkt_newton", recorded)
            got = ent.i_max_cq(cq, eps)
        with monkeypatch.context() as m:
            m.setattr(ent, "_kkt_newton", lambda states, povm, best: 0)
            declined = ent.i_max_cq(cq, eps)
        for r in (got, declined):
            assert r.converged and r.duality_gap <= ent.IMAX_GAP_TOL
            assert_sigma_feasible(cq, r)
        lower = max(got.value - got.duality_gap, declined.value - declined.duality_gap)
        assert lower <= min(got.value, declined.value), (got, declined)
    assert len(after) >= 45 and sum(after) >= 0.9 * len(after), (len(after), sum(after))


def test_i_max_kkt_stage_declines_to_the_barrier_on_a_degenerate_kd_ensemble(monkeypatch):
    # kd-quantum pool ensemble 47: Newton on the optimality conditions cuts
    # its gap only about 4x a step, and certifies it in more steps than
    # stage 2 once took at most (6). With stage 2 declined, stage 3
    # certifies it; with both Newton stages singular, the fixed point resumes
    # past its hand-off. All three certify the same optimum
    cq = kd_environment_ensemble(47, 4, 4, 4)
    hand_off = handed_over(cq, 1e-4)[3]
    kkt, after = ent._kkt_newton, []

    def recorded(states, povm, best):
        steps = kkt(states, povm, best)
        after.append((steps, best.gap))
        return steps

    monkeypatch.setattr(ent, "_kkt_newton", recorded)
    r = ent.i_max_cq(cq, 1e-4)
    [(steps, gap)] = after
    assert steps > 6 and gap <= ent.IMAX_GAP_TOL
    assert r.converged and r.iterations == hand_off and r.newton_steps == steps
    assert_sigma_feasible(cq, r)
    monkeypatch.setattr(ent, "_kkt_step", lambda states, tau, pis: None)
    declined = ent.i_max_cq(cq, 1e-4)
    assert after[-1][0] == 0
    assert declined.converged and declined.iterations == hand_off and declined.newton_steps > 0
    monkeypatch.setattr(ent, "_schur", singular_schur)
    resumed = ent.i_max_cq(cq, 1e-4)
    assert after[-1][0] == 0
    assert resumed.converged and resumed.newton_steps == 0 and resumed.iterations > hand_off
    for other in (declined, resumed):
        assert abs(other.value - r.value) <= other.duality_gap + r.duality_gap
        assert_sigma_feasible(cq, other)


FIXED_POINT = ent._fixed_point


def full_budget_fixed_point(states, povm, best, iterations, hand_over=False):
    """Stage 1 without its hand-off: the fixed point spends its whole budget
    unless it certifies."""
    return FIXED_POINT(states, povm, best, iterations)


def compare_environment_ensemble(index):
    """The ensemble whose I_max a compare-sweep pool job needs, with the eps
    it is solved at: a classical source through a random cyclic noise
    channel, purified and measured in the basis."""
    rng = np.random.default_rng([2403_16466, zlib.crc32(b"compare-sweep"), index])
    top = rng.uniform(0.5, 0.95)
    p_a = np.concatenate([[top], rng.dirichlet(np.ones(7)) * (1 - top)])
    c0 = rng.uniform(0.6, 0.95)
    noise = np.concatenate([[c0], rng.dirichlet(np.ones(3)) * (1 - c0)])
    joint = np.array([p_a[a] * np.roll(noise, a % 4) for a in range(8)])
    rng.integers(1, 1_000_000)  # the job's first seed
    psi = classical_correlated_pure(rng, 8, 4, joint=joint).density().purify()
    return Instance(psi, basis_povm(8, "A"), 0.25).ideal_env, 0.25 ** 4


def test_i_max_keeps_its_path_where_the_fixed_point_certifies_within_its_budget(monkeypatch):
    # demo 01's ensemble (certified by the fixed point at iteration 15), the
    # golden mixed input's environment at 0.1^4 (handed to Newton after
    # iteration 15) and 40 compare-sweep pool ensembles contract fast enough
    # to certify within the budget, so the hand-off never fires: each result
    # keeps the bits of the fixed point run to its full budget
    demo = CQState([0, 1], [0.5, 0.5], [DensityOperator([("B", 2)], np.diag([1.0, 0.0])),
                                        DensityOperator([("B", 2)], np.diag([0.5, 0.5]))])
    rng = np.random.default_rng(20240817)
    rho = DensityOperator([("A", 4), ("B", 4)], ginibre_density(rng, 16, 2))
    mixed = Instance(rho.purify(), random_povm(rng, 4, 3, register="A"), 0.1).ideal_env
    cases = [(demo, 0.0), (mixed, 0.1 ** 4)]
    cases += [compare_environment_ensemble(i) for i in range(0, 400, 10)]
    for k, (cq, eps) in enumerate(cases):
        got = ent.i_max_cq(cq, eps)
        with monkeypatch.context() as m:
            m.setattr(ent, "_fixed_point", full_budget_fixed_point)
            want = ent.i_max_cq(cq, eps)
        fields = ("value", "duality_gap", "iterations", "converged", "newton_steps")
        assert [getattr(got, f) for f in fields] == [getattr(want, f) for f in fields]
        assert got.sigma.matrix.tobytes() == want.sigma.matrix.tobytes()
        if k < 2:
            assert got.iterations == ent.FIXED_POINT_BUDGET and (got.newton_steps > 0) == k, got
        assert got.converged and got.duality_gap <= ent.IMAX_GAP_TOL


def test_i_max_hands_the_kd_pool_ensembles_to_newton_early_within_the_same_interval(monkeypatch):
    # every 10th kd-quantum pool ensemble: the fixed point contracts too
    # slowly to certify within its budget on most of them and hands over
    # early; the certified intervals overlap those of the full budget
    early = 0
    for index in range(0, 600, 10):
        cq = kd_environment_ensemble(index, *((4, 4, 2), (3, 4, 3), (4, 4, 4))[index % 3])
        got = ent.i_max_cq(cq, 1e-4)
        with monkeypatch.context() as m:
            m.setattr(ent, "_fixed_point", full_budget_fixed_point)
            want = ent.i_max_cq(cq, 1e-4)
        for r in (got, want):
            assert r.converged and r.duality_gap <= ent.IMAX_GAP_TOL
        lower = max(got.value - got.duality_gap, want.value - want.duality_gap)
        assert lower <= min(got.value, want.value), (index, got, want)
        early += got.iterations < ent.FIXED_POINT_BUDGET and got.newton_steps > 0
    assert early >= 50, early


def test_kkt_step_solves_the_complex_optimality_system():
    # the real-coordinate solve against np.linalg.solve of the complex system
    # in dtau and the dPi_x, at the iterate each ensemble hands to stage 2
    def lyapunov(a):  # H -> A H + H A on row-major vec(H)
        return np.kron(a, np.eye(len(a))) + np.kron(np.eye(len(a)), a.T)

    for cq, eps in kkt_cases()[::4]:
        states, best, pis, _ = handed_over(cq, eps)
        n, r, _ = states.shape
        tau, r2 = best.tau, r * r
        jac = np.zeros(((n + 1) * r2, (n + 1) * r2), dtype=complex)
        for x in range(n):
            block = slice((x + 1) * r2, (x + 2) * r2)
            jac[:r2, block] = np.eye(r2)
            jac[block, :r2] = lyapunov(pis[x])
            jac[block, block] = lyapunov(tau - states[x])
        s = tau - states
        res = np.concatenate([(np.eye(r) - pis.sum(axis=0))[None], -(s @ pis + pis @ s)])
        want = np.linalg.solve(jac, res.reshape(-1)).reshape(n + 1, r, r)
        assert np.abs(ent._kkt_step(states, tau, pis) - want).max() <= 1e-12
    assert ent._kkt_step(np.zeros((2, 3, 3), dtype=complex), np.zeros((3, 3)),
                         np.zeros((2, 3, 3))) is None


def test_i_max_commuting_ensemble_needs_no_newton_stage():
    # classical symbols through a cyclic noise channel with a dominant entry,
    # as in the compare runs: the fixed point certifies within its budget
    for d in (2, 4, 8):
        for c0 in (0.8, 0.9, 0.95):
            noise = np.array([c0] + [(1 - c0) / (d - 1)] * (d - 1))
            conds = [DensityOperator([("B", d)], np.diag(np.roll(noise, x)))
                     for x in range(3)]
            r = ent.i_max_cq(CQState([0, 1, 2], [0.2, 0.3, 0.5], conds), 0.0)
            want = imax_commuting([0.2, 0.3, 0.5], [np.roll(noise, x) for x in range(3)])
            assert r.newton_steps == 0 and r.duality_gap <= 1e-9
            assert abs(r.value - want) <= 1e-9


# (d, symbols, levels of each state's support, eps), each drawn twice under
# its own Haar rotation: joint supports of 3 to 24 levels, some solved with
# the Newton stage and some above NEWTON_MAX_DIM by the fixed point alone
COMMUTING_CASES = [(4, 3, 2, 0.0), (4, 4, 4, 0.1), (8, 3, 4, 0.0), (8, 5, 8, 0.2),
                   (16, 4, 4, 0.0), (16, 5, 8, 0.1), (32, 3, 4, 0.0), (32, 4, 8, 0.1),
                   (64, 3, 8, 0.0)]


def test_i_max_matches_the_commuting_closed_form_up_to_d64():
    rng, smoothed = np.random.default_rng(20261020), []
    for _ in range(2):
        for d, n, levels, eps in COMMUTING_CASES:
            probs, dists = flat_dirichlet(rng, n), np.zeros((n, d))
            for x in range(n):
                dists[x, rng.choice(d, size=levels, replace=False)] = flat_dirichlet(rng, levels)
            u = haar_unitary(standard_complex(ginibre_normals(rng, d, n=1)))[0]
            cq = CQState(range(n), probs, (u * dists[:, None, :]) @ linalg.dagger(u),
                         registers=(("E", d),))
            r = ent.i_max_cq(cq, eps)
            want = imax_commuting(probs.tolist(), dists.tolist(), eps)
            assert r.value - r.duality_gap - 1e-12 <= want <= r.value + 1e-12, (d, n, eps, r)
            smoothed.append(eps > 0 and want != imax_commuting(probs.tolist(), dists.tolist()))
    assert any(smoothed)  # the oracle dropped symbols that moved the value


def test_h_max_smooth_invariant_survives_python_O():
    # the runtime checks must raise named errors even with asserts stripped:
    # the Renyi-1/2 support bound, and a cq stack that does not match its registers
    code = (
        "import numpy as np\n"
        "from puredist import entropy, linalg\n"
        "from puredist.states import CQState\n"
        "entropy.Truncation.h_tilde_max = lambda self: np.log2(self.kept) - 2.0\n"
        "try:\n"
        "    entropy.h_max_smooth(np.eye(4) / 4, 0.1)\n"
        "except linalg.InvariantError as exc:\n"
        "    print('raised', exc)\n"
        "try:\n"
        "    CQState([0, 1], [0.5, 0.5], np.zeros((2, 3, 3)), registers=[('B', 2)])\n"
        "except ValueError as exc:\n"
        "    print('raised', exc)\n")
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    renyi, stack = proc.stdout.splitlines()
    assert renyi.startswith("raised Renyi-1/2")
    assert stack.startswith("raised stack shape (2, 3, 3) does not match")


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
        cons = [tau - c.matrix >> 0 for c in conditionals(cq)]
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
                for i, (p, c) in enumerate(zip(cq.probs, conditionals(cq)))]
        prob = cvxpy.Problem(cvxpy.Minimize(cvxpy.sum(s)), cons)
        prob.solve(solver="SCS", eps=1e-9)
        want = -np.log2(prob.value)
        assert abs(ent.h_min_cq(cq) - want) <= 1e-5


def test_i_max_smoothing_drops_low_mass_symbols(rng):
    rho = random_mixed(rng, 2, "B")
    far = DensityOperator([("B", 2)], np.eye(2) - rho.matrix, validate=False) \
        if abs(np.trace(np.eye(2) - rho.matrix) - 1) < 1e-9 else random_mixed(rng, 2, "B")
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
