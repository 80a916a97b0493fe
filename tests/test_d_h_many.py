"""``entropy.d_h_many``, the stacked D_H solver, against the one-pair-at-a-time
solver it replaced.

``reference_d_h`` keeps that solver inline: ``_Split`` built one split with its
own eigendecomposition, ``_neyman_pearson`` searched one pair's threshold, and
``d_h`` decomposed one pair's rho, sigma and pencil. Every witness field of
``d_h_many`` must keep its bits, whatever else is in the lists.
"""

import warnings

import numpy as np
import pytest

from puredist import entropy as ent
from puredist import linalg
from puredist.sampling import ginibre_density

SUPPORT_TOL = ent.SUPPORT_TOL


class _Split:
    def __init__(self, rh, sh, t, target, smax):
        self.t = t
        w, self.v = linalg._eigh(rh - t * sh)
        rd = (self.v.conj() * (rh @ self.v)).real.sum(axis=0)
        sd = (self.v.conj() * (sh @ self.v)).real.sum(axis=0)
        band = SUPPORT_TOL * max(1.0, t * smax)
        self.pos, self.zero = w > band, np.abs(w) <= band
        self.a, self.b = float(rd[self.pos].sum()), float(rd[self.zero].sum())
        self.above = float(rd[w > 0].sum()) >= target
        self.gamma = 0.0 if self.b <= 1e-15 else min(1.0, max(0.0, (target - self.a) / self.b))
        self.cost = float(sd[self.pos].sum()) + self.gamma * float(sd[self.zero].sum())
        dual = (target - float(w[w > 0].sum())) / t
        ok = self.a + self.b >= target and self.cost > 0 and dual > 0
        self.gap = float(np.log2(self.cost / dual)) if ok else np.inf


def _neyman_pearson(rh, sh, cands, target, smax):
    lo, hi, best = 0.0, np.inf, None
    for n in range(1, ent.DH_MAX_PROBES + 1):
        inside = cands[(cands > lo) & (cands < hi)]
        if len(inside):
            t = 0.5 * float(inside[(len(inside) - 1) // 2] + inside[len(inside) // 2])
        else:
            t = 0.5 * (lo + hi) if hi < np.inf else max(2.0 * lo, 1.0)
        p = _Split(rh, sh, t, target, smax)
        best = p if best is None or p.gap < best.gap else best
        lo, hi = (t, hi) if p.above else (lo, t)
        if p.gap <= ent.DH_GAP_TOL or lo >= hi * (1.0 - 1e-14):
            break
    return best, n


def reference_d_h(rho, sigma, eps):
    r = np.asarray(rho, dtype=complex)
    s = np.asarray(sigma, dtype=complex)
    linalg.psd_eigvals(r)
    ws, vs = linalg.eig_hermitian(s)
    ws = linalg.clip_psd_spectrum(ws)
    target = 1.0 - eps
    ker = vs[:, ws <= SUPPORT_TOL]
    free_mass = float((linalg.dagger(ker) @ r @ ker).trace().real)
    if free_mass >= target - 1e-12:
        return ent.EntropyResult(value=np.inf, witness={"infinite": True, "probes": 0},
                                 method="neyman-pearson")
    if eps == 0.0:
        w, v = linalg.eig_hermitian(r)
        pos = v[:, w > SUPPORT_TOL]
        t, gamma, gap, zero, probes = 0.0, 0.0, 0.0, v[:, :0], 0
        mass = float((linalg.dagger(pos) @ r @ pos).trace().real)
        cost = float((linalg.dagger(pos) @ s @ pos).trace().real)
    else:
        rh, sh = linalg.hermitian_part(r), linalg.hermitian_part(s)
        white = vs[:, ws > SUPPORT_TOL] / np.sqrt(ws[ws > SUPPORT_TOL])
        cands = linalg._eigh(linalg.dagger(white) @ rh @ white)[0]
        p, probes = _neyman_pearson(rh, sh, cands[cands > SUPPORT_TOL], target, float(ws.max()))
        t, gamma, gap, cost = p.t, p.gamma, p.gap, p.cost
        pos, zero, mass = p.v[:, p.pos], p.v[:, p.zero], p.a + p.gamma * p.b
    cost = max(cost, 1e-300)
    test = pos @ linalg.dagger(pos) + gamma * (zero @ linalg.dagger(zero))
    return ent.EntropyResult(
        value=float(-np.log2(cost)),
        witness={"t": t, "gamma": gamma, "test": test, "test_cost": cost,
                 "achieved_mass": mass, "duality_gap": gap, "probes": probes},
        method="neyman-pearson",
    )


def _kernel_mass(rho, sig):
    ws, vs = np.linalg.eigh(sig)
    ker = vs[:, ws <= 1e-12]
    return float(np.real(np.trace(linalg.dagger(ker) @ rho @ ker)))


def _cases(rng):
    """Pairs of sizes 1-12 of every kind the solver tells apart, shuffled."""
    cases = []
    for _ in range(60):  # commuting
        d = int(rng.integers(1, 13))
        cases.append((np.diag(rng.dirichlet(np.ones(d))), np.diag(rng.dirichlet(np.ones(d))),
                      float(rng.choice([0.01, 0.1, 0.3]))))
    for _ in range(40):  # Ginibre
        d = int(rng.integers(2, 11))
        cases.append((ginibre_density(rng, d), ginibre_density(rng, d),
                      float(rng.choice([0.01, 0.1, 0.3]))))
    for _ in range(30):  # singular sigma, free mass below the target
        d, eps = int(rng.integers(2, 10)), float(rng.choice([0.01, 0.1, 0.3]))
        rho, sig = ginibre_density(rng, d), ginibre_density(rng, d, rank=int(rng.integers(1, d)))
        while not 0 < _kernel_mass(rho, sig) < 1 - eps - 1e-6:
            sig = ginibre_density(rng, d, rank=int(rng.integers(1, d)))
        cases.append((rho, sig, eps))
    for _ in range(10):  # free mass at least the target: +inf
        d = int(rng.integers(2, 8))
        k = int(rng.integers(1, d))
        p, q = np.zeros(d), np.zeros(d)
        p[:k], q[k:] = rng.dirichlet(np.ones(k)), rng.dirichlet(np.ones(d - k))
        cases.append((np.diag(p), np.diag(q), 0.1))
    for _ in range(15):  # eps = 0
        d = int(rng.integers(2, 9))
        cases.append((ginibre_density(rng, d, rank=int(rng.integers(1, d + 1))),
                      ginibre_density(rng, d), 0.0))
    for _ in range(10):  # rho = sigma: the whole spectrum in the zero band
        rho = ginibre_density(rng, int(rng.integers(2, 9)))
        cases.append((rho, rho.copy(), float(rng.choice([0.01, 0.1, 0.3]))))
    return [cases[i] for i in rng.permutation(len(cases))]


FIELDS = ("t", "gamma", "test_cost", "achieved_mass", "duality_gap")


def _same(got, want):
    assert got.method == want.method
    assert np.float64(got.value).tobytes() == np.float64(want.value).tobytes()
    assert set(got.witness) == set(want.witness)
    assert got.witness["probes"] == want.witness["probes"]
    assert got.witness.get("infinite") == want.witness.get("infinite")
    for name in FIELDS:
        if name in want.witness:
            assert type(got.witness[name]) is type(want.witness[name]), name
            assert np.float64(got.witness[name]).tobytes() == \
                np.float64(want.witness[name]).tobytes(), name
    if "test" in want.witness:
        assert got.witness["test"].shape == want.witness["test"].shape
        assert got.witness["test"].tobytes() == want.witness["test"].tobytes()


def test_d_h_many_keeps_the_bits_of_the_one_pair_solver(rng):
    with warnings.catch_warnings():
        # the reference does not warn; d_h_many's warnings have a test of their own
        warnings.simplefilter("ignore")
        cases = _cases(rng)
        want = [reference_d_h(*c) for c in cases]
        rhos, sigmas, eps = zip(*cases)
        stacked = ent.d_h_many(list(rhos), list(sigmas), list(eps))
        backwards = ent.d_h_many(list(rhos[::-1]), list(sigmas[::-1]), list(eps[::-1]))[::-1]
        for i, (case, ref) in enumerate(zip(cases, want)):
            for got in (stacked[i], backwards[i], ent.d_h_many([case[0]], [case[1]], [case[2]])[0],
                        ent.d_h(*case)):
                _same(got, ref)
    kinds = [r.witness for r in want]
    assert sum(w.get("infinite", False) for w in kinds) == 10
    assert sum(w.get("probes") == 0 and not w.get("infinite") for w in kinds) == 15
    assert sum(w.get("gamma", 0.0) > 0 for w in kinds) >= 10
    assert max(w["probes"] for w in kinds) > 1


def test_d_h_many_warns_for_each_uncertified_pair(rng, monkeypatch):
    # one probe cannot pin a Ginibre pair's threshold
    monkeypatch.setattr(ent, "DH_MAX_PROBES", 1)
    dims = (3, 4, 3, 5, 4, 6, 3, 2)
    rhos, sigmas = [ginibre_density(rng, d) for d in dims], [ginibre_density(rng, d) for d in dims]
    with pytest.warns(UserWarning, match="not certified") as record:
        out = ent.d_h_many(rhos, sigmas, [0.1] * len(dims))
    gaps = [r.witness["duality_gap"] for r in out]
    uncertified = [g for g in gaps if not g <= ent.DH_GAP_TOL]
    assert len(uncertified) >= 4 and all(r.witness["probes"] == 1 for r in out)
    # one warning per uncertified pair, naming its gap
    want = [f"d_h test not certified: duality gap {g:.3g} bits after 1 probes" for g in uncertified]
    assert sorted(str(w.message) for w in record) == sorted(want)


def test_d_h_many_takes_one_decomposition_per_size_and_round(rng, monkeypatch):
    sizes = []
    orig = linalg._eigh

    def counting(m):
        sizes.append(np.shape(m))
        return orig(m)

    monkeypatch.setattr(linalg, "_eigh", counting)
    dims = [int(d) for d in rng.integers(2, 7, size=40)]
    eps = [0.0 if i % 4 == 0 else 0.1 for i in range(len(dims))]  # eps = 0: no search
    out = ent.d_h_many([np.diag(rng.dirichlet(np.ones(d))) for d in dims],
                       [np.diag(rng.dirichlet(np.ones(d))) for d in dims], eps)
    rounds = {d: max(r.witness["probes"] for r, e in zip(out, dims) if e == d) for d in set(dims)}
    # per size: rho's check (which also gives the eps = 0 tests their support
    # projectors), sigma's decomposition, the pencils, then one per round
    assert [r.witness["probes"] == 0 for r in out] == [e == 0.0 for e in eps]
    assert len(sizes) == sum(3 + n for n in rounds.values())
    assert all(len(s) == 3 for s in sizes)


def test_d_h_many_checks_its_lists():
    rho = np.diag([0.75, 0.25])
    with pytest.raises(ValueError):
        ent.d_h_many([rho, rho], [rho], [0.1, 0.1])
    with pytest.raises(ValueError, match="eps must be in"):
        ent.d_h_many([rho, rho], [rho, rho], [0.1, 1.0])
    assert ent.d_h_many([], [], []) == []
