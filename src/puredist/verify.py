"""Property suite for the entropic identities the protocols rely on.

Each check draws random instances and counts violations of one exact
inequality or identity; the suite passes only with zero violations. Each
check registers under its name with ``_check``; ``SUITE`` and ``MANIFEST``
list the registered checks and their names in definition order, so a
missing check is detectable by callers that print the manifest.

The checks that read only spectra run in three steps: draw every trial's
instance, decompose all its operators (``_spectra`` and ``keep_spectra``:
one stacked eigendecomposition per matrix size, each member with the bits of
its own call), then evaluate the slacks in trial order through the public
entropy functions, which take the spectra. The H_H checks solve all their
LPs in one ``entropy.h_h_many`` call on the ``entropy.left_padded`` stack of
spectra and one ``entropy.h_h_cond_cq_many`` call on the cq states,
whichever they need. The D_H check does the same with one
``entropy.d_h_many`` call for all its pairs, one stacked eigendecomposition
per size and probe round.
Each value has the bits of its own one-state call. The draw step keeps the
generator's values: one trial's draws follow the last one's, in the order
of its body, eps included, and no later step draws. A cq state is drawn as
one stack (``random_cq``, or one ``normal`` call for all its conditionals)
and the dephased and mixed ensembles are stacked products of it, so no
draw builds an object per conditional. Every slack is that of the
trial-at-a-time body, bit for bit.
"""

import functools
import zlib
from dataclasses import dataclass

import numpy as np

from . import entropy, linalg
from .compression import Instance, compress_measurement, compress_seeds, validate_compression
from .sampling import (
    basis_povm,
    bell_pair,
    ginibre_density,
    ginibre_matrix,
    haar_unitary,
    purified_input,
    random_cq,
    random_povm,
)
from .states import CQState, PureState, keep_spectra

TOL = 1e-7


@dataclass
class CheckResult:
    name: str
    trials: int
    violations: int
    worst: float  # most negative slack seen (>= 0 means clean pass)

    @property
    def passed(self) -> bool:
        return self.violations == 0


def _eps(rng):
    return float(rng.choice([0.01, 0.05, 0.1]))


def _spectra(mats):
    """The clipped ascending spectra of ``mats`` as one ``entropy.left_padded``
    stack: one stacked decomposition per matrix size, each row with the bits
    of its own call."""
    return entropy.left_padded([w for ws in linalg.per_size(linalg.psd_eigvals,
                                                            [m[None] for m in mats]) for w in ws])


def _h_h(mats, eps, k):
    """The H_H value of each matrix of ``mats`` at its eps, in rows of ``k``
    Python floats: one ``entropy.h_h_many`` call on their ``_spectra``."""
    return entropy.h_h_many(_spectra(mats), eps)[0].reshape(-1, k).tolist()


_CHECKS = {}


def _check(name, *, per):
    """Register a property check under ``name``.

    The decorated generator ``(rng, trials, eps)`` yields one slack per
    tested case (negative means a violation). The registered function runs
    it on ``trials`` trials, or ``max(1, trials // per)`` for the costly
    checks with ``per > 1``, and returns the ``CheckResult`` with the
    number of negative slacks and the most negative one.
    """
    def register(gen):
        @functools.wraps(gen)
        def check(rng, trials, eps=None):
            if per > 1:
                trials = max(1, trials // per)
            bad, worst = 0, np.inf
            # with no trials there is nothing to draw, and h_h_cond_cq_many needs a state
            for gap in gen(rng, trials, eps) if trials > 0 else ():
                worst = min(worst, gap)
                bad += gap < 0
            return CheckResult(name, trials, bad, worst)
        _CHECKS[name] = check
        return check
    return register


@_check("hh-purification-duality", per=1)
def check_hh_purification_duality(rng, trials, eps):
    """Both marginals of a random pure bipartite state share one H_H."""
    mats, es = [], []
    for _ in range(trials):
        da, dr = rng.integers(2, 9, size=2)
        v = rng.normal(size=(int(da), int(dr))) + 1j * rng.normal(size=(int(da), int(dr)))
        v /= np.linalg.norm(v)
        mats += (v @ linalg.dagger(v), v.T @ np.conj(v))
        es += [eps or _eps(rng)] * 2
    for ha, hr in _h_h(mats, es, 2):
        yield TOL - abs(ha - hr)


@_check("hh-pure-tensor-invariance", per=1)
def check_hh_pure_tensor(rng, trials, eps):
    """Tensoring a pure state on leaves H_H unchanged."""
    mats, es = [], []
    for _ in range(trials):
        d = int(rng.integers(2, 7))
        rho = ginibre_density(rng, d)
        v = rng.normal(size=3) + 1j * rng.normal(size=3)
        v /= np.linalg.norm(v)
        mats += (np.kron(rho, np.outer(v, np.conj(v))), rho)
        es += [eps or _eps(rng)] * 2
    for joint, single in _h_h(mats, es, 2):
        yield TOL - abs(joint - single)


@_check("hh-support-sandwich", per=1)
def check_hh_support_sandwich(rng, trials, eps):
    """h_tilde_max - 1 <= h_h <= h_tilde_max."""
    cases = [(ginibre_density(rng, int(rng.integers(2, 9))), eps or _eps(rng))
             for _ in range(trials)]
    ws, es = _spectra([rho for rho, _ in cases]), [e for _, e in cases]
    for w, e, hh in zip(ws, es, entropy.h_h_many(ws, es)[0].tolist()):
        ht = entropy.h_tilde_max(w, e)
        yield min(ht + TOL - hh, hh - (ht - 1) + TOL)


@_check("max-entropy-ordering", per=1)
def check_max_entropy_ordering(rng, trials, eps):
    """h_max_smooth <= h_tilde_max <= h_prime_max <= log2(d/eps)."""
    cases = [(ginibre_density(rng, int(rng.integers(2, 9))), eps or _eps(rng))
             for _ in range(trials)]
    for (rho, e), w in zip(cases, _spectra([rho for rho, _ in cases])):
        hm = entropy.h_max_smooth(w, e)
        ht = entropy.h_tilde_max(w, e)
        hp = entropy.h_prime_max(w, e)
        cap = np.log2(len(rho) / e)
        yield min(ht - hm + TOL, hp - ht + TOL, cap - hp + TOL)


@_check("hh-subadditivity", per=1)
def check_hh_subadditivity(rng, trials, eps):
    """h_h(AB, 3 sqrt(eps)) <= h_h(A, eps) + h_h(B, eps)."""
    mats, es = [], []
    for _ in range(trials):
        da, db = rng.integers(2, 5, size=2)
        rho = ginibre_density(rng, int(da * db))
        mats += (rho, linalg.partial_trace(rho, [int(da), int(db)], 0),
                 linalg.partial_trace(rho, [int(da), int(db)], 1))
        e = eps or _eps(rng)
        es += (min(3 * np.sqrt(e), 0.999), e, e)
    for lhs, ha, hb in _h_h(mats, es, 3):
        yield ha + hb - lhs + TOL


@_check("hh-mixed-ancilla-additivity", per=1)
def check_hh_mixed_ancilla_additivity(rng, trials, eps):
    """h_h(rho (x) I/|B|, eps) = h_h(rho, eps) + log2 |B| exactly."""
    mats, es, dbs = [], [], []
    for _ in range(trials):
        d = int(rng.integers(2, 6))
        db = int(rng.integers(2, 5))
        rho = ginibre_density(rng, d)
        mats += (np.kron(rho, np.eye(db) / db), rho)
        es += [eps or _eps(rng)] * 2
        dbs.append(db)
    for (lhs, h), db in zip(_h_h(mats, es, 2), dbs):
        yield 1e-9 - abs(lhs - (h + np.log2(db)))


@_check("hh-dimension-bound", per=1)
def check_hh_dimension_bound(rng, trials, eps):
    """h_h(AB) <= h_h(A) + log2 |B|."""
    mats, es, dbs = [], [], []
    for _ in range(trials):
        da, db = rng.integers(2, 5, size=2)
        rho = ginibre_density(rng, int(da * db))
        mats += (rho, linalg.partial_trace(rho, [int(da), int(db)], 0))
        es += [eps or _eps(rng)] * 2
        dbs.append(db)
    for (lhs, ha), db in zip(_h_h(mats, es, 2), dbs):
        yield ha + np.log2(db) - lhs + TOL


@_check("hh-near-pure-nonpositive", per=1)
def check_hh_near_pure(rng, trials, eps):
    """States eps-close to |0><0| have h_h <= 0."""
    cases = []
    for _ in range(trials):
        d = int(rng.integers(2, 7))
        e = eps or _eps(rng)
        junk = ginibre_density(rng, d)
        delta = e / 2 * rng.uniform(0.0, 1.0)
        sigma = np.zeros((d, d), dtype=complex)
        sigma[0, 0] = 1 - delta
        sigma = sigma + delta * junk
        pure0 = np.zeros((d, d))
        pure0[0, 0] = 1.0
        cases.append((sigma, pure0, e))
    # the trace distances, as linalg.trace_distance takes them
    dists = linalg.per_size(linalg.trace_norm, [(sigma - pure0)[None]
                                                for sigma, pure0, _ in cases])
    cases = [(sigma, e) for (sigma, _, e), dist in zip(cases, dists) if not dist[0] > e]
    for (h,) in _h_h([sigma for sigma, _ in cases], [e for _, e in cases], 1):
        yield TOL - h


@_check("hh-cond-pure-nonpositive", per=1)
def check_hh_cond_pure(rng, trials, eps):
    """cq states with pure conditionals have H_H(B|X) <= 0."""
    cases = [(random_cq(rng, int(rng.integers(2, 9)), int(rng.integers(2, 6)),
                        pure_conditionals=True), eps or _eps(rng)) for _ in range(trials)]
    for h in entropy.h_h_cond_cq_many([cq for cq, _ in cases], [e for _, e in cases])[0].tolist():
        yield TOL - h


@_check("hh-cond-purification-switch", per=1)
def check_hh_cond_purification_switch(rng, trials, eps):
    """For bipartite pure conditionals, H_H(B|X) = H_H(A|X)."""
    cqs, es = [], []
    for _ in range(trials):
        n = int(rng.integers(2, 6))
        da, db = (int(d) for d in rng.integers(2, 5, size=2))
        probs = rng.dirichlet(np.ones(n))
        z = rng.normal(size=(n, 2, da, db))
        v = z[:, 0] + 1j * z[:, 1]
        v = v / np.array([np.linalg.norm(m) for m in v])[:, None, None]
        cqs += (CQState(range(n), probs, v @ linalg.dagger(v), registers=[("A", da)]),
                CQState(range(n), probs, v.swapaxes(1, 2) @ np.conj(v), registers=[("B", db)]))
        es += [eps or _eps(rng)] * 2
    for ha, hb in entropy.h_h_cond_cq_many(cqs, es)[0].reshape(-1, 2).tolist():
        yield TOL - abs(ha - hb)


@_check("hh-cond-data-processing", per=1)
def check_hh_cond_data_processing(rng, trials, eps):
    """H_H(B|X) never decreases under dephasing or random-unitary mixing
    applied to the B side."""
    cases = []
    for _ in range(trials):
        db = int(rng.integers(2, 5))
        cq = random_cq(rng, int(rng.integers(2, 5)), db)
        e = eps or _eps(rng)
        zs = np.array([ginibre_matrix(rng, db) for _ in range(int(rng.integers(2, 4)))])
        cases.append((cq, zs, rng.dirichlet(np.ones(len(zs))), e))
    unitaries = linalg.per_size(haar_unitary, [zs for _, zs, _, _ in cases])
    es = np.repeat([e for *_, e in cases], 3)
    # dephased: the diagonal kept, +0 elsewhere, as np.diag(np.diag(rho)) has it
    cases = [(cq, CQState(cq.symbols, cq.probs, np.where(np.eye(len(us[0]), dtype=bool),
                                                         cq.stack, 0), registers=cq.registers),
              _mixed(cq, ps, us)) for (cq, _, ps, _), us in zip(cases, unitaries)]
    values = entropy.h_h_cond_cq_many([cq for case in cases for cq in case], es)[0]
    for base, deph, unital in values.reshape(-1, 3).tolist():
        yield min(deph - base + TOL, unital - base + TOL)


def _mixed(cq, ps, us):
    """``cq`` with each conditional rho mixed to sum_j p_j u_j rho u_j^dag,
    the terms of all conditionals in one stacked product, summed in the order
    of ``sum`` over j."""
    terms = (ps[:, None, None] * us) @ cq.stack[:, None] @ linalg.dagger(us)
    return CQState(cq.symbols, cq.probs, sum(terms[:, j] for j in range(len(us))),
                   registers=cq.registers)


@_check("hh-average-to-worst-case", per=1)
def check_hh_average_to_worst_case(rng, trials, eps):
    """The symbols obeying the worst-case entropy bound carry probability
    at least 1 - 2 sqrt(eps)."""
    cases = [(random_cq(rng, int(rng.integers(2, 9)), int(rng.integers(2, 5))),
              eps or _eps(rng)) for _ in range(trials)]
    cqs, es = [cq for cq, _ in cases], [e for _, e in cases]
    bounds = (entropy.h_h_cond_cq_many(cqs, es)[0] - np.log2(es)).tolist()
    ws = entropy.left_padded([w for cq in cqs for w in cq.spectra])  # every conditional's
    hs = iter(entropy.h_h_many(ws, np.repeat(np.sqrt(es), [len(cq) for cq in cqs]))[0].tolist())
    for cq, bound, e in zip(cqs, bounds, es):
        # zip draws a probability first, so a state reads only its own rows of hs
        mass = sum(p for p, h in zip(cq.probs, hs) if h <= bound + 1e-12)
        yield mass - (1 - 2 * np.sqrt(e)) + TOL


@_check("dh-neyman-pearson-vs-lp", per=1)
def check_dh_vs_lp(rng, trials, eps):
    """Neyman-Pearson equals the greedy LP on commuting pairs."""
    cases = []
    for _ in range(trials):
        d = int(rng.integers(2, 9))
        cases.append((rng.dirichlet(np.ones(d)), rng.dirichlet(np.ones(d)), eps or _eps(rng)))
    results = entropy.d_h_many([np.diag(p) for p, _, _ in cases],
                               [np.diag(q) for _, q, _ in cases], [e for _, _, e in cases])
    for (p, q, e), result in zip(cases, results):
        p, q, got = p.tolist(), q.tolist(), result.value  # Python floats: the same bits, faster
        order = sorted(range(len(p)), key=lambda i: -p[i] / max(q[i], 1e-300))
        need, cost = 1 - e, 0.0
        for i in order:
            if need <= 1e-15:
                break
            take = min(1.0, need / p[i]) if p[i] > 0 else 0.0
            cost += take * q[i]
            need -= take * p[i]
        want = -np.log2(cost) if cost > 0 else np.inf
        yield 1e-8 - abs(got - want)


@_check("hmin-truncation-smoothing", per=1)
def check_hmin_smoothing(rng, trials, eps):
    """Truncation smoothing only increases H_min and vanishes at eps = 0."""
    cases = [(random_cq(rng, int(rng.integers(2, 6)), int(rng.integers(2, 5))),
              eps or _eps(rng)) for _ in range(trials)]
    keep_spectra(cq for cq, _ in cases)
    for cq, e in cases:
        base = entropy.h_min_cq(cq)
        yield min(entropy.h_min_cq_smoothed(cq, e) - base + TOL,
                  TOL - abs(entropy.h_min_cq_smoothed(cq, 0.0) - base))


@_check("compression-povm-validity", per=50)
def check_compression_povm_validity(rng, trials, eps):
    """Every generated row is a genuine POVM: PSD elements summing to I."""
    for t in range(trials):
        d = int(rng.integers(2, 5))
        vec = rng.normal(size=d * d * 2) + 1j * rng.normal(size=d * d * 2)
        vec /= np.linalg.norm(vec)
        psi = PureState([("A", d), ("B", d), ("R", 2)], vec)
        povm = random_povm(rng, d, int(rng.integers(2, 4)))
        # eps plays no part in the table
        cm = compress_measurement(Instance(psi, povm, 0.5), K=3, L=6,
                                  seed=int(rng.integers(1 << 30)))
        for k in range(cm.K):
            row = cm.elements[k]
            total = sum(row)
            gap = 1e-8 - float(np.max(np.abs(total - np.eye(d))))
            # min(a + c, b + c) is min(a, b) + c in floating point too
            w = linalg.eigvals_hermitian(row, tol=1e-7)
            yield min(gap, float(np.min(w)) + 1e-9)


@_check("compression-bot-mass", per=100)
def check_compression_bot_mass(rng, trials, eps):
    """At the compression rate thresholds (slack 4 log2(1/eps)) the failure
    outcome keeps median probability below 5 eps."""
    e = eps or 0.5
    inst = Instance(purified_input(bell_pair()), basis_povm(2, "A"), e)
    for t in range(trials):
        views = compress_seeds(inst, 2, 32, range(1000 * t, 1000 * t + 8))
        bots = [float(np.sum(cm.q_kl[:, -1])) for cm in views]
        yield 5 * e - float(np.median(bots))


@_check("compression-pair-closeness", per=100)
def check_compression_pair_closeness(rng, trials, eps):
    """Per-pair simulated-vs-ideal state distance does not grow in the
    median when L doubles (paired seeds share table cells)."""
    e = eps or 0.1
    inst = Instance(purified_input(bell_pair()), basis_povm(2, "A"), e)
    for t in range(trials):
        meds = []
        for L in (8, 16, 32):
            ds = [validate_compression(cm).per_pair_state_dist
                  for cm in compress_seeds(inst, 2, L, range(500 * t, 500 * t + 8))]
            meds.append(float(np.median(ds)))
        yield min(meds[i] - meds[i + 1] + 1e-12 for i in range(len(meds) - 1))


@_check("condhh-derandomization", per=50)
def check_condhh_derandomization(rng, trials, eps):
    """Promise-based derandomization: when per-symbol states and the table
    distribution are close to ideal, most table rows obey the worst-case
    entropy bound 2^{H_H(eps^{1/8})} <= 2^{H_H(B|X)} / eps."""
    e = eps or 0.05
    cases = []
    for _ in range(trials):
        nx, db = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        cq = random_cq(rng, nx, db)
        # build a K-table whose rows decode to symbols with Q close to P
        reps = int(rng.integers(3, 6))
        cases.append((cq, reps, [(1 - e / 4) * rho + e / 4 * ginibre_density(rng, db)
                                 for rho in cq.stack]))
    bounds = entropy.h_h_cond_cq_many([cq for cq, _, _ in cases], e)[0].tolist()
    sigmas = _spectra([sigma for *_, sigma_conds in cases for sigma in sigma_conds])
    hs = iter(entropy.h_h_many(sigmas, e ** 0.125)[0].tolist())
    for (cq, reps, _), h_cond in zip(cases, bounds):
        K = len(cq) * reps
        q_k = np.repeat(cq.probs / reps, reps)  # f(k) = x for each block
        bound = 2.0 ** h_cond / e
        uniform_dev = float(np.sum(np.abs(q_k - 1.0 / K)))
        good = reps * sum(2.0 ** next(hs) <= bound + 1e-12 for _ in range(len(cq)))
        need = 1 - e ** 0.125 - uniform_dev
        yield good / K - need + TOL


SUITE = tuple(_CHECKS.values())
MANIFEST = tuple(_CHECKS)


def run_suite(trials: int = 1000, eps: float | None = None, seed: int = 7) -> list:
    """Run every registered check; returns the list of CheckResults."""
    results = []
    for fn in SUITE:
        # keyed on a stable checksum: str hashes are salted per process
        key = zlib.crc32(fn.__name__.encode())
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(key,)))
        results.append(fn(rng, trials, eps))
    return results
