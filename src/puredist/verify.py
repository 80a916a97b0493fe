"""Property suite for the entropic identities the protocols rely on.

Each check draws random instances and counts violations of one exact
inequality or identity; the suite passes only with zero violations. Each
check registers under its name with ``_check``; ``SUITE`` and ``MANIFEST``
list the registered checks and their names in definition order, so a
missing check is detectable by callers that print the manifest.
"""

import functools
import zlib
from dataclasses import dataclass

import numpy as np

from . import entropy, linalg
from .compression import Instance, compress_measurement, validate_compression
from .sampling import (
    basis_povm,
    ginibre_density,
    random_cq,
    random_density,
    random_povm,
    random_unitary,
)
from .states import CQState, DensityOperator, PureState

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


def _rand_state(rng, d):
    return ginibre_density(rng, d)


def _eps(rng):
    return float(rng.choice([0.01, 0.05, 0.1]))


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
            for gap in gen(rng, trials, eps):
                worst = min(worst, gap)
                bad += gap < 0
            return CheckResult(name, trials, bad, worst)
        _CHECKS[name] = check
        return check
    return register


@_check("hh-purification-duality", per=1)
def check_hh_purification_duality(rng, trials, eps):
    """Both marginals of a random pure bipartite state share one H_H."""
    for _ in range(trials):
        da, dr = rng.integers(2, 9, size=2)
        v = rng.normal(size=(int(da), int(dr))) + 1j * rng.normal(size=(int(da), int(dr)))
        v /= np.linalg.norm(v)
        e = eps or _eps(rng)
        ha = entropy.h_h(v @ linalg.dagger(v), e).value
        hr = entropy.h_h(v.T @ np.conj(v), e).value
        yield TOL - abs(ha - hr)


@_check("hh-pure-tensor-invariance", per=1)
def check_hh_pure_tensor(rng, trials, eps):
    """Tensoring a pure state on leaves H_H unchanged."""
    for _ in range(trials):
        d = int(rng.integers(2, 7))
        rho = _rand_state(rng, d)
        v = rng.normal(size=3) + 1j * rng.normal(size=3)
        v /= np.linalg.norm(v)
        e = eps or _eps(rng)
        lhs = entropy.h_h(np.kron(rho, np.outer(v, np.conj(v))), e).value
        rhs = entropy.h_h(rho, e).value
        yield TOL - abs(lhs - rhs)


@_check("hh-support-sandwich", per=1)
def check_hh_support_sandwich(rng, trials, eps):
    """h_tilde_max - 1 <= h_h <= h_tilde_max."""
    for _ in range(trials):
        d = int(rng.integers(2, 9))
        rho = _rand_state(rng, d)
        e = eps or _eps(rng)
        hh = entropy.h_h(rho, e).value
        ht = entropy.h_tilde_max(rho, e)
        yield min(ht + TOL - hh, hh - (ht - 1) + TOL)


@_check("max-entropy-ordering", per=1)
def check_max_entropy_ordering(rng, trials, eps):
    """h_max_smooth <= h_tilde_max <= h_prime_max <= log2(d/eps)."""
    for _ in range(trials):
        d = int(rng.integers(2, 9))
        rho = _rand_state(rng, d)
        e = eps or _eps(rng)
        hm = entropy.h_max_smooth(rho, e)
        ht = entropy.h_tilde_max(rho, e)
        hp = entropy.h_prime_max(rho, e)
        cap = np.log2(d / e)
        yield min(ht - hm + TOL, hp - ht + TOL, cap - hp + TOL)


@_check("hh-subadditivity", per=1)
def check_hh_subadditivity(rng, trials, eps):
    """h_h(AB, 3 sqrt(eps)) <= h_h(A, eps) + h_h(B, eps)."""
    for _ in range(trials):
        da, db = rng.integers(2, 5, size=2)
        rho = _rand_state(rng, int(da * db))
        e = eps or _eps(rng)
        lhs = entropy.h_h(rho, min(3 * np.sqrt(e), 0.999)).value
        ra = linalg.partial_trace(rho, [int(da), int(db)], 0)
        rb = linalg.partial_trace(rho, [int(da), int(db)], 1)
        rhs = entropy.h_h(ra, e).value + entropy.h_h(rb, e).value
        yield rhs - lhs + TOL


@_check("hh-mixed-ancilla-additivity", per=1)
def check_hh_mixed_ancilla_additivity(rng, trials, eps):
    """h_h(rho (x) I/|B|, eps) = h_h(rho, eps) + log2 |B| exactly."""
    for _ in range(trials):
        d = int(rng.integers(2, 6))
        db = int(rng.integers(2, 5))
        rho = _rand_state(rng, d)
        e = eps or _eps(rng)
        lhs = entropy.h_h(np.kron(rho, np.eye(db) / db), e).value
        rhs = entropy.h_h(rho, e).value + np.log2(db)
        yield 1e-9 - abs(lhs - rhs)


@_check("hh-dimension-bound", per=1)
def check_hh_dimension_bound(rng, trials, eps):
    """h_h(AB) <= h_h(A) + log2 |B|."""
    for _ in range(trials):
        da, db = rng.integers(2, 5, size=2)
        rho = _rand_state(rng, int(da * db))
        e = eps or _eps(rng)
        lhs = entropy.h_h(rho, e).value
        ra = linalg.partial_trace(rho, [int(da), int(db)], 0)
        yield entropy.h_h(ra, e).value + np.log2(db) - lhs + TOL


@_check("hh-near-pure-nonpositive", per=1)
def check_hh_near_pure(rng, trials, eps):
    """States eps-close to |0><0| have h_h <= 0."""
    for _ in range(trials):
        d = int(rng.integers(2, 7))
        e = eps or _eps(rng)
        junk = _rand_state(rng, d)
        delta = e / 2 * rng.uniform(0.0, 1.0)
        sigma = np.zeros((d, d), dtype=complex)
        sigma[0, 0] = 1 - delta
        sigma = sigma + delta * junk
        pure0 = np.zeros((d, d))
        pure0[0, 0] = 1.0
        if linalg.trace_distance(sigma, pure0) > e:
            continue
        yield TOL - entropy.h_h(sigma, e).value


@_check("hh-cond-pure-nonpositive", per=1)
def check_hh_cond_pure(rng, trials, eps):
    """cq states with pure conditionals have H_H(B|X) <= 0."""
    for _ in range(trials):
        cq = random_cq(rng, int(rng.integers(2, 9)), int(rng.integers(2, 6)),
                       pure_conditionals=True)
        e = eps or _eps(rng)
        yield TOL - entropy.h_h_cond_cq(cq, e).value


@_check("hh-cond-purification-switch", per=1)
def check_hh_cond_purification_switch(rng, trials, eps):
    """For bipartite pure conditionals, H_H(B|X) = H_H(A|X)."""
    for _ in range(trials):
        n = int(rng.integers(2, 6))
        da, db = rng.integers(2, 5, size=2)
        probs = rng.dirichlet(np.ones(n))
        conds_a, conds_b = [], []
        for _ in range(n):
            v = rng.normal(size=(int(da), int(db))) + 1j * rng.normal(size=(int(da), int(db)))
            v /= np.linalg.norm(v)
            conds_a.append(DensityOperator([("A", int(da))], v @ linalg.dagger(v), validate=False))
            conds_b.append(DensityOperator([("B", int(db))], v.T @ np.conj(v), validate=False))
        e = eps or _eps(rng)
        ha = entropy.h_h_cond_cq(CQState(range(n), probs, conds_a), e).value
        hb = entropy.h_h_cond_cq(CQState(range(n), probs, conds_b), e).value
        yield TOL - abs(ha - hb)


@_check("hh-cond-data-processing", per=1)
def check_hh_cond_data_processing(rng, trials, eps):
    """H_H(B|X) never decreases under dephasing or random-unitary mixing
    applied to the B side."""
    for _ in range(trials):
        db = int(rng.integers(2, 5))
        cq = random_cq(rng, int(rng.integers(2, 5)), db)
        e = eps or _eps(rng)
        base = entropy.h_h_cond_cq(cq, e).value
        deph = cq.map_conditionals(lambda c: DensityOperator(
            c.registers, np.diag(np.diag(c.matrix)), validate=False))
        n_u = int(rng.integers(2, 4))
        us = [random_unitary(rng, db) for _ in range(n_u)]
        ps = rng.dirichlet(np.ones(n_u))
        unital = cq.map_conditionals(lambda c: DensityOperator(
            c.registers,
            sum(p * u @ c.matrix @ linalg.dagger(u) for p, u in zip(ps, us)),
            validate=False))
        yield min(entropy.h_h_cond_cq(deph, e).value - base + TOL,
                  entropy.h_h_cond_cq(unital, e).value - base + TOL)


@_check("hh-average-to-worst-case", per=1)
def check_hh_average_to_worst_case(rng, trials, eps):
    """The symbols obeying the worst-case entropy bound carry probability
    at least 1 - 2 sqrt(eps)."""
    for _ in range(trials):
        cq = random_cq(rng, int(rng.integers(2, 9)), int(rng.integers(2, 5)))
        e = eps or _eps(rng)
        bound = entropy.h_h_cond_cq(cq, e).value - np.log2(e)
        mass = sum(p for p, c in zip(cq.probs, cq.conditionals)
                   if entropy.h_h(c, np.sqrt(e)).value <= bound + 1e-12)
        yield mass - (1 - 2 * np.sqrt(e)) + TOL


@_check("dh-neyman-pearson-vs-lp", per=1)
def check_dh_vs_lp(rng, trials, eps):
    """Neyman-Pearson equals the greedy LP on commuting pairs."""
    for _ in range(trials):
        d = int(rng.integers(2, 9))
        p = rng.dirichlet(np.ones(d))
        q = rng.dirichlet(np.ones(d))
        e = eps or _eps(rng)
        got = entropy.d_h(np.diag(p), np.diag(q), e).value
        order = sorted(range(d), key=lambda i: -p[i] / max(q[i], 1e-300))
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
    for _ in range(trials):
        cq = random_cq(rng, int(rng.integers(2, 6)), int(rng.integers(2, 5)))
        e = eps or _eps(rng)
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
            row = cm.thetas[k]
            total = sum(row)
            gap = 1e-8 - float(np.max(np.abs(total - np.eye(d))))
            for elem in row:
                w = linalg.eigvals_hermitian(elem, tol=1e-7)
                gap = min(gap, float(np.min(w)) + 1e-9)
            yield gap


@_check("compression-bot-mass", per=100)
def check_compression_bot_mass(rng, trials, eps):
    """At the compression rate thresholds (slack 4 log2(1/eps)) the failure
    outcome keeps median probability below 5 eps."""
    from .sampling import bell_pair, purified_input
    e = eps or 0.5
    inst = Instance(purified_input(bell_pair()), basis_povm(2, "A"), e)
    for t in range(trials):
        bots = []
        for s in range(8):
            cm = compress_measurement(inst, K=2, L=32, seed=1000 * t + s)
            bots.append(float(np.sum(cm.q_kl[:, -1])))
        yield 5 * e - float(np.median(bots))


@_check("compression-pair-closeness", per=100)
def check_compression_pair_closeness(rng, trials, eps):
    """Per-pair simulated-vs-ideal state distance does not grow in the
    median when L doubles (paired seeds share table cells)."""
    from .sampling import bell_pair, purified_input
    e = eps or 0.1
    inst = Instance(purified_input(bell_pair()), basis_povm(2, "A"), e)
    for t in range(trials):
        meds = []
        for L in (8, 16, 32):
            ds = [validate_compression(inst.compression(2, L, 500 * t + s))
                  .per_pair_state_dist for s in range(8)]
            meds.append(float(np.median(ds)))
        yield min(meds[i] - meds[i + 1] + 1e-12 for i in range(len(meds) - 1))


@_check("condhh-derandomization", per=50)
def check_condhh_derandomization(rng, trials, eps):
    """Promise-based derandomization: when per-symbol states and the table
    distribution are close to ideal, most table rows obey the worst-case
    entropy bound 2^{H_H(eps^{1/8})} <= 2^{H_H(B|X)} / eps."""
    e = eps or 0.05
    for _ in range(trials):
        nx = int(rng.integers(2, 5))
        db = int(rng.integers(2, 5))
        cq = random_cq(rng, nx, db)
        # build a K-table whose rows decode to symbols with Q close to P
        reps = int(rng.integers(3, 6))
        K = nx * reps
        delta = 0.0
        sigma_conds = []
        for c in cq.conditionals:
            pert = _rand_state(rng, db)
            mixed = (1 - e / 4) * c.matrix + e / 4 * pert
            sigma_conds.append(DensityOperator(c.registers, mixed, validate=False))
            delta = max(delta, linalg.trace_distance(c.matrix, mixed))
        q_k = np.repeat(cq.probs / reps, reps)  # f(k) = x for each block
        bound = 2.0 ** entropy.h_h_cond_cq(cq, e).value / e
        uniform_dev = float(np.sum(np.abs(q_k - 1.0 / K)))
        good = 0
        for x in range(nx):
            val = 2.0 ** entropy.h_h(sigma_conds[x], e ** 0.125).value
            good += reps * (val <= bound + 1e-12)
        frac = good / K
        need = 1 - e ** 0.125 - uniform_dev
        yield frac - need + TOL


SUITE = tuple(_CHECKS.values())
MANIFEST = tuple(_CHECKS)


def run_suite(trials: int = 1000, eps: float | None = None, seed: int = 7,
              checks=None) -> list:
    """Run every registered check; returns the list of CheckResults."""
    results = []
    for fn in (checks or SUITE):
        # keyed on a stable checksum: str hashes are salted per process
        key = zlib.crc32(fn.__name__.encode())
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(key,)))
        results.append(fn(rng, trials, eps))
    return results
