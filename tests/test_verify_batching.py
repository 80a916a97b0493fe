"""The batched property checks against the per-trial bodies they replace.

Fifteen checks of ``puredist.verify`` draw every trial first, build the
members of their draws (a trial's one matrix, an ensemble's symbols, a
mixture's unitaries) as one stack per member shape, decompose those stacks
whole with one stacked eigendecomposition per matrix size (the D_H check: one
``entropy.d_h_many`` call, one per size and probe round), and solve once
from the spectra written into padded arrays: the H_H checks all their LPs
in one ``entropy.h_h_many`` or ``h_h_cond_cq_many`` call per kind, the
max-entropy checks in one ``entropy.Truncation``, and the H_min check in
one ``h_min_cq_smoothed_many`` call per eps; then they evaluate the slacks
in trial order. ``REFERENCE`` keeps the per-trial bodies they had before,
as the reference: one trial at a time, drawn, decomposed and evaluated in
turn, each value from its own one-state call (``h_h``, ``h_h_cond_cq``,
``h_tilde_max``, ...). Their cq states come from ``per_symbol_random_cq``,
the per-symbol sampler that ``random_cq`` replaced, so a change in
the stacked sampler's bits shows here too, and the D_H check's pairs go
through the one-pair solver that ``d_h_many`` replaced. The spectral checks
take their spectra from LAPACK's eigenvalue-only routine (``linalg.eigvalsh``),
so their references run with ``linalg.psd_eigvals`` and a ``CQState``'s
``spectra`` taking theirs the same way (``_run``). Each batched check must
also leave its generator where its reference leaves it: its loop makes the
same draws, merged into fewer ``normal`` calls at most (a flat
``dirichlet`` call as ``sampling.flat_dirichlet``), and builds the rest
after it.
"""

import numpy as np
import pytest

from puredist import entropy, linalg, verify
from puredist.states import CQState, DensityOperator

import oracles
from oracles import DroppingRng, conditionals, per_symbol_random_cq as random_cq
from test_d_h_many import reference_d_h

TOL = verify.TOL
REFERENCE = {}
PER = {}  # the suite runs a check registered with per > 1 on trials // per trials


def _reference(name, per=1):
    def register(gen):
        REFERENCE[name], PER[name] = gen, per
        return gen
    return register


def _rand_state(rng, d):
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    m = g @ linalg.dagger(g)
    return m / m.trace().real


def _eps(rng):
    return float(rng.choice([0.01, 0.05, 0.1]))


def random_unitary(rng, dim):
    z = (rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    ph = np.diag(r)
    return q * (np.conj(ph) / np.abs(ph))


@_reference("hh-purification-duality")
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


@_reference("hh-pure-tensor-invariance")
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


@_reference("hh-support-sandwich")
def check_hh_support_sandwich(rng, trials, eps):
    """h_tilde_max - 1 <= h_h <= h_tilde_max."""
    for _ in range(trials):
        d = int(rng.integers(2, 9))
        rho = _rand_state(rng, d)
        e = eps or _eps(rng)
        hh = entropy.h_h(rho, e).value
        ht = entropy.h_tilde_max(rho, e)
        yield min(ht + TOL - hh, hh - (ht - 1) + TOL)


@_reference("max-entropy-ordering")
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


@_reference("hh-subadditivity")
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


@_reference("hh-mixed-ancilla-additivity")
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


@_reference("hh-dimension-bound")
def check_hh_dimension_bound(rng, trials, eps):
    """h_h(AB) <= h_h(A) + log2 |B|."""
    for _ in range(trials):
        da, db = rng.integers(2, 5, size=2)
        rho = _rand_state(rng, int(da * db))
        e = eps or _eps(rng)
        lhs = entropy.h_h(rho, e).value
        ra = linalg.partial_trace(rho, [int(da), int(db)], 0)
        yield entropy.h_h(ra, e).value + np.log2(db) - lhs + TOL


@_reference("hh-near-pure-nonpositive")
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
        if linalg.trace_norm(sigma - pure0) > e:
            continue
        yield TOL - entropy.h_h(sigma, e).value


@_reference("hh-cond-pure-nonpositive")
def check_hh_cond_pure(rng, trials, eps):
    """cq states with pure conditionals have H_H(B|X) <= 0."""
    for _ in range(trials):
        cq = random_cq(rng, int(rng.integers(2, 9)), int(rng.integers(2, 6)),
                       pure_conditionals=True)
        e = eps or _eps(rng)
        yield TOL - entropy.h_h_cond_cq(cq, e).value


@_reference("hh-cond-purification-switch")
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


@_reference("hh-cond-data-processing")
def check_hh_cond_data_processing(rng, trials, eps):
    """H_H(B|X) never decreases under dephasing or random-unitary mixing
    applied to the B side."""
    for _ in range(trials):
        db = int(rng.integers(2, 5))
        cq = random_cq(rng, int(rng.integers(2, 5)), db)
        e = eps or _eps(rng)
        base = entropy.h_h_cond_cq(cq, e).value
        deph = CQState(cq.symbols, cq.probs, [DensityOperator(
            c.registers, np.diag(np.diag(c.matrix)), validate=False) for c in conditionals(cq)])
        n_u = int(rng.integers(2, 4))
        us = [random_unitary(rng, db) for _ in range(n_u)]
        ps = rng.dirichlet(np.ones(n_u))
        unital = CQState(cq.symbols, cq.probs, [DensityOperator(
            c.registers,
            sum(p * u @ c.matrix @ linalg.dagger(u) for p, u in zip(ps, us)),
            validate=False) for c in conditionals(cq)])
        yield min(entropy.h_h_cond_cq(deph, e).value - base + TOL,
                  entropy.h_h_cond_cq(unital, e).value - base + TOL)


@_reference("hh-average-to-worst-case")
def check_hh_average_to_worst_case(rng, trials, eps):
    """The symbols obeying the worst-case entropy bound carry probability
    at least 1 - 2 sqrt(eps)."""
    for _ in range(trials):
        cq = random_cq(rng, int(rng.integers(2, 9)), int(rng.integers(2, 5)))
        e = eps or _eps(rng)
        bound = entropy.h_h_cond_cq(cq, e).value - np.log2(e)
        mass = sum(p for p, c in zip(cq.probs, conditionals(cq))
                   if entropy.h_h(c, np.sqrt(e)).value <= bound + 1e-12)
        yield mass - (1 - 2 * np.sqrt(e)) + TOL


@_reference("dh-neyman-pearson-vs-lp")
def check_dh_vs_lp(rng, trials, eps):
    """Neyman-Pearson equals the greedy LP on commuting pairs."""
    for _ in range(trials):
        d = int(rng.integers(2, 9))
        p = rng.dirichlet(np.ones(d))
        q = rng.dirichlet(np.ones(d))
        e = eps or _eps(rng)
        got = reference_d_h(np.diag(p), np.diag(q), e).value
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


@_reference("hmin-truncation-smoothing")
def check_hmin_smoothing(rng, trials, eps):
    """Truncation smoothing only increases H_min and vanishes at eps = 0."""
    for _ in range(trials):
        cq = random_cq(rng, int(rng.integers(2, 6)), int(rng.integers(2, 5)))
        e = eps or _eps(rng)
        base = entropy.h_min_cq(cq)
        yield min(entropy.h_min_cq_smoothed(cq, e) - base + TOL,
                  TOL - abs(entropy.h_min_cq_smoothed(cq, 0.0) - base))


@_reference("condhh-derandomization", per=50)
def check_condhh_derandomization(rng, trials, eps):
    """Promise-based derandomization: most table rows obey the worst-case
    entropy bound 2^{H_H(eps^{1/8})} <= 2^{H_H(B|X)} / eps."""
    e = eps or 0.05
    for _ in range(trials):
        nx = int(rng.integers(2, 5))
        db = int(rng.integers(2, 5))
        cq = random_cq(rng, nx, db)
        reps = int(rng.integers(3, 6))
        K = nx * reps
        sigma_conds = [(1 - e / 4) * rho + e / 4 * _rand_state(rng, db) for rho in cq.stack]
        q_k = np.repeat(cq.probs / reps, reps)
        bound = 2.0 ** entropy.h_h_cond_cq(cq, e).value / e
        uniform_dev = float(np.sum(np.abs(q_k - 1.0 / K)))
        good = 0
        for x in range(nx):
            val = 2.0 ** entropy.h_h(sigma_conds[x], e ** 0.125).value
            good += reps * (val <= bound + 1e-12)
        frac = good / K
        need = 1 - e ** 0.125 - uniform_dev
        yield frac - need + TOL




# the checks that take their spectra in verify._padded_spectra, from LAPACK's
# eigenvalue-only routine, whose bits differ from those of eigh's eigenvalues
SPECTRAL = set(REFERENCE) - {"dh-neyman-pearson-vs-lp"}


def _eigvalsh_spectra(m):
    """The clipped spectra of verify._padded_spectra, where the per-trial
    bodies' states take ``linalg.psd_eigvals`` or a ``CQState``'s ``spectra``."""
    return linalg.clip_psd_spectrum(linalg.eigvalsh(m))


def _run(name, rng, trials, eps, monkeypatch):
    """The CheckResult the suite's harness makes of a check's per-trial body,
    a spectral check's states decomposed as the batched check decomposes them."""
    trials, bad, worst = max(1, trials // PER[name]), 0, np.inf
    with monkeypatch.context() as patch:
        if name in SPECTRAL:
            patch.setattr(linalg, "psd_eigvals", _eigvalsh_spectra)
            patch.setattr(CQState, "spectra", property(lambda cq: _eigvalsh_spectra(cq.stack)))
        for gap in REFERENCE[name](rng, trials, eps):
            worst = min(worst, gap)
            bad += gap < 0
    return verify.CheckResult(name, trials, bad, worst)


def _check(name):
    return verify.SUITE[verify.MANIFEST.index(name)]


def test_reference_covers_the_batched_checks():
    assert len(REFERENCE) == 15 and set(REFERENCE) <= set(verify.MANIFEST)


@pytest.mark.parametrize("name", sorted(REFERENCE))
def test_batched_check_keeps_the_results_of_the_per_trial_body(name, monkeypatch):
    for seed in (1, 2, 3, 4):
        for eps in (None, 0.1):
            batched, loop = np.random.default_rng(seed), np.random.default_rng(seed)
            got = _check(name)(batched, 40 * PER[name], eps)
            want = _run(name, loop, 40 * PER[name], eps, monkeypatch)
            assert (got.trials, got.violations, got.worst) == \
                (want.trials, want.violations, want.worst), (seed, eps)
            # the same draws, and no others: the generator ends where the body leaves it
            assert batched.bit_generator.state == loop.bit_generator.state, (seed, eps)


def _dim(rho):
    return np.shape(getattr(rho, "matrix", rho))[0]


def _shifted(f, shift):
    def faulty(*args):
        out = f(*args)
        if isinstance(out, tuple):  # (values, weights) of a stack, shifted by row position
            values, weights = out  # the stacked solvers take eps last
            return values + shift(np.arange(len(values)), args[-1]), weights
        if isinstance(out, list):  # one result per member of the argument lists
            return [entropy.EntropyResult(r.value + shift(*member), r.witness, r.method)
                    for r, member in zip(out, zip(*args))]
        if isinstance(out, entropy.EntropyResult):
            return entropy.EntropyResult(out.value + shift(*args), out.witness, out.method)
        return out + shift(*args)
    return faulty


def _by_row(rows, eps):
    """A fault of the stacked solvers that grows down the stack: a check's
    states of one trial fill adjacent rows, each later one lower. (Padding
    hides a spectrum's dimension, and a pure state's two marginals share their
    nonzero spectrum, so only the row tells them apart.)"""
    return -10.0 * rows


# per check: the public function (or method of an entropy class) it checks and a
# fault planted in its value
FAULTS = {
    "hh-purification-duality": ("h_h_many", _by_row),
    "hh-pure-tensor-invariance": ("h_h_many", _by_row),
    "hh-support-sandwich": ("Truncation.h_tilde_max", lambda truncation: -10.0),
    "max-entropy-ordering": ("Truncation.h_max_smooth", lambda truncation: 10.0),
    "hh-subadditivity": ("h_h_many", _by_row),
    "hh-mixed-ancilla-additivity": ("h_h_many", _by_row),
    "hh-dimension-bound": ("h_h_many", _by_row),
    "hh-near-pure-nonpositive": ("h_h_many", lambda rows, eps: 1.0),
    "hh-cond-pure-nonpositive": ("h_h_cond_cq_many", lambda rows, eps: 1.0),
    "hh-cond-purification-switch": ("h_h_cond_cq_many", _by_row),
    "hh-cond-data-processing": ("h_h_cond_cq_many", _by_row),
    "hh-average-to-worst-case": ("h_h_many", lambda rows, eps: 10.0),
    "hmin-truncation-smoothing": ("h_min_cq_smoothed_many",
                                  lambda probs, spectra, eps: -10 * np.asarray(eps)),
    "dh-neyman-pearson-vs-lp": ("d_h_many", lambda rho, sigma, eps: 10 * _dim(rho)),
}


@pytest.mark.parametrize("name", sorted(FAULTS))
def test_batched_check_reports_a_fault_in_the_function_it_checks(name, monkeypatch):
    fn, shift = FAULTS[name]
    owner, _, fn = fn.rpartition(".")
    owner = getattr(entropy, owner) if owner else entropy
    clean = _check(name)(np.random.default_rng(5), 30, 0.1)
    monkeypatch.setattr(owner, fn, _shifted(getattr(owner, fn), shift))
    faulty = _check(name)(np.random.default_rng(5), 30, 0.1)
    assert clean.violations == 0 and faulty.violations > 0


@pytest.mark.parametrize("name", sorted(set(REFERENCE) - {"dh-neyman-pearson-vs-lp"}))
def test_batched_check_decomposes_once_per_matrix_size(name, monkeypatch):
    sizes = []
    for fn in ("_eigh", "_eigvalsh"):  # every eigendecomposition passes one of them
        monkeypatch.setattr(linalg, fn, lambda m, _orig=getattr(linalg, fn):
                            sizes.append(np.shape(m)[-1]) or _orig(m))
    for trials in (50, 200):
        sizes.clear()
        _check(name)(np.random.default_rng(6), trials, None)
        assert 0 < len(sizes) <= 2 * len(set(sizes)), (trials, sizes)


@pytest.mark.parametrize("name", sorted(set(REFERENCE) - {"dh-neyman-pearson-vs-lp"}))
def test_batched_check_decomposes_its_build_stacks_whole(name, monkeypatch):
    # no check splits the stacks of its draws' build into per-trial arrays before
    # the decomposition: linalg.per_size gets at most one stack per build call of
    # verify._stacked (one per key of its draws) and output of that call that is
    # a stack of matrices
    outputs, stacks = [], []
    stacked, per_size = verify._stacked, linalg.per_size

    def counting_stacked(f, keys, *draws):
        def counted(*args):
            out = f(*args)
            outputs.append(sum(np.ndim(x) == 3 for x in out) if isinstance(out, tuple) else 1)
            return out
        return stacked(counted, keys, *draws)

    def counting_per_size(f, given):
        stacks.append(len(given))
        return per_size(f, given)

    monkeypatch.setattr(verify, "_stacked", counting_stacked)
    monkeypatch.setattr(linalg, "per_size", counting_per_size)
    for trials in (50, 200):
        outputs.clear()
        stacks.clear()
        _check(name)(np.random.default_rng(6), trials * PER[name], None)
        assert 0 < sum(stacks) <= sum(outputs), (trials, stacks, outputs)


CQ_CHECKS = ("hh-cond-pure-nonpositive", "hh-cond-purification-switch",
             "hh-cond-data-processing", "hh-average-to-worst-case",
             "hmin-truncation-smoothing", "condhh-derandomization")


@pytest.mark.parametrize("name", CQ_CHECKS)
def test_cq_check_builds_no_state_per_trial(name, monkeypatch):
    calls = {"CQState": 0, "random_cq": 0}
    init, sample = CQState.__init__, oracles.random_cq

    def counting_init(self, *args, **kwargs):
        calls["CQState"] += 1
        init(self, *args, **kwargs)

    def counting_sample(*args, **kwargs):
        calls["random_cq"] += 1
        return sample(*args, **kwargs)

    monkeypatch.setattr(CQState, "__init__", counting_init)
    monkeypatch.setattr(oracles, "random_cq", counting_sample)
    assert not hasattr(verify, "random_cq")  # the suite holds no reference of its own
    for trials in (50, 200):
        calls.update(CQState=0, random_cq=0)
        _check(name)(np.random.default_rng(6), trials, None)
        assert calls == {"CQState": 0, "random_cq": 0}, trials


# the derandomization reference indexes its kept conditionals by the number
# of symbols drawn, so a dropped symbol stops it
@pytest.mark.parametrize("name", [n for n in CQ_CHECKS if n != "condhh-derandomization"])
def test_cq_check_drops_a_symbol_as_its_per_trial_body_does(name, monkeypatch):
    # the batched check keeps a dropped symbol at probability 0, where the
    # reference's CQState leaves it out
    drops, init = [], CQState.__init__

    def counting_init(self, symbols, probs, *args, **kwargs):
        init(self, symbols, probs, *args, **kwargs)
        drops.append(len(probs) - len(self))

    monkeypatch.setattr(CQState, "__init__", counting_init)
    for seed in (1, 2):
        batched, loop = DroppingRng(seed, every=3), DroppingRng(seed, every=3)
        got = _check(name)(batched, 40 * PER[name], None)
        drops.clear()
        want = _run(name, loop, 40 * PER[name], None, monkeypatch)
        # not vacuous: the reference really dropped symbols
        assert sum(drops) > 0, seed
        assert (got.trials, got.violations, got.worst) == \
            (want.trials, want.violations, want.worst), seed
        assert batched.bit_generator.state == loop.bit_generator.state, seed


# the most builds of each verify._stacked call of a cq check on 200 trials, one
# per member shape: its conditionals' (the pure marginals', the unitaries' and
# conditionals'), then its probabilities', one per symbol count
MEMBER_SHAPES = {
    "hh-cond-pure-nonpositive": (4, 7),  # d in 2..5 (rank 1), n in 2..8
    "hh-cond-purification-switch": (9, 4),  # (da, db) in 2..4 x 2..4, n in 2..5
    "hh-cond-data-processing": (3, 3),  # db in 2..4, n in 2..4
    "hh-average-to-worst-case": (3, 7),  # d in 2..4, n in 2..8
    "hmin-truncation-smoothing": (3, 4),  # d in 2..4, n in 2..5
    "condhh-derandomization": (3, 3),  # d in 2..4, n in 2..4
}


@pytest.mark.parametrize("name", CQ_CHECKS)
def test_cq_check_builds_once_per_member_shape(name, monkeypatch):
    # the members of the trials' draws (the symbols of an ensemble, the
    # unitaries of a mixture) build together whatever trial drew them
    calls, stacked = [], verify._stacked

    def recording(f, keys, *draws):
        out = stacked(f, keys, *draws)
        # a stack's members are its entries; a vector of probabilities is one
        shapes = {x.shape[1:] if x.ndim > 1 else x.shape for x in draws[0]}
        calls.append((len(out), len(shapes)))
        return out

    monkeypatch.setattr(verify, "_stacked", recording)
    for trials in (50, 200):
        calls.clear()
        _check(name)(np.random.default_rng(6), trials * PER[name], None)
        assert [builds for builds, _ in calls] == [shapes for _, shapes in calls], trials
        assert all(b <= most for (b, _), most in zip(calls, MEMBER_SHAPES[name], strict=True))
    assert tuple(builds for builds, _ in calls) == MEMBER_SHAPES[name]


def test_dh_check_decomposes_once_per_size_and_probe_round(monkeypatch):
    shapes, probes = [], []
    for name in ("_eigh", "_eigvalsh"):  # every eigendecomposition passes one of them
        monkeypatch.setattr(linalg, name, lambda m, _orig=getattr(linalg, name):
                            shapes.append(np.shape(m)) or _orig(m))
    orig = entropy.d_h_many

    def recording(*args):
        out = orig(*args)
        probes.extend(r.witness["probes"] for r in out)
        return out

    monkeypatch.setattr(entropy, "d_h_many", recording)
    for trials in (50, 200):
        shapes.clear()
        probes.clear()
        _check("dh-neyman-pearson-vs-lp")(np.random.default_rng(6), trials, None)
        sizes = {shape[-1] for shape in shapes}
        # per size: rho's check, sigma's decomposition, the pencils, then one a probe round
        assert len(probes) == trials and len(sizes) == 7
        assert 0 < len(shapes) <= len(sizes) * (3 + max(probes)), (trials, len(shapes))
        assert all(len(shape) == 3 for shape in shapes)
