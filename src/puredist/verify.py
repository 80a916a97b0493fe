"""Property suite for the entropic identities the protocols rely on.

Each check draws random instances and counts violations of one exact
inequality or identity; the suite passes only with zero violations. Each
check registers under its name with ``_check``; ``SUITE`` and ``MANIFEST``
list the registered checks and their names in definition order, so a
missing check is detectable by callers that print the manifest.

The checks that read only spectra run in three steps: draw every trial's
instance, build and decompose, then solve. The draw step keeps the
generator's values: one trial's draws follow the last one's, in the order
of its body, eps included, and no later step draws. Its loop over trials
makes only the generator calls (one ``sampling.ginibre_normals`` call
where the body drew the real and imaginary parts of complex Gaussians; a cq
state's two, ``sampling.cq_draws``; ``sampling.flat_dirichlet`` where it
drew ``dirichlet(np.ones(n))``; two scalar ``integers(lo, hi)`` calls
where it drew ``integers(lo, hi, size=2)``, and ``random()`` where it drew
``uniform(0.0, 1.0)``, each with the values and generator state of the
form it replaces, at a fraction of its cost). Everything derived from the draws is built
after the loop by ``_stacked``, which concatenates the members of the
trials' draws (a trial's one matrix, the symbols of a cq ensemble, the
unitaries of a mixture) and builds them once per shape their arithmetic
depends on (``linalg.groups``), each member with the bits of its one-trial
call, handing back each group's trial indices and its output stacks. The
cq conditionals build once per (d, rank) (``sampling.cq_conditionals``;
the checks that draw one cq state and one eps a trial share that draw and
build in ``_cq_cases``), the probabilities once per symbol count
(``sampling.cq_probs``, a symbol that a ``CQState`` drops kept at
probability 0), the pure marginals once per (d_A, d_B), and the
data-processing check's Haar unitaries (one stacked QR), conditionals and
their dephased and mixed forms once per size. The builds also cover the
complex matrices and Ginibre densities of the draws
(``sampling.complex_normals``, ``standard_complex`` and ``ginibre_gram``),
the pure states' norms (``linalg.row_norms``), the Kronecker products
(``linalg.kron``) and the partial traces; a check whose trials draw one
matrix of a kind each builds per trial key, a size or a pair of dims. No
check splits those stacks into per-trial arrays: they go whole into one
``linalg.per_size`` call (one stacked eigendecomposition per matrix size,
each member with the bits of its own call), and their spectra are written
by row index into the padded arrays the stacked solvers take
(``_padded_spectra``, ``_cq_arrays``). Those spectra come from
``linalg.eigvalsh``, LAPACK's eigenvalue-only routine, not from the
``linalg.psd_eigvals`` that a state's own spectrum takes (eigh's
eigenvalues): the eigenvectors would go unread, and a slack reaches no
protocol output, so its last bits may follow the routine. The H_H checks
solve all their LPs in one ``entropy.h_h_many`` call and one
``entropy.h_h_cond_cq_many`` call, whichever they need; the max-entropy
checks solve in one ``entropy.Truncation``; the H_min check solves in one
``entropy.h_min_cq_smoothed_many`` call per eps. No check builds a
``CQState``. The D_H check does the same with one ``entropy.d_h_many`` call
for all its pairs, one stacked eigendecomposition per size and probe round.
Each value has the bits of its own one-state call on the same spectra, and
the slacks are evaluated in trial order from them. The derandomization
check takes each ensemble's ``cq_probs`` in its loop, since the count of
the symbols kept sizes a later draw, and builds from those probabilities
and masks. Every slack is that of the trial-at-a-time body with its spectra
taken the same way, bit for bit.

The pair-closeness check reads only each view's per-pair state distances
(``Compression.per_pair_state_dist``, which ``validate_compression``
reports too), not the whole ``CompressionReport``.
"""

import functools
import zlib
from dataclasses import dataclass

import numpy as np

from . import entropy, linalg
from .compression import Instance, compress_measurement, compress_seeds
from .sampling import (
    basis_povm,
    bell_pair,
    complex_normals,
    cq_conditionals,
    cq_draws,
    cq_probs,
    flat_dirichlet,
    ginibre_gram,
    ginibre_normals,
    haar_unitary,
    purified_input,
    random_povm,
    standard_complex,
)
from .states import PureState

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
    """One of 0.01, 0.05 and 0.1, uniformly: the value and generator state
    of ``rng.choice([0.01, 0.05, 0.1])``, without its array checks."""
    return (0.01, 0.05, 0.1)[rng.integers(3)]


def _stacked(f, keys, *draws) -> list:
    """The trials of each distinct key of ``keys``, in order of first
    appearance, as (their indices, ``f(key, *draws)`` on the members of
    their draws, the entries along a draw's first axis, concatenated in
    trial order): one call of ``f`` per key (``linalg.groups``), whose tuple
    of stacks gives each member the bits of its one-trial call."""
    return [(np.array(idx), f(k, *(np.concatenate([d[i] for i in idx]) for d in draws)))
            for k, idx in linalg.groups(keys).items()]


def _padded_spectra(groups, fill, counts=None) -> np.ndarray:
    """The clipped ascending spectra of the k (M, d, d) output stacks of
    each of the ``_stacked`` ``groups``, from one ``linalg.per_size`` call
    of ``linalg.eigvalsh`` on those stacks as they are: output j of trial i
    in row k i + j of one array, a spectrum in the last entries of the last
    axis, ``fill`` elsewhere. With ``counts``, a stack holds counts[i]
    members of each trial i of its group in turn, such as an ensemble's
    conditionals, and member s goes in row s of the axis before."""
    k, stacks = len(groups[0][1]), [s for _, out in groups for s in out]
    ws = linalg.per_size(lambda s: linalg.clip_psd_spectrum(linalg.eigvalsh(s)), stacks)
    n = np.array([1] * sum(len(idx) for idx, _ in groups) if counts is None else counts)
    out = np.full((k * len(n), n.max(), max(s.shape[-1] for s in stacks)), fill)
    for g, (idx, _) in enumerate(groups):
        # each member's trial (its index in idx) and place in it, trial by trial
        t, members = (slice(None), 0) if counts is None else np.nonzero(
            np.arange(n.max()) < n[idx][:, None])
        for j, w in enumerate(ws[g * k:(g + 1) * k]):
            out[idx[t] * k + j, members, -w.shape[-1]:] = w
    return out if counts is not None else out[:, 0]


def _h_h_rows(groups, eps) -> list:
    """The H_H value of each output of each trial of ``groups`` at its eps,
    in rows of the k outputs of a trial: one ``entropy.h_h_many`` call on
    their ``_padded_spectra``."""
    return entropy.h_h_many(_padded_spectra(groups, 0.0), eps)[0].reshape(
        -1, len(groups[0][1])).tolist()


def _cq_arrays(probs, groups, normalized=True) -> tuple:
    """The probabilities and spectra of the cq states of the trials'
    probabilities ``probs`` and the ``_stacked`` ``groups`` of their k stacks
    of conditionals: state j of trial i in row k i + j of the arrays the
    stacked cq solvers take, its probabilities first and 0 after them (with
    ``normalized``, their ``cq_probs``, built once per symbol count), its
    spectra ``_padded_spectra`` with -1 outside them."""
    ns = [len(q) for q in probs]
    w = _padded_spectra(groups, -1.0, ns)
    p, k = np.zeros(w.shape[:2]), len(groups[0][1])
    for idx, (q,) in _stacked(lambda n, q: (q.reshape(-1, n),), ns, probs):
        q = cq_probs(q)[0] if normalized else q
        p[(idx[:, None] * k + np.arange(k)).ravel(), :q.shape[1]] = np.repeat(q, k, axis=0)
    return p, w


def _conditional_h_h(w, eps) -> list:
    """The H_H of each conditional of the (T, n, d) ``_padded_spectra`` w
    (fill -1), at the ``eps`` of its state, in rows of n, inf past a state's
    conditionals: one ``entropy.h_h_many`` call."""
    real, hs = w[:, :, -1] >= 0.0, np.full(w.shape[:2], np.inf)
    hs[real] = entropy.h_h_many(np.maximum(w[real], 0.0), np.repeat(eps, real.sum(axis=1)))[0]
    return hs.tolist()


def _ginibre_trials(rng, trials, eps):
    """Trials that each draw a size d in 2..8, a Ginibre density of size d
    and eps, in turn: their sizes, densities (stacked per size) and eps."""
    ds, zs, es = [], [], []
    for _ in range(trials):
        ds.append(int(rng.integers(2, 9)))
        zs.append(ginibre_normals(rng, ds[-1], n=1))
        es.append(eps or _eps(rng))
    return ds, _stacked(lambda _, z: (ginibre_gram(z),), ds, zs), es


def _bipartite_trials(rng, trials, eps, marginals):
    """Trials that each draw dims (da, db) in 2..4, a Ginibre density rho on
    them and eps, in turn: their dims, rho with its partial traces onto each
    system of ``marginals`` (0 for A, 1 for B), stacked per dims, and eps."""
    dims, zs, es = [], [], []
    for _ in range(trials):
        dims.append((int(rng.integers(2, 5)), int(rng.integers(2, 5))))
        zs.append(ginibre_normals(rng, dims[-1][0] * dims[-1][1], n=1))
        es.append(eps or _eps(rng))

    def parts(dims, z):
        rho = ginibre_gram(z)
        return (rho, *(linalg.partial_trace(rho, dims, s) for s in marginals))

    return dims, _stacked(parts, dims, zs), es


def _cq_cases(rng, trials, eps, symbols, dims, pure=False):
    """Trials that each draw a symbol count in 2..symbols - 1 and a size in
    2..dims - 1, a ``cq_draws`` of them and eps, in turn: the ``_cq_arrays``
    of their cq ensembles, the conditionals built once per shape, and their
    eps."""
    draws, es = zip(*[(cq_draws(rng, int(rng.integers(2, symbols)), int(rng.integers(2, dims)),
                                pure_conditionals=pure), eps or _eps(rng)) for _ in range(trials)])
    probs, zs = zip(*draws)
    groups = _stacked(lambda _, z: (cq_conditionals(z, pure),), [z.shape[1:] for z in zs], zs)
    return _cq_arrays(probs, groups), es


def _pure_marginals(_, z):
    """Both marginals of each normalized ``complex_normals`` matrix v of the
    draws z, as ``v /= np.linalg.norm(v)`` normalizes one."""
    v = complex_normals(z)
    v = v / linalg.row_norms(v.reshape(-1, *v.shape[-2:])).reshape(v.shape[:-2] + (1, 1))
    return v @ linalg.dagger(v), v.swapaxes(-1, -2) @ np.conj(v)


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
    shapes, zs, es = [], [], []
    for _ in range(trials):
        shapes.append((int(rng.integers(2, 9)), int(rng.integers(2, 9))))
        zs.append(ginibre_normals(rng, *shapes[-1], n=1))
        es += [eps or _eps(rng)] * 2
    for ha, hr in _h_h_rows(_stacked(_pure_marginals, shapes, zs), es):
        yield TOL - abs(ha - hr)


@_check("hh-pure-tensor-invariance", per=1)
def check_hh_pure_tensor(rng, trials, eps):
    """Tensoring a pure state on leaves H_H unchanged."""
    ds, zs, ws, es = [], [], [], []
    for _ in range(trials):
        ds.append(int(rng.integers(2, 7)))
        zs.append(ginibre_normals(rng, ds[-1], n=1))
        ws.append(ginibre_normals(rng, 3, 1, n=1))
        es += [eps or _eps(rng)] * 2

    def tensored(_, z, w):
        rho, v = ginibre_gram(z), complex_normals(w)[..., 0]
        v = v / linalg.row_norms(v)[:, None]
        return linalg.kron(rho, v[:, :, None] * np.conj(v)[:, None]), rho

    for joint, single in _h_h_rows(_stacked(tensored, ds, zs, ws), es):
        yield TOL - abs(joint - single)


@_check("hh-support-sandwich", per=1)
def check_hh_support_sandwich(rng, trials, eps):
    """h_tilde_max - 1 <= h_h <= h_tilde_max."""
    _, groups, es = _ginibre_trials(rng, trials, eps)
    ws = _padded_spectra(groups, 0.0)
    for hh, ht in zip(entropy.h_h_many(ws, es)[0].tolist(),
                      entropy.Truncation(ws, es).h_tilde_max().tolist()):
        yield min(ht + TOL - hh, hh - (ht - 1) + TOL)


@_check("max-entropy-ordering", per=1)
def check_max_entropy_ordering(rng, trials, eps):
    """h_max_smooth <= h_tilde_max <= h_prime_max <= log2(d/eps)."""
    ds, groups, es = _ginibre_trials(rng, trials, eps)
    t = entropy.Truncation(_padded_spectra(groups, 0.0), es)
    for d, e, hm, ht, hp in zip(ds, es, t.h_max_smooth().tolist(), t.h_tilde_max().tolist(),
                                t.h_prime_max().tolist()):
        cap = np.log2(d / e)
        yield min(ht - hm + TOL, hp - ht + TOL, cap - hp + TOL)


@_check("hh-subadditivity", per=1)
def check_hh_subadditivity(rng, trials, eps):
    """h_h(AB, 3 sqrt(eps)) <= h_h(A, eps) + h_h(B, eps)."""
    _, parts, es = _bipartite_trials(rng, trials, eps, (0, 1))
    es = [x for e in es for x in (min(3 * np.sqrt(e), 0.999), e, e)]
    for lhs, ha, hb in _h_h_rows(parts, es):
        yield ha + hb - lhs + TOL


@_check("hh-mixed-ancilla-additivity", per=1)
def check_hh_mixed_ancilla_additivity(rng, trials, eps):
    """h_h(rho (x) I/|B|, eps) = h_h(rho, eps) + log2 |B| exactly."""
    dims, zs, es = [], [], []
    for _ in range(trials):
        dims.append((int(rng.integers(2, 6)), int(rng.integers(2, 5))))
        zs.append(ginibre_normals(rng, dims[-1][0], n=1))
        es += [eps or _eps(rng)] * 2

    def with_ancilla(dims, z):
        rho = ginibre_gram(z)
        return linalg.kron(rho, np.eye(dims[1]) / dims[1]), rho

    for (lhs, h), (_, db) in zip(_h_h_rows(_stacked(with_ancilla, dims, zs), es), dims):
        yield 1e-9 - abs(lhs - (h + np.log2(db)))


@_check("hh-dimension-bound", per=1)
def check_hh_dimension_bound(rng, trials, eps):
    """h_h(AB) <= h_h(A) + log2 |B|."""
    dims, parts, es = _bipartite_trials(rng, trials, eps, (0,))
    es = [e for e in es for _ in (0, 1)]
    for (lhs, ha), (_, db) in zip(_h_h_rows(parts, es), dims):
        yield ha + np.log2(db) - lhs + TOL


@_check("hh-near-pure-nonpositive", per=1)
def check_hh_near_pure(rng, trials, eps):
    """States eps-close to |0><0| have h_h <= 0."""
    ds, es, zs, deltas = [], [], [], []
    for _ in range(trials):
        ds.append(int(rng.integers(2, 7)))
        es.append(eps or _eps(rng))
        zs.append(ginibre_normals(rng, ds[-1], n=1))
        deltas.append(es[-1] / 2 * rng.random())

    def near_pure(d, z, delta):
        sigma = np.zeros((len(z), d, d), dtype=complex)
        sigma[:, 0, 0] = 1 - delta
        sigma = sigma + delta[:, None, None] * ginibre_gram(z)
        pure0 = np.diag([1.0] + [0.0] * (d - 1))
        # the trace distances ||sigma - |0><0| ||_1, one stacked trace_norm
        return sigma, linalg.trace_norm(sigma - pure0)

    # one delta a trial: the rows of a (trials, 1) array
    groups, dists = _stacked(near_pure, ds, zs, np.array(deltas)[:, None]), np.zeros(trials)
    for idx, (_, dist) in groups:
        dists[idx] = dist
    # every state is solved, and the ones farther than eps from |0> are skipped
    for (h,), dist, e in zip(_h_h_rows([(idx, (sigma,)) for idx, (sigma, _) in groups], es),
                             dists.tolist(), es):
        if not dist > e:
            yield TOL - h


@_check("hh-cond-pure-nonpositive", per=1)
def check_hh_cond_pure(rng, trials, eps):
    """cq states with pure conditionals have H_H(B|X) <= 0."""
    (p, w), es = _cq_cases(rng, trials, eps, 9, 6, pure=True)
    for h in entropy.h_h_cond_cq_many(p, w, es)[0].tolist():
        yield TOL - h


@_check("hh-cond-purification-switch", per=1)
def check_hh_cond_purification_switch(rng, trials, eps):
    """For bipartite pure conditionals, H_H(B|X) = H_H(A|X)."""
    probs, zs, es = [], [], []
    for _ in range(trials):
        n = int(rng.integers(2, 6))
        da, db = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        probs.append(flat_dirichlet(rng, n))
        zs.append(ginibre_normals(rng, da, db, n=n))
        es += [eps or _eps(rng)] * 2
    # the marginals built once per (da, db); CQState keeps the drawn probabilities
    p, w = _cq_arrays(probs, _stacked(_pure_marginals, [z.shape[1:] for z in zs], zs),
                      normalized=False)
    for ha, hb in entropy.h_h_cond_cq_many(p, w, es)[0].reshape(-1, 2).tolist():
        yield TOL - abs(ha - hb)


@_check("hh-cond-data-processing", per=1)
def check_hh_cond_data_processing(rng, trials, eps):
    """H_H(B|X) never decreases under dephasing or random-unitary mixing
    applied to the B side."""
    draws, zs, ps, es = [], [], [], []
    for _ in range(trials):
        db = int(rng.integers(2, 5))
        draws.append(cq_draws(rng, int(rng.integers(2, 5)), db))
        es.append(eps or _eps(rng))
        # the draws of tests/oracles.ginibre_matrix for each unitary in turn
        zs.append(ginibre_normals(rng, db, n=int(rng.integers(2, 4))))
        ps.append(flat_dirichlet(rng, len(zs[-1])))
    probs, conds = zip(*draws)
    # one member a trial: its numbers of conditionals and unitaries
    sizes = np.array([(len(c), len(z)) for c, z in zip(conds, zs)])[:, None]
    groups = _stacked(_processed, [z.shape[-1] for z in zs], conds, zs, ps, sizes)
    values = entropy.h_h_cond_cq_many(*_cq_arrays(probs, groups), np.repeat(es, 3))[0]
    for base, deph, unital in values.reshape(-1, 3).tolist():
        yield min(deph - base + TOL, unital - base + TOL)


def _processed(_, z, zs, ps, sizes):
    """The conditionals rho of the ``cq_draws`` normals z of one size and,
    per rho, the dephased one, the diagonal kept and +0 elsewhere as
    np.diag(np.diag(rho)) has it, and the one mixed to sum_j p_j u_j rho
    u_j^dag over the Haar unitaries of the ``zs`` draws of its trial (each
    trial's numbers of both in ``sizes``), one stacked product per j, added
    in the order of ``sum`` over j."""
    stacks, us = ginibre_gram(z), haar_unitary(standard_complex(zs))
    n, n_u = sizes.T
    first, count = np.repeat(np.cumsum(n_u) - n_u, n), np.repeat(n_u, n)
    mixed = np.zeros_like(stacks)  # sum() starts at 0
    for j in range(n_u.max()):
        on = j < count
        u = us[first[on] + j]
        mixed[on] += (ps[first[on] + j, None, None] * u) @ stacks[on] @ linalg.dagger(u)
    return stacks, np.where(np.eye(stacks.shape[-1], dtype=bool), stacks, 0), mixed


@_check("hh-average-to-worst-case", per=1)
def check_hh_average_to_worst_case(rng, trials, eps):
    """The symbols obeying the worst-case entropy bound carry probability
    at least 1 - 2 sqrt(eps)."""
    (p, w), es = _cq_cases(rng, trials, eps, 9, 5)
    bounds = (entropy.h_h_cond_cq_many(p, w, es)[0] - np.log2(es)).tolist()
    # a dropped symbol's H_H too: its probability is 0
    for q, h, bound, e in zip(p.tolist(), _conditional_h_h(w, np.sqrt(es)), bounds, es):
        mass = sum(x for x, y in zip(q, h) if y <= bound + 1e-12)
        yield mass - (1 - 2 * np.sqrt(e)) + TOL


@_check("dh-neyman-pearson-vs-lp", per=1)
def check_dh_vs_lp(rng, trials, eps):
    """Neyman-Pearson equals the greedy LP on commuting pairs."""
    cases = []
    for _ in range(trials):
        d = int(rng.integers(2, 9))
        cases.append((flat_dirichlet(rng, d), flat_dirichlet(rng, d), eps or _eps(rng)))
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
    """Truncation smoothing only increases H_min and vanishes at eps = 0,
    where it is the closed form -log2 sum_x P(x) lambda_max(rho_x)."""
    (p, w), es = _cq_cases(rng, trials, eps, 6, 5)
    base, smoothed = (entropy.h_min_cq_smoothed_many(p, w, e).tolist() for e in (0.0, es))
    # summed in symbol order, as sum() adds; a symbol outside the state adds 0
    closed = (-np.log2(np.cumsum(p * w[:, :, -1], axis=1)[:, -1])).tolist()
    for b, s, c in zip(base, smoothed, closed):
        yield min(s - b + TOL, TOL - abs(c - b))


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
            ds = [cm.per_pair_state_dist
                  for cm in compress_seeds(inst, 2, L, range(500 * t, 500 * t + 8))]
            meds.append(float(np.median(ds)))
        yield min(meds[i] - meds[i + 1] + 1e-12 for i in range(len(meds) - 1))


@_check("condhh-derandomization", per=50)
def check_condhh_derandomization(rng, trials, eps):
    """Promise-based derandomization: when per-symbol states and the table
    distribution are close to ideal, most table rows obey the worst-case
    entropy bound 2^{H_H(eps^{1/8})} <= 2^{H_H(B|X)} / eps."""
    e = eps or 0.05
    draws, reps, zs = [], [], []
    for _ in range(trials):
        nx, db = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        probs, z = cq_draws(rng, nx, db)
        # the probabilities of tests/oracles.random_cq and the mask of the symbols it keeps
        draws.append((*cq_probs(probs), z))
        # build a K-table whose rows decode to symbols with Q close to P
        reps.append(int(rng.integers(3, 6)))
        # a ginibre_density draw per conditional that tests/oracles.random_cq keeps, in turn
        zs.append(ginibre_normals(rng, db, n=int(draws[-1][1].sum())))

    def build(_, z, keep, zs):
        # the conditionals (tests/oracles.random_cq's bits), and the kept ones mixed with noise
        stacks = ginibre_gram(z)
        return stacks, (1 - e / 4) * stacks[keep] + e / 4 * ginibre_gram(zs)

    probs, keeps, conds = zip(*draws)
    groups = _stacked(build, [z.shape[1:] for z in conds], conds, keeps, zs)
    p, w = _cq_arrays(probs, [(idx, out[:1]) for idx, out in groups], normalized=False)
    bounds = entropy.h_h_cond_cq_many(p, w, e)[0].tolist()
    hs = _conditional_h_h(_padded_spectra([(idx, out[1:]) for idx, out in groups], -1.0,
                                          [len(z) for z in zs]), np.full(len(p), e ** 0.125))
    for q, h, r, h_cond in zip(p, hs, reps, bounds):
        q = q[q > 0]  # the symbols tests/oracles.random_cq keeps
        K = len(q) * r
        q_k = np.repeat(q / r, r)  # f(k) = x for each block
        bound = 2.0 ** h_cond / e
        uniform_dev = float(np.sum(np.abs(q_k - 1.0 / K)))
        good = r * sum(2.0 ** x <= bound + 1e-12 for x in h)
        yield good / K - (1 - e ** 0.125 - uniform_dev) + TOL


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
