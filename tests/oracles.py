"""Independent oracles, instance builders and samplers shared by several test modules."""

import itertools
import math

import numpy as np

from puredist import linalg
from puredist.sampling import (
    classical_correlated_pure,
    cq_conditionals,
    cq_probs,
    flat_dirichlet,
    ginibre_density,
    ginibre_normals,
    purified_input,
    standard_complex,
)
from puredist.states import CQState, DensityOperator, PureState


def conditionals(cq: CQState) -> tuple:
    """The rows of ``cq.stack`` as ``DensityOperator`` views."""
    return tuple(DensityOperator(cq.registers, m, validate=False) for m in cq.stack)


def pair_rng(seed: int, k: int, l: int) -> np.random.Generator:
    """The generator of table cell (k, l): its own PCG64 stream keyed by
    SeedSequence(seed, spawn_key=(k, l)), the reference of the table draw."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(k, l)))


def greedy_lp(gains: np.ndarray, costs: np.ndarray, target: float):
    """Fractional-knapsack minimum of sum(costs * lam) subject to
    sum(gains * lam) >= target, 0 <= lam <= 1, one entry at a time over
    Python floats: the scalar loop the stacked H_H greedy keeps the bits of.
    Entries must be pre-sorted by gain/cost ratio descending. Returns
    (total cost, lam)."""
    lam = np.zeros(len(gains))
    acc = 0.0
    for i, g in enumerate(gains.tolist()):
        if acc >= target - 1e-15 or g <= 0:
            break
        take = min(1.0, (target - acc) / g)
        lam[i] = take
        acc += take * g
    return float(np.dot(costs, lam)), lam


def imax_qubit_grid_oracle(states, coarse=24, refine=2):
    """Fine Bloch-ball grid search for min over sigma of
    max_x lambda_max(sigma^{-1/2} rho_x sigma^{-1/2}) on qubits."""
    blochs = np.array([
        [np.real(np.trace(m @ p)) for p in (
            np.array([[0, 1], [1, 0]]),
            np.array([[0, -1j], [1j, 0]]),
            np.array([[1, 0], [0, -1]]))]
        for m in states])
    dets = np.array([np.real(np.linalg.det(m)) for m in states])

    def value(vs):
        s2 = np.sum(vs * vs, axis=1)
        ok = s2 < 1 - 1e-9
        vs, s2 = vs[ok], s2[ok]
        worst = np.zeros(len(vs))
        for m, det in zip(blochs, dets):
            tr = 2.0 / (1 - s2) * (1.0 - vs @ m)
            dd = det * 4.0 / (1 - s2)
            disc = np.sqrt(np.maximum(tr * tr - 4 * dd, 0.0))
            worst = np.maximum(worst, (tr + disc) / 2)
        i = int(np.argmin(worst))
        return worst[i], vs[i]

    grid = np.linspace(-0.999, 0.999, coarse)
    vs = np.array(list(itertools.product(grid, grid, grid)))
    best, center = value(vs)
    width = 2.0 / coarse
    for _ in range(refine * 7):
        local = np.linspace(-width, width, 13)
        vs = center + np.array(list(itertools.product(local, local, local)))
        b, center = value(vs)
        best = min(best, b)
        width /= 2
    return np.log2(best)


def imax_commuting(probs, dists, eps=0.0) -> float:
    """I_max^eps(X:E) of a cq ensemble whose conditionals are diagonal in one
    basis, rho_x = sum_e p(e|x) |e><e| with dists[x] = p(.|x), in closed
    form: log2 sum_e max_x p(e|x) over the kept symbols, since the entrywise
    maximum is the least-trace tau >= every kept rho_x (a common unitary
    rotation keeps the value). Smoothing drops the lowest-probability
    symbols while their total mass stays <= eps, always keeping one."""
    kept = sorted(range(len(probs)), key=lambda x: probs[x])
    dropped = 0.0
    while len(kept) > 1 and dropped + probs[kept[0]] <= eps:
        dropped += probs[kept.pop(0)]
    return math.log2(sum(max(dists[x][e] for x in kept) for e in range(len(dists[0]))))


def _types(n, parts):
    """Every composition of n into ``parts`` non-negative counts, as the rows
    of an int array in lexicographic order: one block per leading count."""
    if parts == 1:
        return np.array([[n]])
    if parts == 2:
        first = np.arange(n + 1)
        return np.column_stack([first, n - first])
    blocks = []
    for first in range(n + 1):
        rest = _types(n - first, parts - 1)
        blocks.append(np.column_stack([np.full(len(rest), first), rest]))
    return np.concatenate(blocks)


def h_h_iid(p, n, eps):
    """Exact H_H^eps(rho^{(x)n}) in bits from the spectrum p of rho, without
    an eigendecomposition: the type (k_1..k_d) of n draws holds n! / prod k_i!
    eigenvalues, each prod p_i^k_i. The types, sorted by that eigenvalue, go
    through the greedy LP of ``entropy.h_h`` with gain multiplicity * eigenvalue;
    the LP value sum(multiplicity * weight) is summed in logs. Types whose mass
    underflows to zero are left out, so a large n neither stops the fill early
    nor overflows a count."""
    logp = np.log(np.asarray(p, dtype=float))
    types = _types(n, len(logp))
    lgamma = np.array([math.lgamma(k + 1) for k in range(n + 1)])
    log_fact = 0.0  # summed column by column, in the order of a sum over one type
    for k in types.T:
        log_fact = log_fact + lgamma[k]
    log_mult = lgamma[n] - log_fact
    log_q = types @ logp
    gains = np.exp(log_mult + log_q)
    order = np.argsort(-log_q, kind="stable")
    order = order[gains[order] > 0]
    _, lam = greedy_lp(gains[order], np.ones(len(order)), 1.0 - eps)
    taken = lam > 0
    return float(np.logaddexp.reduce(np.log(lam[taken]) + log_mult[order][taken])) / math.log(2)


def left_padded(rows) -> np.ndarray:
    """The 1-D spectra ``rows`` as one (n, d) stack, the shorter ones
    left-padded with zeros: the layout ``entropy.h_h_many`` takes."""
    size = np.array([len(w) for w in rows], dtype=int)
    out = np.zeros((len(rows), size.max(initial=0)))
    filled = np.arange(out.shape[1]) >= out.shape[1] - size[:, None]  # fills row-major
    out[filled] = np.concatenate(rows) if rows else ()
    return out


def cq_layout(probs, spectra):
    """The probabilities ``probs[i]`` and (n, d) spectra ``spectra[i]`` of cq
    states of any shapes in the layout the stacked cq solvers take: one
    (m, n) array, 0 past a state's symbols, and one (m, n, d) array, each
    spectrum left-padded with -1 and the rows past a state's symbols all -1."""
    n, d = np.array([np.shape(w) for w in spectra]).T
    rows = np.arange(n.max()) < n[:, None]  # a boolean mask fills row-major
    p, w = np.zeros(rows.shape), np.full(rows.shape + (d.max(),), -1.0)
    p[rows] = np.concatenate(probs)
    w[rows[..., None] & (np.arange(d.max()) >= (d.max() - d)[:, None, None])] = np.concatenate(
        spectra, axis=None)
    return p, w


def truncated_support(w, eps):
    """The spectral truncation of one spectrum by the formulas of the
    one-state functions before ``entropy.Truncation`` stacked them: the
    support eigenvalues (above SUPPORT_TOL) sorted ascending, and the number
    k of the smallest whose running sum stays <= eps, capped at |supp| - 1 so
    one is always kept."""
    supp = np.sort(w[w > linalg.SUPPORT_TOL])
    k = int(np.searchsorted(np.cumsum(supp), eps + 1e-15, side="right"))
    return supp, min(k, len(supp) - 1)


def truncation_entropies(w, eps):
    """H~_max, H'_max and the Renyi-1/2 H_max of one spectrum, and its
    truncation code's (bits, kept) at dimension len(w), each by its
    one-state formula on ``truncated_support``."""
    supp, k = truncated_support(w, eps)
    kept = supp[k:] / supp[k:].sum()
    return (float(np.log2(len(supp) - k)), float(-np.log2(supp[k])),
            float(2.0 * np.log2(np.sqrt(kept).sum())),
            (len(w) // (len(supp) - k)).bit_length() - 1, len(supp) - k)


def near_pure_classical(rng, da=8, db=4, top=0.9):
    """Classical correlated instance with a near-pure A marginal."""
    pa = np.full(da, (1 - top) / (da - 1))
    pa[0] = top
    cond = np.full(db, 0.1 / (db - 1))
    cond[0] = 0.9
    joint = np.array([pa[a] * np.roll(cond, a % db) for a in range(da)])
    return purified_input(classical_correlated_pure(rng, da, db, joint=joint))


def haar_vector(rng, dim: int) -> np.ndarray:
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def random_pure(rng, dim: int, label: str = "A") -> DensityOperator:
    v = haar_vector(rng, dim)
    return DensityOperator([(label, dim)], np.outer(v, np.conj(v)), validate=False)


def random_mixed(rng, dim: int, label: str, rank: int | None = None) -> DensityOperator:
    """``sampling.random_density``'s draw on any register and of any rank:
    a ``ginibre_density`` (full rank by default) on register ``label``."""
    return DensityOperator([(label, dim)], ginibre_density(rng, dim, rank), validate=False)


def ginibre_matrix(rng, dim: int) -> np.ndarray:
    """A dim x dim matrix of independent standard complex Gaussians: the
    ``standard_complex`` of a ``ginibre_normals`` draw."""
    return standard_complex(ginibre_normals(rng, dim))


def ranked_cq_draws(rng, n_symbols: int, dim: int, pure_conditionals: bool = False,
                    rank: int | None = None):
    """``sampling.cq_draws``' generator calls with mixed conditionals of any
    rank (full by default): the ``flat_dirichlet`` probabilities, then the
    ``ginibre_normals`` of the n conditionals."""
    probs = flat_dirichlet(rng, n_symbols)
    rank = 1 if pure_conditionals else dim if rank is None else rank
    return probs, ginibre_normals(rng, dim, rank, n=n_symbols)


def cq_ensembles(probs: np.ndarray, z: np.ndarray, pure_conditionals: bool):
    """The cq ensembles of m ``cq_draws`` of one shape, their (m, n)
    probabilities and (m, n, 2, d, rank) normals stacked: the ``cq_probs``
    and their mask, and the (m, n, d, d) ``cq_conditionals``. Each member
    has the bits of its own ``random_cq``, whose ``CQState`` drops the
    symbols of probability 0."""
    probs, keep = cq_probs(probs)
    return probs, cq_conditionals(z, pure_conditionals), keep


def random_cq(rng, n_symbols: int, dim: int, label: str = "B",
              pure_conditionals: bool = False, rank: int | None = None) -> CQState:
    """Flat Dirichlet probabilities and ``random_pure`` or ``random_density``
    conditionals with their bits: the ``cq_ensembles`` of one ``ranked_cq_draws``."""
    draws = ranked_cq_draws(rng, n_symbols, dim, pure_conditionals, rank)
    probs, stack, _ = cq_ensembles(*(x[None] for x in draws), pure_conditionals)
    return CQState(range(n_symbols), probs[0], stack[0], registers=[(label, dim)])


def mixed_protocol_input(rng, da: int, db: int, rank: int = 2,
                         labels=("A", "B", "R")) -> PureState:
    """Random mixed rho^{AB} of the given rank, presented as |rho>^{ABR}."""
    rho = ginibre_density(rng, da * db, rank)
    vec = linalg.purify(rho)
    dr = vec.size // (da * db)
    return PureState([(labels[0], da), (labels[1], db), (labels[2], dr)],
                     vec.reshape(da, db, dr))


def per_symbol_random_cq(rng, n_symbols, dim, label="B", pure_conditionals=False, rank=None):
    """``random_cq`` as it drew before its draws were stacked: one
    pair of ``normal`` calls and one ``DensityOperator`` per conditional."""
    probs = rng.dirichlet(np.ones(n_symbols))
    conds = []
    for _ in range(n_symbols):
        if pure_conditionals:
            v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
            v = v / np.linalg.norm(v)
            m = np.outer(v, np.conj(v))
        else:
            r = dim if rank is None else rank
            g = rng.normal(size=(dim, r)) + 1j * rng.normal(size=(dim, r))
            m = g @ linalg.dagger(g)
            m = m / m.trace().real
        conds.append(DensityOperator([(label, dim)], m, validate=False))
    return CQState(list(range(n_symbols)), probs / probs.sum(), conds)


class DroppingRng:
    """A generator whose every ``every``-th flat Dirichlet draw puts its first
    entry near 1e-13, below the 1e-12 that a cq state keeps, and moves the
    rest of that entry's mass to the second: seeded draws almost never drop
    a symbol. The plant goes in the ``standard_gamma`` draws that
    ``sampling.flat_dirichlet`` normalizes, and ``dirichlet`` (of a flat
    alpha only) is that draw, so both forms drop alike. ``planted`` counts
    the plants."""

    def __init__(self, seed, every=1):
        self._rng, self._every, self._calls = np.random.default_rng(seed), every, 0
        self.planted = 0

    def __getattr__(self, name):
        return getattr(self._rng, name)

    def standard_gamma(self, shape, size):
        g = self._rng.standard_gamma(shape, size)
        self._calls += 1
        if self._calls % self._every == 0:
            total = g.sum()
            g[1] += g[0] - 1e-13 * total
            g[0] = 1e-13 * total
            self.planted += 1
        return g

    def dirichlet(self, alpha):
        assert np.all(np.asarray(alpha) == 1.0), "a flat alpha only"
        return flat_dirichlet(self, len(alpha))
