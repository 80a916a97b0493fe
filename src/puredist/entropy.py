"""One-shot entropic quantities, all in bits (base-2).

Covers the smoothed support/norm max entropies, the smooth hypothesis
testing entropy (unconditional greedy LP, general Neyman-Pearson test
with a duality certificate, cq-conditional blockwise greedy), the cq
conditional min entropy with a truncation-based smoothing, the truncated
Renyi-1/2 max entropy, and the D_max-based mutual information of cq
ensembles. The single-state functions of a spectrum (``h_tilde_max``,
``h_prime_max``, ``h_h``, ``h_max_smooth``) take a state or, as a 1-D
array, its clipped ascending spectrum; ``d_h`` takes matrices.

The solvers of spectra take one (n, d) stack of clipped ascending
spectra, the shorter ones left-padded with zeros, each row with the bits
it has when solved alone. The spectral truncation has one solver,
``Truncation``: one masked cumsum and a count give each row's kept
eigenvalues, and its methods H~_max, H'_max and the Renyi-1/2 H_max;
``truncation_codes`` codes a stack of eigensystems with it, and
``h_tilde_max``, ``h_prime_max`` and ``h_max_smooth`` solve one row. The
H_H LPs have one solver, a greedy over a stack of rows: ``h_h_many`` takes
the spectra, and ``h_h_cond_cq_many`` the (m, n) probabilities and
(m, n, d) spectra of cq states in one padded layout (``_cq_rows``). Both
return (values, weights) arrays; ``h_h`` and ``h_h_cond_cq`` solve one row
and return it with its witness. The cq H_min has one solver too, the
lockstep water cut of ``h_min_cq_smoothed_many``, which takes the same
arrays; ``h_min_cq`` and ``h_min_cq_smoothed`` solve one row. The two cq
``_many`` solvers share one entry for arrays, ``_cq_rows``, which applies
``states.kept_symbols``; the one-state functions pass a ``CQState``'s
arrays straight through, since its constructor applied that rule.

Smoothing convention: unless noted otherwise, smoothing is operationalized
as spectral truncation (dropping smallest-eigenvalue mass up to the budget)
rather than optimization over a purified-distance ball; each function's
docstring says whether it lower- or upper-bounds the ball-optimal quantity.
"""

import warnings
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .states import CQState, DensityOperator, kept_symbols

SUPPORT_TOL = linalg.SUPPORT_TOL


@dataclass
class EntropyResult:
    """Entropy value plus the witness that attains it.

    ``witness`` holds enough data to re-evaluate ``value`` independently
    (see ``reevaluate``); ``method`` is one of greedy-lp (``h_h``),
    neyman-pearson (``d_h``) and blockwise (``h_h_cond_cq``).
    """

    value: float
    witness: dict = field(default_factory=dict)
    method: str = ""

    def reevaluate(self) -> float:
        """Recompute the value from the stored witness."""
        w = self.witness
        if self.method in ("greedy-lp", "blockwise"):
            return float(np.log2(np.dot(w["costs"], w["weights"])))
        if self.method == "neyman-pearson" and not w.get("infinite"):
            return float(-np.log2(w["test_cost"]))
        return self.value


@dataclass
class ImaxResult:
    """Certified D_max mutual information of a cq ensemble.

    ``value`` is attained by the feasible ``sigma``; ``duality_gap`` bounds
    the distance to the true optimum (value - gap <= optimum <= value, up to
    rounding; a computed gap below 0 is reported as 0).
    ``iterations`` counts fixed-point iterations and ``newton_steps`` the
    steps of both Newton stages: Newton's method on the optimality
    conditions and the primal-dual interior-point stage.
    """

    value: float
    sigma: DensityOperator
    duality_gap: float
    iterations: int = 0
    converged: bool = True
    newton_steps: int = 0


def _validate_eps(eps):
    if not (0.0 <= eps < 1.0):
        raise ValueError(f"eps must be in [0, 1), got {eps}")


def _spectrum(rho) -> np.ndarray:
    """The clipped ascending spectrum of a state, or ``rho`` itself when it is
    1-D: such a spectrum, as ``linalg.psd_eigvals`` gives it."""
    if np.ndim(rho) == 1:
        return np.asarray(rho, dtype=float)
    return linalg.psd_eigvals(_matrix(rho))


def _matrix(rho) -> np.ndarray:
    return rho.matrix if isinstance(rho, DensityOperator) else np.asarray(rho, dtype=complex)


class Truncation:
    """The spectral truncation of each row of an (n, d) stack of clipped
    ascending spectra, the shorter ones left-padded with zeros as ``h_h_many``
    takes them, at its eps (one per row, or one for all). Of a row's support
    eigenvalues (those above SUPPORT_TOL, its last entries), the smallest
    whose running sum stays <= eps are cut, but never all: ``kept`` counts
    the others, at least one, from one masked ``cumsum`` and a count. The
    methods give the entropies of the truncated rows, each with the bits of
    its one-state function, which solves one row (``h_tilde_max``,
    ``h_prime_max``, ``h_max_smooth``); ``truncation_codes`` codes a stack."""

    def __init__(self, spectra, eps):
        self.w = np.asarray(spectra, dtype=float)
        support = self.w > SUPPORT_TOL
        mass = np.cumsum(np.where(support, self.w, 0.0), axis=1)  # in order, as one row's
        over = mass > (_eps_rows(eps, len(self.w)) + 1e-15)[:, None]
        self.kept = np.maximum((support & over).sum(axis=1), 1)

    def h_tilde_max(self) -> np.ndarray:
        """The smoothed support max entropy of each row: log2(kept)."""
        return np.log2(self.kept)

    def h_prime_max(self) -> np.ndarray:
        """The smoothed norm max entropy of each row: -log2 of its smallest
        kept eigenvalue."""
        return -np.log2(self.w[np.arange(len(self.w)), self.w.shape[1] - self.kept])

    def h_max_smooth(self) -> np.ndarray:
        """The Renyi-1/2 entropy of each row's kept eigenvalues, renormalized:
        2 log2 sum_i sqrt(lambda'_i), each sum by ``_run_sums``. Raises
        ``InvariantError`` if a row's value exceeds its ``h_tilde_max``."""
        start, stop = self.w.shape[1] - self.kept, np.full(len(self.w), self.w.shape[1])
        roots = np.sqrt(self.w / _run_sums(self.w, start, stop)[:, None])
        value, bound = 2.0 * np.log2(_run_sums(roots, start, stop)), self.h_tilde_max()
        for i in np.flatnonzero(value > bound + 1e-9)[:1]:  # the first row over it
            raise linalg.InvariantError(f"Renyi-1/2 {value[i]} exceeded support bound {bound[i]}")
        return value


def truncation_codes(w: np.ndarray, v: np.ndarray, eps: float) -> list:
    """(bits, kept, rows) of the H_H^eps truncation code of each state of a
    stack, from its descending eigensystem (w, v), one ``Truncation`` for
    all: bits = floor(log2(d / kept)), and the rows conj(v).T send
    eigenvector i (eigenvalues descending) to basis state i."""
    kept = Truncation(w[:, ::-1], eps).kept
    bits = np.frexp(w.shape[1] // kept)[1] - 1  # x = m 2^e with 1/2 <= m < 1
    return list(zip(bits.tolist(), kept.tolist(), np.conj(v).swapaxes(-1, -2)))


def h_tilde_max(rho, eps: float) -> float:
    """Smoothed support max entropy: log2(|supp| - k) after dropping the
    smallest eigenvalues of total mass <= eps (one row of ``Truncation``)."""
    return float(Truncation(_spectrum(rho)[None], eps).h_tilde_max()[0])


def h_prime_max(rho, eps: float) -> float:
    """Smoothed norm max entropy: log2(1 / lambda_{k+1}) with k as in
    ``h_tilde_max`` (one row of ``Truncation``)."""
    return float(Truncation(_spectrum(rho)[None], eps).h_prime_max()[0])


def _greedy_many(gains, costs, target, width):
    """The fractional-knapsack minimum of sum(costs * lam) subject to
    sum(gains * lam) >= target, 0 <= lam <= 1, for each row of the (n, m)
    stacks ``gains`` and ``costs`` at its ``target``: the (totals, weights).
    A row's entries are sorted by gain/cost ratio descending, its gains 0 past
    its first ``width``, and its target is at most 1. Each row takes whole
    entries, then tops up its target with a fraction of the next: the scalar
    loop of one entry at a time, ``take = min(1, (target - acc) / g)`` and
    ``acc += take * g`` while ``acc < target - 1e-15`` and ``g > 0``, with its
    bits. Each total is a ``vecdot`` over the row's first ``width`` entries,
    the rows of one width together, so a row has the bits of ``np.dot`` over
    them alone (a padded dot does not keep them)."""
    n, m = gains.shape
    # while every take is 1 the loop's acc is the running sum (a cumsum adds in
    # its order); the first entry not surely taken whole ends that prefix
    acc = np.zeros((n, m + 1))
    np.cumsum(gains, axis=1, out=acc[:, 1:])
    whole = (acc[:, :-1] < (target - 1e-15)[:, None]) & (gains > 0) & (
        target[:, None] - acc[:, :-1] >= gains)
    col = np.logical_and.accumulate(whole, axis=1).sum(axis=1)
    lam = (np.arange(m) < col[:, None]) * 1.0
    # the loop's step at that entry, if it is live, leaves acc within a few
    # roundings of a target <= 1, well inside 1e-15, so the loop stops there
    rows, j = np.arange(n), np.minimum(col, m - 1)
    acc, g = acc[rows, col], gains[rows, j]
    step = (col < m) & (acc < target - 1e-15) & (g > 0)
    lam[rows[step], j[step]] = np.minimum(1.0, (target[step] - acc[step]) / g[step])
    total = np.zeros(n)
    for w in set(width.tolist()) - {0}:
        rows = np.flatnonzero(width == w)
        total[rows] = np.vecdot(costs[rows, :w], lam[rows, :w])
    return total, lam


def _eps_rows(eps, n) -> np.ndarray:
    """One eps per row of n, each checked as ``_validate_eps`` does."""
    eps = np.broadcast_to(np.asarray(eps, dtype=float), (n,))
    bad = eps[~((eps >= 0.0) & (eps < 1.0))]
    if bad.size:
        _validate_eps(float(bad[0]))
    return eps


def h_h(rho, eps: float) -> EntropyResult:
    """Smooth hypothesis testing entropy of a single system.

    Solves the LP  min sum(lam_a)  s.t.  sum(P(a) lam_a) >= 1 - eps,
    0 <= lam <= 1, over the eigenvalues P of the state, by the greedy
    fractional-knapsack rule (fill the largest eigenvalues first): the one
    row of ``h_h_many``. The value is log2 of the LP optimum and can be
    negative.
    """
    _validate_eps(eps)
    w = _spectrum(rho)
    values, lam = h_h_many(w[None], eps)
    p = w[w > SUPPORT_TOL][::-1]  # eigh's spectrum is ascending: no sort needed
    return EntropyResult(
        value=float(values[0]),
        witness={"weights": lam[0, :len(p)], "gains": p, "costs": np.ones_like(p)},
        method="greedy-lp",
    )


def h_h_many(spectra, eps):
    """``h_h(spectra[i], eps[i])`` for each row i of one (n, d) stack of
    clipped ascending spectra, the shorter ones left-padded with zeros (which
    lie outside every support), as one stacked greedy. Returns the (values,
    weights) arrays, each row with the bits of its own ``h_h`` value and
    witness weights; a row's weights are descending and zero past its
    support."""
    p = np.asarray(spectra, dtype=float)[:, ::-1]
    support = p > SUPPORT_TOL
    total, lam = _greedy_many(np.where(support, p, 0.0), np.ones_like(p),
                              1.0 - _eps_rows(eps, len(p)), support.sum(axis=1))
    return np.log2(total), lam


# d_h stops once its test is certified within DH_GAP_TOL bits, or after DH_MAX_PROBES
DH_GAP_TOL = 1e-10
DH_MAX_PROBES = 100


def _run_sums(x, start, stop):
    """x[i, start[i]:stop[i]].sum() for each row i of a 2-D array, each with
    the bits of its own 1-D sum: numpy sums 8 or more entries pairwise, so
    the rows are summed in groups of one run length."""
    out, count = np.zeros(len(x)), stop - start
    for c in set(count.tolist()) - {0}:
        rows = np.flatnonzero(count == c)
        out[rows] = x[rows[:, None], start[rows, None] + np.arange(c)].sum(axis=1)
    return out


class _Splits:
    """rho - t sigma at thresholds t > 0 for pairs of any sizes up to d, one
    stacked eigendecomposition per size: each pair's Neyman-Pearson test P_+
    + gamma P_0 (P_0 on the eigenvalues within rounding of zero), its rho
    mass a + gamma b and sigma ``cost``, and its ``gap`` in bits to the dual
    bound mu (1 - eps) - Tr(mu rho - sigma)_+ at mu = 1/t; the gap is inf
    when the test misses the target, as then it certifies nothing. A k x k
    pair's eigenvectors are its entry of ``v``, and its ascending spectrum
    the last k entries of a row of d (``pad`` = d - k zeros first); P_0 is
    the columns ``low`` to ``top`` of that row, P_+ those from ``top`` on.
    Each pair has the bits of its own split.
    ``stacks`` holds (rows, rho stack, sigma stack) per size, the pairs at
    ``rows`` of t."""

    def __init__(self, stacks, t, target, smax, d):
        w, rd, sd = np.zeros((3, len(t), d))
        self.t, self.v, self.pad = t, np.empty(len(t), object), np.zeros(len(t), int)
        for rows, rh, sh in stacks:
            k = rh.shape[-1]
            w[rows, d - k:], v = linalg._eigh(rh - t[rows, None, None] * sh)
            rd[rows, d - k:] = (v.conj() * (rh @ v)).real.sum(axis=1)  # diagonals of rho
            sd[rows, d - k:] = (v.conj() * (sh @ v)).real.sum(axis=1)  # and of sigma
            self.v[rows], self.pad[rows] = np.fromiter(v, object, len(v)), d - k
        band = SUPPORT_TOL * np.maximum(1.0, t * smax)
        self.top = d - (w > band[:, None]).sum(axis=1)
        self.low = self.pad + (w < -band[:, None]).sum(axis=1)
        plus, end = d - (w > 0).sum(axis=1), np.full(2 * len(t), d)
        # rho and sigma on P_+ and on P_0, then rho and w where w > 0
        self.a, pos_cost, self.b, zero_cost, mass, wsum = _run_sums(
            np.concatenate([rd, sd, rd, sd, rd, w]),
            np.concatenate([self.top, self.top, self.low, self.low, plus, plus]),
            np.concatenate([end, self.top, self.top, end])).reshape(6, -1)
        self.above = mass >= target  # f(t) >= 1 - eps, so t <= the root
        self.gamma = np.array([0.0 if b <= 1e-15 else min(1.0, max(0.0, (g - a) / b)) for g, a, b
                               in zip(target.tolist(), self.a.tolist(), self.b.tolist())])
        self.cost = pos_cost + self.gamma * zero_cost
        dual = (target - wsum) / t
        ok = (self.a + self.b >= target) & (self.cost > 0) & (dual > 0)
        self.gap = np.log2(self.cost / np.where(ok, dual, 1.0), where=ok,
                           out=np.full(len(t), np.inf))


def _neyman_pearson(pairs, cands, target, smax) -> tuple[_Splits, np.ndarray]:
    """The best certified split of each pair and the number of splits built
    for it. ``pairs`` holds a (rho, sigma) stack per size; their pairs follow
    each other in the rows of ``cands``. The searches run in lockstep: a
    round builds one split for every pair still searching, in one stacked
    eigendecomposition per size. f(t) decreases and jumps only at
    generalized eigenvalues of (rho, sigma): a pair's sorted candidates, its
    row of ``cands`` (padded with inf), only choose probes (the middle of
    those above SUPPORT_TOL left in the bracket lo <= t <= hi), then
    bisection takes over. The certificate alone ends a search, so a false
    candidate costs probes, not accuracy."""
    n, first_of = len(cands), np.cumsum([0] + [len(rh) for rh, _ in pairs])
    lo, hi, probes = np.zeros(n), np.full(n, np.inf), np.zeros(n, int)
    best, live = None, np.arange(n)
    while live.size:
        c, l, h = cands[live], lo[live], hi[live]
        first = (c <= np.maximum(l, SUPPORT_TOL)[:, None]).sum(axis=1)
        m = (c < h[:, None]).sum(axis=1) - first
        # the middle candidates (-1 and d - 1 stand in when there are none)
        x, y = c[np.arange(len(live)), np.minimum(first + [(m - 1) // 2, m // 2], c.shape[1] - 1)]
        t = np.where(m > 0, 0.5 * (x + y),
                     np.where(h < np.inf, 0.5 * (l + h), np.maximum(2.0 * l, 1.0)))
        ends = np.searchsorted(live, first_of).tolist()  # live is sorted: each size is a run
        p = _Splits([(slice(i, j), rh[live[i:j] - f], sh[live[i:j] - f])
                     for (rh, sh), f, i, j in zip(pairs, first_of, ends, ends[1:]) if j > i],
                    t, target[live], smax[live], c.shape[1])
        probes[live] += 1
        best = best or p  # the first round holds every pair
        take = p.gap < best.gap[live]
        for name, field in vars(p).items():
            getattr(best, name)[live[take]] = field[take]
        lo[live], hi[live] = np.where(p.above, t, l), np.where(p.above, h, t)
        live = live[(p.gap > DH_GAP_TOL) & (lo[live] < hi[live] * (1.0 - 1e-14))
                    & (probes[live] < DH_MAX_PROBES)]
    return best, probes


def _result(pos, zero, t, gamma, gap, cost, mass, probes) -> EntropyResult:
    """The Neyman-Pearson result whose test is P_+ + gamma P_0, from the
    columns ``pos`` and ``zero`` spanning them; it warns when uncertified."""
    if not gap <= DH_GAP_TOL:
        warnings.warn(f"d_h test not certified: duality gap {gap:.3g} bits "
                      f"after {probes} probes", stacklevel=3)
    cost = max(cost, 1e-300)
    test = pos @ linalg.dagger(pos) + gamma * (zero @ linalg.dagger(zero))
    return EntropyResult(float(-np.log2(cost)), dict(
        t=t, gamma=gamma, test=test, test_cost=cost, achieved_mass=mass, duality_gap=gap,
        probes=probes), "neyman-pearson")


def d_h_many(rhos, sigmas, eps) -> list:
    """``d_h(rhos[i], sigmas[i], eps[i])`` for each i, as one stacked solver.
    The pairs of one size decompose their rhos (the check, and the support
    projector an eps = 0 pair takes), their sigmas and their whitened
    pencils in one stacked call each. Then the threshold searches of all
    sizes run in lockstep, one stacked eigendecomposition per size and
    probe round for the pairs still searching. Every pair's result has the
    bits of its own solve, whatever else is in the lists; each uncertified
    one warns."""
    rs, ss = [_matrix(r) for r in rhos], [_matrix(s) for s in sigmas]
    for r, s, e in zip(rs, ss, eps, strict=True):
        _validate_eps(e)
        for name, m in (("rho", r), ("sigma", s)):
            if m.ndim != 2:
                raise ValueError(f"d_h takes matrices, not spectra: {name} has shape {m.shape}")
        if r.shape != s.shape:
            raise ValueError(f"dimension mismatch: {r.shape} vs {s.shape}")
    out, groups, width = [None] * len(rs), [], max((len(r) for r in rs), default=0)
    for idx in linalg.groups(r.shape for r in rs).values():
        r, s, e = (np.array([x[i] for i in idx]) for x in (rs, ss, eps))
        # both inputs are checked (Hermitian, PSD) here, before any early return;
        # rho's eigenvectors give eps = 0 pairs their support projectors
        zero = e == 0.0
        wr, vr = linalg.psd_eig(r)
        ws, vs = linalg.eig_hermitian(s)
        ws, d = linalg.clip_psd_spectrum(ws), r.shape[-1]
        # every rh - t*sh is Hermitian bit for bit too
        rh, sh = linalg.hermitian_part(r), linalg.hermitian_part(s)
        rank, free_mass = (ws > SUPPORT_TOL).sum(axis=1), np.zeros(len(idx))
        cands = np.full((len(idx), width), np.inf)
        for k in set(rank.tolist()):  # sigma's support: its last k eigenvectors
            g = np.flatnonzero(rank == k)
            ker, white = vs[g, :, :d - k], vs[g, :, d - k:] / np.sqrt(ws[g, None, d - k:])
            # the mass of rho at zero sigma-cost, and the pencil whitened on the support
            free_mass[g] = np.trace(linalg.dagger(ker) @ r[g] @ ker, axis1=1, axis2=2).real
            cands[g, :k] = linalg._eigh(linalg.dagger(white) @ rh[g] @ white)[0]
        infinite = free_mass >= 1.0 - e - 1e-12
        for i in np.flatnonzero(infinite):
            out[idx[i]] = EntropyResult(np.inf, {"infinite": True, "probes": 0}, "neyman-pearson")
        for i in np.flatnonzero(~infinite & zero):
            # the support projector of rho is the optimal test
            pos = vr[i][:, wr[i] > SUPPORT_TOL]
            out[idx[i]] = _result(pos, pos[:, :0], 0.0, 0.0, 0.0,
                                  float((linalg.dagger(pos) @ s[i] @ pos).trace().real),
                                  float((linalg.dagger(pos) @ r[i] @ pos).trace().real), 0)
        g = np.flatnonzero(~infinite & ~zero)
        groups.append(([idx[i] for i in g], (rh[g], sh[g]), cands[g], 1.0 - e[g],
                       ws[g].max(axis=1)))
    search = [i for group in groups for i in group[0]]
    if not search:
        return out
    _, pairs, cands, target, smax = zip(*groups)
    p, probes = _neyman_pearson(pairs, *map(np.concatenate, (cands, target, smax)))
    for i, v, pad, top, low, *fields in zip(search, p.v, *(x.tolist() for x in (
            p.pad, p.top, p.low, p.t, p.gamma, p.gap, p.cost, p.a + p.gamma * p.b, probes))):
        out[i] = _result(v[:, top - pad:].copy(), v[:, low - pad:top - pad].copy(), *fields)
    return out


def d_h(rho, sigma, eps: float) -> EntropyResult:
    """Hypothesis testing relative entropy D_H^eps(rho || sigma), in bits:
    ``d_h_many([rho], [sigma], [eps])[0]``.

    The optimal test is a Neyman-Pearson operator: the projector onto the
    positive part of (rho - t*sigma) plus a fractional weight on the
    threshold eigenspace. t is bracketed between the generalized eigenvalues
    of (rho, sigma), read off sigma's whitening (the jumps when rho has no
    weight on ker sigma), and bisected inside a smooth piece; every probe is
    certified by SDP duality at mu = 1/t (Wang and Renner, PRL 108, 200501,
    2012), down to a ``duality_gap`` in the witness (value <= D_H <= value +
    duality_gap, up to rounding; it warns if the gap stays above
    DH_GAP_TOL), and ``probes`` counts the splits built. At eps = 0 the
    test is the support projector Pi_rho of rho, the closed form
    -log2 Tr[Pi_rho sigma], and ``probes`` is 0, as it is at +inf.
    ``sigma`` only needs to be PSD (not normalized). Returns +inf (flagged
    in the witness) when the constraint is satisfiable with zero overlap on
    supp(sigma).

    There is one solver, ``d_h_many``'s: it stacks the pairs by size and runs
    all their probes in lockstep, and each pair keeps the bits it has when
    solved alone.
    """
    return d_h_many([rho], [sigma], [eps])[0]


def h_h_cond_cq(cq: CQState, eps: float) -> EntropyResult:
    """Conditional smooth hypothesis testing entropy H_H^eps(B|X) of a cq state.

    The optimizer is blockwise, Pi = sum_x |x><x| (x) Pi_x, so the LP
    separates: pairs (x, eigenvalue of rho_x) are filled greedily by
    eigenvalue descending, with gain P(x)*lambda and cost P(x) per pair, over
    the support entries of ``cq.spectra`` in row-major order: the one row of
    ``h_h_cond_cq_many``, on ``cq.probs`` and ``cq.spectra`` as they are (the
    state's constructor applied ``kept_symbols``).
    """
    _validate_eps(eps)
    gains, costs, width = _blockwise(cq.probs[None], cq.spectra[None])
    total, lam = _greedy_many(gains, costs, np.array([1.0 - eps]), width)
    k = int(width[0])
    return EntropyResult(
        value=float(np.log2(total)[0]),
        witness={"weights": lam[0, :k], "gains": gains[0, :k], "costs": costs[0, :k]},
        method="blockwise",
    )


def _cq_rows(probs, spectra):
    """The arrays entry of the stacked cq solvers: copies of the (m, n)
    probabilities and (m, n, d) spectra of m cq states in their layout, a
    state's symbols first with probability 0 after them, each conditional's
    clipped ascending spectrum at the end of its row with -1 before it, and
    -1 on a symbol past the state's. The probabilities obey
    ``kept_symbols``, applied to all the states as one stack; a symbol it
    does not keep gets probability 0 and spectrum -1, as if a ``CQState``
    had dropped it."""
    p, w = np.array(probs, dtype=float), np.array(spectra, dtype=float)
    p[~kept_symbols(p)] = 0.0
    w[p == 0.0] = -1.0
    return p, w


def _blockwise(p, w):
    """The blockwise LPs of the cq states with the (m, n) probabilities ``p``
    and the (m, n, d) clipped ascending spectra ``w`` of their conditionals
    (a ``CQState``'s, or ``_cq_rows``'s with entries of -1 outside them): row
    i holds the row-major (P(x) lambda, P(x)) entries of state i in the order
    of a stable argsort of the row that keys its non-support entries +inf, so
    they sort last, with cost 1; returns the (gains, costs) stacks and each
    row's support width."""
    costs = np.repeat(p, w.shape[-1], axis=1)
    w = w.reshape(costs.shape)
    support = w > SUPPORT_TOL
    costs = np.where(support, costs, 1.0)
    gains = np.where(support, costs * w, 0.0)
    order = np.argsort(np.where(support, -(gains / costs), np.inf), axis=1, kind="stable")
    return (*(np.take_along_axis(x, order, axis=1) for x in (gains, costs)),
            support.sum(axis=1))


def h_h_cond_cq_many(probs, spectra, eps):
    """``h_h_cond_cq`` at ``eps[i]`` of the cq state with the probabilities
    ``probs[i]`` and the clipped ascending spectra ``spectra[i]`` of its
    conditionals, for each i, in the layout of ``_cq_rows`` (states of one
    shape need no padding), as one stacked greedy over their ``_blockwise``
    LPs. Returns the (values, weights)
    arrays, each row with the bits of its own ``h_h_cond_cq`` value and
    witness weights (in its sorted order, zero past its support)."""
    eps = _eps_rows(eps, len(spectra))
    gains, costs, width = _blockwise(*_cq_rows(probs, spectra))
    total, lam = _greedy_many(gains, costs, 1.0 - eps, width)
    return np.log2(total), lam


def h_min_cq(cq: CQState) -> float:
    """Unsmoothed conditional min entropy H_min(B|X) of a cq state:
    -log2 sum_x P(x) lambda_max(rho_x), the closed form of the SDP."""
    return h_min_cq_smoothed(cq, 0.0)


def h_min_cq_smoothed(cq: CQState, eps: float) -> float:
    """Truncation-smoothed H_min^eps(B|X) for cq states.

    Removes up to eps^2 of global trace weight from the tops of the
    conditionals' spectra, the rows of ``cq.spectra`` (optimal exact
    water-cut allocation), before applying the closed form. This restricted
    smoothing lower-bounds the purified-distance-ball optimum; at eps = 0 it
    is ``h_min_cq``. The one row of ``h_min_cq_smoothed_many``, on
    ``cq.probs`` and ``cq.spectra`` as they are.
    """
    _validate_eps(eps)
    return float(_water_cut(cq.probs[None], cq.spectra[None], np.array([eps]))[0])


def h_min_cq_smoothed_many(probs, spectra, eps) -> np.ndarray:
    """``h_min_cq_smoothed`` at ``eps[i]`` of the cq state with the
    probabilities ``probs[i]`` and the clipped ascending spectra
    ``spectra[i]`` of its conditionals, for each i, in the layout of
    ``_cq_rows``, as one water cut; each value has the bits of its own
    call."""
    eps = _eps_rows(eps, len(spectra))
    return _water_cut(*_cq_rows(probs, spectra), eps)


def _water_cut(p, w, eps) -> np.ndarray:
    """The smoothed H_min of each cq state of the (m, n) probabilities ``p``
    and (m, n, d) clipped ascending spectra ``w`` at its ``eps``: its budget
    eps^2 lowers the cut level of one symbol at a time, the one of smallest
    multiplicity at its level and then of lowest index (P cancels in the
    gain/cost ratio), to its next eigenvalue while the budget pays for it,
    and then as far as the rest pays. The states run in lockstep, one step
    each per round, with the arithmetic of a heap loop over one state. A
    symbol of probability 0 takes no step; entries of -1 lie outside every
    spectrum (zeros would count toward a tiny level's multiplicity)."""
    m, n, d = w.shape
    level, budget = w[..., -1].copy(), eps * eps  # each symbol's cut level, at its top
    rows = np.flatnonzero(budget > 1e-18)
    if rows.size:  # the rounds' setup, only when some state has budget to spend
        desc = np.concatenate([w[..., ::-1], np.full((m, n, 1), -1.0)], axis=-1)  # and a -1 last
        # a symbol's multiplicity at its level while it can step, d + 1 once it cannot
        mult = np.where(p > 0, (desc >= level[..., None] - 1e-15).sum(axis=-1), d + 1)
        rows = rows[mult[rows].min(axis=1) <= d]
    while rows.size:
        i = mult[rows].argmin(axis=1)  # the first of the smallest
        k = mult[rows, i]
        t, q, b = level[rows, i], p[rows, i], budget[rows]
        nxt = np.maximum(desc[rows, i, k], 0.0)
        cost = q * k * (t - nxt)
        fits = cost <= b
        level[rows, i] = np.where(fits, nxt, t - b / (q * k))
        budget[rows] = b = np.where(fits, b - cost, 0.0)
        more = (desc[rows, i] >= (nxt - 1e-15)[:, None]).sum(axis=1)
        mult[rows, i] = np.where(nxt > 0, np.maximum(k, more), d + 1)
        rows = rows[fits & (b > 1e-18) & (mult[rows].min(axis=1) <= d)]
    acc = np.cumsum(p * np.maximum(level, 0.0), axis=1)[:, -1]  # summed in order
    return -np.log2(np.maximum(acc, 1e-300))


def h_max_smooth(rho, eps: float) -> float:
    """Truncation-smoothed unconditional max entropy.

    Renyi-1/2 of the eps-truncated, renormalized spectrum:
    2 log2 sum_i sqrt(lambda'_i), one row of ``Truncation``. Guaranteed
    <= ``h_tilde_max`` at the same eps (checked at runtime); lower-bounds the
    ball-smoothed H_max only in the truncation-smoothing convention
    documented in the module docstring.
    """
    return float(Truncation(_spectrum(rho)[None], eps).h_max_smooth()[0])


def _imax_smooth_support(cq: CQState, eps: float) -> list:
    """Indices of symbols kept after removing lowest-probability symbols
    totaling at most eps mass (always keeps at least one)."""
    order = np.argsort(cq.probs, kind="stable")
    k = int(np.searchsorted(np.cumsum(cq.probs[order]), eps + 1e-15, side="right"))
    return sorted(order[min(k, len(order) - 1):].tolist())


def _povm_from(states: np.ndarray, weights: np.ndarray, eye: np.ndarray) -> np.ndarray:
    """Normalize a stack of PSD weights {M_x} into a POVM {T M_x T} with
    T = (sum_x M_x)^{-1/2} on its support; kernel slack goes to the symbol
    whose state gains most from it, so the elements sum to the identity.
    ``eye`` is the identity of the states' dimension."""
    # T = V f(W) V^dagger does not depend on the phases of the eigenvectors
    w, v = linalg._eigh(linalg.hermitian_part(np.add.reduce(weights)))
    t = linalg.eig_power(linalg.clip_psd_spectrum(w), v, -0.5)
    povm = linalg.hermitian_part(t @ weights @ t)
    # Hermitian bit for bit, as a sum of Hermitian parts
    slack = eye - np.add.reduce(povm)
    if np.maximum.reduce(np.abs(slack), axis=None) > 1e-14:
        gains = np.real(np.einsum("ij,xji->x", slack, states))
        povm[int(np.argmax(gains))] += slack
    return povm


def _certify(states: np.ndarray, povm: np.ndarray, y: np.ndarray, eye: np.ndarray):
    """Certified bounds on min{Tr tau : tau >= rho_x} from a POVM and a
    candidate operator ``y``.

    The POVM gives the dual lower bound sum_x Tr[Pi_x rho_x]; ``y`` is lifted
    to the feasible tau = y + max(0, lambda_max(rho_x - y)) I, whose trace is
    the upper bound (``eye`` is that I). Returns (lower, upper, tau).
    """
    lower = float(np.real(np.einsum("xij,xji->", povm, states)))
    c = max(float(np.maximum.reduce(linalg.eigvalsh(states - y, tol=1e-6), axis=None)), 0.0)
    upper = float(y.trace().real) + len(eye) * c
    return lower, upper, y + c * eye


def _gap_bits(lower: float, upper: float) -> float:
    return float(np.log2(upper) - np.log2(max(lower, 1e-300)))


class _Bounds:
    """Best certified lower and upper bound found so far on the ``states``
    that the stages solve, with the feasible tau attaining the upper one, and
    ``eye``, the identity the stages take. ``certify`` is the one
    certify-and-stop step of all three stages; its rule that a Newton step
    must halve the gap is what ends both Newton stages short of the
    tolerance, since neither has a step cap."""

    def __init__(self, states: np.ndarray):
        self.states, self.eye = states, np.eye(states.shape[1])
        self.lower = 1e-300
        self.tau = states.sum(axis=0)  # always feasible: tau = sum_x rho_x
        self.upper = float(self.tau.trace().real)

    def certify(self, povm: np.ndarray, y: np.ndarray, last: float = np.inf):
        """Certify ``povm`` and the candidate ``y`` (``_certify``) and keep
        what improves (``update``). Returns the pair's gap in bits, or None
        to stop: when the best gap is <= ``IMAX_GAP_TOL``, or when the pair's
        gap is above half of ``last``, the previous gap that a Newton stage
        passes."""
        lower, upper, tau = _certify(self.states, povm, y, self.eye)
        gap = _gap_bits(lower, upper)
        if self.update(lower, upper, tau) <= IMAX_GAP_TOL or gap > 0.5 * last:
            return None
        return gap

    def update(self, lower: float, upper: float, tau: np.ndarray) -> float:
        """Keep the better bounds; returns the gap in bits."""
        if lower > self.lower:
            self.lower = lower
        if 0 < upper < self.upper:
            self.upper = upper
            self.tau = tau
        return self.gap

    @property
    def gap(self) -> float:
        return _gap_bits(self.lower, self.upper)

    def lift(self, states: np.ndarray, basis: np.ndarray, povm: np.ndarray):
        """Turn bounds found on the V^dag rho_x V into bounds on the rho_x.

        tau lifts to V tau V^dag, certified once more against the full
        ``states``, so the upper bound stays feasible there. The reduced
        lower bounds stay valid: a lifted POVM {V Pi_x V^dag} is a POVM once
        the kernel's slack goes to one symbol, which only adds
        Tr[slack rho_x] >= 0.
        """
        lower, self.upper, self.tau = _certify(
            states, basis @ povm @ linalg.dagger(basis),
            basis @ self.tau @ linalg.dagger(basis), np.eye(len(basis)))
        self.lower = max(self.lower, lower)


def _fixed_point(states, povm, best: _Bounds, iterations: int):
    """Discrimination fixed point Pi_x <- T rho_x Pi_x rho_x T, certified every
    iteration by its Lagrange operator Y = sum_x rho_x Pi_x. Returns the last
    POVM and the number of iterations run."""
    rp = states @ povm
    for it in range(1, iterations + 1):
        povm = _povm_from(states, rp @ states, best.eye)
        rp = states @ povm
        if best.certify(povm, linalg.hermitian_part(np.add.reduce(rp))) is None:
            return povm, it
    return povm, iterations


# Stages 2 and 3 solve systems of r^2 or more real unknowns, so they only run
# up to this support dimension r.
NEWTON_MAX_DIM = 16

# i_max_cq stops once certified within this many bits, or after this many iterations
IMAX_GAP_TOL = 1e-9
IMAX_MAX_ITERATIONS = 10000

# Fixed-point iterations before stages 2 and 3 take over, where they run. 15
# bring the fixed point into its basin: of the 600 kd-quantum pool ensembles
# (n = 3-4 states on r = 3-4), 20 certify within them, and the other 580 start
# stage 2 at gaps of 1e-9 to 1e-2 bits. A budget of 10 runs faster still, but
# it hands stage 2 ensembles that the fixed point certifies within 11-15
# iterations, such as demo 01's, and moves their printed values. Where stage 3
# takes over from it, on full-support ensembles of r = 6-16, budgets of 25 and
# 40 made i_max_cq take 1.1-1.8x and 1.3-2.3x as long (one core of a 2-CPU
# x86 host).
FIXED_POINT_BUDGET = 15


def _joint_support(states: np.ndarray):
    """Orthonormal columns V spanning the support of sum_x rho_x, the
    eigenvalues above ``SUPPORT_TOL`` relative to the largest, or None when
    that support is the whole space."""
    w, v = linalg._eigh(linalg.hermitian_part(states.sum(axis=0)))
    keep = w > SUPPORT_TOL * w[-1]
    return None if keep.all() else v[:, keep]


def _schur(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The real matrix of H -> sum_x a_x H b_x on Hermitian d x d H, for a
    map that keeps H Hermitian, as a (d, d, d, d) array.

    The complex matrix of the map on row-major vec(H) is
    K = sum_x a_x (x) b_x^T; in the real coordinates M = Re H + Im H of the
    Hermitian H and of their images (see ``_solve_hermitian``) it is the real
    d^2 x d^2 matrix with entries Re K[ij,kl] + Im K[ij,lk]. That is a
    quarter of the arithmetic and half the memory of the complex system.
    """
    m, d, _ = a.shape
    pa = a.real.reshape(m, d * d)
    qa = a.imag.reshape(m, d * d)
    pq = np.concatenate([pa, qa])
    pb = b.real.reshape(m, d * d)
    qb = b.imag.reshape(m, d * d)
    # Re K[ij,kl] = sum_x Pa_ik Pb_lj - Qa_ik Qb_lj, computed indexed as
    # [i,k,l,j], and Im K[ij,lk] = sum_x Pa_il Qb_kj + Qa_il Pb_kj as
    # [i,l,k,j]; added in place, so no more than two d^4 arrays are alive at
    # a time
    hess = (pq.T @ np.concatenate([pb, -qb])).reshape(d, d, d, d).transpose(0, 3, 1, 2).copy()
    hess += (pq.T @ np.concatenate([qb, pb])).reshape(d, d, d, d).transpose(0, 3, 2, 1)
    return hess


def _solve_hermitian(jac: np.ndarray, rhs: np.ndarray):
    """Solve the real system ``jac`` M = ``rhs`` for the real coordinates
    M = Re H + Im H of a stack of Hermitian H, shaped as ``rhs``; returns
    H = (M + M^T)/2 + i (M - M^T)/2, or None if the system is singular."""
    try:
        m = linalg._solve(jac.reshape(rhs.size, rhs.size), rhs.reshape(-1)).reshape(rhs.shape)
    except np.linalg.LinAlgError:
        return None
    mt = m.swapaxes(-1, -2)
    return (m + mt) / 2.0 + 0.5j * (m - mt)


def _kkt_step(states, tau, pis):
    """The Newton step (dtau, dPi_1, ..., dPi_n), as one (n + 1, r, r) stack,
    of the optimality conditions of min Tr tau s.t. tau >= rho_x at (tau, Pi):
    sum_x Pi_x = I and S_x Pi_x + Pi_x S_x = 0 with S_x = tau - rho_x (the AHO
    direction at mu = 0). None if the system is singular.

    Its (n + 1) r^2 real unknowns are the real coordinates of the Hermitian
    dtau and dPi_x (see ``_schur``): the map H -> A H + H A of a
    Hermitian A has the complex matrix K = A (x) I + I (x) A^T and the real
    one Re K[ij,kl] + Im K[ij,lk].
    """
    n, r, _ = states.shape
    r2, eye = r * r, np.eye(r)
    s = tau - states
    ops = np.concatenate([pis, s])
    k = np.einsum("aik,jl->aijkl", ops, eye) + np.einsum("ik,alj->aijkl", eye, ops)
    k = (k.real + k.imag.swapaxes(-1, -2)).reshape(2 * n, r2, r2)
    # rows: sum_x dPi_x, then per x dtau Pi_x + Pi_x dtau + S_x dPi_x + dPi_x S_x
    jac = np.zeros((n + 1, r2, n + 1, r2))
    rows = np.arange(1, n + 1)
    jac[0, :, 1:] = np.eye(r2)[:, None]
    jac[rows, :, 0] = k[:n]
    jac[rows, :, rows] = k[n:]
    sp = s @ pis
    res = np.concatenate([(eye - np.add.reduce(pis))[None], -(sp + linalg.dagger(sp))])
    return _solve_hermitian(jac, res.real + res.imag)


# Stage 2 solves (n + 1) r^2 real unknowns a step, so it only runs up to this
# many. On 12 full-support ensembles a size, one core of a 2-CPU x86 host,
# i_max_cq with stage 2 took x0.52-0.72 of its time without it (stage 3 alone)
# up to 144 unknowns, x0.97-0.98 at 180-196 and x1.36-1.51 from 216 up.
KKT_MAX_UNKNOWNS = 150


def _kkt_newton(states, povm, best: _Bounds) -> int:
    """Newton's method on the optimality conditions (``_kkt_step``), from
    ``povm`` and the best feasible tau.

    Each step is certified and kept through ``best.certify``, with the exact
    POVM that ``_povm_from`` makes of the PSD parts of the Pi_x. Stops at
    ``IMAX_GAP_TOL``; declines on a singular system or on a step that does
    not halve the gap. Returns the number of steps taken.
    """
    tau, pis, gap, steps = best.tau, povm, best.gap, 0
    while gap is not None:
        h = _kkt_step(states, tau, pis)
        if h is None:
            break
        tau, pis, steps = tau + h[0], pis + h[1:], steps + 1
        w, v = linalg._eigh(pis)
        certified = _povm_from(states, (v * np.maximum(w, 0.0)[:, None, :]) @ linalg.dagger(v),
                               best.eye)
        gap = best.certify(certified, tau, gap)
    return steps


def _to_boundary(w: np.ndarray, v: np.ndarray, d: np.ndarray) -> float:
    """The step along ``d``, at most 1, that goes 95% of the way to the
    boundary of the positive definite cone from each V W V^dag of the stacked
    eigensystems (``w``, ``v``), read from the least eigenvalue of the
    whitened directions W^-1/2 V^dag d V W^-1/2."""
    u = v / np.sqrt(w)[:, None, :]
    low = np.minimum.reduce(linalg._eigvalsh(linalg.dagger(u) @ d @ u), axis=None)
    return 1.0 if low >= -0.95 else -0.95 / low


def _primal_dual(states, povm, best: _Bounds):
    """Primal-dual interior-point method on the S_x = tau - rho_x and the
    Pi_x: the HKM direction with Mehrotra's predictor-corrector.

    Starts from the best feasible tau moved inside by the gap and from
    Pi_x = 0.9 P_x + 0.1 I / n of the POVM P = ``povm``. A step eliminates
    dPi_x = sigma mu S_x^-1 - Pi_x - sym(S_x^-1 dtau Pi_x) - C_x, with
    mu = sum_x Tr[S_x Pi_x] / (n r), from sum_x dPi_x = I - sum_x Pi_x, which
    leaves the r^2 real unknowns of dtau (``_schur``): a predictor at
    sigma = 0 and C = 0, then a corrector at sigma = (mu_aff / mu)^2 with
    C_x = sym(S_x^-1 dtau dPi_x) of the predictor (Mehrotra's cube centers
    too little here: on the kd-quantum pool ensembles with stage 2 gated
    off it stalls on 90 of 600, the square on 1). tau and the Pi_x each go
    95% of the way to the boundary of their cone (``_to_boundary``). Each
    step's iterate, once checked positive definite, is certified and kept
    through ``best.certify``, with the POVM that ``_povm_from`` makes of the
    Pi_x. Stops at ``IMAX_GAP_TOL``, on a singular system, on an iterate that
    is not positive definite, or on a step that does not halve the gap.
    Returns the POVM last certified (``povm`` if none was) and the number of
    steps taken.
    """
    n, r, _ = states.shape
    margin = max(best.upper - best.lower, 1e-12 * best.upper)
    tau = best.tau + (margin / r) * best.eye
    pis = 0.9 * povm + (0.1 / n) * best.eye
    gap, steps = np.inf, 0
    while True:
        s = tau - states
        (ws, vs), (wp, vp) = linalg._eigh(s), linalg._eigh(pis)
        if min(np.minimum.reduce(ws, axis=None), np.minimum.reduce(wp, axis=None)) <= 0:
            return povm, steps
        if steps:
            povm = _povm_from(states, pis, best.eye)
            gap = best.certify(povm, tau, gap)
            if gap is None:
                return povm, steps
        sinv = (vs / ws[:, None, :]) @ linalg.dagger(vs)
        schur = _schur(np.concatenate([sinv, pis]), np.concatenate([pis, sinv]))
        mu = float(np.real(np.einsum("xij,xji->", s, pis))) / (n * r)
        sigma, c = 0.0, np.zeros((1, r, r))
        for predictor in (True, False):
            rhs = 2.0 * (sigma * mu * np.add.reduce(sinv) - best.eye - np.add.reduce(c))
            dtau = _solve_hermitian(schur, rhs.real + rhs.imag)
            if dtau is None:
                return povm, steps
            dpis = (sigma * mu) * sinv - pis - linalg.hermitian_part(sinv @ dtau @ pis) - c
            step_s, step_p = _to_boundary(ws, vs, dtau), _to_boundary(wp, vp, dpis)
            if predictor:
                mu_aff = float(np.real(np.einsum("xij,xji->", s + step_s * dtau,
                                                 pis + step_p * dpis))) / (n * r)
                sigma, c = (mu_aff / mu) ** 2, linalg.hermitian_part(sinv @ dtau @ dpis)
        tau, pis, steps = tau + step_s * dtau, pis + step_p * dpis, steps + 1


def i_max_cq(cq: CQState, eps: float = 0.0) -> ImaxResult:
    """Smooth max mutual information I_max^eps(X:B) of a cq ensemble.

    For cq states the D_max-based definition reduces to
    log2 min{Tr tau : tau >= rho_x for all x in the smoothed support},
    because rho^{XB} <= 2^lam rho^X (x) sigma iff rho_x <= 2^lam sigma for
    every supported x. Smoothing removes the lowest-probability symbols of
    total mass <= eps before solving.

    The SDP dual is unnormalized multi-state discrimination
    max sum_x Tr[Y_x rho_x] over POVMs {Y_x}. The stages share one
    certify-and-stop step (``_Bounds.certify``): every POVM gives a lower
    bound (``_certify``), every candidate tau is lifted to a feasible one for
    an upper bound, the best pair over all stages is kept and reported, in
    bits, and a stage stops once that best gap is within ``IMAX_GAP_TOL``, or,
    in a Newton stage, once a step's gap does not halve. Both Newton stages
    solve their linear systems in the real coordinates of Hermitian matrices
    through one helper (``_solve_hermitian``).

    The stages run on the joint support of the kept rows of ``cq.stack``:
    with V (d x r) spanning the support of sum_x rho_x (``_joint_support``),
    they solve the same problem for the V^dag rho_x V. That is exact: every
    rho_x lies in the span of V, so an optimal tau does too (compressing a
    feasible tau to it stays feasible and lowers no trace). The kd-oneshot
    environment ensembles, for one, have d = |B| rank(rho_AB) but
    r <= |A|. When r = d the states are used as they are.

    1. The discrimination fixed point, for ``FIXED_POINT_BUDGET``
       iterations when r <= ``NEWTON_MAX_DIM`` (else up to the cap).
    2. If it has not reached ``IMAX_GAP_TOL`` and the (n + 1) r^2 unknowns
       of n states are at most ``KKT_MAX_UNKNOWNS``, Newton's method on the
       optimality conditions (``_kkt_newton``) takes over from its POVM and
       the best feasible tau. Where the optimum is nondegenerate it
       converges quadratically; where it is degenerate it cuts the gap a few
       times a step, or declines.
    3. If the gap is still open, a primal-dual interior-point method
       (``_primal_dual``) takes over from the fixed point's POVM and the
       best feasible tau. Should it stall, the fixed point resumes from the
       POVM last certified, up to ``IMAX_MAX_ITERATIONS`` iterations in all.

    A reduced result is lifted back and its tau certified once more in the
    full space (``_Bounds.lift``), so ``sigma`` is a d x d operator feasible
    for the original rho_x. ``value`` is the feasible (upper) side, so
    value - duality_gap <= optimum <= value holds up to rounding: where the
    bounds meet within a few ulps the computed gap can fall below 0, and it
    is reported as 0. ``iterations`` counts fixed-point iterations and
    ``newton_steps`` the steps of stages 2 and 3; a run left at the cap above
    max(IMAX_GAP_TOL, 1e-6) bits warns, unconverged.
    """
    _validate_eps(eps)
    states = cq.stack[_imax_smooth_support(cq, eps)]
    n = states.shape[0]

    if n == 1:
        sigma = DensityOperator(cq.registers, states[0], validate=False)
        return ImaxResult(0.0, sigma, 0.0, iterations=0)

    basis = _joint_support(states)
    reduced = states if basis is None else linalg.dagger(basis) @ states @ basis
    r = reduced.shape[1]
    best = _Bounds(reduced)
    povm = np.broadcast_to(np.eye(r, dtype=complex) / n, (n, r, r))
    budget = IMAX_MAX_ITERATIONS
    if r <= NEWTON_MAX_DIM:
        budget = min(budget, FIXED_POINT_BUDGET)
    povm, iters = _fixed_point(reduced, povm, best, budget)
    steps = 0
    if best.gap > IMAX_GAP_TOL and iters < IMAX_MAX_ITERATIONS:  # the budget ran out
        steps = _kkt_newton(reduced, povm, best) if (n + 1) * r * r <= KKT_MAX_UNKNOWNS else 0
        if best.gap > IMAX_GAP_TOL:
            last, more = _primal_dual(reduced, povm, best)
            steps += more
            if best.gap > IMAX_GAP_TOL:
                povm, more = _fixed_point(reduced, last, best, IMAX_MAX_ITERATIONS - iters)
                iters += more
    if basis is not None:
        best.lift(states, basis, povm)
    gap = best.gap
    converged = gap <= max(IMAX_GAP_TOL, 1e-6)
    if not converged:
        warnings.warn(
            f"i_max_cq hit the iteration cap with duality gap {gap:.2e} bits")
    sigma = DensityOperator(cq.registers, best.tau / best.tau.trace().real,
                            validate=False)
    return ImaxResult(
        value=float(np.log2(best.upper)),
        sigma=sigma,
        duality_gap=float(max(gap, 0.0)),
        iterations=iters,
        converged=bool(converged),
        newton_steps=steps,
    )
