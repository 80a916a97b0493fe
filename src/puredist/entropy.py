"""One-shot entropic quantities, all in bits (base-2).

Covers the smoothed support/norm max entropies, the smooth hypothesis
testing entropy (unconditional greedy LP, general Neyman-Pearson test
with a duality certificate, cq-conditional blockwise greedy), the cq
conditional min entropy with a truncation-based smoothing, the truncated
Renyi-1/2 max entropy, and the D_max-based mutual information of cq
ensembles.

Smoothing convention: unless noted otherwise, smoothing is operationalized
as spectral truncation (dropping smallest-eigenvalue mass up to the budget)
rather than optimization over a purified-distance ball; each function's
docstring says whether it lower- or upper-bounds the ball-optimal quantity.
"""

import heapq
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .states import CQState, DensityOperator

SUPPORT_TOL = 1e-12


@dataclass
class EntropyResult:
    """Entropy value plus the witness that attains it.

    ``witness`` holds enough data to re-evaluate ``value`` independently
    (see ``reevaluate``); ``method`` is one of greedy-lp, neyman-pearson,
    blockwise, closed-form, iterative.
    """

    value: float
    witness: dict = field(default_factory=dict)
    method: str = ""

    def reevaluate(self) -> float:
        """Recompute the value from the stored witness."""
        w = self.witness
        if self.method in ("greedy-lp", "blockwise"):
            return float(np.log2(np.dot(w["costs"], w["weights"])))
        if self.method == "neyman-pearson":
            return float(-np.log2(w["test_cost"]))
        return self.value


@dataclass
class ImaxResult:
    """Certified D_max mutual information of a cq ensemble.

    ``value`` is attained by the feasible ``sigma``; ``duality_gap`` bounds
    the distance to the true optimum (value - gap <= optimum <= value).
    ``iterations`` counts fixed-point iterations and ``newton_steps`` the
    Newton steps of the barrier stage.
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
    return linalg.clip_psd_spectrum(linalg.eigvals_hermitian(_matrix(rho)))


def _matrix(rho) -> np.ndarray:
    return rho.matrix if isinstance(rho, DensityOperator) else np.asarray(rho, dtype=complex)


def _truncation_count(ascending: np.ndarray, eps: float) -> int:
    """The number of leading entries of the ascending masses whose running
    sum stays <= eps, capped at len - 1 so one entry is always kept."""
    k = int(np.searchsorted(np.cumsum(ascending), eps + 1e-15, side="right"))
    return min(k, len(ascending) - 1)


def truncated_support(w: np.ndarray, eps: float):
    """Spectral truncation at budget eps: the ascending support eigenvalues
    of the spectrum ``w`` and the number k of the smallest of them whose sum
    stays <= eps, capped at |supp| - 1 so one eigenvalue is always kept."""
    supp = np.sort(w[w > SUPPORT_TOL])
    return supp, _truncation_count(supp, eps)


def _kept_bits(supp: np.ndarray, k: int) -> float:
    """log2 of the number of support eigenvalues a truncation keeps."""
    return float(np.log2(len(supp) - k))


def h_tilde_max(rho, eps: float) -> float:
    """Smoothed support max entropy: log2(|supp| - k) after dropping the
    smallest eigenvalues of total mass <= eps."""
    _validate_eps(eps)
    return _kept_bits(*truncated_support(_spectrum(rho), eps))


def h_prime_max(rho, eps: float) -> float:
    """Smoothed norm max entropy: log2(1 / lambda_{k+1}) with k as in
    ``h_tilde_max``."""
    _validate_eps(eps)
    supp, k = truncated_support(_spectrum(rho), eps)
    return float(-np.log2(supp[k]))


def _greedy_lp(gains: np.ndarray, costs: np.ndarray, target: float):
    """Fractional-knapsack minimum of sum(costs * lam) subject to
    sum(gains * lam) >= target, 0 <= lam <= 1.

    Entries must be pre-sorted by gain/cost ratio descending. Returns
    (total cost, lam).
    """
    lam = np.zeros(len(gains))
    acc = 0.0
    for i, g in enumerate(gains.tolist()):
        if acc >= target - 1e-15 or g <= 0:
            break
        take = min(1.0, (target - acc) / g)
        lam[i] = take
        acc += take * g
    return float(np.dot(costs, lam)), lam


def h_h(rho, eps: float) -> EntropyResult:
    """Smooth hypothesis testing entropy of a single system.

    Solves the LP  min sum(lam_a)  s.t.  sum(P(a) lam_a) >= 1 - eps,
    0 <= lam <= 1, over the eigenvalues P of the state, by the greedy
    fractional-knapsack rule (fill the largest eigenvalues first).
    The value is log2 of the LP optimum and can be negative.
    """
    _validate_eps(eps)
    w = _spectrum(rho)
    p = w[w > SUPPORT_TOL][::-1]  # eigh's spectrum is ascending: no sort needed
    costs = np.ones_like(p)
    total, lam = _greedy_lp(p, costs, 1.0 - eps)
    return EntropyResult(
        value=float(np.log2(total)),
        witness={"weights": lam, "gains": p, "costs": costs},
        method="greedy-lp",
    )


# d_h stops once its test is certified within DH_GAP_TOL bits, or after DH_MAX_PROBES
DH_GAP_TOL = 1e-10
DH_MAX_PROBES = 100


class _Split:
    """rho - t sigma at a threshold t > 0: the Neyman-Pearson test P_+ +
    gamma P_0 (P_0 on the eigenvalues within rounding of zero), its rho mass
    and sigma cost, and its gap in bits to the dual bound mu (1 - eps) -
    Tr(mu rho - sigma)_+ at mu = 1/t; the gap is inf when the test misses
    the target, as then it certifies nothing."""

    def __init__(self, rh, sh, t, target, smax):
        self.t = t
        w, self.v = np.linalg.eigh(rh - t * sh)
        rd = (self.v.conj() * (rh @ self.v)).real.sum(axis=0)  # diagonals of rho
        sd = (self.v.conj() * (sh @ self.v)).real.sum(axis=0)  # and of sigma
        band = SUPPORT_TOL * max(1.0, t * smax)
        self.pos, self.zero = w > band, np.abs(w) <= band
        self.a, self.b = float(rd[self.pos].sum()), float(rd[self.zero].sum())
        self.above = float(rd[w > 0].sum()) >= target  # f(t) >= 1 - eps, so t <= the root
        self.gamma = 0.0 if self.b <= 1e-15 else min(1.0, max(0.0, (target - self.a) / self.b))
        self.cost = float(sd[self.pos].sum()) + self.gamma * float(sd[self.zero].sum())
        dual = (target - float(w[w > 0].sum())) / t
        ok = self.a + self.b >= target and self.cost > 0 and dual > 0
        self.gap = float(np.log2(self.cost / dual)) if ok else np.inf


def _neyman_pearson(rh, sh, cands, target, smax) -> tuple[_Split, int]:
    """The best certified split and the number of splits built. f(t)
    decreases and jumps only at generalized eigenvalues of (rho, sigma): the
    sorted candidates ``cands`` only choose probes (the middle of those left
    in the bracket lo <= t <= hi), then bisection takes over. The
    certificate alone ends the search, so a false candidate costs probes,
    not accuracy; an uncertified end warns."""
    lo, hi, best = 0.0, np.inf, None
    for n in range(1, DH_MAX_PROBES + 1):
        inside = cands[(cands > lo) & (cands < hi)]
        if len(inside):
            t = 0.5 * float(inside[(len(inside) - 1) // 2] + inside[len(inside) // 2])
        else:
            t = 0.5 * (lo + hi) if hi < np.inf else max(2.0 * lo, 1.0)
        p = _Split(rh, sh, t, target, smax)
        best = p if best is None or p.gap < best.gap else best
        lo, hi = (t, hi) if p.above else (lo, t)
        if p.gap <= DH_GAP_TOL or lo >= hi * (1.0 - 1e-14):
            break
    if not best.gap <= DH_GAP_TOL:
        warnings.warn(f"d_h test not certified: duality gap {best.gap:.3g} bits "
                      f"after {n} probes", stacklevel=3)
    return best, n


def d_h(rho, sigma, eps: float) -> EntropyResult:
    """Hypothesis testing relative entropy D_H^eps(rho || sigma), in bits.

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
    """
    _validate_eps(eps)
    r = _matrix(rho)
    s = _matrix(sigma)
    if r.shape != s.shape:
        raise ValueError(f"dimension mismatch: {r.shape} vs {s.shape}")
    # both inputs are checked (Hermitian, PSD) here, before any early return
    _spectrum(r)
    ws, vs = linalg.eig_hermitian(s)
    ws = linalg.clip_psd_spectrum(ws)
    target = 1.0 - eps

    # mass of rho available at zero sigma-cost
    ker = vs[:, ws <= SUPPORT_TOL]
    free_mass = float((linalg.dagger(ker) @ r @ ker).trace().real)
    if free_mass >= target - 1e-12:
        return EntropyResult(value=np.inf, witness={"infinite": True, "probes": 0},
                             method="neyman-pearson")
    if eps == 0.0:
        # the support projector of rho is the optimal test
        w, v = linalg.eig_hermitian(r)
        pos = v[:, w > SUPPORT_TOL]
        t, gamma, gap, zero, probes = 0.0, 0.0, 0.0, v[:, :0], 0
        mass = float((linalg.dagger(pos) @ r @ pos).trace().real)
        cost = float((linalg.dagger(pos) @ s @ pos).trace().real)
    else:
        # (x + x^dagger) / 2 is Hermitian bit for bit, and so is every rh - t*sh
        rh = (r + linalg.dagger(r)) / 2.0
        sh = (s + linalg.dagger(s)) / 2.0
        white = vs[:, ws > SUPPORT_TOL] / np.sqrt(ws[ws > SUPPORT_TOL])
        cands = np.linalg.eigh(linalg.dagger(white) @ rh @ white)[0]
        p, probes = _neyman_pearson(rh, sh, cands[cands > SUPPORT_TOL], target, float(ws.max()))
        t, gamma, gap, cost = p.t, p.gamma, p.gap, p.cost
        pos, zero, mass = p.v[:, p.pos], p.v[:, p.zero], p.a + p.gamma * p.b
    cost = max(cost, 1e-300)
    test = pos @ linalg.dagger(pos) + gamma * (zero @ linalg.dagger(zero))
    return EntropyResult(
        value=float(-np.log2(cost)),
        witness={"t": t, "gamma": gamma, "test": test, "test_cost": cost,
                 "achieved_mass": mass, "duality_gap": gap, "probes": probes},
        method="neyman-pearson",
    )


def h_h_cond_cq(cq: CQState, eps: float) -> EntropyResult:
    """Conditional smooth hypothesis testing entropy H_H^eps(B|X) of a cq state.

    The optimizer is blockwise, Pi = sum_x |x><x| (x) Pi_x, so the LP
    separates: pairs (x, eigenvalue of rho_x) are filled greedily by
    eigenvalue descending, with gain P(x)*lambda and cost P(x) per pair, over
    the support entries of ``cq.spectra`` in row-major order.
    """
    _validate_eps(eps)
    support = cq.spectra > SUPPORT_TOL
    gains = (cq.probs[:, None] * cq.spectra)[support]
    costs = np.repeat(cq.probs, support.sum(axis=1))
    order = np.argsort(-(gains / costs), kind="stable")
    total, lam = _greedy_lp(gains[order], costs[order], 1.0 - eps)
    return EntropyResult(
        value=float(np.log2(total)),
        witness={"weights": lam, "gains": gains[order], "costs": costs[order]},
        method="blockwise",
    )


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
    is ``h_min_cq``.
    """
    _validate_eps(eps)
    budget = eps * eps
    # per symbol: spectrum descending, current cut level, multiplicity at level
    desc = cq.spectra[:, ::-1]
    level = desc[:, 0].copy()
    mult = (desc >= level[:, None] - 1e-15).sum(axis=1).tolist()
    # lower the level with the smallest multiplicity first (P cancels in the
    # gain/cost ratio); advance to eigenvalue breakpoints until budget is gone
    heap = [(m, i) for i, m in enumerate(mult)]
    heapq.heapify(heap)
    while budget > 1e-18 and heap:
        m, i = heapq.heappop(heap)
        if m != mult[i]:
            continue  # stale entry
        w, t, p = desc[i], level[i], cq.probs[i]
        nxt = w[m] if m < len(w) else 0.0
        step_cost = p * m * (t - nxt)
        if step_cost <= budget:
            budget -= step_cost
            level[i] = nxt
            while mult[i] < len(w) and w[mult[i]] >= nxt - 1e-15:
                mult[i] += 1
            if nxt > 0:
                heapq.heappush(heap, (mult[i], i))
        else:
            level[i] = t - budget / (p * m)
            budget = 0.0
    acc = sum(cq.probs * np.maximum(level, 0.0))
    return float(-np.log2(max(acc, 1e-300)))


def h_max_smooth(rho, eps: float) -> float:
    """Truncation-smoothed unconditional max entropy.

    Renyi-1/2 of the eps-truncated, renormalized spectrum:
    2 log2 sum_i sqrt(lambda'_i). Guaranteed <= ``h_tilde_max`` at the same
    eps (checked at runtime); lower-bounds the ball-smoothed H_max only in
    the truncation-smoothing convention documented in the module docstring.
    """
    _validate_eps(eps)
    supp, k = truncated_support(_spectrum(rho), eps)
    kept = supp[k:]
    kept = kept / kept.sum()
    value = float(2.0 * np.log2(np.sqrt(kept).sum()))
    bound = _kept_bits(supp, k)  # h_tilde_max of the same spectrum
    if value > bound + 1e-9:
        raise linalg.InvariantError(f"Renyi-1/2 {value} exceeded support bound {bound}")
    return value


def _imax_smooth_support(cq: CQState, eps: float) -> list:
    """Indices of symbols kept after removing lowest-probability symbols
    totaling at most eps mass (always keeps at least one)."""
    order = np.argsort(cq.probs, kind="stable")
    return sorted(order[_truncation_count(cq.probs[order], eps):].tolist())


def _hermitian_part(m: np.ndarray) -> np.ndarray:
    return (m + linalg.dagger(m)) / 2.0


def _povm_from(states: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Normalize a stack of PSD weights {M_x} into a POVM {T M_x T} with
    T = (sum_x M_x)^{-1/2} on its support; kernel slack goes to the symbol
    whose state gains most from it, so the elements sum to the identity."""
    d = states.shape[1]
    s = _hermitian_part(weights.sum(axis=0))
    # T = V f(W) V^dagger does not depend on the phases of the eigenvectors
    w, v = np.linalg.eigh(s)
    w = linalg.clip_psd_spectrum(w)
    inv_sqrt = np.zeros_like(w)
    mask = w > 1e-12
    inv_sqrt[mask] = w[mask] ** -0.5
    t = (v * inv_sqrt) @ linalg.dagger(v)
    povm = _hermitian_part(t @ weights @ t)
    slack = _hermitian_part(np.eye(d) - povm.sum(axis=0))
    if np.abs(slack).max() > 1e-14:
        gains = np.real(np.einsum("ij,xji->x", slack, states))
        povm[int(np.argmax(gains))] += slack
    return povm


def _certify(states: np.ndarray, povm: np.ndarray, y: np.ndarray):
    """Certified bounds on min{Tr tau : tau >= rho_x} from a POVM and a
    candidate operator ``y``.

    The POVM gives the dual lower bound sum_x Tr[Pi_x rho_x]; ``y`` is lifted
    to the feasible tau = y + max(0, lambda_max(rho_x - y)) I, whose trace is
    the upper bound. Returns (lower, upper, tau).
    """
    d = states.shape[1]
    lower = float(np.real(np.einsum("xij,xji->", povm, states)))
    excess = states - y
    if np.abs(excess - linalg.dagger(excess)).max() > 1e-6:
        raise ValueError("matrix is not Hermitian within tolerance")
    c = max(float(np.linalg.eigvalsh(_hermitian_part(excess)).max()), 0.0)
    upper = float(y.trace().real) + d * c
    return lower, upper, y + c * np.eye(d)


def _gap_bits(lower: float, upper: float) -> float:
    return float(np.log2(upper) - np.log2(max(lower, 1e-300)))


class _Bounds:
    """Best certified lower and upper bound found so far, with the feasible
    tau attaining the upper one."""

    def __init__(self, states: np.ndarray):
        self.lower = 1e-300
        self.tau = states.sum(axis=0)  # always feasible: tau = sum_x rho_x
        self.upper = float(self.tau.trace().real)

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
            basis @ self.tau @ linalg.dagger(basis))
        self.lower = max(self.lower, lower)


def _fixed_point(states, povm, best: _Bounds, iterations: int):
    """Discrimination fixed point Pi_x <- T rho_x Pi_x rho_x T, certified every
    iteration by its Lagrange operator Y = sum_x rho_x Pi_x. Returns the last
    POVM and the number of iterations run."""
    rp = states @ povm
    for it in range(1, iterations + 1):
        povm = _povm_from(states, rp @ states)
        rp = states @ povm
        y = _hermitian_part(rp.sum(axis=0))
        if best.update(*_certify(states, povm, y)) <= IMAX_GAP_TOL:
            return povm, it
    return povm, iterations


# Stage 2 solves an r^2 x r^2 Newton system, so it only runs up to this support
# dimension r.
NEWTON_MAX_DIM = 16

# i_max_cq stops once certified within this many bits, or after this many iterations
IMAX_GAP_TOL = 1e-9
IMAX_MAX_ITERATIONS = 10000


def _fixed_point_budget(r: int) -> int:
    """Fixed-point iterations to run before handing the tail to stage 2.

    ``r`` is the dimension the stages run in: the joint support of the
    ensemble (see ``i_max_cq``), which is also what ``NEWTON_MAX_DIM``
    gates, so a d > 16 ensemble of small support gets the Newton stage too.

    On one core of a 2-CPU x86 host, with n = 3-4 states, a fixed-point
    iteration costs 0.24-0.4 ms for r <= 16; a Newton step costs about
    0.4 ms at r <= 6, 0.7 ms at r=8, 1.9 ms at r=12 and 3.3 ms at r=16.
    Warm-started from the fixed point, stage 2 certified in a median of 14
    Newton steps (6-51) on 600 random kd-oneshot ensembles solved in their
    full d = 8-16, which costs as much as about 25 fixed-point iterations
    at r <= 4, 35 at r=8, 65 at r=12 and 115 at r=16. The budget follows
    that crossover; on those ensembles it ran faster than half and twice
    itself. Solved on their supports (r = 3-4), the same ensembles take
    25-27 fixed-point iterations and a median of 14 Newton steps (max 48).
    """
    return 25 + r ** 3 // 32


def _joint_support(states: np.ndarray):
    """Orthonormal columns V spanning the support of sum_x rho_x, the
    eigenvalues above ``SUPPORT_TOL`` relative to the largest, or None when
    that support is the whole space."""
    w, v = np.linalg.eigh(_hermitian_part(states.sum(axis=0)))
    keep = w > SUPPORT_TOL * w[-1]
    return None if keep.all() else v[:, keep]


def _newton_step(sinv: np.ndarray, grad: np.ndarray):
    """Solve sum_x S_x^-1 H S_x^-1 = -grad for Hermitian H, or None if the
    system is singular.

    The Newton matrix sum_x S_x^-1 (x) S_x^-T acts on complex d x d
    matrices; it is solved in the real coordinates M = Re H + Im H of the
    Hermitian ones (H = (M + M^T)/2 + i (M - M^T)/2), where it is the real
    symmetric d^2 x d^2 matrix with entries Re K[ij,kl] + Im K[ij,lk] of the
    complex one, K. That is a quarter of the arithmetic and half the memory.
    """
    n, d, _ = sinv.shape
    p = sinv.real.reshape(n, d * d)
    q = sinv.imag.reshape(n, d * d)
    pq = np.concatenate([p, q])
    # Re K[ij,kl] = sum_x P_ik P_lj - Q_ik Q_lj, computed indexed as [i,k,l,j]
    # and Im K[ij,lk] = sum_x P_il Q_kj + Q_il P_kj as [i,l,k,j]; added in
    # place, so no more than two d^4 arrays are alive at a time
    hess = (pq.T @ np.concatenate([p, -q])).reshape(d, d, d, d).transpose(0, 3, 1, 2).copy()
    hess += (pq.T @ np.concatenate([q, p])).reshape(d, d, d, d).transpose(0, 3, 2, 1)
    try:
        m = np.linalg.solve(hess.reshape(d * d, d * d),
                            -(grad.real + grad.imag).reshape(-1)).reshape(d, d)
    except np.linalg.LinAlgError:
        return None
    return (m + m.T) / 2.0 + 0.5j * (m - m.T)


# Stage 2 multiplies t by this factor per outer step, and takes at most this
# many Newton steps in all.
BARRIER_GROWTH = 8.0
NEWTON_MAX_STEPS = 200


def _barrier(states, best: _Bounds):
    """Newton barrier method for min Tr tau s.t. tau > rho_x.

    Minimizes t Tr tau - sum_x log det(tau - rho_x) for t rising by
    ``BARRIER_GROWTH``, warm-started just inside the best feasible tau, with
    damped Newton steps that backtrack until every tau - rho_x stays
    positive definite. Each outer step is certified through ``_certify``
    with the dual point Z_x = (tau - rho_x)^-1 / t, built from the positive
    eigenvalues of tau - rho_x and normalized into an exact POVM. Stops when
    the gap reaches ``IMAX_GAP_TOL`` or stalls (singular Newton system, no gap
    progress). Returns the POVM of the last outer step (None if there was
    none) and the number of Newton steps taken.
    """
    n, d, _ = states.shape
    eye = np.eye(d)
    margin = max(best.upper - best.lower, 1e-12 * best.upper)
    tau = best.tau + (margin / d) * eye
    t = n * d / margin
    povm, steps = None, 0

    def factor(candidate):
        # sum_x log det(candidate - rho_x) and the eigensystems of the
        # candidate - rho_x, or None outside the interior
        w, v = np.linalg.eigh(candidate - states)
        if w.min() <= 0:
            return None, None
        return float(np.log(w).sum()), (w, v)

    def inverses(eig, scale=1.0):
        w, v = eig
        return (v / (scale * w)[:, None, :]) @ linalg.dagger(v)

    logdet, eig = factor(tau)
    gap = np.inf
    while logdet is not None and steps < NEWTON_MAX_STEPS:
        # centering: damped Newton steps until the decrement is small
        while steps < NEWTON_MAX_STEPS:
            sinv = inverses(eig)
            grad = t * eye - sinv.sum(axis=0)
            step = _newton_step(sinv, grad)
            if step is None:
                return povm, steps
            decrement = -float(np.real(np.vdot(grad, step)))
            if not np.isfinite(decrement) or decrement < 0:
                return povm, steps
            if decrement < 1e-9:
                break  # centered
            # near the center the full step is feasible and decreasing (the
            # barrier is self-concordant), and at large t rounding hides the
            # decrease; farther out, backtrack into the interior and to
            # sufficient decrease, formed from differences since t Tr tau
            # alone is too large to resolve it
            slope = t * float(step.trace().real)
            alpha = 1.0
            while True:
                new_logdet, new_eig = factor(tau + alpha * step)
                if new_logdet is not None and (
                        decrement < 1e-2 or alpha * slope - (new_logdet - logdet)
                        <= -0.25 * alpha * decrement):
                    break
                alpha *= 0.5
                if alpha < 1e-10:
                    return povm, steps
            tau, logdet, eig = tau + alpha * step, new_logdet, new_eig
            steps += 1
        povm = _povm_from(states, inverses(eig, t))
        lower, upper, feasible = _certify(states, povm, tau)
        step_gap = _gap_bits(lower, upper)
        if best.update(lower, upper, feasible) <= IMAX_GAP_TOL or step_gap > 0.5 * gap:
            break
        gap = step_gap
        t *= BARRIER_GROWTH
    return povm, steps


def i_max_cq(cq: CQState, eps: float = 0.0) -> ImaxResult:
    """Smooth max mutual information I_max^eps(X:B) of a cq ensemble.

    For cq states the D_max-based definition reduces to
    log2 min{Tr tau : tau >= rho_x for all x in the smoothed support},
    because rho^{XB} <= 2^lam rho^X (x) sigma iff rho_x <= 2^lam sigma for
    every supported x. Smoothing removes the lowest-probability symbols of
    total mass <= eps before solving.

    The SDP dual is unnormalized multi-state discrimination
    max sum_x Tr[Y_x rho_x] over POVMs {Y_x}. Two stages share one
    certificate (``_certify``): every POVM gives a lower bound, every
    candidate tau is lifted to a feasible one for an upper bound, and the
    best pair over both stages is reported, in bits.

    The stages run on the joint support of the kept rows of ``cq.stack``:
    with V (d x r) spanning the support of sum_x rho_x (``_joint_support``),
    they solve the same problem for the V^dag rho_x V. That is exact: every
    rho_x lies in the span of V, so an optimal tau does too (compressing a
    feasible tau to it stays feasible and lowers no trace). The kd-oneshot
    environment ensembles, for one, have d = |B| rank(rho_AB) but
    r <= |A|. When r = d the states are used as they are.

    1. The discrimination fixed point.
    2. If the fixed point has not reached ``IMAX_GAP_TOL`` within a budget
       set by r (``_fixed_point_budget``) and r <= ``NEWTON_MAX_DIM``, a
       Newton barrier method takes over the slow tail. Should it stall, the
       fixed point resumes from its POVM, up to ``IMAX_MAX_ITERATIONS``
       iterations in all.

    A reduced result is lifted back and its tau certified once more in the
    full space (``_Bounds.lift``), so ``sigma`` is a d x d operator feasible
    for the original rho_x. ``value`` is the feasible (upper) side, so
    value - duality_gap <= optimum <= value always holds. ``iterations``
    counts fixed-point iterations and ``newton_steps`` barrier steps; a run
    left at the cap above max(IMAX_GAP_TOL, 1e-6) bits warns, unconverged.
    """
    _validate_eps(eps)
    regs = cq.conditionals[0].registers
    states = cq.stack[_imax_smooth_support(cq, eps)]
    n = states.shape[0]

    if n == 1:
        sigma = DensityOperator(regs, states[0], validate=False)
        return ImaxResult(0.0, sigma, 0.0, iterations=0)

    basis = _joint_support(states)
    reduced = states if basis is None else linalg.dagger(basis) @ states @ basis
    r = reduced.shape[1]
    best = _Bounds(reduced)
    povm = np.broadcast_to(np.eye(r, dtype=complex) / n, (n, r, r))
    budget = IMAX_MAX_ITERATIONS
    if r <= NEWTON_MAX_DIM:
        budget = min(budget, _fixed_point_budget(r))
    povm, iters = _fixed_point(reduced, povm, best, budget)
    steps = 0
    if best.gap > IMAX_GAP_TOL and iters < IMAX_MAX_ITERATIONS:  # the budget ran out
        last, steps = _barrier(reduced, best)
        if best.gap > IMAX_GAP_TOL:
            povm, more = _fixed_point(reduced, povm if last is None else last, best,
                                      IMAX_MAX_ITERATIONS - iters)
            iters += more
    if basis is not None:
        best.lift(states, basis, povm)
    gap = best.gap if iters else np.inf
    converged = gap <= max(IMAX_GAP_TOL, 1e-6)
    if not converged:
        warnings.warn(
            f"i_max_cq hit the iteration cap with duality gap {gap:.2e} bits")
    sigma = DensityOperator(regs, best.tau / best.tau.trace().real,
                            validate=False)
    return ImaxResult(
        value=float(np.log2(best.upper)),
        sigma=sigma,
        duality_gap=float(max(gap, 0.0)),
        iterations=iters,
        converged=bool(converged),
        newton_steps=steps,
    )
