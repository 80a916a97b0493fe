"""Randomized measurement compression and its statistical validators.

Replaces a many-outcome POVM by K few-outcome POVMs Theta(k), each with L
outcomes plus a failure symbol, sampled from the measurement statistics of
the original POVM. A decode table maps (k, l) back to original outcomes.

Randomness discipline: the table entry x(k, l) is drawn from its own PCG64
stream keyed by SeedSequence(seed, spawn_key=(k, l)), so enlarging K or L
keeps every shared cell identical. That is what makes paired comparisons
across table sizes meaningful. numpy's SeedSequence mixes each seed into its
pool; the package mixes the spawn key into that pool and steps each cell's
PCG64 itself, for all cells at once. A seed sweep is one stack: ``compress_seeds``
draws and builds all its tables, and ``per_k_errors`` scores them, in shared passes.
The cells are built from Y_x = rho_A^{-1/2} sqrt(Lambda_x) rho_A^{1/2}, powers
of two kept eigensystems, the POVM's and rho_A's, each decomposed once.
"""

import json
import math
import operator
import warnings
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from . import entropy, io, linalg, states
from .states import Povm, PureState

_MASK32, _MASK64, _MASK128 = 2**32 - 1, 2**64 - 1, 2**128 - 1
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43b0d7e5, 0x931e8875, 0x8b51f9dd, 0x58f38ded
# PCG64 seeded with (s, i) (step from 0, add s, step), then stepped for
# random(), holds s M^2 + (2 i + 1)(M^2 + M + 1) mod 2^128
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_PCG_A = _PCG_MULT ** 2 & _MASK128
_PCG_B = (_PCG_A + _PCG_MULT + 1) & _MASK128


@cache
def _hash_consts(init, mult, start, n):
    """The (before, after) hash constants of n SeedSequence hashmix calls,
    from the one that ``start`` calls precede."""
    c = [init * pow(mult, start + j, 2**32) & _MASK32 for j in range(n + 1)]
    return list(zip(c, c[1:]))


_STATE_CONSTS = np.array(_hash_consts(_INIT_B, _MULT_B, 0, 8), np.uint32).T.reshape(2, 8, 1, 1, 1)


def _hashmix(value, consts):
    """SeedSequence's hashmix, on (wrapping) uint32 arrays."""
    value = (value ^ consts[0]) * consts[1] & _MASK32
    return value ^ value >> 16


def _mix(x, y):
    """SeedSequence's mix of a pool word x and a hashed word y."""
    r = 0xca01f9dd * x - 0x4973f715 * y & _MASK32
    return r ^ r >> 16


def _mul128(hi, lo, c):
    """(hi 2^64 + lo) c mod 2^128 as 64-bit halves, of uint64 arrays and an int c."""
    c_hi, c_lo = c >> 64, c & _MASK64
    x1, x0, c1, c0 = lo >> 32, lo & _MASK32, c_lo >> 32, c_lo & _MASK32
    mid = x1 * c0 + (x0 * c0 >> 32)
    carry = x1 * c1 + (mid >> 32) + (x0 * c1 + (mid & _MASK32) >> 32)
    return carry + lo * c_hi + hi * c_lo, lo * c_lo


def _add128(hi, lo, c_hi, c_lo):
    out = lo + c_lo
    return hi + c_hi + (out < lo), out


def _table_uniforms(seeds, K: int, L: int) -> np.ndarray:
    """The first ``random()`` of every cell's own stream (see above) for each
    of S seeds, as an S x K x L array: numpy's SeedSequence mixes each seed's
    words into its pool, the spawn key (k, l) is mixed into the four pool
    lanes as uint32 arrays, and each cell's PCG64 runs on 64-bit halves in
    uint64 arrays."""
    pools, keys = [], []
    for seed in seeds:
        seed = operator.index(seed)
        if seed < 0:
            raise ValueError("seed must be a non-negative integer")
        pools.append(np.random.SeedSequence(seed).pool)
        # the spawn key's hashmix calls follow the seed's 4 w, w = max(4, its 32-bit words)
        keys.append(_hash_consts(_INIT_A, _MULT_A, 4 * max(4, -(-seed.bit_length() // 32)), 8))
    key = np.array(keys, dtype=np.uint32).reshape(-1, 8, 2).T[..., None, None]  # (2, 8, S, 1, 1)
    pool = np.array(pools, dtype=np.uint32).T[..., None, None]
    pool = _mix(pool, _hashmix(np.arange(K, dtype=np.uint32)[:, None], key[:, :4]))
    pool = _mix(pool, _hashmix(np.arange(L, dtype=np.uint32), key[:, 4:]))
    # generate_state(4, uint64): eight words, low then high, of s and i
    state = _hashmix(np.concatenate([pool, pool]), _STATE_CONSTS).astype(np.uint64)
    v = state[0::2] | state[1::2] << 32
    hi, lo = _add128(*_mul128(v[0], v[1], _PCG_A), *_mul128(v[2], v[3], 2 * _PCG_B & _MASK128))
    hi, lo = _add128(hi, lo, _PCG_B >> 64, _PCG_B & _MASK64)
    x, rot = hi ^ lo, hi >> 58  # the XSL-RR output, as random() takes it
    return ((x >> rot | x << (64 - rot & 63)) >> 11) * 2.0 ** -53


@dataclass
class CompressionReport:
    ideal_vs_simulated: float
    per_pair_state_dist: float
    qkl_vs_uniform: float
    bot_mass: float

    def __post_init__(self):
        for f in ("ideal_vs_simulated", "per_pair_state_dist", "qkl_vs_uniform", "bot_mass"):
            if getattr(self, f) < 0:
                raise ValueError(f"{f} must be non-negative")


def declared_slack(eps: float, slack_bits: float | None = None) -> float:
    """The additive O(log 1/eps) slack of the rate formulas: ``slack_bits``
    when declared, log2(1/eps) otherwise."""
    return float(np.log2(1.0 / eps)) if slack_bits is None else slack_bits


class Instance:
    """One (pure input state, POVM, eps) problem and what it fixes.

    ``psi`` is pure on A, Bob's register ``bob_label`` (another register of
    psi) and any reference; the POVM acts on its register A. Nothing here
    depends on a compression seed, so each quantity is computed on first
    use and kept: the measurement branches (from the POVM's kept roots) and
    the ideal control states (one per party: the environment's and Bob's;
    ``ideal_bob`` serves both the rate formulas and the nice verdicts, and
    the environment's serves H_H(A|X) too, which equals H_H(E|X) on the
    pure branches),
    P_X and its checked cdf, rho_A's one eigensystem (both its roots and its
    spectrum), the roots Y_x and cell Grams the tables are built from, their cap
    ``c_cap`` on a table's c, I_max at eps^4 and the H_H and H_min
    conditional entropies (``h_h_cond`` and ``h_min_cond``, one solve per
    solver, state and smoothing). A compressed cell's state depends only on
    the outcome x it decodes to, so the per-outcome data every table shares
    lives here too, indexed by x: which outcomes are ``live``, the simulated
    conditionals and their Bob marginals (one stacked pass) with one stacked
    eigensystem each (``sims_eig``), their trace distances to the ideal
    conditionals (``sim_dists``), their pair entropies and nice verdicts,
    the A_g bounds and truncated targets of the in-place protocol, and Bob's
    codes.

    When Bob's register is the environment's only register of dimension > 1
    (``bob_alone``: a pure input's purification R has dimension 1), Bob's
    ensemble is the environment's: ``ideal_bob`` is ``ideal_env``,
    ``sims_bob`` is ``sims``, ``sims_eig`` holds one eigensystem twice and
    the pair entropies solve its LPs once.
    """

    def __init__(self, psi: PureState, povm: Povm, eps: float,
                 bob_label: str = "B", slack_bits: float | None = None):
        if not (0.0 < eps < 1.0):
            raise ValueError(f"eps must be in (0, 1), got {eps}")
        reg = povm.register
        if povm.dim != psi.dim(reg):
            raise ValueError(f"POVM dimension {povm.dim} does not match register "
                             f"{reg!r} dimension {psi.dim(reg)}")
        if bob_label == reg or bob_label not in psi.labels:
            raise ValueError(f"Bob's register {bob_label!r} must be a register of the state "
                             f"other than the measured register {reg!r}")
        self.psi, self.povm, self.eps, self.bob_label = psi, povm, eps, bob_label
        self.slack_bits = declared_slack(eps, slack_bits)
        self.env = [l for l in psi.labels if l != reg]
        self.env_dim = math.prod(psi.dim(l) for l in self.env)
        # Bob's register is the environment's only one of dimension > 1: his
        # ensemble and simulated states are the environment's, one object each
        self.bob_alone = self.env_dim == psi.dim(bob_label)
        self._solves = {}

    @cached_property
    def rho_a(self) -> np.ndarray:
        return self.psi.marginal([self.povm.register])

    @cached_property
    def rho_a_eig(self) -> tuple:
        """rho_A's clipped ascending eigensystem (w, v), its one decomposition:
        both roots in ``roots`` and the spectrum both local bounds and H_max read."""
        return linalg.psd_eig(self.rho_a)

    @cached_property
    def branches(self) -> states.PureState:
        """The measurement branches sqrt(Lambda_x) psi as one stacked state."""
        return self.psi.apply(self.povm.roots, [self.povm.register])

    def _ideal(self, keep) -> states.CQState:
        return states.branch_ensemble(self.branches, self.povm.labels, keep)

    @cached_property
    def ideal_env(self) -> states.CQState:
        return self._ideal(self.env)

    @cached_property
    def ideal_bob(self) -> states.CQState:
        return self.ideal_env if self.bob_alone else self._ideal([self.bob_label])

    @cached_property
    def p_x(self) -> np.ndarray:
        """P_X(x) = Tr Lambda_x rho_A, normalized."""
        p_x = self.povm.outcome_probs(self.rho_a)
        return p_x / np.sum(p_x)

    @cached_property
    def cdf(self) -> np.ndarray:
        """The cumulative P_X every table draws its cells from, after the
        checks of numpy's ``Generator.choice(len(p_x), p=p_x)``."""
        p_x = self.p_x
        if (not np.all(np.isfinite(p_x)) or np.any(p_x < 0)
                or abs(np.sum(p_x) - 1.0) > np.sqrt(np.finfo(np.float64).eps)):
            raise ValueError(f"P_X is not a probability vector: {p_x}")
        cdf = np.cumsum(p_x)
        return cdf / cdf[-1]

    @cached_property
    def roots(self) -> np.ndarray:
        """Y_x = rho_A^{-1/2} sqrt(Lambda_x) rho_A^{1/2} per outcome x, as one
        stack, the inverse taken on the support: the compressed cell for x is
        proportional to Y_x Y_x^dag, and Y_x^dag is its Kraus operator."""
        w, v = self.rho_a_eig
        return linalg.eig_power(w, v, -0.5) @ self.povm.roots @ linalg.eig_power(w, v, 0.5)

    @cached_property
    def cell_grams(self) -> np.ndarray:
        """Y_x Y_x^dag / P_X(x) per outcome x as one stack, zero where P_X(x)
        = 0 (no table draws x): a cell's operator for x before the table's
        scale c / L. The Gram form keeps them PSD despite rho^{-1/2}."""
        grams, p_x = self.roots @ linalg.dagger(self.roots), self.p_x[:, None, None]
        return np.divide(grams, p_x, out=np.zeros_like(grams), where=p_x > 0)

    @cached_property
    def c_cap(self) -> float:
        """1 / lambda_max(S), S = sum_x Y_x Y_x^dag the mean of ``cell_grams``
        over P_X: the cap a table's c tends to, not 1, as L grows."""
        mean = np.tensordot(self.p_x, self.cell_grams, axes=1)
        return 1.0 / float(linalg.eigvals_hermitian(linalg.hermitian_part(mean))[-1])

    @cached_property
    def imax(self) -> entropy.ImaxResult:
        return entropy.i_max_cq(self.ideal_env, self.eps ** 4)

    def h_h_cond(self, ideal: str, smoothing: float) -> float:
        """``h_h_cond_cq`` value at ``smoothing`` of the ideal control state
        named by ``ideal`` (one of the ``ideal_*`` attributes)."""
        return self._solved(entropy.h_h_cond_cq, ideal, smoothing).value

    def h_min_cond(self, ideal: str, smoothing: float) -> float:
        """``h_min_cq_smoothed`` at ``smoothing`` of the ideal control state
        named by ``ideal``."""
        return self._solved(entropy.h_min_cq_smoothed, ideal, smoothing)

    def _solved(self, solve, ideal, smoothing):
        # keyed by identity: an ensemble that two names share is solved once
        key = (solve, getattr(self, ideal), smoothing)
        if key not in self._solves:
            self._solves[key] = solve(key[1], smoothing)
        return self._solves[key]

    @cached_property
    def ideal_by_outcome(self):
        """(P(x), rho_x^env) of the ideal control state indexed by POVM
        outcome, as a vector and one stack, zero where x is dropped."""
        ideal = self.ideal_env
        xs = [self.povm.labels.index(lbl) for lbl in ideal.symbols]
        probs = np.zeros(len(self.povm))
        conds = np.zeros((len(self.povm), self.env_dim, self.env_dim), dtype=complex)
        probs[xs], conds[xs] = ideal.probs, ideal.stack
        return probs, conds

    @cached_property
    def ideal_blocks(self) -> np.ndarray:
        """P(x) rho_x^env per POVM outcome x as one stack, zero if x is dropped;
        ``ideal_block_norms`` holds their trace norms."""
        probs, conds = self.ideal_by_outcome
        return probs[:, None, None] * conds

    @cached_property
    def ideal_block_norms(self) -> np.ndarray:
        return linalg.trace_norm(self.ideal_blocks)

    @cached_property
    def sim_dists(self) -> np.ndarray:
        """||rho_x^env - sigma_x||_1 per outcome x that is live and kept in the
        ideal state, zero elsewhere: every view's per-pair state distances."""
        probs, conds = self.ideal_by_outcome
        return np.where(self.live & (probs > 0), linalg.trace_norm(conds - self.sims), 0.0)

    @cached_property
    def simulated(self) -> tuple:
        """``simulated_conditionals``, read as ``live``, ``sims`` and ``sims_bob``."""
        return simulated_conditionals(self)

    live = property(lambda self: self.simulated[0])
    sims = property(lambda self: self.simulated[1])
    sims_bob = property(lambda self: self.simulated[2])

    @cached_property
    def sims_eig(self) -> tuple:
        """The descending eigensystems (w, v) of ``sims`` and of ``sims_bob``,
        one stacked ``linalg.descending_eig`` each, one in all when the stacks
        are one: the pair entropies read their spectra, the truncated targets
        and Bob's codes the whole."""
        env = linalg.descending_eig(self.sims, tol=1e-7)
        return env, env if self.bob_alone else linalg.descending_eig(self.sims_bob, tol=1e-7)

    @cached_property
    def pair_entropies(self) -> tuple:
        """At smoothing eps^(1/8), zero where x is not live: the H_H value of
        each simulated conditional, its LP weights (padded to ``env_dim``) and
        the H_H value of its Bob marginal."""
        smooth, live, n = self.eps ** 0.125, self.live, len(self.live)
        h_env, weights, h_bob = np.zeros(n), np.zeros((n, self.env_dim)), np.zeros(n)
        (w_env, _), (w_bob, _) = self.sims_eig
        # h_h_many takes ascending spectra
        h_env[live], weights[live] = entropy.h_h_many(w_env[live, ::-1], smooth)
        # Bob's LPs are the environment's when his ensemble is
        h_bob[live] = (h_env[live] if self.bob_alone
                       else entropy.h_h_many(w_bob[live, ::-1], smooth)[0])
        return h_env, weights, h_bob

    @cached_property
    def nice_outcomes(self) -> np.ndarray:
        """``nice_sets``' verdict on a cell that decodes to x, per outcome x."""
        bound_env = self.h_h_cond("ideal_env", self.eps) + self.slack_bits + 1e-12
        bound_bob = self.h_h_cond("ideal_bob", self.eps) + self.slack_bits + 1e-12
        h_env, _, h_bob = self.pair_entropies
        return self.live & (h_env <= bound_env) & (h_bob <= bound_bob)

    @cached_property
    def ag_bounds(self) -> tuple:
        """The rank of each truncated simulated conditional (its LP weights
        above 1e-12) and the entropic cap ceil(2^{H_H} + 1) on it."""
        h_env, weights, _ = self.pair_entropies
        return (np.sum(weights > 1e-12, axis=1),
                np.array([math.ceil(2.0 ** h + 1 - 1e-9) for h in h_env.tolist()]))

    @cached_property
    def truncated_targets(self) -> tuple:
        """(tw, v): the descending eigenvectors v of each simulated conditional
        and its eigenvalues times the LP weights, renormalized (zero where x
        is not live): the states the in-place protocol purifies into A_g."""
        w, v = self.sims_eig[0]
        tw = w * self.pair_entropies[1]
        return np.divide(tw, np.sum(tw, axis=1, keepdims=True), out=np.zeros_like(tw),
                         where=self.live[:, None]), v

    @cached_property
    def bob_codes(self) -> list:
        """Bob's code (bits, kept, rows) of each simulated Bob marginal, None
        where x is not live: one ``entropy.truncation_codes`` call on the live ones."""
        codes = iter(entropy.truncation_codes(*(x[self.live] for x in self.sims_eig[1]), self.eps))
        return [next(codes) if ok else None for ok in self.live.tolist()]


@dataclass(eq=False)
class Compression:
    """One K x L compressed measurement of an ``Instance``, built by
    ``compress_seeds`` (one seed: ``compress_measurement``). Each cell is
    drawn from its own seeded stream, so the table is a function of (instance,
    K, L, seed): it serializes as that recipe (``to_json``), and ``from_json``
    redraws it.

    ``elements[k]`` stacks row k's L cell operators, then the failure element.
    ``decode[k, l]`` is the original outcome x that cell (k, l) stands for;
    its operator, state and niceness depend on x alone. ``q_kl`` is the
    exact joint outcome distribution with uniform k (failure column last).
    The nice sets, per-k errors, chosen k, the probability decoded to each
    outcome and the per-pair state distance are computed on first use and
    kept; ``k`` raises ``NoGoodK`` exactly where ``find_good_k`` does.
    """

    instance: Instance
    K: int
    L: int
    seed: int
    elements: np.ndarray
    decode: np.ndarray
    q_kl: np.ndarray
    c_norm: float

    @property
    def quality_warning(self) -> bool:
        return self.c_norm < 0.5

    def q_l_given_k(self, k: int) -> np.ndarray:
        return self.q_kl[k] * self.K

    def to_json(self) -> str:
        """The table's recipe as JSON: K, L and seed redraw it from its
        instance; the register and the decode table let ``from_json`` check
        that the instance is the one it was drawn from."""
        return io.dumps({"K": self.K, "L": self.L, "seed": self.seed,
                         "register": self.instance.povm.register, "decode": self.decode})

    @staticmethod
    def from_json(text: str, instance: Instance) -> "Compression":
        """Redraw the table that ``to_json`` wrote from ``instance``: a loaded
        table is always one that ``compress_seeds`` draws."""
        d = json.loads(text)
        if d["register"] != instance.povm.register:
            raise ValueError("the table does not measure this instance's register")
        view = compress_measurement(instance, K=d["K"], L=d["L"], seed=d["seed"])
        if not np.array_equal(view.decode, d["decode"]):
            raise ValueError("the table was drawn from another instance")
        return view

    @cached_property
    def nice(self):
        return nice_sets(self)

    @cached_property
    def errors(self) -> np.ndarray:
        return per_k_errors([self])[0]

    @cached_property
    def k(self) -> int:
        return find_good_k(self)

    @cached_property
    def outcome_weights(self) -> np.ndarray:
        """The simulated probability decoded to each outcome, failure mass excluded."""
        weights = np.zeros(len(self.instance.povm))
        np.add.at(weights, self.decode.reshape(-1), self.q_kl[:, :self.L].reshape(-1))
        return weights

    @cached_property
    def per_pair_state_dist(self) -> float:
        """The largest ``Instance.sim_dists`` of an outcome decoded with
        probability above 1e-12, 0 when there is none: the per-pair state
        distance of ``validate_compression``."""
        return max([0.0] + self.instance.sim_dists[self.outcome_weights > 1e-12].tolist())


def compress_measurement(inst: Instance, K: int, L: int, seed: int) -> Compression:
    """The K x L compressed measurement of an instance for one seed (``compress_seeds``)."""
    return compress_seeds(inst, K, L, [seed])[0]


def compress_seeds(inst: Instance, K: int, L: int, seeds) -> list:
    """Build the randomized K x L compressed measurement of an instance for
    each seed, all seeds in shared array passes, views in seed order.

    For each cell an original outcome x(k, l) is sampled iid from the
    measurement statistics P_X; the cell operator is
    c/L * Y_x Y_x^dag / P_X(x) = c/L * rho^{-1/2} sqrt(Lam_x) rho sqrt(Lam_x)
    rho^{-1/2} on the support of rho^A, with c the largest constant keeping
    every row summable into a POVM. The failure element absorbs the
    remainder (and the complement of supp(rho^A)). A row sum short of
    identity by more than half (c < 1/2) raises a quality warning, one per
    seed in seed order: L is too small, or, when the instance's ``c_cap`` is
    below 1/2, no L lifts c to 1/2.
    """
    if K < 1 or L < 1:
        raise ValueError("K and L must be at least 1")
    rho_a, d, n, base = inst.rho_a, inst.rho_a.shape[0], len(seeds), inst.cell_grams
    # Generator.choice(len(p_x), p=p_x) per cell: one draw on the instance's cdf
    decode = inst.cdf.searchsorted(_table_uniforms(seeds, K, L), side="right")
    seed_at = np.arange(n)[:, None]

    # each cell operator depends on its sampled symbol only: the instance's
    # stack holds them; the sums over a row's cells run in cell order
    row_sums = linalg.sum_in_order(base[decode[..., l]] for l in range(L)) / L
    row_max = np.maximum(linalg.eigvals_hermitian(row_sums.reshape(n * K, d, d), tol=1e-7)
                         .reshape(n, K * d).max(axis=1), 0.0)
    c = np.divide(1.0, row_max, out=np.ones(n), where=row_max > 0)

    # per seed, one operator per symbol, shared by its cells, then one
    # failure element per row, and the outcome probability of each
    cell = (c / L)[:, None, None, None] * base
    bots = np.eye(d) - linalg.sum_in_order(cell[seed_at, decode[..., l]] for l in range(L))
    table = np.concatenate([cell, linalg.hermitian_part(bots)], axis=1)
    t = np.trace(table @ rho_a, axis1=-2, axis2=-1).real  # Re Tr(M rho_A)
    at = seed_at[..., None], np.concatenate(
        [decode, np.broadcast_to(len(base) + np.arange(K)[:, None], (n, K, 1))], axis=2)
    q_kl, elements = (np.where(t > 0, t, 0.0) / K)[at], table[at]

    views = [Compression(inst, K, L, seed, elements=e, decode=dec, q_kl=q, c_norm=float(cs))
             for seed, e, dec, q, cs in zip(seeds, elements, decode, q_kl, c)]
    for view in views:
        if view.quality_warning:
            cap = inst.c_cap
            warnings.warn(f"compression normalization c={view.c_norm:.3f} < 1/2; " + (
                "raise L" if cap >= 0.5 else f"no L lifts it past its cap c_cap={cap:.3f}"))
    return views


def simulated_conditionals(inst: Instance):
    """The simulated post-measurement states on the environment and on Bob,
    one per POVM outcome, from one stacked pass.

    The cell conditional depends only on the decoded symbol, so one state
    per original outcome suffices: sigma_x = Tr_A[M_x psi] normalized, with
    M_x the cell operator for symbol x. Returns (live, sigma, sigma_bob):
    ``live[x]`` holds where P_X(x) > 0 (a table can decode x) and the branch
    has mass >= 1e-300; the stack ``sigma``, on the sorted environment
    registers, is zero elsewhere, and ``sigma_bob`` holds its Bob marginals.
    """
    # K = Y_x^dag satisfies K^dag K = M_x (up to the p_x scale), so the
    # branches need no operator square root
    branches = inst.psi.apply(linalg.dagger(inst.roots), [inst.povm.register])
    masses = branches.masses()
    live = (inst.p_x > 0) & (masses >= 1e-300)
    env = sorted(inst.env)
    sims = np.zeros((len(live), inst.env_dim, inst.env_dim), dtype=complex)
    sims[live] = branches.marginal(env)[live] / masses[live, None, None]
    dims, keep = [inst.psi.dim(l) for l in env], env.index(inst.bob_label)
    return live, sims, sims if inst.bob_alone else linalg.partial_trace(sims, dims, keep)


def _block_distances(inst: Instance, weights: np.ndarray) -> np.ndarray:
    """Trace distance between the ideal control state and the simulated
    mixture of each row of per-outcome ``weights`` (rows x outcomes), summed
    block by block in outcome order over one stacked trace norm."""
    live = (weights > 0) & inst.live
    norms = np.where(live, 0.0, inst.ideal_block_norms)
    ks, xs = np.nonzero(live)
    # a block is a function of (x, weight): one trace norm per distinct pair,
    # found as the distinct keys x + i weight (both parts exact)
    key, at = np.unique(xs + 1j * weights[ks, xs], return_inverse=True)
    x = key.real.astype(int)
    blocks = inst.ideal_blocks[x] - key.imag[:, None, None] * inst.sims[x]
    norms[ks, xs] = linalg.trace_norm(blocks)[at]
    return np.cumsum(norms, axis=1)[:, -1]  # sequential, in outcome order


def validate_compression(view: Compression) -> CompressionReport:
    """Exact comparison of the compressed measurement against the ideal one.

    ``ideal_vs_simulated`` is the trace distance between the ideal control
    state sum_x P(x)|x><x| (x) rho_x^{env} and the simulated mixture
    decoded through f (failure mass excluded, so the simulated side is a
    substate). All quantities are computed exactly from the operators, not
    estimated.
    """
    K, L, q_kl = view.K, view.L, view.q_kl
    return CompressionReport(
        ideal_vs_simulated=float(_block_distances(view.instance, view.outcome_weights[None])[0]),
        per_pair_state_dist=view.per_pair_state_dist,
        qkl_vs_uniform=float(np.sum(np.abs(q_kl[:, :L] - 1.0 / (K * L))) + np.sum(q_kl[:, L])),
        bot_mass=float(np.sum(q_kl[:, L])))


def nice_sets(view: Compression):
    """Pairs (k, l) whose post-measurement states obey both entropic bounds.

    A pair is nice when its conditional entropy on the full environment and
    on Bob's share each stay within the instance's ``slack_bits`` of the
    corresponding conditional entropy of the ideal control state. Both
    depend on the decoded symbol only, so the instance decides each outcome
    once (``Instance.nice_outcomes``) and the decode table indexes that
    verdict. Returns (T', {k: sorted nice l's}) where T' holds the k whose
    nice fraction is at least 1 - eps^(1/16).
    """
    inst = view.instance
    nice = {k: np.flatnonzero(row).tolist()
            for k, row in enumerate(inst.nice_outcomes[view.decode])}
    threshold = (1 - inst.eps ** (1.0 / 16)) * view.L
    tprime = [k for k in range(view.K) if len(nice[k]) >= threshold - 1e-9]
    return tprime, nice


def per_k_errors(views) -> np.ndarray:
    """Trace distance between the ideal control state and the simulated one
    restricted to each k (the dominant per-k protocol error term), as an
    S x K array for S views of one instance and one table shape, from one
    ``_block_distances`` pass."""
    inst, K, L = views[0].instance, views[0].K, views[0].L
    w = np.zeros((len(views) * K, len(inst.povm)))
    # each weight adds its cells' q(l|k) in l order, as one loop over l would
    np.add.at(w, (np.arange(len(w)).repeat(L), np.array([v.decode for v in views]).reshape(-1)),
              (np.array([v.q_kl[:, :L] for v in views]) * K).reshape(-1))
    return _block_distances(inst, w).reshape(len(views), K)


class NoGoodK(RuntimeError):
    """The configuration leaves no k with a usable nice outcome set."""


def find_good_k(view: Compression) -> int:
    """Deterministically pick the k used by the derandomized protocols.

    Among the k whose nice-outcome fraction clears the 1 - eps^(1/16)
    threshold, returns the one minimizing the per-k simulated error
    (lowest index on ties). Raises ``NoGoodK`` when no k qualifies.
    """
    tprime, _ = view.nice
    if not tprime:
        inst, slack = view.instance, 4 * np.log2(1 / view.instance.eps)
        hpmax = entropy.h_prime_max(np.sort(inst.ideal_env.probs), inst.eps ** 4)
        raise NoGoodK(
            f"no k has a large enough nice outcome set; raise L (or K) for eps={inst.eps} "
            "(the compression theorem's rate margins, met at >= 0: log2 L - I_max "
            f"- 4 log2(1/eps) = {np.log2(view.L) - inst.imax.value - slack:.3f} bits, log2 KL "
            f"- H'_max(P_X) - 4 log2(1/eps) = "
            f"{np.log2(view.K) + np.log2(view.L) - hpmax - slack:.3f} bits)")
    errs = view.errors
    return int(min(tprime, key=lambda k: (errs[k], k)))
