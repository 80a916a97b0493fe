"""Randomized measurement compression and its statistical validators.

Replaces a many-outcome POVM by K few-outcome POVMs Theta(k), each with L
outcomes plus a failure symbol, sampled from the measurement statistics of
the original POVM. A decode table maps (k, l) back to original outcomes.

Randomness discipline: the table entry x(k, l) is drawn from its own PCG64
stream keyed by SeedSequence(seed, spawn_key=(k, l)), so enlarging K or L
keeps every shared cell identical. That is what makes paired comparisons
across table sizes meaningful.
"""

import json
import warnings
from dataclasses import dataclass

import numpy as np

from . import entropy, linalg
from .states import Povm, PureState, control_state

BOT = "bot"


def pair_rng(seed: int, k: int, l: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(k, l)))


@dataclass(eq=False)
class CompressedMeasurement:
    """K x L table of sub-POVMs with a decode map back to original outcomes.

    ``thetas[k]`` lists the L outcome operators followed by the failure
    element. ``decode[k, l]`` is the index of the original POVM outcome that
    the pair (k, l) stands for; the failure outcome decodes to
    ``bot_decode`` (the most likely original symbol) and is tracked
    separately. ``q_kl[k, l]`` is the exact joint outcome distribution with
    uniform k (failure column last).
    """

    K: int
    L: int
    thetas: tuple
    decode: np.ndarray
    q_kl: np.ndarray
    c_norm: float
    seed: int
    bot_decode: int
    register: str
    quality_warning: bool

    def theta_povm(self, k: int) -> Povm:
        labels = list(range(self.L)) + [BOT]
        return Povm(self.thetas[k], labels, register=self.register)

    @property
    def q_k(self) -> np.ndarray:
        return np.full(self.K, 1.0 / self.K)

    def q_l_given_k(self, k: int) -> np.ndarray:
        return self.q_kl[k] * self.K

    def decoded_weight(self, n_outcomes: int) -> np.ndarray:
        """Total simulated probability routed to each original outcome
        (failure mass excluded)."""
        w = np.zeros(n_outcomes)
        for k in range(self.K):
            for l in range(self.L):
                w[self.decode[k, l]] += self.q_kl[k, l]
        return w

    def to_json(self) -> str:
        def mat(m):
            return [[float(np.real(z)), float(np.imag(z))] for z in np.asarray(m).reshape(-1)]

        return json.dumps({
            "K": self.K, "L": self.L, "seed": self.seed,
            "register": self.register, "c_norm": self.c_norm,
            "bot_decode": int(self.bot_decode),
            "decode": self.decode.tolist(),
            "q_kl": self.q_kl.tolist(),
            "dim": int(self.thetas[0][0].shape[0]),
            "thetas": [[mat(e) for e in row] for row in self.thetas],
        }, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "CompressedMeasurement":
        d = json.loads(text)
        dim = d["dim"]

        def unmat(flat):
            a = np.array([re + 1j * im for re, im in flat], dtype=complex)
            return a.reshape(dim, dim)

        thetas = tuple(tuple(unmat(e) for e in row) for row in d["thetas"])
        return cls(K=d["K"], L=d["L"], thetas=thetas,
                   decode=np.array(d["decode"], dtype=int),
                   q_kl=np.array(d["q_kl"], dtype=float),
                   c_norm=d["c_norm"], seed=d["seed"],
                   bot_decode=d["bot_decode"], register=d["register"],
                   quality_warning=d["c_norm"] < 0.5)


@dataclass
class CompressionReport:
    ideal_vs_simulated: float
    per_pair_state_dist: float
    qkl_vs_uniform: float
    qk_vs_uniform: float
    bot_mass: float

    def __post_init__(self):
        for f in ("ideal_vs_simulated", "per_pair_state_dist",
                  "qkl_vs_uniform", "qk_vs_uniform", "bot_mass"):
            if getattr(self, f) < 0:
                raise ValueError(f"{f} must be non-negative")


def _environment_labels(psi: PureState, register: str):
    return [l for l in psi.labels if l != register]


def compress_measurement(psi: PureState, povm: Povm, K: int, L: int,
                         seed: int) -> CompressedMeasurement:
    """Build the randomized K x L compressed measurement for (psi, povm).

    For each cell an original outcome x(k, l) is sampled iid from the
    measurement statistics P_X; the cell operator is
    c/L * rho^{-1/2} sqrt(Lam_x) rho sqrt(Lam_x) rho^{-1/2} on the support
    of rho^A, with c the largest constant keeping every row summable into a
    POVM. The failure element absorbs the remainder (and the complement of
    supp(rho^A)). A row sum short of identity by more than half (c < 1/2)
    signals that L is too small and raises a quality warning.
    """
    if K < 1 or L < 1:
        raise ValueError("K and L must be at least 1")
    reg = povm.register
    if povm.dim != psi.dim(reg):
        raise ValueError(f"POVM dimension {povm.dim} does not match register "
                         f"{reg!r} dimension {psi.dim(reg)}")
    rho_a = psi.marginal([reg])
    d = rho_a.shape[0]
    p_x = povm.outcome_probs(rho_a)
    p_x = p_x / np.sum(p_x)
    inv_sqrt = linalg.psd_power(rho_a, -0.5)
    sqrt_rho = linalg.psd_power(rho_a, 0.5)

    # each cell operator depends on its sampled symbol only; cache per symbol.
    # Gram form Y Y^dag keeps the operators PSD despite the rho^{-1/2} blowup.
    base = {}

    def base_op(x):
        if x not in base:
            y = inv_sqrt @ linalg.psd_power(povm.elements[x], 0.5) @ sqrt_rho
            base[x] = (y @ linalg.dagger(y)) / p_x[x]
        return base[x]

    decode = np.zeros((K, L), dtype=int)
    for k in range(K):
        for l in range(L):
            decode[k, l] = pair_rng(seed, k, l).choice(len(p_x), p=p_x)

    row_max = 0.0
    for k in range(K):
        row = sum(base_op(int(x)) for x in decode[k]) / L
        w, _ = linalg.eig_hermitian(row, tol=1e-7)
        row_max = max(row_max, float(np.max(w)))
    c = 1.0 / row_max if row_max > 0 else 1.0

    eye = np.eye(d)
    thetas = []
    q_kl = np.zeros((K, L + 1))
    for k in range(K):
        row = [c / L * base_op(int(x)) for x in decode[k]]
        bot = eye - sum(row)
        bot = (bot + linalg.dagger(bot)) / 2
        thetas.append(tuple(row) + (bot,))
        for l in range(L):
            q_kl[k, l] = max(0.0, float(np.real(np.trace(row[l] @ rho_a)))) / K
        q_kl[k, L] = max(0.0, float(np.real(np.trace(bot @ rho_a)))) / K

    warning = c < 0.5
    if warning:
        warnings.warn(f"compression normalization c={c:.3f} < 1/2; raise L")
    return CompressedMeasurement(
        K=K, L=L, thetas=tuple(thetas), decode=decode, q_kl=q_kl,
        c_norm=float(c), seed=seed, bot_decode=int(np.argmax(p_x)),
        register=reg, quality_warning=bool(warning))


def simulated_conditionals(cm: CompressedMeasurement, psi: PureState,
                           povm: Povm, condition_on=None):
    """Per-symbol simulated post-measurement states on the environment.

    The cell conditional depends only on the decoded symbol, so one state
    per original outcome suffices: sigma_x = Tr_A[M_x psi] normalized, with
    M_x the cell operator for symbol x.
    """
    reg = povm.register
    env = condition_on if condition_on is not None else _environment_labels(psi, reg)
    env = sorted(env)
    rho_a = psi.marginal([reg])
    inv_sqrt = linalg.psd_power(rho_a, -0.5)
    sqrt_rho = linalg.psd_power(rho_a, 0.5)
    out = {}
    for x in sorted(set(cm.decode.reshape(-1).tolist())):
        # K = Y^dag with Y = rho^{-1/2} sqrt(Lam_x) sqrt(rho) satisfies
        # K^dag K = M_x (up to the p_x scale), so the branch needs no
        # operator square root
        y = inv_sqrt @ linalg.psd_power(povm.elements[x], 0.5) @ sqrt_rho
        branch = psi.apply(linalg.dagger(y), [reg])
        n = branch.norm() ** 2
        if n < 1e-300:
            continue
        out[x] = branch.marginal(env) / n
    return out, env


def validate_compression(cm: CompressedMeasurement, psi: PureState,
                         povm: Povm, eps: float) -> CompressionReport:
    """Exact comparison of the compressed measurement against the ideal one.

    ``ideal_vs_simulated`` is the trace distance between the ideal control
    state sum_x P(x)|x><x| (x) rho_x^{env} and the simulated mixture
    decoded through f (failure mass excluded, so the simulated side is a
    substate). All quantities are computed exactly from the operators, not
    estimated.
    """
    reg = povm.register
    env = _environment_labels(psi, reg)
    ideal = control_state(psi, povm, condition_on=env)
    sims, _ = simulated_conditionals(cm, psi, povm, condition_on=env)

    weights = cm.decoded_weight(len(povm))
    ideal_probs = np.zeros(len(povm))
    for lbl, p in zip(ideal.symbols, ideal.probs):
        ideal_probs[povm.labels.index(lbl)] = p

    d_env = int(np.prod([psi.dim(l) for l in env]))
    zero = np.zeros((d_env, d_env), dtype=complex)
    symbol_index = {lbl: i for i, lbl in enumerate(ideal.symbols)}
    dist = 0.0
    per_pair = 0.0
    for x in range(len(povm)):
        ix = symbol_index.get(povm.labels[x])
        ideal_block = ideal_probs[x] * ideal.conditionals[ix].matrix if ix is not None else zero
        sim_block = weights[x] * sims.get(x, zero)
        dist += linalg.trace_norm(ideal_block - sim_block)
        if x in sims and weights[x] > 1e-12 and ix is not None:
            per_pair = max(per_pair, linalg.trace_distance(
                ideal.conditionals[ix].matrix, sims[x]))

    unif = 1.0 / (cm.K * cm.L)
    qkl_dev = float(np.sum(np.abs(cm.q_kl[:, :cm.L] - unif)) + np.sum(cm.q_kl[:, cm.L]))
    qk_dev = float(np.sum(np.abs(np.sum(cm.q_kl, axis=1) - 1.0 / cm.K)))
    bot_mass = float(np.sum(cm.q_kl[:, cm.L]))
    return CompressionReport(
        ideal_vs_simulated=float(dist),
        per_pair_state_dist=float(per_pair),
        qkl_vs_uniform=qkl_dev,
        qk_vs_uniform=qk_dev,
        bot_mass=bot_mass,
    )


def _pair_entropies(cm: CompressedMeasurement, psi: PureState, povm: Povm,
                    eps: float, bob_labels):
    """Per-decoded-symbol one-shot entropies of the simulated conditionals,
    on the full environment and on Bob's share, at smoothing eps^(1/8)."""
    reg = povm.register
    env = _environment_labels(psi, reg)
    sims_env, env_sorted = simulated_conditionals(cm, psi, povm, condition_on=env)
    smooth = eps ** 0.125
    h_env, h_bob = {}, {}
    dims = {l: psi.dim(l) for l in env_sorted}
    keep_idx = [i for i, l in enumerate(env_sorted) if l in bob_labels]
    for x, m in sims_env.items():
        h_env[x] = entropy.h_h(m, smooth).value
        bob_m = linalg.partial_trace(m, [dims[l] for l in env_sorted], keep_idx)
        h_bob[x] = entropy.h_h(bob_m, smooth).value
    return h_env, h_bob


def nice_sets(cm: CompressedMeasurement, psi: PureState, povm: Povm, eps: float,
              bob_labels=("B",), slack_bits: float | None = None):
    """Pairs (k, l) whose post-measurement states obey both entropic bounds.

    A pair is nice when its conditional entropy on the full environment and
    on Bob's share each stay within ``slack_bits`` (default log2(1/eps)) of
    the corresponding conditional entropy of the ideal control state. Returns
    (T', {k: sorted nice l's}) where T' holds the k whose nice fraction is at
    least 1 - eps^(1/16).
    """
    if slack_bits is None:
        slack_bits = float(np.log2(1.0 / eps))
    reg = povm.register
    env = _environment_labels(psi, reg)
    ideal = control_state(psi, povm, condition_on=env)
    bound_env = entropy.h_h_cond_cq(ideal, eps).value + slack_bits
    bob = sorted(bob_labels)
    ideal_bob = ideal.map_conditionals(lambda c: c.partial_trace(bob))
    bound_bob = entropy.h_h_cond_cq(ideal_bob, eps).value + slack_bits

    h_env, h_bob = _pair_entropies(cm, psi, povm, eps, set(bob))
    nice = {}
    for k in range(cm.K):
        ls = []
        for l in range(cm.L):
            x = int(cm.decode[k, l])
            if x not in h_env:
                continue
            if h_env[x] <= bound_env + 1e-12 and h_bob[x] <= bound_bob + 1e-12:
                ls.append(l)
        nice[k] = ls
    threshold = (1 - eps ** (1.0 / 16)) * cm.L
    tprime = [k for k in range(cm.K) if len(nice[k]) >= threshold - 1e-9]
    return tprime, nice


def per_k_errors(cm: CompressedMeasurement, psi: PureState, povm: Povm) -> np.ndarray:
    """Trace distance between the ideal control state and the simulated one
    restricted to each k (the dominant per-k protocol error term)."""
    reg = povm.register
    env = _environment_labels(psi, reg)
    ideal = control_state(psi, povm, condition_on=env)
    sims, _ = simulated_conditionals(cm, psi, povm, condition_on=env)
    ideal_probs = np.zeros(len(povm))
    for lbl, p in zip(ideal.symbols, ideal.probs):
        ideal_probs[povm.labels.index(lbl)] = p
    errs = np.zeros(cm.K)
    dim_env = psi.marginal(sorted(env)).shape[0]
    for k in range(cm.K):
        q = cm.q_l_given_k(k)
        w = np.zeros(len(povm))
        for l in range(cm.L):
            w[cm.decode[k, l]] += q[l]
        dist = 0.0
        for x in range(len(povm)):
            blk = np.zeros((dim_env, dim_env), dtype=complex)
            if ideal_probs[x] > 0:
                blk = ideal_probs[x] * ideal.conditionals[list(ideal.symbols).index(povm.labels[x])].matrix
            if w[x] > 0 and x in sims:
                blk = blk - w[x] * sims[x]
            dist += linalg.trace_norm(blk)
        errs[k] = dist
    return errs


class NoGoodK(RuntimeError):
    """The configuration leaves no k with a usable nice outcome set."""


def find_good_k(cm: CompressedMeasurement, psi: PureState, povm: Povm,
                eps: float, bob_labels=("B",),
                slack_bits: float | None = None) -> int:
    """Deterministically pick the k used by the derandomized protocols.

    Among the k whose nice-outcome fraction clears the 1 - eps^(1/16)
    threshold, returns the one minimizing the per-k simulated error
    (lowest index on ties). Raises ``NoGoodK`` when no k qualifies.
    """
    tprime, nice = nice_sets(cm, psi, povm, eps, bob_labels=bob_labels,
                             slack_bits=slack_bits)
    if not tprime:
        raise NoGoodK(
            "no k has a large enough nice outcome set; raise L (or K) "
            f"for eps={eps}")
    errs = per_k_errors(cm, psi, povm)
    best = min(tprime, key=lambda k: (errs[k], k))
    return int(best)
