"""Executable simulations of the distillation protocols.

Every run returns a ProtocolTranscript whose ``final_error`` is the exactly
computed trace distance of the produced state to the target pure state,
never a bound. Conditional evolutions exploit that all protocols dephase
the communicated register, so the global state is block diagonal in it and
per-outcome branches mix exactly.

O(log 1/eps) slack terms from the rate formulas are never folded into
numbers: transcripts carry the instance's ``slack_bits`` (default
log2(1/eps)) and ``rate_bound_real`` holds the slack-free formula value.

Every protocol reads the ideal-state quantities from one
``compression.Instance``, and the compressed measurement, its nice sets and
its chosen k from one ``compression.Compression`` view of it. The in-place
protocol indexes the instance's per-outcome data (A_g bounds, truncated
targets, Bob's codes) with its nice cells' decoded outcomes.

All three protocols end in one path on one stacked ``PureState`` of
branches, measured, coded and mixed as stacks. A conditional code is a
shared bit count and an (n, d, d) stack of rows, one per branch:
``_branch_codes`` codes every live branch from one stacked
eigendecomposition, ``_conditional_codes`` keeps the rows of a good set of
outcomes of mass >= 1 - min(2 sqrt(eps), 1/2) and gives the rest the
identity, and ``_final_error`` pads, applies and mixes the codes, one
pass for all the runs of equal code sizes. A run is one seed's branches:
``cells`` maps each of its outcomes to its branch (the one-shot protocol
measures one branch per decoded symbol of its row, in ``np.unique``
order); code sizes and mixtures run in outcome order. The compressed
protocols take a sweep's views as one stack of runs.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import entropy, linalg, states
from .compression import Compression, Instance, NoGoodK, per_k_errors
from .states import Povm, ProtocolTranscript, PureState


def next_pow2(n: int) -> int:
    return 1 << max(0, int(n - 1).bit_length())


@dataclass(eq=False)
class DistillationIsometry:
    """``local_distill``'s isometry into |0>^{A_p} (x) basis(A_g).

    ``matrix`` has shape (2^a_p_bits * ag_dim, d) with orthonormal columns;
    eigenvector i (eigenvalues descending) maps to basis state
    |i // ag_dim>^{A_p} |i mod ag_dim>^{A_g}, so the kept ones (i < kept_dim
    <= ag_dim) land in the A_p = 0 block.
    """

    matrix: np.ndarray
    kept_dim: int
    a_p_bits: int
    ag_dim: int


def _padded(rows: np.ndarray, bits: int) -> np.ndarray:
    """A d x d ``rows`` matrix, or an (n, d, d) stack of them, zero-padded
    to 2^bits * ceil(d / 2^bits) rows: row i maps to basis state i. Rows
    conj(v).T of a descending eigensystem distill; the identity is the
    plain index relabeling."""
    d = rows.shape[-1]
    iso = np.zeros(rows.shape[:-2] + (2 ** bits * math.ceil(d / 2 ** bits), d), dtype=complex)
    iso[..., :d, :] = rows
    return iso


def _apply_code(branches: PureState, reg: str, labels, bits: int, rows) -> PureState:
    """Branch i of a stack coded on register ``reg``: ``rows[i]``, padded,
    maps it onto the (pure, garbage) ``labels``, a pure register of 2^bits
    levels and the garbage register, every branch in one stacked product."""
    pure, garbage = labels
    iso = _padded(rows, bits)
    ap = 2 ** bits
    return branches.apply(iso, [reg], out_regs=[(pure, ap), (garbage, iso.shape[-2] // ap)])


def _eig_codes(mats: np.ndarray, eps: float) -> list:
    """``entropy.truncation_codes`` of an (n, d, d) stack of matrices, from
    one stacked eigendecomposition."""
    return entropy.truncation_codes(*linalg.descending_eig(mats, tol=1e-7), eps)


def local_distill(rho, eps: float):
    """Single-system distillation isometry plus its exactly achieved error.

    The eigenvectors carrying all but the smallest <= eps of spectral mass
    are relabeled into |0>^{A_p} (x) basis(A_g) with
    a_p = floor(log2 d - log2 kept_dim) qubits; the achieved error is the
    exact trace distance of the A_p marginal from |0><0|.
    """
    entropy._validate_eps(eps)
    mat = entropy._matrix(rho)
    bits, kept, rows = _eig_codes(mat[None], eps)[0]
    ap = 2 ** bits
    iso = _padded(rows, bits)
    out = iso @ mat @ linalg.dagger(iso)
    marg = linalg.partial_trace(out, [ap, len(iso) // ap], 0)
    return DistillationIsometry(iso, kept, bits, len(iso) // ap), _distance_to_zero(marg)


def _good_set_bits(values, masses, budget) -> int:
    """Largest b such that the outcomes with value >= b keep mass
    >= 1 - budget."""
    values = np.asarray(values, dtype=int)
    masses = np.asarray(masses, dtype=float)
    for b in sorted(set(values.tolist()), reverse=True):
        if float(np.sum(masses[values >= b])) >= 1.0 - budget - 1e-12:
            return b
    return 0


def _conditional_codes(codes, masses, cells, d: int, eps: float):
    """Per-branch distillation codes with one shared output size.

    ``codes[i]`` is branch i's code from ``entropy.truncation_codes`` (None when the branch is
    negligible); outcome j has branch ``cells[j]`` and probability
    ``masses[j]``. The shared qubit count is the largest one achievable on
    a set of outcomes of probability mass >= 1 - min(2 sqrt(eps), 1/2), the
    budget capped so the rule stays meaningful at large eps. The good
    branches get their own rows at that size, the others the plain index
    relabeling of the d-dimensional register (it distills nothing).
    Returns the shared size and the (n, d, d) stack of rows, one per branch.
    """
    shared = _good_set_bits([0 if codes[i] is None else codes[i][0] for i in cells], masses,
                            min(2.0 * np.sqrt(eps), 0.5))
    return shared, np.stack([np.eye(d) if code is None or code[0] < shared else code[2]
                             for code in codes])


def _branch_codes(branches: PureState, masses, runs, reg: str, eps: float) -> list:
    """``_conditional_codes`` of each run on the normalized ``reg`` marginals
    of a stack of sub-normalized branches of squared norms ``masses``, every
    branch of mass >= 1e-12 coded from one stacked eigendecomposition. A run
    is (branch count, cells): its branches follow the previous run's, and its
    cells index them."""
    live = masses >= 1e-12
    codes = iter(_eig_codes(branches.marginal([reg])[live] / masses[live, None, None], eps))
    codes = [next(codes) if ok else None for ok in live.tolist()]
    ends = np.cumsum([n for n, _ in runs]).tolist()
    return [_conditional_codes(codes[end - n:end], masses[end - n:end][list(cells)], cells,
                               branches.dim(reg), eps) for (n, cells), end in zip(runs, ends)]


def _distance_to_zero(sigma: np.ndarray):
    """Trace distance of ``sigma``, or of each member of a stack, to |0><0|,
    the pure target of every protocol."""
    return linalg.trace_norm(sigma - np.diag(np.eye(sigma.shape[-1])[0]))


def _final_error(branches: PureState, masses, runs, codes, regs) -> list:
    """Trace distance to |0>|0> of each run's exact Ap x Bp mixture over its
    dephased outcomes. ``branches`` stacks the sub-normalized branches, of
    squared norms ``masses``, in runs as in ``_branch_codes``; run r codes its
    branches on each (register, (pure, garbage) labels) of ``regs`` by its
    (bits, rows) in ``codes[r]``. The runs of equal bits go in one pass: one
    stacked product per register (``_apply_code``), one stack of marginals
    and one stacked trace norm. A mixture adds one marginal per outcome, in
    outcome order, skipping branches below mass 1e-15."""
    ends, errors = np.cumsum([n for n, _ in runs]).tolist(), [None] * len(runs)
    for bits, rs in linalg.groups(tuple(b for b, _ in code) for code in codes).items():
        at = [j for r in rs for j in range(ends[r] - runs[r][0], ends[r])]
        part = PureState(branches.regs, branches.tensor[at], stacked=True)
        for i, ((reg, labels), b) in enumerate(zip(regs, bits)):
            part = _apply_code(part, reg, labels, b, np.concatenate([codes[r][i][1] for r in rs]))
        margs, kept = part.marginal(["Ap", "Bp"]), masses[at] >= 1e-15
        starts = np.cumsum([0] + [runs[r][0] for r in rs]).tolist()
        mixes = [linalg.sum_in_order(margs[s + i] for i in runs[r][1] if kept[s + i])
                 for s, r in zip(starts, rs)]
        for r, err in zip(rs, _distance_to_zero(np.stack(mixes)).tolist()):
            errors[r] = err
    return errors


def _distill_branches(branches: PureState, runs, a_reg: str, b_reg: str, eps: float) -> list:
    """Both parties' conditional codes on the dephased outcomes of each run
    (as in ``_branch_codes``) of the stacked ``branches``; returns (Alice's
    bits, Bob's bits, final error) per run."""
    masses = branches.masses()
    codes = list(zip(_branch_codes(branches, masses, runs, a_reg, eps),
                     _branch_codes(branches, masses, runs, b_reg, eps)))
    errors = _final_error(branches, masses, runs, codes,
                          [(a_reg, ("Ap", "Ag")), (b_reg, ("Bp", "Bg"))])
    return [(a[0], b[0], err) for (a, b), err in zip(codes, errors)]


def run_protocol_a(inst: Instance, seed: int | None = None) -> ProtocolTranscript:
    """Coherent measurement of the full POVM plus conditional local codes.

    Alice borrows ceil(log2 |X|) qubits to hold the coherent outcome,
    applies the per-outcome locally optimal code, sends the outcome register
    through the dephasing channel, and Bob applies his per-outcome code.
    The |X| = 1 case degenerates to two independent local distillations.
    """
    psi, povm, eps, bob_label = inst.psi, inst.povm, inst.eps, inst.bob_label
    a_reg = povm.register
    n_x = len(povm)
    [(a_bits, b_bits, err)] = _distill_branches(inst.branches, [(n_x, range(n_x))], a_reg,
                                                bob_label, eps)

    da, db = psi.dim(a_reg), psi.dim(bob_label)
    # the branches are pure, so H_H(A|X) is the environment's H_H(E|X)
    formula = (np.log2(da) - inst.h_h_cond("ideal_env", eps * eps)
               + np.log2(db) - inst.h_h_cond("ideal_bob", eps * eps)
               - np.log2(n_x))
    borrowed = math.ceil(np.log2(n_x)) if n_x > 1 else 0
    return ProtocolTranscript(
        protocol="protocol-a",
        distilled_alice=a_bits,
        distilled_bob=b_bits,
        borrowed=borrowed,
        communication=borrowed,
        final_error=err,
        eps=eps,
        seed=seed,
        dims={"A": da, "B": db, "X": n_x},
        slack_bits=inst.slack_bits,
        rate_bound_real=float(formula),
    )


def run_kd_oneshot(views) -> list:
    """Derandomized compressed-measurement protocol on each of a sequence of
    views of one instance and one table shape, transcripts in view order.

    Uses each view's K x L compressed measurement and its chosen k, measures
    Theta(k) coherently into a borrowed register of dimension L + 1
    (failure outcome included), distills both sides per outcome, and
    dephases the outcome register to Bob. Communication equals the
    borrowed register size, ceil(log2(L + 1)) bits. The views run as one
    stack: their per-k errors in one pass, the branches of all their rows
    from one stacked root and each party's codes from one stacked
    eigendecomposition.
    """
    inst = views[0].instance
    psi, eps, bob_label = inst.psi, inst.eps, inst.bob_label
    a_reg = inst.povm.register
    for view, errs in zip(views, per_k_errors(views)):  # one pass, kept for find_good_k
        view.__dict__.setdefault("errors", errs)
    # one branch per distinct symbol of row k, then the failure branch
    rows = [np.unique(v.decode[v.k], return_index=True, return_inverse=True)[1:] for v in views]
    elements = np.concatenate([v.elements[v.k, np.append(first, v.L)]
                               for v, (first, _) in zip(views, rows)])
    runs = [(len(first) + 1, at.tolist() + [len(first)]) for first, at in rows]
    results = _distill_branches(states.measure(psi, elements, a_reg), runs, a_reg, bob_label, eps)

    da, db = psi.dim(a_reg), psi.dim(bob_label)
    # H_H(A|X) = H_H(E|X) on the pure branches: the solve the nice verdicts made
    formula = (np.log2(da) - inst.h_h_cond("ideal_env", eps)
               + np.log2(db) - inst.h_h_cond("ideal_bob", eps)
               - inst.imax.value)
    return [ProtocolTranscript(
        protocol="kd-oneshot",
        distilled_alice=a_bits,
        distilled_bob=b_bits,
        borrowed=math.ceil(np.log2(view.L + 1)),
        communication=math.ceil(np.log2(view.L + 1)),
        final_error=err,
        eps=eps,
        seed=view.seed,
        dims={"A": da, "B": db, "K": view.K, "L": view.L},
        slack_bits=inst.slack_bits,
        rate_bound_real=float(formula),
    ) for view, (a_bits, b_bits, err) in zip(views, results)]


def uhlmann_unitary(phi: PureState, chi: PureState, phi_system, chi_system):
    """Isometry on phi's system registers maximizing the overlap with chi,
    or with each member of a stacked chi.

    ``phi_system`` and ``chi_system`` are lists of the registers to be
    mapped; the remaining registers of both states must agree (label and
    dimension) and are untouched. Returns (matrix, achieved overlap), for a
    stacked chi an (n, dq, dp) stack and a list of overlaps, from one
    overlap product and one SVD. Each achieved overlap equals the fidelity of
    the shared-register marginals (Uhlmann, ``linalg.fidelity`` of phi's
    with the stack of chi's), which is checked within 1e-8 member by member
    in order
    (``linalg.InvariantError``). The matrix is unitary when the system
    dimensions match and an isometry when chi's side is larger.
    """
    shared = [l for l in phi.labels if l not in phi_system]
    chi_shared = [l for l in chi.labels if l not in chi_system]
    if sorted(shared) != sorted(chi_shared):
        raise ValueError(f"shared registers differ: {shared} vs {chi_shared}")
    for l in shared:
        if phi.dim(l) != chi.dim(l):
            raise ValueError(f"shared register {l!r} has mismatched dimension")
    dp = int(np.prod([phi.dim(l) for l in phi_system]))
    dq = int(np.prod([chi.dim(l) for l in chi_system]))
    if dq < dp:
        raise ValueError("target system smaller than source")

    rest = sorted(shared)
    phi_mat = np.transpose(phi.tensor, [phi.labels.index(l) for l in phi_system + rest]
                           ).reshape(dp, -1)
    chi_t = chi.tensor if chi.stacked else chi.tensor[None]  # one state is a stack of one
    chi_mat = np.transpose(chi_t, [0] + [1 + chi.labels.index(l) for l in chi_system + rest]
                           ).reshape(len(chi_t), dq, -1)
    overlap = phi_mat @ linalg.dagger(chi_mat)  # N[p, q] per member
    v, s, wh = linalg._svd(overlap)
    u = linalg.dagger(wh) @ linalg.dagger(v)
    achieved = s.sum(axis=-1).tolist()
    fids = linalg.fidelity(phi_mat.T @ np.conj(phi_mat),
                           chi_mat.swapaxes(-1, -2) @ np.conj(chi_mat)).tolist()
    for got, fid in zip(achieved, fids):
        if abs(got - fid) > 1e-8:
            raise linalg.InvariantError(f"Uhlmann overlap {got} != fidelity {fid}")
    return (u, achieved) if chi.stacked else (u[0], achieved[0])


@dataclass
class FewQubitsPlan:
    """Embedding and borrow plan for the in-place protocol.

    ``case`` is decided by the entropic condition (its slack is the
    instance's ``slack_bits``); the embedding dims A_p, L_A and A_g multiply
    to |A| * 2^borrow exactly, and A_p holds ``a_p_bits`` pure qubits.
    """

    case: str
    borrow: int
    a_p_bits: int
    ap_dim: int
    la_dim: int
    ag_dim: int


def plan_fewqubits(view: Compression) -> FewQubitsPlan:
    """Evaluate the case condition and lay out the in-place embedding.

    Case I requires I_max + H_H(env|X) + slack <= log|A| (entropic
    quantities on the ideal control state, H_H at eps); the embedding then
    fits inside A and the construction borrows only the power-of-two
    rounding (0 for power-of-two instances). Case II keeps no pure qubit in
    A and borrows the qubits the embedding lacks.
    """
    inst, k = view.instance, view.k
    da = inst.psi.dim(inst.povm.register)
    lhs = inst.imax.value + inst.h_h_cond("ideal_env", inst.eps) + inst.slack_bits
    case = "I" if lhs <= np.log2(da) else "II"

    nice = view.nice[1][k]
    # A_g holds the purifications of the truncated branch states: its size is
    # the largest truncated rank, which 2^{H_H} + 1 upper-bounds
    ranks, caps = inst.ag_bounds
    xs = view.decode[k, nice]
    ag_req, ag_cap = int(np.max(ranks[xs], initial=1)), int(np.max(caps[xs], initial=2))
    if ag_req > ag_cap:
        raise linalg.InvariantError("truncated rank exceeded its entropic cap")
    la = next_pow2(max(1, len(nice)))
    ag_pow = next_pow2(ag_req)

    if case == "I" and da >= la * ag_pow:
        ap_bits = int(da // (la * ag_pow)).bit_length() - 1
    else:
        ap_bits = 0
    ap = 2 ** ap_bits
    borrow = 0
    while (da << borrow) < ap * la * ag_pow or (da << borrow) % (ap * la) != 0:
        borrow += 1
    ag = (da << borrow) // (ap * la)
    return FewQubitsPlan(case=case, borrow=borrow, a_p_bits=ap_bits,
                         ap_dim=ap, la_dim=la, ag_dim=ag)


def _fewqubits_setup(view: Compression, bob_codes, db: int, eps: float):
    """One view's plan shape (A_p, L_A, A_g dimensions and borrow), plan, nice
    set's Uhlmann target of that shape (and env) and Bob's (bits, rows) over
    the L_A branches."""
    inst, k = view.instance, view.k
    plan = plan_fewqubits(view)
    nice = view.nice[1][k]
    if not nice:
        raise NoGoodK("empty nice outcome set; raise L or K")
    p_nice = view.q_l_given_k(k)[nice]
    if np.sum(p_nice) <= 1e-30:
        raise NoGoodK("nice outcomes carry no probability; raise L or K")
    p_nice = p_nice / np.sum(p_nice)

    # the truncated conditional of each nice outcome's symbol, purified into A_g
    xs = view.decode[k, nice]
    tw, v = inst.truncated_targets
    ap, la, ag = plan.ap_dim, plan.la_dim, plan.ag_dim
    target = np.zeros((ap, la, ag, inst.env_dim), dtype=complex)
    i, j = np.nonzero(tw[xs, :ag] > 1e-15)
    target[0, i, j] = np.sqrt(p_nice[i] * tw[xs[i], j])[:, None] * v[xs[i], :, j]

    # Bob's per-branch codes: distill on nice branches, relabel elsewhere
    b_bits, rows = _conditional_codes([bob_codes[x] for x in xs.tolist()], p_nice,
                                      range(len(nice)), db, eps)
    rows = np.concatenate([rows, np.broadcast_to(np.eye(db), (la - len(nice), db, db))])
    return (ap, la, ag, plan.borrow), plan, target, (b_bits, rows)


def run_fewqubits(views) -> list:
    """In-place compressed measurement via the Uhlmann embedding, on each of
    a sequence of views of one instance, transcripts in view order.

    Alice's single unitary maps A (plus any Case II borrow) onto
    A_p (x) L_A (x) A_g so that the post-measurement state is reproduced by
    truncated purifications of the nice outcome branches; L_A is dephased to
    Bob, who distills per outcome (identity relabeling off the nice set).
    Each view's plan, nice-set checks and Bob's codes come in view order;
    the views of one plan shape then run as one stack: one Uhlmann call, one
    application, and Bob's coding and mixing in ``_final_error``. A view that
    fails its setup raises after the Uhlmann checks of the views before it.
    """
    inst = views[0].instance
    psi, eps, bob_label, a_reg = inst.psi, inst.eps, inst.bob_label, inst.povm.register
    da, db = psi.dim(a_reg), psi.dim(bob_label)
    setups, failure = [], None
    for view in views:
        try:
            setups.append(_fewqubits_setup(view, inst.bob_codes, db, eps))
        except (NoGoodK, linalg.InvariantError) as exc:
            failure = exc  # raised after the Uhlmann checks of the views before it
            break
    out = [None] * len(setups)
    for (ap, la, ag, borrow), members in linalg.groups(s[0] for s in setups).items():
        chi = PureState([("Ap", ap), ("LA", la), ("Ag", ag)]
                        + [(l, psi.dim(l)) for l in sorted(inst.env)],
                        np.stack([setups[i][2] for i in members]), stacked=True)
        # append |0>^borrow to A: out index a * 2^borrow + 0
        phi = psi.apply(np.eye(da << borrow, dtype=complex)[:, ::2 ** borrow], [a_reg],
                        out_regs=[(a_reg, da << borrow)]) if borrow else psi
        u, _ = uhlmann_unitary(phi, chi, [a_reg], ["Ap", "LA", "Ag"])
        branches = phi.apply(u, [a_reg], out_regs=[("Ap", ap), ("LA", la), ("Ag", ag)]).split("LA")
        errors = _final_error(branches, branches.masses(), [(la, range(la))] * len(members),
                              [[setups[i][3]] for i in members], [(bob_label, ("Bp", "Bg"))])
        for i, err in zip(members, errors):
            view, (_, plan, _, (b_bits, _)) = views[i], setups[i]
            out[i] = ProtocolTranscript(
                protocol="fewqubits", distilled_alice=plan.a_p_bits, distilled_bob=b_bits,
                borrowed=borrow, communication=int(np.log2(la)), final_error=err, eps=eps,
                seed=view.seed, dims={"A": da, "B": db, "K": view.K, "L": view.L,
                                      "Ap": ap, "LA": la, "Ag": ag},
                slack_bits=inst.slack_bits, case=plan.case, rate_bound_real=None)
    if failure is not None:
        raise failure
    return out


def verify_derandomization(view: Compression) -> dict:
    """Measure the fraction of (k, l) pairs passing both entropic bounds.

    The claimed lower bound on the fraction is 1 - eps^(1/8); the report
    holds the fraction, the bound and pass/fail, and never raises on
    failure (degenerate tables legitimately fail).
    """
    _, nice = view.nice
    fraction = sum(len(v) for v in nice.values()) / (view.K * view.L)
    bound = 1.0 - view.instance.eps ** 0.125
    return {"fraction": fraction, "bound": bound, "passed": bool(fraction >= bound)}


def _block_diag_mix(blocks: PureState, keep):
    """Block-diagonal matrix mixing each stacked branch's ``keep`` marginal
    with an explicit classical index (a dephased classical register)."""
    mats = blocks.marginal(keep)
    n, d, _ = mats.shape
    out = np.zeros((n, d, n, d), dtype=complex)
    out[np.arange(n), :, np.arange(n)] = mats
    return out.reshape(n * d, n * d)


def _stack_coherent(blocks: PureState, label):
    """Rebuild the coherent pure state sum_x |x> (x) block_x."""
    return PureState([(label, len(blocks.tensor))] + list(blocks.regs),
                     np.ascontiguousarray(blocks.tensor))


def purity_trace(psi: PureState, povm: Povm, eps: float) -> list:
    """Step-wise purity bookkeeping along Protocol A on a small instance.

    Returns [(step name, corrected purity measure)] where the measure is
    log2(dim) - H_H^eps of the state held by the parties minus the borrowed
    qubit correction. Allowable operations must never increase it.
    """
    a_reg = povm.register
    n_x = len(povm)
    held = sorted(l for l in psi.labels if l != "R")
    trace = []

    def purity(mat, borrowed_bits):
        return float(np.log2(mat.shape[0]) - entropy.h_h(mat, eps).value - borrowed_bits)

    rho0 = psi.marginal(held)
    trace.append(("input", purity(rho0, 0.0)))

    # borrow the outcome register (pure ancilla, accounted)
    borrow_bits = float(np.log2(n_x)) if n_x > 1 else 0.0
    xa = np.zeros((n_x, n_x))
    xa[0, 0] = 1.0
    trace.append(("borrow", purity(linalg.kron(xa, rho0), borrow_bits)))

    # coherent measurement: a unitary on X_A x A given the |0> ancilla,
    # which leaves sum_x |x> (x) sqrt(Lambda_x) psi
    branches = psi.apply(povm.roots, [a_reg])
    post = _stack_coherent(branches, "XA")
    trace.append(("coherent-measure",
                  purity(post.marginal(sorted(held + ["XA"])), borrow_bits)))

    # Alice's conditional codes (a controlled unitary for power-of-two dims)
    masses = branches.masses()
    run = [(n_x, range(n_x))]
    alice = (a_reg, ("Ap", "Ag"), *_branch_codes(branches, masses, run, a_reg, eps)[0])
    blocks = _apply_code(branches, *alice)
    coherent = _stack_coherent(blocks, "XA")
    keep = sorted(set(coherent.labels) - {"R"})
    trace.append(("conditional-codes", purity(coherent.marginal(keep), borrow_bits)))

    # dephase X_A -> X_B (a strict decrease is allowed here)
    keep_b = sorted(set(blocks.labels) - {"R"})
    trace.append(("dephase", purity(_block_diag_mix(blocks, keep_b), borrow_bits)))

    # Bob's conditional codes, then discard the garbage registers
    bob = ("B", ("Bp", "Bg"), *_branch_codes(branches, masses, run, "B", eps)[0])
    final_blocks = _apply_code(blocks, *bob)
    keep_f = sorted(set(final_blocks.labels) - {"R"})
    trace.append(("bob-codes", purity(_block_diag_mix(final_blocks, keep_f), borrow_bits)))

    final = sum(final_blocks.marginal(["Ap", "Bp"]))
    trace.append(("discard-garbage", purity(final, borrow_bits)))
    return trace
