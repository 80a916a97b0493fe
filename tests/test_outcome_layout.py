"""The outcome-indexed layout of an Instance's simulated data against the
per-symbol dictionaries it replaced, kept inline here as the reference: one
branch, marginal and norm per symbol of nonzero P_X, looked up symbol by
symbol by the compression readers and the compressed protocols. Every
result must keep its bits."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from puredist import entropy, linalg
from puredist import protocols as pr
from puredist.compression import (
    Instance,
    NoGoodK,
    compress_measurement,
    compress_seeds,
    nice_sets,
    per_k_errors,
    validate_compression,
)
from puredist.sampling import (
    basis_povm,
    classical_correlated_pure,
    purified_input,
    random_povm,
)
from puredist.states import Povm, ProtocolTranscript, PureState

from oracles import mixed_protocol_input, near_pure_classical


def _per_symbol(inst):
    """The per-symbol dictionaries, keyed by the symbols a table can decode."""
    env = sorted(inst.env)
    sims = {}
    for x in np.flatnonzero(inst.p_x > 0).tolist():
        branch = inst.psi.apply(linalg.dagger(inst.roots[x]), [inst.povm.register])
        n = float(np.linalg.norm(branch.tensor)) ** 2
        if n < 1e-300:
            continue
        sims[x] = branch.marginal(env) / n
    dims = [inst.psi.dim(l) for l in env]
    keep = [env.index(inst.bob_label)]
    sims_bob = {x: linalg.partial_trace(m, dims, keep) for x, m in sims.items()}
    smooth = inst.eps ** 0.125
    return SimpleNamespace(
        inst=inst, sims=sims, sims_bob=sims_bob,
        h_env={x: entropy.h_h(m, smooth) for x, m in sims.items()},
        h_bob={x: entropy.h_h(m, smooth).value for x, m in sims_bob.items()},
        # descending eigensystems, as the in-place protocol reads them
        sims_eig=dict(zip(sims, zip(*(x[..., ::-1] for x in linalg.psd_eig(
            np.array(list(sims.values()))))))),
        bob_codes=dict(zip(sims_bob, entropy.truncation_codes(
            *linalg.psd_eig(np.array(list(sims_bob.values()))), inst.eps))))


def _block_distances(ref, view, weights):
    inst = ref.inst
    live = (weights > 0) & np.isin(np.arange(weights.shape[1]), list(ref.sims))
    norms = np.where(live, 0.0, inst.ideal_block_norms)
    ks, xs = np.nonzero(live)
    blocks = inst.ideal_blocks[xs]
    sim = np.array([ref.sims[x] for x in xs.tolist()]).reshape(blocks.shape)
    norms[ks, xs] = linalg.trace_norm(blocks - weights[ks, xs][:, None, None] * sim)
    return np.cumsum(norms, axis=1)[:, -1]


def _validation(ref, view):
    """(ideal_vs_simulated, per_pair_state_dist) of ``validate_compression``."""
    inst = ref.inst
    weights = np.zeros(len(inst.povm))
    np.add.at(weights, view.decode.reshape(-1), view.q_kl[:, :view.L].reshape(-1))
    probs, conds = inst.ideal_by_outcome
    per_pair = 0.0
    for x, cond in enumerate(conds):
        if x in ref.sims and weights[x] > 1e-12 and probs[x] > 0:
            per_pair = max(per_pair, linalg.trace_norm(cond - ref.sims[x]))
    return float(_block_distances(ref, view, weights[None])[0]), float(per_pair)


def _nice_sets(ref, view):
    inst = ref.inst
    bound_env = inst.h_h_cond("ideal_env", inst.eps) + inst.slack_bits
    bound_bob = inst.h_h_cond("ideal_bob", inst.eps) + inst.slack_bits
    symbols, at = np.unique(view.decode, return_inverse=True)
    ok = np.array([x in ref.h_env and ref.h_env[x].value <= bound_env + 1e-12
                   and ref.h_bob[x] <= bound_bob + 1e-12 for x in symbols.tolist()])
    nice = {k: np.flatnonzero(row).tolist()
            for k, row in enumerate(ok[at.reshape(view.decode.shape)])}
    threshold = (1 - inst.eps ** (1.0 / 16)) * view.L
    return [k for k in range(view.K) if len(nice[k]) >= threshold - 1e-9], nice


def _per_k_errors(ref, view):
    K, L = view.K, view.L
    w = np.zeros((K, len(ref.inst.povm)))
    np.add.at(w, (np.arange(K).repeat(L), view.decode.reshape(-1)),
              (view.q_kl[:, :L] * K).reshape(-1))
    return _block_distances(ref, view, w)


def _plan_fewqubits(ref, view, k, nice):
    inst = ref.inst
    eps, slack_bits = inst.eps, inst.slack_bits
    da = inst.psi.dim(inst.povm.register)
    lhs = inst.imax.value + inst.h_h_cond("ideal_env", eps) + slack_bits
    case = "I" if lhs <= float(np.log2(da)) else "II"
    ag_req, ag_cap = 1, 2
    for x in np.unique(view.decode[k, nice], return_inverse=True)[0].tolist():
        hh_pair = ref.h_env[x]
        ag_req = max(ag_req, int(np.sum(hh_pair.witness["weights"] > 1e-12)))
        ag_cap = max(ag_cap, math.ceil(2.0 ** hh_pair.value + 1 - 1e-9))
    if ag_req > ag_cap:
        raise linalg.InvariantError("truncated rank exceeded its entropic cap")
    la = pr.next_pow2(max(1, len(nice)))
    ag_pow = pr.next_pow2(ag_req)
    if case == "I" and da >= la * ag_pow:
        ap_bits = int(da // (la * ag_pow)).bit_length() - 1
    else:
        ap_bits = 0
    ap = 2 ** ap_bits
    borrow = 0
    while (da << borrow) < ap * la * ag_pow or (da << borrow) % (ap * la) != 0:
        borrow += 1
    return pr.FewQubitsPlan(
        case=case, borrow=borrow, a_p_bits=ap_bits,
        ap_dim=ap, la_dim=la, ag_dim=(da << borrow) // (ap * la))


def _run_fewqubits(ref, view, k, nice):
    inst = ref.inst
    psi, eps, bob_label = inst.psi, inst.eps, inst.bob_label
    a_reg = inst.povm.register
    plan = _plan_fewqubits(ref, view, k, nice)
    da = psi.dim(a_reg)
    env_sorted = sorted(inst.env)
    p_nice = view.q_l_given_k(k)[nice]
    p_nice = p_nice / np.sum(p_nice)
    symbols, cells = np.unique(view.decode[k, nice], return_inverse=True)
    ap, la, ag = plan.ap_dim, plan.la_dim, plan.ag_dim
    target = np.zeros((ap, la, ag, inst.env_dim), dtype=complex)
    for s, x in enumerate(symbols.tolist()):
        w, v = ref.sims_eig[x]
        weights = np.zeros_like(w)
        weights[: len(ref.h_env[x].witness["weights"])] = ref.h_env[x].witness["weights"]
        tw = w * weights
        tw = tw / np.sum(tw)
        at = np.flatnonzero(cells == s)
        j = np.flatnonzero(tw[:ag] > 1e-15)
        target[0, at[:, None], j] = np.sqrt(p_nice[at, None] * tw[j])[..., None] * v[:, j].T
    chi = PureState([("Ap", ap), ("LA", la), ("Ag", ag)]
                    + [(l, psi.dim(l)) for l in env_sorted], target)
    phi = psi
    if plan.borrow > 0:
        block = 2 ** plan.borrow
        phi = psi.apply(np.eye(da * block, dtype=complex)[:, ::block], [a_reg],
                        out_regs=[(a_reg, da * block)])
    u, _ = pr.uhlmann_unitary(phi, chi, [a_reg], ["Ap", "LA", "Ag"])
    state = phi.apply(u, [a_reg], out_regs=[("Ap", ap), ("LA", la), ("Ag", ag)])
    db = psi.dim(bob_label)
    b_bits, rows = pr._conditional_codes([ref.bob_codes[x] for x in symbols.tolist()],
                                         p_nice, cells, db, eps)
    rows = np.concatenate([rows[cells], np.broadcast_to(np.eye(db), (la - len(nice), db, db))])
    branches = state.split("LA")
    [err] = pr._final_error(branches, branches.masses(), [(la, range(la))],
                            [[(b_bits, rows)]], [(bob_label, ("Bp", "Bg"))])
    return plan, ProtocolTranscript(
        protocol="fewqubits", distilled_alice=plan.a_p_bits, distilled_bob=b_bits,
        borrowed=plan.borrow, communication=int(np.log2(la)), final_error=err, eps=eps,
        seed=view.seed, dims={"A": da, "B": db, "K": view.K, "L": view.L,
                              "Ap": ap, "LA": la, "Ag": ag},
        slack_bits=inst.slack_bits, case=plan.case, rate_bound_real=None)


def _kernel_povm_input(rng):
    # A is supported on span{|0>, |1>} of a qutrit; a Wishart POVM acts there,
    # and the last element |2><2| is orthogonal to supp rho_A: P_X = 0
    vec = np.zeros((3, 2, 2), dtype=complex)
    vec[:2] = rng.normal(size=(2, 2, 2)) + 1j * rng.normal(size=(2, 2, 2))
    vec /= np.linalg.norm(vec)
    elements = [np.pad(e, (0, 1)) for e in random_povm(rng, 2, 3).elements]
    povm = Povm(elements + [np.diag([0.0, 0.0, 1.0])], register="A")
    return PureState([("A", 3), ("B", 2), ("R", 2)], vec), povm


def _three_qubits(amplitudes):
    vec = np.zeros((2, 2, 2), dtype=complex)
    for (a, b, r), p in amplitudes.items():
        vec[a, b, r] = np.sqrt(p)
    return PureState([("A", 2), ("B", 2), ("R", 2)], vec)


def _instances(rng, family):
    """Argument tuples of ``Instance`` of one family."""
    if family == "classical":
        return [(near_pure_classical(rng, 8, 4, top=top), basis_povm(8, "A"), 0.25)
                for top in (0.8, 0.9)]
    if family == "wishart":
        return [(mixed_protocol_input(rng, da, db, rank=rank), random_povm(rng, da, n_x), 0.25)
                for da, db, rank, n_x in ((4, 2, 2, 3), (3, 4, 3, 4), (4, 4, 2, 4))]
    if family == "kernel":
        return [(*_kernel_povm_input(rng), 0.25) for _ in range(3)]
    # at eps = 1e-12 and zero slack, cells fail pair bounds: outcome 1 both
    # of them (at eps = 0.25 neither), outcome 1 only the environment's, and
    # both outcomes only Bob's
    unsharp = Povm([np.diag([0.9, 0.0]), np.diag([0.1, 1.0])], register="A")
    both = _three_qubits({(0, 0, 0): 0.9, (1, 0, 0): 0.05, (1, 1, 1): 0.05})
    return [(both, unsharp, 1e-12, "B", 0.0), (both, unsharp, 0.25),
            (_three_qubits({(0, 0, 0): 0.9, (1, 0, 0): 0.05, (1, 0, 1): 0.05}), unsharp,
             1e-12, "B", 0.0),
            (_three_qubits({(0, 0, 0): 0.7, (1, 0, 0): 0.15, (1, 1, 1): 0.15}),
             basis_povm(2, "A"), 1e-12, "B", 0.0)]


@pytest.mark.parametrize("family", ["classical", "wishart", "kernel", "broad"])
def test_outcome_layout_keeps_the_bits_of_the_per_symbol_dicts(rng, family):
    made = 0
    for args in _instances(rng, family):
        new, ref = Instance(*args), _per_symbol(Instance(*args))
        assert np.flatnonzero(new.live).tolist() == list(ref.sims)
        if family == "kernel":
            assert not new.live[-1] and new.p_x[-1] == 0
        for x in ref.sims:
            assert new.sims[x].tobytes() == ref.sims[x].tobytes()
            assert new.sims_bob[x].tobytes() == ref.sims_bob[x].tobytes()
        for seed in range(6):
            view = compress_measurement(new, 4, 8, seed)
            ref_view = compress_measurement(ref.inst, 4, 8, seed)
            report = validate_compression(view)
            assert (report.ideal_vs_simulated, report.per_pair_state_dist) == _validation(
                ref, ref_view)
            ref_nice, ref_errs = _nice_sets(ref, ref_view), _per_k_errors(ref, ref_view)
            assert nice_sets(view) == ref_nice
            assert per_k_errors([view])[0].tobytes() == ref_errs.tobytes()
            tprime, nice_all = ref_nice
            if not tprime:
                with pytest.raises(NoGoodK):
                    view.k
                continue
            k = min(tprime, key=lambda k: (ref_errs[k], k))
            assert view.k == k
            # the kd protocol reads the table only through its nice sets and errors
            ref_view.__dict__.update(nice=ref_nice, errors=ref_errs)
            [got], [want] = pr.run_kd_oneshot([view]), pr.run_kd_oneshot([ref_view])
            assert got.to_dict() == want.to_dict()
            if not nice_all[k]:
                continue
            plan, transcript = _run_fewqubits(ref, ref_view, k, nice_all[k])
            assert pr.plan_fewqubits(view) == plan
            [got] = pr.run_fewqubits([view])
            assert got.to_dict() == transcript.to_dict()
            made += 1
    assert made >= 3  # the transcripts were compared on several tables


def _coarse_classical():
    """A pure classical 8x4 state under a coarse basis POVM on A. Outcome 2
    joins four symbols that send B four ways, so its conditional is mixed
    for Bob and of rank 4 for the environment; the other outcomes leave both
    pure. Which rows hold outcome 2 then sets a seed's A_g and Bob's bits."""
    joint = np.zeros((8, 4))
    joint[0, 0], joint[7, 2] = 0.3, 0.2
    joint[[1, 2], 1] = 0.15
    joint[[3, 4, 5, 6], [0, 1, 2, 3]] = 0.05
    groups = [[0], [1, 2], [3, 4, 5, 6], [7]]
    povm = Povm([np.diag(np.isin(np.arange(8), g).astype(float)) for g in groups], register="A")
    return purified_input(classical_correlated_pure(None, 8, 4, joint=joint)), povm


def test_sweeps_run_as_one_stack_with_the_bits_of_each_view():
    # seeds 0-5 of three sweeps of the coarse instance: two plan shapes, each
    # with its own Bob code size, at eps = 1e-4; one plan shape with two Bob
    # code sizes at 1e-3; two kd code shapes (a_bits, b_bits) at 0.1
    psi, povm = _coarse_classical()
    sweeps = []
    for eps, slack_bits, K, L in ((1e-4, 0.0, 4, 3), (1e-3, 0.0, 4, 4), (0.1, None, 4, 3)):
        new, ref = Instance(psi, povm, eps, slack_bits=slack_bits), _per_symbol(
            Instance(psi, povm, eps, slack_bits=slack_bits))
        views = compress_seeds(new, K, L, range(6))
        kds, fqs = pr.run_kd_oneshot(views), pr.run_fewqubits(views)
        shapes = []
        for seed, kd, fq in zip(range(6), kds, fqs):
            ref_view = compress_measurement(ref.inst, K, L, seed)
            (tprime, nice), errs = _nice_sets(ref, ref_view), _per_k_errors(ref, ref_view)
            k = min(tprime, key=lambda k: (errs[k], k))
            ref_view.__dict__.update(nice=(tprime, nice), errors=errs)
            [want] = pr.run_kd_oneshot([ref_view])
            assert kd.to_dict() == want.to_dict()
            plan, want = _run_fewqubits(ref, ref_view, k, nice[k])
            assert fq.to_dict() == want.to_dict()
            shapes.append(((plan.ap_dim, plan.la_dim, plan.ag_dim, plan.borrow),
                           fq.distilled_bob, (kd.distilled_alice, kd.distilled_bob)))
        plans, bobs, kd_bits = (set(column) for column in zip(*shapes))
        sweeps.append((len(plans), len(bobs), len({s[:2] for s in shapes}), len(kd_bits)))
    assert any(plans > 1 and bobs > 1 for plans, bobs, _, _ in sweeps)
    assert any(pairs > plans for plans, _, pairs, _ in sweeps)  # one plan shape, two Bob sizes
    assert any(kd_bits > 1 for *_, kd_bits in sweeps)
