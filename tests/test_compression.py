import hashlib
import json
import os
import subprocess
import sys
import warnings
import zlib
from pathlib import Path

import numpy as np
import pytest

from puredist import entropy, io, linalg
from puredist.compression import (
    Compression,
    Instance,
    NoGoodK,
    _table_uniforms,
    compress_measurement,
    compress_seeds,
    find_good_k,
    nice_sets,
    per_k_errors,
    simulated_conditionals,
    validate_compression,
)
from puredist.sampling import (
    basis_povm,
    bell_pair,
    classical_correlated_pure,
    purified_input,
    random_povm,
)
from puredist.states import DensityOperator, Povm, PureState, control_state

from oracles import conditionals, mixed_protocol_input, pair_rng
from test_golden import write_mixed

BOT = "bot"  # the failure symbol's label


def classical_instance(rng, da=2, db=2):
    # near-uniform marginals keep the construction well conditioned
    joint = np.full((da, db), 1.0 / (da * db))
    joint += rng.uniform(-0.4, 0.4, size=(da, db)) / (da * db)
    joint /= joint.sum()
    return purified_input(classical_correlated_pure(rng, da, db, joint=joint))


def test_trivial_povm_is_exact(rng):
    psi = purified_input(bell_pair())
    triv = Povm([np.eye(2)], register="A")
    view = compress_measurement(Instance(psi, triv, 0.1), K=3, L=4, seed=0)
    rep = validate_compression(view)
    assert rep.ideal_vs_simulated <= 1e-8
    assert rep.bot_mass <= 1e-10
    # all cell operators proportional to the support projector
    for k in range(view.K):
        for l in range(view.L):
            assert np.allclose(view.elements[k, l], np.eye(2) / view.L, atol=1e-9)


def test_rows_are_povms(rng):
    psi = purified_input(bell_pair())
    povm = random_povm(rng, 2, 3)
    view = compress_measurement(Instance(psi, povm, 0.1), K=4, L=8, seed=2)
    for k in range(view.K):
        # the Povm constructor revalidates PSD + sum
        p = Povm(view.elements[k], list(range(view.L)) + [BOT],
                 register=view.instance.povm.register)
        assert p.labels[-1] == BOT
        assert len(p) == view.L + 1


def test_q_kl_keeps_the_bits_of_the_per_matrix_trace_loop(rng):
    for psi, povm in ((classical_instance(rng, 4, 3), basis_povm(4, "A")),
                      (mixed_protocol_input(rng, 3, 2, rank=2), random_povm(rng, 3, 4))):
        inst = Instance(psi, povm, 0.1)
        for seed in range(4):
            view = compress_measurement(inst, K=5, L=6, seed=seed)
            # the reference: Tr(M rho_A) of every cell and failure element, one by one
            want = [[max(0.0, float(np.real(np.trace(m @ inst.rho_a)))) / view.K for m in row]
                    for row in view.elements]
            assert np.array_equal(view.q_kl, want)


def test_stacked_row_sums_keep_the_bits_of_the_row_loop(rng):
    # the reference: each row's cell operators summed in order in Python
    inst = Instance(purified_input(bell_pair()), random_povm(rng, 2, 4), 0.1)
    for seed in range(5):
        cm = compress_measurement(inst, K=6, L=7, seed=seed)
        base = {x: (inst.roots[x] @ linalg.dagger(inst.roots[x])) / inst.p_x[x]
                for x in set(cm.decode.reshape(-1).tolist())}
        rows = cm.decode.tolist()
        sums = np.array([sum(base[x] for x in xs) / cm.L for xs in rows])
        c = 1.0 / max(0.0, float(np.max(linalg.eigvals_hermitian(sums, tol=1e-7))))
        assert cm.c_norm == c
        for xs, theta in zip(rows, cm.elements):
            row = [c / cm.L * base[x] for x in xs]
            bot = np.eye(2) - sum(row)
            assert all(np.array_equal(a, b) for a, b in zip(theta, row))
            assert np.array_equal(theta[-1], (bot + linalg.dagger(bot)) / 2)


def test_seed_streams_extend_with_L(rng):
    psi = classical_instance(rng, 2, 2)
    povm = basis_povm(2, "A")
    inst = Instance(psi, povm, 0.1)
    small = compress_measurement(inst, K=4, L=8, seed=9)
    big = compress_measurement(inst, K=4, L=16, seed=9)
    assert np.array_equal(small.decode, big.decode[:, :8])
    wider = compress_measurement(inst, K=8, L=8, seed=9)
    assert np.array_equal(small.decode, wider.decode[:4])


def test_pair_rng_deterministic():
    a = pair_rng(5, 2, 3).integers(0, 1000)
    b = pair_rng(5, 2, 3).integers(0, 1000)
    c = pair_rng(5, 3, 2).integers(0, 1000)
    assert a == b
    assert (a != c) or True  # different streams may collide but not identical


@pytest.mark.parametrize("K,L", [(1, 1), (3, 5), (4, 8), (16, 32)])
def test_decode_matches_generator_choice(rng, K, L):
    # the table draw is numpy's choice(n, p=P_X) on each cell's own stream
    for seed in (0, 7, 123):
        psi = classical_instance(rng, 3, 2)
        inst = Instance(psi, random_povm(rng, 3, 4), 0.1)
        cm = compress_measurement(inst, K=K, L=L, seed=seed)
        want = [[pair_rng(seed, k, l).choice(len(inst.p_x), p=inst.p_x) for l in range(L)]
                for k in range(K)]
        assert np.array_equal(cm.decode, want)


_EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**128 - 1, 2**128, 2**200 + 7]


@pytest.mark.parametrize("K,L", [(1, 1), (3, 5), (16, 16), (8, 40), (1, 9), (7, 1), (16, 40)])
def test_table_uniforms_match_pair_rng(K, L):
    # the draw of a seed list is, seed by seed, the one random() of each
    # cell's own stream, bit for bit, wherever the seed stands in the list
    # and however often; the edge seeds cross the word counts where the
    # padding stops, and the wrapping integer arithmetic raises no warning
    rng = np.random.default_rng(8)
    seeds = _EDGE_SEEDS + [int.from_bytes(rng.bytes(32), "little") >> int(rng.integers(0, 256))
                           for _ in range(20)]
    seeds += [int.from_bytes(rng.bytes(4 * words), "little") | 1 << (32 * words - 1)
              for words in range(1, 8)]  # 1-7 words, the top one set
    lists = [seeds, [0, 2**32 + 1, 2**64 + 5], [2**64 + 5, 3, 2**64 + 5, 3], seeds[-1:]]
    want = {seed: [[pair_rng(seed, k, l).random() for l in range(L)] for k in range(K)]
            for seed in set(sum(lists, []))}
    for batch in lists:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _table_uniforms(batch, K, L)
        assert got.shape == (len(batch), K, L)
        for seed, table in zip(batch, got):
            assert np.array_equal(table, want[seed]), seed


def test_table_uniforms_take_seeds_as_seed_sequence_does():
    for bad, err in ((-1, ValueError), (1.5, TypeError)):
        with pytest.raises(err):
            np.random.SeedSequence(bad)
        for batch in ([bad], [3, bad]):
            with pytest.raises(err):
                _table_uniforms(batch, 2, 2)
    want = [[pair_rng(np.int64(5), k, l).random() for l in range(3)] for k in range(2)]
    assert np.array_equal(_table_uniforms([np.int64(5)], 2, 3)[0], want)
    assert np.array_equal(_table_uniforms([np.int64(5)], 2, 3), _table_uniforms([5], 2, 3))


@pytest.mark.parametrize("build, message", [
    (lambda inst: Instance(inst.psi, inst.povm, 0.0), r"eps must be in \(0, 1\), got 0.0"),
    (lambda inst: Instance(inst.psi, inst.povm, 1.0), r"eps must be in \(0, 1\), got 1.0"),
    (lambda inst: compress_seeds(inst, 0, 4, [1]), "K and L must be at least 1"),
    (lambda inst: compress_seeds(inst, 4, 0, [1]), "K and L must be at least 1"),
], ids=["eps-0", "eps-1", "K-0", "L-0"])
def test_named_input_errors(build, message):
    inst = Instance(purified_input(bell_pair()), basis_povm(2, "A"), 0.1)
    with pytest.raises(ValueError, match=message):
        build(inst)


@pytest.mark.parametrize("p_x", [[np.nan, 0.5, 0.5], [-0.1, 0.6, 0.5], [0.5, 0.5, 0.5]])
def test_compress_measurement_rejects_a_bad_p_x(rng, monkeypatch, p_x):
    inst = Instance(classical_instance(rng, 3, 2), basis_povm(3, "A"), 0.1)
    monkeypatch.setattr(Instance, "p_x", np.array(p_x))
    with pytest.raises(ValueError, match="P_X"):
        compress_measurement(inst, K=2, L=2, seed=0)


def test_decode_marginal_matches_sampling_distribution(rng):
    psi = classical_instance(rng, 2, 2)
    povm = basis_povm(2, "A")
    p_x = povm.outcome_probs(psi.marginal(["A"]))
    cm = compress_measurement(Instance(psi, povm, 0.1), K=32, L=32, seed=1)
    freq = np.bincount(cm.decode.reshape(-1), minlength=2) / cm.decode.size
    assert np.max(np.abs(freq - p_x)) < 0.15  # loose CLT check


def test_k1_basis_recovers_relabeled_measurement(rng):
    # K=1, L=|X| with maximally mixed marginal: cells reproduce scaled basis
    # projectors up to the failure weight
    psi = purified_input(bell_pair())
    povm = basis_povm(2, "A")
    cm = compress_measurement(Instance(psi, povm, 0.1), K=1, L=2, seed=12)
    for l in range(2):
        x = cm.decode[0, l]
        proj = np.zeros((2, 2))
        proj[x, x] = 1.0
        e = cm.elements[0, l]
        assert np.allclose(e, np.trace(e).real * proj, atol=1e-9)


def test_validation_exact_fields(rng):
    psi = classical_instance(rng, 2, 2)
    povm = basis_povm(2, "A")
    view = compress_measurement(Instance(psi, povm, 0.1), K=4, L=16, seed=3)
    rep = validate_compression(view)
    assert 0 <= rep.ideal_vs_simulated <= 2
    assert rep.bot_mass == pytest.approx(float(np.sum(view.q_kl[:, -1])))
    # the simulated mixture is a substate: its total weight + bot mass = 1
    assert np.isclose(np.sum(view.q_kl), 1.0, atol=1e-9)


def test_doubling_L_shrinks_error_in_median(rng):
    psi = purified_input(bell_pair())
    povm = basis_povm(2, "A")
    eps = 0.1
    medians = []
    for L in (8, 16, 32, 64):
        errs = []
        for seed in range(20):
            view = compress_measurement(Instance(psi, povm, eps), K=4, L=L, seed=seed)
            errs.append(validate_compression(view).ideal_vs_simulated)
        medians.append(np.median(errs))
    assert all(medians[i + 1] <= medians[i] + 1e-12 for i in range(3)), medians


def test_simulated_conditionals_depend_on_symbol_only(rng):
    psi = classical_instance(rng, 2, 3)
    povm = basis_povm(2, "A")
    view = compress_measurement(Instance(psi, povm, 0.1), K=2, L=8, seed=4)
    live, sims, _ = simulated_conditionals(view.instance)
    env = sorted(view.instance.env)  # the registers of the stack, in order
    assert env == ["B", "R"]
    for m in sims[live]:
        assert np.isclose(np.real(np.trace(m)), 1.0, atol=1e-9)
        w, _ = linalg.eig_hermitian(m, tol=1e-7)
        assert np.min(w) >= -1e-9


def test_nice_sets_trivial_and_degenerate(rng):
    psi = purified_input(bell_pair())
    triv = Povm([np.eye(2)], register="A")
    tprime, nice = nice_sets(compress_measurement(Instance(psi, triv, 0.1), K=3, L=4, seed=0))
    assert tprime == [0, 1, 2]
    assert all(len(v) == 4 for v in nice.values())


def test_nice_sets_match_the_per_cell_loop(rng):
    # the reference: both bounds checked cell by cell, in row order
    for inst in (Instance(classical_instance(rng, 4, 3), basis_povm(4, "A"), 0.25),
                 _kernel_outcome_instance(rng), _broad_outcome_instance()):
        bound_env = inst.h_h_cond("ideal_env", inst.eps) + inst.slack_bits
        bound_bob = inst.h_h_cond("ideal_bob", inst.eps) + inst.slack_bits
        h_env, _, h_bob = inst.pair_entropies
        for seed in range(4):
            view = compress_measurement(inst, K=4, L=8, seed=seed)
            want = {k: [l for l, x in enumerate(row) if inst.live[x]
                        and h_env[x] <= bound_env + 1e-12
                        and h_bob[x] <= bound_bob + 1e-12]
                    for k, row in enumerate(view.decode.tolist())}
            assert view.nice[1] == want
    assert 0 < sum(map(len, want.values())) < view.K * view.L  # both verdicts occur


def _per_k_errors_per_block(view):
    # the reference: one trace norm for every live (k, x) block, repeats included
    inst, K, L = view.instance, view.K, view.L
    w = np.zeros((K, len(inst.povm)))
    np.add.at(w, (np.arange(K).repeat(L), view.decode.reshape(-1)),
              (view.q_kl[:, :L] * K).reshape(-1))
    live = (w > 0) & inst.live
    norms = np.where(live, 0.0, inst.ideal_block_norms)
    ks, xs = np.nonzero(live)
    blocks = inst.ideal_blocks[xs] - w[ks, xs][:, None, None] * inst.sims[xs]
    norms[ks, xs] = linalg.trace_norm(blocks)
    return np.cumsum(norms, axis=1)[:, -1], len(ks), len(set(zip(xs.tolist(), w[ks, xs].tolist())))


def test_per_k_errors_keep_the_bits_of_a_norm_per_block(rng):
    repeats = 0
    for inst in (Instance(classical_instance(rng, 3, 2), basis_povm(3, "A"), 0.1),
                 Instance(mixed_protocol_input(rng, 3, 2, rank=2), random_povm(rng, 3, 4), 0.1),
                 _kernel_outcome_instance(rng)):
        for seed in range(4):
            view = compress_measurement(inst, K=8, L=5, seed=seed)
            want, blocks, distinct = _per_k_errors_per_block(view)
            assert per_k_errors([view])[0].tobytes() == want.tobytes()
            repeats += blocks - distinct
    assert repeats > 50  # rows that repeat a count of an outcome repeat its block


def test_find_good_k_minimizes_per_k_error(rng):
    psi = classical_instance(rng, 2, 2)
    povm = basis_povm(2, "A")
    view = compress_measurement(Instance(psi, povm, 0.1), K=8, L=16, seed=6)
    k = find_good_k(view)
    errs = per_k_errors([view])[0]
    assert errs[k] <= np.median(errs) + 1e-12
    # deterministic given the seed
    assert k == find_good_k(view)


def test_view_takes_one_stacked_eigh_per_pass(rng, monkeypatch):
    inst = Instance(classical_instance(rng, 4, 3), basis_povm(4, "A"), 0.25)
    view = compress_measurement(inst, K=8, L=16, seed=2)
    want = per_k_errors([view])  # fills the instance's caches
    calls = []
    orig = linalg._eigh

    def counting(m):
        calls.append(np.shape(m))
        return orig(m)

    monkeypatch.setattr(linalg, "_eigh", counting)
    assert np.array_equal(per_k_errors([view]), want)
    # the blocks the rows weight, all of them at once
    assert len(calls) == 1 and len(calls[0]) == 3
    calls.clear()
    compress_measurement(inst, K=8, L=16, seed=2)
    # the K row maxima
    assert calls == [(8, 4, 4)]


def test_instance_decomposes_each_simulated_stack_once(rng, monkeypatch):
    pure = classical_instance(rng, 4, 3)  # R of dimension 1
    mixed = PureState([("A", 4), ("B", 3), ("R", 2)],
                      np.kron(pure.tensor.reshape(-1), [np.sqrt(0.7), np.sqrt(0.3)]))
    insts = [Instance(psi, basis_povm(4, "A"), 0.25) for psi in (pure, mixed)]
    for inst in insts:
        inst.simulated  # the conditionals, from the roots of rho_A and of the elements
    calls = []
    for name in ("_eigh", "_eigvalsh"):
        def counting(m, _orig=getattr(linalg, name)):
            calls.append(np.shape(m))
            return _orig(m)

        monkeypatch.setattr(linalg, name, counting)
    got = []
    for inst in insts:
        inst.nice_outcomes, inst.ag_bounds, inst.truncated_targets, inst.bob_codes
        got.append(calls[:])
        calls.clear()
    # the spectra of the ideal ensembles the nice bounds read, then one
    # stacked eigensystem of each simulated stack: with R trivial, Bob's
    # ensemble and stack are the environment's, decomposed once
    assert got[0] == [np.shape(insts[0].ideal_env.stack), insts[0].sims.shape]
    inst = insts[1]
    ideal = [np.shape(inst.ideal_env.stack), np.shape(inst.ideal_bob.stack)]
    assert got[1] == ideal + [inst.sims.shape, inst.sims_bob.shape]


def _broad_outcome_instance():
    # outcome 1's simulated state is much broader than the average, so it
    # fails the pair bound with zero slack
    q = 0.9
    vec = np.zeros((2, 2, 2), dtype=complex)
    vec[0, 0, 0] = np.sqrt(q)
    vec[1, 0, 0] = np.sqrt((1 - q) / 2)
    vec[1, 1, 1] = np.sqrt((1 - q) / 2)
    psi = PureState([("A", 2), ("B", 2), ("R", 2)], vec)
    povm = Povm([np.diag([0.9, 0.0]), np.diag([0.1, 1.0])], register="A")
    return Instance(psi, povm, 1e-12, slack_bits=0.0)


def test_find_good_k_degenerate_raises():
    # adversarial L = 1 on the broad outcome empties T'
    view = compress_measurement(_broad_outcome_instance(), K=1, L=1, seed=1)
    assert view.decode[0, 0] == 1
    tprime, _ = nice_sets(view)
    assert tprime == []  # reported without error
    with pytest.raises(NoGoodK):
        find_good_k(view)


def test_quality_warning_when_L_too_small(rng):
    # strongly skewed sampling with tiny L forces c < 1/2
    joint = np.array([[0.49, 0.015], [0.015, 0.48]])
    joint /= joint.sum()
    psi = purified_input(classical_correlated_pure(rng, 2, 2, joint=joint))
    povm = Povm([np.diag([0.97, 0.03]), np.diag([0.03, 0.97])], register="A")
    with pytest.warns(UserWarning, match="raise L"):
        cm = compress_measurement(Instance(psi, povm, 0.1), K=1, L=1, seed=13)
    assert cm.quality_warning


def _commuting_instance(rng):
    # diag(p(a, b)) purified, with one symbol of A never occurring: rho_A is
    # diagonal of rank 2 and commutes with the basis POVM
    p = np.zeros((3, 2))
    p[:2] = rng.dirichlet(np.ones(4)).reshape(2, 2)
    psi = DensityOperator([("A", 3), ("B", 2)], np.diag(p.reshape(-1))).purify()
    return Instance(psi, basis_povm(3, "A"), 0.1)


def test_mean_cell_operator_is_the_support_projector_when_the_povm_commutes(rng):
    # sum_x Y_x Y_x^dag = rho^-1/2 Phi(rho) rho^-1/2 with Phi the Lueders
    # channel of the POVM, so Pi when Phi(rho) = rho; then c_cap = 1
    for _ in range(5):
        inst = _commuting_instance(rng)
        mean = np.sum(inst.roots @ linalg.dagger(inst.roots), axis=0)
        assert np.allclose(mean, np.diag([1.0, 1.0, 0.0]), atol=1e-12)
        assert abs(inst.c_cap - 1.0) <= 1e-12


def test_c_rises_toward_one_with_L_when_the_povm_commutes(rng):
    inst = _commuting_instance(rng)
    medians = [np.median([compress_measurement(inst, K=1, L=L, seed=s).c_norm
                          for s in range(9)]) for L in (2, 32, 512)]
    assert medians[0] < medians[1] < medians[2] and medians[2] > 0.9


def test_quality_warning_names_the_cap_past_which_no_L_lifts_c():
    # compare-sweep pool instance 2 (perfbench/jobs.py): the coherent
    # sum_ab sqrt(p(a, b)) |ab> measured in the basis, with c_cap = 1 / 28.75
    rng = np.random.default_rng([2403_16466, zlib.crc32(b"compare-sweep"), 2])
    top = rng.uniform(0.5, 0.95)
    p_a = np.concatenate([[top], rng.dirichlet(np.ones(7)) * (1 - top)])
    c0 = rng.uniform(0.6, 0.95)
    noise = np.concatenate([[c0], rng.dirichlet(np.ones(3)) * (1 - c0)])
    joint = np.array([p_a[a] * np.roll(noise, a % 4) for a in range(8)])
    seed = int(rng.integers(1, 1_000_000))
    inst = Instance(classical_correlated_pure(rng, 8, 4, joint=joint), basis_povm(8, "A"), 0.25)
    assert abs(1 / inst.c_cap - 28.75) < 0.01
    with pytest.warns(UserWarning, match=r"^compression normalization c=0\.021 < 1/2; "
                      r"no L lifts it past its cap c_cap=0\.035$"):
        view = compress_measurement(inst, K=16, L=16, seed=seed)
    assert view.c_norm < inst.c_cap < 0.5


def test_json_round_trip(rng):
    psi = classical_instance(rng, 2, 2)
    povm = basis_povm(2, "A")
    inst = Instance(psi, povm, 0.1)
    view = compress_measurement(inst, K=2, L=4, seed=5)
    text = view.to_json()
    back = Compression.from_json(text, inst)
    assert back.instance is inst
    assert back.K == view.K and back.L == view.L and back.seed == view.seed
    assert np.array_equal(back.decode, view.decode)
    assert np.allclose(back.q_kl, view.q_kl, atol=0)
    for k in range(view.K):
        for l in range(view.L + 1):
            assert np.allclose(back.elements[k, l], view.elements[k, l], atol=1e-15)
    assert back.to_json() == text
    # the reloaded table derives the same nice sets, per-k errors and k
    assert back.nice == view.nice
    assert np.array_equal(back.errors, view.errors)
    assert back.k == view.k
    with pytest.raises(ValueError, match="does not measure"):
        Compression.from_json(text, Instance(psi, basis_povm(2, "B"), 0.1, bob_label="A"))


# draws the K = 4, L = 8, seed 3 table of a saved (state, POVM) pair at eps 0.1,
# then prints its JSON and one digest of its elements, q_kl and c_norm bytes
DRAW = """
import hashlib, sys
import numpy as np
from puredist import io
from puredist.compression import Instance, compress_measurement
inst = Instance(io.load_state(sys.argv[1]).purify(), io.load_povm(sys.argv[2]), 0.1)
view = compress_measurement(inst, K=4, L=8, seed=3)
print(view.to_json())
print(hashlib.sha256(view.elements.tobytes() + view.q_kl.tobytes()
                     + np.float64(view.c_norm).tobytes()).hexdigest())
"""


def test_a_table_redraws_with_the_same_bits_in_fresh_processes(tmp_path):
    # the recipe (K, L, seed) stands for the table only if every process draws it alike
    write_mixed(tmp_path)
    state, povm = str(tmp_path / "mixed.json"), str(tmp_path / "povm3.json")
    inst = Instance(io.load_state(state).purify(), io.load_povm(povm), 0.1)
    view = compress_measurement(inst, K=4, L=8, seed=3)
    digest = hashlib.sha256(view.elements.tobytes() + view.q_kl.tobytes()
                            + np.float64(view.c_norm).tobytes()).hexdigest()
    for hash_seed in ("1", "2"):
        proc = subprocess.run([sys.executable, "-c", DRAW, state, povm], capture_output=True,
                              text=True, timeout=600, env=dict(
                                  os.environ, PYTHONHASHSEED=hash_seed,
                                  PYTHONPATH=str(Path(io.__file__).parents[1])))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == f"{view.to_json()}\n{digest}\n"


def test_a_table_loads_only_into_the_instance_it_was_drawn_from():
    def instance(joint):
        return Instance(purified_input(classical_correlated_pure(None, 2, 2, joint=np.array(
            joint))), basis_povm(2, "A"), 0.1)

    inst = instance([[0.45, 0.05], [0.05, 0.45]])
    view = compress_measurement(inst, K=4, L=8, seed=3)
    text = view.to_json()
    assert sorted(json.loads(text)) == ["K", "L", "decode", "register", "seed"]
    # the same register, another P_X: the redrawn decode table differs
    with pytest.raises(ValueError, match="drawn from another instance"):
        Compression.from_json(text, instance([[0.85, 0.05], [0.05, 0.05]]))
    edited = json.loads(text)
    edited["decode"][0][0] = 1 - edited["decode"][0][0]
    with pytest.raises(ValueError, match="drawn from another instance"):
        Compression.from_json(io.dumps(edited), inst)
    # a file that also holds the cell operators, as the full format did, loads
    full = dict(json.loads(text), c_norm=view.c_norm, dim=2, thetas=[], q_kl=[])
    assert Compression.from_json(io.dumps(full), inst).to_json() == text


def _kernel_outcome_instance(rng):
    # A is supported on span{|0>, |1>} of a qutrit, so the basis outcome 2
    # has probability zero and every ideal control state drops it
    vec = np.zeros((3, 2, 2), dtype=complex)
    vec[:2] = rng.normal(size=(2, 2, 2)) + 1j * rng.normal(size=(2, 2, 2))
    vec /= np.linalg.norm(vec)
    psi = PureState([("A", 3), ("B", 2), ("R", 2)], vec)
    return Instance(psi, basis_povm(3, "A"), 0.1)


def test_ideal_states_equal_control_states(rng):
    inst = _kernel_outcome_instance(rng)
    psi, povm = inst.psi, inst.povm
    pairs = [
        (inst.ideal_env, control_state(psi, povm, condition_on=inst.env)),
        (inst.ideal_bob, control_state(psi, povm, condition_on=["B"])),
    ]
    for got, want in pairs:
        assert got.symbols == want.symbols == (0, 1)
        assert np.array_equal(got.probs, want.probs)
        for c_got, c_want in zip(conditionals(got), conditionals(want)):
            assert c_got.registers == c_want.registers
            assert np.array_equal(c_got.matrix, c_want.matrix)


@pytest.mark.parametrize("ref_dim", [1, 2])
def test_bob_shares_the_environment_ensemble_exactly_when_r_is_trivial(rng, ref_dim):
    psi = classical_instance(rng, 4, 3)  # R of dimension 1
    if ref_dim == 2:
        psi = _kernel_outcome_instance(rng).psi
    povm = basis_povm(psi.dim("A"), "A")
    inst = Instance(psi, povm, 0.25)
    shared = ref_dim == 1
    assert (inst.ideal_bob is inst.ideal_env) == shared
    assert (inst.sims_bob is inst.sims) == shared
    assert (inst.sims_eig[1] is inst.sims_eig[0]) == shared
    want = control_state(psi, povm, condition_on=["B"])
    assert inst.ideal_bob.stack.tobytes() == want.stack.tobytes()
    assert inst.ideal_bob.spectra.tobytes() == want.spectra.tobytes()
    assert inst.sims_bob.tobytes() == linalg.partial_trace(
        inst.sims, [psi.dim(l) for l in sorted(inst.env)], sorted(inst.env).index("B")).tobytes()


def loop_ideal_blocks(inst):
    """The per-symbol loop that ``Instance.ideal_by_outcome`` and
    ``ideal_blocks`` replaced, kept as their reference."""
    probs = np.zeros(len(inst.povm))
    conds = [None] * len(inst.povm)
    ideal = inst.ideal_env
    for lbl, p, c in zip(ideal.symbols, ideal.probs, conditionals(ideal)):
        x = inst.povm.labels.index(lbl)
        probs[x], conds[x] = p, c.matrix
    zero = np.zeros((inst.env_dim,) * 2, dtype=complex)
    return probs, conds, np.array([p * conds[x] if p > 0 else zero
                                   for x, p in enumerate(probs)])


def test_ideal_blocks_keep_the_bits_of_the_per_symbol_loop(rng):
    # a dropped outcome, and labels that are not the outcome indices
    povm = random_povm(rng, 2, 3)
    relabeled = Povm(povm.elements, labels=["c", "a", "b"], register="A")
    for inst in (_kernel_outcome_instance(rng),
                 Instance(classical_instance(rng, 2, 3), relabeled, 0.1)):
        probs, conds, blocks = loop_ideal_blocks(inst)
        got_probs, got_conds = inst.ideal_by_outcome
        assert got_probs.tobytes() == probs.tobytes()
        for got, want in zip(got_conds, conds):
            assert np.array_equal(got, want if want is not None else np.zeros_like(got))
        assert inst.ideal_blocks.tobytes() == blocks.tobytes()


def _count_roots(monkeypatch):
    """The calls of ``psd_power`` (the power) and ``eig_power`` (the
    eigenvalues and the power), and the symmetrized bytes of every ``_eigh``
    input, in call order."""
    powers, eighs = [], []
    orig_power, orig_eig_power, orig_eigh = linalg.psd_power, linalg.eig_power, linalg._eigh

    def psd_power(m, power):
        powers.append(("psd_power", power))
        return orig_power(m, power)

    def eig_power(w, v, power):
        powers.append(("eig_power", w, power))
        return orig_eig_power(w, v, power)

    def eigh(m):
        eighs.append(m.tobytes())
        return orig_eigh(m)

    monkeypatch.setattr(linalg, "psd_power", psd_power)
    monkeypatch.setattr(linalg, "eig_power", eig_power)
    monkeypatch.setattr(linalg, "_eigh", eigh)
    return powers, eighs


def test_instance_measures_each_element_once(rng, monkeypatch):
    from puredist.protocols import run_protocol_a
    kernel = _kernel_outcome_instance(rng)
    elements, rho_a = np.array(kernel.povm.elements), kernel.psi.marginal(["A"])
    powers, eighs = _count_roots(monkeypatch)
    inst = Instance(kernel.psi, Povm(elements, register="A"), kernel.eps)
    inst.ideal_env, inst.ideal_bob  # build both
    run_protocol_a(inst)
    inst.roots
    # the POVM's check decomposes the elements, and rho_A is decomposed once
    assert eighs.count(linalg.hermitian_part(elements).tobytes()) == 1
    assert eighs.count(linalg.hermitian_part(rho_a).tobytes()) == 1
    # the sqrt of the elements from the POVM's eigensystem, then rho_A^{-1/2}
    # and rho_A^{1/2} from rho_A's; psd_power decomposes nothing here
    assert [(p[0], p[-1]) for p in powers] == [("eig_power", 0.5), ("eig_power", -0.5),
                                               ("eig_power", 0.5)]
    assert powers[0][1] is inst.povm.eig[0]
    assert powers[1][1] is powers[2][1] is inst.rho_a_eig[0]


def test_compressions_share_the_roots_of_rho_a(rng, monkeypatch):
    psi = classical_instance(rng, 2, 3)
    inst = Instance(psi, random_povm(rng, 2, 3), 0.1)
    rho_a = psi.marginal(["A"])
    powers, eighs = _count_roots(monkeypatch)
    for seed in (1, 2):
        compress_measurement(inst, K=2, L=4, seed=seed)  # the tables
    inst.sims, inst.rho_a_eig  # the conditionals, and the spectrum of rho_A
    assert eighs.count(linalg.hermitian_part(rho_a).tobytes()) == 1
    of_rho_a = [p[-1] for p in powers if p[1] is inst.rho_a_eig[0]]
    assert of_rho_a == [-0.5, 0.5] and not [p for p in powers if p[0] == "psd_power"]


def test_views_of_one_instance_share_simulated_conditionals(rng, monkeypatch):
    from puredist import compression, entropy
    psi = classical_instance(rng, 4, 3)
    inst = Instance(psi, basis_povm(4, "A"), 0.25)
    sims_calls, h_h_calls = [], []
    # pair_entropies solves its H_H LPs in h_h_many
    orig_sims, orig_h_h = compression.simulated_conditionals, entropy.h_h_many

    def counting_sims(arg):
        sims_calls.append(arg)
        return orig_sims(arg)

    def counting_h_h(*args):
        h_h_calls.append(args)
        return orig_h_h(*args)

    monkeypatch.setattr(compression, "simulated_conditionals", counting_sims)
    monkeypatch.setattr(entropy, "h_h_many", counting_h_h)
    first = nice_sets(compress_measurement(inst, K=4, L=8, seed=1))
    n_first = len(h_h_calls)
    second = nice_sets(compress_measurement(inst, K=4, L=8, seed=2))
    assert len(sims_calls) == 1 and n_first > 0 and len(h_h_calls) == n_first
    # one state per outcome of nonzero P_X, and the nice sets of views of
    # separate instances
    assert np.flatnonzero(inst.live).tolist() == np.flatnonzero(inst.p_x > 0).tolist()
    for seed, got in ((1, first), (2, second)):
        assert got == nice_sets(compress_measurement(
            Instance(psi, basis_povm(4, "A"), 0.25), K=4, L=8, seed=seed))


def test_pair_entropies_solve_bob_once_when_his_ensemble_is_the_environments(monkeypatch):
    rng = np.random.default_rng(8)
    joint = rng.dirichlet(np.ones(32)).reshape(8, 4)
    calls, orig = [], entropy.h_h_many
    monkeypatch.setattr(entropy, "h_h_many", lambda *a: calls.append(a) or orig(*a))
    for psi in (purified_input(classical_correlated_pure(rng, 8, 4, joint=joint)),
                _kernel_outcome_instance(rng).psi):  # R of dimension 1, then 2
        inst = Instance(psi, basis_povm(psi.dim("A"), "A"), 0.25)
        inst.sims_eig  # noqa: B018 -- decomposed before the count
        calls.clear()
        h_env, _, h_bob = inst.pair_entropies
        assert len(calls) == (1 if inst.bob_alone else 2)
        # Bob's values are those of his own solve, bit for bit
        live, smooth = inst.live, inst.eps ** 0.125
        want = orig(inst.sims_eig[1][0][live, ::-1], smooth)[0]
        assert h_bob[live].tobytes() == want.tobytes()
        assert not h_bob[~live].any() and h_env[live].tobytes() == orig(
            inst.sims_eig[0][0][live, ::-1], smooth)[0].tobytes()


def test_views_share_the_instance_per_pair_state_distances(monkeypatch):
    inst = Instance(purified_input(bell_pair()), basis_povm(2, "A"), 0.1)
    views = [cm for L in (8, 16) for cm in compress_seeds(inst, 2, L, range(8))]
    first = validate_compression(views[0])  # the instance's norms, kept
    calls, orig = [], linalg.trace_norm
    monkeypatch.setattr(linalg, "trace_norm", lambda m: calls.append(len(m)) or orig(m))
    reports = [first] + [validate_compression(cm) for cm in views[1:]]
    # then one trace norm a view, for its ideal_vs_simulated, and none per pair
    assert len(calls) == len(views) - 1
    probs, conds = inst.ideal_by_outcome
    for cm, rep in zip(views, reports):
        weights = np.zeros(len(inst.povm))
        np.add.at(weights, cm.decode.reshape(-1), cm.q_kl[:, :cm.L].reshape(-1))
        xs = np.flatnonzero(inst.live & (weights > 1e-12) & (probs > 0))
        want = max([0.0] + linalg.trace_norm(conds[xs] - inst.sims[xs]).tolist())  # per view
        assert np.float64(rep.per_pair_state_dist).tobytes() == np.float64(want).tobytes()


def test_pair_closeness_check_decomposes_once_a_view(monkeypatch):
    from puredist import verify
    eighs, orig = [], linalg._eigh
    monkeypatch.setattr(linalg, "_eigh", lambda m: eighs.append(len(m)) or orig(m))
    check = verify.SUITE[verify.MANIFEST.index("compression-pair-closeness")]
    counts = []
    for trials in (100, 200):  # one trial, then two
        eighs.clear()
        check(np.random.default_rng(0), trials, None)
        counts.append(len(eighs))
    # a trial: one call per compress_seeds batch (3) and none per view, which
    # reads the instance's per-pair distances, not validate_compression's
    # report with its ideal_vs_simulated (one call a view)
    assert counts[1] - counts[0] == 3


def test_pair_closeness_check_builds_no_compression_report(monkeypatch):
    from puredist import compression, verify
    calls, orig = [], compression._block_distances
    monkeypatch.setattr(compression, "_block_distances", lambda *a: calls.append(a) or orig(*a))
    check = verify.SUITE[verify.MANIFEST.index("compression-pair-closeness")]
    for seed in range(3):
        for trials, eps in ((100, 0.1), (200, None)):  # a pool chunk, then two trials
            assert check(np.random.default_rng(seed), trials, eps).passed
    assert calls == []


def test_view_per_pair_state_dist_is_the_reports(rng):
    instances = [Instance(purified_input(bell_pair()), basis_povm(2, "A"), 0.1),
                 _kernel_outcome_instance(rng), _broad_outcome_instance(),
                 Instance(classical_instance(rng, 3, 2), random_povm(rng, 3, 4), 0.1)]
    for inst in instances:
        seeds = range(20)
        views = compress_seeds(inst, 2, 8, seeds)
        # the reports of views built apart, on an instance built apart
        fresh = Instance(inst.psi, inst.povm, inst.eps, slack_bits=inst.slack_bits)
        reports = [validate_compression(cm) for cm in compress_seeds(fresh, 2, 8, seeds)]
        probs, conds = inst.ideal_by_outcome
        for cm, rep in zip(views, reports, strict=True):
            got = np.float64(cm.per_pair_state_dist).tobytes()
            assert got == np.float64(rep.per_pair_state_dist).tobytes()
            # the outcomes the table decodes to, live and kept in the ideal state
            weights = np.zeros(len(inst.povm))
            np.add.at(weights, cm.decode.reshape(-1), cm.q_kl[:, :cm.L].reshape(-1))
            xs = np.flatnonzero(inst.live & (weights > 1e-12) & (probs > 0))
            want = max([0.0] + linalg.trace_norm(conds[xs] - inst.sims[xs]).tolist())
            assert got == np.float64(want).tobytes()
