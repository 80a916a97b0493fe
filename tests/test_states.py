import numpy as np
import pytest

from puredist import linalg
from puredist.sampling import (
    basis_povm,
    bell_pair,
    cq_draws,
    flat_dirichlet,
    ginibre_density,
    ginibre_gram,
    ginibre_normals,
    haar_unitary,
    random_density,
    random_povm,
    standard_complex,
)
from puredist.states import (
    CQState,
    DensityOperator,
    Povm,
    ProtocolTranscript,
    PureState,
    control_state,
    kept_symbols,
    measure,
    rank1_refine,
)

from oracles import (
    DroppingRng,
    conditionals,
    cq_ensembles,
    ginibre_matrix,
    mixed_protocol_input,
    per_symbol_random_cq,
    random_cq,
    random_mixed,
    ranked_cq_draws,
)


def test_density_operator_canonical_register_order(rng):
    rho = ginibre_density(rng, 2)
    sig = ginibre_density(rng, 3)
    # construct with registers out of order; matrix must be permuted to B,A -> A,B
    joint = np.kron(sig, rho)  # order (B, A)
    d = DensityOperator([("B", 3), ("A", 2)], joint)
    assert d.labels == ["A", "B"]
    assert np.allclose(d.partial_trace("A").matrix, rho, atol=1e-9)
    assert np.allclose(d.partial_trace("B").matrix, sig, atol=1e-9)


def test_density_operator_validation():
    with pytest.raises(ValueError):
        DensityOperator([("A", 2)], np.array([[0.5, 0.3], [0.1, 0.5]]))  # not Hermitian
    with pytest.raises(ValueError):
        DensityOperator([("A", 2)], np.diag([0.8, 0.8]))  # trace != 1
    with pytest.raises(ValueError):
        DensityOperator([("A", 2)], np.diag([1.5, -0.5]))  # genuinely negative
    # tiny negative eigenvalue is clipped
    d = DensityOperator([("A", 2)], np.diag([1.0 + 5e-11, -5e-11]))
    assert np.min(d.spectrum()) >= 0


@pytest.mark.parametrize("bad", [np.array([[0.5, 0.3], [0.1, 0.5]]), np.full((2, 2), np.nan)],
                         ids=["asymmetric", "nan"])
def test_constructors_name_a_matrix_that_is_not_hermitian(bad):
    with pytest.raises(ValueError, match=r"^density matrix is not Hermitian within 1e-9$"):
        DensityOperator([("A", 2)], bad)
    with pytest.raises(ValueError, match=r"^POVM element is not Hermitian$"):
        Povm([bad, np.eye(2) - bad])


def test_constructors_pass_a_lapack_failure_through(monkeypatch):
    # LinAlgError is a ValueError: it must not come out as "not Hermitian"
    def diverge(h):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")
    monkeypatch.setattr(linalg, "_eigh", diverge)
    with pytest.raises(np.linalg.LinAlgError, match="did not converge"):
        DensityOperator([("A", 2)], np.eye(2) / 2)
    with pytest.raises(np.linalg.LinAlgError, match="did not converge"):
        Povm([np.eye(2)])


def test_duplicate_register_labels_rejected():
    message = r"duplicate register labels: \['A', 'A'\]"
    with pytest.raises(ValueError, match=message):
        DensityOperator([("A", 2), ("A", 2)], np.eye(4) / 4)
    with pytest.raises(ValueError, match=message):
        PureState([("A", 2), ("A", 2)], np.eye(4)[0])


def _pair():
    return PureState([("A", 2), ("B", 2)], np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2))


@pytest.mark.parametrize("build, message", [
    (lambda: _pair().apply(np.eye(2), ["A"], out_regs=[("B", 2)]),
     "output register 'B' collides with an existing one"),
    (lambda: _pair().apply(np.eye(3), ["A"]), r"operator shape \(3, 3\) != \(2, 2\)"),
    (lambda: DensityOperator([("A", 2)], np.eye(3) / 3),
     r"matrix shape \(3, 3\) does not match registers"),
    (lambda: DensityOperator([("A", 2), ("R", 2)], np.eye(4) / 4).purify(),
     "reference label 'R' already in use"),
    (lambda: CQState([0, 1], [1.5, -0.5], [np.eye(2) / 2] * 2, registers=[("B", 2)]),
     "negative probabilities"),
    (lambda: CQState([0, 1], [0.5, 0.4], [np.eye(2) / 2] * 2, registers=[("B", 2)]),
     "probabilities sum to 0.9"),
    # the whole message; a NaN hides no negative entry
    (lambda: CQState([0, 1], [np.nan, -0.5], [np.eye(2) / 2] * 2, registers=[("B", 2)]),
     "^negative probabilities$"),
    (lambda: CQState([], [], np.zeros((0, 2, 2)), registers=[("B", 2)]),
     r"^probabilities sum to 0\.0, not 1$"),
    (lambda: CQState([0, 1], [np.inf, 0.0], [np.eye(2) / 2] * 2, registers=[("B", 2)]),
     "^probabilities sum to inf, not 1$"),
    (lambda: CQState([0, 1], [0.5, 0.5], [DensityOperator([(l, 2)], np.eye(2) / 2) for l in "BC"]),
     "^conditionals have mismatched register signatures$"),
    (lambda: CQState([0], [1.0], np.zeros((1, 4, 4)), registers=[("B", 2), ("A", 2)]),
     r"^registers \(\('B', 2\), \('A', 2\)\) are not distinct and sorted$"),
    (lambda: CQState([0, 1], [0.5, 0.5], np.zeros((3, 2, 2)), registers=[("B", 2)]),
     r"^stack shape \(3, 2, 2\) does not match 2 symbols over registers \(\('B', 2\),\)$"),
    (lambda: Povm([np.eye(2)], labels=[0, 1]), "labels/elements length mismatch"),
    (lambda: Povm([np.eye(2), np.zeros((3, 3))]), "POVM elements have mismatched shapes"),
], ids=["apply-collision", "apply-shape", "density-shape", "purify-label", "cq-negative",
        "cq-unnormalized", "cq-nan-negative", "cq-empty", "cq-inf", "cq-signatures",
        "cq-unsorted", "cq-stack-shape", "povm-labels", "povm-shapes"])
def test_named_input_errors(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_density_of_a_pure_state_is_its_sorted_marginal(rng):
    vec = rng.normal(size=12) + 1j * rng.normal(size=12)
    psi = PureState([("B", 3), ("A", 2), ("C", 2)], vec / np.linalg.norm(vec))
    full = psi.density()
    # the marginal on the sorted registers, through the constructor's PSD check
    assert full.registers == (("A", 2), ("B", 3), ("C", 2))
    assert np.array_equal(full.matrix, linalg.psd_power(psi.marginal(["A", "B", "C"]), 1.0))
    part = DensityOperator([("B", 3), ("C", 2)], psi.marginal(["B", "C"]))
    assert part.registers == (("B", 3), ("C", 2))
    assert np.array_equal(part.matrix, linalg.psd_power(psi.marginal(["B", "C"]), 1.0))
    assert np.allclose(part.matrix, full.partial_trace(["B", "C"]).matrix, atol=1e-12)


def test_partial_trace_unknown_label(rng):
    d = random_density(rng, 4)
    with pytest.raises(KeyError):
        d.partial_trace("Z")


def test_cq_state_drops_zero_probability(rng):
    conds = [random_mixed(rng, 2, "B") for _ in range(3)]
    cq = CQState([0, 1, 2], [0.6, 0.4, 1e-15], conds)
    assert len(cq) == 2
    assert np.isclose(np.sum(cq.probs), 1.0)


def test_povm_validation(rng):
    with pytest.raises(ValueError):
        Povm([np.diag([0.5, 0.5]), np.diag([0.4, 0.4])])  # doesn't sum to I
    with pytest.raises(ValueError):
        Povm([np.diag([1.5, 1.0]), np.diag([-0.5, 0.0])])  # not PSD
    with pytest.raises(ValueError, match="no elements"):
        Povm([])
    p = random_povm(rng, 3, 4)
    assert np.allclose(sum(p.elements), np.eye(3), atol=1e-8)


def test_povm_rejects_repeated_labels():
    # an outcome is found by its label: with ["x", "y", "x"] the third
    # outcome's weight would land on the first
    elems = [np.diag([0.5, 0.0]), np.diag([0.0, 1.0]), np.diag([0.5, 0.0])]
    with pytest.raises(ValueError, match=r"^POVM label 'x' is repeated$"):
        Povm(elems, labels=["x", "y", "x"])
    assert Povm(elems, labels=["x", "y", "z"]).labels == ("x", "y", "z")


def test_povm_takes_the_psd_tolerance_of_the_element_roots():
    # psd_power, which roots every element for an Instance, clips only above
    # linalg.PSD_CLIP: an element below it is rejected where the POVM is made
    with pytest.raises(ValueError, match=r"^POVM element not PSD: min eig -5\.00e-10$"):
        Povm([np.diag([-5e-10, 1.0]), np.diag([1 + 5e-10, 0.0])])
    ok = Povm([np.diag([-5e-11, 1.0]), np.diag([1 + 5e-11, 0.0])])
    assert linalg.psd_power(np.array(ok.elements), 0.5).shape == (2, 2, 2)


def test_control_state_trivial_povm(rng):
    psi = PureState([("A", 2), ("B", 2), ("R", 1)],
                    np.array([1, 0, 0, 1]) / np.sqrt(2))
    cq = control_state(psi, Povm([np.eye(2)], register="A"), condition_on=["B", "R"])
    assert len(cq) == 1
    assert np.allclose(conditionals(cq)[0].matrix, psi.marginal(["B", "R"]), atol=1e-12)


def test_control_state_classical_oracle(rng):
    # diagonal rho^{AB}, basis measurement: P_X and conditionals from the
    # probability table directly
    joint = rng.dirichlet(np.ones(6)).reshape(2, 3)
    vec = np.sqrt(joint).reshape(-1)
    psi = PureState([("A", 2), ("B", 3)], vec)
    cq = control_state(psi, basis_povm(2, "A"), condition_on=["B"])
    pa = joint.sum(axis=1)
    assert np.allclose(cq.probs, pa, atol=1e-12)
    for i, cond in enumerate(conditionals(cq)):
        want = np.diag(joint[i] / pa[i])
        # conditional of a classical superposition is the pure conditional vector
        v = np.sqrt(joint[i] / pa[i])
        assert np.allclose(cond.matrix, np.outer(v, v), atol=1e-12)


def test_control_state_flags_dropped_outcomes():
    # measuring |0><0| in the basis: outcome 1 has zero probability
    psi = PureState([("A", 2), ("B", 1)], np.array([1.0, 0.0]))
    cq = control_state(psi, basis_povm(2, "A"), condition_on=["B"])
    assert len(cq) == 1


def test_control_state_bell_basis(rng):
    psi = bell_pair()
    cq = control_state(PureState([("A", 2), ("B", 2)], psi.tensor.reshape(-1)),
                       basis_povm(2, "A"), condition_on=["B"])
    assert np.allclose(cq.probs, [0.5, 0.5])
    assert np.allclose(conditionals(cq)[0].matrix, np.diag([1.0, 0.0]), atol=1e-12)
    assert np.allclose(conditionals(cq)[1].matrix, np.diag([0.0, 1.0]), atol=1e-12)


def test_control_state_marginal_preserved(rng):
    # measurement cannot change the marginal on B,R
    for _ in range(25):
        da, db = int(rng.integers(2, 4)), int(rng.integers(2, 4))
        vec = rng.normal(size=da * db * 2) + 1j * rng.normal(size=da * db * 2)
        vec /= np.linalg.norm(vec)
        psi = PureState([("A", da), ("B", db), ("R", 2)], vec)
        povm = random_povm(rng, da, int(rng.integers(2, 5)))
        cq = control_state(psi, povm, condition_on=["B", "R"])
        assert np.isclose(np.sum(cq.probs), 1.0, atol=1e-9)
        mix = sum(p * c.matrix for p, c in zip(cq.probs, conditionals(cq)))
        assert np.max(np.abs(mix - psi.marginal(["B", "R"]))) <= 1e-8


def test_rank1_refine(rng):
    already = basis_povm(3)
    ref = rank1_refine(already)
    assert len(ref) == 3
    two = Povm([0.5 * np.eye(3), 0.5 * np.eye(3)])
    ref = rank1_refine(two)
    assert len(ref) == 6
    assert np.allclose(sum(ref.elements), np.eye(3), atol=1e-9)
    # grouping by parent label reproduces parents
    p = random_povm(rng, 4, 3)
    ref = rank1_refine(p)
    for lbl, elem in zip(p.labels, p.elements):
        regroup = sum(e for (pl, _), e in zip(ref.labels, ref.elements) if pl == lbl)
        assert np.max(np.abs(regroup - elem)) <= 1e-9
    for e in ref.elements:
        w, _ = linalg.eig_hermitian(e)
        assert np.sum(w > 1e-9) == 1  # rank one


def test_pure_state_apply_and_branches(rng):
    psi = bell_pair()
    u = haar_unitary(ginibre_matrix(rng, 2))
    rotated = psi.apply(u, ["A"])
    assert np.isclose(np.linalg.norm(rotated.tensor), 1.0)
    back = rotated.apply(linalg.dagger(u), ["A"])
    assert np.allclose(back.tensor, psi.tensor)
    branches = psi.split("A")
    assert len(branches.tensor) == 2
    assert np.isclose(branches.masses().sum(), 1.0)


def test_masses_keep_the_bits_of_a_norm_per_member(rng):
    # stacks of 0-8 members over 1-4 registers, scaled over nine decades;
    # after apply, most tensors are strided views, which the norm reads in
    # memory order
    strided = 0
    for _ in range(2000):
        n, dims = int(rng.integers(0, 9)), [int(d) for d in rng.integers(1, 7, rng.integers(1, 5))]
        scale = 10.0 ** int(rng.integers(-6, 3))
        psi = PureState([(f"R{i}", d) for i, d in enumerate(dims)],
                        scale * (rng.normal(size=[n] + dims) + 1j * rng.normal(size=[n] + dims)),
                        stacked=True)
        if n and len(dims) > 1:
            on = [f"R{i}" for i in rng.permutation(len(dims))[:int(rng.integers(1, len(dims)))]]
            d = int(np.prod([psi.dim(l) for l in on]))
            psi = psi.apply(ginibre_matrix(rng, d), on)
        strided += not psi.tensor.flags.c_contiguous
        want = np.array([float(np.linalg.norm(t)) ** 2 for t in psi.tensor])  # the loop it replaced
        assert psi.masses().tobytes() == want.tobytes(), (n, dims)
    assert strided > 200


def test_pure_state_apply_isometry_reshapes_registers():
    psi = PureState([("A", 2), ("B", 2)], np.array([1, 0, 0, 1]) / np.sqrt(2))
    iso = np.zeros((6, 2), dtype=complex)  # embed qubit into qutrit x flag
    iso[0, 0] = iso[4, 1] = 1.0
    out = psi.apply(iso, ["A"], out_regs=[("C", 3), ("F", 2)])
    assert out.labels == ["C", "F", "B"]
    assert np.isclose(np.linalg.norm(out.tensor), 1.0)


@pytest.mark.parametrize("first", ["A", "B"])
def test_measure_keeps_the_bits_of_the_per_element_loop(rng, first):
    psi = mixed_protocol_input(rng, 4, 3, rank=2)  # registers A, B, R
    if first == "B":  # A in the middle: every tensor is a strided view
        psi = PureState([("B", 3), ("A", 4), ("R", 2)], np.transpose(psi.tensor, (1, 0, 2)))
    # full-rank and singular elements; measure needs no POVM
    elements = list(random_povm(rng, 4, 3).elements) + list(basis_povm(4).elements)[:2]
    got = measure(psi, elements, "A")
    ref = [psi.apply(linalg.psd_power(e, 0.5), ["A"]) for e in elements]  # the parent's loop
    assert got.stacked and got.regs == ref[0].regs and len(got.tensor) == len(ref)
    assert got.masses().tolist() == [float(np.linalg.norm(b.tensor)) ** 2 for b in ref]
    margs = got.marginal(["B", "R"])
    for i, b in enumerate(ref):
        assert np.array_equal(got.tensor[i], b.tensor)
        assert np.array_equal(margs[i], b.marginal(["B", "R"]))


def test_stacked_apply_acts_member_by_member(rng):
    psi = mixed_protocol_input(rng, 3, 2, rank=2)
    ops = np.array([haar_unitary(ginibre_matrix(rng, 3)) for _ in range(4)])
    branches = psi.apply(ops, ["A"])  # a stack of operators stacks the results
    iso = np.zeros((6, 2), dtype=complex)  # embed qubit into qutrit x flag
    iso[0, 0] = iso[4, 1] = 1.0
    one_op = branches.apply(iso, ["B"], out_regs=[("C", 3), ("F", 2)])
    per_member = branches.apply(ops[::-1], ["A"])
    margs = one_op.marginal(["F", "A"])
    for i in range(len(ops)):
        single = psi.apply(ops[i], ["A"])
        assert np.array_equal(branches.tensor[i], single.tensor)
        want = single.apply(iso, ["B"], out_regs=[("C", 3), ("F", 2)])
        assert one_op.regs == want.regs and np.array_equal(one_op.tensor[i], want.tensor)
        assert np.array_equal(margs[i], want.marginal(["F", "A"]))
        assert np.array_equal(per_member.tensor[i], single.apply(ops[::-1][i], ["A"]).tensor)
    split = psi.split("B")
    assert split.stacked and split.labels == ["A", "R"]
    assert len(split.tensor) == psi.dim("B")
    for i, t in enumerate(split.tensor):
        assert np.array_equal(t, np.take(psi.tensor, i, axis=1))


def test_transcript_accounting():
    t = ProtocolTranscript("local", 3, 2, 1, 2, 0.01, eps=0.1)
    assert t.net_rate == 4
    d = t.to_dict()
    assert d["net_rate"] == 4
    with pytest.raises(ValueError):
        ProtocolTranscript("local", 1.5, 0, 0, 0, 0.0, eps=0.1)
    with pytest.raises(ValueError):
        ProtocolTranscript("local", -1, 0, 0, 0, 0.0, eps=0.1)


def test_cq_spectra_take_one_decomposition_and_keep_each_spectrum(rng, monkeypatch):
    for n, d in ((3, 2), (2, 3), (4, 3), (1, 5), (2, 2)):
        cq = random_cq(rng, n, d)
        want = [c.spectrum() for c in conditionals(cq)]
        sizes = []
        orig = linalg._eigh

        def counting(h):
            sizes.append(h.shape)
            return orig(h)

        monkeypatch.setattr(linalg, "_eigh", counting)
        assert cq.spectra is cq.spectra and not cq.spectra.flags.writeable
        assert sizes == [(n, d, d)]  # one stacked decomposition, kept
        monkeypatch.undo()
        # each row has the bits of its conditional's own spectrum, and the
        # conditionals are views of the stack
        for c, row, w in zip(conditionals(cq), cq.spectra, want):
            assert row.tobytes() == w.tobytes() and np.shares_memory(c.matrix, cq.stack)


def test_density_matrix_is_read_only_so_a_kept_spectrum_stays_valid(rng):
    m = ginibre_density(rng, 3)
    for rho in (DensityOperator([("A", 3)], m, validate=False), random_density(rng, 3)):
        with pytest.raises(ValueError, match="read-only"):
            rho.matrix[0, 0] = 1.0
    # taken without a copy, the caller's array is protected too
    with pytest.raises(ValueError, match="read-only"):
        m[0, 0] = 1.0


def test_kept_eigensystems_are_read_only(rng):
    # the eigensystems, and the marginals, that their owners keep and every
    # caller shares: a state's, a pure state's per register list, a cq
    # state's and a POVM's
    rho = DensityOperator([("A", 2), ("B", 3)], ginibre_density(rng, 6, 2))
    psi = rho.purify()
    povm = random_povm(rng, 2, 3, "A")
    kept = [*rho.eig, rho.spectrum(), *psi.reduced(["A"]), *psi.reduced(["B", "R"]),
            *control_state(psi, povm).eig, *povm.eig]
    assert len(kept) == 13
    for a in kept:
        with pytest.raises(ValueError, match="read-only"):
            a[(0,) * a.ndim] = 0.0
    # a sorted copy of a kept spectrum is the caller's own (demo 01 prints one)
    w = np.sort(rho.spectrum())
    w[0] = 1.0


def test_cq_stack_is_read_only(rng):
    for cq in (random_cq(rng, 3, 2), CQState([0, 1], [0.5, 0.5], [random_mixed(rng, 2, "B")] * 2)):
        with pytest.raises(ValueError, match="read-only"):
            cq.stack[0, 0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            conditionals(cq)[0].matrix[0, 0] = 1.0


def test_cq_probs_are_a_read_only_copy(rng):
    stack = random_cq(rng, 3, 2).stack
    for given in ([0.2, 0.3, 0.5], [0.2, 0.0, 0.8]):  # kept whole, and with a symbol dropped
        probs = np.array(given)
        cq = CQState("xyz", probs, stack, registers=[("B", 2)])
        want = cq.probs.tolist()
        probs[:] = 1.0
        assert cq.probs.tolist() == want and probs.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            cq.probs[0] = 1.0


def test_cq_stack_must_match_its_registers(rng):
    stack = random_cq(rng, 3, 2).stack
    for regs in ([("B", 3)], [("B", 2), ("C", 2)]):
        with pytest.raises(ValueError, match="does not match"):
            CQState(range(3), [0.2, 0.3, 0.5], stack, registers=regs)
    with pytest.raises(ValueError, match="does not match"):
        CQState(range(2), [0.5, 0.5], stack, registers=[("B", 2)])
    with pytest.raises(ValueError, match="sorted"):
        CQState(range(3), [0.2, 0.3, 0.5], np.zeros((3, 4, 4)), registers=[("B", 2), ("A", 2)])


def test_cq_stack_drops_a_symbol_below_1e12(rng):
    stack = random_cq(rng, 3, 2).stack
    cq = CQState("xyz", [0.6, 1e-13, 0.4 - 1e-13], stack, registers=[("B", 2)])
    assert cq.symbols == ("x", "z") and len(cq) == 2
    assert np.array_equal(cq.stack, stack[[0, 2]])
    assert CQState("xyz", [0.2, 0.3, 0.5], stack, registers=[("B", 2)]).symbols == ("x", "y", "z")
    # a NaN passes the sign and sum tests (comparisons with it fail) and is
    # dropped, as it is not >= 1e-12
    cq = CQState("xyz", [0.6, np.nan, 0.4], stack, registers=[("B", 2)])
    assert cq.symbols == ("x", "z") and cq.probs.tolist() == [0.6, 0.4]
    assert np.array_equal(cq.stack, stack[[0, 2]])
    cq = CQState("xy", [np.nan, np.nan], stack[:2], registers=[("B", 2)])
    assert cq.symbols == () and cq.stack.shape == (0, 2, 2)


def test_ginibre_density_keeps_the_bits_and_generator_state_of_the_two_draws():
    for seed in range(400):
        pick = np.random.default_rng([seed, 3])
        d = int(pick.integers(1, 9))
        rank = int(pick.integers(1, d + 1)) if seed % 2 else None
        drawn, loop = np.random.default_rng(seed), np.random.default_rng(seed)
        got = ginibre_density(drawn, d, rank)
        r = d if rank is None else rank
        g = loop.normal(size=(d, r)) + 1j * loop.normal(size=(d, r))  # the draw it replaced
        m = g @ linalg.dagger(g)
        assert got.tobytes() == (m / m.trace().real).tobytes(), seed
        assert drawn.normal() == loop.normal(), seed
        # a stack of draws: each member with its own bits
        zs = np.array([ginibre_normals(pick, d, rank) for _ in range(int(pick.integers(1, 5)))])
        want = np.array([ginibre_gram(z) for z in zs])
        assert ginibre_gram(zs).tobytes() == want.tobytes(), seed


def test_ginibre_matrix_keeps_the_bits_and_generator_state_of_the_two_draws():
    for seed in range(200):
        pick = np.random.default_rng([seed, 4])
        d, n = int(pick.integers(1, 9)), int(pick.integers(1, 5))
        drawn, loop = np.random.default_rng(seed), np.random.default_rng(seed)
        want = (loop.normal(size=(d, d)) + 1j * loop.normal(size=(d, d))) / np.sqrt(2)
        assert ginibre_matrix(drawn, d).tobytes() == want.tobytes(), seed
        # n draws in one call are the draws in turn, and a stack's
        # transform has each member's bits
        zs = ginibre_normals(drawn, d, n=n)
        assert zs.tobytes() == np.array([ginibre_normals(loop, d) for _ in range(n)]).tobytes()
        want = np.array([standard_complex(z) for z in zs])
        assert standard_complex(zs).tobytes() == want.tobytes(), seed
        assert drawn.normal() == loop.normal(), seed


@pytest.mark.parametrize("kind", ["pure", "mixed", "low-rank"])
def test_random_cq_keeps_the_bits_and_generator_state_of_the_per_symbol_draw(kind):
    for seed in range(600):
        pick = np.random.default_rng([seed, 1])
        n, d = int(pick.integers(1, 9)), int(pick.integers(2, 7))
        rank = int(pick.integers(1, d + 1)) if kind == "low-rank" else None
        stacked, loop = np.random.default_rng(seed), np.random.default_rng(seed)
        got = random_cq(stacked, n, d, pure_conditionals=kind == "pure", rank=rank)
        want = per_symbol_random_cq(loop, n, d, pure_conditionals=kind == "pure", rank=rank)
        assert got.symbols == want.symbols and got.registers == want.registers
        assert got.probs.tobytes() == want.probs.tobytes(), seed
        assert got.stack.tobytes() == want.stack.tobytes(), seed
        assert stacked.normal() == loop.normal(), seed


@pytest.mark.parametrize("kind", ["pure", "mixed", "low-rank"])
def test_cq_ensembles_keep_the_bits_and_generator_state_of_random_cq(kind):
    for seed in range(200):
        pick = np.random.default_rng([seed, 5])
        n, d, m = int(pick.integers(1, 13)), int(pick.integers(2, 7)), int(pick.integers(1, 6))
        rank = int(pick.integers(1, d + 1)) if kind == "low-rank" else None
        stacked, loop = np.random.default_rng(seed), np.random.default_rng(seed)
        draws = [ranked_cq_draws(stacked, n, d, pure_conditionals=kind == "pure", rank=rank)
                 for _ in range(m)]
        probs, stack, keep = cq_ensembles(*map(np.array, zip(*draws)), kind == "pure")
        assert probs.shape == (m, n) and stack.shape == (m, n, d, d) and keep.all()
        for i in range(m):
            want = random_cq(loop, n, d, pure_conditionals=kind == "pure", rank=rank)
            assert probs[i].tobytes() == want.probs.tobytes(), seed
            assert stack[i].tobytes() == want.stack.tobytes(), seed
        # the m draws and no others: the generator ends where m random_cq calls leave it
        assert stacked.bit_generator.state == loop.bit_generator.state, seed


def test_flat_dirichlet_keeps_the_values_and_generator_state_of_dirichlet():
    for n in range(1, 10):
        for seed in range(500):
            flat, loop = np.random.default_rng(seed), np.random.default_rng(seed)
            assert flat_dirichlet(flat, n).tobytes() == loop.dirichlet(np.ones(n)).tobytes()
            assert flat.bit_generator.state == loop.bit_generator.state, (n, seed)


def test_scalar_draws_keep_the_values_and_generator_state_of_the_forms_they_replace():
    # verify's draw loops make two integers(lo, hi) calls where the bodies they
    # replace drew integers(lo, hi, size=2), and random() for uniform(0.0, 1.0);
    # integers(3) takes one uint32 of a 64-bit output and caches the other half
    for seed in range(500):
        scalar, vector = np.random.default_rng(seed), np.random.default_rng(seed)
        for lo, hi in ((2, 5), (2, 9), (2, 5), (0, 1 << 40)):
            for rng in (scalar, vector):
                rng.integers(3)
            got = [scalar.integers(lo, hi), scalar.integers(lo, hi)]
            assert got == vector.integers(lo, hi, size=2).tolist(), (seed, lo, hi)
            assert scalar.bit_generator.state == vector.bit_generator.state, (seed, lo, hi)
            for rng in (scalar, vector):
                rng.normal(size=3)
            x, y = scalar.random(), vector.uniform(0.0, 1.0)
            assert np.float64(x).tobytes() == np.float64(y).tobytes(), (seed, lo, hi)
            assert scalar.bit_generator.state == vector.bit_generator.state, (seed, lo, hi)


def test_dropping_rng_plants_through_the_flat_dirichlet_draw():
    for seed in range(20):
        rng, twin = DroppingRng(seed, every=2), DroppingRng(seed, every=2)
        draws = [flat_dirichlet(rng, 4) for _ in range(4)]
        # the references' dirichlet call is the same draw, planted alike
        assert all(p.tobytes() == twin.dirichlet(np.ones(4)).tobytes() for p in draws)
        assert rng.planted == twin.planted == 2
        assert rng.bit_generator.state == twin.bit_generator.state
        assert [kept_symbols(p)[0] for p in draws] == [True, False, True, False]
        assert [kept_symbols(p)[1:].all() for p in draws] == [True] * 4


@pytest.mark.parametrize("kind", ["pure", "mixed"])
def test_cq_ensembles_give_a_dropped_symbol_probability_zero(kind):
    pure = kind == "pure"
    for seed in range(20):
        n, d = 2 + seed % 4, 2 + seed % 3
        rng = DroppingRng(seed)
        draw = cq_draws(rng, n, d, pure)
        assert rng.planted == 1  # the draw really dropped a symbol
        probs, stack, keep = cq_ensembles(*(x[None] for x in draw), pure)
        assert probs[0, 0] == 0.0 and keep[0].tolist() == [False] + [True] * (n - 1)
        # random_cq of the same draw drops that symbol and keeps the others' bits
        cq = random_cq(DroppingRng(seed), n, d, pure_conditionals=pure)
        assert cq.symbols == tuple(range(1, n))
        assert cq.probs.tobytes() == probs[0, 1:].tobytes()
        assert cq.stack.tobytes() == stack[0, 1:].tobytes()


def test_kept_symbols_is_the_cq_state_rule_row_by_row():
    rows = np.array([[0.6, 1e-13, 0.4 - 1e-13], [0.2, 0.3, 0.5], [0.6, np.nan, 0.4]])
    assert kept_symbols(rows).tolist() == [[True, False, True], [True] * 3, [True, False, True]]
    for i, row in enumerate(rows):
        assert kept_symbols(row).tolist() == kept_symbols(rows)[i].tolist()
    for bad, message in (([0.5, 0.5, -0.1], "^negative probabilities$"),
                         ([0.5, 0.4, 0.0], "^probabilities sum to 0.9, not 1$")):
        for probs in (np.array(bad), np.array([rows[1], bad])):
            with pytest.raises(ValueError, match=message):
                kept_symbols(probs)
        with pytest.raises(ValueError, match=message):
            CQState("xyz", bad, np.zeros((3, 2, 2)), registers=[("B", 2)])


def per_outcome_random_povm(rng, dim, outcomes):
    """``sampling.random_povm`` as it drew before its draws were stacked."""
    parts = []
    for _ in range(outcomes):
        g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        parts.append(g @ linalg.dagger(g))
    t_inv_sqrt = linalg.psd_power(sum(parts), -0.5)
    elems = [t_inv_sqrt @ p @ t_inv_sqrt for p in parts]
    defect = np.eye(dim) - sum(elems)
    elems[0] = elems[0] + (defect + linalg.dagger(defect)) / 2
    return elems


def test_random_povm_keeps_the_bits_and_generator_state_of_the_per_outcome_draw():
    for seed in range(500):
        pick = np.random.default_rng([seed, 2])
        d, k = int(pick.integers(2, 9)), int(pick.integers(2, 6))
        stacked, loop = np.random.default_rng(seed), np.random.default_rng(seed)
        got = random_povm(stacked, d, k).elements
        want = per_outcome_random_povm(loop, d, k)
        assert [e.tobytes() for e in got] == [e.tobytes() for e in want], seed
        assert stacked.normal() == loop.normal(), seed
