import ast
import itertools
from pathlib import Path

import numpy as np
import pytest

from puredist import linalg
from puredist.sampling import ginibre_density
from puredist.states import CQState, DensityOperator, Povm

from oracles import haar_vector


def random_hermitian(rng, d):
    m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return (m + linalg.dagger(m)) / 2


def test_eig_identity():
    w, v = linalg.eig_hermitian(np.eye(4))
    assert np.allclose(w, 1.0)
    assert np.allclose(v @ linalg.dagger(v), np.eye(4))


def test_eig_diagonal_sorted_ascending():
    w, _ = linalg.eig_hermitian(np.diag([3.0, 1.0, 2.0]))
    assert np.allclose(w, [1.0, 2.0, 3.0])


def test_eig_2x2_matches_characteristic_polynomial(rng):
    # closed-form quadratic oracle: roots of l^2 - tr*l + det
    for _ in range(50):
        m = random_hermitian(rng, 2)
        tr = np.real(np.trace(m))
        det = np.real(np.linalg.det(m))
        disc = np.sqrt(max(tr * tr - 4 * det, 0.0))
        roots = np.array([(tr - disc) / 2, (tr + disc) / 2])
        w, _ = linalg.eig_hermitian(m)
        assert np.allclose(w, roots, atol=1e-10)


def test_eig_reconstruction_random_dims(rng):
    for _ in range(100):
        d = int(rng.integers(2, 17))
        m = random_hermitian(rng, d)
        w, v = linalg.eig_hermitian(m)
        assert np.max(np.abs(m - (v * w) @ linalg.dagger(v))) <= 1e-8
        assert np.max(np.abs(linalg.dagger(v) @ v - np.eye(d))) <= 1e-9
        assert np.all(np.diff(w) >= -1e-12)


@pytest.mark.parametrize("keep", [2, -1, [0, 2]])
def test_partial_trace_rejects_a_keep_index_out_of_range(keep):
    with pytest.raises(ValueError, match="keep index -?[0-9] out of range for 2 factors"):
        linalg.partial_trace(np.eye(4) / 4, [2, 2], keep)


def test_eig_rejects_bad_input():
    with pytest.raises(ValueError):
        linalg.eig_hermitian(np.ones((2, 3)))
    with pytest.raises(ValueError):
        linalg.eig_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_eig_deterministic_phases(rng):
    m = random_hermitian(rng, 5)
    w1, v1 = linalg.eig_hermitian(m)
    w2, v2 = linalg.eig_hermitian(m.copy())
    assert np.array_equal(v1, v2)


def _canonical_phases_loop(vecs):
    # column-by-column reference for the vectorized kernel
    out = vecs.copy()
    for j in range(out.shape[1]):
        col = out[:, j]
        i = int(np.argmax(np.abs(col)))
        a = col[i]
        if np.abs(a) > 0:
            out[:, j] = col * (np.conj(a) / np.abs(a))
    return out


def test_canonical_phases_match_loop(rng):
    for _ in range(200):
        d = int(rng.integers(1, 17))
        _, v = np.linalg.eigh(random_hermitian(rng, d))
        v[:, rng.random(d) < 0.1] = 0.0  # zero columns keep their (zero) entries
        got = linalg._canonical_phases(v)
        want = _canonical_phases_loop(v)
        # the entry the loop made real positive is real positive here too
        top = [int(np.argmax(np.abs(v[:, j]))) for j in range(d)]
        assert np.all(np.abs(got[top, np.arange(d)].imag) <= 1e-15)
        assert np.all(got[top, np.arange(d)].real >= 0)
        assert np.max(np.abs(got - want)) <= 1e-15


def test_eigvals_bit_identical_to_eig(rng):
    for d in range(2, 17):
        for _ in range(10):
            m = random_hermitian(rng, d)
            assert np.array_equal(linalg.eigvals_hermitian(m), linalg.eig_hermitian(m)[0])
            # within an explicit tol a slightly non-Hermitian input is
            # symmetrized the same way by both
            noisy = m + 1e-9 * rng.normal(size=(d, d))
            assert np.array_equal(linalg.eigvals_hermitian(noisy, tol=1e-7),
                                  linalg.eig_hermitian(noisy, tol=1e-7)[0])


def test_eigvals_rejects_what_eig_rejects():
    near = np.array([[1.0, 1e-8], [0.0, 1.0]])  # Hermitian within 1e-7, not 1e-9
    # each eigenvalue-only function, and the bits it gives a Hermitian part
    for eigvals, bits in ((linalg.eigvals_hermitian, lambda h: linalg.eig_hermitian(h)[0]),
                          (linalg.eigvalsh, np.linalg.eigvalsh)):
        for m in (np.ones((2, 3)), np.ones(3), np.array([[0.0, 1.0], [0.0, 0.0]]), near):
            with pytest.raises(ValueError) as full:
                linalg.eig_hermitian(m)
            with pytest.raises(ValueError) as vals:
                eigvals(m)
            assert type(vals.value) is type(full.value) and str(vals.value) == str(full.value)
        with pytest.raises(linalg.NotHermitianError):
            eigvals(np.stack([np.eye(2), near]))
        # within an explicit tol, the input is symmetrized
        want = bits(linalg.hermitian_part(near + 0j))
        assert eigvals(near, tol=1e-7).tobytes() == want.tobytes()


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # inf - inf
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.inf)])
def test_eigen_functions_reject_non_finite_input(bad):
    for cells in ([(0, 0)], [(0, 2)], [(0, 2), (2, 0)]):
        m = np.eye(3, dtype=complex)
        for cell in cells:
            m[cell] = bad
        for x in (m, np.stack([np.eye(3), m])):
            for f in (linalg.eig_hermitian, linalg.eigvals_hermitian, linalg.eigvalsh):
                with pytest.raises(linalg.NotHermitianError,
                                   match="^matrix is not Hermitian within tolerance$"):
                    f(x)


def test_stacked_kernels_match_per_matrix_calls(rng):
    for _ in range(60):
        d, n = int(rng.integers(2, 17)), int(rng.integers(1, 9))
        herm = np.array([random_hermitian(rng, d) for _ in range(n)])
        w, v = linalg.eig_hermitian(herm)
        for i, m in enumerate(herm):
            assert np.array_equal(w[i], linalg.eigvals_hermitian(m))
            assert np.array_equal(v[i], linalg.eig_hermitian(m)[1])
        assert np.array_equal(linalg.eigvals_hermitian(herm), w)
        assert np.array_equal(linalg.trace_norm(herm), [linalg.trace_norm(m) for m in herm])
        # one non-Hermitian member fails the whole stack
        mixed = herm.copy()
        mixed[int(rng.integers(n))] = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        for f in (linalg.trace_norm, linalg.eigvals_hermitian):
            with pytest.raises(ValueError, match="not Hermitian"):
                f(mixed)
    empty = np.zeros((0, 3, 3))
    assert linalg.trace_norm(empty).shape == (0,)
    assert linalg.eigvals_hermitian(empty).shape == linalg.eigvalsh(empty).shape == (0, 3)


def test_each_eigenvalue_function_keeps_the_bits_of_its_lapack_routine(rng):
    # per_size stacks of mixed sizes of Hermitian states: every member of
    # eigvalsh has the bits of np.linalg.eigvalsh, LAPACK's eigenvalue-only
    # routine, and every member of psd_eigvals and of a CQState's spectra the
    # clipped eigenvalues of eig_hermitian, eigh's
    stacks = [linalg.hermitian_part(np.array([ginibre_density(rng, d, int(rng.integers(1, d + 1)))
                                              for _ in range(int(rng.integers(1, 5)))]))
              for d in rng.integers(1, 17, size=12)]
    for f, bits in ((linalg.eigvalsh, np.linalg.eigvalsh),
                    (linalg.psd_eigvals,
                     lambda m: linalg.clip_psd_spectrum(linalg.eig_hermitian(m)[0]))):
        for stack, got in zip(stacks, linalg.per_size(f, stacks), strict=True):
            assert [w.tobytes() for w in got] == [bits(m).tobytes() for m in stack]
    for stack in stacks[:6]:
        cq = CQState(range(len(stack)), np.full(len(stack), 1 / len(stack)), stack,
                     registers=(("B", stack.shape[-1]),))
        assert [w.tobytes() for w in cq.spectra] == [
            linalg.clip_psd_spectrum(linalg.eig_hermitian(m)[0]).tobytes() for m in stack]


def test_trace_norm_calls_no_funnel_on_an_empty_side(rng, monkeypatch):
    # a Hermitian matrix or stack (within 1e-8) makes one _eigh call, with
    # the bits of numpy's eigh; input with a non-Hermitian member raises
    # before any funnel call, and no input reaches _svdvals
    calls = []
    for name in ("_eigh", "_svdvals"):
        orig = getattr(linalg, name)
        monkeypatch.setattr(linalg, name, lambda m, name=name, orig=orig:
                            calls.append((name, len(m))) or orig(m))
    d = 4
    herm = np.array([random_hermitian(rng, d) for _ in range(3)])
    near = herm + 5e-10 * (rng.normal(size=(3, d, d)) + 1j * rng.normal(size=(3, d, d)))
    other = rng.normal(size=(3, d, d)) + 1j * rng.normal(size=(3, d, d))
    for stack in (herm, near, herm[0], near[0]):
        calls.clear()
        got = linalg.trace_norm(stack)
        assert calls == [("_eigh", len(stack))]
        want = [np.abs(np.linalg.eigh(linalg.hermitian_part(m))[0]).sum()
                for m in np.reshape(stack, (-1, d, d))]
        assert np.reshape(got, -1).tobytes() == np.array(want, dtype=float).tobytes()
    for stack in (other, other[0], np.concatenate([herm, other])[[0, 3, 1]]):
        calls.clear()
        with pytest.raises(linalg.NotHermitianError):
            linalg.trace_norm(stack)
        assert calls == []


def test_eigenvalue_only_callers_keep_their_checks():
    asym = np.array([[0.5, 0.3], [0.1, 0.5]])
    negative = np.diag([1.5, -0.5])
    for bad in (asym, negative):
        with pytest.raises(ValueError):
            DensityOperator([("A", 2)], bad, validate=False).spectrum()
    with pytest.raises(ValueError):
        Povm([asym, np.eye(2) - asym])
    with pytest.raises(ValueError):
        Povm([negative, np.eye(2) - negative])
    # trace_norm takes Hermitian input only
    assert np.isclose(linalg.trace_norm(negative), 2.0)
    with pytest.raises(linalg.NotHermitianError):
        linalg.trace_norm(np.array([[0.0, 2.0], [0.0, 0.0]]))


def test_partial_trace_product_and_bell(rng):
    rho = ginibre_density(rng, 3)
    sig = ginibre_density(rng, 2)
    joint = np.kron(rho, sig)
    assert np.allclose(linalg.partial_trace(joint, [3, 2], 0), rho, atol=1e-12)
    bell = np.zeros(4, dtype=complex)
    bell[0] = bell[3] = 1 / np.sqrt(2)
    bm = np.outer(bell, np.conj(bell))
    for keep in (0, 1):
        assert np.allclose(linalg.partial_trace(bm, [2, 2], keep), np.eye(2) / 2)


def test_partial_trace_matches_double_sum_oracle(rng):
    # explicit index-summation oracle on a random two-qubit state
    rho = ginibre_density(rng, 4)
    t = rho.reshape(2, 2, 2, 2)
    oracle = np.zeros((2, 2), dtype=complex)
    for i in range(2):
        for j in range(2):
            for k in range(2):
                oracle[i, j] += t[i, k, j, k]  # keep first factor, sum second
    got = linalg.partial_trace(rho, [2, 2], 0)
    assert np.allclose(got, oracle, atol=1e-12)


def test_partial_trace_preserves_trace_and_psd(rng):
    # 1e4 random states, trace preserved and output PSD every time
    for _ in range(10_000):
        da, db = rng.integers(2, 4, size=2)
        rho = ginibre_density(rng, int(da * db))
        red = linalg.partial_trace(rho, [int(da), int(db)], int(rng.integers(0, 2)))
        assert abs(np.real(np.trace(red)) - 1.0) <= 1e-9
        assert np.min(np.linalg.eigvalsh(red)) >= -1e-9


def test_partial_trace_of_a_stack_keeps_the_bits_of_each_member(rng):
    for n_factors in (2, 3):
        for dims in itertools.product((2, 3, 4), repeat=n_factors):
            d = int(np.prod(dims))
            stack = np.array([ginibre_density(rng, d) for _ in range(3)])
            for r in range(n_factors + 1):
                for keep in itertools.combinations(range(n_factors), r):
                    got = linalg.partial_trace(stack, dims, keep)
                    want = np.array([linalg.partial_trace(m, dims, keep) for m in stack])
                    assert got.tobytes() == want.tobytes() and got.shape == want.shape
    with pytest.raises(ValueError, match="does not match dims"):
        linalg.partial_trace(np.zeros((2, 6, 6)), [2, 2], 0)


def test_purify_pure_and_mixed(rng):
    v = haar_vector(rng, 3)
    pure = np.outer(v, np.conj(v))
    vec = linalg.purify(*linalg.psd_eig(pure))
    assert vec.size == 3  # one-dimensional reference
    rho = ginibre_density(rng, 4)
    vec = linalg.purify(*linalg.psd_eig(rho))
    dr = vec.size // 4
    back = linalg.partial_trace(np.outer(vec, np.conj(vec)), [4, dr], 0)
    assert np.max(np.abs(back - rho)) <= 1e-8


def test_purify_keeps_the_bits_of_the_column_loop(rng):
    for _ in range(40):
        d = int(rng.integers(1, 9))
        rho = ginibre_density(rng, d, rank=int(rng.integers(1, d + 1)))
        w, v = linalg.eig_hermitian(rho)
        w = linalg.clip_psd_spectrum(w)
        idx = np.argsort(w)[::-1]
        w, v = w[idx], v[:, idx]
        rank = max(1, int(np.sum(w > 1e-12)))
        psi = np.zeros((d, rank), dtype=complex)
        for r in range(rank):
            psi[:, r] = np.sqrt(w[r]) * v[:, r]
        assert np.array_equal(linalg.purify(*linalg.psd_eig(rho)), psi.reshape(d * rank))


def test_purify_schmidt_coefficients():
    vec = linalg.purify(*linalg.psd_eig(np.diag([0.7, 0.3])))
    s = np.linalg.svd(vec.reshape(2, -1), compute_uv=False)
    assert np.allclose(np.sort(s)[::-1], [np.sqrt(0.7), np.sqrt(0.3)])
    vec = linalg.purify(*linalg.psd_eig(np.eye(2) / 2))
    s = np.linalg.svd(vec.reshape(2, -1), compute_uv=False)
    assert np.allclose(s, [1 / np.sqrt(2)] * 2)


def test_purify_partial_trace_idempotent_on_spectra(rng):
    for _ in range(20):
        rho = ginibre_density(rng, 5, rank=int(rng.integers(1, 6)))
        vec = linalg.purify(*linalg.psd_eig(rho))
        dr = vec.size // 5
        back = linalg.partial_trace(np.outer(vec, np.conj(vec)), [5, dr], 0)
        w1, _ = linalg.eig_hermitian(rho)
        w2, _ = linalg.eig_hermitian(back)
        assert np.allclose(w1, w2, atol=1e-9)


def test_trace_distance_cases():
    assert linalg.trace_norm(np.diag([0.5, 0.5]) - np.diag([0.5, 0.5])) == 0
    assert np.isclose(linalg.trace_norm(np.diag([1.0, 0.0]) - np.diag([0.0, 1.0])), 2.0)
    assert np.isclose(linalg.trace_norm(np.diag([0.6, 0.4]) - np.diag([0.5, 0.5])), 0.2)
    with pytest.raises(ValueError):
        linalg.trace_norm(np.eye(2) - np.eye(3))


def test_fidelity_cases(rng):
    rho = ginibre_density(rng, 3)
    assert np.isclose(linalg.fidelity(linalg.psd_eig(rho), rho), 1.0, atol=1e-9)
    assert np.isclose(linalg.fidelity(linalg.psd_eig(np.diag([1.0, 0])), np.diag([0, 1.0])), 0.0,
                      atol=1e-9)
    # commuting Bhattacharyya oracle
    got = linalg.fidelity(linalg.psd_eig(np.diag([0.5, 0.5])), np.diag([0.9, 0.1]))
    assert np.isclose(got, np.sqrt(0.45) + np.sqrt(0.05), atol=1e-10)
    asym = abs(linalg.fidelity(linalg.psd_eig(rho), np.eye(3) / 3)
               - linalg.fidelity(linalg.psd_eig(np.eye(3) / 3), rho))
    assert asym <= 1e-9


def test_fidelity_with_a_pure_state_takes_no_roots_of_rounding_noise(rng):
    # F(|v><v|, b) = sqrt(<v|b|v>); the d - 1 zero eigenvalues of |v><v| come out
    # of LAPACK as noise near 1e-17, whose roots would add up to 1e-8
    for _ in range(300):
        d = int(rng.integers(2, 9))
        v, b = haar_vector(rng, d), ginibre_density(rng, d)
        want = np.sqrt((np.conj(v) @ b @ v).real)
        assert abs(linalg.fidelity(linalg.psd_eig(np.outer(v, np.conj(v))), b) - want) <= 1e-12


def test_groups_keep_their_keys_in_order_of_first_appearance():
    got = linalg.groups(["b", (2, 1), "a", "b", (2, 1), "c", "a"])
    assert list(got.items()) == [("b", [0, 3]), ((2, 1), [1, 4]), ("a", [2, 6]), ("c", [5])]
    assert linalg.groups(k for k in ()) == {}


def test_fuchs_van_de_graaf(rng):
    for _ in range(300):
        d = int(rng.integers(2, 6))
        a = ginibre_density(rng, d)
        b = ginibre_density(rng, d)
        f = linalg.fidelity(linalg.psd_eig(a), b)
        td = linalg.trace_norm(a - b)
        assert 2 * (1 - f) <= td + 1e-8
        assert td <= 2 * np.sqrt(max(0.0, 1 - f * f)) + 1e-8


def test_psd_power_of_a_stack_keeps_the_bits_of_each_member(rng):
    for _ in range(40):
        d, n = int(rng.integers(1, 13)), int(rng.integers(1, 7))
        # ranks from 0 (the zero matrix) to d: singular members included
        stack = np.array([ginibre_density(rng, d, rank=int(rng.integers(1, d + 1)))
                          * (rng.random() > 0.2) for _ in range(n)])
        for power in (0.5, -0.5, 1.0):
            got = linalg.psd_power(stack, power)
            assert got.shape == stack.shape
            for m, g in zip(stack, got):
                assert np.array_equal(g, linalg.psd_power(m, power))


def _canonical_phases_per_column(vecs):
    """The 2-D column loop ``linalg._canonical_phases`` replaced."""
    top = vecs[np.argmax(np.abs(vecs), axis=0), np.arange(vecs.shape[1])]
    mag = np.abs(top)
    return vecs * np.divide(np.conj(top), mag, out=np.ones_like(top), where=mag > 0)


def test_canonical_phases_keep_the_bits_of_the_column_loop(rng):
    # random eigenvectors, ties in magnitude (the identity, a Hadamard
    # basis) and a zero column
    cases = [np.linalg.eigh(random_hermitian(rng, d))[1] for d in (1, 2, 5, 16)]
    cases += [np.eye(4, dtype=complex), np.array([[1, 1], [1, -1]]) / np.sqrt(2) + 0j,
              np.array([[0, 1j], [0, 0]])]
    for v in cases:
        assert np.array_equal(linalg._canonical_phases(v), _canonical_phases_per_column(v))
        stacked = linalg._canonical_phases(np.array([v, 1j * v]))
        assert np.array_equal(stacked[1], _canonical_phases_per_column(1j * v))


def test_sum_in_order_keeps_the_bits_of_the_sequential_cumsum(rng):
    # 2000 random stacks: (n, d, d) complex ones as the protocols mix them
    # and (n, m) real ones summed along the last axis; np.sum reorders the
    # additions of both and so moves bits that the in-order loop keeps
    moved = 0
    for t in range(2000):
        n = int(rng.integers(1, 40))
        if t % 2:
            d = int(rng.integers(1, 33))
            stack = rng.normal(size=(n, d, d)) + 1j * rng.normal(size=(n, d, d))
            want, arrays = np.cumsum(stack, axis=0)[-1], stack
        else:
            stack = rng.normal(size=(int(rng.integers(1, 9)), n)) * 10.0 ** rng.integers(-3, 4)
            want, arrays = np.cumsum(stack, axis=1)[:, -1], stack.T
        got = linalg.sum_in_order(arrays)
        assert got.tobytes() == want.tobytes()
        assert got is not arrays[0] and not np.shares_memory(got, arrays)
        moved += np.sum(arrays, axis=0).tobytes() != want.tobytes()
    assert moved > 100
    parts = [rng.normal(size=(3, 3)) for _ in range(5)]  # any iterable, read once
    assert linalg.sum_in_order(iter(parts)).tobytes() == np.cumsum(parts, axis=0)[-1].tobytes()


def test_kron_keeps_the_bits_of_numpy_kron(rng):
    # matrices and stacks of random shapes, complex with complex or real,
    # as contiguous arrays and as strided views (transposed, reversed, sliced)
    strided = 0
    for t in range(1500):
        n = int(rng.integers(1, 6))
        sa, sb = (tuple(int(d) for d in rng.integers(1, 7, size=2)) for _ in range(2))
        a = rng.normal(size=(n,) + sa) + 1j * rng.normal(size=(n,) + sa)
        b = rng.normal(size=(n,) + sb) * 10.0 ** int(rng.integers(-3, 3))
        if t % 3:
            b = b + 1j * rng.normal(size=(n,) + sb)
        if t % 2:
            a = a.swapaxes(1, 2)
        if t % 5 == 0:
            b = b[:, ::-1]
        if t % 7 == 0:
            a = a[:, ::2]
        strided += not (a.flags.c_contiguous and b.flags.c_contiguous)
        want = np.array([np.kron(x, y) for x, y in zip(a, b)])
        assert linalg.kron(a, b).tobytes() == want.tobytes(), (sa, sb)
        assert linalg.kron(a[0], b[0]).tobytes() == np.kron(a[0], b[0]).tobytes()
        # one matrix against each member of a stack
        assert linalg.kron(a, b[0]).tobytes() == np.array([np.kron(x, b[0]) for x in a]).tobytes()
    assert strided > 600


def test_row_norms_keep_the_bits_of_a_norm_per_member(rng):
    # stacks of 0-8 members of 1-3 axes, scaled over nine decades, as
    # contiguous arrays and strided views, which the norm reads in memory order
    strided = 0
    for t in range(2000):
        n = int(rng.integers(0, 9))
        shape = [n] + [int(d) for d in rng.integers(1, 7, size=int(rng.integers(1, 4)))]
        scale = 10.0 ** int(rng.integers(-6, 3))
        t_ = scale * (rng.normal(size=shape) + 1j * rng.normal(size=shape))
        if len(shape) > 2 and t % 2:
            t_ = np.moveaxis(t_, 1, -1)
        if t % 3 == 0:
            t_ = t_[:, ::-1]
        if t % 5 == 0:
            t_ = t_.real
        strided += not t_.flags.c_contiguous
        want = np.array([np.linalg.norm(m) for m in t_])
        assert linalg.row_norms(t_).tobytes() == want.tobytes(), shape
    assert strided > 1000


def test_psd_power_support(rng):
    rho = ginibre_density(rng, 4, rank=2)
    inv = linalg.psd_power(rho, -1.0)
    w, v = np.linalg.eigh(rho)
    proj = v[:, w > 1e-12] @ linalg.dagger(v[:, w > 1e-12])
    assert np.allclose(inv @ rho, proj, atol=1e-8)


def test_only_linalg_calls_the_numpy_hermitian_eigensolvers():
    # every eigendecomposition, solve and SVD of the package runs in linalg's
    # funnel, the one module that imports numpy's LAPACK gufuncs
    lapack = ("eigh", "eigvalsh", "solve", "svd")
    found = {}
    for path in sorted(Path(linalg.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Attribute) and node.attr in lapack:
                named = isinstance(node.value, ast.Attribute) and node.value.attr == "linalg"
            elif isinstance(node, ast.Attribute) and node.attr == "_umath_linalg":
                named = True
            elif isinstance(node, ast.ImportFrom) and node.module in ("numpy.linalg", "numpy"):
                named = any(a.name in lapack + ("_umath_linalg",) for a in node.names)
            elif isinstance(node, ast.Import):
                named = any("_umath_linalg" in a.name for a in node.names)
            else:
                continue
            if named:
                found.setdefault(path.name, []).append(node.lineno)
    assert set(found) == {"linalg.py"}, found


def funnel_cases(rng):
    """Square complex matrices of every size 1..64 and (n, d, d) stacks with
    n = 0 among them, each as a Ginibre matrix and its Hermitian part."""
    shapes = [(d, d) for d in range(1, 65)]
    shapes += [(n, d, d) for n in (0, 1, 3, 17) for d in (1, 2, 4, 7, 16, 33)]
    for shape in shapes:
        m = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        yield m, linalg.hermitian_part(m)


def test_the_lapack_funnel_keeps_the_bits_of_the_numpy_wrappers(rng):
    for m, h in funnel_cases(rng):
        for got, want in zip(linalg._eigh(h), np.linalg.eigh(h)):
            assert got.tobytes() == want.tobytes(), h.shape
        assert linalg._eigvalsh(h).tobytes() == np.linalg.eigvalsh(h).tobytes()
        for a in (m, h, m[..., :-1, :], m[..., :, 1:]):  # rectangular too, as in Uhlmann's overlap
            want = np.linalg.svd(a, compute_uv=False)
            assert linalg._svdvals(a).tobytes() == want.tobytes(), a.shape
            for got, want in zip(linalg._svd(a), np.linalg.svd(a, full_matrices=False)):
                assert got.tobytes() == want.tobytes(), a.shape
        if m.ndim == 2:
            b = rng.normal(size=len(m))
            want = np.linalg.solve(m.real, b)
            assert linalg._solve(m.real, b).tobytes() == want.tobytes()


def test_the_lapack_funnel_raises_the_numpy_wrappers_errors():
    # the tier-1 run turns RuntimeWarnings into errors: the funnel's error
    # state must turn LAPACK's flag into the wrapper's LinAlgError first
    nan = np.full((3, 3), np.nan, dtype=complex)
    for funnel, public, arg in (
            (linalg._eigh, np.linalg.eigh, nan),
            (linalg._eigvalsh, np.linalg.eigvalsh, nan),
            (linalg._svdvals, lambda a: np.linalg.svd(a, compute_uv=False), nan),
            (linalg._svd, lambda a: np.linalg.svd(a, full_matrices=False), nan),
            (linalg._solve, lambda a: np.linalg.solve(a, np.ones(3)), np.ones((3, 3)))):
        with pytest.raises(np.linalg.LinAlgError) as want:
            public(arg)
        args = (arg, np.ones(3)) if funnel is linalg._solve else (arg,)
        with pytest.raises(np.linalg.LinAlgError, match=f"^{want.value}$"):
            funnel(*args)
