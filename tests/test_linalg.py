import numpy as np
import pytest

from puredist import linalg
from puredist.sampling import ginibre_density, haar_vector
from puredist.states import DensityOperator, Povm


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
    for m in (np.ones((2, 3)), np.ones(3), np.array([[0.0, 1.0], [0.0, 0.0]]), near):
        with pytest.raises(ValueError) as full:
            linalg.eig_hermitian(m)
        with pytest.raises(ValueError) as vals:
            linalg.eigvals_hermitian(m)
        assert str(vals.value) == str(full.value)
    assert np.array_equal(linalg.eigvals_hermitian(near, tol=1e-7),
                          linalg.eig_hermitian(near, tol=1e-7)[0])


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # inf - inf
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.inf)])
def test_eigen_functions_reject_non_finite_input(bad):
    for cells in ([(0, 0)], [(0, 2)], [(0, 2), (2, 0)]):
        m = np.eye(3, dtype=complex)
        for cell in cells:
            m[cell] = bad
        for x in (m, np.stack([np.eye(3), m])):
            with pytest.raises(ValueError) as full:
                linalg.eig_hermitian(x)
            with pytest.raises(ValueError) as vals:
                linalg.eigvals_hermitian(x)
            assert str(full.value) == str(vals.value) == "matrix is not Hermitian within tolerance"


def test_stacked_kernels_match_per_matrix_calls(rng):
    for _ in range(60):
        d, n = int(rng.integers(2, 17)), int(rng.integers(1, 9))
        herm = np.array([random_hermitian(rng, d) for _ in range(n)])
        w, v = linalg.eig_hermitian(herm)
        for i, m in enumerate(herm):
            assert np.array_equal(w[i], linalg.eigvals_hermitian(m))
            assert np.array_equal(v[i], linalg.eig_hermitian(m)[1])
        assert np.array_equal(linalg.eigvals_hermitian(herm), w)
        # trace_norm tests each member: a non-Hermitian one takes the svd
        mixed = herm.copy()
        mixed[int(rng.integers(n))] = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        assert np.array_equal(linalg.trace_norm(mixed), [linalg.trace_norm(m) for m in mixed])
        with pytest.raises(ValueError, match="not Hermitian"):
            linalg.eigvals_hermitian(mixed)
    empty = np.zeros((0, 3, 3))
    assert linalg.trace_norm(empty).shape == (0,)
    assert linalg.eigvals_hermitian(empty).shape == (0, 3)


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
    # trace_norm takes the eigenvalue route only for Hermitian input
    assert np.isclose(linalg.trace_norm(negative), 2.0)
    assert np.isclose(linalg.trace_norm(np.array([[0.0, 2.0], [0.0, 0.0]])), 2.0)


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


def test_purify_pure_and_mixed(rng):
    v = haar_vector(rng, 3)
    pure = np.outer(v, np.conj(v))
    vec = linalg.purify(pure)
    assert vec.size == 3  # one-dimensional reference
    rho = ginibre_density(rng, 4)
    vec = linalg.purify(rho)
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
        assert np.array_equal(linalg.purify(rho), psi.reshape(d * rank))


def test_purify_schmidt_coefficients():
    vec = linalg.purify(np.diag([0.7, 0.3]))
    s = np.linalg.svd(vec.reshape(2, -1), compute_uv=False)
    assert np.allclose(np.sort(s)[::-1], [np.sqrt(0.7), np.sqrt(0.3)])
    vec = linalg.purify(np.eye(2) / 2)
    s = np.linalg.svd(vec.reshape(2, -1), compute_uv=False)
    assert np.allclose(s, [1 / np.sqrt(2)] * 2)


def test_purify_partial_trace_idempotent_on_spectra(rng):
    for _ in range(20):
        rho = ginibre_density(rng, 5, rank=int(rng.integers(1, 6)))
        vec = linalg.purify(rho)
        dr = vec.size // 5
        back = linalg.partial_trace(np.outer(vec, np.conj(vec)), [5, dr], 0)
        w1, _ = linalg.eig_hermitian(rho)
        w2, _ = linalg.eig_hermitian(back)
        assert np.allclose(w1, w2, atol=1e-9)


def test_trace_distance_cases():
    assert linalg.trace_distance(np.diag([0.5, 0.5]), np.diag([0.5, 0.5])) == 0
    assert np.isclose(linalg.trace_distance(np.diag([1.0, 0.0]), np.diag([0.0, 1.0])), 2.0)
    assert np.isclose(linalg.trace_distance(np.diag([0.6, 0.4]), np.diag([0.5, 0.5])), 0.2)
    with pytest.raises(ValueError):
        linalg.trace_distance(np.eye(2), np.eye(3))


def test_fidelity_cases(rng):
    rho = ginibre_density(rng, 3)
    assert np.isclose(linalg.fidelity(rho, rho), 1.0, atol=1e-9)
    assert np.isclose(linalg.fidelity(np.diag([1.0, 0]), np.diag([0, 1.0])), 0.0, atol=1e-9)
    # commuting Bhattacharyya oracle
    got = linalg.fidelity(np.diag([0.5, 0.5]), np.diag([0.9, 0.1]))
    assert np.isclose(got, np.sqrt(0.45) + np.sqrt(0.05), atol=1e-10)
    asym = abs(linalg.fidelity(rho, np.eye(3) / 3) - linalg.fidelity(np.eye(3) / 3, rho))
    assert asym <= 1e-9


def test_fuchs_van_de_graaf(rng):
    for _ in range(300):
        d = int(rng.integers(2, 6))
        a = ginibre_density(rng, d)
        b = ginibre_density(rng, d)
        f = linalg.fidelity(a, b)
        td = linalg.trace_distance(a, b)
        assert 2 * (1 - f) <= td + 1e-8
        assert td <= 2 * np.sqrt(max(0.0, 1 - f * f)) + 1e-8


def test_psd_power_support(rng):
    rho = ginibre_density(rng, 4, rank=2)
    inv = linalg.psd_power(rho, -1.0)
    w, v = np.linalg.eigh(rho)
    proj = v[:, w > 1e-12] @ linalg.dagger(v[:, w > 1e-12])
    assert np.allclose(inv @ rho, proj, atol=1e-8)
