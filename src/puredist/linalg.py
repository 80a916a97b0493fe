"""Dense complex matrix kernel for small Hilbert spaces (dim <= ~64).

Hermitian eigendecomposition, partial trace, purification and the
state-distance functionals everything else is built on. All logarithms
in this package are base 2; entropic outputs are in qubits/bits.

Two eigen entry points share one checked ``np.linalg.eigh``:
``eig_hermitian`` when the eigenvectors are used (columns phase-canonicalized,
so repeated runs are byte-identical), ``eigvals_hermitian`` when only the
eigenvalues are (the same bits; ``np.linalg.eigvalsh`` differs in the last
bits). One conjugate transpose serves both the Hermitian check and the
symmetrization, and every decomposition goes through the one funnel ``_eigh``.

Both eigen functions and ``trace_norm`` also take an (n, d, d) stack, in
one LAPACK batch, and give each member the bits of its own 2-D call.
"""

import math

import numpy as np

# Hermiticity / orthonormality checks
HERM_TOL = 1e-9
# Eigenvalues in (PSD_CLIP, 0) are treated as numerical noise and clipped
# to zero; anything more negative is an error.
PSD_CLIP = -1e-10


class InvariantError(RuntimeError):
    """A result failed a runtime invariant that its construction guarantees.

    Raised instead of ``assert`` so the checks still run under ``python -O``.
    """


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix in a stack (a view for real input)."""
    return m.swapaxes(-1, -2).conj()


def is_hermitian(m: np.ndarray, tol: float = HERM_TOL) -> bool:
    return m.shape[0] == m.shape[1] and np.abs(m - dagger(m)).max() <= tol


def _canonical_phases(vecs: np.ndarray) -> np.ndarray:
    # Fix the global phase of each column: largest-magnitude entry made
    # real positive. Keeps repeated runs byte-identical.
    top = vecs[np.argmax(np.abs(vecs), axis=0), np.arange(vecs.shape[1])]
    mag = np.abs(top)
    return vecs * np.divide(np.conj(top), mag, out=np.ones_like(top), where=mag > 0)


def _checked_eigh(m: np.ndarray, tol: float):
    """``np.linalg.eigh`` of the symmetrized ``m`` after the shape and
    Hermitian checks both public eigen functions share."""
    m = np.asarray(m, dtype=complex)
    if m.ndim not in (2, 3) or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"expected a square matrix or a stack of them, got shape {m.shape}")
    mh = dagger(m)
    if m.size and not np.abs(m - mh).max() <= tol:  # is_hermitian, stacks too
        raise ValueError("matrix is not Hermitian within tolerance")
    return _eigh((m + mh) / 2.0)


def _eigh(h: np.ndarray):
    """``np.linalg.eigh`` of the symmetrized complex matrix or stack ``h``, unchecked."""
    return np.linalg.eigh(h)


def eig_hermitian(m: np.ndarray, tol: float = HERM_TOL):
    """Eigendecomposition of a Hermitian matrix.

    Parameters
    ----------
    m : np.ndarray
        Square Hermitian matrix (checked within ``tol``).

    Returns
    -------
    eigenvalues : np.ndarray
        Real eigenvalues in ascending order.
    eigenvectors : np.ndarray
        Orthonormal eigenvector columns, paired index-wise with the
        eigenvalues, each column phase-canonicalized for reproducibility.

    Raises
    ------
    ValueError
        If ``m`` is not square or not Hermitian within ``tol``.
    """
    w, v = _checked_eigh(m, tol)
    if v.ndim == 3:
        return w, np.array([_canonical_phases(x) for x in v]).reshape(v.shape)
    return w, _canonical_phases(v)


def eigvals_hermitian(m: np.ndarray, tol: float = HERM_TOL) -> np.ndarray:
    """Ascending eigenvalues of a Hermitian matrix, bit-identical to
    ``eig_hermitian(m, tol)[0]``; same checks, same ``ValueError``."""
    return _checked_eigh(m, tol)[0]


def clip_psd_spectrum(w: np.ndarray) -> np.ndarray:
    """Clip tiny negative eigenvalues to zero; reject genuinely negative ones."""
    if w.min() < PSD_CLIP:
        raise ValueError(f"matrix is not PSD: min eigenvalue {w.min():.3e}")
    return np.maximum(w, 0.0)


def psd_power(m: np.ndarray, power: float, support_tol: float = 1e-12) -> np.ndarray:
    """Matrix power of a PSD matrix on its support (pseudo-power).

    Negative powers invert only the eigenvalues above ``support_tol``;
    the kernel is mapped to zero. Used for sqrt, inverse sqrt and
    pseudo-inverse of density operators and POVM elements.
    """
    w, v = eig_hermitian(m)
    w = clip_psd_spectrum(w)
    out_w = np.zeros_like(w)
    mask = w > support_tol
    out_w[mask] = w[mask] ** power
    if power >= 0:
        # non-negative powers act on the sub-threshold part too (continuity)
        out_w[~mask] = np.maximum(w[~mask], 0.0) ** power if power > 0 else 0.0
    return (v * out_w) @ dagger(v)


def partial_trace(mat: np.ndarray, dims, keep) -> np.ndarray:
    """Partial trace of a matrix over a tensor factorization.

    Parameters
    ----------
    mat : np.ndarray
        Square matrix on the full space ``prod(dims)``.
    dims : sequence of int
        Dimensions of the tensor factors, in order.
    keep : int or sequence of int
        Indices of factors to keep (0-indexed); all others are traced out.

    Returns
    -------
    np.ndarray
        Matrix on the kept factors, in their original relative order.
    """
    dims = list(dims)
    if isinstance(keep, (int, np.integer)):
        keep = [int(keep)]
    keep = sorted(int(k) for k in keep)
    n = len(dims)
    total = math.prod(dims)
    mat = np.asarray(mat, dtype=complex)
    if mat.shape != (total, total):
        raise ValueError(f"matrix shape {mat.shape} does not match dims {dims}")
    for k in keep:
        if k < 0 or k >= n:
            raise ValueError(f"keep index {k} out of range for {n} factors")
    t = mat.reshape(dims + dims)
    traced = [i for i in range(n) if i not in keep]
    # trace highest index first so axis numbering stays valid
    for idx in sorted(traced, reverse=True):
        t = np.trace(t, axis1=idx, axis2=idx + (t.ndim // 2))
    d_keep = math.prod(dims[i] for i in keep)
    return t.reshape(d_keep, d_keep)


def purify(rho: np.ndarray, support_tol: float = 1e-12) -> np.ndarray:
    """Purification of a density matrix.

    Returns a vector on ``A x R`` (A-major ordering) with ``|R| = rank(rho)``
    and Schmidt coefficients equal to the square roots of the nonzero
    eigenvalues of ``rho``.
    """
    w, v = eig_hermitian(rho)
    w = clip_psd_spectrum(w)
    idx = np.argsort(w)[::-1]
    w, v = w[idx], v[:, idx]
    rank = max(1, int((w > support_tol).sum()))
    return (v[:, :rank] * np.sqrt(w[:rank])).reshape(-1)


def trace_norm(m: np.ndarray):
    """Sum of singular values, per matrix of a stack too; for a Hermitian
    matrix, the sum of |eigenvalues| (the same bits as ``eigvals_hermitian``)."""
    m = np.asarray(m, dtype=complex)
    if m.ndim == 2:
        if is_hermitian(m, 1e-8):
            return float(np.abs(_eigh((m + dagger(m)) / 2.0)[0]).sum())
        return float(np.linalg.svd(m, compute_uv=False).sum())
    mh = dagger(m)
    herm = np.abs(m - mh).max(axis=(-2, -1)) <= 1e-8
    out = np.empty(len(m))
    out[herm] = np.abs(_eigh((m[herm] + mh[herm]) / 2.0)[0]).sum(axis=-1)
    out[~herm] = np.linalg.svd(m[~herm], compute_uv=False).sum(axis=-1)
    return out


def trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    """One-norm distance ``||a - b||_1`` (unnormalized, in [0, 2] for states)."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return trace_norm(a - b)


def fidelity(a: np.ndarray, b: np.ndarray) -> float:
    """Fidelity ``F(a, b) = || sqrt(a) sqrt(b) ||_1`` for PSD a, b with trace <= 1."""
    sa = psd_power(a, 0.5)
    sb = psd_power(b, 0.5)
    return float(np.linalg.svd(sa @ sb, compute_uv=False).sum())
