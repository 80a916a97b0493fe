"""Dense complex matrix kernel for small Hilbert spaces (dim <= ~64).

Hermitian eigendecomposition, partial trace, purification and the
state-distance functionals everything else is built on. All logarithms
in this package are base 2; entropic outputs are in qubits/bits.

Every eigendecomposition, solve and SVD of the package runs here, through
one funnel that calls numpy's LAPACK gufuncs directly (private numpy 2
names, hence ``numpy>=2.0,<3``) under their public wrappers' error state:
each gives its wrapper's bits (on complex input, real for ``_solve``) and
``LinAlgError`` without the wrapper's per-call checks. It holds ``_eigh``,
``_eigvalsh`` (whose bits differ from ``_eigh``'s eigenvalues'), ``_solve``,
``_svd`` and ``_svdvals``. The checked eigen functions share one Hermitian
check and symmetrization, in which one conjugate transpose serves both:
``eig_hermitian`` (``_eigh``) when the eigenvectors are used (columns
phase-canonicalized, so repeated runs are byte-identical),
``eigvals_hermitian`` (``_eigh``, the same bits) when only the eigenvalues
are, and ``eigvalsh`` (``_eigvalsh``, LAPACK's eigenvalue-only routine and
``np.linalg.eigvalsh``'s bits) when only the eigenvalues are and no output
depends on their last bits: ``i_max_cq``'s certificate and the property
checks' spectra. Every other eigenvalue-only caller keeps ``_eigh``'s bits
(``psd_eigvals`` included), since a spectrum that feeds a protocol can move a
printed error through its last bits. The solvers of ``entropy`` pass the
funnel ``hermitian_part``s unchecked.

``psd_eig`` gives the clipped ascending eigensystem of a PSD operator,
the one convention of the package: ``eig_power`` takes powers of a kept
one (``psd_power`` is the two in one call), and ``purify`` and
``fidelity`` read one too, so the owner of an operator (a state, a POVM)
decomposes it once for all its roots, its spectrum and its purification.

The eigen functions, ``psd_power``, ``trace_norm`` and ``partial_trace``
also take an (n, d, d) stack, all but the last in one LAPACK batch, and
give each member the bits of its own 2-D call (``trace_norm`` takes the
checked symmetrization of the eigen functions, at 1e-8); ``per_size``
applies one of them to stacks of several sizes with one call per size.
``groups`` is the one rule by which a stacked call groups its members: by
key, in order of first appearance. ``kron`` and ``row_norms`` are
``np.kron`` and ``np.linalg.norm`` of each member of a stack, with their
bits.
"""

import functools
import math

import numpy as np
from numpy.linalg import LinAlgError, _umath_linalg

# Hermiticity / orthonormality checks
HERM_TOL = 1e-9
# Eigenvalues at or below SUPPORT_TOL lie outside a PSD matrix's support
SUPPORT_TOL = 1e-12
# Eigenvalues in (PSD_CLIP, 0) are treated as numerical noise and clipped
# to zero; anything more negative is an error.
PSD_CLIP = -1e-10


class InvariantError(RuntimeError):
    """A result failed a runtime invariant that its construction guarantees.

    Raised instead of ``assert`` so the checks still run under ``python -O``.
    """


class NotHermitianError(ValueError):
    """The input of an eigen function is not Hermitian within its tolerance."""


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix in a stack (a view for real input)."""
    return m.swapaxes(-1, -2).conj()


def hermitian_part(m: np.ndarray) -> np.ndarray:
    """(m + m^dagger) / 2 of a matrix or of each matrix of a stack, Hermitian bit for bit."""
    return (m + dagger(m)) / 2.0


def _canonical_phases(vecs: np.ndarray) -> np.ndarray:
    # Fix the global phase of each column (of each matrix of a stack):
    # largest-magnitude entry made real positive. Keeps repeated runs
    # byte-identical.
    top = np.take_along_axis(vecs, np.argmax(np.abs(vecs), axis=-2)[..., None, :], -2)
    mag = np.abs(top)
    return vecs * np.divide(np.conj(top), mag, out=np.ones_like(top), where=mag > 0)


def _symmetrized(m: np.ndarray, tol: float) -> np.ndarray:
    """(m + m^dagger) / 2 of a square complex matrix or stack ``m``, after
    the shape and Hermitian checks every checked eigen function shares."""
    m = np.asarray(m, dtype=complex)
    if m.ndim not in (2, 3) or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"expected a square matrix or a stack of them, got shape {m.shape}")
    mh = dagger(m)
    if m.size and not np.abs(m - mh).max() <= tol:  # NaN fails the comparison too
        raise NotHermitianError("matrix is not Hermitian within tolerance")
    return (m + mh) / 2.0


def _lapack(gufunc, signature: str, failure: str):
    """``gufunc(*args)`` at ``signature`` under its numpy wrapper's error
    state, so a LAPACK failure raises ``LinAlgError(failure)`` as it does;
    the ``errstate`` is built once, and its decorator form is reentrant."""
    def fail(err, flag):
        raise LinAlgError(failure)

    return np.errstate(call=fail, invalid="call", over="ignore", divide="ignore",
                       under="ignore")(functools.partial(gufunc, signature=signature))


# unchecked; _eigh and _eigvalsh take symmetrized complex matrices or stacks
_eigh = _lapack(_umath_linalg.eigh_lo, "D->dD", "Eigenvalues did not converge")
_eigvalsh = _lapack(_umath_linalg.eigvalsh_lo, "D->d", "Eigenvalues did not converge")
_solve = _lapack(_umath_linalg.solve1, "dd->d", "Singular matrix")  # real a x = b, b 1-D
_svd = _lapack(_umath_linalg.svd_s, "D->DdD", "SVD did not converge")  # reduced u, s, vh
_svdvals = _lapack(_umath_linalg.svd, "D->d", "SVD did not converge")


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
        If ``m`` is not square, or (``NotHermitianError``) not Hermitian within ``tol``.
    """
    w, v = _eigh(_symmetrized(m, tol))
    return w, _canonical_phases(v)


def eigvals_hermitian(m: np.ndarray, tol: float = HERM_TOL) -> np.ndarray:
    """Ascending eigenvalues of a Hermitian matrix, bit-identical to
    ``eig_hermitian(m, tol)[0]``; same checks, same ``ValueError``."""
    return _eigh(_symmetrized(m, tol))[0]


def eigvalsh(m: np.ndarray, tol: float = HERM_TOL) -> np.ndarray:
    """Ascending eigenvalues of a Hermitian matrix or of each matrix of a
    stack from LAPACK's eigenvalue-only routine, with ``np.linalg.eigvalsh``'s
    bits (not ``eigvals_hermitian``'s); same checks, same ``ValueError``."""
    return _eigvalsh(_symmetrized(m, tol))


def clip_psd_spectrum(w: np.ndarray) -> np.ndarray:
    """Clip tiny negative eigenvalues to zero; reject genuinely negative ones."""
    if w.min() < PSD_CLIP:
        raise ValueError(f"matrix is not PSD: min eigenvalue {w.min():.3e}")
    return np.maximum(w, 0.0)


def psd_eigvals(m: np.ndarray) -> np.ndarray:
    """The clipped ascending eigenvalues of a PSD matrix, or of each matrix of a stack."""
    return clip_psd_spectrum(eigvals_hermitian(m))


def psd_eig(m: np.ndarray, tol: float = HERM_TOL):
    """``eig_hermitian`` of a PSD matrix or stack, eigenvalues clipped: the
    eigensystem ``eig_power`` takes, its spectrum ``psd_eigvals``' bits."""
    w, v = eig_hermitian(m, tol)
    return clip_psd_spectrum(w), v


def psd_power(m: np.ndarray, power: float) -> np.ndarray:
    """Matrix power of a PSD matrix on its support (pseudo-power), of one
    matrix or of each matrix of a stack: ``eig_power`` of its ``psd_eig``."""
    return eig_power(*psd_eig(m), power)


def eig_power(w: np.ndarray, v: np.ndarray, power: float) -> np.ndarray:
    """The power of the PSD matrix (or stack) with clipped ascending
    eigensystem (w, v), as ``psd_eig`` gives it: the owner of an operator
    keeps one eigensystem and takes every power from it.

    Negative powers invert only the eigenvalues above ``SUPPORT_TOL``;
    the kernel is mapped to zero. Used for sqrt, inverse sqrt and
    pseudo-inverse of density operators and POVM elements.
    """
    out_w = np.zeros_like(w)
    mask = w > SUPPORT_TOL
    out_w[mask] = w[mask] ** power
    if power >= 0:
        # non-negative powers act on the sub-threshold part too (continuity)
        out_w[~mask] = np.maximum(w[~mask], 0.0) ** power if power > 0 else 0.0
    return (v * out_w[..., None, :]) @ dagger(v)


def partial_trace(mat: np.ndarray, dims, keep) -> np.ndarray:
    """Partial trace of a matrix over a tensor factorization.

    Parameters
    ----------
    mat : np.ndarray
        Square matrix on the full space ``prod(dims)``, or an (n, d, d)
        stack of them (traced member by member, each with its own bits).
    dims : sequence of int
        Dimensions of the tensor factors, in order.
    keep : int or sequence of int
        Indices of factors to keep (0-indexed); all others are traced out.

    Returns
    -------
    np.ndarray
        Matrix (or stack) on the kept factors, in their original relative order.
    """
    dims = list(dims)
    if isinstance(keep, (int, np.integer)):
        keep = [int(keep)]
    keep = sorted(int(k) for k in keep)
    n = len(dims)
    total = math.prod(dims)
    mat = np.asarray(mat, dtype=complex)
    lead = mat.shape[:-2]
    if mat.ndim not in (2, 3) or mat.shape[-2:] != (total, total):
        raise ValueError(f"matrix shape {mat.shape} does not match dims {dims}")
    for k in keep:
        if k < 0 or k >= n:
            raise ValueError(f"keep index {k} out of range for {n} factors")
    t = mat.reshape(lead + tuple(dims + dims))
    traced = [i for i in range(n) if i not in keep]
    # trace highest index first so axis numbering stays valid
    for idx in sorted(traced, reverse=True):
        t = np.trace(t, axis1=len(lead) + idx, axis2=len(lead) + idx + (t.ndim - len(lead)) // 2)
    d_keep = math.prod(dims[i] for i in keep)
    return t.reshape(lead + (d_keep, d_keep))


def purify(w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Purification of the density matrix rho with clipped ascending
    eigensystem (w, v), as ``psd_eig`` gives it and its owner keeps it.

    Returns a vector on ``A x R`` (A-major ordering) with ``|R| = rank(rho)``
    and Schmidt coefficients equal to the square roots of the nonzero
    eigenvalues of ``rho``, largest first.
    """
    rank = max(1, int((w > SUPPORT_TOL).sum()))
    return (v[:, ::-1][:, :rank] * np.sqrt(w[::-1][:rank])).reshape(-1)


def trace_norm(m: np.ndarray):
    """Sum of |eigenvalues| of a Hermitian matrix, or of each matrix of a
    stack (the eigenvalues ``eigvals_hermitian`` gives); Hermitian within
    1e-8, else ``NotHermitianError``."""
    out = np.abs(_eigh(_symmetrized(m, 1e-8))[0]).sum(axis=-1)
    return out if out.ndim else float(out)


def groups(keys) -> dict:
    """The indices of each distinct key of ``keys``, keys in order of first
    appearance: how a stacked call groups its members."""
    out = {}
    for i, key in enumerate(keys):
        out.setdefault(key, []).append(i)
    return out


def per_size(f, stacks) -> list:
    """``[f(s) for s in stacks]`` for (n, d, d) stacks, from one call of the
    stack function ``f`` per size d on all the stacks of that size joined
    (``groups``); with the stack functions of this module each member keeps
    its bits."""
    out = [None] * len(stacks)
    for idx in groups(s.shape[-1] for s in stacks).values():
        joined = f(np.concatenate([stacks[i] for i in idx]))
        stops = np.cumsum([len(stacks[i]) for i in idx]).tolist()
        for i, start, stop in zip(idx, [0] + stops, stops):
            out[i] = joined[start:stop]
    return out


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.kron(a, b)`` of two matrices, or of each pair of members of two
    (n, ., .) stacks, with its bits: the same broadcast products a_ij b_kl."""
    out = a[..., :, None, :, None] * b[..., None, :, None, :]
    *lead, a0, b0, a1, b1 = out.shape
    return out.reshape(*lead, a0 * b0, a1 * b1)


def row_norms(t: np.ndarray) -> np.ndarray:
    """``np.linalg.norm(m)`` of each member m of a stack, bit for bit, from
    one pass of dot products, each member read in memory order as the norm
    reads it."""
    order = sorted(range(1, t.ndim), key=lambda i: -abs(t.strides[i]))
    # contiguous rows, as the norm's copy is: BLAS sums strided rows in another order
    flat = np.ascontiguousarray(np.transpose(t, [0] + order))
    flat = flat.reshape(len(t), math.prod(t.shape[1:]))
    return np.sqrt(np.vecdot(flat.real, flat.real) + np.vecdot(flat.imag, flat.imag))


def sum_in_order(arrays) -> np.ndarray:
    """a0 + a1 + ... of an iterable of arrays (or a stack's members), one
    in-place add at a time: the bits of ``np.cumsum(stack, axis=0)[-1]``,
    which ``np.sum`` does not keep, without its stack of partial sums."""
    arrays = iter(arrays)
    out = np.array(next(arrays))
    for a in arrays:
        out += a
    return out


def fidelity(a, b: np.ndarray):
    """Fidelity ``F(a, b) = || sqrt(a) sqrt(b) ||_1`` for PSD a, b with trace
    <= 1, or of a with each member of a stack b; a is given by its clipped
    ascending eigensystem (w, v), as ``psd_eig`` gives it and its owner keeps
    it. The roots count every eigenvalue at or below ``SUPPORT_TOL`` as 0."""
    # no root of rounding noise: off the support, an eigenvalue is 0
    ra, rb = (eig_power(np.where(w > SUPPORT_TOL, w, 0.0), v, 0.5)
              for w, v in (a, psd_eig(b if np.ndim(b) == 3 else np.array([b]))))
    out = _svdvals(ra @ rb).sum(axis=-1)
    return out if np.ndim(b) == 3 else float(out[0])
