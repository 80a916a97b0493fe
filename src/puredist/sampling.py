"""Seeded random states, POVMs and cq ensembles for the property suite, the demos and sweeps.

All samplers take a ``numpy.random.Generator`` so every experiment is
reproducible from a single integer seed (PCG64 via ``default_rng``). The
stacked samplers split into their generator calls and a build that takes a
stack of draws, each member with the bits of its own sampler:
``ginibre_normals`` and ``ginibre_gram`` (``ginibre_density``), and
``cq_draws``, whose cq ensembles build their probabilities (``cq_probs``, a
stack per symbol count) apart from their conditionals (``cq_conditionals``,
a stack of any symbols of one shape). Flat Dirichlet probabilities come
from ``flat_dirichlet``.
"""

import numpy as np

from . import linalg
from .states import DensityOperator, Povm, PureState, kept_symbols


def ginibre_density(rng, dim: int, rank: int | None = None) -> np.ndarray:
    """Random density matrix from the Ginibre ensemble (full rank by default):
    the ``ginibre_gram`` of a ``ginibre_normals`` draw."""
    return ginibre_gram(ginibre_normals(rng, dim, rank))


def ginibre_normals(rng, dim: int, rank: int | None = None, n: int | None = None) -> np.ndarray:
    """The (2, dim, rank) normals of one ``ginibre_density`` draw, the real
    part's, then the imaginary part's, from one ``normal`` call; with ``n``,
    n such draws in turn as one (n, 2, dim, rank) call."""
    shape = (2, dim, dim if rank is None else rank)
    return rng.normal(size=shape if n is None else (n, *shape))


def complex_normals(z: np.ndarray) -> np.ndarray:
    """g = z[0] + i z[1] of a ``ginibre_normals`` draw z, or of each draw of
    a stack of them: the one place that reads a draw's layout."""
    return z[..., 0, :, :] + 1j * z[..., 1, :, :]


def ginibre_gram(z: np.ndarray) -> np.ndarray:
    """g g^dag / Tr(g g^dag) for the ``complex_normals`` g of a
    ``ginibre_normals`` draw z, or for each draw of a stack with its bits."""
    g = complex_normals(z)
    m = g @ linalg.dagger(g)
    return m / np.trace(m, axis1=-2, axis2=-1).real[..., None, None]


def random_density(rng, dim: int) -> DensityOperator:
    """A full-rank ``ginibre_density`` on register A."""
    return DensityOperator([("A", dim)], ginibre_density(rng, dim), validate=False)


def standard_complex(z: np.ndarray) -> np.ndarray:
    """``complex_normals(z) / sqrt(2)``, entries of unit variance, for a
    ``ginibre_normals`` draw z or each draw of a stack with its bits."""
    return complex_normals(z) / np.sqrt(2)


def haar_unitary(z: np.ndarray) -> np.ndarray:
    """The Q of z = QR with the phases of R's diagonal moved into it, for one
    matrix or each of a stack (one QR call, each member with its own bits):
    Haar distributed when z is the ``standard_complex`` of a ``ginibre_normals`` draw."""
    q, r = np.linalg.qr(z)
    ph = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (np.conj(ph) / np.abs(ph))[..., None, :]


def random_povm(rng, dim: int, outcomes: int, register: str = "A") -> Povm:
    """Random POVM from normalized Wishart pieces."""
    g = complex_normals(ginibre_normals(rng, dim, n=outcomes))
    parts = g @ linalg.dagger(g)
    t_inv_sqrt = linalg.psd_power(sum(parts), -0.5)
    elems = list(t_inv_sqrt @ parts @ t_inv_sqrt)
    # absorb the support defect (Wishart sums are full rank a.s., but be safe)
    defect = np.eye(dim) - sum(elems)
    elems[0] = elems[0] + linalg.hermitian_part(defect)
    return Povm(elems, register=register)


def basis_povm(dim: int, register: str = "A") -> Povm:
    eye = np.eye(dim)
    return Povm([np.outer(eye[:, i], eye[:, i]) for i in range(dim)], register=register)


def flat_dirichlet(rng, n: int) -> np.ndarray:
    """The values and generator state of ``rng.dirichlet(np.ones(n))``
    without its argument checks: n ``standard_gamma(1.0)`` draws, each
    times 1 / (their sum, added left to right)."""
    g = rng.standard_gamma(1.0, n)
    total = 0.0
    for x in g.tolist():
        total += x
    return g * (1.0 / total)


def cq_draws(rng, n_symbols: int, dim: int, pure_conditionals: bool = False):
    """A cq ensemble's two generator calls in turn: the ``flat_dirichlet``
    probabilities and the ``ginibre_normals`` of the n conditionals (of rank
    1 when they are pure, full rank otherwise)."""
    probs = flat_dirichlet(rng, n_symbols)
    return probs, ginibre_normals(rng, dim, 1 if pure_conditionals else dim, n=n_symbols)


def cq_probs(probs: np.ndarray):
    """The (m, n) probabilities of m ``cq_draws`` of n symbols (or the n of
    one) normalized, 0 for each symbol that ``kept_symbols`` does not keep,
    and the mask of the symbols kept, row by row."""
    probs = probs / probs.sum(axis=-1, keepdims=True)
    keep = kept_symbols(probs)
    return np.where(keep, probs, 0.0), keep


def cq_conditionals(z: np.ndarray, pure_conditionals: bool) -> np.ndarray:
    """The (..., d, d) conditionals of a stack of (..., 2, d, rank)
    ``cq_draws`` normals: the pure states of the normalized
    ``complex_normals``, or their ``ginibre_gram``, each member with its bits."""
    if not pure_conditionals:
        return ginibre_gram(z)
    v = complex_normals(z)[..., 0]
    v = v / linalg.row_norms(v.reshape(-1, v.shape[-1])).reshape(v.shape[:-1] + (1,))
    return v[..., :, None] * np.conj(v)[..., None, :]


def bell_pair() -> PureState:
    """(|00> + |11>) / sqrt(2) on A x B."""
    v = np.zeros(4, dtype=complex)
    v[0] = v[3] = 1 / np.sqrt(2)
    return PureState([("A", 2), ("B", 2)], v)


def classical_correlated_pure(rng, da: int, db: int, joint=None) -> PureState:
    """Purification-ready classical joint state sum_ab sqrt(p(a,b)) |a b>.

    Measuring the first register in the computational basis reproduces the
    classical joint distribution exactly, which makes hand-computed
    conditional-entropy oracles possible.
    """
    if joint is None:
        joint = flat_dirichlet(rng, da * db).reshape(da, db)
    joint = np.asarray(joint, dtype=float)
    vec = np.sqrt(joint).reshape(-1)
    return PureState([("A", da), ("B", db)], vec)


def purified_input(psi_ab: PureState) -> PureState:
    """Extend a bipartite pure state with a trivial reference register R.

    Protocol inputs are pure on A x B x R; when the shared state is already
    pure the reference is one-dimensional.
    """
    regs = list(psi_ab.regs) + [("R", 1)]
    return PureState(regs, psi_ab.tensor.reshape(psi_ab.tensor.shape + (1,)))
