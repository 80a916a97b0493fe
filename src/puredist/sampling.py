"""Seeded random states, POVMs and cq ensembles for tests and sweeps.

All samplers take a ``numpy.random.Generator`` so every experiment is
reproducible from a single integer seed (PCG64 via ``default_rng``).
"""

import numpy as np

from . import linalg
from .states import CQState, DensityOperator, Povm, PureState


def haar_vector(rng, dim: int) -> np.ndarray:
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def random_pure(rng, dim: int, label: str = "A") -> DensityOperator:
    v = haar_vector(rng, dim)
    return DensityOperator([(label, dim)], np.outer(v, np.conj(v)), validate=False)


def ginibre_density(rng, dim: int, rank: int | None = None) -> np.ndarray:
    """Random density matrix from the Ginibre ensemble (full rank by default)."""
    rank = dim if rank is None else rank
    g = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    m = g @ linalg.dagger(g)
    return m / m.trace().real

def random_density(rng, dim: int, label: str = "A", rank: int | None = None) -> DensityOperator:
    return DensityOperator([(label, dim)], ginibre_density(rng, dim, rank), validate=False)


def random_unitary(rng, dim: int) -> np.ndarray:
    z = (rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    ph = np.diag(r)
    return q * (np.conj(ph) / np.abs(ph))


def random_povm(rng, dim: int, outcomes: int, register: str = "A") -> Povm:
    """Random POVM from normalized Wishart pieces."""
    parts = []
    for _ in range(outcomes):
        g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        parts.append(g @ linalg.dagger(g))
    total = sum(parts)
    t_inv_sqrt = linalg.psd_power(total, -0.5)
    elems = [t_inv_sqrt @ p @ t_inv_sqrt for p in parts]
    # absorb the support defect (Wishart sums are full rank a.s., but be safe)
    defect = np.eye(dim) - sum(elems)
    elems[0] = elems[0] + (defect + linalg.dagger(defect)) / 2
    return Povm(elems, register=register)


def basis_povm(dim: int, register: str = "A") -> Povm:
    eye = np.eye(dim)
    return Povm([np.outer(eye[:, i], eye[:, i]) for i in range(dim)], register=register)


def random_cq(rng, n_symbols: int, dim: int, label: str = "B",
              pure_conditionals: bool = False, rank: int | None = None) -> CQState:
    probs = rng.dirichlet(np.ones(n_symbols))
    conds = []
    for _ in range(n_symbols):
        if pure_conditionals:
            conds.append(random_pure(rng, dim, label))
        else:
            conds.append(random_density(rng, dim, label, rank))
    return CQState(list(range(n_symbols)), probs, conds, renormalize=True)


def bell_pair(labels=("A", "B")) -> PureState:
    v = np.zeros(4, dtype=complex)
    v[0] = v[3] = 1 / np.sqrt(2)
    return PureState([(labels[0], 2), (labels[1], 2)], v)


def classical_correlated_pure(rng, da: int, db: int, labels=("A", "B"),
                              joint=None) -> PureState:
    """Purification-ready classical joint state sum_ab sqrt(p(a,b)) |a b>.

    Measuring the first register in the computational basis reproduces the
    classical joint distribution exactly, which makes hand-computed
    conditional-entropy oracles possible.
    """
    if joint is None:
        joint = rng.dirichlet(np.ones(da * db)).reshape(da, db)
    joint = np.asarray(joint, dtype=float)
    vec = np.sqrt(joint).reshape(-1)
    return PureState([(labels[0], da), (labels[1], db)], vec)


def purified_input(psi_ab: PureState, ref_label: str = "R") -> PureState:
    """Extend a bipartite pure state with a trivial reference register.

    Protocol inputs are pure on A x B x R; when the shared state is already
    pure the reference is one-dimensional.
    """
    regs = list(psi_ab.regs) + [(ref_label, 1)]
    return PureState(regs, psi_ab.tensor.reshape(psi_ab.tensor.shape + (1,)))


def mixed_protocol_input(rng, da: int, db: int, rank: int = 2,
                         labels=("A", "B", "R")) -> PureState:
    """Random mixed rho^{AB} of the given rank, presented as |rho>^{ABR}."""
    rho = ginibre_density(rng, da * db, rank)
    vec = linalg.purify(rho)
    dr = vec.size // (da * db)
    return PureState([(labels[0], da), (labels[1], db), (labels[2], dr)],
                     vec.reshape(da, db, dr))
