"""Typed states, POVMs and the coherent measurement over labeled registers.

Registers are (label, dimension) pairs. A ``DensityOperator`` canonicalizes
its tensor order alphabetically by label at construction so partial traces
are unambiguous; the lighter ``PureState`` keeps an explicit register order
and is the working representation inside protocol simulations.
"""

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import linalg

_ATOL = 1e-9
_SUM_TOL = 1e-8


def _perm_matrix_indices(dims_from, perm):
    """Row-major index permutation sending factor order ``dims_from`` to
    the order picked out by ``perm`` (perm[i] = which old axis goes to slot i)."""
    idx = np.arange(math.prod(dims_from)).reshape(dims_from)
    return np.transpose(idx, perm).reshape(-1)


class PureState:
    """A pure state vector over explicitly ordered labeled registers.

    Internal workhorse for protocol simulation: supports applying operators
    (including isometries that reshape registers), classical decomposition
    along a register, and reduced density matrices. No normalization is
    enforced, so sub-normalized branch vectors are fine.
    """

    def __init__(self, regs, vec):
        self.regs = [(str(l), int(d)) for l, d in regs]
        dims = tuple(d for _, d in self.regs)
        self.tensor = np.asarray(vec, dtype=complex).reshape(dims)
        labels = [l for l, _ in self.regs]
        if len(set(labels)) != len(labels):
            raise ValueError(f"duplicate register labels: {labels}")

    @property
    def labels(self):
        return [l for l, _ in self.regs]

    def dim(self, label):
        for l, d in self.regs:
            if l == label:
                return d
        raise KeyError(f"no register {label!r}; have {self.labels}")

    def vector(self):
        return self.tensor.reshape(-1)

    def norm(self):
        return float(np.linalg.norm(self.tensor))

    def _axes(self, labels):
        return [self.labels.index(l) for l in labels]

    def apply(self, op, on, out_regs=None) -> "PureState":
        """Apply ``op`` to the registers ``on`` (in that order).

        ``op`` may be rectangular (an isometry); ``out_regs`` then names the
        output registers replacing ``on``. Output registers are placed where
        the first input register was.
        """
        on = list(on)
        axes = self._axes(on)
        d_in = math.prod(self.dim(l) for l in on)
        if out_regs is None:
            out_regs = [(l, self.dim(l)) for l in on]
        kept_labels = {l for i, (l, _) in enumerate(self.regs) if i not in axes}
        for l, _ in out_regs:
            if l in kept_labels:
                raise ValueError(f"output register {l!r} collides with an existing one")
        d_out = math.prod(d for _, d in out_regs)
        op = np.asarray(op, dtype=complex)
        if op.shape != (d_out, d_in):
            raise ValueError(f"operator shape {op.shape} != ({d_out}, {d_in})")
        rest_axes = [i for i in range(len(self.regs)) if i not in axes]
        moved = np.transpose(self.tensor, axes + rest_axes)
        moved = moved.reshape(d_in, -1)
        out = op @ moved
        new_front = list(out_regs)
        new_rest = [self.regs[i] for i in rest_axes]
        out = out.reshape([d for _, d in new_front] + [d for _, d in new_rest])
        # restore: put the new registers at the position of the first input one
        pos = min(axes) if axes else 0
        order_regs = new_rest[:pos] + new_front + new_rest[pos:]
        cur = new_front + new_rest
        perm = [cur.index(r) for r in order_regs]
        return PureState(order_regs, np.transpose(out, perm))

    def branches(self, label):
        """Decompose along the computational basis of one register.

        Returns a list of (index, sub-normalized PureState without that
        register). Mixing the branch projectors reproduces the dephased state.
        """
        ax = self._axes([label])[0]
        d = self.regs[ax][1]
        out = []
        rest = [r for i, r in enumerate(self.regs) if i != ax]
        for i in range(d):
            sub = np.take(self.tensor, i, axis=ax)
            out.append((i, PureState(rest, sub)))
        return out

    def marginal(self, keep):
        """Reduced density matrix on ``keep`` (in the listed order)."""
        keep = list(keep)
        axes = self._axes(keep)
        rest = [i for i in range(len(self.regs)) if i not in axes]
        moved = np.transpose(self.tensor, axes + rest)
        d_keep = math.prod(self.regs[i][1] for i in axes)
        m = moved.reshape(d_keep, -1)
        return m @ linalg.dagger(m)

    def density(self, keep=None) -> "DensityOperator":
        if keep is None:
            keep = self.labels
        keep = sorted(keep)
        return DensityOperator([(l, self.dim(l)) for l in keep], self.marginal(keep))


@dataclass(frozen=True, eq=False)
class DensityOperator:
    """PSD unit-trace operator over alphabetically ordered labeled registers."""

    registers: tuple
    matrix: np.ndarray

    def __init__(self, registers, matrix, validate=True):
        regs = [(str(l), int(d)) for l, d in registers]
        labels = [l for l, _ in regs]
        if len(set(labels)) != len(labels):
            raise ValueError(f"duplicate register labels: {labels}")
        mat = np.asarray(matrix, dtype=complex)
        if labels != sorted(labels):
            order = sorted(range(len(regs)), key=lambda i: labels[i])
            perm = _perm_matrix_indices([d for _, d in regs], order)
            mat = mat[np.ix_(perm, perm)]
            regs = [regs[i] for i in order]
        total = math.prod(d for _, d in regs)
        if mat.shape != (total, total):
            raise ValueError(f"matrix shape {mat.shape} does not match registers {regs}")
        if validate:
            if not linalg.is_hermitian(mat, _ATOL):
                raise ValueError("density matrix is not Hermitian within 1e-9")
            w, v = linalg.eig_hermitian(mat)
            w = linalg.clip_psd_spectrum(w)
            mat = (v * w) @ linalg.dagger(v)
            tr = float(mat.trace().real)
            if abs(tr - 1.0) > _ATOL:
                raise ValueError(f"trace {tr} is not 1 within 1e-9")
        object.__setattr__(self, "registers", tuple(regs))
        object.__setattr__(self, "matrix", mat)

    @property
    def labels(self):
        return [l for l, _ in self.registers]

    @property
    def dims(self):
        return [d for _, d in self.registers]

    @property
    def dim(self):
        return math.prod(self.dims)

    def dim_of(self, label):
        for l, d in self.registers:
            if l == label:
                return d
        raise KeyError(f"no register {label!r}; have {self.labels}")

    def partial_trace(self, keep) -> "DensityOperator":
        """Reduced state on the registers named in ``keep``."""
        if isinstance(keep, str):
            keep = [keep]
        keep = sorted(set(keep))
        for l in keep:
            if l not in self.labels:
                raise KeyError(f"no register {l!r}; have {self.labels}")
        idx = [self.labels.index(l) for l in keep]
        sub = linalg.partial_trace(self.matrix, self.dims, idx)
        return DensityOperator([(l, self.dim_of(l)) for l in keep], sub, validate=False)

    def spectrum(self) -> np.ndarray:
        return linalg.clip_psd_spectrum(linalg.eigvals_hermitian(self.matrix))

    def purify(self, ref_label: str = "R") -> PureState:
        """Pure state on (self x ref_label) whose partial trace gives self back."""
        if ref_label in self.labels:
            raise ValueError(f"reference label {ref_label!r} already in use")
        vec = linalg.purify(self.matrix)
        rank = vec.size // self.dim
        return PureState(list(self.registers) + [(ref_label, rank)], vec)


@dataclass(frozen=True, eq=False)
class CQState:
    """Classical symbols paired with conditional density operators.

    The distribution must be normalized and every conditional must share
    one register signature. Symbols with probability below ``1e-12`` are
    dropped at construction (conditionals are undefined there); the
    ``dropped`` flag records that this happened.
    """

    symbols: tuple
    probs: np.ndarray
    conditionals: tuple
    dropped: bool = False

    def __init__(self, symbols, probs, conditionals, renormalize=False,
                 pre_dropped=False):
        probs = np.asarray(probs, dtype=float)
        if (probs < -1e-12).any():
            raise ValueError("negative probabilities")
        if renormalize:
            probs = probs / probs.sum()
        if abs(float(probs.sum()) - 1.0) > _ATOL:
            raise ValueError(f"probabilities sum to {probs.sum()}, not 1")
        keep = [i for i, p in enumerate(probs.tolist()) if p >= 1e-12]
        dropped = bool(pre_dropped) or len(keep) != len(probs)
        symbols = [symbols[i] for i in keep]
        conds = [conditionals[i] for i in keep]
        probs = probs[keep]
        if any(c.registers != conds[0].registers for c in conds):
            raise ValueError("conditionals have mismatched register signatures")
        object.__setattr__(self, "symbols", tuple(symbols))
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "conditionals", tuple(conds))
        object.__setattr__(self, "dropped", dropped)

    def __len__(self):
        return len(self.symbols)

    @cached_property
    def stack(self) -> np.ndarray:
        """The conditionals' matrices as one (n, d, d) array."""
        return np.stack([c.matrix for c in self.conditionals])

    @cached_property
    def spectra(self) -> np.ndarray:
        """Row i is ``conditionals[i].spectrum()``, bit for bit, from one
        stacked eigendecomposition."""
        return linalg.clip_psd_spectrum(linalg.eigvals_hermitian(self.stack))

    def map_conditionals(self, f) -> "CQState":
        return CQState(self.symbols, self.probs, [f(c) for c in self.conditionals])


@dataclass(frozen=True, eq=False)
class Povm:
    """Finite list of PSD operators on one register summing to identity."""

    labels: tuple
    elements: tuple
    register: str = "A"

    def __init__(self, elements, labels=None, register="A"):
        elems = [np.asarray(e, dtype=complex) for e in elements]
        if not elems:
            raise ValueError("POVM has no elements")
        d = elems[0].shape[0]
        if labels is None:
            labels = list(range(len(elems)))
        if len(labels) != len(elems):
            raise ValueError("labels/elements length mismatch")
        total = np.zeros((d, d), dtype=complex)
        for e in elems:
            if e.shape != (d, d):
                raise ValueError("POVM elements have mismatched shapes")
            if not linalg.is_hermitian(e, _ATOL):
                raise ValueError("POVM element is not Hermitian")
            w = linalg.eigvals_hermitian(e)
            if w.min() < -_ATOL:
                raise ValueError(f"POVM element not PSD: min eig {w.min():.2e}")
            total += e
        if np.abs(total - np.eye(d)).max() > _SUM_TOL:
            raise ValueError("POVM elements do not sum to identity within 1e-8")
        object.__setattr__(self, "labels", tuple(labels))
        object.__setattr__(self, "elements", tuple(elems))
        object.__setattr__(self, "register", str(register))

    def __len__(self):
        return len(self.elements)

    @property
    def dim(self):
        return self.elements[0].shape[0]

    def outcome_probs(self, rho: np.ndarray) -> np.ndarray:
        return np.array([max(0.0, float((e @ rho).trace().real)) for e in self.elements])


@dataclass
class ProtocolTranscript:
    """Accounting record of one protocol run.

    Qubit counts are integers (floors of the real-valued log-dimension
    bounds); ``rate_bound_real`` keeps the un-floored formula value for
    reporting. ``net_rate`` is exactly
    ``distilled_alice + distilled_bob - borrowed``.
    """

    protocol: str
    distilled_alice: int
    distilled_bob: int
    borrowed: int
    communication: int
    final_error: float
    eps: float
    seed: int | None = None
    dims: dict = field(default_factory=dict)
    slack_bits: float = 0.0
    case: str | None = None
    rate_bound_real: float | None = None
    extra: dict = field(default_factory=dict)

    def __post_init__(self):
        for name in ("distilled_alice", "distilled_bob", "borrowed", "communication"):
            v = getattr(self, name)
            if int(v) != v or v < 0:
                raise ValueError(f"{name} must be a non-negative integer, got {v}")
            setattr(self, name, int(v))

    @property
    def net_rate(self) -> int:
        return self.distilled_alice + self.distilled_bob - self.borrowed

    def to_dict(self) -> dict:
        return {
            "protocol": self.protocol,
            "seed": self.seed,
            "dims": self.dims,
            "eps": self.eps,
            "distilled_alice": self.distilled_alice,
            "distilled_bob": self.distilled_bob,
            "borrowed": self.borrowed,
            "communication": self.communication,
            "final_error": self.final_error,
            "net_rate": self.net_rate,
            "slack_bits": self.slack_bits,
            "case": self.case,
            "rate_bound_real": self.rate_bound_real,
        }


def measure(psi: PureState, elements, reg: str) -> list:
    """Measure ``reg`` of a pure state coherently: the sub-normalized
    branches sqrt(E) psi, one per element E, in the element order."""
    return [psi.apply(linalg.psd_power(e, 0.5), [reg]) for e in elements]


def branch_ensemble(branches, labels, keep) -> CQState:
    """The cq state of measurement branches reduced to the registers ``keep``.

    Branch i carries outcome ``labels[i]`` with probability its squared norm
    and the normalized ``keep`` marginal as its conditional. Outcomes with
    probability below 1e-12 are dropped (the conditional is undefined at
    measure zero) and flagged in ``dropped``.
    """
    keep = sorted(keep)
    probs, conds, kept = [], [], []
    for lbl, branch in zip(labels, branches):
        p = branch.norm() ** 2
        if p < 1e-12:
            continue
        conds.append(DensityOperator([(l, branch.dim(l)) for l in keep],
                                     branch.marginal(keep) / p, validate=False))
        probs.append(p)
        kept.append(lbl)
    probs = np.asarray(probs)
    return CQState(kept, probs / np.sum(probs), conds,
                   pre_dropped=len(kept) != len(branches))


def control_state(psi: PureState, povm: Povm, condition_on=("B", "R"),
                  retain_measured=False) -> CQState:
    """Measure one register of a pure state and collect the outcome ensemble.

    The ``branch_ensemble`` of ``measure``-ing the POVM on its register,
    reduced to ``condition_on`` (pass ``retain_measured=True`` to keep the
    measured register as well).
    """
    reg = povm.register
    if reg not in psi.labels:
        raise KeyError(f"state has no register {reg!r}")
    if povm.dim != psi.dim(reg):
        raise ValueError(f"POVM dimension {povm.dim} does not match register "
                         f"{reg!r} dimension {psi.dim(reg)}")
    keep = list(condition_on)
    if retain_measured and reg not in keep:
        keep = [reg] + keep
    return branch_ensemble(measure(psi, povm.elements, reg), povm.labels, keep)


def rank1_refine(povm: Povm, tol: float = 1e-12) -> Povm:
    """Split every POVM element into its rank-1 eigenpieces.

    Output labels are (parent label, eigenindex); regrouping by parent label
    reproduces the parent elements exactly.
    """
    elems, labels = [], []
    for lbl, e in zip(povm.labels, povm.elements):
        w, v = linalg.eig_hermitian(e)
        for j in range(len(w))[::-1]:
            if w[j] <= tol:
                continue
            vec = v[:, j]
            elems.append(w[j] * np.outer(vec, np.conj(vec)))
            labels.append((lbl, len(w) - 1 - j))
    return Povm(elems, labels, register=povm.register)
