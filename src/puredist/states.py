"""Typed states, POVMs and the coherent measurement over labeled registers.

Registers are (label, dimension) pairs. A ``DensityOperator`` canonicalizes
its tensor order alphabetically by label at construction so partial traces
are unambiguous; the lighter ``PureState`` keeps an explicit register order
and is the working representation inside protocol simulations. A ``Povm``
keeps the eigensystem its check computes and the roots sqrt(E) taken from
it, which every coherent measurement and refinement of it reads.
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

    A stacked PureState holds states over the same registers along a
    leading tensor axis; ``masses``, ``apply`` (of one operator or a stack)
    and ``marginal`` act member by member, with each member's own bits.
    """

    def __init__(self, regs, vec, stacked=False):
        self.regs = [(str(l), int(d)) for l, d in regs]
        self.stacked = stacked
        dims = tuple(d for _, d in self.regs)
        self.tensor = np.asarray(vec, dtype=complex).reshape(((-1,) if stacked else ()) + dims)
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

    def masses(self) -> np.ndarray:
        """``float(np.linalg.norm(t)) ** 2`` of each member t of a stack, from
        ``linalg.row_norms`` (Python's power: numpy's square differs in the last bit)."""
        return np.array([r ** 2 for r in linalg.row_norms(self.tensor).tolist()])

    def _axes(self, labels):
        return [self.labels.index(l) for l in labels]

    def _moved(self, axes):
        """The tensor with the registers ``axes`` first, reshaped to
        (members x) their dimension x the rest; and the rest's axes."""
        s = int(self.stacked)
        rest = [i for i in range(len(self.regs)) if i not in axes]
        t = np.transpose(self.tensor, list(range(s)) + [s + i for i in axes + rest])
        d = math.prod(self.regs[i][1] for i in axes)
        return t.reshape(self.tensor.shape[:s] + (d, -1)), rest

    def apply(self, op, on, out_regs=None) -> "PureState":
        """Apply ``op`` to the registers ``on`` (in that order).

        ``op`` may be rectangular (an isometry); ``out_regs`` then names the
        output registers replacing ``on``. Output registers are placed where
        the first input register was. An (n, d_out, d_in) stack of operators
        applies member by member.
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
        if op.ndim not in (2, 3) or op.shape[-2:] != (d_out, d_in):
            raise ValueError(f"operator shape {op.shape} != ({d_out}, {d_in})")
        moved, rest_axes = self._moved(axes)
        out = op @ moved
        lead = out.shape[:-2]
        new_front = list(out_regs)
        new_rest = [self.regs[i] for i in rest_axes]
        out = out.reshape(lead + tuple(d for _, d in new_front + new_rest))
        # restore: put the new registers at the position of the first input one
        pos = min(axes) if axes else 0
        order_regs = new_rest[:pos] + new_front + new_rest[pos:]
        cur = new_front + new_rest
        s = len(lead)
        perm = list(range(s)) + [s + cur.index(r) for r in order_regs]
        return PureState(order_regs, np.transpose(out, perm), stacked=bool(lead))

    def split(self, label) -> "PureState":
        """The branches along the computational basis of one register, as a
        stack of states without that register (member i for basis state i;
        of a stack, each member's branches in turn). Mixing the branch
        projectors reproduces the dephased state."""
        ax, s = self._axes([label])[0], int(self.stacked)
        rest = [r for i, r in enumerate(self.regs) if i != ax]
        return PureState(rest, np.ascontiguousarray(np.moveaxis(self.tensor, s + ax, s)),
                         stacked=True)

    def marginal(self, keep):
        """Reduced density matrix on ``keep`` (in the listed order), one
        per member of a stack."""
        m, _ = self._moved(self._axes(list(keep)))
        return m @ linalg.dagger(m)

    def density(self) -> "DensityOperator":
        """The density operator of the whole state."""
        keep = sorted(self.labels)
        return DensityOperator([(l, self.dim(l)) for l in keep], self.marginal(keep))


@dataclass(frozen=True, eq=False)
class DensityOperator:
    """PSD unit-trace operator over alphabetically ordered labeled registers.

    The matrix is read-only from construction on (so is the caller's array
    when it is taken without a copy).
    """

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
            try:
                mat = linalg.psd_power(mat, 1.0)
            except linalg.NotHermitianError:
                raise ValueError("density matrix is not Hermitian within 1e-9") from None
            tr = float(mat.trace().real)
            if abs(tr - 1.0) > _ATOL:
                raise ValueError(f"trace {tr} is not 1 within 1e-9")
        mat.flags.writeable = False
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
        return DensityOperator([self.registers[i] for i in idx], sub, validate=False)

    def spectrum(self) -> np.ndarray:
        """The clipped ascending eigenvalues."""
        return linalg.psd_eigvals(self.matrix)

    def purify(self) -> PureState:
        """Pure state on (self x R) whose partial trace gives self back."""
        if "R" in self.labels:
            raise ValueError("reference label 'R' already in use")
        vec = linalg.purify(self.matrix)
        return PureState(list(self.registers) + [("R", vec.size // self.dim)], vec)


@dataclass(frozen=True, eq=False)
class CQState:
    """Classical symbols with their conditionals as one read-only (n, d, d)
    ``stack`` over sorted ``registers``: given as ``DensityOperator``s of one
    register signature, or with ``registers=`` as a stack taken unvalidated.

    The probabilities obey ``kept_symbols``: the symbols it does not keep
    are dropped.
    """

    symbols: tuple
    probs: np.ndarray
    stack: np.ndarray
    registers: tuple

    def __init__(self, symbols, probs, conditionals, registers=None):
        probs = np.asarray(probs, dtype=float)
        keep = np.flatnonzero(kept_symbols(probs)).tolist()
        if registers is None:
            registers = conditionals[0].registers
            if any(c.registers != registers for c in conditionals):
                raise ValueError("conditionals have mismatched register signatures")
            conditionals = [c.matrix for c in conditionals]
        regs = tuple((str(l), int(d)) for l, d in registers)
        if [l for l, _ in regs] != sorted({l for l, _ in regs}):
            raise ValueError(f"registers {regs} are not distinct and sorted")
        stack = np.asarray(conditionals, dtype=complex)
        d = math.prod(d for _, d in regs)
        if stack.shape != (len(probs), d, d):
            raise ValueError(f"stack shape {stack.shape} does not match {len(probs)} "
                             f"symbols over registers {regs}")
        drop = len(keep) < len(probs)
        # probs is copied either way: the caller's array cannot change it
        stack, probs = (stack[keep], probs[keep]) if drop else (stack, probs.copy())
        stack.flags.writeable = probs.flags.writeable = False
        self.__dict__.update(symbols=tuple(symbols[i] for i in keep), probs=probs, stack=stack,
                             registers=regs)

    def __len__(self):
        return len(self.symbols)

    @cached_property
    def spectra(self) -> np.ndarray:
        """Row i is the spectrum of ``stack[i]`` as a ``DensityOperator``'s
        ``spectrum()`` gives it, bit for bit, from one stacked
        eigendecomposition, read-only."""
        w = linalg.psd_eigvals(self.stack)
        w.flags.writeable = False
        return w


def kept_symbols(probs) -> np.ndarray:
    """The rule for the probabilities of a cq state, or of each row of a
    stack of them: ``ValueError`` if one is negative (below -1e-12) or they
    do not sum to 1 within 1e-9; else the mask of the symbols kept, those of
    probability at least 1e-12 (not a NaN: a conditional is undefined at
    measure zero)."""
    # fmin skips NaN: it hides no negative
    if np.fmin.reduce(probs, axis=None, initial=0.0) < -1e-12:
        raise ValueError("negative probabilities")
    sums = probs.sum(axis=-1, keepdims=True)
    off = sums[np.abs(sums - 1.0) > _ATOL]
    if off.size:
        raise ValueError(f"probabilities sum to {off[0]}, not 1")
    return probs >= 1e-12


@dataclass(frozen=True, eq=False)
class Povm:
    """Finite list of PSD operators on one register summing to identity.

    ``eig`` keeps the clipped ascending eigensystems (w, v) of the element
    stack that the PSD check computes (``linalg.psd_eig``'s bits), and
    ``roots`` the stack of sqrt(E) taken from them: every coherent
    measurement of the POVM reads these, and no element is decomposed again.
    """

    labels: tuple
    elements: tuple
    register: str = "A"

    def __init__(self, elements, labels=None, register="A"):
        elems = [np.asarray(e, dtype=complex) for e in elements]
        if not elems:
            raise ValueError("POVM has no elements")
        d = elems[0].shape[0]
        labels = list(range(len(elems)) if labels is None else labels)
        if len(labels) != len(elems):
            raise ValueError("labels/elements length mismatch")
        # an outcome is found by its label (``labels.index``)
        repeated = [lbl for i, lbl in enumerate(labels) if labels.index(lbl) != i]
        if repeated:
            raise ValueError(f"POVM label {repeated[0]!r} is repeated")
        if any(e.shape != (d, d) for e in elems):
            raise ValueError("POVM elements have mismatched shapes")
        try:
            w, v = linalg.eig_hermitian(np.array(elems), _ATOL)
        except linalg.NotHermitianError:
            raise ValueError("POVM element is not Hermitian") from None
        # the tolerance of ``linalg.clip_psd_spectrum``, which the roots' eigensystem takes
        if w.min() < linalg.PSD_CLIP:
            raise ValueError(f"POVM element not PSD: min eig {w.min():.2e}")
        if np.abs(sum(elems) - np.eye(d)).max() > _SUM_TOL:
            raise ValueError("POVM elements do not sum to identity within 1e-8")
        object.__setattr__(self, "labels", tuple(labels))
        object.__setattr__(self, "elements", tuple(elems))
        object.__setattr__(self, "register", str(register))
        object.__setattr__(self, "eig", (linalg.clip_psd_spectrum(w), v))
        object.__setattr__(self, "roots", linalg.eig_power(*self.eig, 0.5))

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
    ``distilled_alice + distilled_bob - borrowed``. A transcript holds what
    ``to_dict`` prints and nothing more: the view and the instance a run
    read keep the rest (chosen k, ``c_norm``, I_max, the environment).
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

    CSV_COLUMNS = ("protocol", "seed", "eps", "distilled_alice", "distilled_bob",
                   "borrowed", "communication", "net_rate", "final_error",
                   "slack_bits", "case")

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
        return {k: getattr(self, k) for k in self.CSV_COLUMNS + ("dims", "rate_bound_real")}


def measure(psi: PureState, elements, reg: str) -> PureState:
    """Measure ``reg`` of a pure state coherently: the sub-normalized
    branches sqrt(E) psi, one per element E in the element order, as one
    stacked state from one stacked root."""
    return psi.apply(linalg.psd_power(np.array(elements), 0.5), [reg])


def branch_ensemble(branches: PureState, labels, keep) -> CQState:
    """The cq state of a stack of measurement branches reduced to the
    registers ``keep``.

    Branch i carries outcome ``labels[i]`` with probability its squared norm
    and the normalized ``keep`` marginal as its conditional. Outcomes with
    probability below 1e-12 are dropped (the conditional is undefined at
    measure zero).
    """
    keep = sorted(keep)
    probs = branches.masses()
    live = probs >= 1e-12
    stack = branches.marginal(keep)[live] / probs[live][:, None, None]
    kept = [lbl for lbl, ok in zip(labels, live.tolist()) if ok]
    return CQState(kept, probs[live] / np.sum(probs[live]), stack,
                   registers=[(l, branches.dim(l)) for l in keep])


def control_state(psi: PureState, povm: Povm, condition_on=("B", "R")) -> CQState:
    """Measure one register of a pure state and collect the outcome ensemble.

    The ``branch_ensemble`` of ``measure``-ing the POVM on its register,
    reduced to ``condition_on``.
    """
    reg = povm.register
    if reg not in psi.labels:
        raise KeyError(f"state has no register {reg!r}")
    if povm.dim != psi.dim(reg):
        raise ValueError(f"POVM dimension {povm.dim} does not match register "
                         f"{reg!r} dimension {psi.dim(reg)}")
    return branch_ensemble(psi.apply(povm.roots, [reg]), povm.labels, condition_on)


def rank1_refine(povm: Povm) -> Povm:
    """Split every POVM element into its rank-1 eigenpieces, those of
    eigenvalue above ``linalg.SUPPORT_TOL``, read from the POVM's ``eig``.

    Output labels are (parent label, eigenindex), eigenvalues descending;
    regrouping by parent label reproduces the parent elements exactly.
    """
    w, v = povm.eig
    xs, js = np.nonzero(w[:, ::-1] > linalg.SUPPORT_TOL)  # j counts from the largest
    at = povm.dim - 1 - js  # its ascending index
    elems = w[xs, at, None, None] * (v[xs, :, at][:, :, None] * np.conj(v[xs, :, at])[:, None])
    return Povm(elems, [(povm.labels[x], j) for x, j in zip(xs.tolist(), js.tolist())],
                register=povm.register)
