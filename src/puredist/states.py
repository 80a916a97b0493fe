"""Typed states, POVMs and the coherent measurement over labeled registers.

Registers are (label, dimension) pairs. A ``DensityOperator`` canonicalizes
its tensor order alphabetically by label at construction so partial traces
are unambiguous; the lighter ``PureState`` keeps an explicit register order
and is the working representation inside protocol simulations.

Each object that holds an operator owns its one eigensystem, the clipped
ascending (w, v) of ``linalg.psd_eig``, decomposed on first use, kept
read-only and read by every caller: a ``DensityOperator``'s ``eig`` (its
spectrum and its purification), a ``PureState``'s marginals per register
list with theirs (``reduced``), a ``CQState``'s ``eig`` of its
conditionals (their spectra and the codes built on them), and a ``Povm``'s
``eig``, which its check computes, with the roots sqrt(E) taken from it
that every coherent measurement and refinement of it reads.
"""

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import linalg

_ATOL = 1e-9
_SUM_TOL = 1e-8


def _frozen(*arrays) -> tuple:
    """The arrays, made read-only: a kept array that callers share."""
    for a in arrays:
        a.flags.writeable = False
    return arrays


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
    ``reduced`` keeps a marginal and its eigensystem per register list, so
    every reader of one state shares one decomposition.
    """

    def __init__(self, regs, vec, stacked=False):
        self.regs = [(str(l), int(d)) for l, d in regs]
        self.stacked = stacked
        dims = tuple(d for _, d in self.regs)
        self.tensor = np.asarray(vec, dtype=complex).reshape(((-1,) if stacked else ()) + dims)
        labels = [l for l, _ in self.regs]
        if len(set(labels)) != len(labels):
            raise ValueError(f"duplicate register labels: {labels}")
        self._kept = {}

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

    def reduced(self, keep) -> tuple:
        """(m, w, v): the marginal m on ``keep`` (in the listed order) and its
        clipped ascending eigensystem (``linalg.psd_eig``), computed on the
        first call for those registers and dimensions and kept read-only."""
        key = tuple((l, self.dim(l)) for l in keep)
        if key not in self._kept:
            m = self.marginal(keep)
            self._kept[key] = _frozen(m, *linalg.psd_eig(m))
        return self._kept[key]

    def padded(self, label, bits: int) -> "PureState":
        """This state with |0>^bits appended to register ``label`` (its basis
        state a becomes a 2^bits), an isometry on it that leaves every other
        marginal as it is: the padded state shares this one's ``reduced``
        cache, whose keys hold the registers' dimensions."""
        d = self.dim(label)
        out = self.apply(np.eye(d << bits, dtype=complex)[:, ::2 ** bits], [label],
                         out_regs=[(label, d << bits)])
        out._kept = self._kept
        return out

    def density(self) -> "DensityOperator":
        """The density operator of the whole state."""
        keep = sorted(self.labels)
        return DensityOperator([(l, self.dim(l)) for l in keep], self.marginal(keep))


@dataclass(frozen=True, eq=False)
class DensityOperator:
    """PSD unit-trace operator over alphabetically ordered labeled registers.

    The matrix is read-only from construction on (so is the caller's array
    when it is taken without a copy). ``eig`` is its one eigensystem, which
    ``spectrum`` and ``purify`` read. The constructor's check decomposes the
    matrix it is given, not the one it keeps, so ``eig`` is another call.
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
        self.__dict__.update(registers=tuple(regs), matrix=_frozen(mat)[0])

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

    @cached_property
    def eig(self) -> tuple:
        """The clipped ascending eigensystem (w, v) of the matrix
        (``linalg.psd_eig``), read-only."""
        return _frozen(*linalg.psd_eig(self.matrix))

    def spectrum(self) -> np.ndarray:
        """The clipped ascending eigenvalues, ``eig``'s (read-only)."""
        return self.eig[0]

    def purify(self) -> PureState:
        """Pure state on (self x R) whose partial trace gives self back."""
        if "R" in self.labels:
            raise ValueError("reference label 'R' already in use")
        vec = linalg.purify(*self.eig)
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
    def eig(self) -> tuple:
        """The clipped ascending eigensystems (w, v) of the conditionals, from
        one stacked ``linalg.psd_eig``, read-only."""
        return _frozen(*linalg.psd_eig(self.stack))

    # row i is the spectrum of ``stack[i]`` as a ``DensityOperator``'s
    # ``spectrum()`` gives it, bit for bit: ``eig``'s (read-only)
    spectra = property(lambda self: self.eig[0])


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
    stack that the PSD check computes (``linalg.psd_eig``'s bits, read-only), and
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
        eig = _frozen(linalg.clip_psd_spectrum(w), v)
        self.__dict__.update(labels=tuple(labels), elements=tuple(elems), register=str(register),
                             eig=eig, roots=linalg.eig_power(*eig, 0.5))

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
