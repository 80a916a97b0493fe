"""JSON/CSV serialization with deterministic formatting.

States: {"registers": [{"label": "A", "dim": 2}, ...],
         "matrix": [[re, im], ...]}  (row-major pairs)
POVMs:  {"elements": [matrix, ...], "register": "A", "labels": [...]}

JSON numbers are emitted with 17 significant digits, CSV uses '.' decimals
regardless of locale, and keys are sorted, so identical inputs produce
byte-identical outputs.
"""

import json

import numpy as np

from .states import DensityOperator, Povm


def matrix_to_pairs(mat: np.ndarray) -> list:
    return [[float(np.real(z)), float(np.imag(z))]
            for z in np.asarray(mat, dtype=complex).reshape(-1)]


def pairs_to_matrix(pairs, dim: int) -> np.ndarray:
    flat = np.array([complex(re, im) for re, im in pairs])
    if flat.size != dim * dim:
        raise ValueError(f"matrix has {flat.size} entries, expected {dim * dim}")
    return flat.reshape(dim, dim)


def state_to_dict(state: DensityOperator) -> dict:
    return {
        "registers": [{"label": l, "dim": d} for l, d in state.registers],
        "matrix": matrix_to_pairs(state.matrix),
    }


def _json_object(d, kind: str) -> dict:
    if not isinstance(d, dict):
        raise ValueError(f"{kind} JSON must be an object, got {type(d).__name__}")
    return d


def _field(d: dict, kind: str, name: str, parse):
    """``parse(d[name])``, a missing or malformed value raising a ValueError
    that names the field."""
    if name not in d:
        raise ValueError(f"{kind} field {name!r} is missing")
    try:
        return parse(d[name])
    except (TypeError, ValueError, KeyError) as exc:
        raise ValueError(f"{kind} field {name!r} is malformed: {exc}") from None


def _positive_dim(dim) -> int:
    dim = int(dim)
    if dim < 1:
        raise ValueError(f"dimension must be at least 1, got {dim}")
    return dim


def state_from_dict(d: dict) -> DensityOperator:
    d = _json_object(d, "state")
    regs = _field(d, "state", "registers",
                  lambda rs: [(r["label"], _positive_dim(r["dim"])) for r in rs])
    total = int(np.prod([dim for _, dim in regs]))
    return DensityOperator(regs, _field(d, "state", "matrix",
                                        lambda m: pairs_to_matrix(m, total)))


def povm_to_dict(povm: Povm) -> dict:
    return {
        "register": povm.register,
        "labels": [str(l) for l in povm.labels],
        "elements": [matrix_to_pairs(e) for e in povm.elements],
    }


def _povm_matrices(elems) -> list:
    if not elems:
        return []  # Povm rejects it by name
    dim = _positive_dim(round(np.sqrt(len(elems[0]))))
    return [pairs_to_matrix(e, dim) for e in elems]


def povm_from_dict(d: dict) -> Povm:
    d = _json_object(d, "POVM")
    elements = _field(d, "POVM", "elements", _povm_matrices)
    labels = d.get("labels")  # null keeps the default labels 0..n-1
    if labels is not None and not (isinstance(labels, list) and len(labels) == len(elements)):
        raise ValueError(f"POVM field 'labels' must be null or a list of {len(elements)} labels")
    register = d.get("register", "A")
    if not isinstance(register, str):
        raise ValueError("POVM field 'register' is malformed: expected a string, "
                         f"got {type(register).__name__}")
    return Povm(elements, labels=labels, register=register)


def load_state(path: str) -> DensityOperator:
    with open(path) as fh:
        return state_from_dict(json.load(fh))


def load_povm(path: str) -> Povm:
    with open(path) as fh:
        return povm_from_dict(json.load(fh))


def save_state(state: DensityOperator, path: str):
    with open(path, "w") as fh:
        fh.write(dumps(state_to_dict(state)))


def save_povm(povm: Povm, path: str):
    with open(path, "w") as fh:
        fh.write(dumps(povm_to_dict(povm)))


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        v = float(value)
        if np.isnan(v):
            return '"nan"'
        if np.isinf(v):
            return '"inf"' if v > 0 else '"-inf"'
        return format(v, ".17g")
    if value is None:
        return "null"
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, dict):
        inner = ",".join(f"{json.dumps(str(k))}:{_fmt(v)}"
                         for k, v in sorted(value.items(), key=lambda kv: str(kv[0])))
        return "{" + inner + "}"
    if isinstance(value, (list, tuple, np.ndarray)):
        seq = value.tolist() if isinstance(value, np.ndarray) else value
        return "[" + ",".join(_fmt(v) for v in seq) + "]"
    raise TypeError(f"cannot serialize {type(value)}")


def dumps(obj) -> str:
    """Deterministic JSON: sorted keys, floats at 17 significant digits."""
    return _fmt(obj)


def csv_cell(value) -> str:
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    return str(value)


def csv_text(columns, rows) -> str:
    """The CSV text of ``rows``: a header line of ``columns``, then one line per row."""
    return "".join(",".join(csv_cell(v) for v in line) + "\n" for line in [columns, *rows])
