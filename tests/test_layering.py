"""The package's modules form layers: each imports only modules of lower rank,
and only at module level, so the imports form a DAG in this order."""

import ast
from pathlib import Path

import puredist

RANK = {"linalg": 0, "states": 1, "entropy": 2, "io": 2, "sampling": 2, "compression": 3,
        "protocols": 4, "bounds": 5, "verify": 6, "cli": 7}
PACKAGE = Path(puredist.__file__).parent


def package_imports(tree) -> list:
    """(line, module) of every import of a ``puredist`` module in ``tree``,
    relative (``from . import x``, ``from .x import y``) or absolute."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            base = ("puredist." * node.level + (node.module or "")).rstrip(".")
            names = [f"{base}.{a.name}" for a in node.names] if base == "puredist" else [base]
        elif isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        else:
            continue
        out += [(node.lineno, n.split(".")[1]) for n in names if n.startswith("puredist.")]
    return out


def test_every_module_has_a_rank():
    assert {p.stem for p in PACKAGE.glob("*.py")} == set(RANK) | {"__init__"}


def test_modules_import_only_lower_ranks():
    bad = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem == "__init__":  # the package re-exports from above every module
            continue
        for line, module in package_imports(ast.parse(path.read_text(), str(path))):
            if RANK[module] >= RANK[path.stem]:
                bad.append(f"{path.name}:{line} imports {module}")
    assert not bad


def test_no_module_imports_inside_a_function():
    bad = []
    for path in sorted(PACKAGE.glob("*.py")):
        for func in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                bad += [f"{path.name}:{node.lineno} in {getattr(func, 'name', 'lambda')}"
                        for node in ast.walk(func)
                        if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert not bad
