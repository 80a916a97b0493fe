"""Every module of ``src/``, ``tests/``, ``demos/`` and ``tools/`` uses each
name it imports.

An import binds a name: its alias, or the first part of a dotted module
(``import a.b`` binds ``a``). The name is used when it appears as an
identifier anywhere in the module's code, so ``a.b.f()`` uses ``a``.
Docstrings, comments and strings are not uses. An import marked
``# noqa: F401`` is kept for its side effect, and the package's
``__init__.py`` imports only to re-export, so neither is checked.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DIRS = ("src", "tests", "demos", "tools")


def unused_imports(text: str) -> list:
    """(line, name) of each name that an import in the module source
    ``text`` binds and its code never uses, in line order, the names on a
    line marked ``# noqa: F401`` left out."""
    tree, lines = ast.parse(text), text.splitlines()
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        for alias in node.names:  # each on its own line of a parenthesized import
            name = alias.asname or alias.name.split(".")[0]
            if name not in used and "# noqa: F401" not in lines[alias.lineno - 1]:
                out.append((alias.lineno, name))
    return sorted(out)


def test_no_module_imports_a_name_it_never_uses():
    found = {str(path.relative_to(ROOT)): unused
             for d in DIRS for path in sorted((ROOT / d).rglob("*.py"))
             if path.name != "__init__.py" and (unused := unused_imports(path.read_text()))}
    assert found == {}


def test_the_scan_flags_an_unused_import_and_counts_only_code(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text(
        '"""Mentions json and re in a docstring."""\n'
        "import json\n"
        "import os.path\n"
        "import re  # noqa: F401  (imported for its side effect)\n"
        "import numpy as np\n"
        "from collections import (\n"
        "    OrderedDict,\n"
        "    deque,  # noqa: F401\n"
        ")\n"
        "from itertools import chain as join, count\n"
        "def f():\n"
        "    from math import pi, tau\n"
        "    # count in a comment\n"
        "    return os.path.join('count'), np.pi, join, tau\n")
    assert unused_imports(src.read_text()) == [
        (2, "json"), (7, "OrderedDict"), (10, "count"), (12, "pi")]
