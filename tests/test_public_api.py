"""Every public name of the package is run by the package, the demos or the
benchmark: API that only tests call lives in ``tests/``.

The names checked are each module's top-level functions, classes and
UPPER_CASE constants, and the public methods of those classes (``__init__``
only re-exports). A name is used when it appears in the code of
``src/puredist`` outside its own definition (the ``__init__`` re-exports do
not count), ``demos/*.py`` or ``perfbench/*.py``: as an identifier, an
import alias, or a whole string constant, such as the names that
``getattr`` takes and the benchmark tracer's ``"Class.method"`` targets. A
method or property is used only through an attribute access (``x.name``) or
a whole string constant: a bare name of the same spelling, such as a
parameter, binds something else. Docstrings and comments are not uses.
"""

import ast
from collections import defaultdict
from pathlib import Path

import puredist

PACKAGE = Path(puredist.__file__).parent
ROOT = Path(__file__).resolve().parent.parent
# (module, name): why a name with no caller in the scanned code stays
ALLOWED = {
    ("io", "save_state"): "writes the state files that the CLI reads",
    ("io", "save_povm"): "writes the POVM files that the CLI reads",
}
# a function under this decorator registers itself, and the registry runs it:
# verify's checks, run through verify.SUITE
REGISTRAR = "_check"


def _public(name: str) -> bool:
    return not name.startswith("_")


def _registered(node) -> bool:
    return any(isinstance(d, ast.Call) and getattr(d.func, "id", None) == REGISTRAR
               for d in node.decorator_list)


def definitions(tree) -> list:
    """(name, node, owner) of the public top-level functions, classes and
    UPPER_CASE constants of a module, and of the public methods of its
    classes, the decorated registrations left out; ``owner`` is a method's
    class name, None for the others."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and _public(node.name):
            if not _registered(node):
                out.append((node.name, node, None))
            if isinstance(node, ast.ClassDef):
                out += [(f.name, f, node.name) for f in node.body
                        if isinstance(f, ast.FunctionDef) and _public(f.name)]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            out += [(t.id, node, None) for t in targets
                    if isinstance(t, ast.Name) and _public(t.id) and t.id.isupper()]
    return out


def uses(tree) -> list:
    """(name, line, bare) of every identifier, import alias and whole string
    constant in the code of ``tree``; a dotted string also uses each part.
    ``bare`` marks a bare name or an import alias, which cannot reach a
    method. Docstrings and other bare string statements are left out."""
    skip = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
            skip.add(id(node.value))
        elif isinstance(node, ast.JoinedStr):
            skip.update(id(v) for v in node.values)
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.append((node.id, node.lineno, True))
        elif isinstance(node, ast.Attribute):
            out.append((node.attr, node.lineno, False))
        elif isinstance(node, ast.alias):
            out += [(n, node.lineno, True) for n in (node.name, node.asname) if n]
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in skip):
            out += [(n, node.lineno, False) for n in {node.value, *node.value.split(".")}]
    return out


def unused(modules: dict, others: list) -> list:
    """``module.name`` (``module.Class.name`` for a method) of each
    definition in ``modules`` (stem -> source) that no code of ``modules``
    outside its own lines and no source of ``others`` uses."""
    trees = {stem: ast.parse(text) for stem, text in modules.items()}
    where = defaultdict(list)  # name -> (module, line, bare) of each use in the package
    for stem, tree in trees.items():
        for name, line, bare in uses(tree):
            where[name].append((stem, line, bare))
    outside = defaultdict(set)  # name -> the bare flags of its uses in ``others``
    for text in others:
        for name, _, bare in uses(ast.parse(text)):
            outside[name].add(bare)
    dead = []
    for stem, tree in trees.items():
        for name, node, owner in definitions(tree):
            own = range(node.lineno, node.end_lineno + 1)
            # a bare name is never a use of a method
            reach = {False} if owner else {False, True}
            used = bool(outside[name] & reach) or any(
                bare in reach and (s != stem or line not in own)
                for s, line, bare in where[name])
            if not used and (stem, name) not in ALLOWED:
                dead.append(".".join(filter(None, (stem, owner, name))))
    return dead


def test_every_public_name_has_a_caller_outside_the_tests():
    modules = {p.stem: p.read_text() for p in sorted(PACKAGE.glob("*.py"))
               if p.stem != "__init__"}
    others = [p.read_text() for d in ("demos", "perfbench")
              for p in sorted((ROOT / d).glob("*.py"))]
    assert unused(modules, others) == []
    # every allowance names a definition that still exists
    assert all(name in {n for n, _, _ in definitions(ast.parse(modules[module]))}
               for module, name in ALLOWED)


def test_the_scan_flags_a_dead_name_and_counts_only_code(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text(
        '"""Mentions docstring_only in a docstring."""\n'
        "LIMIT = 3\n"
        "def dead():\n"
        "    return dead()\n"
        "def docstring_only():\n"
        "    pass\n"
        "def by_string():\n"
        "    pass\n"
        "class Box:\n"
        "    def run(self):\n"
        '        """docstring_only again."""\n'
        "        return getattr(self, 'by_string')\n"
        "    def unused_method(self):\n"
        "        return Box.unused_method\n"
        "    def shadowed(self):\n"
        "        pass\n"
        "    def by_attribute(self):\n"
        "        pass\n"
        "    def _private(self):\n"
        "        pass\n"
        "def caller(shadowed=None):\n"
        "    # docstring_only in a comment\n"
        '    return "Box.run", LIMIT, shadowed\n')
    others = ["import mod\nmod.caller()\nmod.Box().by_attribute()\n"]
    assert sorted(unused({"mod": src.read_text()}, others)) == [
        "mod.Box.shadowed", "mod.Box.unused_method", "mod.dead", "mod.docstring_only"]
