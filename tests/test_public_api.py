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

Every parameter with a default of those functions and methods is set by
some call in the same code: a call ``name(...)`` or ``x.name(...)`` (a
method only the latter) that passes it by position or by keyword, or
through ``*args`` or ``**kwargs``. A default that no call overrides is a
constant.

Every annotated field of a ``@dataclass`` of the package is read by the
same code: through an attribute access (``x.field``) or a whole string
constant, as a method is used. A constructor keyword only writes the field,
and a string constant in a dataclass's own ``__post_init__`` only names a
field that the constructor validates, so neither is a read: a field that
nothing reads is data that no caller needs.
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
# (module, function, parameter): why a default that no call in the scanned code
# overrides stays a parameter
ALLOWED_PARAMETERS = {
    ("states", "control_state", "condition_on"):
        "the benchmark tracer wraps control_state by name, so it leaves with the tracer",
}
# (module, class, field): why a dataclass field that no code in the scan reads stays
ALLOWED_FIELDS = {
    ("entropy", "ImaxResult", "converged"): "ROADMAP item 2's trace records read them",
    ("entropy", "ImaxResult", "newton_steps"): "ROADMAP item 2's trace records read them",
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


def uses(tree, skip=()) -> list:
    """(name, line, bare) of every identifier, import alias and whole string
    constant in the code of ``tree``; a dotted string also uses each part.
    ``bare`` marks a bare name or an import alias, which cannot reach a
    method. Docstrings and other bare string statements are left out, and
    so are the nodes whose ids ``skip`` holds."""
    skip = set(skip)
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


def defaulted(node, method: bool) -> list:
    """(name, position) of each parameter of a function node that has a
    default, position None for a keyword-only one; a method's first
    parameter (``self``, ``cls``) is not counted, a staticmethod's is."""
    a = node.args
    static = any(getattr(d, "id", None) == "staticmethod" for d in node.decorator_list)
    positional = a.posonlyargs + a.args
    skip = int(method and not static)
    out = [(p.arg, i - skip) for i, p in enumerate(positional)
           if i >= len(positional) - len(a.defaults)]
    return out + [(p.arg, None) for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]


def calls(tree) -> list:
    """(name, attribute, positional count, keywords) of every call in
    ``tree`` to a bare name or an attribute; ``*args`` counts as every
    position and ``**kwargs`` as every keyword (None)."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
            attr = isinstance(node.func, ast.Attribute)
            star = any(isinstance(x, ast.Starred) for x in node.args)
            kws = {k.arg for k in node.keywords}
            out.append((node.func.attr if attr else node.func.id, attr,
                        float("inf") if star else len(node.args), None if None in kws else kws))
    return out


def unset(modules: dict, others: list) -> list:
    """``module.name(param)`` (``module.Class.name(param)`` for a method) of
    each parameter with a default, of each function and method that
    ``definitions`` finds in ``modules``, that no call in ``modules`` or
    ``others`` passes."""
    found = defaultdict(list)  # name -> (attribute, positional count, keywords)
    for text in [*modules.values(), *others]:
        for name, attr, n, kws in calls(ast.parse(text)):
            found[name].append((attr, n, kws))
    dead = []
    for stem, text in modules.items():
        for name, node, owner in definitions(ast.parse(text)):
            if not isinstance(node, ast.FunctionDef):
                continue
            for param, pos in defaulted(node, owner is not None):
                passed = any((attr or not owner) and (
                    (pos is not None and n > pos) or kws is None or param in kws)
                    for attr, n, kws in found[name])
                if not passed and (stem, name, param) not in ALLOWED_PARAMETERS:
                    dead.append(".".join(filter(None, (stem, owner, name))) + f"({param})")
    return dead


def dataclasses(tree) -> list:
    """The ``@dataclass`` class nodes of a module, a decorator with arguments included."""
    def dataclass(d):
        return getattr(d.func if isinstance(d, ast.Call) else d, "id", None) == "dataclass"

    return [node for node in tree.body
            if isinstance(node, ast.ClassDef) and any(map(dataclass, node.decorator_list))]


def fields(tree) -> list:
    """(class, field) of each annotated field of the ``@dataclass`` classes of a module."""
    return [(node.name, f.target.id) for node in dataclasses(tree)
            for f in node.body if isinstance(f, ast.AnnAssign) and isinstance(f.target, ast.Name)]


def validated(tree) -> set:
    """The ids of the string constants in the ``__post_init__`` of each
    ``@dataclass`` of a module: the field names that its constructor checks."""
    return {id(c) for node in dataclasses(tree) for f in node.body
            if isinstance(f, ast.FunctionDef) and f.name == "__post_init__"
            for c in ast.walk(f) if isinstance(c, ast.Constant)}


def unread(modules: dict, others: list) -> list:
    """``module.Class.field`` of each dataclass field of ``modules`` that no
    attribute access or whole string constant of ``modules`` or ``others``
    reads, the constants of a dataclass's own ``__post_init__`` left out."""
    trees = map(ast.parse, [*modules.values(), *others])
    read = {name for tree in trees for name, _, bare in uses(tree, validated(tree)) if not bare}
    return [f"{stem}.{cls}.{name}" for stem, text in modules.items()
            for cls, name in fields(ast.parse(text))
            if name not in read and (stem, cls, name) not in ALLOWED_FIELDS]


def scanned():
    """The package's modules (stem -> source) and the sources of the demos
    and the benchmark that the scans read."""
    modules = {p.stem: p.read_text() for p in sorted(PACKAGE.glob("*.py"))
               if p.stem != "__init__"}
    others = [p.read_text() for d in ("demos", "perfbench")
              for p in sorted((ROOT / d).glob("*.py"))]
    return modules, others


def test_every_public_name_has_a_caller_outside_the_tests():
    modules, others = scanned()
    assert unused(modules, others) == []
    # every allowance names a definition that still exists
    assert all(name in {n for n, _, _ in definitions(ast.parse(modules[module]))}
               for module, name in ALLOWED)


def test_every_parameter_default_is_overridden_by_some_call():
    modules, others = scanned()
    assert unset(modules, others) == []
    # every allowance names a defaulted parameter that still exists
    for module, name, param in ALLOWED_PARAMETERS:
        nodes = [node for n, node, _ in definitions(ast.parse(modules[module])) if n == name]
        assert any(param in {p for p, _ in defaulted(node, False)} for node in nodes)


def test_every_dataclass_field_is_read_outside_the_tests():
    modules, others = scanned()
    assert unread(modules, others) == []
    # every allowance names a dataclass field that still exists
    for module, cls, name in ALLOWED_FIELDS:
        assert (cls, name) in fields(ast.parse(modules[module]))


def test_the_field_scan_counts_reads_not_constructor_keywords():
    module = ("from dataclasses import dataclass, field\n"
              "@dataclass\n"
              "class Rec:\n"
              "    by_attribute: int\n"
              "    by_string: int\n"
              "    by_keyword: int\n"
              "    by_name: int = 0\n"
              "    LIMIT = 3\n"
              "@dataclass(eq=False)\n"
              "class Other:\n"
              "    never: dict = field(default_factory=dict)\n"
              "class Plain:\n"
              "    skipped: int\n"
              "def make(by_name):\n"
              "    r = Rec(1, 2, by_keyword=3, by_name=by_name)\n"
              "    return r.by_attribute, getattr(r, 'by_string')\n")
    assert sorted(unread({"mod": module}, [])) == [
        "mod.Other.never", "mod.Rec.by_keyword", "mod.Rec.by_name"]


def test_the_field_scan_counts_no_name_that_a_post_init_validates():
    module = ("from dataclasses import dataclass\n"
              "@dataclass\n"
              "class Rec:\n"
              "    validated_only: float\n"
              "    read_too: float\n"
              "    def __post_init__(self):\n"
              "        for f in ('validated_only', 'read_too'):\n"
              "            if getattr(self, f) < 0:\n"
              "                raise ValueError(f)\n"
              "class Plain:\n"
              "    def __post_init__(self):\n"
              "        return getattr(self, 'named_by_plain')\n"
              "@dataclass\n"
              "class Other:\n"
              "    named_by_plain: int\n"
              "def show(r):\n"
              "    return r.read_too\n")
    assert unread({"mod": module}, []) == ["mod.Rec.validated_only"]


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


def test_the_parameter_scan_flags_a_default_that_no_call_sets(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text(
        "def f(x, by_position=1, by_keyword=2, never=3, *, only_keyword=4):\n"
        "    return f(x, 5, by_keyword=6)\n"
        "def g(a=0, b=1):\n"
        "    pass\n"
        "def h(a=0):\n"
        "    pass\n"
        "def _private(a=0):\n"
        "    pass\n"
        "class Box:\n"
        "    def by_method(self, a=0, b=1):\n"
        "        pass\n"
        "    def bare(self, a=0):\n"
        "        pass\n"
        "    @staticmethod\n"
        "    def static(a=0):\n"
        "        pass\n"
        "def bare(a=0):\n"
        "    pass\n")
    others = ["import mod\n"
              "mod.g(*[1, 2])\n"
              "mod.h(**{'a': 1})\n"
              "mod.Box().by_method(7)\n"
              "mod.Box.static(8)\n"
              "bare(9)\n"]
    # a bare call reaches the function ``bare``, never the method ``Box.bare``
    assert sorted(unset({"mod": src.read_text()}, others)) == [
        "mod.Box.bare(a)", "mod.Box.by_method(b)", "mod.f(never)", "mod.f(only_keyword)"]
