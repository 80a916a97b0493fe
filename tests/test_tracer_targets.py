"""The benchmark's tracer (perfbench/tracer.py) patches puredist functions by
name, so each of its targets must still resolve: a refactor that deletes a
traced function fails here, not only in a traced benchmark run."""

import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _targets():
    """The tracer's ``TARGETS`` literal, read from its source without importing it."""
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == [
                "TARGETS"]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"{TRACER} assigns no TARGETS")


def test_every_traced_target_resolves_in_puredist():
    targets = _targets()
    assert len(targets) > 1
    for module, attr in targets:
        owner = importlib.import_module(f"puredist.{module}")
        if "." in attr:  # a method, patched in its class's own namespace
            cls_name, meth = attr.split(".")
            assert callable(vars(getattr(owner, cls_name)).get(meth)), (module, attr)
        else:
            assert callable(getattr(owner, attr, None)), (module, attr)
