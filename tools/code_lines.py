"""Print the code lines of each ``src/puredist`` module and their total.

A code line is a line that is not blank, not a comment alone and not part
of a docstring (the string that opens a module, class or function body).

    python3 tools/code_lines.py [SRC_DIR]

SRC_DIR defaults to the ``src/puredist`` next to this script's directory.
"""

import ast
import sys
from pathlib import Path


def docstring_lines(tree) -> set:
    """The line numbers that the docstrings of ``tree`` span."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    text = path.read_text()
    skip = docstring_lines(ast.parse(text))
    return sum(1 for no, line in enumerate(text.splitlines(), 1)
               if no not in skip and line.strip() and not line.strip().startswith("#"))


def main(argv) -> int:
    src = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src" / "puredist"
    total = 0
    for path in sorted(src.glob("*.py")):
        n = code_lines(path)
        total += n
        print(f"{path.stem:12s} {n:5d}")
    print(f"{'total':12s} {total:5d}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
