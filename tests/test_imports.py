"""The package's own modules import each other at module level only: a
relative import inside a function hides a dependency between modules,
often an import cycle worked around. Lazy imports of the standard library
and of third-party packages stay allowed; they keep start-up cheap."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "docprune"


def test_no_relative_import_inside_a_function():
    lazy = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        lazy += [f"{path.name}:{node.lineno}"
                 for fn in ast.walk(tree)
                 if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                 for node in ast.walk(fn)
                 if isinstance(node, ast.ImportFrom) and node.level > 0]
    assert not lazy, f"relative imports inside functions: {lazy}"
