"""Checks over the package's source.

The package's own modules import each other at module level only: a
relative import inside a function hides a dependency between modules,
often an import cycle worked around. Lazy imports of the standard library
and of third-party packages stay allowed; they keep start-up cheap.

FLOP accounting has one path: a counter is never None (tensor.NO_FLOPS
is the default that keeps no count), so no kernel branches on a missing
counter. A counter is only written while work runs: only the counter
classes and pipeline._Setting.report read one, so work on any thread may
charge it."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "docprune"


def _trees():
    for path in sorted(SRC.glob("*.py")):
        yield path, ast.parse(path.read_text(), filename=str(path))


def test_no_relative_import_inside_a_function():
    lazy = []
    for path, tree in _trees():
        lazy += [f"{path.name}:{node.lineno}"
                 for fn in ast.walk(tree)
                 if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                 for node in ast.walk(fn)
                 if isinstance(node, ast.ImportFrom) and node.level > 0]
    assert not lazy, f"relative imports inside functions: {lazy}"


def test_no_counter_defaults_to_none():
    found = []
    for path, tree in _trees():
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            a = fn.args
            positional = a.posonlyargs + a.args
            pairs = [*zip(positional[len(positional) - len(a.defaults):],
                          a.defaults), *zip(a.kwonlyargs, a.kw_defaults)]
            found += [f"{path.name}:{fn.lineno} {fn.name}"
                      for arg, default in pairs
                      if arg.arg == "counter"
                      and isinstance(default, ast.Constant)
                      and default.value is None]
        found += [f"{path.name}:{node.lineno} flop_category"
                  for node in ast.walk(tree)
                  if "flop_category" in (getattr(node, f, None)
                                         for f in ("name", "id", "attr"))]
    assert not found, f"optional FLOP counters: {found}"


# (module, qualified class or function name) that may read a counter
COUNTER_READERS = {("tensor.py", "FlopCounter"), ("tensor.py", "SharedFlops"),
                   ("pipeline.py", "_Setting.report")}


def _scopes(node, prefix=""):
    """(qualified name, node) of every class and function under node."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
            yield prefix + child.name, child
            yield from _scopes(child, f"{prefix}{child.name}.")


def _is_counter(node) -> bool:
    text = ast.unparse(node).lower()
    return "counter" in text or "flops" in text


def test_only_the_report_reads_a_counter():
    found = []
    for path, tree in _trees():
        allowed = {id(node) for name, scope in _scopes(tree)
                   if (path.name, name) in COUNTER_READERS
                   for node in ast.walk(scope)}
        for node in ast.walk(tree):
            if id(node) in allowed or not isinstance(node, ast.Attribute):
                continue
            if node.attr == "by_category" or (
                    node.attr in ("get", "total") and _is_counter(node.value)):
                found.append(f"{path.name}:{node.lineno} .{node.attr}")
    assert not found, f"counters read outside the report: {found}"


LAYOUT_TYPES = ("ContentRegion", "LayoutSpec")
PLANNER = ("plan_layout", "_flow_rows", "_fill_column")


def test_layouts_are_built_only_by_the_planner():
    planned, elsewhere = [], []
    for path, tree in _trees():
        planner = {id(node) for fn in ast.walk(tree)
                   if isinstance(fn, ast.FunctionDef)
                   and path.name == "synthdoc.py" and fn.name in PLANNER
                   for node in ast.walk(fn)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and getattr(
                    node.func, "id", getattr(node.func, "attr", None)
            ) in LAYOUT_TYPES:
                where = planned if id(node) in planner else elsewhere
                where.append(f"{path.name}:{node.lineno}")
    assert planned, "the planner builds no layout"
    assert not elsewhere, f"layouts built outside the planner: {elsewhere}"
