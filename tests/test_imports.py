"""Checks over the package's source.

The package's own modules import each other at module level only: a
relative import inside a function hides a dependency between modules,
often an import cycle worked around. Lazy imports of the standard library
and of third-party packages stay allowed; they keep start-up cheap.

Rows are cut into parts by one rule: slice() is called only in
tensor.row_parts.

A model or grid is built only where its parts were just made, so neither
checks its own shapes: EncoderModel only in encoder.encoder_init (from a
checked config), TokenGrid only in patching.partition and the encoder's
window_pass, gated_block and merge_patches (from the tokens each computed).

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


def _builds(types, builders) -> tuple[list[str], list[str]]:
    """Where a call builds one of types: (inside, outside) the functions
    builders names as (module, qualified name)."""
    inside, outside = [], []
    for path, tree in _trees():
        allowed = {id(node) for name, scope in _scopes(tree)
                   if (path.name, name) in builders
                   for node in ast.walk(scope)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and getattr(
                    node.func, "id", getattr(node.func, "attr", None)
            ) in types:
                where = inside if id(node) in allowed else outside
                where.append(f"{path.name}:{node.lineno}")
    return inside, outside


LAYOUT_TYPES = ("ContentRegion", "LayoutSpec")
PLANNER = ("plan_layout", "_flow_rows", "_fill_column")


def test_layouts_are_built_only_by_the_planner():
    planned, elsewhere = _builds(LAYOUT_TYPES,
                                 {("synthdoc.py", fn) for fn in PLANNER})
    assert planned, "the planner builds no layout"
    assert not elsewhere, f"layouts built outside the planner: {elsewhere}"


# type -> the (module, function) pairs that may build one
BUILDERS = {
    "EncoderModel": {("encoder.py", "encoder_init")},
    "TokenGrid": {("patching.py", "partition"), ("encoder.py", "window_pass"),
                  ("encoder.py", "gated_block"),
                  ("encoder.py", "merge_patches")},
}


def test_models_and_grids_are_built_only_by_their_builders():
    for kind, builders in BUILDERS.items():
        built, elsewhere = _builds((kind,), builders)
        assert built, f"no {kind} is built"
        assert not elsewhere, f"{kind} built outside {builders}: {elsewhere}"


def test_only_row_parts_cuts_rows():
    found = []
    for path, tree in _trees():
        rule = {id(node) for name, scope in _scopes(tree)
                if (path.name, name) == ("tensor.py", "row_parts")
                for node in ast.walk(scope)}
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Call)
                  and getattr(node.func, "id", None) == "slice"
                  and id(node) not in rule]
    assert not found, f"rows cut outside tensor.row_parts: {found}"
