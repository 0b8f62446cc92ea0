"""The library's names: every public name has a caller and every import a use."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = sorted((ROOT / "src" / "xproplab").glob("*.py"))
CALLERS = [p for p in LIBRARY if p.name != "__init__.py"] + sorted(
    (ROOT / "perfbench").glob("*.py"))


def _public_definitions(path):
    """(name, line, kind) of each public module-level function and class (kind
    "function"), and of each public method or property of a module-level class."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, functions + (ast.ClassDef,)) and not node.name.startswith("_"):
            yield node.name, node.lineno, "function"
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, functions) and not item.name.startswith("_"):
                    is_property = any(isinstance(d, ast.Name) and d.id == "property"
                                      for d in item.decorator_list)
                    yield item.name, item.lineno, "property" if is_property else "method"


def _wrapper_table_names(tree):
    """The attribute names in perfbench's wrapper table: the second entry of each
    ``(namespace, "name", ...)`` tuple in ``_wrapper_table``, which it looks up by
    name."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name == "_wrapper_table":
            for item in ast.walk(node):
                if (isinstance(item, ast.Tuple) and len(item.elts) > 1
                        and isinstance(item.elts[1], ast.Constant)
                        and isinstance(item.elts[1].value, str)):
                    yield item.elts[1].value


def _uses(paths):
    """What the modules at ``paths`` use, by kind: "method" the attributes they
    call as ``.name(...)``, "property" every attribute they access, and
    "function" those and every name they load, plus the wrapper table's names."""
    called, attributes, loaded = set(), set(), set()
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                called.add(node.func.attr)
            if isinstance(node, ast.Attribute):
                attributes.add(node.attr)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
        table = set(_wrapper_table_names(tree))
        called |= table
        attributes |= table
    return {"method": called, "property": attributes, "function": attributes | loaded}


def test_every_public_function_has_a_caller():
    uses = _uses(CALLERS)  # a definition is not a use of its own name
    uncalled = [f"{path.name}:{lineno} {kind} {name}" for path in LIBRARY
                for name, lineno, kind in _public_definitions(path) if name not in uses[kind]]
    assert not uncalled, ("public names that no library module and no perfbench "
                          "file uses: " + ", ".join(uncalled))


def _imported_names(tree):
    """(name, line) of each name bound by a module-level import, except
    ``from __future__`` imports."""
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield (alias.asname or alias.name).split(".")[0], node.lineno


def test_no_unused_imports():
    unused = []
    for path in LIBRARY:
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        used |= {node.value.id for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)}
        unused += [f"{path.name}:{lineno} {name}" for name, lineno in _imported_names(tree)
                   if name not in used]
    assert not unused, "imported names the module never uses: " + ", ".join(unused)
