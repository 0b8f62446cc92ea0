"""The library's names: every public name has a caller and every import a use."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = sorted((ROOT / "src" / "xproplab").glob("*.py"))
CALLERS = [p for p in LIBRARY if p.name != "__init__.py"] + sorted(
    (ROOT / "perfbench").glob("*.py"))


def _public_definitions(path):
    """(name, line) of each public module-level function and class, and of each
    public method of a module-level class."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, functions + (ast.ClassDef,)) and not node.name.startswith("_"):
            yield node.name, node.lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, functions) and not item.name.startswith("_"):
                    yield item.name, item.lineno


def test_every_public_function_has_a_caller():
    lines = {path: path.read_text(encoding="utf-8").splitlines() for path in CALLERS}
    uncalled = []
    for path in LIBRARY:
        for name, lineno in _public_definitions(path):
            word = re.compile(rf"\b{re.escape(name)}\b")
            if not any(word.search(line) for caller, text in lines.items()
                       for i, line in enumerate(text, start=1)
                       if (caller, i) != (path, lineno)):
                uncalled.append(f"{path.name}:{lineno} {name}")
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
