"""Every name a library module imports is used in that module, and
every private module-level function, class or constant is used
somewhere.

No linter ships with the test extra, so this walks each module's syntax
tree with the standard library: an imported name that no expression
reads, or an underscore-named definition that no module reads, is dead
weight, often left behind when a caller is deleted.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "liegeom"
SOURCES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(tree):
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("path", SOURCES, ids=[p.stem for p in SOURCES])
def test_module_uses_every_name_it_imports(path):
    assert unused_imports(ast.parse(path.read_text())) == []


def test_an_unused_import_is_reported():
    tree = ast.parse("import json\nfrom os import path, sep\nprint(sep)\n")
    assert unused_imports(tree) == [(1, "json"), (2, "path")]


def defined_names(node):
    """The names a module-level statement defines: a function's or a
    class's, or the plain names an assignment binds."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    targets = (node.targets if isinstance(node, ast.Assign) else
               [node.target] if isinstance(node, ast.AnnAssign) else [])
    return [t.id for target in targets for t in ast.walk(target)
            if isinstance(t, ast.Name) and isinstance(t.ctx, ast.Store)]


def unread_private_definitions(trees):
    """(module, line, name) of each underscore-named module-level
    function, class or assigned constant, dunders aside, that no module
    reads, by name or as an attribute."""
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif (isinstance(node, ast.Attribute)
                  and isinstance(node.ctx, ast.Load)):
                read.add(node.attr)
    return sorted((module, node.lineno, name)
                  for module, tree in trees.items() for node in tree.body
                  for name in defined_names(node)
                  if name.startswith("_") and not name.endswith("__")
                  and name not in read)


def test_package_reads_every_private_definition():
    trees = {p.stem: ast.parse(p.read_text())
             for p in sorted(PACKAGE.glob("*.py"))}
    assert unread_private_definitions(trees) == []


def test_an_unread_private_definition_is_reported():
    trees = {"a": ast.parse("def _used(): pass\ndef _dead(): pass\n"
                            "class _Gone: pass\ndef public(): pass\n"
                            "_LIMIT = 3\n_READ, _UNREAD = 1, 2\n"
                            "_TYPED: int = 4\nPUBLIC = _READ\n"
                            "__all__ = []\n"),
             "b": ast.parse("import a\na._used()\n")}
    assert unread_private_definitions(trees) == [
        ("a", 2, "_dead"), ("a", 3, "_Gone"), ("a", 5, "_LIMIT"),
        ("a", 6, "_UNREAD"), ("a", 7, "_TYPED")]
