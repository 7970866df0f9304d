"""Every name a library module imports is used in that module.

No linter ships with the test extra, so this walks each module's syntax
tree with the standard library: an imported name that no expression
reads is dead weight, often left behind when a caller is deleted.
"""

import ast
from pathlib import Path

import pytest

SOURCES = sorted(p for p in (Path(__file__).resolve().parent.parent / "src"
                             / "liegeom").glob("*.py")
                 if p.name != "__init__.py")


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
