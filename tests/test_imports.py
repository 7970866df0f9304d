"""Every name a library module imports is used in that module, every
private module-level function, class or constant and every private
method of a library class is used somewhere, and every public function
or class is exported or read somewhere.

No linter ships with the test extra, so this walks each module's syntax
tree with the standard library: an imported name that no expression
reads, or an underscore-named definition that no module reads by name
or through the module, is dead weight, often left behind when a caller
is deleted.  So is an underscore-named method or cached property, such
as a view a Tensor caches, that nothing in the library reads as an
attribute, and a public function or class that the package root does
not export and that nothing in the library, the demos or the benchmark
reads; a test alone does not keep it.  The checker, check.py, imports
from the package only what its import rule allows, so no recheck can
call a verdict kernel.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "liegeom"
# the tests are no reader: a public name only a test calls is dead weight
READERS = ("src", "demos", "perfbench")
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


def read_names(trees):
    """Every name the trees read, by name or as an attribute."""
    read = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif (isinstance(node, ast.Attribute)
                  and isinstance(node.ctx, ast.Load)):
                read.add(node.attr)
    return read


def module_reads(trees):
    """Every name the trees read by name, or as an attribute of a name
    that an import in the same tree binds to a module: a._f after
    import a, but not t._f on a value t."""
    read = set()
    for tree in trees.values():
        modules = {alias.asname or alias.name.split(".")[0]
                   for node in ast.walk(tree) if isinstance(node, ast.Import)
                   for alias in node.names}
        modules |= {alias.asname or alias.name for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom)
                    for alias in node.names if alias.name in trees}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif (isinstance(node, ast.Attribute)
                  and isinstance(node.ctx, ast.Load)
                  and isinstance(node.value, ast.Name)
                  and node.value.id in modules):
                read.add(node.attr)
    return read


def unread_private_definitions(trees):
    """(module, line, name) of each underscore-named module-level
    function, class or assigned constant, dunders aside, that no module
    reads, by name or as an attribute of the module."""
    read = module_reads(trees)
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
                            "__all__ = []\ndef _mirrored(n): pass\n"),
             "b": ast.parse("import a\na._used()\n"
                            "t = a.public()\nt._mirrored\n")}
    assert unread_private_definitions(trees) == [
        ("a", 2, "_dead"), ("a", 3, "_Gone"), ("a", 5, "_LIMIT"),
        ("a", 6, "_UNREAD"), ("a", 7, "_TYPED"), ("a", 10, "_mirrored")]


def unread_private_members(trees):
    """(module, line, "Class.name") of each underscore-named method or
    (cached) property of a module-level class, dunders aside, that no
    module reads as an attribute; a function of the same name read by
    name does not count."""
    read = {node.attr for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)}
    return sorted((module, node.lineno, f"{cls.name}.{node.name}")
                  for module, tree in trees.items() for cls in tree.body
                  if isinstance(cls, ast.ClassDef) for node in cls.body
                  if isinstance(node, ast.FunctionDef)
                  and node.name.startswith("_")
                  and not node.name.endswith("__") and node.name not in read)


def test_package_reads_every_private_member():
    trees = {p.stem: ast.parse(p.read_text())
             for p in sorted(PACKAGE.glob("*.py"))}
    assert unread_private_members(trees) == []


def test_an_unread_private_member_is_reported():
    trees = {"a": ast.parse("class Box:\n"
                            "    def _used(self): pass\n"
                            "    def _dead(self): pass\n"
                            "    @cached_property\n"
                            "    def _view(self): pass\n"
                            "    @property\n"
                            "    def _shown(self): pass\n"
                            "    def __len__(self): return 0\n"
                            "    def public(self): pass\n"
                            "def _view(): pass\n"),
             "b": ast.parse("from a import Box, _view\nBox()._used()\n"
                            "size = Box()._shown\n_view()\n")}
    assert unread_private_members(trees) == [
        ("a", 3, "Box._dead"), ("a", 5, "Box._view")]


def exported_names(tree):
    """The names a package root imports, and so exports."""
    return {alias.asname or alias.name for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            for alias in node.names}


def unread_public_definitions(modules, readers, exported):
    """(module, line, name) of each public module-level function or
    class of modules that exported does not hold and no reader reads,
    by name or as an attribute."""
    read = read_names(readers) | exported
    return sorted((module, node.lineno, node.name)
                  for module, tree in modules.items() for node in tree.body
                  if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                  and not node.name.startswith("_") and node.name not in read)


def test_every_public_definition_is_exported_or_read():
    modules = {p.stem: ast.parse(p.read_text()) for p in SOURCES}
    readers = [ast.parse(p.read_text()) for folder in READERS
               for p in sorted((ROOT / folder).rglob("*.py"))]
    exported = exported_names(ast.parse((PACKAGE / "__init__.py").read_text()))
    assert unread_public_definitions(modules, readers, exported) == []


def test_an_unexported_unread_public_definition_is_reported():
    modules = {"a": ast.parse("def used(): pass\ndef dead(): pass\n"
                              "class Gone: pass\ndef shown(): pass\n"
                              "def _private(): pass\nLIMIT = 3\n"
                              "class Held: pass\n")}
    readers = [ast.parse("import a\na.used()\nx: a.Held\n"),
               ast.parse("from a import dead\n")]
    exported = exported_names(ast.parse("from .a import shown as shown\n"))
    assert unread_public_definitions(modules, readers, exported) == [
        ("a", 2, "dead"), ("a", 3, "Gone")]


# What check.py may import from the package: errors, and three names of
# tensors.  leading_minors is allowed because it is its own pass, sharing
# no code with the verdict side: neither the symmetric pass
# (_symmetric_minors) that the positivity verdicts read their minors off
# nor the general elimination (_bareiss), so a minor recheck does not
# repeat the computation it checks.
CHECK_IMPORTS = {"errors": None,
                 "tensors": {"Tensor", "_as_q", "leading_minors"}}


def package_imports(tree):
    """(line, module, name) of each import from the package anywhere in
    a tree: from .m import name, from liegeom.m import name, import
    liegeom.m (name None) and from . import m (module "")."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "liegeom"):
            module = (node.module or "").removeprefix("liegeom")
            out += [(node.lineno, module.lstrip("."), alias.name)
                    for alias in node.names]
        elif isinstance(node, ast.Import):
            out += [(node.lineno, alias.name.removeprefix("liegeom."), None)
                    for alias in node.names
                    if alias.name.split(".")[0] == "liegeom"]
    return sorted(out, key=lambda x: x[0])


def forbidden_check_imports(tree):
    """The package imports of a tree that CHECK_IMPORTS does not allow."""
    return [(line, module, name)
            for line, module, name in package_imports(tree)
            if module not in CHECK_IMPORTS or (
                CHECK_IMPORTS[module] is not None
                and name not in CHECK_IMPORTS[module])]


def test_the_checker_imports_no_verdict_kernel():
    from liegeom.check import CLAIMS

    tree = ast.parse((PACKAGE / "check.py").read_text())
    assert forbidden_check_imports(tree) == []
    assert {name: claim.recheck.__module__ for name, claim in CLAIMS.items()
            } == dict.fromkeys(CLAIMS, "liegeom.check")


def test_a_forbidden_checker_import_is_reported():
    tree = ast.parse("from .errors import ShapeMismatch\n"
                     "from .tensors import Tensor, det\n"
                     "def _torsion_at(p, idx, detail):\n"
                     "    from .geometry import _torsion_blocks\n"
                     "import liegeom.forms\n"
                     "from . import algebra\n"
                     "from liegeom.tensors import leading_minors\n")
    assert forbidden_check_imports(tree) == [
        (2, "tensors", "det"), (4, "geometry", "_torsion_blocks"),
        (5, "forms", None), (6, "", "algebra")]
