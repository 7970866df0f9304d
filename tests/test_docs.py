"""The documentation's examples run as doctests, and the README's
Public API list names exactly the package's __all__."""

import doctest
import importlib
import re
from collections import Counter
from pathlib import Path

import liegeom
import liegeom.algebra
import liegeom.rationals

README = Path(__file__).resolve().parent.parent / "README.md"
# a bullet "* `liegeom.<module>`: ..." up to the next bullet or blank line
API_ITEM = re.compile(r"^\* `liegeom\.(\w+)`:(.*?)(?=\n\*|\n\n|\Z)",
                      re.MULTILINE | re.DOTALL)


def test_rationals_docstring_examples():
    result = doctest.testmod(liegeom.rationals)
    assert result.attempted > 0 and result.failed == 0


def test_algebra_docstring_examples():
    result = doctest.testmod(liegeom.algebra)
    assert result.attempted > 0 and result.failed == 0


def test_readme_python_blocks():
    result = doctest.testfile(str(README), module_relative=False)
    assert result.attempted > 0 and result.failed == 0


def listed_api(readme):
    """(module, name) for each name in backticks in the bullets of the
    README's Public API section."""
    section = readme.split("\n## Public API\n")[1].split("\n## ")[0]
    return [(module, name) for module, names in API_ITEM.findall(section)
            for name in re.findall(r"`(\w+)`", names)]


def api_mismatch(listed, exported):
    """The names listed but not exported, and exported but not listed,
    a name listed twice once too many."""
    names, exported = Counter(name for _, name in listed), Counter(exported)
    return (sorted((names - exported).elements()),
            sorted((exported - names).elements()))


def test_the_readme_lists_the_public_api():
    listed = listed_api(README.read_text())
    assert api_mismatch(listed, liegeom.__all__) == ([], [])
    assert [(module, name) for module, name in listed if not hasattr(
        importlib.import_module(f"liegeom.{module}"), name)] == []


def test_a_name_listed_or_exported_alone_is_reported():
    listed = listed_api(README.read_text())
    assert api_mismatch(listed[1:], liegeom.__all__) == ([], [listed[0][1]])
    assert api_mismatch(listed, liegeom.__all__ + ["extra"]) == (
        [], ["extra"])
    assert api_mismatch(listed + [("forms", "wedge")], liegeom.__all__) == (
        ["wedge"], [])
