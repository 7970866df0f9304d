"""The documentation's examples run as doctests."""

import doctest
from pathlib import Path

import liegeom.algebra
import liegeom.rationals

README = Path(__file__).resolve().parent.parent / "README.md"


def test_rationals_docstring_examples():
    result = doctest.testmod(liegeom.rationals)
    assert result.attempted > 0 and result.failed == 0


def test_algebra_docstring_examples():
    result = doctest.testmod(liegeom.algebra)
    assert result.attempted > 0 and result.failed == 0


def test_readme_python_blocks():
    result = doctest.testfile(str(README), module_relative=False)
    assert result.attempted > 0 and result.failed == 0
