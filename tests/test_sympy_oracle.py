"""The exact elimination cross-checked against sympy, when it is installed."""

from fractions import Fraction

import pytest
from hypothesis import given, settings

from liegeom.tensors import det, null_vector, solve_linear
from test_tensors import matrix, square, systems

sympy = pytest.importorskip("sympy")


def to_sympy(rows):
    return sympy.Matrix([[sympy.Rational(x.numerator, x.denominator)
                          for x in row] for row in rows])


@settings(max_examples=80)
@given(systems())
def test_elimination_matches_sympy(system):
    rows, _ = system
    if not rows or not rows[0]:
        return
    m = to_sympy(rows)
    solution = solve_linear(matrix(rows), [Fraction(0)] * len(rows))
    assert solution.pivot_columns == m.rref()[1]
    assert len(solution.free_columns) == len(m.nullspace())
    kernel = null_vector(matrix(rows))
    assert (kernel is None) == (not solution.free_columns)
    if kernel is not None:
        assert (m * to_sympy([[x] for x in kernel])).is_zero_matrix
    square_rows, _ = square(system)
    assert det(matrix(square_rows)) == Fraction(
        str(to_sympy(square_rows).det()))
