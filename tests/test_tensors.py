from fractions import Fraction

import pytest

from hypothesis import example, given, settings, strategies as st

import reference
from liegeom import (Infeasible, LieAlgebra, LinearSolution, Metric,
                     ShapeMismatch, Tensor, solve_linear)
from liegeom.tensors import det, leading_minors, null_vector

Q = Fraction


def vec(*values):
    return Tensor((len(values),),
                  tuple(((i,), Q(v)) for i, v in enumerate(values)))


def matrix(rows):
    return Tensor.from_rows([[Q(x) for x in row] for row in rows])


def test_entry_count_checked():
    # every index names one position per axis
    with pytest.raises(ShapeMismatch):
        Tensor((2, 2), (((0,), Q(1)),))
    with pytest.raises(ShapeMismatch):
        Tensor((2, 2), (((0, 1, 0), Q(1)),))


def test_entries_are_checked_and_canonical():
    with pytest.raises(ShapeMismatch):       # an index given twice
        Tensor((2,), (((1,), Q(1)), ((1,), Q(0))))
    with pytest.raises(ShapeMismatch):       # out of range
        Tensor((2,), (((2,), Q(1)),))
    with pytest.raises(ShapeMismatch):
        Tensor((2,), (((-1,), Q(1)),))
    with pytest.raises(ShapeMismatch):       # wrong arity
        Tensor((2,), (((0, 0), Q(1)),))
    t = Tensor((2, 2), (((1, 0), 3), ((0, 1), Q(0)), ((0, 0), Q(1, 2))))
    assert t.entries == (((0, 0), Q(1, 2)), ((1, 0), Q(3)))
    assert t[0, 1] == 0 and t[1, 0] == 3
    with pytest.raises(ShapeMismatch):
        t[2, 0]
    with pytest.raises(ShapeMismatch):
        t[0]


@pytest.mark.parametrize("indices, message", [
    ([(0,), (1, 1), (1, 1)], "index (0,) for shape (2, 2)"),
    ([(1, 1), (1, 1), (2, 0)], "index (1, 1) given twice"),
    ([(0, 0), (2, 0), (1, 1), (1, 1)],
     "index (2, 0) out of range for shape (2, 2)"),
    ([(1, 0), (0, -1)], "index (0, -1) out of range for shape (2, 2)"),
], ids=["arity-then-repeat", "repeat-then-range", "range-then-repeat",
        "negative"])
def test_first_fault_in_input_order_is_reported(indices, message):
    # two faults: the error names the first pair that has one, with an
    # index checked for arity and range before it counts as a repeat
    with pytest.raises(ShapeMismatch) as caught:
        Tensor((2, 2), [(idx, Q(1)) for idx in indices])
    assert str(caught.value) == message


def test_symmetry_tag_validated():
    # a Metric refuses an entry whose mirror image differs or is missing
    with pytest.raises(ShapeMismatch, match="not symmetric"):
        Metric(plane(), matrix([[0, 1], [2, 0]]))
    with pytest.raises(ShapeMismatch, match="not symmetric"):   # one-sided
        Metric(plane(), matrix([[0, 1], [0, 0]]))
    g = Metric(plane(), matrix([[0, 1], [1, 0]]))
    assert g.g[0, 1] == 1


def test_antisymmetry_tag_validated():
    # a LieAlgebra holds the half of c at i < j: an entry at i > j or at
    # i = j, or the full antisymmetric tensor given as the half, is refused
    def algebra(half):
        return LieAlgebra(2, ("u", "v"), half)

    for idx in ((1, 0, 1), (0, 0, 1)):
        with pytest.raises(ShapeMismatch, match="must have i < j"):
            algebra(Tensor((2, 2, 2), ((idx, Q(1)),)))
    L = algebra(Tensor((2, 2, 2), (((0, 1, 1), Q(2)),)))
    with pytest.raises(ShapeMismatch, match="must have i < j"):
        algebra(L.c)
    assert L.c[1, 0, 1] == -2


def test_tags_do_not_affect_equality():
    # equality sees only the nonzero entries, however they were given
    nested = matrix([[0, 1], [-1, 0]])
    pairs = Tensor((2, 2), (((1, 0), -1), ((0, 0), 0), ((0, 1), 1)))
    mapping = Tensor.from_entries((2, 2), {(1, 0): Q(-1), (0, 1): Q(1)})
    assert nested == pairs == mapping
    assert hash(nested) == hash(pairs)
    assert nested != matrix([[0, 1], [1, 0]])


def test_from_rows_shape():
    assert matrix([[1, 2, 3], [4, 5, 6]]).shape == (2, 3)
    assert Tensor.from_rows([]).shape == (0, 0)
    for rows in ([[1, 2], [3]], [[1], [2, 3]]):
        with pytest.raises(ShapeMismatch):
            Tensor.from_rows(rows)


def test_from_entries_sparse():
    t = Tensor.from_entries((2, 2), {(0, 1): Q(5)})
    assert t[0, 1] == 5
    assert t[1, 0] == 0
    assert list(t.entries) == [((0, 1), Q(5))]


def test_arithmetic():
    a = vec(1, 2)
    b = vec(3, -1)
    assert (a + b).entries == (((0,), Q(4)), ((1,), Q(1)))
    assert (a - b).entries == (((0,), Q(-2)), ((1,), Q(3)))
    assert (-a).entries == (((0,), Q(-1)), ((1,), Q(-2)))
    assert a.scale(Q(1, 2)).entries == (((0,), Q(1, 2)), ((1,), Q(1)))
    assert (a + vec(-1, 0)).entries == (((1,), Q(2)),)   # zeros drop out
    assert a.scale(0).is_zero()
    with pytest.raises(ShapeMismatch):
        a + Tensor.zero((3,))


def positive(rows):
    L = LieAlgebra.abelian(tuple(f"e{i}" for i in range(len(rows))))
    return Metric.from_rows(L, rows).is_positive_definite()


def test_positive_definite_examples():
    assert positive([[4, 0], [0, 2]])
    assert not positive([[1, 2], [2, 1]])
    assert positive([[1]])


def plane():
    return LieAlgebra.abelian(("x", "y"))


def test_positive_definite_rejects_asymmetric():
    # the metric's symmetry is checked once, when it is built
    with pytest.raises(ShapeMismatch):
        Metric(plane(), matrix([[1, 2], [0, 1]]))


def test_positive_definite_needs_covariant_square():
    with pytest.raises(ShapeMismatch):
        Metric(plane(), Tensor.zero((2,)))


def test_det_and_minors():
    a = matrix([[1, 2], [2, 1]])
    assert det(a) == -3
    assert leading_minors(a) == [Q(1), Q(-3)]
    empty = Tensor.zero((0, 0))
    assert det(empty) == 1
    assert leading_minors(empty) == []


def test_leading_minors_stop_at_the_first_zero():
    # past a zero minor the elimination swaps rows; det still comes out
    a = matrix([[0, 1], [1, 0]])
    assert leading_minors(a) == [Q(0)]
    assert det(a) == -1
    assert leading_minors(matrix([[2, 1, 0], [4, 2, 1],
                                  [0, 1, 1]])) == [Q(2), Q(0)]


def test_symmetric_rows_checks():
    g = Metric(plane(), matrix([[2, 1], [1, 2]]))
    assert g.g[0, 1] == 1
    with pytest.raises(ShapeMismatch):
        Metric(plane(), matrix([[0, 1], [2, 0]]))


def test_solve_linear_unique():
    solution = solve_linear(matrix([[2, 0], [0, 3]]), [Q(4), Q(6)])
    assert isinstance(solution, LinearSolution)
    assert solution.values == (Q(2), Q(2))
    assert solution.free_columns == ()


def test_solve_linear_underdetermined_zeroes_free_variables():
    solution = solve_linear(matrix([[1, 1]]), [Q(5)])
    assert solution.values == (Q(5), Q(0))
    assert solution.pivot_columns == (0,)
    assert solution.free_columns == (1,)


def test_solve_linear_infeasible_certificate():
    rows = [[Q(1), Q(1)], [Q(2), Q(2)]]
    rhs = [Q(1), Q(3)]
    outcome = solve_linear(matrix(rows), rhs)
    assert isinstance(outcome, Infeasible)
    combo = outcome.combination
    # y.A = 0 and y.b equals the stored nonzero residual
    for col in range(2):
        assert sum(y * row[col] for y, row in zip(combo, rows)) == 0
    assert sum(y * b for y, b in zip(combo, rhs)) == outcome.residual
    assert outcome.residual != 0


def test_null_vector():
    kernel = null_vector(matrix([[1, 1], [2, 2]]))
    assert kernel is not None
    assert kernel[0] + kernel[1] == 0
    assert any(x != 0 for x in kernel)
    assert null_vector(matrix([[1, 0], [0, 1]])) is None


# -- the one elimination against independent oracles -----------------------

entries = st.one_of(st.just(Q(0)),
                    st.fractions(min_value=-9, max_value=9, max_denominator=6))


@st.composite
def systems(draw):
    """(rows, rhs): a rational A, often of deficient rank, and a b that
    is as often out of its column space as in it."""
    nrows = draw(st.integers(0, 6))
    ncols = draw(st.integers(0, 6))
    rows = [[draw(entries) for _ in range(ncols)] for _ in range(nrows)]
    for _ in range(draw(st.integers(0, 2)) if nrows > 1 else 0):
        # row i becomes a multiple of row j
        i, j = draw(st.integers(0, nrows - 1)), draw(st.integers(0, nrows - 1))
        c = draw(entries)
        rows[i] = [c * y for y in rows[j]]
    if draw(st.booleans()):
        x = [draw(entries) for _ in range(ncols)]
        rhs = [sum((a * v for a, v in zip(row, x)), Q(0)) for row in rows]
    else:
        rhs = [draw(entries) for _ in range(nrows)]
    return rows, rhs


def square(system):
    rows, rhs = system
    n = min(len(rows), len(rows[0]) if rows else 0)
    return [row[:n] for row in rows[:n]], rhs[:n]


def outcome(f, *args):
    try:
        return f(*args)
    except ShapeMismatch:
        return ShapeMismatch


def reference_minors(rows):
    minors = outcome(reference.leading_minors, rows)
    if minors is ShapeMismatch:
        return minors
    zero = next((k for k, m in enumerate(minors) if m == 0), None)
    return minors if zero is None else minors[: zero + 1]


ORACLE = settings(max_examples=150)


@ORACLE
@given(systems())
@example(([], []))                          # no equations, no unknowns
@example(([[], [], []], [Q(0), Q(0), Q(0)]))  # zero columns, feasible
@example(([[], []], [Q(0), Q(3)]))            # zero columns, infeasible
@example(([[Q(1), Q(1)], [Q(2), Q(2)]], [Q(1), Q(3)]))
@example(([[Q(0), Q(1)], [Q(1), Q(0)]], [Q(0), Q(0)]))
def test_elimination_matches_the_reference(system):
    # the reference keeps dense rows; the library reads the same matrix
    # as a sparse Tensor
    rows, rhs = system
    a = matrix(rows)
    assert solve_linear(a, rhs) == reference.solve_linear(rows, rhs)
    assert null_vector(a) == reference.null_vector(rows)
    assert outcome(det, a) == outcome(reference.det, rows)
    rows, rhs = square(system)
    a = matrix(rows)
    assert det(a) == reference.det(rows)
    assert leading_minors(a) == reference_minors(rows)
    assert solve_linear(a, rhs) == reference.solve_linear(rows, rhs)


def test_elimination_shape_errors():
    # the routines take a rank-2 Tensor, and minors a square one
    with pytest.raises(ShapeMismatch):
        solve_linear([[Q(1)], [Q(2)]], [Q(0), Q(0)])
    with pytest.raises(ShapeMismatch):
        null_vector(vec(1, 2))
    with pytest.raises(ShapeMismatch):
        solve_linear(matrix([[1]]), [])
    with pytest.raises(ShapeMismatch):
        det(matrix([[1, 2]]))
    with pytest.raises(ShapeMismatch):
        leading_minors(matrix([[1], [2]]))
    with pytest.raises(ShapeMismatch):
        leading_minors(matrix([[1, 2]]))
