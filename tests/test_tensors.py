import dataclasses
import inspect
import itertools
import math
import random
import sys
from collections import Counter
from decimal import Decimal
from fractions import Fraction

import pytest

from hypothesis import Phase, example, given, settings, strategies as st

import reference
from liegeom import (AlgebraDocument, Connection, FormBlock, InexactValue,
                     Infeasible, InputError, KForm, LieAlgebra, LieGeomError,
                     LinearSolution, Metric, ShapeMismatch, Tensor, as_vector,
                     ce_d, classify, cone_extend, get_example, lck_family,
                     document_from, list_examples, parse, serialize,
                     solve_lambda, solve_linear, wedge)
from liegeom.constructions import _pairing_form, double
from liegeom.geometry import lee_form_solve, lee_form_system
from liegeom import geometry, tensors
from liegeom.tensors import (_eliminate, _numerators, _symmetric_minors, det,
                             leading_minors, null_vector)

Q = Fraction


def vec(*values):
    return Tensor((len(values),),
                  tuple(((i,), Q(v)) for i, v in enumerate(values)))


def matrix(rows):
    return Tensor.from_rows([[Q(x) for x in row] for row in rows])


def _su2_pieces():
    entry = get_example("su2")
    return entry.algebra, entry.connection, entry.metric


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


@pytest.mark.parametrize("build", [
    lambda: Tensor((2,), [((0.5,), 1)]),
    lambda: LieAlgebra.from_brackets(("a", "b", "c"), {(0, 1): {1.5: 1}}),
    lambda: Tensor((2,), [(("a",), 1)]),
    lambda: Tensor((2, 2), [((0, True), 1)]),
    lambda: matrix([[1, 2], [3, 4]])[0.5, 1],
    lambda: matrix([[1, 2], [3, 4]])[True, 0],
], ids=["float", "float-bracket", "str", "bool", "read-float", "read-bool"])
def test_a_non_int_index_is_refused(build):
    # neither stored nor read as the int it compares equal to, and a str
    # raises no bare TypeError from the range check
    with pytest.raises(ShapeMismatch, match="not all ints"):
        build()


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


@pytest.mark.parametrize("axis", [2.7, 2.0, "2", True, None],
                         ids=["fraction", "whole-float", "string", "bool",
                              "none"])
def test_an_axis_that_is_no_int_is_refused(axis):
    # int() would read 2.7 as 2 and True as 1; an axis is an int, as an
    # index is
    with pytest.raises(ShapeMismatch, match="is not an int"):
        Tensor((axis,), ())
    with pytest.raises(ShapeMismatch, match="is not an int"):
        Tensor.zero((2, axis))
    assert Tensor.zero((2, 3)).shape == (2, 3)


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


# a failure against the dense reference is reported as drawn, not shrunk,
# as shrinking reruns the dense elimination on every candidate
ORACLE = settings(max_examples=150, phases=[
    phase for phase in Phase if phase is not Phase.shrink])


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


# drawn from a list, which is far cheaper to draw than st.fractions
nonzero = st.sampled_from([Q(1), Q(-1), Q(2), Q(-3), Q(1, 2), Q(-2, 3),
                           Q(5, 4), Q(-7, 6), Q(9), Q(1, 5)])


@st.composite
def lee_like_systems(draw):
    """(rows, rhs): up to 24 x 5, each drawn row with 1 to 3 nonzeros, as
    a Lee row has, and about one row in four the sum of two earlier
    ones, which goes zero partway through the pass: in [A | b], or on A
    only when its b is pushed off the sum."""
    ncols = draw(st.integers(1, 5))
    nrows = draw(st.integers(ncols, 24))
    rows, rhs = [], []
    for _ in range(nrows):
        if len(rows) > 1 and draw(st.integers(0, 3)) == 0:
            i, j, c, off = draw(st.tuples(
                st.integers(0, len(rows) - 1), st.integers(0, len(rows) - 1),
                nonzero, st.sampled_from([Q(0), Q(0), Q(1)])))
            rows.append([x + c * y for x, y in zip(rows[i], rows[j])])
            rhs.append(rhs[i] + c * rhs[j] + off)
        else:
            row, b = draw(st.tuples(st.dictionaries(
                st.integers(0, ncols - 1), nonzero, min_size=1, max_size=3),
                st.one_of(st.just(Q(0)), nonzero)))
            rows.append([row.get(col, Q(0)) for col in range(ncols)])
            rhs.append(b)
    if draw(st.booleans()):     # b in the column space
        x = draw(st.lists(nonzero, min_size=ncols, max_size=ncols))
        rhs = [sum((a * v for a, v in zip(row, x)), Q(0)) for row in rows]
    return rows, rhs


def _q_rows(rows):
    return [[Q(x) for x in row] for row in rows]


@ORACLE
@given(lee_like_systems())
# column 1 is reached by no row once column 0 is eliminated, so its
# pivot search brings every remaining row up to date
@example((_q_rows([[1, 1, 0], [2, 2, 1], [3, 3, 0], [0, 0, 2], [1, 1, 1]]),
          [Q(1), Q(2), Q(3), Q(0), Q(2)]))
# the first row the search reads at column 1 goes zero, on A and b
@example((_q_rows([[1, 2, 0], [2, 4, 0], [0, 1, 1], [0, 0, 1]]),
          [Q(1), Q(2), Q(3), Q(1)]))
# the pivots are found above the bad last row, never brought up to date
@example((_q_rows([[1, 0], [0, 1], [0, 2], [1, 1]]),
          [Q(1), Q(1), Q(2), Q(3)]))
# no b: the pass null_vector and det take, on a tall matrix of rank 2
@example((_q_rows([[1, 2, 0], [0, 1, 1], [1, 3, 1], [2, 4, 0]]), None))
def test_tall_sparse_elimination_matches_the_reference(system):
    rows, rhs = system
    a = matrix(rows)
    if rhs is None:
        rhs = [Q(0)] * len(rows)
        assert _eliminate(a).outcome == reference.solve_linear(rows, rhs)
    assert solve_linear(a, rhs) == reference.solve_linear(rows, rhs)
    assert null_vector(a) == reference.null_vector(rows)


@st.composite
def hollow_systems(draw):
    """(rows, rhs): up to 10 x 5 with most rows empty in A, one in five of
    them holding b alone, the others with 1 to 3 nonzeros."""
    ncols, nrows = draw(st.integers(1, 5)), draw(st.integers(1, 10))
    rows, rhs = [], []
    for _ in range(nrows):
        kind = draw(st.integers(0, 4))
        row = draw(st.dictionaries(st.integers(0, ncols - 1), nonzero,
                                   min_size=1, max_size=3)) if kind > 2 else {}
        rows.append([row.get(col, Q(0)) for col in range(ncols)])
        rhs.append(draw(nonzero) if kind == 2 else draw(
            st.one_of(st.just(Q(0)), nonzero)) if kind > 2 else Q(0))
    if draw(st.booleans()):     # b in the column space
        x = draw(st.lists(nonzero, min_size=ncols, max_size=ncols))
        rhs = [sum((a * v for a, v in zip(row, x)), Q(0)) for row in rows]
    return rows, rhs


def _line_runs(f, marker):
    """(runs, tracer): a sys.settrace tracer counting in runs each run of
    the line after the one of f's source that holds marker."""
    lines, first = inspect.getsourcelines(f)
    line = first + 1 + next(k for k, text in enumerate(lines) if marker in text)
    runs = Counter()

    def local(frame, event, arg):
        if event == "line" and frame.f_lineno == line:
            runs[f.__name__] += 1
        return local

    return runs, lambda frame, event, arg: (
        local if frame.f_code is f.__code__ else None)


def test_systems_of_mostly_empty_rows_match_the_reference():
    # the pass never visits an empty row; one still keeps its position
    # until a pivot takes it, so the pivot rotates to the front of the
    # live rows left, which keeps the reference's choice of bad row and
    # pivot block behind a certificate; the rotation must run
    runs, tracer = _line_runs(tensors._bareiss,
                              "an empty row at position rank")

    @ORACLE
    @given(hollow_systems())
    # row 3's pivot takes the empty row 0's place, so row 1, not row 2,
    # is column 1's pivot, and row 2 is the bad row
    @example((_q_rows([[0, 0], [0, 1], [0, 2], [1, 0]]),
              [Q(0), Q(1), Q(3), Q(1)]))
    def check(system):
        rows, rhs = system
        a, previous = matrix(rows), sys.gettrace()
        sys.settrace(tracer)
        try:
            got = solve_linear(a, rhs), null_vector(a), outcome(det, a)
        finally:
            sys.settrace(previous)
        assert got == (reference.solve_linear(rows, rhs),
                       reference.null_vector(rows), outcome(reference.det, rows))

    check()
    assert runs["_bareiss"]


def _random_q(rng):
    return Q(rng.randint(-3, 3), rng.randint(1, 3))


def _in_a_random_basis(L, omega, rng):
    """(L, omega) rewritten in the basis f_a = sum_i p[a][i] e_i for a
    seeded unit lower triangular p, which makes both dense."""
    n = L.dim
    p = [[_random_q(rng) if i < a else Q(i == a) for i in range(n)]
         for a in range(n)]
    transposed = [list(col) for col in zip(*p)]

    def pulled(t, a, b):    # t(f_a, f_b, ...) by its remaining indices
        out = {}
        for (i, j, *rest), v in t.entries:
            out[tuple(rest)] = out.get(tuple(rest), 0) + p[a][i] * p[b][j] * v
        return out

    brackets, components = {}, {}
    for a, b in itertools.combinations(range(n), 2):
        image = pulled(L.c, a, b)       # [f_a, f_b] in the basis e
        # p^T is unit upper triangular: solve p^T x = image from the last
        # row up, the one solution reference.solve_linear would return
        x = [Q(0)] * n
        for k in reversed(range(n)):
            x[k] = image.get((k,), Q(0)) - sum(
                (transposed[k][c] * x[c] for c in range(k + 1, n)), Q(0))
        brackets[a, b] = dict(enumerate(x))
        components[a, b] = pulled(omega.coefficients, a, b).get((), Q(0))
    return (LieAlgebra.from_brackets(L.basis_labels, brackets),
            KForm.from_components(n, 2, components))


def _heisenberg_line_pair(m, feasible, rng):
    """(L, omega) on R x h(2m + 1), built in the basis x_i, y_i, z, t with
    [x_i, y_i] = z and t central, then moved to a random basis.  The
    feasible omega is sum x^i y^i + t^* z^* + d beta - theta beta with
    theta = t^*, which solves d omega = theta omega (a Vaisman pair); the
    other is a random dense 2-form."""
    n = 2 * m + 2
    z, t = n - 2, n - 1
    L = LieAlgebra.from_brackets([f"e{i}" for i in range(n)],
                                 {(i, m + i): {z: Q(1)} for i in range(m)})
    if feasible:
        theta = KForm.from_components(n, 1, {(t,): Q(1)})
        beta = KForm.from_components(n, 1, {(k,): _random_q(rng)
                                            for k in range(n)})
        vaisman = {(i, m + i): Q(1) for i in range(m)}
        vaisman[z, t] = Q(-1)
        omega = (KForm.from_components(n, 2, vaisman) + ce_d(L, beta)
                 - wedge(theta, beta))
    else:
        omega = KForm.from_components(n, 2, {
            pair: _random_q(rng)
            for pair in itertools.combinations(range(n), 2)})
    return _in_a_random_basis(L, omega, rng)


@pytest.mark.parametrize("m, feasible", [(3, False), (4, True)],
                         ids=["infeasible-dim8", "feasible-dim10"])
def test_lee_systems_solve_as_the_reference_does(m, feasible):
    # the C(n, 3) x n systems of the Lee solve, dense, the infeasible one
    # with its certificate
    L, omega = _heisenberg_line_pair(m, feasible, random.Random(m))
    outcome = solve_linear(*lee_form_system(L, omega)[:2])
    assert isinstance(outcome, LinearSolution if feasible else Infeasible)
    assert outcome == reference.solve_linear(
        *reference.lee_form_system(L, omega)[:2])


def _count_combinations(monkeypatch):
    """Wrap the pass's one row combination; the list counts its calls."""
    calls = []

    def counted(*args, combine=tensors._combine):
        calls.append(1)
        return combine(*args)

    monkeypatch.setattr(tensors, "_combine", counted)
    return calls


def test_a_tall_lee_system_combines_few_rows(monkeypatch):
    # the infeasible 120 x 10 Lee system of a random dense omega on
    # R x h(9): the pivot search finds each pivot within a few rows and
    # most of the 110 rows off the pivots are never reduced, so the
    # pass, the certificate's pivot-block solve included, combines under
    # a third of rows x rank
    L, omega = _heisenberg_line_pair(4, False, random.Random(4))
    a, rhs = lee_form_system(L, omega)[:2]
    calls = _count_combinations(monkeypatch)
    outcome = solve_linear(a, rhs)
    assert isinstance(outcome, Infeasible)
    rows, rank = a.shape
    assert rank == 10 and len(calls) < rows * rank // 3
    assert outcome == reference.solve_linear(
        *reference.lee_form_system(L, omega)[:2])


@pytest.mark.parametrize("m", [4, 15], ids=["dim10", "dim32"])
def test_dependent_lee_rows_are_decided_by_their_residual(monkeypatch, m):
    # the infeasible Lee systems on R x h(9) and R x h(31), 120 x 10 and
    # 4960 x 32: the rows (0, j, k) have rank at most n - 1, so the last
    # column's search would reduce every one of them in full to find it
    # dependent; once it has paid more combines than a back-substitution
    # walks, it tests the rest by residual, and the pass, the
    # certificate's solve included, combines at most rank^2 rows
    L, omega = _heisenberg_line_pair(m, False, random.Random(m))
    a, rhs = lee_form_system(L, omega)[:2]
    calls = _count_combinations(monkeypatch)
    outcome = solve_linear(a, rhs)
    assert isinstance(outcome, Infeasible)
    rank = a.shape[1]
    assert len(calls) <= rank * rank
    if m == 4:
        assert outcome == reference.solve_linear(
            *reference.lee_form_system(L, omega)[:2])


def _count_tensor_builds(monkeypatch):
    """Wrap both ways a Tensor is made; the list collects their shapes."""
    shapes = []
    trusted, post_init = Tensor._trusted.__func__, Tensor.__post_init__

    def counted_trusted(cls, shape, pairs):
        shapes.append(tuple(shape))
        return trusted(cls, shape, pairs)

    def counted_post_init(self):
        post_init(self)
        shapes.append(self.shape)

    monkeypatch.setattr(Tensor, "_trusted", classmethod(counted_trusted))
    monkeypatch.setattr(Tensor, "__post_init__", counted_post_init)
    return shapes


@pytest.mark.parametrize("feasible", [False, True],
                         ids=["infeasible", "feasible"])
def test_the_lee_solve_builds_no_tensor_of_its_system(monkeypatch, feasible):
    # on the dense R x h(9) pair, classify and lee_form_solve hand the
    # Lee rows to the pass as ints: no 120 x 10 Tensor of the Lee system
    # and no 165 x 10 one of the closed system is made
    L, omega = _heisenberg_line_pair(4, feasible, random.Random(4))
    expected = reference.solve_linear(
        *reference.lee_form_system(L, omega)[:2])
    a, rhs = lee_form_system(L, omega)[:2]
    shapes = _count_tensor_builds(monkeypatch)
    if not feasible:    # a Tensor's certificate comes off the pass's rows
        assert solve_linear(a, rhs) == expected
        assert shapes == []
    report = classify(L, omega=omega)
    theta = lee_form_solve(L, omega)
    assert shapes and not {(120, 10), (165, 10)} & set(shapes)
    if feasible:
        assert report.lee_form == theta
        assert theta.half.entries == tuple(
            ((i,), v) for i, v in enumerate(expected.values) if v)
    else:
        assert report.lee_form is theta is None
        (witness,) = [w for w in report.witnesses if w.claim == "lee_system"]
        assert (witness.residual, witness.detail) == (
            expected.residual, expected.combination)


def test_the_lee_solve_loads_only_the_live_rows_of_a_sparse_double(
        monkeypatch):
    # on the abelian-16 double (dim 34) omega has 17 entries, each in 32
    # triples, so 544 of the 5984 triple rows hold an entry: _lee_rows
    # returns those alone, no empty one, and the pass loads each once
    entry = get_example("abelian-n", {"n": 16})
    family = lck_family(entry.algebra, entry.connection, entry.metric, 0,
                        Q(3, 2))
    L, omega = family.double.algebra, family.omega
    rows = geometry._lee_rows(L, omega)
    live = [r for r in rows if r < math.comb(L.dim, 3)]
    assert L.dim == 34 and len(live) == 544
    assert all(row for row, _ in rows.values())
    loads, bareiss = Counter(), geometry._bareiss

    def counted(load, *args):
        def counted_load(r):
            loads[r] += 1
            return load(r)
        return bareiss(counted_load, *args)

    monkeypatch.setattr(geometry, "_bareiss", counted)
    assert lee_form_solve(L, omega) == family.lee_form
    assert sorted(loads) == live and set(loads.values()) == {1}


def _metric_rows(n, positive, rng):
    """g = a^T diag(1, ..., 1, s) a + I with s = 1 or -1."""
    a = [[_random_q(rng) for _ in range(n)] for _ in range(n)]
    sign = [Q(1)] * (n - 1) + [Q(1 if positive else -1)]
    return [[sum((sign[k] * a[k][i] * a[k][j] for k in range(n)), Q(0))
              + (i == j) for j in range(n)] for i in range(n)]


def test_leading_minors_stop_at_a_zero_first_minor(monkeypatch):
    # a zero g[0, 0] decides Sylvester's test, so the pass ends before
    # it combines a row; det still runs the whole pass
    g = _metric_rows(24, True, random.Random(24))
    g[0][0] = Q(0)
    calls = _count_combinations(monkeypatch)
    assert leading_minors(matrix(g)) == [Q(0)]
    assert calls == []
    assert det(matrix(g)) == reference.det(g) and calls


def test_leading_minors_convert_only_the_rows_they_read(monkeypatch):
    # the zero g[0, 0] of a 24 x 24 metric decides Sylvester's test: the
    # pass clears row 0, its 23 nonzero entries, of their denominators and
    # reads no other entry's; neither the whole matrix's numerators nor
    # its cached _ints are made
    g = _metric_rows(24, True, random.Random(24))
    g[0][0] = Q(0)
    a = matrix(g)
    read, whole = [], []
    denominator = Fraction.denominator.fget
    monkeypatch.setattr(Fraction, "denominator", property(
        lambda q: read.append(q) or denominator(q)))
    monkeypatch.setattr(tensors, "_numerators", lambda pairs: whole.append(
        len(pairs)) or _numerators(pairs))
    monkeypatch.setattr(Tensor, "_ints", property(
        lambda t: whole.append(t.shape) or _numerators(t.entries)))
    minors = leading_minors(a)
    assert {id(q) for q in read} == {
        id(v) for (i, _), v in a.entries if i == 0}
    assert (whole, minors) == ([], [Q(0)])


def test_the_pass_keeps_each_row_as_small_as_its_own_denominators_make_it(
        monkeypatch):
    # D^-1 G D^-1, G = A^T A + I, with one prime of 101..227 per row of D:
    # a row cleared of the common denominator carries every prime squared,
    # and its ints double; divided by its content it carries its own prime
    # and the others once, as clearing each row of its own denominators
    # does, whose largest int in det's pass is 4102 bits
    rng = random.Random(3)
    n = 24
    a = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
    primes = [p for p in range(101, 228) if all(p % q for q in range(2, 16))]
    g = [[Q(sum(a[k][i] * a[k][j] for k in range(n)) + (i == j),
            primes[i] * primes[j]) for j in range(n)] for i in range(n)]
    bits = []

    def recorded(*args, combine=tensors._combine):
        row = combine(*args)
        bits.extend(v.bit_length() for v in row.values())
        return row

    monkeypatch.setattr(tensors, "_combine", recorded)
    assert det(matrix(g)) == reference.det(g)
    assert 0 < max(bits) <= 4102


@pytest.mark.parametrize("positive", [True, False],
                         ids=["positive-definite", "indefinite"])
def test_minors_at_positivity_sizes_match_the_reference(positive):
    # 16 x 16: far past the sizes the drawn systems reach
    n = 16
    g = _metric_rows(n, positive, random.Random(16 + positive))
    minors = leading_minors(matrix(g))
    assert minors == reference_minors(g)
    assert all(m > 0 for m in minors) == positive
    assert det(matrix(g)) == reference.det(g)


# -- the symmetric pass behind the positivity verdicts ----------------------

small = st.sampled_from([Q(0), Q(1), Q(-1), Q(2), Q(-3), Q(1, 2), Q(-5, 4)])


@st.composite
def symmetric_matrices(draw):
    """Symmetric rows, dims 0 to 8: D^-1 G D^-1 with one prime or 1 per
    row of D, G either drawn entry by entry, sparse or dense, or built as
    U diag(h) U^T with U unit lower triangular, so that a zero h_k makes
    the leading block of size k + 1 singular, and a zero or negative h_0
    the first minor."""
    n = draw(st.integers(0, 8))
    zero_share = draw(st.sampled_from([0, 1, 2, 3]))   # in quarters
    entry = st.one_of(st.just(Q(0)), small) if zero_share < 3 else (
        st.sampled_from([Q(0)] * 3 + [Q(1), Q(-2), Q(1, 3)]))
    if draw(st.booleans()):
        g = [[Q(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1):
                g[i][j] = g[j][i] = (draw(entry) if draw(st.integers(0, 3))
                                     >= zero_share else Q(0))
    else:
        u = [[draw(entry) if j < i else Q(i == j) for j in range(n)]
             for i in range(n)]
        h = [draw(small) for _ in range(n)]
        g = [[sum((u[i][k] * h[k] * u[j][k] for k in range(n)), Q(0))
              for j in range(n)] for i in range(n)]
    p = [draw(st.sampled_from([1, 2, 3, 5, 7, 11])) for _ in range(n)]
    return [[g[i][j] / (p[i] * p[j]) for j in range(n)] for i in range(n)]


@ORACLE
@given(symmetric_matrices())
@example([])
@example(_q_rows([[0, 1], [1, 0]]))                   # a zero first minor
@example(_q_rows([[-2, 1], [1, 3]]))                  # a negative one
@example(_q_rows([[1, 1, 0], [1, 1, 2], [0, 2, 1]]))  # singular 2 x 2 block
# row 2 skips step 0 and is combined at step 1 from level 1, not p_0 = 2
@example(_q_rows([[2, 3, 0], [3, 7, 1], [0, 1, 5]]))
# rows of coprime denominators and contents: sigma differs row by row
@example([[Q(1, 4), Q(1, 6), Q(2, 10)], [Q(1, 6), Q(3, 9), Q(1, 15)],
          [Q(2, 10), Q(1, 15), Q(7, 25)]])
def test_the_symmetric_pass_matches_the_reference(rows):
    # equal to the dense reference, cut after its first zero minor, and
    # to leading_minors, the separate pass that rechecks its minors
    a = matrix(rows)
    assert _symmetric_minors(a) == reference_minors(rows) == leading_minors(a)


def _bits_held_in_lists(f, *args):
    """f(*args) and the largest bit length of any int that f's own frame
    holds in a list, nested up to three deep, at each line it runs."""
    bits = [0]

    def scan(value, depth=0):
        if type(value) is int:
            bits[0] = max(bits[0], value.bit_length())
        elif isinstance(value, (list, tuple)) and depth < 3:
            for item in value:
                scan(item, depth + 1)

    def local(frame, event, arg):
        for value in frame.f_locals.values():
            if isinstance(value, list):
                scan(value)
        return local

    outer = sys.gettrace()
    sys.settrace(lambda frame, event, arg:
                 local if frame.f_code is f.__code__ else None)
    try:
        result = f(*args)
    finally:
        sys.settrace(outer)
    return result, bits[0]


def test_the_symmetric_pass_keeps_its_ints_as_small_as_the_general_pass():
    # the per-row-prime 24 x 24 metric of the general pass's size guard:
    # the symmetric pass's rows, pivots and symmetric entries stay within
    # the 4102 bits of the general pass's largest row entry
    rng = random.Random(3)
    n = 24
    a = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
    primes = [p for p in range(101, 228) if all(p % q for q in range(2, 16))]
    g = [[Q(sum(a[k][i] * a[k][j] for k in range(n)) + (i == j),
            primes[i] * primes[j]) for j in range(n)] for i in range(n)]
    minors, bits = _bits_held_in_lists(_symmetric_minors, matrix(g))
    assert minors == reference_minors(g)
    assert 0 < bits <= 4102


def test_the_symmetric_pass_converts_only_the_rows_it_reads(monkeypatch):
    # as leading_minors does: a zero g[0, 0] ends the pass after row 0,
    # whose entries alone have their denominators read
    g = _metric_rows(24, True, random.Random(24))
    g[0][0] = Q(0)
    a = matrix(g)
    read, whole = [], []
    denominator = Fraction.denominator.fget
    monkeypatch.setattr(Fraction, "denominator", property(
        lambda q: read.append(q) or denominator(q)))
    monkeypatch.setattr(tensors, "_numerators", lambda pairs: whole.append(
        len(pairs)) or _numerators(pairs))
    monkeypatch.setattr(Tensor, "_ints", property(
        lambda t: whole.append(t.shape) or _numerators(t.entries)))
    minors = _symmetric_minors(a)
    assert {id(q) for q in read} == {
        id(v) for (i, _), v in a.entries if i == 0}
    assert (whole, minors) == ([], [Q(0)])


def test_elimination_shape_errors(monkeypatch):
    # the routines take a rank-2 Tensor, and det and minors a square one,
    # refused before the pass combines a row
    with pytest.raises(ShapeMismatch):
        solve_linear([[Q(1)], [Q(2)]], [Q(0), Q(0)])
    with pytest.raises(ShapeMismatch):
        null_vector(vec(1, 2))
    with pytest.raises(ShapeMismatch):
        solve_linear(matrix([[1]]), [])
    calls = _count_combinations(monkeypatch)
    with pytest.raises(ShapeMismatch):
        det(matrix([[1, 2]]))
    with pytest.raises(ShapeMismatch):
        det(matrix([[1, 2], [3, 4], [5, 6]]))
    with pytest.raises(ShapeMismatch):
        leading_minors(matrix([[1], [2]]))
    with pytest.raises(ShapeMismatch):
        leading_minors(matrix([[1, 2]]))
    with pytest.raises(ShapeMismatch):
        leading_minors(vec(1, 2))
    assert calls == []


# -- exact values only -----------------------------------------------------

@pytest.mark.parametrize("build", [
    lambda: Tensor.from_rows([[Q(1), 0.1]]),
    lambda: Tensor((1,), (((0,), "x"),)),
    lambda: Tensor.from_entries((2,), {(1,): None}),
    lambda: Tensor.from_entries((2,), {(0,): "1/0"}),
    lambda: Tensor((1,), (((0,), float("nan")),)),
    lambda: Tensor((1,), (((0,), Decimal("Infinity")),)),
    lambda: vec(1, 2).scale(0.5),
    lambda: solve_linear(matrix([[1, 0], [0, 1]]), [1, 0.25]),
    lambda: LieAlgebra.from_brackets(("u", "v"), {(0, 1): {1: 2.0}}),
    lambda: lck_family(*_su2_pieces(), None, 0.1),
    lambda: cone_extend(*_su2_pieces(), 1.0),
    lambda: cone_extend(*_su2_pieces()).metric(0.5),
    lambda: solve_lambda(0.5),
    lambda: as_vector(get_example("su2").algebra, (1, 0.5, 0)),
], ids=["float-row", "word", "none", "zero-denominator", "nan",
        "decimal-infinity", "scale", "rhs", "bracket", "lck-family-t",
        "cone-c", "cone-metric-t", "lambda-c", "as-vector"])
def test_a_value_that_is_no_exact_rational_is_refused(build):
    # a float would be stored as its binary expansion (0.1 as
    # 3602879701896397/36028797018963968); it and anything Fraction
    # cannot read raise an input error that names the value, in the
    # tensors and in the parameters of the constructions alike
    with pytest.raises(InexactValue, match="is no exact rational") as caught:
        build()
    assert isinstance(caught.value, InputError)
    assert isinstance(caught.value, LieGeomError)


def test_the_float_is_named_in_the_message():
    with pytest.raises(InexactValue, match=r"^0\.1 is no exact rational$"):
        Tensor.from_rows([[0.1]])
    with pytest.raises(InexactValue, match=r"^'x' is no exact rational$"):
        Tensor((1,), (((0,), "x"),))


def test_ints_fractions_and_rational_strings_are_read():
    t = Tensor.from_rows([[1, Q(1, 2)], ["3/4", "-2"]])
    assert t.entries == (((0, 0), Q(1)), ((0, 1), Q(1, 2)),
                         ((1, 0), Q(3, 4)), ((1, 1), Q(-2)))
    assert all(type(v) is Fraction for _, v in t.entries)
    assert vec(1, 2).scale("1/2") == vec(Q(1, 2), 1)
    assert solve_linear(matrix([[2]]), ["1/3"]).values == (Q(1, 6),)


def test_a_bad_index_is_refused_before_a_bad_value():
    # the scan reports the first fault in input order
    with pytest.raises(ShapeMismatch):
        Tensor((1,), (((1,), 0.5),))
    with pytest.raises(InexactValue):
        Tensor((2,), (((0,), 0.5), ((2,), Q(1))))


# -- the trusted path ------------------------------------------------------

@st.composite
def int_sums(draw):
    """(shape, d, {index: int}) of rank 1 to 4, zeros included, over a
    denominator that may be negative, as the differential's is."""
    rank, n = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    positions = list(itertools.product(range(n), repeat=rank))
    picked = draw(st.lists(st.sampled_from(positions), max_size=12,
                           unique=True))
    d = draw(st.sampled_from([1, 2, 6, 35, -3, -12]))
    return ((n,) * rank, d,
            {idx: draw(st.integers(-12, 12) | st.just(0)) for idx in picked})


@settings(max_examples=150)
@given(int_sums(), st.lists(st.sampled_from([1, 2, 3, 5, 7, 12]),
                            min_size=12, max_size=12))
def test_the_trusted_path_equals_the_validating_one(p, denominators):
    shape, d, sums = p
    built = Tensor._over(shape, d, sums)
    expected = Tensor.from_entries(
        shape, {idx: Q(v, d) for idx, v in sums.items()})
    assert (built.shape, built.entries) == (expected.shape, expected.entries)
    assert all(type(idx) is tuple and type(v) is Fraction
               for idx, v in built.entries)
    # Fraction pairs, zeros included, over several denominators
    pairs = [(idx, Q(v, m)) for (idx, v), m in zip(sums.items(),
                                                   denominators)]
    built = Tensor._trusted(shape, reversed(pairs))
    expected = Tensor.from_entries(shape, dict(pairs))
    assert (built.shape, built.entries) == (expected.shape, expected.entries)
    assert built._ints == _numerators(expected.entries)


def test_trusted_tensors_are_frozen_and_hash_like_validated_ones():
    t = Tensor._over((2, 2), 4, {(1, 0): 2, (0, 1): 0})
    assert t == Tensor.from_rows([[0, 0], [Q(1, 2), 0]])
    assert hash(t) == hash(Tensor.from_rows([[0, 0], [Q(1, 2), 0]]))
    assert t[1, 0] == Q(1, 2) and t[0, 1] == 0
    with pytest.raises(AttributeError):
        t.entries = ()


# -- which constructions validate ------------------------------------------

def catalog_pieces():
    """(name, algebra, pieces) for classify on every catalog entry: its
    base with connection and metric g, and a double with J and a 2-form:
    the l.c.K. member of its family at t = 1 where the family exists
    (c = 1 where the base leaves c free), else its own double with the
    pairing form of g."""
    out = []
    for name, _, _ in list_examples():
        entry = get_example(name)
        L, D, g = entry.algebra, entry.connection, entry.metric
        out.append((name, L, dict(connection=D, metric=g)))
        try:
            family = lck_family(L, D, g, entry.curvature or 1, 1)
            dbl, omega = family.double, family.omega
        except LieGeomError:
            dbl, omega = double(L, D), _pairing_form(g)
        out.append((name, dbl.algebra, dict(
            complex_structure=dbl.complex_structure, omega=omega)))
    return out


def test_classify_makes_no_validating_construction(monkeypatch):
    # Tensor.__post_init__ is the validating scan; every tensor classify
    # computes takes the trusted path instead
    scans = []
    validate = Tensor.__post_init__

    def counted(self):
        scans.append(self.shape)
        validate(self)

    pieces = catalog_pieces()
    assert len(pieces) == 2 * len(list_examples())
    monkeypatch.setattr(Tensor, "__post_init__", counted)
    Tensor.zero((1,))
    assert scans == [(1,)]      # the counter sees a public construction
    for name, L, given in pieces:
        scans.clear()
        classify(L, **given)
        assert scans == [], (name, sorted(given))


def document(**fields):
    base = dict(dim=3, basis=("a", "b", "c"), brackets=())
    return AlgebraDocument(**{**base, **fields})


BAD_INDICES = {
    "out-of-range": (((0, 1, 5), Q(1)),),
    "repeated": (((0, 1, 2), Q(1)), ((0, 1, 2), Q(2))),
    "short": (((0, 1), Q(1)),),
}


@pytest.mark.parametrize("entries", BAD_INDICES.values(), ids=BAD_INDICES)
def test_a_hand_built_document_with_a_bad_index_is_refused(entries):
    # AlgebraDocument is a public dataclass that bypasses parse, so its
    # doors to the pieces validate what they are handed
    with pytest.raises(ShapeMismatch):
        document(brackets=entries).to_algebra()
    L = document().to_algebra()
    with pytest.raises(ShapeMismatch):
        document(connection=entries).to_connection(L)
    matrix_entries = tuple((idx[1:], v) for idx, v in entries)
    with pytest.raises(ShapeMismatch):
        document(metric=matrix_entries).to_metric(L)
    with pytest.raises(ShapeMismatch):
        document(complex_structure=matrix_entries).to_complex_structure(L)
    forms = (FormBlock("omega", 2, matrix_entries),)
    with pytest.raises(ShapeMismatch):
        document(forms=forms).to_form("omega")


def test_a_parsed_document_is_not_validated_again(monkeypatch):
    # parse has checked every index of a document, so its pieces take the
    # trusted path; a copy made by dataclasses.replace loses parse's mark
    # and is checked again, to the same pieces
    scans = []
    validate = Tensor.__post_init__

    def counted(self):
        scans.append(self.shape)
        validate(self)

    texts = []
    for name, L, given in catalog_pieces():
        forms = [("omega", given.pop("omega"))] if "omega" in given else []
        texts.append(serialize(document_from(L, forms=forms, **given)))
    monkeypatch.setattr(Tensor, "__post_init__", counted)

    def pieces(doc):
        L = doc.to_algebra()
        return (L, doc.to_connection(L), doc.to_metric(L),
                doc.to_complex_structure(L), doc.to_form("omega"))

    for text in texts:
        doc = parse(text)
        scans.clear()
        parsed = pieces(doc)
        assert scans == []
        assert pieces(dataclasses.replace(doc)) == parsed and scans


def test_the_public_constructors_refuse_a_bad_index():
    for entries in BAD_INDICES.values():
        with pytest.raises(ShapeMismatch):
            Tensor((3, 3, 3), entries)
        if len(set(idx for idx, _ in entries)) == len(entries):
            with pytest.raises(ShapeMismatch):
                Tensor.from_entries((3, 3, 3), dict(entries))
    with pytest.raises(ShapeMismatch):
        Tensor.from_rows([[1, 2], [3]])
    with pytest.raises(ShapeMismatch):
        Connection.from_table(LieAlgebra.abelian(("x",)), {(0, 1): {0: 1}})
