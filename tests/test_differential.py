"""The sparse tensor routines against the dense ones they replaced.

reference.py keeps the dense loops over every index position; on random
algebras (some failing Jacobi), connections, metrics (some degenerate or
indefinite), complex structures and 2-forms both must give equal
tensors, equal witnesses and equal classify reports.
"""

import itertools
from fractions import Fraction
from unittest import mock

from hypothesis import given, settings, strategies as st

import reference
from liegeom import (ComplexStructure, Connection, Infeasible, KForm,
                     LieAlgebra, Metric, ce_d, classify, curvature, geometry,
                     jacobi_check, nabla_g, nijenhuis, solve_linear, torsion,
                     wedge)
from liegeom.geometry import codazzi_check, comparison_tensor, pairing_rows

Q = Fraction

# mostly zero, as structure constants and connections are
values = st.sampled_from([Q(0)] * 5 + [Q(1), Q(-1), Q(2), Q(1, 2), Q(-3, 2)])


@st.composite
def algebras(draw):
    n = draw(st.integers(2, 4))
    labels = tuple(f"e{i}" for i in range(n))
    if draw(st.booleans()):
        # e0 acting on the abelian ideal spanned by the rest: Jacobi holds
        brackets = {(0, j): {k: draw(values) for k in range(1, n)}
                    for j in range(1, n)}
    else:
        # arbitrary brackets, which mostly fail Jacobi
        brackets = {(i, j): {k: draw(values) for k in range(n)}
                    for i in range(n) for j in range(i + 1, n)}
    return LieAlgebra.from_brackets(labels, brackets)


def connections(L):
    n = L.dim
    return st.builds(
        lambda table: Connection.from_table(L, table),
        st.fixed_dictionaries({(i, j): st.fixed_dictionaries(
            {k: values for k in range(n)})
            for i in range(n) for j in range(n)}))


@st.composite
def metrics(draw, L):
    n = L.dim
    rows = [[Q(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = draw(values)
    if draw(st.booleans()):                  # diagonal dominance: often PD
        for i in range(n):
            rows[i][i] += 4
    return Metric.from_rows(L, rows)


@st.composite
def complex_structures(draw, L):
    """A permuted, rescaled standard J; None in odd dimension."""
    n = L.dim
    if n % 2:
        return None
    m = n // 2
    scales = [draw(st.sampled_from([Q(1), Q(-1), Q(2), Q(-1, 3)]))
              for _ in range(m)]
    order = draw(st.permutations(range(n)))
    rows = [[Q(0)] * n for _ in range(n)]
    for i, a in enumerate(scales):
        rows[order[i + m]][order[i]] = a
        rows[order[i]][order[i + m]] = -1 / a
    return ComplexStructure.from_rows(L, rows)


def forms(n, degree):
    return st.builds(
        lambda comps: KForm.from_components(n, degree, comps),
        st.fixed_dictionaries({idx: values for idx in
                               itertools.combinations(range(n), degree)}))


@st.composite
def pieces(draw):
    L = draw(algebras())
    return (L, draw(connections(L)), draw(metrics(L)),
            draw(complex_structures(L)), draw(forms(L.dim, 2)),
            draw(forms(L.dim, 1)))


REFERENCE = dict(
    torsion=reference.torsion, curvature=reference.curvature,
    nabla_g=reference.nabla_g, codazzi_check=reference.codazzi_check,
    comparison_tensor=reference.comparison_tensor,
    _curvature_fit=reference.curvature_fit,
    jacobi_check=reference.jacobi_check, ce_d=reference.ce_d,
    nijenhuis=reference.nijenhuis, pairing_rows=reference.pairing_rows)


def reference_classify(*args, **kwargs):
    with mock.patch.multiple(geometry, **REFERENCE):
        return classify(*args, **kwargs)


@settings(max_examples=50)
@given(pieces())
def test_sparse_routines_match_the_dense_reference(p):
    L, D, g, J, omega, alpha = p
    assert torsion(D) == reference.torsion(D)
    assert curvature(D) == reference.curvature(D)
    assert nabla_g(D, g) == reference.nabla_g(D, g)
    assert codazzi_check(D, g) == reference.codazzi_check(D, g)
    assert comparison_tensor(g) == reference.comparison_tensor(g)
    assert jacobi_check(L) == reference.jacobi_check(L)
    for form in (alpha, omega):
        assert ce_d(L, form) == reference.ce_d(L, form)
    assert wedge(alpha, omega) == reference.wedge(alpha, omega)
    assert wedge(alpha, alpha) == reference.wedge(alpha, alpha)
    if J is not None:
        x = tuple(Q(i + 1, 2) - i * i for i in range(L.dim))
        assert J.apply(x) == reference.apply(J, x)
        assert nijenhuis(L, J) == reference.nijenhuis(L, J)
        assert pairing_rows(omega, J) == reference.pairing_rows(omega, J)
    kwargs = dict(connection=D, metric=g, complex_structure=J, omega=omega)
    assert classify(L, **kwargs) == reference_classify(L, **kwargs)


@st.composite
def tall_systems(draw):
    """Far more equations than unknowns, most of them zero rows, with a
    right-hand side that is usually outside the column space."""
    ncols = draw(st.integers(1, 4))
    nrows = draw(st.integers(7, 40))
    rows = [[draw(values) if draw(st.booleans()) else Q(0)
             for _ in range(ncols)] for _ in range(nrows)]
    rhs = [draw(values) for _ in range(nrows)]
    return rows, rhs


@settings(max_examples=60)
@given(tall_systems())
def test_tall_certificates_match_the_reference(system):
    rows, rhs = system
    outcome = solve_linear(rows, rhs)
    assert outcome == reference.solve_linear(rows, rhs)
    if isinstance(outcome, Infeasible):
        y = outcome.combination
        assert all(sum(a * b for a, b in zip(y, col)) == 0
                   for col in zip(*rows))
        assert sum(a * b for a, b in zip(y, rhs)) == outcome.residual != 0
