import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from liegeom import (DimensionMismatch, KForm, LieAlgebra, ShapeMismatch,
                     Tensor, UnsupportedDegree, ce_d, cone_extend, double,
                     dual_form, get_example, wedge)

Q = Fraction


def clan():
    return get_example("clan-triangular")


def su2_double():
    entry = get_example("su2")
    ext = cone_extend(entry.algebra, entry.connection, entry.metric)
    return double(ext.algebra, ext.nabla)


def test_from_components_requires_increasing_indices():
    with pytest.raises(ShapeMismatch):
        KForm.from_components(3, 2, {(1, 0): Q(1)})
    with pytest.raises(ShapeMismatch):
        KForm.from_components(3, 2, {(1, 1): Q(1)})


def test_a_form_is_built_from_its_half():
    omega = KForm(2, Tensor((3, 3), (((0, 1), 1),)))
    assert omega.coefficients[1, 0] == -1
    assert omega == KForm.from_components(3, 2, {(0, 1): 1})
    for idx in ((1, 0), (1, 1)):
        with pytest.raises(ShapeMismatch, match="strictly increasing"):
            KForm(2, Tensor((3, 3), ((idx, 1),)))
    with pytest.raises(ShapeMismatch):
        KForm(2, Tensor((3, 3, 3), (((0, 1, 2), 1),)))
    with pytest.raises(ShapeMismatch):
        KForm(2, Tensor((3, 4), (((0, 1), 1),)))


@st.composite
def halves(draw):
    """(dim, degree, {increasing index: value}), mostly zero values."""
    n, degree = draw(st.integers(1, 6)), draw(st.integers(1, 3))
    values = st.sampled_from([Q(0)] * 4 + [Q(1), Q(-2), Q(3, 2)])
    return n, degree, draw(st.fixed_dictionaries({
        idx: values for idx in itertools.combinations(range(n), degree)}))


@settings(max_examples=60)
@given(halves())
def test_the_full_tensor_follows_from_the_stored_half(p):
    n, degree, comps = p
    form = KForm.from_components(n, degree, comps)
    full = form.coefficients
    for idx in itertools.product(range(n), repeat=degree):
        if len(set(idx)) < degree:
            assert full[idx] == 0
        for a, b in itertools.combinations(range(degree), 2):
            swapped = list(idx)
            swapped[a], swapped[b] = idx[b], idx[a]
            assert full[tuple(swapped)] == -full[idx]
    assert [(idx, v) for idx, v in full.entries
            if all(a < b for a, b in zip(idx, idx[1:]))] == list(
                form.components())
    assert dict(form.components()) == {k: v for k, v in comps.items() if v}
    direct = KForm(degree, Tensor((n,) * degree, tuple(comps.items())))
    assert direct == form and hash(direct) == hash(form)


def test_degree_bounds():
    with pytest.raises(UnsupportedDegree):
        KForm.zero(3, 0)
    with pytest.raises(UnsupportedDegree):
        KForm.zero(5, 4)


def test_evaluation_is_alternating():
    omega = KForm.from_components(3, 2, {(0, 1): Q(1), (1, 2): Q(5)})
    w = omega.coefficients
    for i in range(3):
        assert w[i, i] == 0
        for j in range(3):
            assert w[i, j] == -w[j, i]
    assert (w[0, 1], w[2, 1]) == (Q(1), Q(-5))


def test_three_form_signs():
    w = KForm.from_components(3, 3, {(0, 1, 2): Q(1)}).coefficients
    assert w[0, 1, 2] == 1
    assert w[1, 0, 2] == -1
    assert w[2, 0, 1] == 1


def test_components_yields_increasing_only():
    omega = KForm.from_components(4, 2, {(2, 3): Q(7)})
    assert list(omega.components()) == [((2, 3), Q(7))]


def test_ce_d_clan_dual():
    entry = clan()
    v_star = dual_form(entry.algebra, 1)
    dv = ce_d(entry.algebra, v_star)
    # dv*(u, v) = -v*([u, v]) = -2
    assert dv.coefficients[0, 1] == -2
    assert list(dv.components()) == [((0, 1), Q(-2))]


def test_ce_d_abelian_vanishes():
    L = LieAlgebra.abelian(("a", "b", "c"))
    omega = KForm.from_components(3, 2, {(0, 1): Q(3), (1, 2): Q(-1)})
    assert ce_d(L, omega).is_zero()
    assert ce_d(L, dual_form(L, 2)).is_zero()


def test_ce_d_rho_dual_closed_on_su2_double():
    dbl = su2_double()
    rho_1 = dual_form(dbl.algebra, 3)
    assert dbl.algebra.label(3) == "rho1"
    assert ce_d(dbl.algebra, rho_1).is_zero()


def test_ce_d_rejects_top_degree():
    L = LieAlgebra.abelian(("a", "b", "c", "d"))
    w = KForm.from_components(4, 3, {(0, 1, 2): Q(1)})
    with pytest.raises(UnsupportedDegree):
        ce_d(L, w)


def test_wedge_dual_pair():
    dbl = su2_double()
    rho_1 = dual_form(dbl.algebra, 3)
    rho_2 = dual_form(dbl.algebra, 7)
    pair = wedge(rho_1, rho_2).coefficients
    assert pair[3, 7] == 1
    assert pair[7, 3] == -1


def test_wedge_one_form_with_two_form():
    dbl = su2_double()
    theta = dual_form(dbl.algebra, 3).scale(Q(-2))
    omega = KForm.from_components(
        8, 2, {(0, 4): Q(1), (1, 5): Q(1), (2, 6): Q(1), (3, 7): Q(1)})
    mixed = wedge(theta, omega)
    # at (rho1, u1, u2), theta(rho1) omega(u1, u2) is the only surviving
    # shuffle term
    assert mixed.coefficients[3, 0, 4] == -2


def test_wedge_degree_cap():
    a = KForm.from_components(4, 2, {(0, 1): Q(1)})
    b = KForm.from_components(4, 2, {(2, 3): Q(1)})
    with pytest.raises(UnsupportedDegree):
        wedge(a, b)


def test_wedge_dimension_mismatch():
    a = KForm.from_components(3, 1, {(0,): Q(1)})
    b = KForm.from_components(4, 1, {(0,): Q(1)})
    with pytest.raises(DimensionMismatch):
        wedge(a, b)


def test_wedge_anticommutes_for_one_forms():
    a = KForm.from_components(3, 1, {(0,): Q(2), (2,): Q(-1)})
    b = KForm.from_components(3, 1, {(1,): Q(5), (2,): Q(7)})
    assert wedge(a, b) == wedge(b, a).scale(Q(-1))
