"""Property based checks for the algebraic laws the library relies on."""

from fractions import Fraction

from hypothesis import given, strategies as st

from liegeom import (ComplexStructure, Connection, KForm, LieAlgebra, Metric,
                     bracket, ce_d, constant_curvature, curvature, get_example,
                     make_rational, solve_lambda, wedge)

Q = Fraction

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=12)
small_ints = st.integers(min_value=-9, max_value=9)


def vector(dim):
    return st.tuples(*(rationals for _ in range(dim)))


def one_form(dim):
    return st.builds(
        lambda coeffs: KForm.from_components(
            dim, 1, {(i,): c for i, c in enumerate(coeffs) if c != 0}),
        st.tuples(*(rationals for _ in range(dim))))


# -- rational field laws ---------------------------------------------------

@given(a=st.integers(min_value=-200, max_value=200),
       b=st.integers(min_value=-200, max_value=200).filter(lambda x: x != 0),
       c=st.integers(min_value=-200, max_value=200),
       d=st.integers(min_value=-200, max_value=200).filter(lambda x: x != 0))
def test_make_rational_respects_field_structure(a, b, c, d):
    x = make_rational(a, b)
    y = make_rational(c, d)
    assert x + y == make_rational(a * d + c * b, b * d)
    assert x * y == make_rational(a * c, b * d)
    assert x - x == 0
    if x != 0:
        assert x * (1 / x) == 1


# -- tensor laws -----------------------------------------------------------

@given(rows=st.lists(st.tuples(small_ints, small_ints, small_ints),
                     min_size=3, max_size=3))
def test_gram_matrices_are_positive_definite(rows):
    # A^T A + I is positive definite whatever A is, and so are its
    # principal blocks
    a = [list(r) for r in rows]
    m = [[sum(a[k][i] * a[k][j] for k in range(3)) + (1 if i == j else 0)
          for j in range(3)] for i in range(3)]
    L = LieAlgebra.abelian(("x", "y", "z"))
    assert Metric.from_rows(L, m).is_positive_definite()
    P = LieAlgebra.abelian(("x", "y"))
    assert Metric.from_rows(
        P, [[m[0][0], m[0][1]], [m[1][0], m[1][1]]]).is_positive_definite()


# -- bracket and differential laws -----------------------------------------

@given(x=vector(3), y=vector(3))
def test_bracket_is_antisymmetric(x, y):
    L = get_example("su2").algebra
    xy = bracket(L, x, y)
    yx = bracket(L, y, x)
    assert xy == tuple(-v for v in yx)
    assert bracket(L, x, x) == (Q(0),) * 3


@given(data=st.data())
def test_d_squared_vanishes_on_catalog_algebras(data):
    name = data.draw(st.sampled_from(
        ["clan-triangular", "su2", "abelian-n", "so2"]))
    L = get_example(name).algebra
    alpha = data.draw(one_form(L.dim))
    assert ce_d(L, ce_d(L, alpha)).is_zero()


@given(alpha=one_form(3))
def test_d_squared_detects_a_jacobi_violation(alpha):
    # with brackets that break Jacobi, d compose d is not zero as an
    # operator; e3* witnesses it
    L = LieAlgebra.from_brackets(
        ("e1", "e2", "e3"), {(0, 1): {0: 1}, (0, 2): {2: 1}})
    e3 = KForm.from_components(3, 1, {(2,): Q(1)})
    assert not ce_d(L, ce_d(L, e3)).is_zero()
    assert ce_d(L, ce_d(L, alpha + e3)) == ce_d(L, ce_d(L, alpha)) + \
        ce_d(L, ce_d(L, e3))


@given(alpha=one_form(4), beta=one_form(4), s=rationals)
def test_wedge_is_bilinear_and_anticommutative(alpha, beta, s):
    assert wedge(alpha, beta) == wedge(beta, alpha).scale(-1)
    assert wedge(alpha + beta.scale(s), beta) == \
        wedge(alpha, beta) + wedge(beta, beta).scale(s)
    assert wedge(alpha, alpha).is_zero()


# -- curvature laws --------------------------------------------------------

@given(table=st.dictionaries(
    st.tuples(st.integers(0, 1), st.integers(0, 1)),
    st.dictionaries(st.integers(0, 1), small_ints, max_size=2),
    max_size=4))
def test_curvature_is_antisymmetric_in_the_acting_pair(table):
    entry = get_example("clan-triangular")
    conn = Connection.from_table(entry.algebra, table)
    r = curvature(conn)
    for i in range(2):
        for j in range(2):
            for k in range(2):
                for l in range(2):
                    assert r[i, j, k, l] == -r[j, i, k, l]


@given(s=rationals.filter(lambda v: v > 0))
def test_rescaling_scales_constant_curvature_inversely(s):
    entry = get_example("su2")
    scaled = Metric(entry.algebra, entry.metric.g.scale(s))
    fit = constant_curvature(entry.connection, scaled)
    assert (fit.kind, fit.value) == ("constant", 1 / s)


# -- the quadratic ---------------------------------------------------------

@given(lam=rationals.filter(lambda v: v not in (0, Q(1, 2))))
def test_solve_lambda_inverts_its_defining_equation(lam):
    c = (2 * lam - 1) / (lam * lam)
    result = solve_lambda(c)
    assert isinstance(result, tuple)
    assert lam in result
    for root in result:
        assert c * root * root - 2 * root + 1 == 0


@given(num=st.integers(min_value=-60, max_value=0),
       den=st.integers(min_value=1, max_value=12))
def test_solve_lambda_roots_always_solve_the_quadratic(num, den):
    c = Q(num, den)
    if c == 0:
        return
    result = solve_lambda(c)
    if isinstance(result, tuple):
        for root in result:
            assert c * root * root - 2 * root + 1 == 0
            assert root not in (0, Q(1, 2))
    else:
        p, d, q = result.p, result.d, result.q
        assert c * (p * p + d) - 2 * p * q + q * q == 0
        assert 2 * c * p - 2 * q == 0


# -- complex structure laws ------------------------------------------------

@given(x=vector(4))
def test_double_j_squares_to_minus_identity(x):
    entry = get_example("flat-torsionful-fixture")
    from liegeom import double
    dbl = double(entry.algebra, entry.connection)
    J = dbl.complex_structure

    def apply(v):
        return tuple(sum((J.j[i, k] * v[k] for k in range(4)), Q(0))
                     for i in range(4))

    assert apply(apply(x)) == tuple(-v for v in x)
