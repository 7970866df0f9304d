"""Property based checks for the algebraic laws the library relies on."""

import itertools
from fractions import Fraction

from hypothesis import example, given, settings, strategies as st

from liegeom import (ComplexStructure, Connection, KForm, LieAlgebra, Metric,
                     Tensor, bracket, ce_d, classify, constant_curvature,
                     curvature, document_from, double, get_example,
                     make_rational, parse, serialize, solve_lambda, wedge)
from test_differential import (algebras, complex_structures, connections,
                               forms, metrics)

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


@settings(max_examples=40)
@given(data=st.data())
def test_an_algebra_is_its_bracket_half(data):
    # c mirrors the half; documents list the half and read back to the
    # same algebra; the double equals the one built by mirroring each
    # entry of c and of the connection's action
    L = data.draw(algebras())
    D = data.draw(connections(L))
    n = L.dim
    for i, j, k in itertools.product(range(n), repeat=3):
        assert L.c[j, i, k] == -L.c[i, j, k]
    doc = document_from(L)
    assert doc.brackets == L.half.entries
    assert parse(serialize(doc)).to_algebra() == L
    mirrored = dict(L.c.entries)
    for (i, j, k), value in D.gamma.entries:
        mirrored[(i, n + j, n + k)] = value
        mirrored[(n + j, i, n + k)] = -value
    assert double(L, D).algebra.c == Tensor.from_entries((2 * n,) * 3,
                                                         mirrored)


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
    dbl = double(entry.algebra, entry.connection)
    J = dbl.complex_structure

    def apply(v):
        return tuple(sum((J.j[i, k] * v[k] for k in range(4)), Q(0))
                     for i in range(4))

    assert apply(apply(x)) == tuple(-v for v in x)


# -- the flag rules --------------------------------------------------------

# the flags a witness of each claim refutes, stated here from the
# definitions rather than read from the library: statistical is
# torsion free, Codazzi and positive; Hessian is flat statistical;
# Kahler is integrable with omega closed and positive; l.c.K. is
# integrable and positive with a closed Lee form
REFUTES = {
    "jacobi": {"jacobi"},
    "torsion": {"torsion_free", "statistical", "hessian"},
    "curvature": {"flat", "hessian"},
    "codazzi": {"codazzi", "statistical", "hessian"},
    "positive_definite": {"metric_positive", "statistical", "hessian"},
    "constant_curvature": set(),
    "nijenhuis": {"integrable", "kahler", "lck"},
    "d_omega": {"omega_closed", "kahler"},
    "pairing_symmetry": {"pairing_positive", "kahler", "lck"},
    "pairing_positive": {"pairing_positive", "kahler", "lck"},
    "lee_system": {"lck"},
    "d_lee": {"lee_closed", "lck"},
    "lee_closed_system": {"lee_closed", "lck"},
}


def compatible_form(J, scales):
    """omega = -G J for G = H + J^T H J, H diagonal with the given
    scales: G is J-invariant, so omega is a 2-form and omega(X, JY) is
    the symmetric G, positive definite when the scales are positive."""
    n = J.base.dim
    j = [[J.j[a, b] for b in range(n)] for a in range(n)]
    G = [[sum((j[a][i] * scales[a] * j[a][k] for a in range(n)),
              (i == k) * scales[i]) for k in range(n)] for i in range(n)]
    return KForm.from_components(n, 2, {
        (i, k): -sum(G[i][a] * j[a][k] for a in range(n))
        for i in range(n) for k in range(i + 1, n)})


@st.composite
def classify_inputs(draw):
    """Pieces on an algebra of dim 2-4, each one optional.  Abelian
    algebras and the torsion-free connection nabla_X Y = [X, Y] / 2 let
    the connection flags hold; omega compatible with J lets the pairing
    be symmetric, and positive for positive scales."""
    L = draw(algebras() | st.builds(
        lambda n: LieAlgebra.abelian(tuple(f"e{i}" for i in range(n))),
        st.integers(2, 4)))
    half = Connection(L, L.c.scale(Q(1, 2)))
    J = draw(st.none() | complex_structures(L))
    omega = draw(st.none() | forms(L.dim, 2))
    if J is not None and draw(st.booleans()):
        omega = compatible_form(J, draw(st.lists(
            st.sampled_from([Q(1), Q(2), Q(1, 3), Q(-1)]), min_size=L.dim,
            max_size=L.dim)))
    return L, dict(connection=draw(st.none() | st.just(half)
                                   | connections(L)),
                   metric=draw(st.none() | metrics(L)),
                   complex_structure=J, omega=omega)


def hermitian(brackets, omega):
    """Pieces on a 4-dimensional algebra: the standard J and omega."""
    L = LieAlgebra.from_brackets(("e0", "e1", "e2", "e3"), brackets)
    J = [[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]]
    return L, dict(connection=None, metric=None,
                   complex_structure=ComplexStructure.from_rows(L, J),
                   omega=KForm.from_components(4, 2, omega))


CLAN = get_example("clan-triangular")


@settings(max_examples=120)
@given(classify_inputs())
# statistical but not flat
@example((CLAN.algebra, dict(connection=CLAN.connection, metric=CLAN.metric,
                             complex_structure=None, omega=None)))
# a degenerate omega whose Lee equation has no solution
@example(hermitian({(2, 3): {0: 1}}, {(0, 1): Q(1)}))
# Hermitian, with a Lee form that is not closed
@example(hermitian({(0, 2): {0: -1}, (1, 2): {1: -1}, (2, 3): {1: 1}},
                   {(0, 1): Q(1), (2, 3): Q(1)}))
def test_a_flag_is_false_exactly_when_a_witness_refutes_it(p):
    L, pieces = p
    report = classify(L, **pieces)
    refuted = set().union(*(REFUTES[w.claim] for w in report.witnesses))
    for name, value in report.computed_flags():
        assert value == (name not in refuted), name
    if report.is_statistical is not None:
        assert report.is_statistical == (report.is_torsion_free
                                          and report.is_codazzi
                                          and report.is_metric_positive)
        assert report.is_hessian == (report.is_statistical
                                     and report.is_flat)
    theta = report.lee_form
    closed = theta is not None and ce_d(L, theta).is_zero()
    if pieces["omega"] is not None:
        assert report.is_lee_closed == (None if theta is None else closed)
    if report.is_kahler is not None:
        assert report.is_kahler == (report.is_integrable
                                    and report.is_omega_closed
                                    and report.is_pairing_positive)
        assert report.is_lck == (report.is_integrable
                                 and report.is_pairing_positive and closed)
