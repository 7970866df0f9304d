import itertools
from fractions import Fraction

import pytest

import liegeom.constructions as constructions
import liegeom.geometry as geometry
from liegeom import (Connection, CurvatureMismatch, DimensionMismatch,
                     LieAlgebra, Metric, MissingRadiant, NonPositiveT,
                     NoRealSolution, NotConical, NotHessian, NotStatistical,
                     SurdPair, Tensor, UnderdeterminedCurvature, Witness,
                     ZeroCurvature, ce_d, classify, cone_extend,
                     constant_curvature, double, dual_form,
                     extract_statistical, get_example, jacobi_check,
                     kahler_form_from_hessian, lck_family, nijenhuis,
                     solve_lambda, wedge)

Q = Fraction


def clan(params=None):
    return get_example("clan-triangular", params)


def clan_cone():
    entry = clan()
    return entry, cone_extend(entry.algebra, entry.connection, entry.metric)


# -- the double ------------------------------------------------------------

def test_double_of_abelian_zero_connection_is_abelian():
    A = LieAlgebra.abelian(("x", "y"))
    dbl = double(A, Connection.zero(A))
    assert dbl.algebra.basis_labels == ("x1", "y1", "x2", "y2")
    assert dbl.algebra.c.is_zero()
    assert jacobi_check(dbl.algebra) is None


def test_double_complex_structure_swaps_copies():
    A = LieAlgebra.abelian(("x", "y"))
    dbl = double(A, Connection.zero(A))
    J = dbl.complex_structure
    # column k of J.j holds the coordinates of J e_k
    assert tuple(J.j[i, 0] for i in range(4)) == (0, 0, 1, 0)
    assert tuple(J.j[i, 2] for i in range(4)) == (-1, 0, 0, 0)


def test_double_of_clan_cone_bracket_table():
    entry, ext = clan_cone()
    dbl = double(ext.algebra, ext.nabla)
    assert dbl.algebra.basis_labels == (
        "u1", "v1", "rho1", "u2", "v2", "rho2")
    from liegeom import bracket

    def b(x, y):
        return bracket(dbl.algebra, x, y)

    def v(i):
        return tuple(Q(j == i) for j in range(6))
    # first copy keeps the base bracket
    assert b(v(0), v(1)) == tuple(Q(2) * x for x in v(1))
    # the second copy is an abelian ideal acted on through the connection
    assert b(v(3), v(4)) == (Q(0),) * 6
    assert b(v(0), v(3)) == tuple(Q(4) * x for x in v(5))
    assert b(v(0), v(5)) == v(3)
    assert b(v(1), v(3)) == tuple(Q(-2) * x for x in v(4))
    assert b(v(1), v(4)) == tuple(a + Q(2) * c
                                  for a, c in zip(v(3), v(5)))
    assert b(v(2), v(5)) == v(5)
    assert jacobi_check(dbl.algebra) is None


def test_double_jacobi_fails_exactly_when_not_flat():
    nonflat = get_example("nonflat-fixture")
    dbl = double(nonflat.algebra, nonflat.connection)
    assert jacobi_check(dbl.algebra) == Witness(
        "jacobi", (0, 1, 2), (Q(0), Q(0), Q(0), Q(-4)))

    torsionful = get_example("flat-torsionful-fixture")
    dbl2 = double(torsionful.algebra, torsionful.connection)
    assert jacobi_check(dbl2.algebra) is None
    assert not nijenhuis(dbl2.algebra, dbl2.complex_structure).is_zero()


def test_double_rejects_foreign_connection():
    A = LieAlgebra.abelian(("x", "y"))
    B = LieAlgebra.abelian(("p", "q"))
    with pytest.raises(DimensionMismatch):
        double(A, Connection.zero(B))


# -- kahler form from a hessian structure ----------------------------------

def test_flat_plane_gives_standard_kahler_form():
    A = LieAlgebra.abelian(("x", "y"))
    res = kahler_form_from_hessian(A, Connection.zero(A), Metric.identity(A))
    assert list(res.omega.components()) == [
        ((0, 2), Q(1)), ((1, 3), Q(1))]
    assert res.report.is_kahler is True
    assert ce_d(res.double.algebra, res.omega).is_zero()


def test_one_dimensional_hessian_example():
    L = LieAlgebra.abelian(("v",))
    conn = Connection.from_table(L, {(0, 0): {0: 1}})
    res = kahler_form_from_hessian(L, conn, Metric.identity(L))
    assert list(res.omega.components()) == [((0, 1), Q(1))]
    assert res.report.is_kahler is True


def test_not_hessian_names_first_failing_verdict():
    entry = clan()
    with pytest.raises(NotHessian, match="flat"):
        kahler_form_from_hessian(entry.algebra, entry.connection,
                                 entry.metric)
    torsionful = get_example("flat-torsionful-fixture")
    with pytest.raises(NotHessian, match="torsion_free"):
        kahler_form_from_hessian(torsionful.algebra, torsionful.connection,
                                 torsionful.metric)


def test_cone_metric_extension_is_hessian():
    entry, ext = clan_cone()
    g_t = ext.metric(1)
    report = classify(ext.algebra, connection=ext.nabla, metric=g_t)
    assert report.is_hessian is True
    res = kahler_form_from_hessian(ext.algebra, ext.nabla, g_t)
    assert list(res.omega.components()) == [
        ((0, 3), Q(4)), ((1, 4), Q(2)), ((2, 5), Q(1))]
    assert res.report.is_kahler is True


# -- the quadratic ---------------------------------------------------------

@pytest.mark.parametrize("c, roots", [
    (Q(1), (Q(1),)),
    (Q(-3), (Q(-1), Q(1, 3))),
    (Q(3, 4), (Q(2, 3), Q(2))),
    (Q(8, 9), (Q(3, 4), Q(3, 2))),
])
def test_solve_lambda_rational_roots(c, roots):
    assert solve_lambda(c) == roots
    for value in roots:
        assert c * value * value - 2 * value + 1 == 0
        assert value not in (Q(0), Q(1, 2))


@pytest.mark.parametrize("c, pair", [
    (Q(1, 2), SurdPair(2, 2, 1)),
    (Q(2, 3), SurdPair(3, 3, 2)),
])
def test_solve_lambda_surd_roots(c, pair):
    result = solve_lambda(c)
    assert result == pair
    # (p + sqrt(d)) / q solves the quadratic: the rational and irrational
    # parts must vanish separately
    p, d, q = result.p, result.d, result.q
    assert c * (p * p + d) - 2 * p * q + q * q == 0
    assert 2 * c * p - 2 * q == 0
    root = int(d ** Q(1, 2))
    assert root * root != d


def test_solve_lambda_degenerate_and_complex():
    with pytest.raises(ZeroCurvature):
        solve_lambda(0)
    with pytest.raises(NoRealSolution):
        solve_lambda(2)
    with pytest.raises(NoRealSolution):
        solve_lambda(Q(9, 8))


def test_solve_lambda_never_returns_excluded_values():
    for num in range(-12, 2):
        for den in (1, 2, 3, 5):
            c = Q(num, den)
            if c == 0:
                continue
            result = solve_lambda(c)
            if isinstance(result, tuple):
                assert Q(0) not in result
                assert Q(1, 2) not in result


def test_solve_lambda_inverts_the_curvature_formula():
    for lam in (Q(2), Q(-1), Q(1, 3), Q(5, 7), Q(-3, 2)):
        c = (2 * lam - 1) / (lam * lam)
        result = solve_lambda(c)
        assert isinstance(result, tuple)
        assert lam in result


# -- cone extension --------------------------------------------------------

@pytest.mark.parametrize("taken, label", [
    (set(), "rho"), ({"u", "v"}, "rho"), ({"rho"}, "rho0"),
    ({"rho", "rho0"}, "rho1"), ({"rho", "rho0", "rho1", "rho3"}, "rho2")])
def test_fresh_label_skips_every_taken_name(taken, label):
    assert constructions._fresh_label(taken) == label


def test_cone_extend_clan():
    entry, ext = clan_cone()
    assert ext.algebra.basis_labels == ("u", "v", "rho")
    assert ext.rho_index == 2
    assert ext.c == Q(-1)
    gamma = ext.nabla.gamma
    # the rho component of nabla_X Y is -c g(X, Y)
    assert gamma[0, 0, 2] == Q(4)
    assert gamma[1, 1, 2] == Q(2)
    assert gamma[0, 1, 2] == Q(0)
    # radiant rows: rho acts as the identity
    assert gamma[2, 0, 0] == Q(1)
    assert gamma[2, 2, 2] == Q(1)
    assert gamma[0, 2, 0] == Q(1)
    assert ext.report.is_flat is True
    assert ext.report.is_torsion_free is True
    assert ext.report.is_jacobi is True


def test_cone_extend_su2_and_so2():
    su2 = get_example("su2")
    ext = cone_extend(su2.algebra, su2.connection, su2.metric)
    assert ext.c == Q(1)
    assert ext.algebra.basis_labels == ("u", "v", "w", "rho")
    assert ext.nabla.gamma[0, 0, 3] == Q(-1)

    so2 = get_example("so2")
    ext2 = cone_extend(so2.algebra, so2.connection, so2.metric, c=1)
    assert ext2.algebra.basis_labels == ("v", "rho")
    assert ext2.nabla.gamma[0, 0, 1] == Q(-1)
    assert ext2.report.is_flat is True


def test_cone_extend_c_resolution():
    entry = clan()
    explicit = cone_extend(entry.algebra, entry.connection, entry.metric,
                           c=-1)
    derived = cone_extend(entry.algebra, entry.connection, entry.metric)
    assert explicit.nabla == derived.nabla
    assert explicit.c == derived.c == Q(-1)
    with pytest.raises(CurvatureMismatch):
        cone_extend(entry.algebra, entry.connection, entry.metric, c=2)
    so2 = get_example("so2")
    with pytest.raises(UnderdeterminedCurvature):
        cone_extend(so2.algebra, so2.connection, so2.metric)


def test_cone_extend_refuses_a_base_of_no_constant_curvature():
    # g = I on abelian R^3 and gamma = -C/2 for the totally symmetric
    # cubic C with C_001 = -2, C_022 = 2, C_222 = -2: a statistical
    # structure whose curvature is no multiple of the comparison tensor
    R3 = LieAlgebra.abelian(("x", "y", "z"))
    gamma = {}
    for idx, value in (((0, 0, 1), 1), ((0, 2, 2), -1), ((2, 2, 2), 1)):
        for perm in itertools.permutations(idx):
            gamma[perm] = Q(value)
    nabla = Connection(R3, Tensor.from_entries((3, 3, 3), gamma))
    g = Metric.identity(R3)
    assert classify(R3, connection=nabla, metric=g).is_statistical
    with pytest.raises(CurvatureMismatch,
                       match="no constant curvature fits the base"):
        cone_extend(R3, nabla, g)


def test_cone_extend_requires_statistical_base():
    torsionful = get_example("flat-torsionful-fixture")
    with pytest.raises(NotStatistical, match="torsion_free"):
        cone_extend(torsionful.algebra, torsionful.connection,
                    torsionful.metric)


def test_cone_metric_and_rho():
    entry, ext = clan_cone()
    assert ext.rho_index == 2
    assert ext.algebra.label(ext.rho_index) == "rho"
    g_t = ext.metric(Q(1, 2))
    assert g_t.g[2, 2] == Q(1, 2)
    assert g_t.g[0, 0] == Q(4)
    assert g_t.g[0, 2] == Q(0)
    assert g_t.is_positive_definite()


def test_cone_metric_requires_positive_t():
    entry, ext = clan_cone()
    for t in (0, -1, Q(-1, 2)):
        with pytest.raises(NonPositiveT):
            ext.metric(t)


def test_cone_label_collision_gets_fresh_name():
    L = LieAlgebra.abelian(("rho",))
    conn = Connection.zero(L)
    g = Metric.identity(L)
    ext = cone_extend(L, conn, g, c=1)
    assert len(set(ext.algebra.basis_labels)) == 2
    assert ext.algebra.basis_labels[0] == "rho"


# -- the lck family --------------------------------------------------------

def test_lck_family_kahler_member_on_clan():
    entry = clan()
    fam = lck_family(entry.algebra, entry.connection, entry.metric, -1, 1)
    assert fam.c == Q(-1)
    assert fam.t == Q(1)
    assert list(fam.omega.components()) == [
        ((0, 3), Q(4)), ((1, 4), Q(2)), ((2, 5), Q(1))]
    assert list(fam.lee_form.components()) == []
    assert fam.report.is_kahler is True
    assert fam.report.is_lck is True


def test_lck_family_derives_c_when_omitted():
    entry = clan()
    fam = lck_family(entry.algebra, entry.connection, entry.metric, None, 1)
    assert fam.c == Q(-1)
    assert fam.report.is_kahler is True


def test_lck_family_su2_is_lck_not_kahler():
    su2 = get_example("su2")
    fam = lck_family(su2.algebra, su2.connection, su2.metric, 1, 1)
    assert list(fam.lee_form.components()) == [((3,), Q(-2))]
    assert fam.report.is_omega_closed is False
    assert fam.report.is_kahler is False
    assert fam.report.is_lck is True
    assert fam.report.is_lee_closed is True
    # d omega_t = lee ^ omega_t is the defining identity of the family
    lhs = ce_d(fam.double.algebra, fam.omega)
    assert lhs == wedge(fam.lee_form, fam.omega)


def test_lck_family_lee_form_tracks_t():
    so2 = get_example("so2")
    fam = lck_family(so2.algebra, so2.connection, so2.metric, 1, 2)
    assert list(fam.lee_form.components()) == [((1,), Q(-3))]
    assert list(fam.omega.components()) == [
        ((0, 2), Q(1)), ((1, 3), Q(2))]
    assert fam.double.algebra.basis_labels == ("v1", "rho1", "v2", "rho2")


def test_lck_family_at_the_catalog_maximum():
    # abelian-n at n = 16 is the largest catalog entry: the double of its
    # cone has dimension 34 and its Lee system 5984 equations
    entry = get_example("abelian-n", {"n": 16})
    fam = lck_family(entry.algebra, entry.connection, entry.metric, None,
                     Q(3, 2))
    assert fam.double.algebra.dim == 34
    assert fam.c == 0
    lee = [((fam.cone.rho_index,), -(1 + fam.c * fam.t))]
    assert list(fam.lee_form.components()) == lee
    assert list(fam.report.lee_form.components()) == lee
    assert fam.report.is_lck is True
    assert fam.report.is_kahler is False


def test_lck_family_refuses_a_lee_form_the_report_does_not_confirm(
        monkeypatch):
    dual_form = constructions.dual_form
    monkeypatch.setattr(constructions, "dual_form",
                        lambda L, i: dual_form(L, i).scale(2))
    su2 = get_example("su2")
    with pytest.raises(RuntimeError, match="Lee identity"):
        lck_family(su2.algebra, su2.connection, su2.metric, 1, 1)


def test_the_chain_checks_each_algebra_for_jacobi_once(monkeypatch):
    checked = []
    jacobi = geometry.jacobi_check

    def counted(L):
        checked.append((L.basis_labels, L.c.entries))
        return jacobi(L)

    monkeypatch.setattr(geometry, "jacobi_check", counted)
    monkeypatch.setattr(constructions, "jacobi_check", counted,
                        raising=False)
    su2 = get_example("su2")
    lck_family(su2.algebra, su2.connection, su2.metric, 1, 1)
    abelian = get_example("abelian-n", {"n": 3})
    kahler_form_from_hessian(abelian.algebra, abelian.connection,
                             abelian.metric)
    assert len(set(checked)) == len(checked)
    # su2, its cone, the cone's double, abelian-n and its double
    assert len(checked) == 5


def test_lck_family_requires_positive_t():
    entry = clan()
    for t in (0, -1, Q(-1, 2)):
        with pytest.raises(NonPositiveT):
            lck_family(entry.algebra, entry.connection, entry.metric, -1, t)


# -- statistical extraction ------------------------------------------------

@pytest.mark.parametrize("name, c_arg", [
    ("clan-triangular", None),
    ("su2", None),
    ("so2", 1),
])
def test_extraction_inverts_the_cone(name, c_arg):
    entry = get_example(name)
    ext = cone_extend(entry.algebra, entry.connection, entry.metric, c=c_arg)
    recovered, c = extract_statistical(ext.algebra, ext.nabla, entry.metric,
                                       ext.rho_index)
    assert recovered == entry.connection
    assert c == ext.c


def test_extraction_rejects_inconsistent_rho_component():
    entry, ext = clan_cone()
    table = dict(ext.nabla.gamma.entries)
    table[(0, 0, 2)] = Q(5)
    bad = Connection(ext.algebra, Tensor.from_entries((3, 3, 3), table))
    with pytest.raises(NotConical):
        extract_statistical(ext.algebra, bad, entry.metric, 2)


def test_extraction_rejects_rho_part_over_zero_metric_slot():
    entry, ext = clan_cone()
    table = dict(ext.nabla.gamma.entries)
    table[(0, 1, 2)] = Q(1)
    bad = Connection(ext.algebra, Tensor.from_entries((3, 3, 3), table))
    with pytest.raises(NotConical):
        extract_statistical(ext.algebra, bad, entry.metric, 2)


def test_extraction_rejects_broken_radiant_row():
    entry, ext = clan_cone()
    for idx, message in (((2, 2, 2), "nabla_rho rho is not rho"),
                         ((0, 2, 0), "nabla_u rho is not u"),
                         ((2, 0, 0), "nabla_rho u is not u")):
        table = dict(ext.nabla.gamma.entries)
        table[idx] = Q(0)
        bad = Connection(ext.algebra, Tensor.from_entries((3, 3, 3), table))
        with pytest.raises(MissingRadiant, match=f"^{message}$"):
            extract_statistical(ext.algebra, bad, entry.metric, 2)


def test_extraction_rejects_noncentral_rho():
    entry, ext = clan_cone()
    noisy = LieAlgebra.from_brackets(ext.algebra.basis_labels,
                                     {(0, 2): {0: 1}})
    with pytest.raises(NotConical, match="is nonzero"):
        extract_statistical(noisy, ext.nabla, entry.metric, 2)
    leaky = LieAlgebra.from_brackets(ext.algebra.basis_labels,
                                     {(0, 1): {2: 1}})
    with pytest.raises(NotConical, match="leaves the base subspace"):
        extract_statistical(leaky, ext.nabla, entry.metric, 2)


def test_extraction_rejects_zero_base_metric():
    L = LieAlgebra.abelian(("v", "rho"))
    conn = Connection.from_table(
        L, {(0, 1): {0: 1}, (1, 0): {0: 1}, (1, 1): {1: 1}})
    base = LieAlgebra.abelian(("v",))
    zero_g = Metric(base, Tensor.zero((1, 1)))
    with pytest.raises(NotConical):
        extract_statistical(L, conn, zero_g, 1)


def test_extraction_checks_binding_and_range():
    entry, ext = clan_cone()
    su2 = get_example("su2")
    with pytest.raises(DimensionMismatch):
        extract_statistical(ext.algebra, ext.nabla, su2.metric, 2)
    with pytest.raises(DimensionMismatch):
        extract_statistical(ext.algebra, ext.nabla, entry.metric, 7)


@pytest.mark.parametrize("index", [1.5, True, "1"],
                         ids=["float", "bool", "string"])
def test_a_basis_index_that_is_no_int_is_refused(index):
    # refused as Tensor refuses such an axis, not truncated or read as 0
    entry, ext = clan_cone()
    with pytest.raises(DimensionMismatch):
        dual_form(entry.algebra, index)
    with pytest.raises(DimensionMismatch):
        extract_statistical(ext.algebra, ext.nabla, entry.metric, index)


# -- metric rescaling ------------------------------------------------------

def scaled(metric, s):
    return Metric(metric.base, metric.g.scale(s))


def test_rescale_metric_scales_curvature_inversely():
    su2 = get_example("su2")
    g = scaled(su2.metric, 2)
    assert g.g[0, 0] == Q(2)
    fit = constant_curvature(su2.connection, g)
    assert (fit.kind, fit.value) == ("constant", Q(1, 2))


def test_rescale_metric_identity_and_composition():
    entry = clan({"c": "2"})
    assert scaled(entry.metric, 1) == entry.metric
    assert constant_curvature(entry.connection, entry.metric).value == Q(-2)
    g = scaled(entry.metric, 2)
    assert constant_curvature(entry.connection, g).value == Q(-1)
    assert scaled(g, Q(1, 2)) == entry.metric
