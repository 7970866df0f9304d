import copy
import functools
import io
import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from liegeom import (ComplexStructure, Connection, CurvatureFit,
                     DimensionMismatch, InputError, KForm, LieAlgebra, Metric,
                     MissingPieces, NoLeeForm, NotAlmostComplex,
                     ShapeMismatch, Tensor, UnsupportedDegree, VerdictError,
                     Witness, classify, codazzi_check, cone_extend,
                     constant_curvature, curvature, document_from, double,
                     get_example, lck_family, nabla_g, nijenhuis, parse,
                     serialize, torsion, witness_residual)
from liegeom import check, forms, geometry, tensors
from liegeom.cli import run_command
from liegeom.geometry import lee_form_solve, pairing_rows
from liegeom.tensors import det

Q = Fraction


def clan(params=None):
    return get_example("clan-triangular", params)


def su2():
    return get_example("su2")


# -- connections -----------------------------------------------------------

def test_connection_from_table_round_trip():
    entry = clan()
    rebuilt = Connection.from_table(
        entry.algebra, {(1, 0): {1: Q(-2)}, (1, 1): {0: Q(1)}})
    assert rebuilt == entry.connection


def test_connection_shape_guard():
    L = LieAlgebra.abelian(("x", "y"))
    with pytest.raises(ShapeMismatch):
        Connection(L, Tensor.zero((2, 2)))


def test_nabla_values_and_linearity():
    gamma = clan().connection.gamma
    # gamma[i, j, k] is the e_k part of nabla_{e_i} e_j with e_0 = u,
    # e_1 = v: nabla_v u = -2v, nabla_v v = u, nabla_u anything = 0
    assert (gamma[1, 0, 0], gamma[1, 0, 1]) == (Q(0), Q(-2))
    assert (gamma[1, 1, 0], gamma[1, 1, 1]) == (Q(1), Q(0))
    assert all(gamma[0, j, k] == 0 for j in range(2) for k in range(2))


# -- torsion ---------------------------------------------------------------

def test_torsion_vanishes_for_clan_and_su2():
    assert torsion(clan().connection).is_zero()
    assert torsion(su2().connection).is_zero()


def test_torsionful_fixture_has_unit_torsion():
    entry = get_example("flat-torsionful-fixture")
    t = torsion(entry.connection)
    assert dict(t.entries) == {(0, 1, 1): Q(1), (1, 0, 1): Q(-1)}


def test_zero_connection_torsion_is_minus_bracket():
    entry = clan()
    t = torsion(Connection.zero(entry.algebra))
    assert dict(t.entries) == {(0, 1, 1): Q(-2), (1, 0, 1): Q(2)}


# -- curvature -------------------------------------------------------------

def test_zero_connection_on_abelian_is_flat():
    L = LieAlgebra.abelian(("x", "y", "z"))
    assert curvature(Connection.zero(L)).is_zero()


def test_clan_curvature_components():
    # R(u, v)u = 4v and R(u, v)v = -2u, plus the i <-> j mirror images
    r = curvature(clan().connection)
    assert dict(r.entries) == {
        (0, 1, 0, 1): Q(4),
        (0, 1, 1, 0): Q(-2),
        (1, 0, 0, 1): Q(-4),
        (1, 0, 1, 0): Q(2),
    }


def test_su2_curvature_sample():
    r = curvature(su2().connection)
    assert tuple(r[0, 1, 1, l] for l in range(3)) == (Q(1), Q(0), Q(0))


def test_curvature_antisymmetric_in_first_pair():
    for entry in (clan(), su2(), get_example("flat-torsionful-fixture")):
        r = curvature(entry.connection)
        n = entry.algebra.dim
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    for l in range(n):
                        assert r[i, j, k, l] == -r[j, i, k, l]


# -- metric and its derivative ---------------------------------------------

def test_metric_requires_symmetry():
    L = LieAlgebra.abelian(("x", "y"))
    with pytest.raises(ShapeMismatch):
        Metric.from_rows(L, [[1, 2], [3, 1]])


def test_metric_value_and_positivity():
    entry = clan()
    assert entry.metric.g[0, 0] == 4
    assert entry.metric.g[0, 1] == 0
    assert entry.metric.is_positive_definite()
    indefinite = Metric.from_rows(entry.algebra, [[1, 2], [2, 1]])
    assert not indefinite.is_positive_definite()


def test_clan_and_su2_metrics_are_parallel():
    for entry in (clan(), su2()):
        assert nabla_g(entry.connection, entry.metric).is_zero()


def test_nabla_g_detects_perturbation():
    entry = clan()
    g = Metric.from_rows(entry.algebra, [[4, 0], [0, 3]])
    ng = nabla_g(entry.connection, g)
    assert dict(ng.entries) == {
        (1, 0, 1): Q(2), (1, 1, 0): Q(2)}


# -- codazzi ---------------------------------------------------------------

def test_codazzi_holds_on_catalog_pairs():
    for entry in (clan(), su2()):
        assert codazzi_check(entry.connection, entry.metric) is None


def test_codazzi_violation_location_and_residual():
    entry = clan()
    g = Metric.from_rows(entry.algebra, [[4, 0], [0, 3]])
    assert codazzi_check(entry.connection, g) == Witness(
        "codazzi", (0, 1, 1), Q(-2))


# -- constant curvature fit ------------------------------------------------

def test_constant_curvature_values():
    fit = constant_curvature(clan().connection, clan().metric)
    assert (fit.kind, fit.value) == ("constant", Q(-1))
    steep = clan({"c": "2"})
    fit2 = constant_curvature(steep.connection, steep.metric)
    assert (fit2.kind, fit2.value) == ("constant", Q(-2))
    fit3 = constant_curvature(su2().connection, su2().metric)
    assert (fit3.kind, fit3.value) == ("constant", Q(1))


def test_constant_curvature_underdetermined_in_dim_one():
    entry = get_example("so2")
    fit = constant_curvature(entry.connection, entry.metric)
    assert fit.kind == "underdetermined"
    assert fit.value is None


def test_constant_curvature_mismatch_reports_witness():
    # with the identity metric the two curvature slots want different
    # constants (-4 against -2), so no single value fits
    entry = clan()
    fit = constant_curvature(entry.connection, Metric.identity(entry.algebra))
    assert fit.kind == "none"
    assert fit.witness is not None
    assert fit.witness.claim == "constant_curvature"
    assert fit.witness.indices == (0, 1, 1, 0)
    assert fit.witness.residual == Q(2)
    assert fit.witness.detail == (Q(-4),)


def test_constant_curvature_rejects_degenerate_metric():
    entry = clan()
    g = Metric.from_rows(entry.algebra, [[1, 0], [0, 0]])
    assert constant_curvature(entry.connection, g) == CurvatureFit(
        "degenerate")


# -- complex structures ----------------------------------------------------

def test_complex_structure_square_check():
    L = LieAlgebra.abelian(("x", "y"))
    with pytest.raises(NotAlmostComplex):
        ComplexStructure.from_rows(L, [[1, 0], [0, 1]])
    with pytest.raises(NotAlmostComplex):
        ComplexStructure.from_rows(L, [[0, 1], [1, 0]])


@pytest.mark.parametrize("rows, message", [
    ([[0, Q(1, 2)], [-1, 0]], "(J*J)[0, 0] = -1/2, expected -1"),
    ([[0, -1], [1, 1]], "(J*J)[0, 1] = -1, expected 0"),
], ids=["diagonal", "off-diagonal"])
def test_complex_structure_names_the_first_entry_of_j_squared_off(
        rows, message):
    # the entry is the first in row-major order at which J*J + I is
    # nonzero, and the value printed is J*J there
    L = LieAlgebra.abelian(("x", "y"))
    with pytest.raises(NotAlmostComplex) as exc:
        ComplexStructure.from_rows(L, rows)
    assert str(exc.value) == message


def test_complex_structure_shape_check():
    L = LieAlgebra.abelian(("x", "y"))
    with pytest.raises(ShapeMismatch):
        ComplexStructure(L, Tensor.zero((2, 3)))


def test_complex_structure_apply():
    L = LieAlgebra.abelian(("x", "y"))
    J = ComplexStructure.from_rows(L, [[0, -1], [1, 0]])
    # J.j[i, k] is the e_i coefficient of J e_k: J x = -y, J y = x
    assert (J.j[0, 0], J.j[1, 0]) == (Q(0), Q(1))
    assert (J.j[0, 1], J.j[1, 1]) == (Q(-1), Q(0))


# -- nijenhuis tensor ------------------------------------------------------

def test_nijenhuis_vanishes_on_abelian_with_standard_j():
    L = LieAlgebra.abelian(("x", "y"))
    J = ComplexStructure.from_rows(L, [[0, -1], [1, 0]])
    assert nijenhuis(L, J).is_zero()


def test_nijenhuis_vanishes_on_cone_double():
    entry = clan()
    ext = cone_extend(entry.algebra, entry.connection, entry.metric)
    dbl = double(ext.algebra, ext.nabla)
    assert nijenhuis(dbl.algebra, dbl.complex_structure).is_zero()


def test_nijenhuis_obstruction_with_torsion():
    entry = get_example("flat-torsionful-fixture")
    dbl = double(entry.algebra, entry.connection)
    n = nijenhuis(dbl.algebra, dbl.complex_structure)
    assert not n.is_zero()
    assert tuple(n[0, 1, k] for k in range(4)) == (Q(0), Q(-1), Q(0), Q(0))


def test_classify_reads_integrability_off_the_module_nijenhuis(monkeypatch):
    # the reference classify swaps geometry._nijenhuis_blocks for blocks
    # cut from the dense oracle, which covers classify only while it
    # calls that name; the stub's N is 1 at (0, 1, 0), in row block 0
    L = LieAlgebra.abelian(("x", "y"))
    J = ComplexStructure.from_rows(L, [[0, -1], [1, 0]])
    assert classify(L, complex_structure=J).is_integrable is True
    stub = {0: (1, {(1, 0): 1})}
    monkeypatch.setattr(geometry, "_nijenhuis_blocks",
                        lambda *_: lambda i: stub.get(i, (1, {})))
    report = classify(L, complex_structure=J)
    assert report.is_integrable is False
    assert report.witnesses == (Witness("nijenhuis", (0, 1), (Q(1), Q(0))),)


# -- lee form --------------------------------------------------------------

def test_lee_form_zero_when_omega_closed():
    L = LieAlgebra.abelian(("a", "b", "c", "d"))
    omega = KForm.from_components(4, 2, {(0, 1): Q(1), (2, 3): Q(1)})
    theta = lee_form_solve(L, omega)
    assert theta is not None
    assert list(theta.components()) == []


def test_lee_form_unique_solution():
    L = LieAlgebra.from_brackets(
        ("e1", "e2", "e3", "e4"), {(0, 1): {2: 1}, (0, 2): {0: 1}})
    omega = KForm.from_components(
        4, 2, {(0, 1): Q(1), (2, 3): Q(1), (1, 2): Q(1)})
    theta = lee_form_solve(L, omega)
    assert list(theta.components()) == [
        ((1,), Q(1)), ((2,), Q(1)), ((3,), Q(-1))]


def test_lee_form_infeasible_returns_none():
    L = LieAlgebra.from_brackets(("e1", "e2", "e3", "e4"), {(0, 1): {2: 1}})
    omega = KForm.from_components(4, 2, {(2, 3): Q(1)})
    assert lee_form_solve(L, omega) is None


# -- classify --------------------------------------------------------------

def test_classify_flags_none_without_inputs():
    entry = clan()
    report = classify(entry.algebra)
    assert report.is_jacobi is True
    assert report.is_torsion_free is None
    assert report.is_kahler is None
    with pytest.raises(MissingPieces) as caught:
        report.flag("kahler")
    assert caught.value.pieces == ("complex_structure", "omega")
    assert isinstance(caught.value, InputError)
    assert report.flag("jacobi") is True


def test_flag_refuses_a_name_outside_the_verdict_table():
    report = classify(clan().algebra)
    with pytest.raises(InputError, match="no verdict named 'bogus'") as caught:
        report.flag("bogus")
    assert "torsion_free" in str(caught.value)
    assert "lee_closed" in str(caught.value)


def test_classify_statistical_composites():
    entry = clan()
    report = classify(entry.algebra, connection=entry.connection,
                      metric=entry.metric)
    assert report.is_torsion_free is True
    assert report.is_codazzi is True
    assert report.is_metric_positive is True
    assert report.is_statistical is True
    assert report.is_flat is False
    assert report.is_hessian is False
    assert report.constant_curvature.kind == "constant"
    assert report.constant_curvature.value == Q(-1)
    claims = [w.claim for w in report.witnesses]
    assert claims == ["curvature"]


def test_classify_reports_a_degenerate_metric():
    L = LieAlgebra.abelian(("x", "y"))
    g = Metric.from_rows(L, [[1, 0], [0, 0]])
    report = classify(L, connection=Connection.zero(L), metric=g)
    assert report.is_metric_positive is False
    assert report.is_statistical is False
    assert report.constant_curvature.kind == "degenerate"
    assert report.constant_curvature.value is None
    (witness,) = report.witnesses
    assert (witness.claim, witness.indices, witness.residual,
            witness.detail) == ("positive_definite", (2,), Q(0), (Q(0), Q(1)))
    assert witness_residual(witness, metric=g) == 0


def test_positive_definite_witness_rechecks_its_kernel():
    L = LieAlgebra.abelian(("x", "y"))
    g = Metric.from_rows(L, [[1, 0], [0, 0]])
    for detail in [(Q(1), Q(1)),            # not in the kernel
                   (Q(0), Q(0)),            # zero
                   (Q(0), Q(1), Q(0)),      # wrong length
                   ]:
        with pytest.raises(ShapeMismatch):
            witness_residual(Witness("positive_definite", (2,), Q(0), detail),
                             metric=g)
    # a kernel vector of the leading 1x1 block [[1]] does not exist, and
    # entries past the witness index are refused
    h = Metric.from_rows(L, [[0, 0], [0, 1]])
    assert witness_residual(
        Witness("positive_definite", (1,), Q(0), (Q(1), Q(0))), metric=h) == 0
    with pytest.raises(ShapeMismatch):
        witness_residual(Witness("positive_definite", (1,), Q(0),
                                 (Q(1), Q(1))), metric=h)


def test_positive_definite_witness_index_out_of_range():
    L = LieAlgebra.abelian(("x", "y"))
    g = Metric.from_rows(L, [[1, 0], [0, -1]])
    for idx in [(0,), (3,), (), (1, 2)]:
        with pytest.raises(ShapeMismatch):
            witness_residual(Witness("positive_definite", idx, Q(0)),
                             metric=g)


def test_degeneracy_is_read_from_the_determinant():
    # the leading minors stop at the zero 1x1 one, yet g is invertible,
    # so the curvature fit still runs
    L = LieAlgebra.abelian(("x", "y"))
    g = Metric.from_rows(L, [[0, 1], [1, 0]])
    report = classify(L, connection=Connection.zero(L), metric=g)
    assert report.is_metric_positive is False
    assert report.constant_curvature.kind == "constant"
    (witness,) = report.witnesses
    assert (witness.indices, witness.detail) == ((1,), (Q(1), Q(0)))
    assert witness_residual(witness, metric=g) == 0


def test_classify_reads_det_off_a_full_list_of_leading_minors(monkeypatch):
    # the last of n leading minors is det g, so no second elimination runs,
    # in classify and in constant_curvature; det runs only when the list
    # stops short
    calls = []

    def counted(matrix):
        calls.append(matrix)
        return det(matrix)

    monkeypatch.setattr(geometry, "det", counted)
    entry = clan()
    report = classify(entry.algebra, connection=entry.connection,
                      metric=entry.metric)
    assert report.is_metric_positive is True
    assert report.constant_curvature == CurvatureFit("constant", Q(-1))
    singular = Metric.from_rows(entry.algebra, [[1, 0], [0, 0]])
    report = classify(entry.algebra, connection=entry.connection,
                      metric=singular)
    assert report.constant_curvature.kind == "degenerate"
    assert constant_curvature(entry.connection, entry.metric) == CurvatureFit(
        "constant", Q(-1))
    assert constant_curvature(entry.connection, singular).kind == "degenerate"
    assert calls == []
    swapped = Metric.from_rows(entry.algebra, [[0, 1], [1, 0]])
    assert constant_curvature(entry.connection, swapped).kind != "degenerate"
    assert calls == [swapped.g]


def test_classify_kahler_on_abelian_plane():
    L = LieAlgebra.abelian(("x", "y"))
    J = ComplexStructure.from_rows(L, [[0, -1], [1, 0]])
    omega = KForm.from_components(2, 2, {(0, 1): Q(1)})
    report = classify(L, complex_structure=J, omega=omega)
    assert report.is_integrable is True
    assert report.is_omega_closed is True
    assert report.is_pairing_positive is True
    assert report.is_kahler is True
    assert report.is_lck is True
    assert report.is_lee_closed is True
    assert list(report.lee_form.components()) == []
    assert report.witnesses == ()


def test_classify_negative_pairing():
    L = LieAlgebra.abelian(("x", "y"))
    J = ComplexStructure.from_rows(L, [[0, -1], [1, 0]])
    omega = KForm.from_components(2, 2, {(0, 1): Q(-1)})
    report = classify(L, complex_structure=J, omega=omega)
    assert report.is_pairing_positive is False
    assert report.is_kahler is False
    (witness,) = [w for w in report.witnesses
                  if w.claim == "pairing_positive"]
    assert witness.indices == (1,)
    assert witness.residual == Q(-1)


def test_classify_asymmetric_pairing():
    L = LieAlgebra.abelian(("a", "b", "c", "d"))
    omega = KForm.from_components(4, 2, {(0, 2): Q(1)})
    J = ComplexStructure.from_rows(
        L, [[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]])
    report = classify(L, complex_structure=J, omega=omega)
    assert report.is_pairing_positive is False
    (witness,) = [w for w in report.witnesses
                  if w.claim == "pairing_symmetry"]
    assert witness.indices == (0, 3)
    assert witness.residual == Q(-1)
    pairing = pairing_rows(omega, J)
    assert pairing[0, 3] - pairing[3, 0] == Q(-1)


def test_pairing_rows_refuses_a_form_it_cannot_pair_with_j():
    # omega must be a 2-form of J's dimension: a 1-form used to escape as
    # IndexError, a 3-form to come back as a rank-3 "matrix", and a dim-4
    # omega against a dim-6 J as a (4, 4) one
    L6 = LieAlgebra.abelian(tuple("abcdef"))
    J6 = ComplexStructure.from_rows(L6, [
        [-1 if j == i + 3 else int(i == j + 3) for j in range(6)]
        for i in range(6)])
    with pytest.raises(UnsupportedDegree):
        pairing_rows(KForm.from_components(6, 1, {(0,): Q(1)}), J6)
    with pytest.raises(UnsupportedDegree):
        pairing_rows(KForm.from_components(6, 3, {(0, 1, 2): Q(1)}), J6)
    with pytest.raises(DimensionMismatch):
        pairing_rows(KForm.from_components(4, 2, {(0, 1): Q(1)}), J6)


def test_classify_nonclosed_lee_form():
    # the lee system pins theta uniquely but d theta != 0, and adding the
    # closedness rows makes the joint system infeasible
    L = LieAlgebra.from_brackets(
        ("e1", "e2", "e3", "e4"), {(0, 1): {2: 1}, (0, 2): {0: 1}})
    omega = KForm.from_components(
        4, 2, {(0, 1): Q(1), (2, 3): Q(1), (1, 2): Q(1)})
    report = classify(L, omega=omega)
    assert report.is_lee_closed is False
    assert list(report.lee_form.components()) == [
        ((1,), Q(1)), ((2,), Q(1)), ((3,), Q(-1))]
    claims = {w.claim for w in report.witnesses}
    assert {"d_lee", "lee_closed_system"} <= claims


def test_classify_lee_system_infeasible():
    L = LieAlgebra.from_brackets(("e1", "e2", "e3", "e4"), {(0, 1): {2: 1}})
    omega = KForm.from_components(4, 2, {(2, 3): Q(1)})
    report = classify(L, omega=omega)
    assert report.lee_form is None
    assert report.is_lee_closed is None
    (witness,) = [w for w in report.witnesses if w.claim == "lee_system"]
    assert witness.indices == ()
    assert witness.residual != 0


def test_flag_lee_closed_without_a_lee_form():
    # omega is supplied, so lee_closed is not missing a piece: the Lee
    # equation has no solution, and the computed flags leave it out
    L = LieAlgebra.from_brackets(("e1", "e2", "e3", "e4"), {(0, 1): {2: 1}})
    omega = KForm.from_components(4, 2, {(2, 3): Q(1)})
    report = classify(L, omega=omega)
    assert dict(report.computed_flags()) == {"jacobi": True,
                                             "omega_closed": False}
    with pytest.raises(NoLeeForm, match="the Lee equation has no solution"):
        report.flag("lee_closed")
    assert issubclass(NoLeeForm, VerdictError)
    with pytest.raises(MissingPieces):
        classify(L).flag("lee_closed")


def test_classify_rejects_mismatched_pieces():
    entry = clan()
    other = su2()
    with pytest.raises(DimensionMismatch):
        classify(entry.algebra, connection=other.connection)
    with pytest.raises(UnsupportedDegree):
        classify(entry.algebra,
                 omega=KForm.from_components(2, 1, {(0,): Q(1)}))
    with pytest.raises(DimensionMismatch):
        classify(entry.algebra,
                 omega=KForm.from_components(3, 2, {(0, 1): Q(1)}))


# -- witness re-evaluation -------------------------------------------------

def _claim_cases():
    """(report, pieces) pairs whose witnesses cover every claim, each
    with the raw pieces its report was built from."""
    cases = []

    violator = LieAlgebra.from_brackets(
        ("e1", "e2", "e3"), {(0, 1): {0: 1}, (0, 2): {2: 1}})
    cases.append((classify(violator), {"algebra": violator}))

    torsionful = get_example("flat-torsionful-fixture")
    cases.append((
        classify(torsionful.algebra, connection=torsionful.connection,
                 metric=torsionful.metric),
        {"algebra": torsionful.algebra, "connection": torsionful.connection,
         "metric": torsionful.metric}))

    entry = clan()
    bad_g = Metric.from_rows(entry.algebra, [[4, 0], [0, 3]])
    cases.append((
        classify(entry.algebra, connection=entry.connection, metric=bad_g),
        {"algebra": entry.algebra, "connection": entry.connection,
         "metric": bad_g}))

    indefinite = Metric.from_rows(entry.algebra, [[1, 2], [2, 1]])
    cases.append((
        classify(entry.algebra, connection=entry.connection,
                 metric=indefinite),
        {"algebra": entry.algebra, "connection": entry.connection,
         "metric": indefinite}))

    dbl = double(torsionful.algebra, torsionful.connection)
    cases.append((
        classify(dbl.algebra, complex_structure=dbl.complex_structure),
        {"algebra": dbl.algebra, "complex_structure": dbl.complex_structure}))

    lee = LieAlgebra.from_brackets(
        ("e1", "e2", "e3", "e4"), {(0, 1): {2: 1}, (0, 2): {0: 1}})
    lee_omega = KForm.from_components(
        4, 2, {(0, 1): Q(1), (2, 3): Q(1), (1, 2): Q(1)})
    lee_report = classify(lee, omega=lee_omega)
    cases.append((lee_report,
                  {"algebra": lee, "omega": lee_omega,
                   "lee_form": lee_report.lee_form}))

    infeasible = LieAlgebra.from_brackets(
        ("e1", "e2", "e3", "e4"), {(0, 1): {2: 1}})
    bad_omega = KForm.from_components(4, 2, {(2, 3): Q(1)})
    cases.append((classify(infeasible, omega=bad_omega),
                  {"algebra": infeasible, "omega": bad_omega}))

    plane = LieAlgebra.abelian(("x", "y"))
    J = ComplexStructure.from_rows(plane, [[0, -1], [1, 0]])
    neg = KForm.from_components(2, 2, {(0, 1): Q(-1)})
    cases.append((classify(plane, complex_structure=J, omega=neg),
                  {"algebra": plane, "complex_structure": J, "omega": neg}))

    asym_base = LieAlgebra.abelian(("a", "b", "c", "d"))
    asym_omega = KForm.from_components(4, 2, {(0, 2): Q(1)})
    asym_j = ComplexStructure.from_rows(
        asym_base,
        [[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]])
    cases.append((
        classify(asym_base, complex_structure=asym_j, omega=asym_omega),
        {"algebra": asym_base, "complex_structure": asym_j,
         "omega": asym_omega}))
    return cases


def test_witness_residuals_round_trip_for_every_claim():
    # collect reports whose witnesses cover the whole claim vocabulary,
    # then recompute each residual from the raw inputs
    cases = _claim_cases()

    entry = clan()
    fit = constant_curvature(entry.connection,
                             Metric.identity(entry.algebra))
    assert fit.witness is not None
    value = witness_residual(fit.witness, connection=entry.connection,
                             metric=Metric.identity(entry.algebra))
    assert value == fit.witness.residual

    seen = set()
    for report, pieces in cases:
        for witness in report.witnesses:
            seen.add(witness.claim)
            assert witness_residual(witness, **pieces) == witness.residual

    assert {"jacobi", "torsion", "curvature", "codazzi",
            "positive_definite", "nijenhuis", "d_omega", "d_lee",
            "lee_system", "lee_closed_system", "pairing_symmetry",
            "pairing_positive"} <= seen


def test_witness_residual_names_the_piece_it_was_not_given():
    # a recheck without a piece its claim reads raises MissingPieces
    # naming that piece; leaving out a piece it does not read is harmless
    refused = set()
    for report, pieces in _claim_cases():
        for witness in report.witnesses:
            for name in pieces:
                rest = {k: v for k, v in pieces.items() if k != name}
                try:
                    value = witness_residual(witness, **rest)
                except MissingPieces as exc:
                    assert exc.pieces == (name,)
                    assert witness.claim in str(exc) and name in str(exc)
                    refused.add(witness.claim)
                else:
                    assert value == witness.residual
    assert refused == set(geometry.CLAIMS)


def _heisenberg_line(m):
    """R x h(2m + 1): x1..xm, y1..ym, z, t with [x_i, y_i] = z."""
    labels = ([f"x{i}" for i in range(m)] + [f"y{i}" for i in range(m)]
              + ["z", "t"])
    return LieAlgebra.from_brackets(
        tuple(labels), {(i, m + i): {2 * m: 1} for i in range(m)})


def _dense_two_form(n, rng):
    return KForm.from_components(n, 2, {
        (i, j): Q(rng.randint(-3, 3), rng.randint(1, 3))
        for i in range(n) for j in range(i + 1, n)})


def test_witness_residual_rejects_stale_certificate():
    L = LieAlgebra.from_brackets(("e1", "e2", "e3", "e4"), {(0, 1): {2: 1}})
    omega = KForm.from_components(4, 2, {(2, 3): Q(1)})
    report = classify(L, omega=omega)
    (witness,) = [w for w in report.witnesses if w.claim == "lee_system"]
    other = KForm.from_components(4, 2, {(0, 1): Q(1)})
    with pytest.raises(ShapeMismatch):
        witness_residual(witness, algebra=L, omega=other)
    short = Witness("lee_system", (), witness.residual, witness.detail[:-1])
    with pytest.raises(ShapeMismatch, match="combination length"):
        witness_residual(short, algebra=L, omega=omega)

    # classify reads a certificate off its solve, so the recheck alone
    # vouches for the combination: one nonzero entry doubled or zeroed
    # is refused or rechecks to another residual
    H = _heisenberg_line(2)
    dense = _dense_two_form(H.dim, random.Random(1))
    cases = [(w, pieces) for report, pieces in _claim_cases()
             for w in report.witnesses
             if w.claim in ("lee_system", "lee_closed_system")]
    cases += [(w, {"algebra": H, "omega": dense})
              for w in classify(H, omega=dense).witnesses
              if w.claim == "lee_system"]
    assert {w.claim for w, _ in cases} == {"lee_system", "lee_closed_system"}
    assert any(sum(map(bool, w.detail)) > 2 for w, _ in cases)
    for witness, pieces in cases:
        y = witness.detail
        for i in (i for i, v in enumerate(y) if v):
            for v in (2 * y[i], Q(0)):
                stale = Witness(witness.claim, (), witness.residual,
                                y[:i] + (v,) + y[i + 1:])
                try:
                    value = witness_residual(stale, **pieces)
                except ShapeMismatch:
                    continue
                assert value != witness.residual


def test_witness_residual_checks_the_lee_form_degree_and_dimension():
    # the Lee system is rebuilt from the pieces, so a 1-form omega or one
    # on another algebra is refused before any row is built
    L = LieAlgebra.from_brackets(("e1", "e2", "e3", "e4"), {(0, 1): {2: 1}})
    omega = KForm.from_components(4, 2, {(2, 3): Q(1)})
    (witness,) = [w for w in classify(L, omega=omega).witnesses
                  if w.claim == "lee_system"]
    with pytest.raises(UnsupportedDegree):
        witness_residual(witness, algebra=L,
                         omega=KForm.from_components(4, 1, {(0,): Q(1)}))
    with pytest.raises(DimensionMismatch):
        witness_residual(witness, algebra=L,
                         omega=KForm.from_components(3, 2, {(0, 1): Q(1)}))


@pytest.mark.parametrize("claim, indices, detail", [
    ("jacobi", (0, 1), ()),
    ("constant_curvature", (0, 1, 0, 1), ()),
    ("pairing_symmetry", (-1, 0), ()),
    ("pairing_symmetry", (0, 99), ()),
    ("pairing_symmetry", (0,), ()),
    ("no_such_claim", (), ()),
    ("torsion", (0.5, 1), ()),
    ("torsion", (True, 0), ()),
    ("torsion", ("a", 1), ()),
    ("positive_definite", (1.0,), ()),
    ("torsion", 5, ()),
    ("constant_curvature", (0, 1, 0, 1), None),
], ids=["jacobi-two-indices", "fit-without-constant",
        "pairing-negative-index", "pairing-index-out-of-range",
        "pairing-one-index", "unknown-claim", "torsion-fractional-index",
        "torsion-bool-index", "torsion-string-index", "minor-float-index",
        "torsion-int-indices", "fit-detail-none"])
def test_malformed_witness_is_refused(claim, indices, detail):
    # witnesses read from a file may be malformed; a negative index must
    # not wrap around, an index must be an int and no bool, and nothing
    # may escape as TypeError or IndexError
    entry = su2()
    member = lck_family(entry.algebra, entry.connection, entry.metric,
                        c=None, t=1)
    pieces = {"algebra": entry.algebra, "connection": entry.connection,
              "metric": entry.metric}
    if claim == "pairing_symmetry":
        pieces = {"algebra": member.double.algebra, "omega": member.omega,
                  "complex_structure": member.double.complex_structure}
    with pytest.raises(ShapeMismatch):
        witness_residual(Witness(claim, indices, Q(0), detail), **pieces)


def _two_piece_witnesses():
    """For each claim whose recheck reads two pieces: a witness, the
    pieces it holds for, and the name and value of a stand-in for one of
    them that is bound to another algebra or dimension."""
    A3 = LieAlgebra.abelian(("a", "b", "c"))
    D3 = Connection.from_table(A3, {(0, 1): {0: Q(1)}})
    g3 = Metric.identity(A3)
    g2 = Metric.identity(LieAlgebra.abelian(("a", "b")))
    A4 = LieAlgebra.abelian(("a", "b", "c", "d"))
    J4 = ComplexStructure.from_rows(
        A4, [[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]])
    J2 = ComplexStructure.from_rows(LieAlgebra.abelian(("x", "y")),
                                    [[0, -1], [1, 0]])
    omega = KForm.from_components(4, 2, {(0, 1): Q(1), (2, 3): Q(1)})
    theta = KForm.from_components(4, 1, {(0,): Q(1)})
    lee = {"algebra": A4, "omega": omega}
    return {
        "codazzi": ((0, 1, 0), (), {"connection": D3, "metric": g3},
                    "metric", g2),
        "constant_curvature": ((0, 1, 0, 1), (Q(1),),
                               {"connection": D3, "metric": g3},
                               "metric", g2),
        "nijenhuis": ((0, 1), (), {"algebra": A4, "complex_structure": J4},
                      "complex_structure", J2),
        "d_omega": ((0, 1, 2), (), {"algebra": A4, "omega": omega},
                    "algebra", A3),
        "d_lee": ((0, 1), (), {"algebra": A4, "lee_form": theta},
                  "algebra", A3),
        "lee_system": ((), (), lee, "algebra", A3),
        "lee_closed_system": ((), (), lee, "algebra", A3),
        "pairing_symmetry": ((0, 1), (),
                             {"omega": omega, "complex_structure": J4},
                             "complex_structure", J2),
        "pairing_positive": ((1,), (),
                             {"omega": omega, "complex_structure": J4},
                             "complex_structure", J2),
    }


@pytest.mark.parametrize("claim", sorted(_two_piece_witnesses()))
def test_witness_residual_refuses_pieces_of_different_algebras(claim):
    # classify refuses these pairs; a recheck must not return a number
    indices, detail, pieces, name, stranger = _two_piece_witnesses()[claim]
    witness = Witness(claim, indices, Q(0), detail)
    if claim not in ("lee_system", "lee_closed_system"):
        witness_residual(witness, **pieces)     # the matched pair rechecks
    with pytest.raises(DimensionMismatch):
        witness_residual(witness, **{**pieces, name: stranger})
    if claim in ("codazzi", "constant_curvature"):
        # a metric of the right dimension on another bracket
        other = LieAlgebra.from_brackets(("a", "b", "c"), {(0, 1): {2: 1}})
        with pytest.raises(DimensionMismatch):
            witness_residual(witness, **{**pieces,
                                         "metric": Metric.identity(other)})


@pytest.mark.parametrize("claim, indices, name", [
    ("d_omega", (0, 1, 2), "omega"), ("d_lee", (0, 1), "lee_form"),
    ("pairing_symmetry", (0, 1), "omega"), ("pairing_positive", (1,), "omega"),
], ids=["d_omega", "d_lee", "pairing_symmetry", "pairing_positive"])
def test_witness_residual_refuses_a_form_of_another_degree(claim, indices,
                                                           name):
    # omega is read as a 2-form and the Lee form as a 1-form; the pairing
    # with a 1-form omega used to escape as IndexError
    A4 = LieAlgebra.abelian(("a", "b", "c", "d"))
    J4 = ComplexStructure.from_rows(
        A4, [[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]])
    wrong = (KForm.from_components(4, 1, {(0,): Q(1)}) if name == "omega"
             else KForm.from_components(4, 2, {(0, 1): Q(1)}))
    with pytest.raises(UnsupportedDegree):
        witness_residual(Witness(claim, indices, Q(0)), algebra=A4,
                         complex_structure=J4, **{name: wrong})


def _raise(*args, **kwargs):
    raise AssertionError("a recheck called a routine classify computes with")


def _every_claim_witnessed():
    """(witness, pieces) pairs, one or more witnesses of every claim,
    found by classify or the curvature fit from those pieces."""
    cases = _claim_cases()
    L = LieAlgebra.abelian(("x", "y"))
    singular = Metric.from_rows(L, [[1, 0], [0, 0]])
    cases.append((classify(L, metric=singular), {"metric": singular}))
    entry = clan()
    g = Metric.identity(entry.algebra)
    fit = constant_curvature(entry.connection, g)
    witnesses = [(fit.witness, {"connection": entry.connection,
                                "metric": g})]
    witnesses += [(w, pieces) for report, pieces in cases
                  for w in report.witnesses]
    assert {w.claim for w, _ in witnesses} == set(geometry.CLAIMS)
    return witnesses


def test_rechecks_do_not_call_the_kernels_behind_the_verdict(monkeypatch):
    # one witness of every claim, found by classify first; the rechecks
    # then run with the tensor builders, the Lee system builders, their
    # block kernels, the symmetric minors pass of the positivity verdicts
    # and the general elimination disabled, so a minor is rechecked by
    # leading_minors alone, a pass of its own
    witnesses = _every_claim_witnessed()
    assert any(w.claim == "positive_definite" and w.detail
               for w, _ in witnesses)
    for name in ("_symmetric_minors", "_bareiss", "_eliminate", "_combine",
                 "_cleared"):
        monkeypatch.setattr(tensors, name, _raise)
    for name in ("curvature", "nabla_g", "nijenhuis", "torsion",
                 "pairing_rows", "comparison_tensor", "ce_d",
                 "_torsion_blocks", "_curvature_blocks", "_nabla_g_blocks",
                 "_comparison_blocks", "_nijenhuis_blocks",
                 "lee_form_system", "_lee_rows", "_bareiss",
                 "_symmetric_minors"):
        monkeypatch.setattr(geometry, name, _raise)
    for witness, pieces in witnesses:
        assert witness_residual(witness, **pieces) == witness.residual


VIEWS = ("_rows", "_mirrored")


def _fresh(t):
    """A new Tensor equal to t, none of its caches built yet."""
    return Tensor._trusted(t.shape, t.entries)


def test_rechecks_read_the_bracket_off_its_half():
    # on every piece rebuilt on fresh Tensors, as a parsed document gives
    # them (classify already built the views of the old ones), no recheck
    # derives the full structure tensor c or a view the kernels read
    held = {Connection: "gamma", Metric: "g", ComplexStructure: "j"}
    for witness, pieces in _every_claim_witnessed():
        old = pieces.get("algebra") or next(
            p.base for p in pieces.values() if type(p) in held)
        L = LieAlgebra(old.dim, old.basis_labels, _fresh(old.half))
        fresh = {name: L if name == "algebra" else
                 type(p)(L, _fresh(getattr(p, held[type(p)])))
                 if type(p) in held else KForm(p.degree, _fresh(p.half))
                 for name, p in pieces.items()}
        assert witness_residual(witness, **fresh) == witness.residual
        assert "c" not in L.__dict__, witness.claim
        read = [L.half] + [getattr(p, held[type(p)]) if type(p) in held
                           else p.half for p in fresh.values() if p is not L]
        assert not [view for t in read for view in VIEWS
                    if view in t.__dict__], witness.claim


def _record_builds(monkeypatch, cls, name, record):
    """Stand a cached_property in for cls.name that builds its value as
    before and hands record the instance and the value each time."""
    def recorded(self, build=getattr(cls, name).func):
        value = build(self)
        record(self, value)
        return value

    stand_in = functools.cached_property(recorded)
    stand_in.__set_name__(cls, name)
    monkeypatch.setattr(cls, name, stand_in)


def test_the_verdict_path_reads_the_halves_alone(monkeypatch, tmp_path):
    # classify with every piece of a dense dim-6 document, lck_family,
    # the Lee solve and verify --as lck read the stored halves of c and
    # omega: none derives LieAlgebra.c or KForm.coefficients
    built = Counter()
    for cls, name in ((LieAlgebra, "c"), (KForm, "coefficients")):
        _record_builds(monkeypatch, cls, name,
                       lambda _, value, name=name: built.update([name]))
    rng = random.Random(6)
    L, D, g, J = _dense_pieces(6, rng)
    path = tmp_path / "dense6.json"
    path.write_text(serialize(document_from(
        L, D, g, J, forms=(("omega", _dense_two_form(6, rng)),))))
    doc = parse(path.read_text())
    L, omega = doc.to_algebra(), doc.to_form("omega")
    report = classify(L, doc.to_connection(L), doc.to_metric(L),
                      doc.to_complex_structure(L), omega)
    assert report.witnesses
    solved = doc.to_algebra(), doc.to_form("omega")
    assert lee_form_solve(*solved) == report.lee_form
    A = LieAlgebra.abelian(("a", "b", "c"))
    fam = lck_family(A, Connection.zero(A), Metric.identity(A), None, 2)
    assert fam.report.is_lck is True
    assert run_command(["verify", "--as", "lck", str(path)],
                       stdout=io.StringIO(), stderr=io.StringIO()) == 1
    assert built == Counter()
    for algebra_, form in ((L, omega), solved, (fam.double.algebra,
                                                 fam.omega)):
        assert "c" not in algebra_.__dict__
        assert "coefficients" not in form.__dict__
    assert L.c[1, 0, 2] == -L.half[0, 1, 2]
    assert built == Counter(c=1)     # the guard counts a derivation


def _watch_views(monkeypatch):
    """(tensor, view name, view, a deep copy of the view taken as it was
    built) for every view of a Tensor built from now on."""
    built = []
    for name in VIEWS:
        _record_builds(monkeypatch, Tensor, name, lambda t, view, name=name:
                       built.append((t, name, view, copy.deepcopy(view))))
    return built


def _views_read(L, D, g, J, omega):
    """(id of a Tensor, view name) of each view classify reads with every
    piece: c's half by rows and mirrored, gamma, g and J by rows, omega's
    half mirrored."""
    return {(id(t), name) for t, name in (
        (L.half, "_rows"), (L.half, "_mirrored"), (D.gamma, "_rows"),
        (g.g, "_rows"), (J.j, "_rows"), (omega.half, "_mirrored"))}


def test_each_view_of_a_tensor_is_built_once(monkeypatch, tmp_path):
    # classify with every piece of a dense dim-6 document, then verify
    # --as lck of it: every kernel reads the views its pieces cache, and
    # no view of a Tensor is built twice
    built = _watch_views(monkeypatch)
    rng = random.Random(6)
    path = tmp_path / "dense6.json"
    path.write_text(serialize(document_from(
        *_dense_pieces(6, rng), forms=(("omega", _dense_two_form(6, rng)),))))
    doc = parse(path.read_text())
    L = doc.to_algebra()
    pieces = (L, doc.to_connection(L), doc.to_metric(L),
              doc.to_complex_structure(L), doc.to_form("omega"))
    expected = _views_read(*pieces)
    assert classify(*pieces).witnesses
    assert {(id(t), name) for t, name, _, _ in built} == expected
    assert run_command(["verify", "--as", "lck", str(path)],
                       stdout=io.StringIO(), stderr=io.StringIO()) == 1
    counts = Counter((id(t), name) for t, name, _, _ in built)
    assert len(counts) == 2 * len(expected)
    assert set(counts.values()) == {1}


def test_the_kernels_leave_the_shared_views_as_built(monkeypatch):
    # classify twice on the same dense dim-6 pieces, every public kernel
    # run in between: the reports agree, and each view still equals the
    # deep copy taken as it was built, so no kernel wrote into one
    built = _watch_views(monkeypatch)
    rng = random.Random(6)
    L, D, g, J = _dense_pieces(6, rng)
    omega = _dense_two_form(6, rng)
    first = classify(L, D, g, J, omega)
    expected = _views_read(L, D, g, J, omega)
    assert {(id(t), name) for t, name, _, _ in built} == expected
    torsion(D), curvature(D), nabla_g(D, g), nijenhuis(L, J)
    forms.ce_d(L, omega), pairing_rows(omega, J), lee_form_solve(L, omega)
    assert classify(L, D, g, J, omega) == first
    assert len(built) == len(expected)
    for t, name, view, kept in built:
        assert view == kept, name


@pytest.mark.parametrize("n, size", [(3, 3), (5, 3), (7, 3), (5, 2), (8, 2)])
def test_lee_rows_unrank_in_lexicographic_order(n, size):
    assert [check._unrank(r, n, size) for r in range(math.comb(n, size))
            ] == list(itertools.combinations(range(n), size))


# -- classify judges each matrix once ---------------------------------------

def _count_calls(monkeypatch, *names, module=geometry, calls=None):
    """Wrap each named function of module so that its calls are counted,
    into calls when given."""
    calls = Counter() if calls is None else calls
    for name in names:
        def counted(*args, name=name, f=getattr(module, name), **kwargs):
            calls[name] += 1
            return f(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return calls


def test_classify_reads_a_minor_off_its_one_elimination(monkeypatch):
    # g = P diag(1, ..., 1, -1) P^T with P dense and lower unitriangular:
    # every leading minor is 1 but the last, -1
    n, rng = 6, random.Random(2)
    P = [[Q(int(i == j)) if j >= i else Q(rng.randint(-2, 2), 3)
          for j in range(n)] for i in range(n)]
    D = [1] * (n - 1) + [-1]
    L = LieAlgebra.abelian(tuple(f"e{i}" for i in range(n)))
    g = Metric.from_rows(L, [[sum(P[i][m] * D[m] * P[j][m] for m in range(n))
                              for j in range(n)] for i in range(n)])
    # that one elimination is the symmetric pass: det and the general
    # elimination behind it do not run, nor leading_minors, the separate
    # pass behind the recheck _minor
    calls = _count_calls(monkeypatch, "_symmetric_minors", "det")
    _count_calls(monkeypatch, "leading_minors", "_minor", module=check,
                 calls=calls)
    general = _count_calls(monkeypatch, "_eliminate", module=tensors)
    (witness,) = classify(L, metric=g).witnesses
    assert calls == Counter({"_symmetric_minors": 1}) and not general
    assert (witness.claim, witness.indices, witness.residual) == (
        "positive_definite", (n,), -1)
    assert witness_residual(witness, metric=g) == -1


def test_classify_reads_the_lee_certificate_off_its_solve(monkeypatch):
    H = _heisenberg_line(3)
    omega = _dense_two_form(H.dim, random.Random(3))
    calls = _count_calls(monkeypatch, "_lee_certificate", module=check)
    report = classify(H, omega=omega)
    assert calls == Counter()
    (witness,) = [w for w in report.witnesses if w.claim == "lee_system"]
    assert witness_residual(witness, algebra=H, omega=omega) == (
        witness.residual)


# -- classify reads a claim block by block ---------------------------------

BLOCK_KERNELS = ("_torsion_blocks", "_curvature_blocks", "_nabla_g_blocks",
                 "_comparison_blocks", "_nijenhuis_blocks")


def _count_blocks(monkeypatch):
    """Wrap each block kernel so that every block read through it is
    counted under the kernel's name."""
    reads = Counter()
    for name in BLOCK_KERNELS:
        def counted(*pieces, name=name, kernel=getattr(geometry, name)):
            block = kernel(*pieces)

            def read(*head):
                reads[name] += 1
                return block(*head)

            return read

        monkeypatch.setattr(geometry, name, counted)
    return reads


def _dense_pieces(n, rng):
    """A dense bracket, connection, diagonally dominant metric and
    J = S J0 S^-1 of dimension n, S lower unitriangular of ones."""
    values = [Q(1, 2), Q(-3, 5), Q(2, 7), Q(-1), Q(3)]
    L = LieAlgebra.from_brackets(
        tuple(f"e{i}" for i in range(n)),
        {(i, j): {k: rng.choice(values) for k in range(n)}
         for i in range(n) for j in range(i + 1, n)})
    D = Connection.from_table(L, {(i, j): {k: rng.choice(values)
                                           for k in range(n)}
                                  for i in range(n) for j in range(n)})
    rows = [[Q(2 * n) if i == j else 0 for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = rows[j][i] = rng.choice(values) / 3
    m = n // 2

    def product(a, b):
        return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)]
                for row in a]

    s = [[int(i >= j) for j in range(n)] for i in range(n)]
    s_inv = [[1 if i == j else -1 if i == j + 1 else 0 for j in range(n)]
             for i in range(n)]
    j0 = [[-1 if j == i + m else int(i == j + m) for j in range(n)]
          for i in range(n)]
    J = ComplexStructure.from_rows(L, product(product(s, j0), s_inv))
    return L, D, Metric.from_rows(L, rows), J


def test_classify_reads_one_block_of_a_claim_failing_at_the_first_pair(
        monkeypatch):
    # dense dim-12 pieces fail torsion, flatness, Codazzi, the curvature
    # fit and integrability at (0, 1), so each claim reads the blocks
    # holding that pair: pair block (0, 1) of R and K, row block 0 of T
    # and N, and slabs 0 and 1 of nabla g, which is not antisymmetric
    L, D, g, J = _dense_pieces(12, random.Random(7))
    reads = _count_blocks(monkeypatch)
    report = classify(L, connection=D, metric=g, complex_structure=J)
    assert reads == dict.fromkeys(BLOCK_KERNELS, 1) | {"_nabla_g_blocks": 2}
    found = {w.claim: w for w in report.witnesses}
    assert set(found) == {"jacobi", "torsion", "curvature", "codazzi",
                          "constant_curvature", "nijenhuis"}
    for claim in ("torsion", "curvature", "codazzi", "constant_curvature",
                  "nijenhuis"):
        witness = found[claim]
        assert witness.indices[:2] == (0, 1)
        assert witness_residual(witness, algebra=L, connection=D, metric=g,
                                complex_structure=J) == witness.residual


def test_classify_reads_every_block_of_a_claim_it_passes(monkeypatch):
    # su2's statistical structure is torsion free, Codazzi and of constant
    # curvature 1, and the double of its cone is integrable: each passing
    # claim reads every block, the n (n - 1) / 2 pair blocks of R and K,
    # the n - 1 row blocks of T and N and the n slabs of nabla g, R's
    # once for flatness and the fit together although flatness fails at
    # the first
    entry = su2()
    dbl = lck_family(entry.algebra, entry.connection, entry.metric,
                     c=None, t=1).double
    reads = _count_blocks(monkeypatch)
    report = classify(entry.algebra, connection=entry.connection,
                      metric=entry.metric)
    assert report.is_statistical and report.is_flat is False
    assert report.constant_curvature == CurvatureFit("constant", Q(1))
    assert reads == {"_torsion_blocks": 2, "_curvature_blocks": 3,
                     "_nabla_g_blocks": 3, "_comparison_blocks": 3}
    reads.clear()
    assert classify(dbl.algebra, complex_structure=dbl.complex_structure
                    ).is_integrable is True
    assert reads == {"_nijenhuis_blocks": dbl.algebra.dim - 1}
