"""Acceptance gate: every release criterion, checked at exact equality.

Each test prints one "[acceptance] criterion n: PASS" or "... FAIL"
line; run with -s to see them stream.
"""

import random
from contextlib import contextmanager
from fractions import Fraction

import pytest

from liegeom import (KForm, LieAlgebra, Metric, NoRealSolution, ce_d,
                     classify, codazzi_check, cone_extend, constant_curvature,
                     double, dual_form, extract_statistical, get_example,
                     jacobi_check, kahler_form_from_hessian, lck_family,
                     list_examples, nijenhuis, run_check, solve_lambda,
                     torsion, wedge, witness_residual, Witness, document_from,
                     serialize)
from liegeom.cli import run_command

Q = Fraction


@contextmanager
def criterion(n, description):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {n}: FAIL ({description})")
        raise
    print(f"[acceptance] criterion {n}: PASS ({description})")


def family_identity_holds(L, D, g, c, t):
    """d omega_t = -(1 + c t) rho^1 ^ omega_t, re-derived from parts."""
    fam = lck_family(L, D, g, c, t)
    theta = dual_form(fam.double.algebra, fam.cone.rho_index).scale(
        -(1 + Q(c) * Q(t)))
    assert ce_d(fam.double.algebra, fam.omega) == wedge(theta, fam.omega)
    assert fam.report.is_kahler is (1 + Q(c) * Q(t) == 0)
    return fam


def test_criterion_1_clan_kahler_pipeline():
    with criterion(1, "clan family member c=-1, t=1 is exactly Kahler"):
        entry = get_example("clan-triangular")
        fam = lck_family(entry.algebra, entry.connection, entry.metric, -1, 1)
        assert list(fam.omega.components()) == [
            ((0, 3), Q(4)), ((1, 4), Q(2)), ((2, 5), Q(1))]
        assert ce_d(fam.double.algebra, fam.omega).is_zero()
        assert fam.report.is_pairing_positive is True
        assert fam.report.is_kahler is True
        assert fam.double.algebra.dim == 6
        assert fam.report.is_jacobi is True
        assert nijenhuis(fam.double.algebra,
                         fam.double.complex_structure).is_zero()


def test_criterion_2_su2_lck_pipeline():
    with criterion(2, "su2 family member c=1, t=1 is lck with Lee -2 rho1"):
        entry = get_example("su2")
        fam = lck_family(entry.algebra, entry.connection, entry.metric, 1, 1)
        rho1 = dual_form(fam.double.algebra, fam.cone.rho_index)
        assert fam.lee_form == rho1.scale(-2)
        assert list(fam.lee_form.components()) == [((3,), Q(-2))]
        assert ce_d(fam.double.algebra, fam.omega) == \
            wedge(rho1.scale(-2), fam.omega)
        assert ce_d(fam.double.algebra, rho1).is_zero()
        assert fam.report.is_kahler is False
        assert fam.report.is_lck is True
        # the divergence note records that this member is presented as
        # Kahler although the computation says otherwise
        (note,) = [n for n in entry.notes if n.key == "kahler-claim"]
        assert note.kind == "divergence"
        assert "Kahler" in note.claimed
        assert "not Kahler" in note.computed


def test_criterion_3_family_identity_sweep():
    with criterion(3, "d omega_t + (1+ct) rho1^omega_t = 0 over the sweep"):
        rng = random.Random(20260822)

        for _ in range(20):
            c_param = Q(rng.randint(1, 20), rng.randint(1, 10))
            t = Q(rng.randint(1, 100), 10)
            entry = get_example("clan-triangular", {"c": c_param})
            family_identity_holds(entry.algebra, entry.connection,
                                  entry.metric, -c_param, t)
            forced = family_identity_holds(entry.algebra, entry.connection,
                                           entry.metric, -c_param,
                                           1 / c_param)
            assert forced.report.is_kahler is True

        su2 = get_example("su2")
        for _ in range(20):
            tau = Q(rng.randint(1, 50), rng.randint(1, 10))
            t = Q(rng.randint(1, 100), 10)
            g = Metric(su2.algebra, su2.metric.g.scale(1 / tau))
            fit = constant_curvature(su2.connection, g)
            assert (fit.kind, fit.value) == ("constant", tau)
            family_identity_holds(su2.algebra, su2.connection, g, tau, t)

        so2 = get_example("so2")
        for _ in range(20):
            tau = Q(0)
            while tau == 0:
                tau = Q(rng.randint(-50, 50), rng.randint(1, 10))
            t = Q(rng.randint(1, 100), 10)
            family_identity_holds(so2.algebra, so2.connection, so2.metric,
                                  tau, t)

        abelian = get_example("abelian-n")
        for _ in range(20):
            t = Q(rng.randint(1, 100), 10)
            family_identity_holds(abelian.algebra, abelian.connection,
                                  abelian.metric, 0, t)


def test_criterion_4_integrability_both_directions():
    with criterion(4, "double is integrable exactly for flat torsion-free"):
        # flat and torsion free: Jacobi holds and N vanishes
        for name in ("abelian-n", "so2"):
            entry = get_example(name)
            dbl = double(entry.algebra, entry.connection)
            assert jacobi_check(dbl.algebra) is None
            assert nijenhuis(dbl.algebra, dbl.complex_structure).is_zero()
        clan = get_example("clan-triangular")
        ext = cone_extend(clan.algebra, clan.connection, clan.metric)
        dbl = double(ext.algebra, ext.nabla)
        assert jacobi_check(dbl.algebra) is None
        assert nijenhuis(dbl.algebra, dbl.complex_structure).is_zero()

        # flat with torsion: Jacobi still holds but N(u1, v1) = -v1
        torsionful = get_example("flat-torsionful-fixture")
        dblt = double(torsionful.algebra, torsionful.connection)
        assert jacobi_check(dblt.algebra) is None
        n = nijenhuis(dblt.algebra, dblt.complex_structure)
        assert tuple(n[0, 1, k] for k in range(4)) == \
            (Q(0), Q(-1), Q(0), Q(0))

        # not flat: the naive double breaks Jacobi, with an exact witness
        nonflat = get_example("nonflat-fixture")
        dbln = double(nonflat.algebra, nonflat.connection)
        assert jacobi_check(dbln.algebra) == Witness(
            "jacobi", (0, 1, 2), (Q(0), Q(0), Q(0), Q(-4)))


def test_criterion_5_extraction_round_trip():
    with criterion(5, "extract_statistical inverts cone_extend exactly"):
        for name, declared in (("clan-triangular", None), ("su2", None),
                               ("so2", 1)):
            entry = get_example(name)
            ext = cone_extend(entry.algebra, entry.connection, entry.metric,
                              c=declared)
            recovered, c = extract_statistical(
                ext.algebra, ext.nabla, entry.metric, ext.rho_index)
            assert recovered == entry.connection
            assert c == ext.c
            assert recovered.gamma.entries == entry.connection.gamma.entries


def test_criterion_6_lambda_solver():
    with criterion(6, "lambda solver returns exact roots, no excluded ones"):
        assert solve_lambda(-3) == (Q(-1), Q(1, 3))
        assert solve_lambda(1) == (Q(1),)
        with pytest.raises(NoRealSolution):
            solve_lambda(2)
        for num in range(-24, 25):
            for den in (1, 2, 3):
                c = Q(num, den)
                if c == 0:
                    continue
                try:
                    result = solve_lambda(c)
                except NoRealSolution:
                    assert c > 1
                    continue
                if isinstance(result, tuple):
                    for root in result:
                        assert (2 * root - 1) / (root * root) == c
                        assert root not in (Q(0), Q(1, 2))


def test_criterion_7_oracle_equivalence():
    with criterion(7, "hessian route reproduces the family's Kahler form"):
        entry = get_example("clan-triangular")
        ext = cone_extend(entry.algebra, entry.connection, entry.metric)
        g_t = ext.metric(1)
        state = classify(ext.algebra, connection=ext.nabla, metric=g_t)
        assert state.is_hessian is True
        hessian_route = kahler_form_from_hessian(ext.algebra, ext.nabla, g_t)
        family_route = lck_family(entry.algebra, entry.connection,
                                  entry.metric, -1, 1)
        assert list(hessian_route.omega.components()) == \
            list(family_route.omega.components())
        assert hessian_route.report.is_kahler is True


def test_criterion_8_catalog_verdicts():
    with criterion(8, "catalog verdicts hold at exact rational equality"):
        for c in (Q(1), Q(2), Q(5, 3)):
            entry = get_example("clan-triangular", {"c": c})
            assert run_check(entry, "statistical") == "pass"
            report = classify(entry.algebra, connection=entry.connection,
                              metric=entry.metric)
            assert report.constant_curvature.kind == "constant"
            assert report.constant_curvature.value == -c
        su2 = get_example("su2")
        fit = classify(su2.algebra, connection=su2.connection,
                       metric=su2.metric).constant_curvature
        assert (fit.kind, fit.value) == ("constant", Q(1))
        so2 = get_example("so2")
        assert run_check(so2, "constant_curvature") == "underdetermined"
        accepted = cone_extend(so2.algebra, so2.connection, so2.metric, c=1)
        assert accepted.c == Q(1)
        for name in ("clan-triangular", "so2", "su2", "abelian-n"):
            entry = get_example(name)
            assert codazzi_check(entry.connection, entry.metric) is None
            assert torsion(entry.connection).is_zero()


def test_criterion_9_kernel_properties():
    with criterion(9, "d*d = 0 and Sylvester matches brute force"):
        rng = random.Random(20260822)
        for name, _, _ in list_examples():
            L = get_example(name).algebra
            for _ in range(10):
                coeffs = {(i,): Q(rng.randint(-9, 9), rng.randint(1, 4))
                          for i in range(L.dim)}
                coeffs = {k: v for k, v in coeffs.items() if v != 0}
                alpha = KForm.from_components(L.dim, 1, coeffs)
                assert ce_d(L, ce_d(L, alpha)).is_zero()
        violator = LieAlgebra.from_brackets(
            ("e1", "e2", "e3"), {(0, 1): {0: 1}, (0, 2): {2: 1}})
        e3 = KForm.from_components(3, 1, {(2,): Q(1)})
        assert not ce_d(violator, ce_d(violator, e3)).is_zero()

        def brute_force_positive(rows):
            grid = range(-3, 4)
            for x in grid:
                for y in grid:
                    for z in grid:
                        if (x, y, z) == (0, 0, 0):
                            continue
                        v = (x, y, z)
                        q = sum(rows[i][j] * v[i] * v[j]
                                for i in range(3) for j in range(3))
                        if q <= 0:
                            return False, (x, y, z)
            return True, None

        L3 = LieAlgebra.abelian(("x", "y", "z"))
        pd_rows = [[2, 1, 0], [1, 2, 1], [0, 1, 2]]
        assert Metric.from_rows(L3, pd_rows).is_positive_definite()
        assert brute_force_positive(pd_rows) == (True, None)
        bad_rows = [[1, 2, 0], [2, 1, 0], [0, 0, 1]]
        assert not Metric.from_rows(L3, bad_rows).is_positive_definite()
        ok, counterexample = brute_force_positive(bad_rows)
        assert not ok
        x, y, z = counterexample
        value = sum(bad_rows[i][j] * (x, y, z)[i] * (x, y, z)[j]
                    for i in range(3) for j in range(3))
        assert value <= 0


def test_criterion_10_cli_contract(tmp_path):
    with criterion(10, "documented CLI invocations and byte determinism"):
        import io

        def run(argv):
            out, err = io.StringIO(), io.StringIO()
            code = run_command(argv, stdout=out, stderr=err)
            return code, out.getvalue(), err.getvalue()

        def run_twice(argv):
            first = run(argv)
            assert run(argv) == first
            return first

        code, out, _ = run_twice(["lambda", "--c", "-3"])
        assert code == 0
        assert out.splitlines() == ["lambda = -1", "lambda = 1/3"]

        su2 = get_example("su2")
        su2_path = tmp_path / "su2.json"
        su2_path.write_text(serialize(document_from(
            su2.algebra, connection=su2.connection, metric=su2.metric)))
        member = str(tmp_path / "su2-member.json")
        code, out, _ = run_twice(["construct", "lck", str(su2_path),
                                  "--c", "1", "--t", "1", "-o", member])
        assert code == 0
        code, out, _ = run_twice(["verify", "--as", "kahler", member])
        assert code == 1
        assert "witness: d_omega at (u1, rho1, u2): 2" in out

        clan = get_example("clan-triangular")
        clan_path = tmp_path / "clan.json"
        clan_path.write_text(serialize(document_from(
            clan.algebra, connection=clan.connection, metric=clan.metric)))
        kahler = str(tmp_path / "clan-member.json")
        code, out, _ = run_twice(["construct", "lck", str(clan_path),
                                  "--c", "-1", "--t", "1", "-o", kahler])
        assert code == 0
        code, out, _ = run_twice(["verify", "--as", "kahler", kahler])
        assert code == 0
        assert "verdict: pass" in out
