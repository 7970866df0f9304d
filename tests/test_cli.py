import argparse
import io
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from liegeom import (Connection, LieAlgebra, Metric, Witness, document_from,
                     get_example, lck_family, parse, serialize,
                     witness_residual)
from liegeom.cli import run_command
from liegeom.io import MAX_DIM

Q = Fraction


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run_command(argv, stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


def write_entry(tmp_path, name, filename):
    entry = get_example(name)
    doc = document_from(entry.algebra, connection=entry.connection,
                        metric=entry.metric)
    path = tmp_path / filename
    path.write_text(serialize(doc))
    return str(path)


# -- catalog ---------------------------------------------------------------

def test_catalog_list_text():
    code, out, err = run(["catalog", "list"])
    assert code == 0 and err == ""
    names = [line.split(":")[0] for line in out.splitlines()
             if line and not line.startswith(" ")]
    assert names == ["clan-triangular", "so2", "su2", "abelian-n",
                     "flat-torsionful-fixture", "nonflat-fixture"]
    assert "parameter c: positive rational, default 1" in out


def test_catalog_list_json():
    code, out, err = run(["catalog", "list", "--format", "json"])
    assert code == 0
    listing = json.loads(out)
    assert len(listing) == 6
    assert listing[0]["name"] == "clan-triangular"


def test_catalog_show_with_parameter():
    code, out, err = run(["catalog", "show", "abelian-n", "--param", "n=3"])
    assert code == 0
    assert "parameters: n = 3" in out
    assert "constant_curvature: 0 (derived)" in out


def test_catalog_show_writes_file(tmp_path):
    target = tmp_path / "clan.json"
    code, out, err = run(["catalog", "show", "clan-triangular",
                          "-o", str(target)])
    assert code == 0
    doc = parse(target.read_text())
    assert doc.dim == 2
    assert doc.to_algebra().basis_labels == ("u", "v")
    code, out, err = run(["catalog", "show", "su2", "-o", str(target),
                          "--format", "json"])
    assert code == 0 and err == ""
    assert json.loads(out)["output"] == str(target)
    assert parse(target.read_text()).dim == 3


def test_catalog_show_rejects_bad_parameters():
    code, out, err = run(["catalog", "show", "abelian-n", "--param", "n=99"])
    assert code == 2
    assert "error:" in err
    code, out, err = run(["catalog", "show", "nope"])
    assert code == 2


def test_catalog_refuses_a_repeated_parameter():
    for argv in (["verify", "catalog:clan-triangular?c=1&c=2"],
                 ["catalog", "show", "clan-triangular",
                  "--param", "c=1", "--param", "c=3"]):
        code, out, err = run(argv)
        assert code == 2 and out == ""
        assert err.startswith("error:") and "parameter c" in err


def test_catalog_source_refuses_a_malformed_parameter():
    for query, message in (
            ("c", "catalog parameter 'c' is not key=value"),
            ("c=x", "bad value for catalog parameter c: ")):
        code, out, err = run(["verify", f"catalog:clan-triangular?{query}"])
        assert code == 2 and out == ""
        assert err.startswith(f"error: {message}")


# -- verify ----------------------------------------------------------------

def test_verify_catalog_source_passes():
    code, out, err = run(["verify", "catalog:clan-triangular"])
    assert code == 0
    assert "verdict: pass" in out
    assert "constant_curvature: -1" in out
    assert "witness: curvature at (u, v, u): 4*v" in out
    assert "note[divergence] double-sign:" in out


def test_verify_catalog_with_query_parameters():
    code, out, err = run(["verify", "catalog:clan-triangular?c=2"])
    assert code == 0
    assert "constant_curvature: -2" in out


def test_verify_as_mode_sets_exit_code():
    code, out, err = run(["verify", "--as", "hessian",
                          "catalog:clan-triangular"])
    assert code == 1
    assert "verdict: fail" in out
    code, out, err = run(["verify", "--as", "statistical",
                          "catalog:clan-triangular"])
    assert code == 0
    code, out, err = run(["verify", "--as", "hessian", "catalog:so2"])
    assert code == 0


def test_verify_as_mode_requires_the_pieces(tmp_path):
    entry = get_example("su2")
    doc = document_from(entry.algebra)
    path = tmp_path / "bare.json"
    path.write_text(serialize(doc))
    code, out, err = run(["verify", "--as", "statistical", str(path)])
    assert code == 2
    assert "error:" in err
    code, out, err = run(["verify", "--as", "kahler", str(path)])
    assert code == 2


def test_verify_json_payload():
    code, out, err = run(["verify", "catalog:su2", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert sorted(payload) == [
        "basis", "constant_curvature", "dim", "flags", "lee_form", "mode",
        "notes", "source", "verdict", "witnesses"]
    assert payload["flags"]["jacobi"] is True
    assert payload["flags"]["hessian"] is False
    # flags that need missing pieces are omitted, not reported as null
    assert "kahler" not in payload["flags"]
    assert payload["constant_curvature"] == {"kind": "constant",
                                             "value": "1"}
    assert payload["verdict"] == "pass"
    assert len(payload["notes"]) == 3


def test_verify_degenerate_metric_reports_instead_of_aborting(tmp_path):
    L = LieAlgebra.abelian(("x", "y"))
    connection = Connection.zero(L)
    metric = Metric.from_rows(L, [[1, 0], [0, 0]])
    path = tmp_path / "degenerate.json"
    path.write_text(serialize(document_from(L, connection=connection,
                                            metric=metric)))
    code, out, err = run(["verify", str(path)])
    assert (code, err) == (0, "")
    assert "metric_positive: fail" in out
    assert "constant_curvature: degenerate" in out
    assert "witness: positive_definite at (2): 0" in out
    code, out, err = run(["verify", "--as", "statistical", str(path)])
    assert code == 1
    assert "verdict: fail" in out
    code, out, err = run(["verify", "--format", "json", str(path)])
    payload = json.loads(out)
    assert payload["constant_curvature"] == {"kind": "degenerate",
                                             "value": None}
    (w,) = payload["witnesses"]
    witness = Witness(w["claim"], tuple(w["indices"]), Q(w["residual"]),
                      tuple(Q(v) for v in w["detail"]))
    assert witness.detail == (Q(0), Q(1))
    assert witness_residual(witness, metric=metric) == witness.residual


def test_verify_rejects_a_complex_structure_that_does_not_square_to_minus_one(
        tmp_path):
    L = LieAlgebra.abelian(("x", "y"))
    doc = json.loads(serialize(document_from(L)))
    doc["complex_structure"] = [[0, 0, "1"], [1, 1, "1"]]
    path = tmp_path / "not-complex.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(["verify", str(path)])
    assert (code, out) == (2, "")
    assert err.startswith("error: complex_structure does not square to -1")


@pytest.mark.parametrize("entries, message", [
    ([[0, 1, "1/2"], [1, 0, "-1"]], "(J*J)[0, 0] = -1/2, expected -1"),
    ([[0, 1, "-1"], [1, 0, "1"], [1, 1, "1"]],
     "(J*J)[0, 1] = -1, expected 0"),
], ids=["diagonal", "off-diagonal"])
def test_verify_names_the_entry_where_j_squared_is_off(
        tmp_path, entries, message):
    L = LieAlgebra.abelian(("x", "y"))
    doc = json.loads(serialize(document_from(L)))
    doc["complex_structure"] = entries
    path = tmp_path / "not-complex.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(["verify", str(path)])
    assert (code, out) == (2, "")
    assert err == ("error: complex_structure does not square to -1: "
                   + message + "\n")


def test_verify_rejects_a_form_degree_that_is_not_an_integer(tmp_path):
    L = LieAlgebra.abelian(("x", "y"))
    doc = json.loads(serialize(document_from(L)))
    for degree in (2.0, True):
        doc["forms"] = [{"name": "omega", "degree": degree,
                         "entries": [[0, 1, "1"]]}]
        path = tmp_path / "degree.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(["verify", str(path)])
        assert (code, out) == (2, "")
        assert err.startswith("error: form degree must be an integer")


def test_verify_lck_at_the_largest_document_dimension(tmp_path):
    # abelian n = 31: its cone has dimension 32 and the double MAX_DIM,
    # and the Lee system C(64, 3) = 41664 equations, almost all zero
    n = MAX_DIM // 2 - 1
    L = LieAlgebra.abelian(tuple(f"e{i + 1}" for i in range(n)))
    fam = lck_family(L, Connection.zero(L), Metric.identity(L), None, 2)
    assert fam.double.algebra.dim == MAX_DIM
    lee = [((fam.cone.rho_index,), -(1 + fam.c * fam.t))]
    assert list(fam.lee_form.components()) == lee == [((n,), Q(-1))]
    assert fam.report.is_lck is True
    path = tmp_path / "lck64.json"
    path.write_text(serialize(document_from(
        fam.double.algebra, complex_structure=fam.double.complex_structure,
        forms=[("omega", fam.omega)])))
    code, out, err = run(["verify", "--as", "lck", str(path)])
    assert (code, err) == (0, "")
    assert "lee_form: -rho1\n" in out
    assert "lck: pass" in out


def test_verify_missing_file():
    code, out, err = run(["verify", "/tmp/definitely-not-here.json"])
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("content", [
    b"[" * 100000 + b"]" * 100000,
    b'{"dim": 1' + b"0" * 5000 + b"}",
    b"\xff\xfe{}"], ids=["deep", "long-int", "not-utf8"])
def test_verify_refuses_a_source_json_cannot_decode(tmp_path, content):
    # too deeply nested, an int literal past the digit limit, not UTF-8
    path = tmp_path / "doc.json"
    path.write_bytes(content)
    code, out, err = run(["verify", str(path)])
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


# -- construct -------------------------------------------------------------

def test_construct_cone_splits_streams():
    code, out, err = run(["construct", "cone", "catalog:clan-triangular",
                          "--t", "1"])
    assert code == 0
    # document on stdout, summary on stderr
    doc = parse(out)
    assert doc.to_algebra().basis_labels == ("u", "v", "rho")
    assert doc.parameter("c") == Q(-1)
    assert doc.parameter("t") == Q(1)
    assert doc.metric is not None
    assert "curvature: -1" in err
    assert "radiant: rho" in err


def test_construct_cone_without_t_has_no_metric():
    code, out, err = run(["construct", "cone", "catalog:clan-triangular"])
    assert code == 0
    doc = parse(out)
    assert doc.metric is None
    assert doc.parameter("t") is None


def test_construct_cone_refuses_a_non_positive_t():
    for t in ("--t=0", "--t=-1"):
        for kind in ("cone", "lck"):
            code, out, err = run(["construct", kind, "catalog:su2", t])
            assert code == 2 and out == ""
            assert err.startswith("error:") and "t > 0" in err


def test_construct_lck_and_verify_round_trip(tmp_path):
    su2_path = write_entry(tmp_path, "su2", "su2.json")
    out_path = str(tmp_path / "lck.json")
    code, out, err = run(["construct", "lck", su2_path,
                          "--c", "1", "--t", "1", "-o", out_path])
    assert code == 0
    assert "omega: u1^u2 + v1^v2 + w1^w2 + rho1^rho2" in out
    assert "lee_form: -2*rho1" in out
    assert "kahler_member: no" in out
    assert f"wrote: {out_path}" in out
    code, out, err = run(["verify", "--as", "kahler", out_path])
    assert code == 1
    assert "witness: d_omega at (u1, rho1, u2): 2" in out
    assert "lee_form: -2*rho1" in out
    assert "lee_closed: pass" in out


def test_construct_lck_kahler_member(tmp_path):
    clan_path = write_entry(tmp_path, "clan-triangular", "clan.json")
    out_path = str(tmp_path / "kahler.json")
    code, out, err = run(["construct", "lck", clan_path,
                          "--c", "-1", "--t", "1", "-o", out_path])
    assert code == 0
    assert "kahler_member: yes" in out
    code, out, err = run(["verify", "--as", "kahler", out_path])
    assert code == 0


def test_construct_lck_derives_curvature_from_catalog():
    code, out, err = run(["construct", "lck", "catalog:su2", "--t", "1"])
    assert code == 0
    doc = parse(out)
    assert doc.parameter("c") == Q(1)
    assert doc.form_block("omega") is not None
    assert doc.form_block("lee_form") is not None


def test_construct_double_reports_jacobi_failure():
    code, out, err = run(["construct", "double", "catalog:nonflat-fixture"])
    assert code == 1
    assert "jacobi: fail" in err
    assert "jacobi_violation: (u1, v1, u2)" in err
    # the document is still emitted for inspection
    doc = parse(out)
    assert doc.dim == 4


def test_construct_kahler_from_hessian():
    code, out, err = run(["construct", "kahler", "catalog:abelian-n"])
    assert code == 0
    doc = parse(out)
    assert doc.dim == 4
    assert doc.form_block("omega") is not None


def test_construct_kahler_rejects_non_hessian():
    code, out, err = run(["construct", "kahler", "catalog:clan-triangular"])
    assert code == 1
    assert "flat" in err


def test_construct_refuses_a_document_without_its_pieces(tmp_path):
    entry = get_example("su2")
    bare = tmp_path / "bare.json"
    bare.write_text(serialize(document_from(entry.algebra)))
    flat = tmp_path / "no_metric.json"
    flat.write_text(serialize(document_from(
        entry.algebra, connection=entry.connection)))
    for kind, path, piece in (("kahler", bare, "connection"),
                              ("cone", flat, "metric")):
        code, out, err = run(["construct", kind, str(path)])
        assert code == 2 and out == ""
        assert err.startswith(f"error: construct {kind} needs a {piece}")


def test_construct_lck_json_names_its_output(tmp_path):
    target = tmp_path / "lck.json"
    code, out, err = run(["construct", "lck", "catalog:su2", "-o",
                          str(target), "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["output"] == str(target)
    assert payload["info"]["lee_form"] == "-2*rho1"
    assert parse(target.read_text()).form_block("omega") is not None


@pytest.mark.parametrize("argv", [
    ["construct", "lck", "catalog:su2", "-o", "{tmp}/missing/dir/m.json"],
    ["catalog", "show", "su2", "-o", "{tmp}/missing/x.json"],
    ["construct", "lck", "catalog:su2", "-o", "{tmp}"],
    ["catalog", "show", "su2", "-o", "{tmp}", "--format", "json"]],
    ids=["construct-missing-dir", "show-missing-dir", "construct-dir",
         "show-dir"])
def test_an_unwritable_output_is_unusable_input(tmp_path, argv):
    code, out, err = run([arg.format(tmp=tmp_path) for arg in argv])
    assert (code, out) == (2, "")
    assert err.startswith("error: cannot write ") and err.count("\n") == 1


def test_construct_cone_underdetermined_needs_c():
    code, out, err = run(["construct", "cone", "catalog:flat-torsionful-fixture"])
    assert code == 1
    assert "statistical" in err


# -- lambda ----------------------------------------------------------------

def test_lambda_rational_roots():
    code, out, err = run(["lambda", "--c", "-3"])
    assert code == 0
    assert out.splitlines() == ["lambda = -1", "lambda = 1/3"]
    code, out, err = run(["lambda", "--c", "3/4", "--format", "json"])
    assert code == 0
    assert json.loads(out) == {"c": "3/4", "kind": "rational",
                               "roots": ["2/3", "2"]}


def test_lambda_surd_roots():
    code, out, err = run(["lambda", "--c", "1/2"])
    assert code == 0
    assert out.splitlines() == ["lambda = 2 + sqrt(2)",
                                "lambda = 2 - sqrt(2)"]
    code, out, err = run(["lambda", "--c", "2/3"])
    assert code == 0
    assert out.splitlines() == ["lambda = (3 + sqrt(3))/2",
                                "lambda = (3 - sqrt(3))/2"]
    code, out, err = run(["lambda", "--c", "2/3", "--format", "json"])
    payload = json.loads(out)
    assert payload == {"c": "2/3", "kind": "surd", "p": 3, "d": 3, "q": 2}


def test_lambda_no_real_solutions_is_not_an_error():
    code, out, err = run(["lambda", "--c", "2"])
    assert code == 0
    assert out.strip() == "no real solutions"
    code, out, err = run(["lambda", "--c", "2", "--format", "json"])
    assert json.loads(out)["kind"] == "none"


def test_lambda_zero_curvature_is_unusable_input():
    code, out, err = run(["lambda", "--c", "0"])
    assert code == 2
    assert "error:" in err


def test_lambda_rejects_malformed_curvature():
    code, out, err = run(["lambda", "--c", "x"])
    assert code == 2


def test_lambda_refuses_a_surd_too_long_to_print():
    # for c = a/b the surd is sqrt(b (b - a)): 3999 digits still print,
    # 6001 are past the interpreter's 4300
    b = 3 * 10 ** 1999
    code, out, err = run(["lambda", "--c", f"1/{b}"])
    assert (code, err) == (0, "")
    assert out.splitlines() == [f"lambda = {b} {sign} sqrt({b * (b - 1)})"
                                for sign in "+-"]
    for fmt in ("text", "json"):
        code, out, err = run(["lambda", "--c", f"1/{b * 10 ** 1001}",
                              "--format", fmt])
        assert (code, out) == (2, "")
        assert err.startswith("error: a computed value has 6001 digits")


# -- harness behaviour -----------------------------------------------------

def test_usage_errors_exit_two():
    assert run([])[0] == 2
    assert run(["frobnicate"])[0] == 2
    assert run(["construct"])[0] == 2


def test_help_exits_zero():
    code, out, err = run(["--help"])
    assert code == 0
    assert "usage: liegeom" in out


def test_run_command_builds_its_parser_once(monkeypatch):
    run(["catalog", "list"])
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    assert run(["verify", "catalog:su2"])[0] == 0
    assert built == []


def test_the_shared_parser_carries_nothing_between_runs():
    first = run(["verify", "catalog:su2"])
    shown = run(["catalog", "show", "clan-triangular", "--param", "c=2"])
    assert "parameters: c = 2\n" in shown[1]
    shown = run(["catalog", "show", "clan-triangular"])
    assert "parameters: c = 1\n" in shown[1]
    assert run(["verify", "--as", "nope", "catalog:su2"])[0] == 2
    code, out, err = run(["--help"])
    assert code == 0 and "usage: liegeom" in out
    assert run(["verify", "catalog:su2"]) == first


def test_module_entry_point_exits_with_the_status(tmp_path):
    env = dict(os.environ,
               PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))

    def cli(*argv):
        return subprocess.run(
            [sys.executable, "-m", "liegeom.cli", *argv], cwd=tmp_path,
            env=env, capture_output=True, text=True, timeout=120)

    done = cli("lambda", "--c", "3/4")
    assert (done.returncode, done.stdout) == (0, "lambda = 2/3\nlambda = 2\n")
    assert cli("verify", "--as", "hessian", "catalog:su2").returncode == 1
    assert cli("verify", "missing.json").returncode == 2


def test_output_is_deterministic(tmp_path):
    su2_path = write_entry(tmp_path, "su2", "su2.json")
    for argv in (["verify", "catalog:clan-triangular"],
                 ["verify", su2_path, "--format", "json"],
                 ["catalog", "list"],
                 ["lambda", "--c", "8/9"],
                 ["construct", "lck", "catalog:su2", "--t", "1"]):
        first = run(argv)
        second = run(argv)
        assert first == second


def big_bracket_document(tmp_path, digits):
    """Three brackets with a coefficient of the given digit count that
    break Jacobi; the residual has about twice as many digits."""
    value = str(10 ** (digits - 1) + 7)
    L = LieAlgebra.abelian(("a", "b", "c"))
    doc = json.loads(serialize(document_from(L)))
    doc["brackets"] = [[0, 1, 0, value], [0, 2, 2, value], [1, 2, 1, value]]
    path = tmp_path / f"big{digits}.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_verify_prints_a_witness_below_the_digit_limit(tmp_path):
    code, out, err = run(["verify", big_bracket_document(tmp_path, 2100)])
    assert (code, err) == (1, "")
    assert "jacobi: fail\n" in out
    assert "witness: jacobi at (a, b, c): " in out


def test_verify_refuses_a_value_too_large_to_print(tmp_path):
    # the Jacobi residual has 4399 digits, past the interpreter's 4300
    path = big_bracket_document(tmp_path, 2200)
    for fmt in ("text", "json"):
        code, out, err = run(["verify", "--format", fmt, path])
        assert (code, out) == (2, "")
        assert err.startswith("error: a computed value has 4399 digits")
        assert err.count("\n") == 1


def test_verify_text_does_not_render_what_only_json_prints(tmp_path):
    # a singular 5x5 metric with 2240-digit entries: the residual of its
    # positive_definite witness is 0, the kernel vector in its detail,
    # which only the JSON payload carries, has about 4480 digits
    rng = random.Random(1)
    V = [[rng.randrange(10 ** 1119, 10 ** 1120) for _ in range(4)]
         for _ in range(5)]
    doc = json.loads(serialize(document_from(
        LieAlgebra.abelian(("a", "b", "c", "d", "e")))))
    doc["metric"] = [[i, j, str(sum(x * y for x, y in zip(V[i], V[j])))]
                     for i in range(5) for j in range(i, 5)]
    path = tmp_path / "singular.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(["verify", str(path)])
    assert (code, err) == (0, "")
    assert "witness: positive_definite at (5): 0\n" in out
    code, out, err = run(["verify", "--format", "json", str(path)])
    assert (code, out) == (2, "")
    assert err.startswith("error: a computed value has ")
