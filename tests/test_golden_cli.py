"""Byte-level CLI transcript against a recorded golden file.

Every catalog entry at its default parameters goes through verify (text
and json, the default claim and each --as), construct (double, cone,
lck, kahler) and catalog show.  The witness fixtures below are written
out as documents and verified as well; together they raise a witness
for every claim, so the exact witness indices, residuals and
certificates are pinned from outside the library.

The golden file holds stdout, stderr and the exit status of each
invocation.  To record it again after an intended output change, run

    PYTHONPATH=src python tests/test_golden_cli.py

and review the diff of tests/golden/cli_transcript.json.
"""

import io
import json
import os
from fractions import Fraction
from pathlib import Path

from liegeom import (ComplexStructure, KForm, LieAlgebra, Metric, double,
                     document_from, get_example, list_examples, serialize)
from liegeom.cli import run_command

Q = Fraction
GOLDEN = Path(__file__).parent / "golden" / "cli_transcript.json"
MODES = (None, "statistical", "hessian", "kahler", "lck")
CONSTRUCTIONS = ("double", "cone", "lck", "kahler")


def witness_documents():
    """(file name, document) pairs whose reports carry every witness claim."""
    docs = []
    violator = LieAlgebra.from_brackets(
        ("e1", "e2", "e3"), {(0, 1): {0: 1}, (0, 2): {2: 1}})
    docs.append(("jacobi", document_from(violator)))

    torsionful = get_example("flat-torsionful-fixture")
    docs.append(("torsion", document_from(
        torsionful.algebra, connection=torsionful.connection,
        metric=torsionful.metric)))

    clan = get_example("clan-triangular")
    for name, rows in (("codazzi", [[4, 0], [0, 3]]),
                       ("indefinite", [[1, 2], [2, 1]]),
                       ("curvature_fit", [[1, 0], [0, 1]])):
        docs.append((name, document_from(
            clan.algebra, connection=clan.connection,
            metric=Metric.from_rows(clan.algebra, rows))))

    dbl = double(torsionful.algebra, torsionful.connection)
    docs.append(("nijenhuis", document_from(
        dbl.algebra, complex_structure=dbl.complex_structure)))

    lee = LieAlgebra.from_brackets(
        ("e1", "e2", "e3", "e4"), {(0, 1): {2: 1}, (0, 2): {0: 1}})
    lee_omega = KForm.from_components(
        4, 2, {(0, 1): Q(1), (2, 3): Q(1), (1, 2): Q(1)})
    docs.append(("lee_closed", document_from(
        lee, forms=(("omega", lee_omega),))))

    infeasible = LieAlgebra.from_brackets(
        ("e1", "e2", "e3", "e4"), {(0, 1): {2: 1}})
    docs.append(("lee_system", document_from(
        infeasible,
        forms=(("omega", KForm.from_components(4, 2, {(2, 3): Q(1)})),))))

    plane = LieAlgebra.abelian(("x", "y"))
    docs.append(("pairing_positive", document_from(
        plane,
        complex_structure=ComplexStructure.from_rows(plane,
                                                     [[0, -1], [1, 0]]),
        forms=(("omega", KForm.from_components(2, 2, {(0, 1): Q(-1)})),))))

    asym = LieAlgebra.abelian(("a", "b", "c", "d"))
    docs.append(("pairing_symmetry", document_from(
        asym,
        complex_structure=ComplexStructure.from_rows(
            asym, [[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1],
                   [0, 0, 1, 0]]),
        forms=(("omega", KForm.from_components(4, 2, {(0, 2): Q(1)})),))))
    return docs


def invocations():
    out = []
    for name, _, _ in list_examples():
        source = f"catalog:{name}"
        for mode in MODES:
            as_mode = [] if mode is None else ["--as", mode]
            for fmt in ("text", "json"):
                out.append(["verify", *as_mode, source, "--format", fmt])
        for kind in CONSTRUCTIONS:
            out.append(["construct", kind, source])
        for fmt in ("text", "json"):
            out.append(["catalog", "show", name, "--format", fmt])
    for name, _ in witness_documents():
        for fmt in ("text", "json"):
            out.append(["verify", f"{name}.json", "--format", fmt])
    return out


def transcript(workdir):
    """Run every invocation with documents written under workdir."""
    for name, doc in witness_documents():
        (Path(workdir) / f"{name}.json").write_text(serialize(doc))
    here = os.getcwd()
    os.chdir(workdir)
    try:
        records = []
        for argv in invocations():
            out, err = io.StringIO(), io.StringIO()
            code = run_command(argv, stdout=out, stderr=err)
            records.append({"argv": argv, "exit": code,
                            "stdout": out.getvalue(),
                            "stderr": err.getvalue()})
        return records
    finally:
        os.chdir(here)


def test_cli_transcript_matches_golden(tmp_path):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    records = transcript(tmp_path)
    assert [r["argv"] for r in records] == [g["argv"] for g in golden]
    for got, want in zip(records, golden):
        assert got == want, " ".join(want["argv"])


def test_witness_documents_cover_every_claim():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    claims = set()
    for record in golden:
        if (record["argv"][0] == "verify" and record["argv"][-1] == "json"
                and record["stdout"]):
            claims.update(w["claim"]
                          for w in json.loads(record["stdout"])["witnesses"])
    assert claims == {
        "jacobi", "torsion", "curvature", "codazzi", "positive_definite",
        "constant_curvature", "nijenhuis", "d_omega", "lee_system", "d_lee",
        "lee_closed_system", "pairing_symmetry", "pairing_positive"}


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        data = transcript(scratch)
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n",
                      encoding="utf-8")
    print(f"wrote {len(data)} records to {GOLDEN}")
