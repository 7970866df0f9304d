import io
import itertools
import json
import random
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from liegeom import (DocumentSyntaxError, KForm, LieAlgebra, Metric,
                     ComplexStructure, Connection, ValidationError,
                     document_from, get_example, list_examples, parse,
                     serialize)
from liegeom import io as documents
from liegeom.cli import run_command

Q = Fraction


def su2_document():
    entry = get_example("su2")
    omega = KForm.from_components(3, 2, {(0, 1): Q(1), (1, 2): Q(-1, 2)})
    return document_from(entry.algebra, connection=entry.connection,
                         metric=entry.metric, forms=[("omega", omega)],
                         parameters={"c": Q(1)})


def minimal_text():
    return """{
  "basis": ["v"],
  "dim": 1,
  "format_version": 1
}"""


# -- round trips -----------------------------------------------------------

def test_serialize_parse_round_trip():
    doc = su2_document()
    text = serialize(doc)
    assert text.endswith("\n")
    assert parse(text) == doc
    assert serialize(parse(text)) == text
    json.loads(text)


def test_minimal_document_is_abelian():
    doc = parse(minimal_text())
    assert doc.brackets == ()
    algebra = doc.to_algebra()
    assert algebra.dim == 1
    assert algebra.c.is_zero()
    assert doc.to_connection(algebra) is None
    assert doc.to_metric(algebra) is None
    assert doc.to_form("omega") is None
    assert doc.parameter("c") is None


def test_su2_document_shape():
    doc = su2_document()
    assert len(doc.brackets) == 3
    assert doc.brackets[0] == ((0, 1, 2), Q(2))
    text = serialize(doc)
    # one compact row per coefficient entry
    assert '    [0, 1, 2, "2"]' in text
    assert '"parameters": {"c": "1"}' in text


def test_materializers_reproduce_structures():
    entry = get_example("su2")
    doc = su2_document()
    algebra = doc.to_algebra()
    assert algebra == entry.algebra
    assert doc.to_connection(algebra) == entry.connection
    assert doc.to_metric(algebra) == entry.metric
    omega = doc.to_form("omega")
    assert list(omega.components()) == [
        ((0, 1), Q(1)), ((1, 2), Q(-1, 2))]
    assert doc.parameter("c") == Q(1)


def test_complex_structure_round_trip():
    A = LieAlgebra.abelian(("x", "y"))
    J = ComplexStructure.from_rows(A, [[0, -1], [1, 0]])
    doc = document_from(A, complex_structure=J)
    back = parse(serialize(doc))
    assert back.to_complex_structure(back.to_algebra()) == J


def test_parse_normalises_coefficients():
    text = """{
  "format_version": 1,
  "dim": 2,
  "basis": ["u", "v"],
  "brackets": [[0, 1, 1, "2/4"]],
  "metric": [[0, 0, "1"], [0, 1, "0"], [1, 1, "1"]]
}"""
    doc = parse(text)
    assert doc.brackets == (((0, 1, 1), Q(1, 2)),)
    # the explicit zero is dropped
    assert doc.metric == (((0, 0), Q(1)), ((1, 1), Q(1)))


def test_parse_accepts_negative_and_improper_rationals():
    text = """{
  "format_version": 1,
  "dim": 2,
  "basis": ["u", "v"],
  "brackets": [[0, 1, 0, "-4/2"]]
}"""
    assert parse(text).brackets == (((0, 1, 0), Q(-2)),)


# -- syntax errors ---------------------------------------------------------

def test_malformed_json_reports_position():
    with pytest.raises(DocumentSyntaxError) as info:
        parse('{\n  "dim": oops\n}')
    assert info.value.line == 2
    assert info.value.column >= 1


@pytest.mark.parametrize("text", ["[" * 100000 + "]" * 100000,
                                  '{"dim": 1' + "0" * 5000 + "}"],
                         ids=["deep", "long-int"])
def test_json_the_decoder_cannot_take_is_a_syntax_error(text):
    # nesting past the decoder's recursion limit, and an int literal past
    # the interpreter's digit limit: no position, still a syntax error
    with pytest.raises(DocumentSyntaxError):
        parse(text)


# -- schema errors ---------------------------------------------------------

def field_of(text):
    with pytest.raises(ValidationError) as info:
        parse(text)
    return info.value.field


def wrap(**overrides):
    base = {"format_version": 1, "dim": 2, "basis": ["u", "v"]}
    base.update(overrides)
    return json.dumps(base)


def test_top_level_schema_errors():
    assert field_of("[]") == "document"
    assert field_of(wrap(extra=1)) == "document"
    assert field_of(wrap(format_version=2)) == "format_version"
    assert field_of('{"dim": 2, "basis": ["u", "v"]}') == "format_version"


def test_dim_errors():
    assert field_of(wrap(dim=0, basis=[])) == "dim"
    assert field_of(wrap(dim=65, basis=["x"] * 65)) == "dim"
    assert field_of(wrap(dim="2")) == "dim"
    assert field_of(wrap(dim=True, basis=["x"])) == "dim"


def test_basis_errors():
    assert field_of(wrap(basis=["u"])) == "basis"
    assert field_of(wrap(basis=["u", "2v"])) == "basis"
    assert field_of(wrap(basis=["u", "u"])) == "basis"
    assert field_of(wrap(basis="uv")) == "basis"


def test_bracket_entry_errors():
    assert field_of(wrap(brackets={})) == "brackets"
    assert field_of(wrap(brackets=[[0, 1, 1]])) == "brackets[0]"
    assert field_of(wrap(brackets=[[0, 1, 2, "1"]])) == "brackets[0]"
    assert field_of(wrap(brackets=[[1, 0, 1, "1"]])) == "brackets[0]"
    assert field_of(wrap(brackets=[[0, 0, 1, "1"]])) == "brackets[0]"
    assert field_of(wrap(
        brackets=[[0, 1, 1, "1"], [0, 1, 0, "2"],
                  [0, 1, 1, "3"]])) == "brackets[2]"
    assert field_of(wrap(brackets=[[0, 1, 1, "x"]])) == "brackets[0]"
    assert field_of(wrap(brackets=[[0, 1, 1, "1/0"]])) == "brackets[0]"
    assert field_of(wrap(brackets=[[0, 1, 1, 1]])) == "brackets[0]"


@pytest.mark.parametrize("coefficient", ["1\n", "1/2\n", "\u0661/\u0662"],
                         ids=["newline", "fraction-newline", "arabic-indic"])
def test_a_coefficient_past_ascii_digits_is_refused(tmp_path, coefficient):
    # a trailing newline or a non-ASCII digit is no rational literal, and
    # the CLI reads the document as unusable input
    text = wrap(brackets=[[0, 1, 1, coefficient]])
    assert field_of(text) == "brackets[0]"
    path = tmp_path / "doc.json"
    path.write_text(text, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    assert run_command(["verify", str(path)], out, err) == 2
    assert out.getvalue() == "" and err.getvalue().startswith("error: ")


def test_metric_entry_errors():
    assert field_of(wrap(metric=[[1, 0, "1"]])) == "metric[0]"
    ok = wrap(metric=[[0, 0, "1"], [1, 1, "2"]])
    assert parse(ok).metric == (((0, 0), Q(1)), ((1, 1), Q(2)))


def test_form_block_errors():
    assert field_of(wrap(forms={})) == "forms"
    assert field_of(wrap(forms=[[1]])) == "forms[0]"
    assert field_of(wrap(forms=[{"name": "w", "degree": 2}])) == "forms[0]"
    assert field_of(wrap(forms=[
        {"name": "2w", "degree": 2, "entries": []}])) == "forms[0]"
    for degree in (0, 4, 2.0, True, "2", None):    # an int in 1..3 only
        assert field_of(wrap(forms=[
            {"name": "w", "degree": degree, "entries": []}])) == "forms[0]"
    assert field_of(wrap(forms=[
        {"name": "w", "degree": 2,
         "entries": [[1, 0, "1"]]}])) == "forms[0].entries[0]"
    assert field_of(wrap(forms=[
        {"name": "w", "degree": 2,
         "entries": [[0, 5, "1"]]}])) == "forms[0].entries[0]"
    assert field_of(wrap(forms=[
        {"name": "w", "degree": 1, "entries": []},
        {"name": "w", "degree": 2, "entries": []}])) == "forms"


@pytest.mark.parametrize("block, entry, zero_first, other", [
    ("connection", [0, 0, 0], True, "2"),
    ("connection", [0, 0, 0], False, "2"),
    ("metric", [0, 1], True, "3"),
    ("metric", [0, 1], False, "3"),
    ("brackets", [0, 1, 1], True, "1/2"),
    ("brackets", [0, 1, 1], False, "1/2"),
])
def test_duplicate_index_refused_in_either_order(block, entry, zero_first,
                                                 other):
    # a zero coefficient still claims its index
    pair = [entry + ["0"], entry + [other]]
    if not zero_first:
        pair.reverse()
    assert field_of(wrap(**{block: pair})) == f"{block}[1]"


def _over_digit_limit():
    """The message int() gives for a literal past the digit limit."""
    try:
        int("1" * 5000)
    except ValueError as exc:
        return str(exc)
    pytest.skip("this interpreter has no digit limit")


@pytest.mark.parametrize("block, entries, where, message", [
    ("brackets", {}, "brackets", "brackets must be a list"),
    ("brackets", [[0, 1, 1]], "brackets[0]",
     "brackets[0] must be 3 indices plus a coefficient"),
    ("brackets", [[0, 1, 1, "1", "2"]], "brackets[0]",
     "brackets[0] must be 3 indices plus a coefficient"),
    ("brackets", ["0 1 1 1"], "brackets[0]",
     "brackets[0] must be 3 indices plus a coefficient"),
    ("connection", [[0, 0, 0, "1"], [True, 0, 1, "1"]], "connection[1]",
     "connection[1] must be 3 indices plus a coefficient"),
    ("metric", [[0.0, 1, "1"]], "metric[0]",
     "metric[0] must be 2 indices plus a coefficient"),
    ("metric", [[-1, 1, "1"]], "metric[0]", "index out of range at metric[0]"),
    ("connection", [[0, 2, 1, "1"]], "connection[0]",
     "index out of range at connection[0]"),
    ("brackets", [[1, 0, 1, "1"]], "brackets[0]",
     "brackets[0] must have i < j (antisymmetry fills the rest)"),
    ("brackets", [[0, 0, 1, "1"]], "brackets[0]",
     "brackets[0] must have i < j (antisymmetry fills the rest)"),
    ("metric", [[1, 0, "1"]], "metric[0]", "metric[0] must have i <= j"),
    ("forms", [{"name": "w", "degree": 2, "entries": [[1, 1, "1"]]}],
     "forms[0].entries[0]",
     "forms[0].entries[0] must have strictly increasing indices"),
    ("connection", [[0, 0, 0, "0"], [0, 0, 0, "2"]], "connection[1]",
     "duplicate index (0, 0, 0) at connection[1]"),
    ("connection", [[0, 0, 0, "2"], [0, 0, 0, "0"]], "connection[1]",
     "duplicate index (0, 0, 0) at connection[1]"),
    ("complex_structure", [[0, 1, "x"]], "complex_structure[0]",
     "bad rational at complex_structure[0]: not a rational literal: 'x'"),
    ("complex_structure", [[0, 1, 1]], "complex_structure[0]",
     "bad rational at complex_structure[0]: not a rational literal: 1"),
    ("complex_structure", [[0, 1, " 1"]], "complex_structure[0]",
     "bad rational at complex_structure[0]: not a rational literal: ' 1'"),
    ("brackets", [[0, 1, 1, "1/0"]], "brackets[0]",
     "bad rational at brackets[0]: zero denominator in 1/0"),
    ("brackets", [[0, 1, 1, "-007/+00"]], "brackets[0]",
     "bad rational at brackets[0]: zero denominator in -7/0"),
    ("brackets", [[0, 1, 1, "1" * 5000]], "brackets[0]", None),
], ids=["not-a-list", "short", "long", "no-list", "bool-index",
        "float-index", "negative-index", "index-out-of-range", "i-above-j",
        "i-equal-j", "metric-lower", "form-not-increasing",
        "duplicate-zero-first", "duplicate-zero-last", "bad-rational",
        "int-coefficient", "whitespace", "zero-denominator",
        "signed-zero-denominator", "past-digit-limit"])
def test_entry_refusals_keep_their_message_and_field(block, entries, where,
                                                     message):
    if message is None:
        message = f"bad rational at {where}: {_over_digit_limit()}"
    with pytest.raises(ValidationError) as info:
        parse(wrap(**{block: entries}))
    assert (str(info.value), info.value.field) == (message, where)


def test_parameter_errors():
    assert field_of(wrap(parameters=[])) == "parameters"
    assert field_of(wrap(parameters={"2x": "1"})) == "parameters"
    assert field_of(wrap(parameters={"c": "1/0"})) == "parameters.c"


def test_form_zero_coefficients_are_dropped():
    text = wrap(forms=[{"name": "w", "degree": 2,
                        "entries": [[0, 1, "0"]]}])
    doc = parse(text)
    assert doc.form_block("w").entries == ()
    assert list(doc.to_form("w").components()) == []


def test_document_from_filters_redundant_entries():
    entry = get_example("su2")
    doc = document_from(entry.algebra)
    # only the i < j half of the bracket table is stored
    assert all(i < j for (i, j, _), _ in doc.brackets)
    assert len(doc.brackets) == 3
    rebuilt = doc.to_algebra()
    assert rebuilt == entry.algebra


# -- a block is checked a column at a time ---------------------------------
#
# _entry_list accepts a well-formed block in bulk and hands any other to
# _entry_loop, the entry-at-a-time loop that names the first fault; the
# two must agree on every block, and a valid block must not reach the loop.

ORDER_RULES = {
    None: lambda idx: True,
    "strict_first_two": lambda idx: idx[0] < idx[1],
    "weak_pair": lambda idx: idx[0] <= idx[1],
    "increasing": lambda idx: all(a < b for a, b in zip(idx, idx[1:])),
}
BLOCKS = (("brackets", 3, "strict_first_two"), ("connection", 3, None),
          ("metric", 2, "weak_pair"), ("complex_structure", 2, None),
          ("forms[0].entries", 1, "increasing"),
          ("forms[0].entries", 2, "increasing"),
          ("forms[0].entries", 3, "increasing"))
COEFFICIENTS = ("0", "1", "-1", "2/3", "-4/6", "+5", "007", "1/-2", "3/+4",
                "0/5", "-0")
FAULTS = ("bool", "float", "negative", "out-of-range", "short", "long",
          "no-list", "duplicate", "duplicate-zero", "unordered",
          "non-string", "empty", "zero-denominator", "non-ascii")


def _outcome(read, *args):
    """What reading a block gives: its pairs, or a refusal's str and
    field."""
    try:
        return "ok", read(*args)
    except ValidationError as exc:
        return "refused", str(exc), exc.field


@st.composite
def entry_blocks(draw):
    """(block, dim, raw entries, whether a fault was planted): mostly
    valid entries with at most one fault."""
    block = draw(st.sampled_from(BLOCKS))
    _, arity, ordered = block
    dim = draw(st.integers(1, 4))
    tuples = list(itertools.product(range(dim), repeat=arity))
    valid = [t for t in tuples if ORDER_RULES[ordered](t)]
    unordered = [t for t in tuples if not ORDER_RULES[ordered](t)]
    coefficient = st.sampled_from(COEFFICIENTS)
    idxs = draw(st.lists(st.sampled_from(valid), unique=True, max_size=10)
                if valid else st.just([]))
    raw = [[*idx, draw(coefficient)] for idx in idxs]
    fault = draw(st.sampled_from((None,) * 5 + FAULTS))
    template = list(draw(st.sampled_from(valid)) if valid else (0,) * arity)
    at = draw(st.integers(0, arity - 1))
    bad = [*template, draw(coefficient)]
    if fault in ("bool", "float", "negative", "out-of-range"):
        bad[at] = {"bool": bool(bad[at]), "float": float(bad[at]),
                   "negative": -1, "out-of-range": dim}[fault]
    elif fault == "short":
        del bad[at]
    elif fault == "long":
        bad.insert(at, 0)
    elif fault == "no-list":
        bad = " ".join(map(str, bad))
    elif fault in ("duplicate", "duplicate-zero") and raw:
        bad = [*draw(st.sampled_from(raw))[:arity],
               "0" if fault == "duplicate-zero" else draw(coefficient)]
    elif fault == "unordered" and unordered:
        bad = [*draw(st.sampled_from(unordered)), draw(coefficient)]
    elif fault in ("non-string", "empty", "zero-denominator", "non-ascii"):
        bad[arity] = {"non-string": draw(st.sampled_from((1, None, 0.5))),
                      "empty": "", "zero-denominator": "1/0",
                      "non-ascii": "\u0661"}[fault]
    else:
        return block, dim, raw, False
    raw.insert(draw(st.integers(0, len(raw))), bad)
    return block, dim, raw, True


@settings(max_examples=300)
@given(entry_blocks())
def test_bulk_check_agrees_with_the_entry_loop(drawn):
    (name, arity, ordered), dim, raw, planted = drawn
    loop = documents._entry_loop
    want = _outcome(loop, raw, name, arity, dim, ordered)
    assert (want[0] == "refused") == planted
    calls = []

    def counted(*args):
        calls.append(args)
        return loop(*args)

    values = {}     # the second read finds its coefficients converted
    with mock.patch.object(documents, "_entry_loop", counted):
        for _ in range(2):
            got = _outcome(documents._entry_list, raw, name, arity, dim,
                           ordered, values)
            assert got == want
    assert len(calls) == (2 if planted else 0)


def _loop_calls(monkeypatch):
    """The blocks handed to the entry loop from now on, by name."""
    calls = []
    loop = documents._entry_loop

    def counted(raw, name, *rest):
        calls.append(name)
        return loop(raw, name, *rest)

    monkeypatch.setattr(documents, "_entry_loop", counted)
    return calls


def _dense_text(n, rng):
    """A document with every block dense, coefficients p/q strings."""
    def q():
        return str(Q(rng.randint(-3, 3) or 1, rng.randint(1, 3)))

    cube = list(itertools.product(range(n), repeat=3))
    return json.dumps({
        "format_version": 1, "dim": n,
        "basis": [f"e{i}" for i in range(n)],
        "brackets": [[i, j, k, q()] for i, j, k in cube if i < j],
        "connection": [[*idx, q()] for idx in cube],
        "metric": [[i, j, q()] for i in range(n) for j in range(i, n)],
        "complex_structure": [[i, j, q()] for i in range(n)
                              for j in range(n)],
        "forms": [{"name": "omega", "degree": 2, "entries": [
            [i, j, q()] for i in range(n) for j in range(i + 1, n)]}],
        "parameters": {"t": q()}})


def test_valid_documents_never_reach_the_entry_loop(monkeypatch):
    golden = json.loads((Path(__file__).parent / "golden"
                         / "cli_transcript.json").read_text(encoding="utf-8"))
    texts = [r["stdout"] for r in golden if r["argv"][0] == "construct"]
    for name, _, _ in list_examples():
        out = io.StringIO()
        run_command(["construct", "lck", f"catalog:{name}"], out,
                    io.StringIO())
        texts.append(out.getvalue())
    # a construction refused on its input prints no document
    texts = [text for text in texts if text]
    assert len(texts) == 18 + 5
    rng = random.Random(4)
    dense = [_dense_text(n, rng) for n in (2, 4, 6)]
    calls = _loop_calls(monkeypatch)
    for text in texts + dense:
        parse(text)
    assert calls == []

    # one malformed block, the metric's, reaches the loop once
    raw = json.loads(dense[-1])
    raw["metric"][3][:2] = raw["metric"][3][1::-1]
    with pytest.raises(ValidationError) as info:
        parse(json.dumps(raw))
    assert (info.value.field, calls) == ("metric[3]", ["metric"])
