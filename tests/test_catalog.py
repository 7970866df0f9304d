from fractions import Fraction

import pytest

from liegeom import (BadParameters, UnknownExample, catalog, get_example,
                     list_examples, run_check)

Q = Fraction


def test_listing_is_deterministic_and_complete():
    listing = list_examples()
    assert [name for name, _, _ in listing] == [
        "clan-triangular", "so2", "su2", "abelian-n",
        "flat-torsionful-fixture", "nonflat-fixture"]
    for name, summary, schema in listing:
        assert summary
        for key, description in schema:
            assert key and description
    assert list_examples() == listing


def test_parameter_schemas():
    schemas = {name: schema for name, _, schema in list_examples()}
    assert [key for key, _ in schemas["clan-triangular"]] == ["c"]
    assert [key for key, _ in schemas["abelian-n"]] == ["n"]
    assert schemas["su2"] == ()


def test_get_example_defaults():
    clan = get_example("clan-triangular")
    assert dict(clan.parameters)["c"] == Q(1)
    assert clan.declared_curvature == Q(-1)
    abelian = get_example("abelian-n")
    assert abelian.algebra.dim == 2
    assert abelian.algebra.basis_labels == ("e1", "e2")


def test_get_example_parameter_validation():
    with pytest.raises(UnknownExample):
        get_example("clan")
    with pytest.raises(BadParameters):
        get_example("clan-triangular", {"c": 0})
    with pytest.raises(BadParameters):
        get_example("clan-triangular", {"c": "-2"})
    with pytest.raises(BadParameters):
        get_example("clan-triangular", {"q": 1})
    with pytest.raises(BadParameters):
        get_example("abelian-n", {"n": 0})
    with pytest.raises(BadParameters):
        get_example("abelian-n", {"n": 17})
    with pytest.raises(BadParameters):
        get_example("abelian-n", {"n": "3/2"})


@pytest.mark.parametrize("name, value", [
    ("clan-triangular", "1/0"), ("clan-triangular", "abc"),
    ("clan-triangular", None), ("clan-triangular", float("inf")),
    ("clan-triangular", 0.1), ("abelian-n", [3]),
], ids=["zero-denominator", "not-a-number", "none", "infinite", "float",
        "list"])
def test_get_example_refuses_a_value_that_is_no_rational(name, value):
    key = "c" if name == "clan-triangular" else "n"
    with pytest.raises(BadParameters, match=f"parameter '{key}'"):
        get_example(name, {key: value})


def test_clan_parameter_moves_the_curvature():
    from liegeom import format_rational
    for c in (Q(1), Q(2), Q(1, 3)):
        entry = get_example("clan-triangular", {"c": c})
        assert entry.curvature == -c
        assert entry.declared_curvature == -c
        assert run_check(entry, "constant_curvature") == format_rational(-c)


def test_abelian_sizes():
    one = get_example("abelian-n", {"n": 1})
    assert one.algebra.dim == 1
    assert run_check(one, "constant_curvature") == "underdetermined"
    five = get_example("abelian-n", {"n": 5})
    assert five.algebra.dim == 5
    assert run_check(five, "constant_curvature") == "0"


@pytest.mark.parametrize("name, params", [
    ("clan-triangular", None),
    ("clan-triangular", {"c": "3"}),
    ("clan-triangular", {"c": "1/2"}),
    ("so2", None),
    ("su2", None),
    ("abelian-n", None),
    ("abelian-n", {"n": 1}),
    ("abelian-n", {"n": 4}),
    ("flat-torsionful-fixture", None),
    ("nonflat-fixture", None),
])
def test_every_expected_outcome_is_reproducible(name, params):
    # the catalog's promise: each stored expectation can be re-derived
    # from the bundle itself, whatever the parameters
    entry = get_example(name, params)
    for expectation in entry.expected:
        assert run_check(entry, expectation.check) == expectation.outcome, \
            expectation.check


def test_run_check_classifies_and_doubles_each_entry_once(monkeypatch):
    # an entry keeps the classify reports of its base and of its double,
    # so its expected checks, read in turn, classify no algebra twice and
    # double at most once, to the same outcomes
    calls = []
    for name in ("classify", "double"):
        def counted(*args, _name=name, _run=getattr(catalog, name), **kw):
            calls.append((_name, args[0]) if _name == "classify" else _name)
            return _run(*args, **kw)
        monkeypatch.setattr(catalog, name, counted)
    for name, _, _ in list_examples():
        entry = get_example(name)
        calls.clear()
        assert [run_check(entry, e.check) for e in entry.expected] == [
            e.outcome for e in entry.expected], name
        classified = [call for call in calls if call != "double"]
        assert len(classified) == len(set(classified)), name
        assert calls.count("double") <= 1, name


def test_provenance_vocabulary():
    for name, _, _ in list_examples():
        entry = get_example(name)
        assert entry.expected
        for expectation in entry.expected:
            assert expectation.provenance in (
                "published", "derived", "trivial", "synthetic")
        if entry.synthetic:
            assert all(e.provenance in ("synthetic", "trivial", "derived")
                       for e in entry.expected)


def test_synthetic_flags():
    flags = {name: get_example(name).synthetic
             for name, _, _ in list_examples()}
    assert flags == {
        "clan-triangular": False,
        "so2": False,
        "su2": False,
        "abelian-n": True,
        "flat-torsionful-fixture": True,
        "nonflat-fixture": True,
    }


def test_divergence_notes_inventory():
    notes = {name: get_example(name).notes for name, _, _ in list_examples()}
    assert [n.key for n in notes["clan-triangular"]] == [
        "double-sign", "double-duplicate", "rank-label"]
    assert all(n.kind == "divergence" for n in notes["clan-triangular"])
    assert [(n.key, n.kind) for n in notes["su2"]] == [
        ("kahler-claim", "divergence"),
        ("connection-completion", "completion"),
        ("unit-rescale", "divergence")]
    assert [n.key for n in notes["so2"]] == ["kahler-claim"]
    assert notes["abelian-n"] == ()
    assert notes["flat-torsionful-fixture"] == ()
    assert notes["nonflat-fixture"] == ()
    for entry_notes in notes.values():
        for note in entry_notes:
            assert note.claimed and note.computed


def test_declared_curvature_values():
    declared = {name: get_example(name).declared_curvature
                for name, _, _ in list_examples()}
    assert declared == {
        "clan-triangular": Q(-1),
        "so2": Q(1),
        "su2": Q(1),
        "abelian-n": Q(0),
        "flat-torsionful-fixture": None,
        "nonflat-fixture": Q(-1),
    }


def test_run_check_rejects_unknown_checks():
    entry = get_example("su2")
    with pytest.raises(UnknownExample):
        run_check(entry, "sparkles")


@pytest.mark.parametrize("check", [
    "double_torsion_free", "double_constant_curvature", "double_nijenhuis",
    "double_", "double_double_jacobi"])
def test_run_check_refuses_every_other_double_check(check):
    # only double_jacobi and double_integrable read the double's report
    with pytest.raises(UnknownExample, match=f"no check named '{check}'"):
        run_check(get_example("su2"), check)
