"""Built-in example bundles with expected outcomes and source notes.

Each entry packages an algebra, a connection, a metric, the curvature
it realises and the list of check outcomes it is supposed to produce,
each tagged with where the expectation comes from: "published" values
follow the worked examples this library reproduces, "derived" values
are forced by those (torsion-free completions, curvature computations),
and "trivial"/"synthetic" cover the vacuous and the made-up.

notes record where our exact computation contradicts the published
presentation of the same example; the computed value is authoritative
and the claimed text is kept so the disagreement stays visible.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .algebra import LieAlgebra
from .check import CLAIMS
from .constructions import double
from .errors import BadParameters, InexactValue, UnknownExample
from .geometry import FLAGS, Connection, Metric, classify
from .rationals import format_rational
from .tensors import _as_q

_KAHLER_CLAIM = ("the c = 1, t = 1 member of the family on the double "
                 "is presented as a Kahler form")
_KAHLER_COMPUTED = ("d omega is -2 rho1 ^ omega, which is nonzero; the "
                    "member is locally conformally Kahler with Lee form "
                    "-2 rho1, not Kahler")


@dataclass(frozen=True)
class ExpectedOutcome:
    check: str
    outcome: str
    provenance: str


@dataclass(frozen=True)
class CatalogNote:
    """A recorded disagreement with, or completion of, the source text."""

    key: str
    kind: str
    claimed: str
    computed: str


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    summary: str
    parameters: tuple
    synthetic: bool
    algebra: LieAlgebra
    connection: Connection
    metric: Metric
    curvature: Fraction | None
    declared_curvature: Fraction | None
    admissible: str
    expected: tuple
    notes: tuple

    @cached_property
    def _report(self):
        """classify of the base with its connection and metric."""
        return classify(self.algebra, connection=self.connection,
                        metric=self.metric)

    @cached_property
    def _double_report(self):
        """classify of the double with its complex structure."""
        dbl = double(self.algebra, self.connection)
        return classify(dbl.algebra, complex_structure=dbl.complex_structure)


def _expected(*rows):
    """ExpectedOutcomes from "check outcome provenance" rows."""
    return tuple(ExpectedOutcome(*row.split()) for row in rows)


def _clan(params):
    c = params.get("c", Fraction(1))
    if c <= 0:
        raise BadParameters(f"clan parameter c must be positive, got {c}")
    L = LieAlgebra.from_brackets(("u", "v"), {(0, 1): {1: 2}})
    D = Connection.from_table(L, {(1, 0): {1: -2}, (1, 1): {0: 1}})
    g = Metric.from_rows(L, [[Fraction(4, 1) / c, 0], [0, Fraction(2, 1) / c]])
    expected = _expected(
        "jacobi pass trivial", "torsion_free pass derived",
        "flat fail derived", "codazzi pass published",
        "positive_definite pass published",
        f"constant_curvature {format_rational(-c)} published",
        "statistical pass published", "hessian fail derived",
        "double_jacobi fail derived", "double_integrable pass derived")
    notes = (
        CatalogNote(
            "double-sign", "divergence",
            "the printed relation list for the doubled cone gives "
            "[u1, u2] = -4 rho2",
            "the construction gives [u1, u2] = +4 rho2, the rho component "
            "of nabla_u u"),
        CatalogNote(
            "double-duplicate", "divergence",
            "the printed relation list assigns [v1, v2] two different "
            "values, -2 rho2 and u2",
            "the construction gives the single value [v1, v2] = u2 + 2 rho2"),
        CatalogNote(
            "rank-label", "divergence",
            "the worked example is labelled with matrix size three",
            "the displayed generators are two by two; the implemented clan "
            "is the rank two one"),
    )
    return CatalogEntry(
        "clan-triangular",
        "rank two triangular clan, statistical of curvature -c",
        (("c", c),), False, L, D, g, -c, -c, "negative", expected, notes)


def _so2(params):
    L = LieAlgebra.abelian(("v",))
    D = Connection.zero(L)
    g = Metric.identity(L)
    expected = _expected(
        "jacobi pass trivial", "torsion_free pass trivial",
        "flat pass trivial", "codazzi pass trivial",
        "positive_definite pass trivial",
        "constant_curvature underdetermined derived",
        "statistical pass derived", "hessian pass derived",
        "double_jacobi pass derived", "double_integrable pass derived")
    notes = (
        CatalogNote("kahler-claim", "divergence",
                    _KAHLER_CLAIM, _KAHLER_COMPUTED),
    )
    return CatalogEntry(
        "so2",
        "one dimensional base of the rotation group example; any declared "
        "curvature is admissible",
        (), False, L, D, g, None, Fraction(1), "nonzero", expected, notes)


def _su2(params):
    L = LieAlgebra.from_brackets(
        ("u", "v", "w"),
        {(0, 1): {2: 2}, (1, 2): {0: 2}, (0, 2): {1: -2}})
    D = Connection.from_table(L, {
        (0, 1): {2: 1}, (1, 2): {0: 1}, (2, 0): {1: 1},
        (1, 0): {2: -1}, (2, 1): {0: -1}, (0, 2): {1: -1}})
    g = Metric.identity(L)
    expected = _expected(
        "jacobi pass published", "torsion_free pass derived",
        "flat fail derived", "codazzi pass published",
        "positive_definite pass published", "constant_curvature 1 published",
        "statistical pass published", "hessian fail derived",
        "double_jacobi fail derived", "double_integrable pass derived")
    notes = (
        CatalogNote("kahler-claim", "divergence",
                    _KAHLER_CLAIM, _KAHLER_COMPUTED),
        CatalogNote(
            "connection-completion", "completion",
            "the published derivative table lists only D_u v = w, "
            "D_v w = u, D_w u = v and a zero diagonal",
            "torsion freeness forces the remaining values D_v u = -w, "
            "D_w v = -u, D_u w = -v"),
        CatalogNote(
            "unit-rescale", "divergence",
            "rescaling a curvature c structure to curvature one is "
            "described as dividing the metric by c",
            "scaling the metric by s scales the curvature by 1/s, so "
            "curvature one is reached by multiplying the metric by c"),
    )
    return CatalogEntry(
        "su2",
        "compact rank one example, statistical of curvature 1",
        (), False, L, D, g, Fraction(1), Fraction(1), "positive", expected,
        notes)


def _abelian(params):
    n = params.get("n", Fraction(2))
    if n.denominator != 1 or not 1 <= n.numerator <= 16:
        raise BadParameters(f"abelian parameter n must be an integer in "
                            f"1..16, got {n}")
    n = int(n)
    L = LieAlgebra.abelian(tuple(f"e{i + 1}" for i in range(n)))
    D = Connection.zero(L)
    g = Metric.identity(L)
    curvature_outcome = "0" if n >= 2 else "underdetermined"
    expected = _expected(
        "jacobi pass trivial", "torsion_free pass trivial",
        "flat pass trivial", "codazzi pass trivial",
        "positive_definite pass trivial",
        f"constant_curvature {curvature_outcome} derived",
        "statistical pass trivial", "hessian pass trivial",
        "double_jacobi pass trivial", "double_integrable pass trivial")
    return CatalogEntry(
        "abelian-n",
        "abelian algebra with the flat zero connection",
        (("n", Fraction(n)),), True, L, D, g,
        Fraction(0) if n >= 2 else None,
        Fraction(0), "zero", expected, ())


def _flat_torsionful(params):
    L = LieAlgebra.abelian(("u", "v"))
    D = Connection.from_table(L, {(0, 1): {1: 1}})
    g = Metric.identity(L)
    expected = _expected(
        "jacobi pass synthetic", "torsion_free fail synthetic",
        "flat pass synthetic", "statistical fail synthetic",
        "double_jacobi pass synthetic", "double_integrable fail synthetic")
    return CatalogEntry(
        "flat-torsionful-fixture",
        "synthetic fixture: flat connection with torsion on the abelian "
        "plane",
        (), True, L, D, g, None, None, "none", expected, ())


def _nonflat(params):
    base = _clan({"c": Fraction(1)})
    expected = _expected(
        "jacobi pass synthetic", "torsion_free pass synthetic",
        "flat fail synthetic", "constant_curvature -1 synthetic",
        "statistical pass synthetic", "double_jacobi fail synthetic",
        "double_integrable pass synthetic")
    return CatalogEntry(
        "nonflat-fixture",
        "synthetic fixture: the non-flat clan connection, whose naive "
        "double breaks Jacobi",
        (), True, base.algebra, base.connection, base.metric,
        Fraction(-1), Fraction(-1), "none", expected, ())


_BUILDERS = {
    "clan-triangular": (_clan, (("c", "positive rational, default 1"),)),
    "so2": (_so2, ()),
    "su2": (_su2, ()),
    "abelian-n": (_abelian, (("n", "integer in 1..16, default 2"),)),
    "flat-torsionful-fixture": (_flat_torsionful, ()),
    "nonflat-fixture": (_nonflat, ()),
}


def list_examples():
    """Deterministic (name, summary, parameter schema) listing."""
    out = []
    for name, (builder, schema) in _BUILDERS.items():
        entry = builder({})
        out.append((name, entry.summary, schema))
    return out


def get_example(name, params=None):
    if name not in _BUILDERS:
        raise UnknownExample(f"no catalog entry named {name!r}")
    builder, schema = _BUILDERS[name]
    allowed = {key for key, _ in schema}
    cleaned = {}
    for key, value in (params or {}).items():
        if key not in allowed:
            raise BadParameters(f"{name} takes no parameter {key!r}")
        try:
            cleaned[key] = _as_q(value)
        except InexactValue:
            raise BadParameters(f"{name} parameter {key!r} is not a "
                                f"rational: {value!r}") from None
    return builder(cleaned)


def run_check(entry, check):
    """Re-derive one expected outcome string from the bundle itself.

    check is a report flag, a claim name standing for the flag it backs
    (positive_definite for metric_positive), constant_curvature, or
    double_jacobi or double_integrable, the flag read off the report of
    the double.  The entry keeps the classify reports of its base and of
    its double, so each is computed once however many checks read it.
    """
    if check in ("double_jacobi", "double_integrable"):
        report, check = entry._double_report, check[len("double_"):]
    else:
        report = entry._report
    if check == "constant_curvature":
        fit = report.constant_curvature
        if fit.kind == "constant":
            return format_rational(fit.value)
        return fit.kind
    flag = CLAIMS[check].flag if check in CLAIMS else check
    if flag not in FLAGS:
        raise UnknownExample(f"no check named {check!r}")
    return "pass" if report.flag(flag) else "fail"
