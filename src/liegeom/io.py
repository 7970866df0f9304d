"""JSON documents for algebras and the structures riding on them.

The format is deliberately sparse: every block lists only nonzero
coefficients as "p/q" strings, omitted entries are zero, and bracket
entries are stored with i < j only since antisymmetry fixes the rest.
Serialisation is canonical (sorted indices, reduced rationals, two
space indent), so parse and serialize are mutually inverse on canonical
documents and equal documents serialise to identical bytes.

parse checks an entry block a column at a time: the types, range and
ordering of each index column and the repeats of the index tuples, then
the coefficients, each distinct string converted once per call.  Only a
block that fails this is read again an entry at a time, to name its
first fault.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from fractions import Fraction
from operator import itemgetter, le, lt

from .algebra import LieAlgebra
from .errors import (DocumentSyntaxError, LieGeomError, NotAlmostComplex,
                     ValidationError)
from .forms import KForm
from .geometry import ComplexStructure, Connection, Metric
from .rationals import _RATIONAL_RE, format_rational, parse_rational
from .tensors import Tensor

FORMAT_VERSION = 1
MAX_DIM = 64

_LABEL_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")
# json.dumps(x, sort_keys=True), without building an encoder per call
_DUMP = json.JSONEncoder(sort_keys=True).encode

_TOP_KEYS = {"format_version", "dim", "basis", "brackets", "connection",
             "metric", "complex_structure", "forms", "parameters"}

# an entry block's ordered rule as (comparison, the leading index pairs
# it binds): none, i < j or i <= j on the first pair, or every pair
# increasing
_ORDER = {None: (None, 0), "strict_first_two": (lt, 1),
          "weak_pair": (le, 1), "increasing": (lt, None)}


@dataclass(frozen=True)
class FormBlock:
    name: str
    degree: int
    entries: tuple


@dataclass(frozen=True)
class AlgebraDocument:
    """Parsed, validated document contents in canonical order.

    parse marks what it returns, whose pieces skip a second index scan;
    one built by hand or by dataclasses.replace, which drops the mark,
    is checked as the public Tensor constructor checks.
    """

    dim: int
    basis: tuple
    brackets: tuple
    connection: tuple | None = None
    metric: tuple | None = None
    complex_structure: tuple | None = None
    forms: tuple = ()
    parameters: tuple = ()
    _parsed: bool = field(default=False, init=False, compare=False,
                          repr=False)

    # -- materialisation ---------------------------------------------------

    def _tensor(self, rank, entries):
        """The Tensor of a block, of shape dim^rank."""
        build = Tensor._trusted if self._parsed else Tensor
        return build((self.dim,) * rank, entries)

    def to_algebra(self):
        return LieAlgebra(self.dim, self.basis, self._tensor(3, self.brackets))

    def to_connection(self, algebra):
        if self.connection is None:
            return None
        return Connection(algebra, self._tensor(3, self.connection))

    def to_metric(self, algebra):
        if self.metric is None:
            return None
        n = self.dim
        half = self._tensor(2, self.metric).entries
        return Metric(algebra, Tensor._trusted((n, n), {
            **dict(half), **{idx[::-1]: v for idx, v in half}}.items()))

    def to_complex_structure(self, algebra):
        if self.complex_structure is None:
            return None
        try:
            return ComplexStructure(
                algebra, self._tensor(2, self.complex_structure))
        except NotAlmostComplex as exc:
            # a J that does not square to -1 is not a complex structure
            # at all, so the document is unusable rather than refuted
            raise ValidationError(
                f"complex_structure does not square to -1: {exc}",
                field="complex_structure") from exc

    def form_block(self, name):
        for block in self.forms:
            if block.name == name:
                return block
        return None

    def to_form(self, name):
        block = self.form_block(name)
        if block is None:
            return None
        return KForm(block.degree, self._tensor(block.degree, block.entries))

    def parameter(self, name):
        for key, value in self.parameters:
            if key == name:
                return value
        return None


def parse(text):
    """Parse and validate a document; errors carry position or field."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentSyntaxError(str(exc), exc.lineno, exc.colno) from exc
    except (RecursionError, ValueError) as exc:
        # nesting too deep for the decoder, or an int literal past the
        # interpreter's digit limit; neither carries a position
        raise DocumentSyntaxError(str(exc)) from exc
    if not isinstance(raw, dict):
        raise ValidationError("top level must be an object", field="document")
    unknown = set(raw) - _TOP_KEYS
    if unknown:
        raise ValidationError(
            f"unknown keys {sorted(unknown)}", field="document")
    version = raw.get("format_version")
    if version != FORMAT_VERSION:
        raise ValidationError(
            f"format_version must be {FORMAT_VERSION}, got {version!r}",
            field="format_version")
    dim = raw.get("dim")
    if not isinstance(dim, int) or isinstance(dim, bool) or not (
            1 <= dim <= MAX_DIM):
        raise ValidationError(
            f"dim must be an integer in 1..{MAX_DIM}, got {dim!r}",
            field="dim")
    basis = raw.get("basis")
    if (not isinstance(basis, list) or len(basis) != dim
            or not all(isinstance(b, str) and _LABEL_RE.match(b)
                       for b in basis)):
        raise ValidationError(
            "basis must list dim identifier-like labels", field="basis")
    if len(set(basis)) != dim:
        raise ValidationError("basis labels must be distinct", field="basis")

    values = {}     # each distinct coefficient string, converted once
    brackets = _entry_list(raw.get("brackets", []), "brackets", 3, dim,
                           "strict_first_two", values)
    pieces = {key: _entry_list(raw[key], key, arity, dim, ordered, values)
              for key, arity, ordered in (("connection", 3, None),
                                          ("metric", 2, "weak_pair"),
                                          ("complex_structure", 2, None))
              if key in raw}
    forms = []
    raw_forms = raw.get("forms", [])
    if not isinstance(raw_forms, list):
        raise ValidationError("forms must be a list", field="forms")
    for pos, block in enumerate(raw_forms):
        forms.append(_form_block(block, pos, dim, values))
    if len({f.name for f in forms}) != len(forms):
        raise ValidationError("form names must be distinct", field="forms")
    forms.sort(key=lambda f: f.name)

    parameters = []
    raw_params = raw.get("parameters", {})
    if not isinstance(raw_params, dict):
        raise ValidationError("parameters must be an object",
                              field="parameters")
    for key in sorted(raw_params):
        if not _LABEL_RE.match(key):
            raise ValidationError(f"bad parameter name {key!r}",
                                  field="parameters")
        parameters.append((key, _rational(raw_params[key],
                                          f"parameters.{key}")))

    doc = AlgebraDocument(dim, tuple(basis), brackets, forms=tuple(forms),
                          parameters=tuple(parameters), **pieces)
    object.__setattr__(doc, "_parsed", True)
    return doc


def _rational(value, where):
    try:
        return parse_rational(value)
    except (ValueError, LieGeomError) as exc:
        raise ValidationError(f"bad rational at {where}: {exc}",
                              field=where) from exc


def _entry_list(raw, name, arity, dim, ordered, values):
    """The sorted nonzero (index, Fraction) pairs of a block, checked a
    column at a time; values, the dict of one parse call, converts each
    distinct coefficient string once.  A block this does not accept goes
    to _entry_loop, the one code that names a fault."""
    if not isinstance(raw, list):
        raise ValidationError(f"{name} must be a list", field=name)
    if not raw:
        return ()
    # exact types, as JSON has them: a bool is no int index
    if set(map(type, raw)) == {list} and set(map(len, raw)) == {arity + 1}:
        *cols, texts = zip(*raw)
        idxs = list(zip(*cols))
        op, stop = _ORDER[ordered]
        if (all(set(map(type, col)) == {int} for col in cols)
                and min(map(min, cols)) >= 0 and max(map(max, cols)) < dim
                and all(all(map(op, a, b))
                        for a, b in zip(cols[:stop], cols[1:]))
                and len(set(idxs)) == len(idxs)
                and set(map(type, texts)) == {str}):
            try:
                for text in set(texts).difference(values):
                    match = _RATIONAL_RE.fullmatch(text)
                    values[text] = Fraction(int(match[1]),
                                            int(match[2] or 1))
            except (TypeError, ValueError, ZeroDivisionError):
                pass
            else:
                pairs = zip(idxs, map(values.__getitem__, texts))
                return tuple(sorted(filter(itemgetter(1), pairs),
                                    key=itemgetter(0)))
    return _entry_loop(raw, name, arity, dim, ordered)


def _entry_loop(raw, name, arity, dim, ordered):
    """The pairs of _entry_list, an entry at a time: raises the
    ValidationError of the first entry at fault, in block order."""
    seen = {}
    for pos, item in enumerate(raw):
        # exact types, as JSON has them: a bool is no int index
        if (type(item) is not list or len(item) != arity + 1
                or not all(type(i) is int for i in item[:arity])):
            _refuse(f"{{}} must be {arity} indices plus a coefficient",
                    name, pos)
        idx = tuple(item[:arity])
        if min(idx) < 0 or max(idx) >= dim:
            _refuse("index out of range at {}", name, pos)
        if ordered == "strict_first_two" and not idx[0] < idx[1]:
            _refuse("{} must have i < j (antisymmetry fills the rest)",
                    name, pos)
        if ordered == "weak_pair" and not idx[0] <= idx[1]:
            _refuse("{} must have i <= j", name, pos)
        if ordered == "increasing" and any(
                not a < b for a, b in zip(idx, idx[1:])):
            _refuse("{} must have strictly increasing indices", name, pos)
        if idx in seen:
            _refuse(f"duplicate index {idx} at {{}}", name, pos)
        # a zero is recorded too, so a duplicate is caught in either order
        seen[idx] = _rational(item[arity], f"{name}[{pos}]")
    return tuple(sorted((idx, v) for idx, v in seen.items() if v))


def _refuse(message, name, pos):
    """Raise the ValidationError of entry pos of name, message naming it
    at its {}."""
    where = f"{name}[{pos}]"
    raise ValidationError(message.format(where), field=where)


def _form_block(raw, pos, dim, values):
    where = f"forms[{pos}]"
    if not isinstance(raw, dict) or set(raw) != {"name", "degree", "entries"}:
        raise ValidationError(
            f"{where} must be an object with name, degree and entries",
            field=where)
    name = raw["name"]
    if not isinstance(name, str) or not _LABEL_RE.match(name):
        raise ValidationError(f"bad form name at {where}", field=where)
    degree = raw["degree"]
    if not isinstance(degree, int) or isinstance(degree, bool) or not (
            1 <= degree <= 3):
        raise ValidationError(
            f"form degree must be an integer in 1..3 at {where}, "
            f"got {degree!r}", field=where)
    entries = _entry_list(raw["entries"], f"{where}.entries", degree, dim,
                          "increasing", values)
    return FormBlock(name, degree, entries)


# -- serialisation ---------------------------------------------------------

def serialize(doc):
    """Canonical JSON text for a document, ending in a newline.

    Keys are sorted and every coefficient entry sits on its own line in
    compact form, so equal documents serialise to identical bytes and
    diffs stay readable.
    """
    payload = {
        "format_version": FORMAT_VERSION,
        "dim": doc.dim,
        "basis": list(doc.basis),
        "brackets": _dump_entries(doc.brackets),
    }
    if doc.connection is not None:
        payload["connection"] = _dump_entries(doc.connection)
    if doc.metric is not None:
        payload["metric"] = _dump_entries(doc.metric)
    if doc.complex_structure is not None:
        payload["complex_structure"] = _dump_entries(doc.complex_structure)
    if doc.forms:
        payload["forms"] = [
            {"name": f.name, "degree": f.degree,
             "entries": _dump_entries(f.entries)}
            for f in doc.forms]
    if doc.parameters:
        payload["parameters"] = {key: format_rational(value)
                                 for key, value in doc.parameters}
    lines = ["{"]
    keys = sorted(payload)
    for pos, key in enumerate(keys):
        value = payload[key]
        tail = "," if pos < len(keys) - 1 else ""
        if isinstance(value, list) and value and isinstance(
                value[0], (list, dict)):
            lines.append(f'  "{key}": [')
            for ipos, item in enumerate(value):
                itail = "," if ipos < len(value) - 1 else ""
                lines.append("    " + _DUMP(item) + itail)
            lines.append(f"  ]{tail}")
        else:
            lines.append(f'  "{key}": ' + _DUMP(value) + tail)
    lines.append("}")
    return "\n".join(lines) + "\n"


def _dump_entries(entries):
    return [[*idx, format_rational(value)]
            for idx, value in sorted(entries)]


# -- document builders -----------------------------------------------------

def document_from(algebra, connection=None, metric=None,
                  complex_structure=None, forms=(), parameters=()):
    """Canonical document for in-memory structures.

    forms is a sequence of (name, KForm) pairs; parameters a sequence of
    (name, rational) pairs.
    """
    # tensor entries are the sorted nonzero pairs a document lists
    conn = None
    if connection is not None:
        conn = connection.gamma.entries
    met = None
    if metric is not None:
        met = tuple(e for e in metric.g.entries if e[0][0] <= e[0][1])
    cx = None
    if complex_structure is not None:
        cx = complex_structure.j.entries
    blocks = []
    for name, form in forms:
        blocks.append(FormBlock(name, form.degree, form.half.entries))
    blocks.sort(key=lambda f: f.name)
    params = tuple(sorted((key, Fraction(value)) for key, value in
                          dict(parameters).items()))
    return AlgebraDocument(
        algebra.dim, algebra.basis_labels, algebra.half.entries,
        connection=conn, metric=met, complex_structure=cx,
        forms=tuple(blocks), parameters=params)
