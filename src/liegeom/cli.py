"""Command line front end.

Four subcommands: verify runs every applicable check on a document (or
a built-in catalog entry) and gates its exit status on a claim chosen
with --as; construct builds the double, the cone, the two-form family
or the flat-side symplectic form and emits the result as a canonical
document; catalog lists or exports the built-in examples; lambda solves
the conformal factor equation c L^2 - 2 L + 1 = 0.

Exit codes: 0 the requested claim holds (for lambda, the equation was
answered, "no real solutions" included), 1 the claim fails exactly,
2 the input was unusable.  All output is deterministic: the same
invocation prints the same bytes.  One parser serves a process (built
on the first run_command) and one renderer, _emit, reads --format.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import sys
from dataclasses import dataclass
from fractions import Fraction

from .algebra import jacobi_check
from .catalog import get_example, list_examples
from .check import CLAIMS
from .constructions import (SurdPair, cone_extend, double,
                            kahler_form_from_hessian, lck_family,
                            solve_lambda)
from .errors import (BadParameters, InputError, LieGeomError, MissingPieces,
                     NoRealSolution, ValidationError, VerdictError)
from .geometry import classify
from .io import document_from, parse, serialize
from .rationals import format_rational, parse_rational

# how --as names the pieces a verdict needs
_PIECE_TEXT = {"connection": "a connection", "metric": "a metric",
               "complex_structure": "a complex structure",
               "omega": "a form named omega"}


@dataclass(frozen=True)
class SourceBundle:
    """Everything a subcommand can pull out of one source argument."""

    label: str
    algebra: object
    connection: object
    metric: object
    complex_structure: object
    omega: object
    parameters: dict
    curvature_default: Fraction | None
    notes: tuple


def _catalog_params(pieces):
    """{key: rational} from key=value strings, each key given once."""
    params = {}
    for piece in pieces:
        key, sep, value = piece.partition("=")
        if not sep:
            raise BadParameters(
                f"catalog parameter {piece!r} is not key=value")
        if key in params:
            raise BadParameters(f"catalog parameter {key} is given twice")
        try:
            params[key] = parse_rational(value)
        except (ValueError, LieGeomError) as exc:
            raise BadParameters(
                f"bad value for catalog parameter {key}: {exc}")
    return params


def _load_source(source):
    if source.startswith("catalog:"):
        rest = source[len("catalog:"):]
        name, _, query = rest.partition("?")
        params = _catalog_params(query.split("&") if query else ())
        entry = get_example(name, params)
        return SourceBundle(source, entry.algebra, entry.connection,
                            entry.metric, None, None,
                            dict(entry.parameters),
                            entry.declared_curvature, entry.notes)
    try:
        with open(source, "r", encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {source}: {exc}")
    doc = parse(text)
    algebra = doc.to_algebra()
    return SourceBundle(source, algebra,
                        doc.to_connection(algebra),
                        doc.to_metric(algebra),
                        doc.to_complex_structure(algebra),
                        doc.to_form("omega"),
                        dict(doc.parameters),
                        doc.parameter("c"), ())


def _write(path, text):
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}")


# -- rendering -------------------------------------------------------------

def _emit(args, payload, lines):
    """Print payload() as JSON under --format json, else lines() as text.

    Only the chosen one is called (JSON carries values the text omits,
    which may be too large to print), and all of it before printing."""
    if args.format == "json":
        text = json.dumps(payload(), indent=2, sort_keys=True)
    else:
        text = "\n".join(lines())
    print(text)


def _terms_text(terms):
    """Join (coefficient, name) pairs as 2*a - b + c, skipping zeros."""
    parts = []
    for value, name in terms:
        if value == 0:
            continue
        if value == 1:
            parts.append(name)
        elif value == -1:
            parts.append("-" + name)
        else:
            parts.append(f"{format_rational(value)}*{name}")
    out = parts[0] if parts else "0"
    for term in parts[1:]:
        out += " - " + term[1:] if term.startswith("-") else " + " + term
    return out


def form_text(form, labels):
    """Human rendering of a form, e.g. 4*u1^u2 + 2*v1^v2 - rho1."""
    return _terms_text((value, "^".join(labels[i] for i in idx))
                       for idx, value in form.components())


def _residual_text(residual, labels):
    if isinstance(residual, tuple):
        return _terms_text(zip(residual, labels))
    return format_rational(residual)


def _residual_json(residual):
    if isinstance(residual, tuple):
        return [format_rational(v) for v in residual]
    return format_rational(residual)


def _witness_text(witness, labels):
    if CLAIMS[witness.claim].labelled:
        where = ", ".join(labels[i] for i in witness.indices)
    else:
        where = ", ".join(str(i) for i in witness.indices)
    line = f"witness: {witness.claim}"
    if where:
        line += f" at ({where})"
    line += f": {_residual_text(witness.residual, labels)}"
    return line


def _note_lines(notes):
    return [f"note[{n.kind}] {n.key}: claimed: {n.claimed} / computed: "
            f"{n.computed}" for n in notes]


def _note_json(notes):
    return [{"key": n.key, "kind": n.kind, "claimed": n.claimed,
             "computed": n.computed} for n in notes]


# -- verify ----------------------------------------------------------------

def _mode_verdict(report, mode):
    if mode is None:
        return report.is_jacobi
    try:
        holds = report.flag(mode)
    except MissingPieces as exc:
        raise ValidationError(
            f"--as {mode} needs "
            + " and ".join(_PIECE_TEXT[p] for p in exc.pieces),
            field=exc.pieces[0])
    return report.is_jacobi and holds


def _cmd_verify(args):
    bundle = _load_source(args.source)
    report = classify(bundle.algebra, connection=bundle.connection,
                      metric=bundle.metric,
                      complex_structure=bundle.complex_structure,
                      omega=bundle.omega)
    ok = _mode_verdict(report, args.mode)
    labels = bundle.algebra.basis_labels
    verdict = "pass" if ok else "fail"
    fit = report.constant_curvature

    def payload():
        return {
            "source": bundle.label,
            "mode": args.mode,
            "dim": bundle.algebra.dim,
            "basis": list(labels),
            "flags": dict(report.computed_flags()),
            "constant_curvature": None if fit is None else {
                "kind": fit.kind,
                "value": None if fit.value is None
                else format_rational(fit.value)},
            "lee_form": None if report.lee_form is None else [
                [idx[0], format_rational(value)]
                for idx, value in report.lee_form.components()],
            "witnesses": [
                {"claim": w.claim, "indices": list(w.indices),
                 "residual": _residual_json(w.residual),
                 "detail": [format_rational(v) for v in w.detail]}
                for w in report.witnesses],
            "notes": _note_json(bundle.notes),
            "verdict": verdict,
        }

    def lines():
        out = [f"source: {bundle.label}", f"dim: {bundle.algebra.dim}",
               "basis: " + " ".join(labels)]
        out += [f"{name}: {'pass' if value else 'fail'}"
                for name, value in report.computed_flags()]
        if fit is not None:
            out.append("constant_curvature: " + (
                format_rational(fit.value) if fit.kind == "constant"
                else fit.kind))
        if bundle.omega is not None:
            out.append("lee_form: " + (
                "none" if report.lee_form is None
                else form_text(report.lee_form, labels)))
        out += [_witness_text(witness, labels)
                for witness in report.witnesses]
        out += _note_lines(bundle.notes)
        out.append(f"verdict: {verdict}")
        return out

    _emit(args, payload, lines)
    return 0 if ok else 1


# -- construct -------------------------------------------------------------

def _cmd_construct(args):
    bundle = _load_source(args.source)
    if bundle.connection is None:
        raise ValidationError(f"construct {args.kind} needs a connection",
                              field="connection")
    if args.kind != "double" and bundle.metric is None:
        raise ValidationError(f"construct {args.kind} needs a metric",
                              field="metric")
    c = args.c if args.c is not None else bundle.curvature_default
    status = 0
    pairs = []

    if args.kind == "double":
        built = double(bundle.algebra, bundle.connection)
        doc = document_from(built.algebra,
                            complex_structure=built.complex_structure)
        labels = built.algebra.basis_labels
        witness = jacobi_check(built.algebra)
        if witness is None:
            pairs.append(("jacobi", "pass"))
        else:
            where = ", ".join(labels[i] for i in witness.indices)
            pairs.append(("jacobi", "fail"))
            pairs.append(("jacobi_violation", f"({where})"))
            status = 1
    elif args.kind == "kahler":
        result = kahler_form_from_hessian(bundle.algebra, bundle.connection,
                                          bundle.metric)
        doc = document_from(
            result.double.algebra,
            complex_structure=result.double.complex_structure,
            forms=(("omega", result.omega),))
        labels = result.double.algebra.basis_labels
        pairs.append(("omega", form_text(result.omega, labels)))
        pairs.append(("kahler",
                      "pass" if result.report.is_kahler else "fail"))
    elif args.kind == "cone":
        ext = cone_extend(bundle.algebra, bundle.connection, bundle.metric,
                          c=c)
        parameters = {"c": ext.c}
        metric_doc = None
        if args.t is not None:
            metric_doc = ext.metric(args.t)
            parameters["t"] = args.t
        doc = document_from(ext.algebra, connection=ext.nabla,
                            metric=metric_doc, parameters=parameters)
        pairs.append(("curvature", format_rational(ext.c)))
        pairs.append(("radiant", ext.algebra.label(ext.rho_index)))
    else:
        t = args.t if args.t is not None else bundle.parameters.get(
            "t", Fraction(1))
        fam = lck_family(bundle.algebra, bundle.connection, bundle.metric,
                         c, t)
        doc = document_from(
            fam.double.algebra,
            complex_structure=fam.double.complex_structure,
            forms=(("lee_form", fam.lee_form), ("omega", fam.omega)),
            parameters={"c": fam.c, "t": fam.t})
        labels = fam.double.algebra.basis_labels
        pairs.append(("omega", form_text(fam.omega, labels)))
        pairs.append(("lee_form", form_text(fam.lee_form, labels)))
        pairs.append(("kahler_member",
                      "yes" if fam.report.is_kahler else "no"))

    text = serialize(doc)
    summary = [f"{key}: {value}" for key, value in pairs]
    if args.output:
        _write(args.output, text)
        _emit(args, lambda: {"info": dict(pairs), "output": args.output},
              lambda: summary + [f"wrote: {args.output}"])
    else:
        # the document is the stdout artifact; diagnostics go to stderr
        print(text, end="")
        print("\n".join(summary), file=sys.stderr)
    return status


# -- catalog ---------------------------------------------------------------

def _cmd_catalog_list(args):
    rows = list_examples()
    _emit(args, lambda: [{"name": name, "summary": summary,
                          "parameters": dict(schema)}
                         for name, summary, schema in rows],
          lambda: [line for name, summary, schema in rows
                   for line in [f"{name}: {summary}"] + [
                       f"  parameter {key}: {desc}" for key, desc in schema]])
    return 0


def _cmd_catalog_show(args):
    entry = get_example(args.name, _catalog_params(args.param))
    doc = document_from(entry.algebra, connection=entry.connection,
                        metric=entry.metric, parameters=entry.parameters)
    text = serialize(doc)
    if args.output:
        _write(args.output, text)

    def payload():
        out = {
            "name": entry.name,
            "summary": entry.summary,
            "synthetic": entry.synthetic,
            "parameters": {key: format_rational(value)
                           for key, value in entry.parameters},
            "curvature": None if entry.curvature is None
            else format_rational(entry.curvature),
            "declared_curvature": None if entry.declared_curvature is None
            else format_rational(entry.declared_curvature),
            "admissible": entry.admissible,
            "expected": [{"check": e.check, "outcome": e.outcome,
                          "provenance": e.provenance}
                         for e in entry.expected],
            "notes": _note_json(entry.notes),
            "document": json.loads(text),
        }
        if args.output:
            out["output"] = args.output
        return out

    def lines():
        out = [f"name: {entry.name}", f"summary: {entry.summary}"]
        if entry.parameters:
            out.append("parameters: " + ", ".join(
                f"{key} = {format_rational(value)}"
                for key, value in entry.parameters))
        if entry.curvature is not None:
            out.append(f"curvature: {format_rational(entry.curvature)}")
        if entry.declared_curvature is not None:
            out.append(f"declared_curvature: "
                       f"{format_rational(entry.declared_curvature)}")
        out += [f"admissible: {entry.admissible}", "expected:"]
        out += [f"  {e.check}: {e.outcome} ({e.provenance})"
                for e in entry.expected]
        out += _note_lines(entry.notes)
        if args.output:
            out.append(f"wrote: {args.output}")
        return out

    _emit(args, payload, lines)
    return 0


# -- lambda ----------------------------------------------------------------

def _surd_text(p, d, q, sign):
    inner = f"{p} {sign} sqrt({d})"
    return inner if q == "1" else f"({inner})/{q}"


def _cmd_lambda(args):
    try:
        roots = solve_lambda(args.c)
    except NoRealSolution:
        payload, lines = {"kind": "none", "roots": []}, ["no real solutions"]
    else:
        if isinstance(roots, SurdPair):
            # formatted before either rendering, so a surd too long to
            # print exits 2 in both
            text = [format_rational(v) for v in (roots.p, roots.d, roots.q)]
            payload = {"kind": "surd", "p": roots.p, "d": roots.d,
                       "q": roots.q}
            lines = [f"lambda = {_surd_text(*text, sign)}" for sign in "+-"]
        else:
            payload = {"kind": "rational",
                       "roots": [format_rational(r) for r in roots]}
            lines = [f"lambda = {format_rational(r)}" for r in roots]
    _emit(args, lambda: {"c": format_rational(args.c), **payload},
          lambda: lines)
    return 0


# -- wiring ----------------------------------------------------------------

def _rat_arg(text):
    try:
        return parse_rational(text)
    except (ValueError, LieGeomError) as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _format_arg(parser):
    parser.add_argument("--format", choices=("text", "json"), default="text",
                        help="output rendering (default text)")


@functools.cache
def _build_parser():
    parser = argparse.ArgumentParser(
        prog="liegeom",
        description="exact verification and construction for "
                    "left-invariant structures given by rational "
                    "structure constants")
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar="command")

    p = sub.add_parser(
        "verify", help="run every applicable check on a document")
    p.add_argument("source",
                   help="document path or catalog:<name>[?key=value&...]")
    p.add_argument("--as", dest="mode",
                   choices=("statistical", "hessian", "kahler", "lck"),
                   help="claim the exit status gates on "
                        "(default: the bracket satisfies Jacobi)")
    _format_arg(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser(
        "construct", help="build a derived structure and emit a document")
    p.add_argument("kind", choices=("double", "cone", "lck", "kahler"))
    p.add_argument("source",
                   help="document path or catalog:<name>[?key=value&...]")
    p.add_argument("--c", type=_rat_arg, default=None,
                   help="curvature; overrides the source, else derived")
    p.add_argument("--t", type=_rat_arg, default=None,
                   help="family parameter (lck default 1; for cone, "
                        "include the metric at this value)")
    p.add_argument("-o", "--output", help="write the document here instead "
                                          "of stdout")
    _format_arg(p)
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("catalog", help="built-in examples")
    csub = p.add_subparsers(dest="catalog_command", required=True,
                            metavar="action")
    lp = csub.add_parser("list", help="list entries")
    _format_arg(lp)
    lp.set_defaults(func=_cmd_catalog_list)
    sp = csub.add_parser("show", help="expected outcomes, notes and the "
                                      "entry as a document")
    sp.add_argument("name")
    sp.add_argument("--param", action="append", default=[],
                    metavar="KEY=VALUE", help="entry parameter")
    sp.add_argument("-o", "--output", help="also write the document here")
    _format_arg(sp)
    sp.set_defaults(func=_cmd_catalog_show)

    p = sub.add_parser(
        "lambda", help="solve c L^2 - 2 L + 1 = 0 exactly")
    p.add_argument("--c", type=_rat_arg, required=True,
                   help="curvature, a nonzero rational")
    _format_arg(p)
    p.set_defaults(func=_cmd_lambda)

    return parser


def run_command(argv, stdout=None, stderr=None):
    """Run one invocation; returns the exit status without exiting."""
    out = sys.stdout if stdout is None else stdout
    err = sys.stderr if stderr is None else stderr
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            args = _build_parser().parse_args(argv)
        except SystemExit as exc:
            return 0 if exc.code in (0, None) else 2
        try:
            return args.func(args)
        except InputError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        except VerdictError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1


def main():
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
