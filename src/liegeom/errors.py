"""Exception hierarchy shared across the package.

Everything raised on purpose derives from LieGeomError so callers can
catch one base class.  Input-shaped problems (bad files, bad parameters)
and verdict-shaped problems (a structure failing a check it was claimed
to satisfy) are separate subtrees; the command line maps the former to
exit code 2 and the latter to exit code 1.
"""


class LieGeomError(Exception):
    """Base class for every error this package raises deliberately."""


class InputError(LieGeomError):
    """The caller handed us something malformed or out of domain."""


class VerdictError(LieGeomError):
    """A supplied structure fails a property the operation requires."""


# -- exact arithmetic and tensors ------------------------------------------

class ZeroDenominator(InputError):
    pass


class InexactValue(InputError):
    """A coefficient that is a float, or a value Fraction cannot read."""


class ShapeMismatch(InputError):
    pass


class DimensionMismatch(InputError):
    pass


class MissingPieces(InputError):
    """A verdict was asked for that the supplied pieces cannot decide.

    pieces names what the verdict needs, e.g. ("connection", "metric").
    """

    def __init__(self, message, pieces=()):
        super().__init__(message)
        self.pieces = tuple(pieces)


# -- Lie algebras and forms ------------------------------------------------

class UnsupportedDegree(InputError):
    pass


class NotAlmostComplex(VerdictError):
    """The square of the candidate complex structure is not minus the identity."""


class NoLeeForm(VerdictError):
    """d(omega) = theta ^ omega has no solution theta."""


# -- constructions ---------------------------------------------------------

class NotHessian(VerdictError):
    """Carries the name of the first failed precondition in args[0]."""


class NotStatistical(VerdictError):
    pass


class CurvatureMismatch(VerdictError):
    pass


class UnderdeterminedCurvature(InputError):
    """The base determines no curvature value, so one must be supplied."""


class ZeroCurvature(InputError):
    pass


class NoRealSolution(LieGeomError):
    """The quadratic has negative discriminant; no real root exists."""


class NonPositiveT(InputError):
    pass


class NotConical(VerdictError):
    pass


class MissingRadiant(VerdictError):
    pass


# -- catalog and documents -------------------------------------------------

class UnknownExample(InputError):
    pass


class BadParameters(InputError):
    pass


class DocumentSyntaxError(InputError):
    """Malformed JSON.  line and column are 1-based."""

    def __init__(self, message, line=None, column=None):
        super().__init__(message)
        self.line = line
        self.column = column


class ValidationError(InputError):
    """Well-formed JSON that violates the document schema.

    field names the offending entry, e.g. "brackets[3]".
    """

    def __init__(self, message, field=None):
        super().__init__(message)
        self.field = field
