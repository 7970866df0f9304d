"""Exact rational scalars.

Every coefficient in this package is a fractions.Fraction, always stored
reduced with a positive denominator (Fraction guarantees both).  The
helpers here add the error contract and the canonical "p/q" string form
used by documents and reports.
"""

from __future__ import annotations

import math
import re
import sys
from fractions import Fraction

from .errors import InputError, ZeroDenominator

Q = Fraction

_RATIONAL_RE = re.compile(r"([+-]?[0-9]+)(?:/([+-]?[0-9]+))?")


def make_rational(numerator, denominator=1):
    """Build a reduced rational, rejecting a zero denominator.

    >>> make_rational(2, 4)
    Fraction(1, 2)
    >>> make_rational(3, -6)
    Fraction(-1, 2)
    """
    if denominator == 0:
        raise ZeroDenominator(f"zero denominator in {numerator}/{denominator}")
    return Fraction(numerator, denominator)


def parse_rational(text):
    """Parse "p" or "p/q" into a Fraction.  Whitespace is not allowed."""
    match = isinstance(text, str) and _RATIONAL_RE.fullmatch(text)
    if not match:
        raise ValueError(f"not a rational literal: {text!r}")
    num, den = match.groups()
    if den is None:
        return Fraction(int(num))
    return make_rational(int(num), int(den))


def format_rational(value):
    """Canonical string form: "p" for integers, "p/q" otherwise; an int
    past the interpreter's digit limit for printing raises InputError."""
    q = Fraction(value)
    try:
        if q.denominator == 1:
            return str(q.numerator)
        return f"{q.numerator}/{q.denominator}"
    except ValueError:
        n = max(abs(q.numerator), q.denominator)
        d = int(math.log10(n)) + 1
        d += (n >= 10 ** d) - (n < 10 ** (d - 1))   # the float may be off
        raise InputError(
            f"a computed value has {d} digits, past the interpreter's limit "
            f"of {sys.get_int_max_str_digits()} on printing an int") from None
