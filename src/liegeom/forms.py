"""Alternating forms on a Lie algebra and their Chevalley differential.

Degrees 1 through 3 are supported; that is all the constructions here
ever need.  The wedge product uses the shuffle convention without
factorial normalisation:

    (a ^ b)(X, Y) = a(X) b(Y) - a(Y) b(X)
    (a ^ w)(X, Y, Z) = a(X) w(Y, Z) - a(Y) w(X, Z) + a(Z) w(X, Y)

and the differential of a left-invariant form only sees the bracket:

    (d a)(X, Y) = -a([X, Y])
    (d w)(X, Y, Z) = -w([X, Y], Z) + w([X, Z], Y) - w([Y, Z], X)
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .algebra import cyclic_sum
from .errors import DimensionMismatch, ShapeMismatch, UnsupportedDegree
from .tensors import Tensor, contract

MAX_DEGREE = 3


@dataclass(frozen=True)
class KForm:
    """Fully alternating covariant tensor of degree 1, 2 or 3."""

    degree: int
    coefficients: Tensor

    def __post_init__(self):
        k = self.degree
        if not 1 <= k <= MAX_DEGREE:
            raise UnsupportedDegree(f"degree {k} is outside 1..{MAX_DEGREE}")
        t = self.coefficients
        if t.rank != k:
            raise ShapeMismatch(f"degree {k} form needs a rank {k} tensor")
        if len(set(t.shape)) > 1:
            raise ShapeMismatch(f"uneven axis lengths {t.shape}")
        for a in range(k - 1):
            t.require_pair(a, a + 1, -1)

    @property
    def dim(self):
        return self.coefficients.shape[0]

    @classmethod
    def zero(cls, dim, degree):
        return cls(degree, Tensor.zero((dim,) * degree))

    @classmethod
    def from_components(cls, dim, degree, components):
        """Build from {strictly increasing index tuple: value}.

        All other entries follow by antisymmetry.
        """
        entries = {}
        for idx, value in components.items():
            idx = tuple(idx)
            if len(idx) != degree or any(
                    not a < b for a, b in zip(idx, idx[1:])):
                raise ShapeMismatch(
                    f"component index {idx} must be strictly increasing")
            for perm in itertools.permutations(range(degree)):
                entries[tuple(idx[p] for p in perm)] = (
                    _perm_sign(perm) * Fraction(value))
        t = Tensor.from_entries((dim,) * degree, entries)
        return cls(degree, t)

    def components(self):
        """Yield (increasing index tuple, value) for the nonzero entries."""
        for idx, value in self.coefficients.entries:
            if all(a < b for a, b in zip(idx, idx[1:])):
                yield idx, value

    def is_zero(self):
        return self.coefficients.is_zero()

    def __add__(self, other):
        if not isinstance(other, KForm) or other.degree != self.degree:
            raise ShapeMismatch("can only add forms of equal degree")
        return KForm(self.degree, self.coefficients + other.coefficients)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return KForm(self.degree, -self.coefficients)

    def scale(self, factor):
        return KForm(self.degree, self.coefficients.scale(factor))


def _perm_sign(perm):
    sign = 1
    for a in range(len(perm)):
        for b in range(a + 1, len(perm)):
            if perm[a] > perm[b]:
                sign = -sign
    return sign


def dual_form(L, i):
    """The covector taking the i-th coordinate of a vector."""
    if not 0 <= i < L.dim:
        raise DimensionMismatch(f"basis index {i} for dimension {L.dim}")
    return KForm.from_components(L.dim, 1, {(i,): Fraction(1)})


def wedge(a, b):
    """Shuffle-sum wedge product; the total degree may not exceed 3."""
    if not isinstance(a, KForm) or not isinstance(b, KForm):
        raise ShapeMismatch("wedge needs two forms")
    if a.dim != b.dim:
        raise DimensionMismatch("wedge of forms over different dimensions")
    degree = a.degree + b.degree
    if degree > MAX_DEGREE:
        raise UnsupportedDegree(
            f"wedge of degrees {a.degree} and {b.degree} exceeds {MAX_DEGREE}")
    components = {}
    for left, x in a.components():
        for right, y in b.components():
            if set(left) & set(right):
                continue
            idx = tuple(sorted(left + right))
            value = _perm_sign(left + right) * x * y
            components[idx] = components.get(idx, 0) + value
    return KForm.from_components(a.dim, degree, components)


def ce_d(L, form):
    """Chevalley differential of a 1-form or 2-form.

    Degree 3 input raises UnsupportedDegree because the result would
    leave the supported range.
    """
    if form.dim != L.dim:
        raise DimensionMismatch("form and algebra dimensions differ")
    if form.degree == 1:
        d, sums = contract(L.c.entries, 2, form.coefficients.entries, 0)
        return KForm.from_components(L.dim, 2, {
            (i, j): Fraction(-v, d) for (i, j), v in sums.items() if i < j})
    if form.degree == 2:
        # (d w)(X, Y, Z) = -(w([X, Y], Z) + w([Y, Z], X) + w([Z, X], Y))
        cyclic = cyclic_sum(L, form.coefficients)
        return KForm.from_components(
            L.dim, 3, {idx: -value for idx, value in cyclic.items()})
    raise UnsupportedDegree(
        f"differential of degree {form.degree} exceeds degree {MAX_DEGREE}")
