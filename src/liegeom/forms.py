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

from .algebra import as_vector
from .errors import DimensionMismatch, ShapeMismatch, UnsupportedDegree
from .tensors import DOWN, Tensor

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
        if t.rank != k or t.variance != (DOWN,) * k:
            raise ShapeMismatch(
                f"degree {k} form needs a rank {k} covariant tensor")
        if len(set(t.shape)) > 1:
            raise ShapeMismatch(f"uneven axis lengths {t.shape}")
        alt = tuple((a, a + 1) for a in range(k - 1))
        Tensor(t.shape, t.variance, t.entries, alt=alt)

    @property
    def dim(self):
        return self.coefficients.shape[0]

    @classmethod
    def zero(cls, dim, degree):
        return cls(degree, Tensor.zero((dim,) * degree, (DOWN,) * degree))

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
        t = Tensor.from_entries((dim,) * degree, (DOWN,) * degree, entries)
        return cls(degree, t)

    def __call__(self, *vectors):
        if len(vectors) != self.degree:
            raise DimensionMismatch(
                f"degree {self.degree} form applied to {len(vectors)} vectors")
        coords = [tuple(Fraction(v) for v in vec) for vec in vectors]
        if any(len(c) != self.dim for c in coords):
            raise DimensionMismatch("vector length does not match the form")
        total = Fraction(0)
        for idx, value in self.coefficients.nonzero_items():
            term = value
            for slot, i in enumerate(idx):
                term *= coords[slot][i]
            total += term
        return total

    def components(self):
        """Yield (increasing index tuple, value) for the nonzero entries."""
        for idx, value in self.coefficients.nonzero_items():
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
    n = a.dim
    components = {}
    for idx in itertools.combinations(range(n), degree):
        total = Fraction(0)
        for picked in itertools.combinations(range(degree), a.degree):
            rest = tuple(p for p in range(degree) if p not in picked)
            sign = _perm_sign(picked + rest)
            left = a.coefficients[tuple(idx[p] for p in picked)]
            right = b.coefficients[tuple(idx[p] for p in rest)]
            total += sign * left * right
        if total != 0:
            components[idx] = total
    return KForm.from_components(n, degree, components)


def ce_d(L, form):
    """Chevalley differential of a 1-form or 2-form.

    Degree 3 input raises UnsupportedDegree because the result would
    leave the supported range.
    """
    if form.dim != L.dim:
        raise DimensionMismatch("form and algebra dimensions differ")
    n = L.dim
    if form.degree == 1:
        components = {}
        for i in range(n):
            for j in range(i + 1, n):
                value = -sum((L.c[i, j, k] * form.coefficients[(k,)]
                              for k in range(n)), Fraction(0))
                if value != 0:
                    components[(i, j)] = value
        return KForm.from_components(n, 2, components)
    if form.degree == 2:
        w = form.coefficients
        components = {}
        for i, j, k in itertools.combinations(range(n), 3):
            value = Fraction(0)
            for m in range(n):
                value += (-L.c[i, j, m] * w[m, k]
                          + L.c[i, k, m] * w[m, j]
                          - L.c[j, k, m] * w[m, i])
            if value != 0:
                components[(i, j, k)] = value
        return KForm.from_components(n, 3, components)
    raise UnsupportedDegree(
        f"differential of degree {form.degree} exceeds degree {MAX_DEGREE}")
