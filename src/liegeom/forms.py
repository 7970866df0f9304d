"""Alternating forms on a Lie algebra and their Chevalley differential.

Degrees 1 through 3 are supported; that is all the constructions here
ever need.  A form is held as the half a document lists, its nonzero
values at strictly increasing indices.  The differential and the
pairing read that half, w[z, m] as minus w[m, z]; the full alternating
tensor, coefficients, is derived on first read for a caller that asks
for it.  The wedge product uses the shuffle convention without
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
from functools import cached_property

from .errors import DimensionMismatch, ShapeMismatch, UnsupportedDegree
from .tensors import Tensor

MAX_DEGREE = 3


@dataclass(frozen=True)
class KForm:
    """Alternating covariant tensor of degree 1, 2 or 3, held as half: a
    Tensor of degree equal axes with entries at strictly increasing
    indices only, so it is antisymmetric by construction.  coefficients
    is the full tensor, derived from half on first use."""

    degree: int
    half: Tensor

    def __post_init__(self):
        k, t = self.degree, self.half
        if not 1 <= k <= MAX_DEGREE:
            raise UnsupportedDegree(f"degree {k} is outside 1..{MAX_DEGREE}")
        if t.rank != k or len(set(t.shape)) > 1:
            raise ShapeMismatch(
                f"degree {k} form needs a rank {k} tensor with equal axes, "
                f"not shape {t.shape}")
        for idx, _ in t.entries:
            if any(a >= b for a, b in zip(idx, idx[1:])):
                raise ShapeMismatch(
                    f"component index {idx} must be strictly increasing")

    @property
    def dim(self):
        return self.half.shape[0]

    @cached_property
    def coefficients(self):
        """Each entry of half at every permutation of its index, signed."""
        signs = [(perm, _perm_sign(perm))
                 for perm in itertools.permutations(range(self.degree))]
        return Tensor._trusted(self.half.shape, tuple(
            (tuple(idx[p] for p in perm), value if sign > 0 else -value)
            for idx, value in self.half.entries for perm, sign in signs))

    @classmethod
    def zero(cls, dim, degree):
        return cls(degree, Tensor.zero((dim,) * degree))

    @classmethod
    def from_components(cls, dim, degree, components):
        """Build from {strictly increasing index tuple: value}."""
        return cls(degree, Tensor.from_entries((dim,) * degree, components))

    def components(self):
        """The (increasing index tuple, value) pairs of the nonzero entries."""
        return self.half.entries

    def is_zero(self):
        return self.half.is_zero()

    def __add__(self, other):
        if not isinstance(other, KForm) or other.degree != self.degree:
            raise ShapeMismatch("can only add forms of equal degree")
        return KForm(self.degree, self.half + other.half)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return KForm(self.degree, -self.half)

    def scale(self, factor):
        return KForm(self.degree, self.half.scale(factor))


def _perm_sign(perm):
    return (-1) ** sum(a > b for a, b in itertools.combinations(perm, 2))


def dual_form(L, i):
    """The covector taking the i-th coordinate of a vector."""
    if type(i) is not int or not 0 <= i < L.dim:
        raise DimensionMismatch(f"basis index {i!r} for dimension {L.dim}")
    return KForm(1, Tensor._trusted((L.dim,), (((i,), Fraction(1)),)))


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
    return KForm(degree, Tensor._trusted((a.dim,) * degree, components.items()))


def ce_d(L, form):
    """Chevalley differential of a 1-form or 2-form.

    Degree 3 input raises UnsupportedDegree because the result would
    leave the supported range.
    """
    if form.dim != L.dim:
        raise DimensionMismatch("form and algebra dimensions differ")
    # each differential is minus int sums over d: the sums over -d
    if form.degree == 1:
        # (d a)(e_i, e_j) = -(the sum over k of c[i, j, k] a_k), i < j
        (dc, half), (da, a) = L.half._ints, form.half._ints
        a, sums = {k: v for (k,), v in a}, {}
        for (i, j, k), v in half:
            if k in a:
                sums[i, j] = sums.get((i, j), 0) + v * a[k]
        return KForm(2, Tensor._over((L.dim,) * 2, -dc * da, sums))
    if form.degree == 2:
        return KForm(3, Tensor._over((L.dim,) * 3, *_d_sums(L, form)))
    raise UnsupportedDegree(
        f"differential of degree {form.degree} exceeds degree {MAX_DEGREE}")


def _d_sums(L, w):
    """(d, sums): the differential of a 2-form w as {(x, y, z): int} sums
    over d, x < y < z, zero sums kept, d < 0 (see ce_d); ce_d and the
    Lee rows read it."""
    # (d w)(X, Y, Z) = -(w([X, Y], Z) + w([Y, Z], X) + w([Z, X], Y)):
    # w([e_x, e_y], e_z), x < y, the sum over m of c[x, y, m] w[m, z],
    # belongs to sorted(x, y, z), negated when z lies between x and y
    (dc, half), (dw, rows) = L.half._ints, w.half._mirrored
    sums = {}   # w[m, z] by m: half[m, z] if m < z, else -half[z, m]
    for (x, y, m), v in half:
        for z, u in rows.get(m, ()):
            if z > y or z < x:
                key = (x, y, z) if z > y else (z, x, y)
            elif z != x and z != y:
                key, u = (x, z, y), -u
            else:
                continue
            sums[key] = sums.get(key, 0) + v * u
    return -dc * dw, sums
