"""Finite-dimensional Lie algebras given by structure constants.

[e_i, e_j] is sum_k c[i, j, k] e_k.  An algebra holds the half of c a
document lists, its nonzero entries with i < j, so the bracket is
antisymmetric by construction; the full tensor c is derived on first
read.  The Jacobi identity deliberately is not enforced, so a candidate
bracket can be built first and judged afterwards with jacobi_check.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .errors import DimensionMismatch, ShapeMismatch
from .tensors import Tensor, _as_q, contract


@dataclass(frozen=True)
class LieAlgebra:
    """Structure constants held as half: a rank-3 Tensor with entries
    (i, j, k) at i < j only.  c, the full tensor, is derived from half
    on first use, each entry mirrored to minus itself at (j, i, k).

    >>> L = LieAlgebra.from_brackets(("u", "v"), {(0, 1): {1: 2}})
    >>> L.half.entries
    (((0, 1, 1), Fraction(2, 1)),)
    >>> L.c[1, 0, 1]
    Fraction(-2, 1)
    """

    dim: int
    basis_labels: tuple
    half: Tensor

    def __post_init__(self):
        object.__setattr__(self, "basis_labels", tuple(self.basis_labels))
        n = self.dim
        if len(self.basis_labels) != n:
            raise DimensionMismatch(
                f"{len(self.basis_labels)} labels for dimension {n}")
        if len(set(self.basis_labels)) != n:
            raise DimensionMismatch("basis labels must be distinct")
        if self.half.shape != (n, n, n):
            raise ShapeMismatch(f"structure constants need shape {(n, n, n)}")
        for idx, _ in self.half.entries:
            if idx[0] >= idx[1]:
                raise ShapeMismatch(f"bracket index {idx} must have i < j")

    @cached_property
    def c(self):
        """The full tensor: half, and minus each entry at (j, i, k)."""
        return Tensor._trusted(self.half.shape, self.half.entries + tuple(
            ((j, i, k), -value) for (i, j, k), value in self.half.entries))

    @classmethod
    def from_brackets(cls, labels, brackets):
        """Build from {(i, j): {k: coefficient}} with i < j pairs."""
        labels = tuple(labels)
        n = len(labels)
        entries = {}
        for (i, j), component in brackets.items():
            if not 0 <= i < j < n:
                raise DimensionMismatch(
                    f"bracket pair ({i}, {j}) must satisfy 0 <= i < j < {n}")
            for k, value in component.items():
                entries[(i, j, k)] = value
        return cls(n, labels, Tensor.from_entries((n, n, n), entries))

    @classmethod
    def abelian(cls, labels):
        n = len(tuple(labels))
        return cls(n, tuple(labels), Tensor.zero((n, n, n)))

    def label(self, i):
        return self.basis_labels[i]

    def basis_vector(self, i):
        if not 0 <= i < self.dim:
            raise DimensionMismatch(f"basis index {i} for dimension {self.dim}")
        return tuple(Fraction(1 if j == i else 0) for j in range(self.dim))


def as_vector(L, x):
    coords = tuple(_as_q(v) for v in x)
    if len(coords) != L.dim:
        raise DimensionMismatch(
            f"vector of length {len(coords)} on a dimension {L.dim} algebra")
    return coords


def bracket(L, x, y):
    """[x, y] in coordinates, bilinear and antisymmetric."""
    x = as_vector(L, x)
    y = as_vector(L, y)
    n = L.dim
    out = [Fraction(0)] * n
    for (i, j, k), value in L.c.entries:
        if x[i] and y[j]:
            out[k] += value * x[i] * y[j]
    return tuple(out)


@dataclass(frozen=True)
class Witness:
    """An exact counterexample: claim name, index tuple and residual.

    detail carries auxiliary rational data (a fitted constant, an
    infeasibility combination, a kernel vector) when the residual alone
    does not reproduce the computation.
    """

    claim: str
    indices: tuple
    residual: object
    detail: tuple = ()


def jacobi_residual(L, i, j, k):
    """[[e_i, e_j], e_k] + [[e_j, e_k], e_i] + [[e_k, e_i], e_j], read off
    c's lookup: at each l, the sum over m of c[x, y, m] c[m, z, l] over
    the cyclic orders (x, y, z) of (i, j, k)."""
    c, ms = L.c._lookup, range(L.dim)
    for m in (i, j, k):
        if m not in ms:
            raise DimensionMismatch(f"basis index {m} for dimension {L.dim}")
    inner = [(z, [(m, v) for m in ms if (v := c.get((x, y, m)))])
             for x, y, z in ((i, j, k), (j, k, i), (k, i, j))]
    return tuple(sum((v * w for z, pairs in inner for m, v in pairs
                      if (w := c.get((m, z, l)))), Fraction(0)) for l in ms)


def cyclic_sum(L, t):
    """The nonzero values of t([e_i, e_j], e_k, ...) + t([e_j, e_k], e_i, ...)
    + t([e_k, e_i], e_j, ...) as (d, {(i, j, k, ...): d value}), i < j < k.

    t([e_x, e_y], e_z, ...) is the contraction of c's last axis with t's
    first.  As c is antisymmetric in x, y, its half (x < y) suffices: a
    term with z between x and y is minus the cyclic term at (z, x, y),
    and one with z equal to x or y belongs to no triple.
    """
    d, sums = contract(L.half, 2, t, 0)
    out = {}
    for (x, y, z, *rest), v in sums.items():
        if z != x and z != y:
            key = tuple(sorted((x, y, z)) + rest)
            out[key] = out.get(key, 0) + (v if z < x or z > y else -v)
    return d, {key: v for key, v in out.items() if v}


def jacobi_check(L):
    """None when the Jacobi identity holds, else a "jacobi" Witness.

    Its indices are the lexicographically first triple i < j < k whose
    cyclic bracket sum fails to vanish, so it is deterministic.
    """
    _, failing = cyclic_sum(L, L.c)
    if not failing:
        return None
    i, j, k, _ = min(failing)
    return Witness("jacobi", (i, j, k), jacobi_residual(L, i, j, k))
