"""Finite-dimensional Lie algebras given by structure constants.

The bracket data lives in a rank-3 tensor c with [e_i, e_j] equal to
sum_k c[i, j, k] e_k.  Antisymmetry in the first two axes is enforced at
construction; the Jacobi identity deliberately is not, so a candidate
bracket can be built first and judged afterwards with jacobi_check.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .errors import DimensionMismatch, ShapeMismatch
from .tensors import DOWN, UP, Tensor


@dataclass(frozen=True)
class LieAlgebra:
    dim: int
    basis_labels: tuple
    c: Tensor

    def __post_init__(self):
        object.__setattr__(self, "basis_labels", tuple(self.basis_labels))
        n = self.dim
        if len(self.basis_labels) != n:
            raise DimensionMismatch(
                f"{len(self.basis_labels)} labels for dimension {n}")
        if len(set(self.basis_labels)) != n:
            raise DimensionMismatch("basis labels must be distinct")
        if self.c.shape != (n, n, n) or self.c.variance != (DOWN, DOWN, UP):
            raise ShapeMismatch(
                f"structure constants need shape {(n, n, n)} with variance ddu")
        # antisymmetry of the bracket is structural, not a verdict
        Tensor(self.c.shape, self.c.variance, self.c.entries, alt=((0, 1),))

    @classmethod
    def from_brackets(cls, labels, brackets):
        """Build from {(i, j): {k: coefficient}} with i < j pairs.

        The (j, i) values are filled in by antisymmetry.
        """
        labels = tuple(labels)
        n = len(labels)
        entries = {}
        for (i, j), component in brackets.items():
            if not 0 <= i < j < n:
                raise DimensionMismatch(
                    f"bracket pair ({i}, {j}) must satisfy 0 <= i < j < {n}")
            for k, value in component.items():
                entries[(i, j, k)] = Fraction(value)
                entries[(j, i, k)] = -Fraction(value)
        c = Tensor.from_entries((n, n, n), (DOWN, DOWN, UP), entries)
        return cls(n, labels, c)

    @classmethod
    def abelian(cls, labels):
        n = len(tuple(labels))
        return cls(n, tuple(labels), Tensor.zero((n, n, n), (DOWN, DOWN, UP)))

    def label(self, i):
        return self.basis_labels[i]

    def basis_vector(self, i):
        if not 0 <= i < self.dim:
            raise DimensionMismatch(f"basis index {i} for dimension {self.dim}")
        return tuple(Fraction(1 if j == i else 0) for j in range(self.dim))


def as_vector(L, x):
    coords = tuple(Fraction(v) for v in x)
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
    for (i, j, k), value in L.c.nonzero_items():
        if x[i] and y[j]:
            out[k] += value * x[i] * y[j]
    return tuple(out)


@dataclass(frozen=True)
class JacobiViolation:
    """First basis triple whose cyclic bracket sum fails to vanish."""

    i: int
    j: int
    k: int
    residual: tuple


def jacobi_residual(L, i, j, k):
    """[[e_i, e_j], e_k] + [[e_j, e_k], e_i] + [[e_k, e_i], e_j]."""
    x, y, z = (L.basis_vector(m) for m in (i, j, k))
    terms = (bracket(L, bracket(L, x, y), z),
             bracket(L, bracket(L, y, z), x),
             bracket(L, bracket(L, z, x), y))
    return tuple(a + b + c for a, b, c in zip(*terms))


def jacobi_check(L):
    """None when the Jacobi identity holds, else the first violation.

    Triples are scanned in lexicographic order over i < j < k, so the
    witness is deterministic.
    """
    for i, j, k in itertools.combinations(range(L.dim), 3):
        residual = jacobi_residual(L, i, j, k)
        if any(residual):
            return JacobiViolation(i, j, k, residual)
    return None
