"""Finite-dimensional Lie algebras given by structure constants.

[e_i, e_j] is sum_k c[i, j, k] e_k.  An algebra holds the half of c a
document lists, its nonzero entries with i < j, so the bracket is
antisymmetric by construction.  The kernels here and the rechecks in
check read the half, c[y, x, .] as minus c[x, y, .]; the full tensor c
is derived on first read, for a caller that asks for it.  The Jacobi
identity deliberately is not enforced, so a candidate bracket can be
built first and judged afterwards with jacobi_check.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .errors import DimensionMismatch, ShapeMismatch
from .tensors import Tensor, _as_q


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


def as_vector(L, x):
    coords = tuple(_as_q(v) for v in x)
    if len(coords) != L.dim:
        raise DimensionMismatch(
            f"vector of length {len(coords)} on a dimension {L.dim} algebra")
    return coords


def bracket(L, x, y):
    """[x, y] in coordinates, bilinear and antisymmetric: the sum over
    i < j of c[i, j, k] (x_i y_j - x_j y_i), read off half."""
    x, y = as_vector(L, x), as_vector(L, y)
    out = [Fraction(0)] * L.dim
    for (i, j, k), v in L.half.entries:
        out[k] += v * (x[i] * y[j] - x[j] * y[i])
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


def _sliced(claim, head, d, b, n):
    """The witness in the nonzero block b at head: the head, then the
    leading indices of b's first entry, with the last-axis slice there
    as residual."""
    lead = min(b)[:-1]
    return Witness(claim, head + lead, tuple(
        Fraction(b.get(lead + (m,), 0), d) for m in range(n)))


def _first_nonzero(claim, n, rows, block):
    """The witness in the first nonzero row block i < rows, None when all
    vanish."""
    for i in range(rows):
        d, b = block(i)
        if b:
            return _sliced(claim, (i,), d, b, n)
    return None


def _jacobi_blocks(L):
    """block(i): the cyclic bracket sums at the triples i < j < k as (d,
    {(j, k, l): the e_l part times d}), nonzero entries only.  The term
    [[e_x, e_y], e_z], x < y, the sum over m of c[x, y, m] c[m, z, l] on
    the int numerators of c's half, belongs to sorted(x, y, z), negated
    when z lies between x and y: to block x when z > x, else to block z.
    c[x, y, m] is read off half's _rows, c[m, z, l] off its _mirrored."""
    (d, pairs), rows = L.half._rows, L.half._mirrored[1]

    def block(i):
        sums = {}
        for y, row in pairs.get(i, {}).items():     # x = i < z, z not y
            for m, v in row:
                for z, cs in rows.get(m, {}).items():
                    if z > i and z != y:
                        acc = sums.setdefault((y, z) if y < z else (z, y), {})
                        x = v if z > y else -v
                        for l, w in cs:
                            acc[l] = acc.get(l, 0) + x * w
        for x in range(i + 1, L.dim):            # z = i < x < y
            for y, row in pairs.get(x, {}).items():
                acc = sums.setdefault((x, y), {})
                for m, v in row:
                    for l, w in rows.get(m, {}).get(i, ()):
                        acc[l] = acc.get(l, 0) + v * w
        return d * d, {(j, k, l): v for (j, k), acc in sums.items()
                       for l, v in acc.items() if v}

    return block


def jacobi_check(L):
    """None when the Jacobi identity holds, else a "jacobi" Witness at
    the lexicographically first triple i < j < k whose cyclic bracket sum
    fails to vanish, with that sum as residual.  The triples are summed
    a block of leading index i < n - 2 at a time, up to the first failing
    one."""
    return _first_nonzero("jacobi", L.dim, L.dim - 2, _jacobi_blocks(L))
