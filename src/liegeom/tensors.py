"""Dense multi-indexed arrays of exact rationals.

A Tensor is immutable: a shape, one variance character per axis ("u" for
a contravariant axis, "d" for a covariant one) and a flat row-major
tuple of Fractions.  Dimensions stay small (a few up to sixteen), so
nothing here tries to be clever about storage.

The module also carries the exact linear algebra the rest of the package
leans on: determinants, the leading principal minors behind Sylvester's
positive-definiteness test and a row-reduction solver that either
returns the canonical solution (free variables pinned to zero) or an
explicit certificate of infeasibility.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import NotSymmetric, ShapeMismatch

UP = "u"
DOWN = "d"


def _as_q(value):
    return value if isinstance(value, Fraction) else Fraction(value)


@dataclass(frozen=True)
class Tensor:
    """Immutable dense tensor with per-axis variance tags.

    sym and alt list index pairs the entries are promised to be
    symmetric or antisymmetric in; they are validated at construction
    and excluded from equality, so two tensors with identical entries
    compare equal regardless of how they were built.
    """

    shape: tuple
    variance: tuple
    entries: tuple
    sym: tuple = field(default=(), compare=False)
    alt: tuple = field(default=(), compare=False)

    def __post_init__(self):
        shape = tuple(int(n) for n in self.shape)
        variance = tuple(self.variance)
        entries = tuple(_as_q(e) for e in self.entries)
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "variance", variance)
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "sym", tuple(tuple(p) for p in self.sym))
        object.__setattr__(self, "alt", tuple(tuple(p) for p in self.alt))
        if len(shape) != len(variance):
            raise ShapeMismatch(f"shape {shape} vs variance {variance}")
        if any(v not in (UP, DOWN) for v in variance):
            raise ShapeMismatch(f"bad variance {variance}")
        if any(n < 0 for n in shape):
            raise ShapeMismatch(f"negative axis in {shape}")
        if len(entries) != math.prod(shape):
            raise ShapeMismatch(f"{len(entries)} entries for shape {shape}")
        for a, b in self.sym + self.alt:
            if not (0 <= a < len(shape) and 0 <= b < len(shape)) or a == b:
                raise ShapeMismatch(f"bad axis pair ({a}, {b})")
            if shape[a] != shape[b]:
                raise ShapeMismatch(f"axes {a} and {b} differ in length")
        for a, b in self.sym:
            self._check_pair(a, b, Fraction(1), "symmetric")
        for a, b in self.alt:
            self._check_pair(a, b, Fraction(-1), "antisymmetric")

    def _check_pair(self, a, b, sign, word):
        for idx in self.indices():
            swapped = list(idx)
            swapped[a], swapped[b] = swapped[b], swapped[a]
            if self[idx] != sign * self[tuple(swapped)]:
                raise ShapeMismatch(
                    f"entries not {word} in axes ({a}, {b}) at {idx}")

    # -- construction ------------------------------------------------------

    @classmethod
    def zero(cls, shape, variance):
        return cls(tuple(shape), tuple(variance),
                   (Fraction(0),) * math.prod(shape))

    @classmethod
    def from_entries(cls, shape, variance, mapping, **tags):
        """Dense tensor from a sparse {index tuple: value} mapping."""
        t = [Fraction(0)] * math.prod(shape)
        strides = _strides(shape)
        for idx, value in mapping.items():
            t[_offset(idx, shape, strides)] = _as_q(value)
        return cls(tuple(shape), tuple(variance), tuple(t), **tags)

    @classmethod
    def from_nested(cls, nested, variance, **tags):
        shape = []
        probe = nested
        for _ in variance:
            shape.append(len(probe))
            probe = probe[0] if len(probe) else []
        flat = []

        def walk(node, depth):
            if depth == len(shape):
                flat.append(_as_q(node))
                return
            if len(node) != shape[depth]:
                raise ShapeMismatch("ragged nested input")
            for child in node:
                walk(child, depth + 1)

        walk(nested, 0)
        return cls(tuple(shape), tuple(variance), tuple(flat), **tags)

    # -- access ------------------------------------------------------------

    @property
    def rank(self):
        return len(self.shape)

    def indices(self):
        return itertools.product(*(range(n) for n in self.shape))

    def __getitem__(self, idx):
        if isinstance(idx, int):
            idx = (idx,)
        return self.entries[_offset(idx, self.shape, _strides(self.shape))]

    def to_nested(self):
        def build(prefix, depth):
            if depth == self.rank:
                return self[tuple(prefix)]
            return [build(prefix + [i], depth + 1)
                    for i in range(self.shape[depth])]

        return build([], 0)

    def is_zero(self):
        return all(e == 0 for e in self.entries)

    def nonzero_items(self):
        """Yield (index tuple, value) in row-major order."""
        for idx in self.indices():
            v = self[idx]
            if v != 0:
                yield idx, v

    def first_nonzero(self):
        for item in self.nonzero_items():
            return item
        return None

    # -- arithmetic --------------------------------------------------------

    def _like(self, entries):
        return Tensor(self.shape, self.variance, tuple(entries))

    def __add__(self, other):
        self._require_same(other)
        return self._like(a + b for a, b in zip(self.entries, other.entries))

    def __sub__(self, other):
        self._require_same(other)
        return self._like(a - b for a, b in zip(self.entries, other.entries))

    def __neg__(self):
        return self._like(-a for a in self.entries)

    def scale(self, factor):
        q = _as_q(factor)
        return self._like(q * a for a in self.entries)

    def _require_same(self, other):
        if not isinstance(other, Tensor):
            raise ShapeMismatch("tensor arithmetic needs two tensors")
        if self.shape != other.shape or self.variance != other.variance:
            raise ShapeMismatch(
                f"{self.shape}/{self.variance} vs {other.shape}/{other.variance}")


def _strides(shape):
    strides = []
    acc = 1
    for n in reversed(shape):
        strides.append(acc)
        acc *= n
    return tuple(reversed(strides))


def _offset(idx, shape, strides):
    idx = tuple(idx)
    if len(idx) != len(shape):
        raise ShapeMismatch(f"index {idx} for shape {shape}")
    off = 0
    for i, n, s in zip(idx, shape, strides):
        if not 0 <= i < n:
            raise ShapeMismatch(f"index {idx} out of range for shape {shape}")
        off += i * s
    return off


# -- exact matrix routines (rows are lists of Fractions) -------------------

def matrix_rows(t):
    """Rank-2 tensor as a list of row lists."""
    if t.rank != 2:
        raise ShapeMismatch(f"expected a matrix, got rank {t.rank}")
    return [[t[i, j] for j in range(t.shape[1])] for i in range(t.shape[0])]


def det(rows):
    """Exact determinant by fraction-free-enough Gaussian elimination."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ShapeMismatch("determinant of a non-square matrix")
    m = [[_as_q(x) for x in r] for r in rows]
    sign = 1
    result = Fraction(1)
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot_row is None:
            return Fraction(0)
        if pivot_row != col:
            m[col], m[pivot_row] = m[pivot_row], m[col]
            sign = -sign
        pivot = m[col][col]
        result *= pivot
        for r in range(col + 1, n):
            if m[r][col] != 0:
                factor = m[r][col] / pivot
                m[r] = [x - factor * y for x, y in zip(m[r], m[col])]
    return sign * result


def leading_minors(rows):
    """Leading principal minors, sizes 1 through n."""
    return [det([r[: k + 1] for r in rows[: k + 1]]) for k in range(len(rows))]


def symmetric_rows(m):
    """Row lists of a square covariant matrix, checked to be symmetric.

    Raises ShapeMismatch unless m is square, rank 2 and fully covariant,
    and NotSymmetric when the entries are not symmetric.
    """
    if m.rank != 2 or m.shape[0] != m.shape[1]:
        raise ShapeMismatch(f"expected a square matrix, got shape {m.shape}")
    if m.variance != (DOWN, DOWN):
        raise ShapeMismatch("definiteness applies to covariant matrices")
    rows = matrix_rows(m)
    n = len(rows)
    for i in range(n):
        for j in range(i + 1, n):
            if rows[i][j] != rows[j][i]:
                raise NotSymmetric(f"entries ({i}, {j}) and ({j}, {i}) differ")
    return rows


# -- exact linear systems --------------------------------------------------

@dataclass(frozen=True)
class LinearSolution:
    """Canonical solution of A x = b: free variables are zero."""

    values: tuple
    pivot_columns: tuple
    free_columns: tuple


@dataclass(frozen=True)
class Infeasible:
    """Certificate that A x = b has no solution.

    combination is a rational row vector y with y . A = 0 and
    y . b = residual, residual nonzero.
    """

    combination: tuple
    residual: Fraction


def null_vector(rows):
    """A nonzero kernel vector of A, or None when A has full column rank.

    With f the first free column, e_f plus the canonical solution of
    A x = -A e_f lies in the kernel.
    """
    free = solve_linear(rows, [Fraction(0)] * len(rows)).free_columns
    if not free:
        return None
    f = free[0]
    shifted = solve_linear(rows, [-_as_q(row[f]) for row in rows]).values
    return tuple(Fraction(1) if col == f else value
                 for col, value in enumerate(shifted))


def solve_linear(rows, rhs):
    """Solve A x = b exactly.

    Reduction runs left to right with the first nonzero entry as pivot,
    so the returned solution is deterministic: pivot columns are as
    early as possible and every free variable is zero.
    """
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    a = [[_as_q(x) for x in row] for row in rows]
    if any(len(row) != ncols for row in a):
        raise ShapeMismatch("ragged coefficient matrix")
    if len(rhs) != nrows:
        raise ShapeMismatch("right-hand side length mismatch")
    b = [_as_q(x) for x in rhs]
    trace = [[Fraction(1 if i == j else 0) for j in range(nrows)]
             for i in range(nrows)]
    pivots = []
    rank = 0
    for col in range(ncols):
        pivot_row = next((r for r in range(rank, nrows) if a[r][col] != 0), None)
        if pivot_row is None:
            continue
        a[rank], a[pivot_row] = a[pivot_row], a[rank]
        b[rank], b[pivot_row] = b[pivot_row], b[rank]
        trace[rank], trace[pivot_row] = trace[pivot_row], trace[rank]
        pivot = a[rank][col]
        a[rank] = [x / pivot for x in a[rank]]
        b[rank] = b[rank] / pivot
        trace[rank] = [x / pivot for x in trace[rank]]
        for r in range(nrows):
            if r != rank and a[r][col] != 0:
                factor = a[r][col]
                a[r] = [x - factor * y for x, y in zip(a[r], a[rank])]
                b[r] = b[r] - factor * b[rank]
                trace[r] = [x - factor * y
                            for x, y in zip(trace[r], trace[rank])]
        pivots.append(col)
        rank += 1
    for r in range(rank, nrows):
        if b[r] != 0:
            return Infeasible(tuple(trace[r]), b[r])
    values = [Fraction(0)] * ncols
    for k, col in enumerate(pivots):
        values[col] = b[k]
    free = tuple(c for c in range(ncols) if c not in pivots)
    return LinearSolution(tuple(values), tuple(pivots), free)
