"""Dense multi-indexed arrays of exact rationals, and exact linear algebra.

A Tensor is immutable: a shape, one variance character per axis ("u" for
a contravariant axis, "d" for a covariant one) and a flat row-major
tuple of Fractions.  Dimensions stay small (a few up to sixteen), so
nothing here tries to be clever about storage.

det, leading_minors, solve_linear and null_vector read their answers off
one integer-preserving elimination (Bareiss 1968): the determinant, the
leading principal minors behind Sylvester's test up to the first zero
one (past it the pass swaps rows), the canonical solution with free
variables zero or a certificate of infeasibility, and a kernel vector.
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import ShapeMismatch

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


# One pass over A x = b yields a LinearSolution or Infeasible, det (None
# unless A is square), the minors up to the first zero one and a kernel.
_Elimination = namedtuple("_Elimination", "outcome det minors kernel")


def _eliminate(rows, rhs=None):
    """One fraction-free pass over A x = b, b = 0 if rhs is None.

    Each row of [A | b] is cleared of its denominators once, by its own s,
    and with an rhs carries s times its identity row to track it as a
    combination of the rows of A.  Left to right, the pivot is the first
    nonzero entry at or below the current row, and every other row r
    becomes (p a_r - a_rc a_pivot) / (previous pivot), exact on ints.
    Pivot rows so end reduced with the last pivot d on the diagonal, and
    the other rows are the Gauss-Jordan ones times d s.  Until the first
    zero, the leading minor k + 1 is the entry at (k, k) as column k opens.
    """
    nrows, ncols = len(rows), (len(rows[0]) if rows else 0)
    if any(len(row) != ncols for row in rows):
        raise ShapeMismatch("ragged coefficient matrix")
    certify = rhs is not None
    rhs = rhs if certify else [0] * nrows
    if len(rhs) != nrows:
        raise ShapeMismatch("right-hand side length mismatch")
    a, scales = [], []
    for i, row in enumerate(rows):
        q = [_as_q(x) for x in row] + [_as_q(rhs[i])]
        s = math.lcm(*(x.denominator for x in q))
        scales.append(s)
        a.append([x.numerator * (s // x.denominator) for x in q]
                 + [s * (i == j) for j in range(nrows) if certify])
    order = list(range(nrows))
    pivots, minors = [], []
    sign = prev = 1
    for col in range(ncols):
        rank = len(pivots)
        if col < nrows and (not minors or minors[-1]):
            minors.append(Fraction(a[col][col], math.prod(scales[:col + 1])))
        pivot_row = next((r for r in range(rank, nrows) if a[r][col]), None)
        if pivot_row is None:
            continue
        if pivot_row != rank:
            a[rank], a[pivot_row] = a[pivot_row], a[rank]
            order[rank], order[pivot_row] = order[pivot_row], order[rank]
            sign = -sign
        top = a[rank]
        p = top[col]
        for r, row in enumerate(a):
            f = row[col]
            if r != rank and (f or p != prev):
                a[r] = [(p * x - f * y) // prev for x, y in zip(row, top)]
        prev = p
        pivots.append(col)

    def column(j):  # pivot variables read off column j of the reduced rows
        x = [Fraction(0)] * ncols
        for k, col in enumerate(pivots):
            x[col] = Fraction(a[k][j], prev)
        return x

    rank = len(pivots)
    free = tuple(c for c in range(ncols) if c not in pivots)
    bad = next((r for r in range(rank, nrows) if a[r][ncols]), None)
    if bad is None:
        outcome = LinearSolution(tuple(column(ncols)), tuple(pivots), free)
    else:
        row = a[bad]
        own = row[ncols + 1 + order[bad]]
        outcome = Infeasible(tuple(Fraction(y, own) for y in row[ncols + 1:]),
                             Fraction(row[ncols], own))
    kernel = None
    if free:
        kernel = tuple(Fraction(c == free[0]) - x
                       for c, x in enumerate(column(free[0])))
    determinant = None
    if nrows == ncols:
        determinant = Fraction(sign * prev if rank == ncols else 0,
                               math.prod(scales))
    return _Elimination(outcome, determinant, tuple(minors), kernel)


def det(rows):
    """Exact determinant of a square matrix."""
    if any(len(r) != len(rows) for r in rows):
        raise ShapeMismatch("determinant of a non-square matrix")
    return _eliminate(rows).det


def leading_minors(rows):
    """Leading principal minors, from size 1 up to the first zero one.

    A symmetric matrix is positive definite exactly when all the listed
    minors are positive (Sylvester).  Past a zero minor the elimination
    swaps rows, so the later minors cannot be read off it.
    """
    n = len(rows)
    if any(len(r) < n for r in rows):
        raise ShapeMismatch("leading minors of a matrix with too few columns")
    return list(_eliminate([r[:n] for r in rows]).minors)


def null_vector(rows):
    """A nonzero kernel vector of A, or None when A has full column rank.

    With f the first free column, e_f plus the canonical solution of
    A x = -A e_f lies in the kernel.
    """
    return _eliminate(rows).kernel


def solve_linear(rows, rhs):
    """Solve A x = b exactly: the canonical solution or an Infeasible.

    Reduction runs left to right with the first nonzero entry as pivot,
    so the returned solution is deterministic: pivot columns are as
    early as possible and every free variable is zero.
    """
    return _eliminate(rows, rhs).outcome
