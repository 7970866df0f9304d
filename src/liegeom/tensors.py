"""Sparse multi-indexed arrays of exact rationals, and exact linear algebra.

A Tensor is immutable: a shape and its nonzero entries, stored once as
the row-major tuple of (index tuple, Fraction) pairs that a document
lists.  Which axes are vectors and which covectors is fixed by the
holder a tensor sits in (LieAlgebra, Connection, Metric,
ComplexStructure, KForm), and stated where that holder is defined.
Public constructors validate every index and refuse a float; a result
the library computes, its indices in range and distinct by construction,
takes one private path from int sums, with no scan.
Structure constants, connections and forms are almost all zero, so
reading an entry is a dictionary lookup, built on first use.  A Tensor
caches its int numerators over one denominator and two views of them,
built once and never written: _rows groups them by leading index,
_mirrored does so for the antisymmetric tensor a stored half stands
for.  The Jacobi sums, the differential of a 2-form, the pairing, the
Lee closedness rows and the block kernels of geometry (T, R, nabla g,
N) sum off these views; the differential of a 1-form and J squared sum
off the numerators themselves.  Each returns int sums, divided once
per entry of a result.

A matrix is a rank-2 Tensor too.  det, solve_linear and null_vector
read their answers off one integer-preserving, left-looking pass
(Bareiss 1968) over the live int rows, those with an entry in A or b,
to which geometry hands the Lee rows straight from int numerators; a
Tensor's row is cleared of its own denominators when the pass first
reads it.  A row read before the last check is divided by its content,
the gcd of its entries, and reduced only when the pivot search reads
it, never when a search dearer than a back-substitution tests it by its
residual.  det comes off the pivots and each row's content and
denominator; the canonical solution with free variables zero and a
kernel vector off the pivot rows by integer back-substitution.  Rows
off the pivots are checked against that solution; when A x = b has
none, the certificate is solved on ints from the pivot block of the
rows as first read.

The leading minors behind Sylvester's test come off two passes that
share no code: the positivity verdicts read them off _symmetric_minors,
a fraction-free LDL^T on the lower triangle alone, and their rechecks
off leading_minors, a plain Bareiss pass with no row swaps.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import itemgetter, mul

from .errors import InexactValue, ShapeMismatch

_ZERO = Fraction(0)


def _as_q(value):
    """value as a Fraction; a float, or what Fraction cannot read, raises."""
    try:
        if not isinstance(value, float):
            return value if isinstance(value, Fraction) else Fraction(value)
    except (TypeError, ValueError, ArithmeticError):
        pass
    raise InexactValue(f"{value!r} is no exact rational")


@dataclass(frozen=True)
class Tensor:
    """Immutable sparse tensor: a shape and its nonzero entries.

    entries is the sorted tuple of (index tuple, Fraction) pairs with a
    nonzero value; the constructor takes the pairs in any order, rejects
    an index twice or out of range, and drops zero values, so equal
    tensors have equal entries.
    """

    shape: tuple
    entries: tuple

    def __post_init__(self):
        shape = tuple(self.shape)
        object.__setattr__(self, "shape", shape)
        for n in shape:     # refused, not truncated, as an index is
            if type(n) is not int:
                raise ShapeMismatch(f"axis {n!r} in {shape} is not an int")
        if any(n < 0 for n in shape):
            raise ShapeMismatch(f"negative axis in {shape}")
        pairs = tuple(self.entries)
        values = {tuple(idx): value for idx, value in pairs}
        # arity, int type, range and repeats column by column; the scan
        # per pair, values included, runs only to raise the first fault
        if len(values) < len(pairs) or not (
                set(map(len, values)) <= {len(shape)} and all(
                    set(map(type, col)) == {int} and 0 <= min(col)
                    and max(col) < n for col, n in zip(zip(*values), shape))):
            seen = set()
            for idx, value in pairs:
                idx = tuple(idx)
                self._check_index(idx)
                if idx in seen:
                    raise ShapeMismatch(f"index {idx} given twice")
                seen.add(idx)
                _as_q(value)
        object.__setattr__(self, "entries", tuple(sorted(filter(
            itemgetter(1), zip(values, map(_as_q, values.values()))))))

    @classmethod
    def _trusted(cls, shape, pairs):
        """The Tensor of (index, Fraction) pairs whose indices are in range
        and distinct by construction: zeros dropped, sorted, no scan."""
        t = object.__new__(cls)
        t.__dict__.update(shape=shape, entries=tuple(sorted(filter(
            itemgetter(1), pairs))))
        return t

    @classmethod
    def _over(cls, shape, d, sums):
        """_trusted on {index: int} sums over d, one division an entry."""
        return cls._trusted(shape, [(idx, Fraction(v, d))
                                    for idx, v in sums.items() if v])

    def _check_index(self, idx):
        if len(idx) != len(self.shape):
            raise ShapeMismatch(f"index {idx} for shape {self.shape}")
        # exact types: a bool or a float equal to an int is no index
        if not all(type(i) is int and 0 <= i < n
                   for i, n in zip(idx, self.shape)):
            raise ShapeMismatch(
                f"index {idx} is not all ints" if set(map(type, idx)) - {int}
                else f"index {idx} out of range for shape {self.shape}")

    # -- construction ------------------------------------------------------

    @classmethod
    def zero(cls, shape):
        return cls(tuple(shape), ())

    @classmethod
    def from_entries(cls, shape, mapping):
        """Tensor from a {index tuple: value} mapping; zeros may be listed."""
        return cls(tuple(shape), tuple(mapping.items()))

    @classmethod
    def from_rows(cls, rows):
        """Rank-2 Tensor from a sequence of equal-length rows."""
        width = len(rows[0]) if rows else 0
        if any(len(row) != width for row in rows):
            raise ShapeMismatch("ragged nested input")
        return cls((len(rows), width), tuple(
            ((i, j), value) for i, row in enumerate(rows)
            for j, value in enumerate(row)))

    # -- access ------------------------------------------------------------

    @property
    def rank(self):
        return len(self.shape)

    @cached_property
    def _lookup(self):
        return dict(self.entries)

    def __getitem__(self, idx):
        idx = (idx,) if isinstance(idx, int) else tuple(idx)
        self._check_index(idx)
        return self._lookup.get(idx, _ZERO)

    @cached_property
    def _ints(self):
        return _numerators(self.entries)

    @cached_property
    def _rows(self):
        """_ints grouped by leading index: (d, {i: [(j, int)]}) for a
        matrix, (d, {i: {j: [(k, int)]}}) for a rank-3 tensor."""
        d, ints = self._ints
        rows = {}
        if self.rank == 2:
            for (i, j), v in ints:
                rows.setdefault(i, []).append((j, v))
        else:
            for (i, j, k), v in ints:
                rows.setdefault(i, {}).setdefault(j, []).append((k, v))
        return d, rows

    @cached_property
    def _mirrored(self):
        """_rows of the antisymmetric tensor this i < j half stands for:
        each entry filed again, negated, under (j, i, ...)."""
        d, ints = self._ints
        rows = {}
        if self.rank == 2:
            for (i, j), v in ints:
                rows.setdefault(i, []).append((j, v))
                rows.setdefault(j, []).append((i, -v))
        else:
            for (i, j, k), v in ints:
                rows.setdefault(i, {}).setdefault(j, []).append((k, v))
                rows.setdefault(j, {}).setdefault(i, []).append((k, -v))
        return d, rows

    def is_zero(self):
        return not self.entries

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        self._require_same(other)
        total = dict(self.entries)
        for idx, value in other.entries:    # spares a 0 + Fraction sum
            total[idx] = total[idx] + value if idx in total else value
        return Tensor._trusted(self.shape, total.items())

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return Tensor._trusted(self.shape, ((i, -v) for i, v in self.entries))

    def scale(self, factor):
        q = _as_q(factor)
        return Tensor._trusted(self.shape,
                               ((i, q * v) for i, v in self.entries))

    def _require_same(self, other):
        if not isinstance(other, Tensor):
            raise ShapeMismatch("tensor arithmetic needs two tensors")
        if self.shape != other.shape:
            raise ShapeMismatch(f"shape {self.shape} vs {other.shape}")


def _numerators(pairs):
    """(D, [(index, int)]): the values over D, their denominators' lcm."""
    d = math.lcm(*(value.denominator for _, value in pairs))
    return d, [(idx, value.numerator * (d // value.denominator))
               for idx, value in pairs]


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


# One pass over A x = b yields a LinearSolution or Infeasible; one that
# does not solve, det (if A is square) and a kernel vector.
_Elimination = namedtuple("_Elimination", "outcome det kernel")


def _eliminate(matrix, rhs=None):
    """_bareiss on a rank-2 Tensor A and b = rhs (b = 0 if None), row i
    of [A | b] cleared of its own denominators when the pass reads it."""
    if not isinstance(matrix, Tensor) or matrix.rank != 2:
        raise ShapeMismatch("expected a matrix: a rank-2 Tensor")
    nrows, ncols = matrix.shape
    b = [_ZERO] * nrows if rhs is None else [
        x if type(x) is Fraction else _as_q(x) for x in rhs]
    if len(b) != nrows:
        raise ShapeMismatch("right-hand side length mismatch")
    rows = [[(ncols, x)] if x else [] for x in b]
    for (i, j), value in matrix.entries:
        rows[i].append((j, value))
    return _bareiss(lambda i: _cleared(rows[i]), [
        i for i, row in enumerate(rows) if row], nrows, ncols, rhs is not None)


def _cleared(row):
    """({j: int}, d): a row's (j, Fraction) pairs times d, the lcm of
    their denominators."""
    d = math.lcm(*[v.denominator for _, v in row])
    return {j: v.numerator * (d // v.denominator) for j, v in row}, d


def _bareiss(load, live, nrows, ncols, solve=True):
    """The one fraction-free, left-looking pass over A x = b: with solve
    only its outcome, without it b = 0 and det and a kernel vector.

    live lists, increasing, the rows of [A | b] with an entry; the pass
    never visits the others.  load(r) is live row r as (ints, d): its
    nonzero entries times d > 0, b_r at column ncols.  First read, a row
    is divided by its content g: a primitive row P_r, whatever d, with
    row r = (g / d) P_r.  Left to right, the pivot is the first row
    at or below the current position with the column set, recorded as a
    step (column, pivot p, pivot row).  An empty row keeps its position
    until a pivot takes it: the pivot swaps with the row at the current
    position, so with an empty row there, which the search passed by,
    the pivot rotates to the front of the live rows left, their order
    kept.  A row takes the steps it missed only when the pivot search
    reads it, from its own level e, the pivot of its last step: one at a
    column it holds makes it (p a_r - a_rc top) / e, exact, the others
    cost nothing.  Pivot rows are scaled to the last pivot, so pivots
    and swaps are the right-looking pass's; det undoes that and takes
    each row's g / d back.  With d the last pivot, the pivot rows back-
    substitute X_k = (d b_k - sum over m > k of a_{k, p_m} X_m) / a_{k,
    p_k} exactly, and x = X / d.  So does back(j) for column j of A mid-
    pass: the steps so far are the whole pass over the pivot rows alone,
    d their block's determinant.  Row r holds j once reduced iff its
    residual d a_rj - A_r X is nonzero, on r as it stands, as pivot rows
    give 0; a search that has paid more combines than back walks rows
    tests the rest so, reducing only the pivot.  A row off the pivots is
    consistent iff it holds no b, tested as it stands or, not yet read,
    as loaded.  For the first that is not, z solves
    sum_k z_k P_{tops[k]} = -P_bad on the pivot columns, an invertible
    block: P_bad + sum_k z_k P_{tops[k]} clears A, and scaled to the rows
    of [A | b] with y_bad = 1 it is the only such certificate.
    """
    rows, firsts, scales = {}, {}, {}   # as reduced so far, P_r, (g, d)
    levels, taken = {}, {}
    order, place = list(live), list(live)   # live rows, their positions
    nlive = len(order)
    steps, pivots = [], []
    sign = prev = 1
    combines = 0    # _combine calls so far

    def read(r):    # row r as it stands; P_r and its scale when first read
        if r not in rows:
            ints, d = load(r)
            g = math.gcd(*ints.values())
            rows[r] = firsts[r] = {j: v // g for j, v in ints.items()
                                   } if g > 1 else ints
            scales[r], levels[r], taken[r] = (g, d), 1, 0
        return rows[r]

    def reduced(r, scaled=False):   # row r through its missed steps,
        row, e = read(r), levels[r]     # scaled to the level prev
        if not row:
            return row
        nonlocal combines
        for col, p, top in steps[taken[r]:]:
            f = row.get(col)
            if f:
                row, e = _combine(p, row, f, top, e), p
                combines += 1
        if scaled and e != prev:
            row, e = {j: v * prev // e for j, v in row.items()}, prev
        rows[r], levels[r], taken[r] = row, e, len(steps)
        return row

    def back(j):    # X = d x on the pivots, A x = column j of [A | b]
        dx = {}
        for col, p, top in reversed(steps):
            later = sum(v * dx[c] for c, v in top.items() if c in dx)
            dx[col] = (prev * top.get(j, 0) - later) // p
        return dx

    def holding(j, X, at, get=read):    # first k >= at whose row holds j
        x = [X.get(c, 0) for c in range(ncols + 1)]     # once reduced:
        x[j] = -prev    # the residual, negated, one dot product a row
        return next((k for k in range(at, nlive) if (row := get(order[k]))
                     and sum(map(mul, row.values(), map(x.__getitem__, row)))
                     ), nlive)

    for col in range(ncols):
        rank = len(pivots)
        budget = combines + rank    # a back-substitution walks rank rows
        at = next((k for k in range(rank, nlive) if (
            (row := rows.get(order[k])) is None or row) and (
                col in reduced(order[k]) or combines > budget)), nlive)
        if at < nlive and col not in rows[order[at]]:   # over budget
            at = holding(col, back(col), at + 1)
        if at == nlive:
            continue
        if place[rank] != rank:     # an empty row at position rank
            order[rank:at + 1] = [order[at]] + order[rank:at]
            place[rank:at + 1] = [rank] + place[rank:at]
            sign = -sign
        elif at != rank:
            order[rank], order[at] = order[at], order[rank]
            sign = -sign
        top = reduced(order[rank], True)
        prev = top[col]
        steps.append((col, prev, top))
        pivots.append(col)

    def over_d(dx):
        return [Fraction(dx[c], prev) if c in dx else _ZERO
                for c in range(ncols)]

    rank = len(pivots)
    dx = back(ncols) if solve else {}
    at = holding(ncols, dx, rank, lambda r: rows[r] if r in rows
                 else load(r)[0]) if solve else nlive
    free = tuple(c for c in range(ncols) if c not in pivots)
    if at == nlive:
        outcome = LinearSolution(tuple(over_d(dx)), tuple(pivots), free)
    else:
        tops = order[:rank] + [order[at]]   # the pivot block, transposed
        read(tops[-1])
        block = [({k: v if k < rank else -v for k, r in enumerate(tops)
                   if (v := firsts[r].get(j))}, 1) for j in pivots]
        z = _bareiss(block.__getitem__, range(rank), rank, rank
                     ).outcome.values + (1,)
        g, d = scales[tops[-1]]
        y = [_ZERO] * nrows
        for r, v in zip(tops, z):
            y[r] = v * Fraction(g * scales[r][1], d * scales[r][0])
        outcome = Infeasible(tuple(y), Fraction(g, d) * sum(
            v * firsts[r].get(ncols, 0) for r, v in zip(tops, z)))
    kernel = tuple(Fraction(c == free[0]) - v for c, v in enumerate(
        over_d(back(free[0])))) if free and not solve else None
    determinant = None if solve or nrows != ncols else (
        _ZERO if rank < ncols else Fraction(
            sign * prev * math.prod(g for g, _ in scales.values()),
            math.prod(d for _, d in scales.values())))
    return _Elimination(outcome, determinant, kernel)


def _combine(p, x, f, y, e):
    """(p x - f y) / e on sparse rows, zeros dropped."""
    return {i: v // e for i in {**x, **y}
            if (v := p * x.get(i, 0) - f * y.get(i, 0))}


def _square(matrix):
    """matrix, refused before any pass unless it is a square matrix."""
    if not (isinstance(matrix, Tensor) and matrix.rank == 2
            and matrix.shape[0] == matrix.shape[1]):
        raise ShapeMismatch("expected a square matrix")
    return matrix


def det(matrix):
    """Exact determinant of a square matrix."""
    return _eliminate(_square(matrix)).det


def leading_minors(matrix):
    """Leading principal minors of a square matrix, up to the first zero
    one; a symmetric one is positive definite iff all are positive
    (Sylvester).  Bareiss, no row swaps: row r, times d_r, the lcm of its
    denominators, takes x = (p_s x - x_s top_s) / p_{s-1} from each pivot
    row s < r (p_{-1} = 1); p_r is A's minor r + 1 times d_0 ... d_r."""
    rows = [[] for _ in range(_square(matrix).shape[0])]
    for (i, j), value in matrix.entries:
        rows[i].append((j, value))
    pivots, tops, minors, scale = [1], [], [], 1
    for row in rows:
        d = math.lcm(*[v.denominator for _, v in row])
        x = [0] * len(rows)
        for j, v in row:
            x[j] = v.numerator * (d // v.denominator)
        for e, p, top in zip(pivots, pivots[1:], tops):
            f = x[0]    # x from column s on, top_s past column s
            x = [(p * a - f * b) // e for a, b in zip(x[1:], top)]
        minors.append(Fraction(x[0], scale := scale * d))
        if not x[0]:
            break
        pivots.append(x[0])
        tops.append(x[1:])
    return minors


def _symmetric_minors(matrix):
    """leading_minors of a symmetric matrix by a left-looking, fraction-
    free LDL^T.  Row r, read whole and cleared of its denominators and
    content (sigma_r = d_r / g_r), keeps its lower part as a dense int
    list at a level e, which a zero multiplier leaves as it is.  At step
    s a multiplier f stands for f p_{s-1} / e, so pivot row s's entry at
    column r is, by symmetry, f p_{s-1} / e sigma_s / sigma_r, exact."""
    rows = [[] for _ in range(matrix.shape[0])]
    for (i, j), value in matrix.entries:
        rows[i].append((j, value))
    pivots, uppers, minors = [1], [], []
    num = dnm = 1   # the products of the rows' d and g read so far
    for r, row in enumerate(rows):
        ints, d = _cleared(row)
        g = math.gcd(*ints.values()) or 1
        x, e = [0] * (r + 1), 1
        for j, v in ints.items():
            if j <= r:
                x[j] = v // g
        for s, (upper, gs, ds) in enumerate(uppers):
            f = x[s]
            upper.append(f and f * pivots[s] * ds * g // (e * gs * d))
            if f:
                p = pivots[s + 1]
                x[s + 1:] = [(p * a - f * b) // e
                             for a, b in zip(x[s + 1:], upper)]
                e = p
        q = math.gcd(d, g)
        num, dnm = num * (d // q), dnm * (g // q)
        pivots.append(x[r] * pivots[r] // e)
        minors.append(Fraction(pivots[-1] * dnm, num))
        if not pivots[-1]:
            break
        uppers.append(([], g, d))
    return minors


def null_vector(matrix):
    """A nonzero kernel vector of A, or None when A has full column rank.

    With f the first free column, e_f plus the canonical solution of
    A x = -A e_f lies in the kernel.
    """
    return _eliminate(matrix).kernel


def solve_linear(matrix, rhs):
    """Solve A x = b exactly: the canonical solution or an Infeasible.

    A is a rank-2 Tensor and b a sequence of rationals, one per row.
    Reduction runs left to right with the first nonzero entry as pivot,
    so the returned solution is deterministic: pivot columns are as
    early as possible and every free variable is zero.
    """
    return _eliminate(matrix, rhs).outcome
