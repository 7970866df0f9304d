"""The Fraction row reductions liegeom used before its single elimination.

det, leading_minors, solve_linear and null_vector are copied verbatim
from the last version that had them as separate routines.  They serve
only as a differential oracle for liegeom.tensors in the test suite.
"""

from fractions import Fraction

from liegeom.errors import ShapeMismatch
from liegeom.tensors import Infeasible, LinearSolution


def _as_q(value):
    return value if isinstance(value, Fraction) else Fraction(value)


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
