"""Dense routines liegeom used before it walked only the nonzeros.

det, leading_minors, solve_linear and null_vector are the Fraction row
reductions used before the single elimination, copied verbatim; they
take a matrix as a list of row lists, where the library takes a rank-2
Tensor (Tensor.from_rows converts).  The tensor routines below them
loop over every index position, as liegeom did when it stored its
tensors densely; they read entries through Tensor.__getitem__ and return
their results through Tensor.from_entries, except contract, which
returns a dict as the library's does, and pairing_rows, lee_form_system
and closedness_rows, which return row lists.  All of them serve only as
a differential oracle in the test suite.
"""

import itertools
from fractions import Fraction

from liegeom.errors import (DimensionMismatch, ShapeMismatch,
                            UnsupportedDegree)
from liegeom.forms import KForm, _perm_sign
from liegeom.geometry import CurvatureFit, Witness
from liegeom.tensors import Infeasible, LinearSolution, Tensor


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


# -- dense tensor routines -------------------------------------------------

def _nonzero(positions, value_at):
    """{index: value} over the positions where value_at is nonzero."""
    values = {idx: value_at(*idx) for idx in positions}
    return {idx: value for idx, value in values.items() if value != 0}


def _cube(n, rank):
    return itertools.product(range(n), repeat=rank)


def contract(a, axis_a, b, axis_b):
    """{a's index without axis_a + b's index without axis_b: the sum over
    m of a[..., m, ...] b[..., m, ...]} at every position, zeros dropped."""
    def drop(t, axis):
        return [range(n) for i, n in enumerate(t.shape) if i != axis]

    def put(idx, axis, m):
        return idx[:axis] + (m,) + idx[axis:]

    entries = {}
    for head in itertools.product(*drop(a, axis_a)):
        for tail in itertools.product(*drop(b, axis_b)):
            total = sum((a[put(head, axis_a, m)] * b[put(tail, axis_b, m)]
                         for m in range(a.shape[axis_a])), Fraction(0))
            if total != 0:
                entries[head + tail] = total
    return entries


def torsion(connection):
    L = connection.base
    n = L.dim
    gamma = connection.gamma
    entries = _nonzero(_cube(n, 3), lambda i, j, k: (
        gamma[i, j, k] - gamma[j, i, k] - L.c[i, j, k]))
    return Tensor.from_entries((n, n, n), entries)


def to_nested(t):
    """The entries of t as nested lists, zeros included."""
    def build(prefix, depth):
        if depth == t.rank:
            return t[tuple(prefix)]
        return [build(prefix + [i], depth + 1) for i in range(t.shape[depth])]

    return build([], 0)


def curvature(connection):
    L = connection.base
    n = L.dim
    g = to_nested(connection.gamma)
    c = to_nested(L.c)

    def value(i, j, k, l):
        total = Fraction(0)
        for m in range(n):
            total += g[j][k][m] * g[i][m][l]
            total -= g[i][k][m] * g[j][m][l]
            total -= c[i][j][m] * g[m][k][l]
        return total

    return Tensor.from_entries((n, n, n, n), _nonzero(_cube(n, 4), value))


def nabla_g(connection, metric):
    n = connection.base.dim
    gamma = to_nested(connection.gamma)
    g = to_nested(metric.g)

    def value(i, j, k):
        total = Fraction(0)
        for m in range(n):
            total -= gamma[i][j][m] * g[m][k]
            total -= gamma[i][k][m] * g[j][m]
        return total

    return Tensor.from_entries((n, n, n), _nonzero(_cube(n, 3), value))


def codazzi_check(connection, metric):
    ng = nabla_g(connection, metric)
    n = connection.base.dim
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(n):
                residual = ng[i, j, k] - ng[j, i, k]
                if residual != 0:
                    return Witness("codazzi", (i, j, k), residual)
    return None


def comparison_tensor(metric):
    n = metric.base.dim
    g = metric.g

    def value(i, j, k, l):
        total = Fraction(0)
        if l == i:
            total += g[j, k]
        if l == j:
            total -= g[i, k]
        return total

    return Tensor.from_entries((n, n, n, n), _nonzero(_cube(n, 4), value))


def curvature_fit(r, k):
    """The fit of R = c K by a scan over every index position."""
    first = k.entries[0] if k.entries else None
    c = Fraction(0) if first is None else r[first[0]] / first[1]
    for idx in _cube(r.shape[0], 4):
        residual = r[idx] - c * k[idx]
        if residual != 0:
            return CurvatureFit("none", witness=Witness(
                "constant_curvature", idx, residual, (c,)))
    if first is None:
        return CurvatureFit("underdetermined")
    return CurvatureFit("constant", c)


def jacobi_residual(L, i, j, k):
    """[[e_i, e_j], e_k] + [[e_j, e_k], e_i] + [[e_k, e_i], e_j]."""
    n, c = L.dim, L.c
    return tuple(
        sum((c[i, j, m] * c[m, k, l] + c[j, k, m] * c[m, i, l]
             + c[k, i, m] * c[m, j, l] for m in range(n)), Fraction(0))
        for l in range(n))


def jacobi_check(L):
    for i, j, k in itertools.combinations(range(L.dim), 3):
        residual = jacobi_residual(L, i, j, k)
        if any(residual):
            return Witness("jacobi", (i, j, k), residual)
    return None


def ce_d(L, form):
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
    raise UnsupportedDegree(f"differential of degree {form.degree}")


def add(a, b):
    """a + b, two forms of one degree, summed at every increasing index."""
    n = a.dim
    return KForm.from_components(n, a.degree, _nonzero(
        itertools.combinations(range(n), a.degree),
        lambda *idx: a.half[idx] + b.half[idx]))


def wedge(a, b):
    n = a.dim
    degree = a.degree + b.degree
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


def nijenhuis(L, J):
    """N[i, j, k] = c[i, j, k] + sum over z of J[k, z] ([J e_i, e_j]_z
    + [e_i, J e_j]_z) - [J e_i, J e_j]_k, each bracket summed over c."""
    n = L.dim
    c = to_nested(L.c)
    j = to_nested(J.j)
    ms = range(n)

    def value(i, jj, k):
        total = c[i][jj][k]
        for z in ms:
            inner = sum((j[m][i] * c[m][jj][z] + j[m][jj] * c[i][m][z]
                         for m in ms), Fraction(0))
            total += j[k][z] * inner
        for m in ms:
            for p in ms:
                total -= j[m][i] * j[p][jj] * c[m][p][k]
        return total

    return Tensor.from_entries((n, n, n), _nonzero(_cube(n, 3), value))


def pairing_rows(omega, J):
    n = omega.dim
    w = omega.coefficients
    return [[sum((w[i, k] * J.j[k, j] for k in range(n)), Fraction(0))
             for j in range(n)] for i in range(n)]


def lee_form_system(L, omega):
    """(rows, rhs, triples) of d(omega) = theta wedge omega, one row per
    triple i < j < k, filled through Tensor.__getitem__."""
    if omega.degree != 2:
        raise UnsupportedDegree("the Lee equation needs a 2-form")
    if omega.dim != L.dim:
        raise DimensionMismatch("form and algebra dimensions differ")
    n = L.dim
    d = ce_d(L, omega).coefficients
    w = omega.coefficients
    rows = []
    rhs = []
    triples = []
    for i, j, k in itertools.combinations(range(n), 3):
        row = [Fraction(0)] * n
        row[i] += w[j, k]
        row[j] -= w[i, k]
        row[k] += w[i, j]
        rows.append(row)
        rhs.append(d[i, j, k])
        triples.append((i, j, k))
    return rows, rhs, triples


def closedness_rows(L):
    """Equations saying theta vanishes on every bracket, i.e. d(theta) = 0."""
    n = L.dim
    return [[L.c[i, j, k] for k in range(n)]
            for i, j in itertools.combinations(range(n), 2)]
