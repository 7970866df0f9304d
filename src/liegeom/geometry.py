"""Connections, metrics and complex structures on a Lie algebra.

Conventions used throughout:

  * gamma[i, j, k] is the e_k coefficient of nabla_{e_i} e_j.
  * torsion   T(X, Y) = nabla_X Y - nabla_Y X - [X, Y].
  * curvature R(X, Y) Z = nabla_X nabla_Y Z - nabla_Y nabla_X Z
                          - nabla_{[X, Y]} Z.
  * The derivative of invariant data keeps no directional term:
    (nabla_X g)(Y, Z) = -g(nabla_X Y, Z) - g(Y, nabla_X Z).

The Codazzi check asks for total symmetry of (nabla_{e_i} g)(e_j, e_k),
constant curvature compares R against c (g(Y, Z) X - g(X, Z) Y), and
classify records an exact witness for every failed check; the table
VERDICTS reads each report flag the supplied pieces allow off those
witnesses, False exactly when one of them refutes it.  Each witness is
the first in index order, so T, R, nabla g and N are summed one block
at a time (see "verdict computations" below).  witness_residual runs
the claim's recheck from check, which imports none of these kernels.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

from .algebra import (LieAlgebra, Witness, _first_nonzero, _sliced,
                      jacobi_check)
from .check import CLAIMS, _form_on, _leading_block, _Pieces, _same_base
from .errors import (InputError, MissingPieces, NoLeeForm, NotAlmostComplex,
                     ShapeMismatch)
from .forms import KForm, _d_sums, ce_d
from .tensors import (Infeasible, Tensor, _bareiss, _symmetric_minors, det,
                      null_vector)

_ZERO = Fraction(0)


@dataclass(frozen=True)
class Connection:
    base: LieAlgebra
    gamma: Tensor

    def __post_init__(self):
        n = self.base.dim
        if self.gamma.shape != (n, n, n):
            raise ShapeMismatch(
                f"connection coefficients need shape {(n, n, n)}")

    @classmethod
    def from_table(cls, base, table):
        """Build from {(i, j): {k: value}} meaning nabla_{e_i} e_j."""
        entries = {}
        for (i, j), component in table.items():
            for k, value in component.items():
                entries[(i, j, k)] = value
        n = base.dim
        gamma = Tensor.from_entries((n, n, n), entries)
        return cls(base, gamma)

    @classmethod
    def zero(cls, base):
        n = base.dim
        return cls(base, Tensor.zero((n, n, n)))


@dataclass(frozen=True)
class Metric:
    """Symmetric bilinear form.  Definiteness is a verdict, not an axiom."""

    base: LieAlgebra
    g: Tensor

    def __post_init__(self):
        n = self.base.dim
        if self.g.shape != (n, n):
            raise ShapeMismatch(f"metric needs shape {(n, n)}")
        # not the cached _lookup, which every metric would keep alive
        lookup = dict(self.g.entries)
        for idx, value in self.g.entries:
            if lookup.get(idx[::-1], 0) != value:
                raise ShapeMismatch(
                    f"entries not symmetric in axes (0, 1) at {idx}")

    @classmethod
    def from_rows(cls, base, rows):
        return cls(base, Tensor.from_rows(rows))

    @classmethod
    def identity(cls, base):
        n = base.dim
        return cls.from_rows(base, [[1 if i == j else 0 for j in range(n)]
                                    for i in range(n)])

    def is_positive_definite(self):
        return all(m > 0 for m in _symmetric_minors(self.g))


@dataclass(frozen=True)
class ComplexStructure:
    """Almost complex structure: a matrix squaring to minus the identity.

    j[i, k] is the e_i coefficient of J(e_k).
    """

    base: LieAlgebra
    j: Tensor

    def __post_init__(self):
        n = self.base.dim
        if self.j.shape != (n, n):
            raise ShapeMismatch(f"complex structure needs shape {(n, n)}")
        # J*J + I on the int numerators of J*J, d times each entry; J's
        # rows grouped here, not the cached _rows a fresh J would keep
        d, ints = self.j._ints
        d *= d
        rows, excess = {}, {(i, i): d for i in range(n)}
        for (m, k), v in ints:
            rows.setdefault(m, []).append((k, v))
        for (i, m), v in ints:
            for k, w in rows.get(m, ()):
                excess[i, k] = excess.get((i, k), 0) + v * w
        off = min((idx for idx, v in excess.items() if v), default=None)
        if off is not None:
            i, k = off
            expected = -1 if i == k else 0
            raise NotAlmostComplex(
                f"(J*J)[{i}, {k}] = {Fraction(excess[i, k], d) + expected}, "
                f"expected {expected}")

    @classmethod
    def from_rows(cls, base, rows):
        return cls(base, Tensor.from_rows(rows))


# -- verdict computations --------------------------------------------------
#
# T, R, nabla g and N are summed one block at a time.  A kernel reads
# its pieces (gamma, c, g, J) off the views each Tensor caches (_rows,
# _mirrored for c's half) and returns block(*head), the block's nonzero
# int sums over one denominator d as (d, {remaining indices: int}).  R
# has a block per pair i < j, head (i, j).  T and N, whose pair blocks
# cost less than the call that reads them, have one per row, head (i,),
# holding every pair (i, j) with j > i.  nabla g, not antisymmetric, has
# one per slab nabla_{e_i} g, which the Codazzi pair (i, j) reads with
# slab j.  classify reads the blocks in lexicographic order and stops a
# claim at the first block that decides it: a failing claim costs its
# first failing block, a passing one the whole tensor; T's and N's rows
# go through algebra's _first_nonzero, as Jacobi's do.  The public
# tensors are every block, each entry mirrored to minus itself at
# (j, i, ...) where the tensor is antisymmetric in its first two slots.

def _pairs(n):
    """The pair heads (i, j), i < j below n, in lexicographic order."""
    return itertools.combinations(range(n), 2)


def _antisymmetric(n, rank, block, heads):
    """The Tensor whose blocks at heads are block's, each entry mirrored
    to minus itself at (j, i, ...); zip(range(n - 1)) gives the row
    heads (i,)."""
    entries = []
    for head in heads:
        d, b = block(*head)
        for tail, v in b.items():
            idx, q = head + tail, Fraction(v, d)
            entries += ((idx, q), ((idx[1], idx[0]) + idx[2:], -q))
    return Tensor._trusted((n,) * rank, entries)


def _torsion_blocks(connection):
    """row(i): T[i, j, k] = gamma[i, j, k] - gamma[j, i, k] - c[i, j, k]
    at each (j, k), j > i."""
    n, (dg, gamma) = connection.base.dim, connection.gamma._rows
    dc, brackets = connection.base.half._rows
    d = math.lcm(dg, dc)
    sg, sc = d // dg, d // dc

    def row(i):
        out = {}
        for j, r in gamma.get(i, {}).items():
            if j > i:
                out.update(((j, k), v * sg) for k, v in r)
        for j in range(i + 1, n):
            for k, v in gamma.get(j, {}).get(i, ()):
                out[j, k] = out.get((j, k), 0) - v * sg
        for j, r in brackets.get(i, {}).items():
            for k, v in r:
                out[j, k] = out.get((j, k), 0) - v * sc
        return d, {key: v for key, v in out.items() if v}

    return row


def torsion(connection):
    """T as a (1, 2) tensor: T[i, j, k] is the e_k part of T(e_i, e_j)."""
    n = connection.base.dim
    return _antisymmetric(n, 3, _torsion_blocks(connection), zip(range(n - 1)))


def _curvature_blocks(connection):
    """block(i, j): R[i, j, k, l] at each (k, l).

    With Gamma_i the matrix gamma[i, k, m], R(e_i, e_j) is the matrix
    Gamma_j Gamma_i - Gamma_i Gamma_j - the sum over m of c[i, j, m]
    Gamma_m, summed on int keys k n + l.  Each product is over dg^2 and
    the bracket term over dc dg, so each left factor is scaled to the
    common d as its row is read.
    """
    n, (dg, gamma) = connection.base.dim, connection.gamma._rows
    dc, brackets = connection.base.half._rows
    d = dg * math.lcm(dg, dc)
    s1, s2 = d // (dg * dg), d // (dc * dg)

    def block(i, j):
        acc = {}
        for a, b, s in ((j, i, s1), (i, j, -s1)):
            rows = gamma.get(b, {})
            for k, r in gamma.get(a, {}).items():
                for m, x in r:
                    if row := rows.get(m):
                        x, kn = x * s, k * n
                        for l, y in row:
                            acc[kn + l] = acc.get(kn + l, 0) + x * y
        for m, x in brackets.get(i, {}).get(j, ()):
            x *= s2
            for k, row in gamma.get(m, {}).items():
                kn = k * n
                for l, y in row:
                    acc[kn + l] = acc.get(kn + l, 0) - x * y
        return d, {divmod(key, n): v for key, v in acc.items() if v}

    return block


def curvature(connection):
    """R as a (1, 3) tensor: R[i, j, k, l] is the e_l part of R(e_i, e_j) e_k.

    R[i, j, k, l] = sum over m of gamma[j, k, m] gamma[i, m, l]
    - gamma[i, k, m] gamma[j, m, l] - c[i, j, m] gamma[m, k, l].
    """
    n = connection.base.dim
    return _antisymmetric(n, 4, _curvature_blocks(connection), _pairs(n))


def _nabla_g_blocks(connection, metric):
    """block(i): the slab (nabla_{e_i} g)(e_j, e_k) as (d, {j: {k: the
    entry times d}}) over its nonzero entries.

    The entry is -(P_i[j, k] + P_i[k, j]), with P_i the matrix summing
    gamma[i, j, m] g[m, k] over m, as g is symmetric.
    """
    n = connection.base.dim
    (dg, gamma), (dm, rows) = connection.gamma._rows, metric.g._rows

    def block(i):
        p = {}      # P_i on int keys j n + k
        for j, r in gamma.get(i, {}).items():
            for m, x in r:
                for k, y in rows.get(m, ()):
                    p[j * n + k] = p.get(j * n + k, 0) + x * y
        slab = {}
        for key, v in p.items():
            j, k = divmod(key, n)
            if j > k and k * n + j in p:
                continue    # summed at (k, j)
            v = -(v + p.get(k * n + j, 0))
            if v:
                slab.setdefault(j, {})[k] = v
                slab.setdefault(k, {})[j] = v
        return dg * dm, slab

    return block


def nabla_g(connection, metric):
    """(nabla_{e_i} g)(e_j, e_k) under the invariant-data convention: the
    sum over m of -gamma[i, j, m] g[m, k] - gamma[i, k, m] g[j, m]."""
    n = connection.base.dim
    block = _nabla_g_blocks(connection, metric)
    entries = []
    for i in range(n):
        d, slab = block(i)
        entries += (((i, j, k), Fraction(v, d))
                    for j, row in slab.items() for k, v in row.items())
    return Tensor._trusted((n, n, n), entries)


def codazzi_check(connection, metric):
    """None when nabla g is totally symmetric, else a "codazzi" Witness
    at the first (i, j, k) where it loses symmetry in its first two slots.

    Symmetry in the last two slots is automatic for a symmetric metric,
    so only the (i, j) swap is scanned, in lexicographic order: the pair
    (i, j) compares row j of slab i with row i of slab j.  A slab is
    summed when a pair first reads it and dropped after the last pair
    (i, n - 1) of its i.
    """
    _same_base(connection.base, metric.base)
    n = connection.base.dim
    block = _nabla_g_blocks(connection, metric)
    slabs = {}
    for i, j in _pairs(n):
        for x in (i, j):
            if x not in slabs:
                slabs[x] = block(x)
        d, slab = slabs[i]
        ij, ji = slab.get(j), slabs[j][1].get(i)
        if ij != ji:
            ij, ji = ij or {}, ji or {}
            k = min(k for k in ij.keys() | ji.keys()
                    if ij.get(k) != ji.get(k))
            return Witness("codazzi", (i, j, k),
                           Fraction(ij.get(k, 0) - ji.get(k, 0), d))
        if j == n - 1:
            del slabs[i]
    return None


@dataclass(frozen=True)
class CurvatureFit:
    """Outcome of fitting R = c (g(Y, Z) X - g(X, Z) Y).

    kind is "constant" (value holds c), "none", "underdetermined" when
    the comparison tensor vanishes identically, as on a one-dimensional
    base, or "degenerate" when the metric is singular and no fit is
    attempted.
    """

    kind: str
    value: Fraction | None = None
    witness: Witness | None = field(default=None, compare=False)


def _comparison_blocks(metric):
    """block(i, j): K[i, j, k, l] = g[j, k] [l == i] - g[i, k] [l == j]
    at each (k, l), from g alone."""
    d, rows = metric.g._rows

    def block(i, j):
        out = {(k, i): v for k, v in rows.get(j, ())}
        out.update(((k, j), -v) for k, v in rows.get(i, ()))
        return d, out

    return block


def constant_curvature(connection, metric):
    """Fit one exact c with R = c K, "degenerate" on a singular metric."""
    _same_base(connection.base, metric.base)
    if _degenerate(metric.g, _symmetric_minors(metric.g)):
        return CurvatureFit("degenerate")
    return _curvature_scan(connection, metric)[1]


def _degenerate(g, minors):
    """det g == 0: the last of a full list of leading minors, else det."""
    return (minors[-1] if 0 < len(minors) == g.shape[0] else det(g)) == 0


def _curvature_scan(connection, metric=None):
    """The "curvature" witness, at the first nonzero block of R, and,
    given a nonsingular metric, the fit of R = c K, read off R's blocks
    in order until both are decided.

    c is read at K's first entry.  Row 0 of a nonsingular g is nonzero,
    so that entry lies in block (0, 1), the first one read, and K
    vanishes only below dimension 2, where the fit is underdetermined.
    The fit's witness is the first (i, j, k, l) where R - c K is
    nonzero, compared on ints over the two blocks' denominators.
    """
    n = connection.base.dim
    curv = _curvature_blocks(connection)
    comparison = None if metric is None else _comparison_blocks(metric)
    flat = fit = c = None
    for i, j in _pairs(n):
        d, r = curv(i, j)
        if flat is None and r:
            flat = _sliced("curvature", (i, j), d, r, n)
        if comparison is not None and fit is None:
            dk, k = comparison(i, j)
            if c is None:
                first = min(k)
                c = Fraction(r.get(first, 0), d) / Fraction(k[first], dk)
            a, b = c.denominator * dk, c.numerator * d
            misfit = [t for t in r.keys() | k.keys()
                      if r.get(t, 0) * a != k.get(t, 0) * b]
            if misfit:
                t = min(misfit)
                fit = CurvatureFit("none", witness=Witness(
                    "constant_curvature", (i, j) + t,
                    Fraction(r.get(t, 0), d) - c * Fraction(k.get(t, 0), dk),
                    (c,)))
        if flat is not None and (comparison is None or fit is not None):
            break
    if comparison is not None and fit is None:
        fit = (CurvatureFit("underdetermined") if c is None
               else CurvatureFit("constant", c))
    return flat, fit


def _nijenhuis_blocks(L, J):
    """row(i): N[i, j, k] at each (j, k), j > i.

    With C_x the matrix c[x, y, z], J e_x the sum over m of J[m, x] e_m
    and A_x the matrix A[x, y, z] = [J e_x, e_y]_z, the sum over m of
    J[m, x] C_m: [e_i, J e_j]_z is the sum over m of J[m, j] C_i[m, z],
    so with M_i[j, z] = A_i[j, z] + that sum,
    N[i, j, k] = C_i[j, k] + the sum over z of J[k, z] M_i[j, z]
    - [J e_i, J e_j]_k, the last the sum over y of J[y, j] A_i[y, k].
    A row reads C_i and the C_m with J[m, i] nonzero alone; M_i is over
    dc dj, N over dc dj^2, summed on int keys j n + k.
    """
    _same_base(L, J.base)
    n = L.dim
    (dj, j_rows), (dc, c_rows) = J.j._rows, L.half._mirrored  # C_x by x
    s, d = dj * dj, dc * dj * dj
    cols = {}   # J[m, x] by x
    for m, r in j_rows.items():
        for x, v in r:
            cols.setdefault(x, []).append((m, v))

    def row(i):
        a = {}      # A_i as {y: {z: int}}
        for m, jv in cols.get(i, ()):
            for y, cs in c_rows.get(m, {}).items():
                r = a.setdefault(y, {})
                for z, cv in cs:
                    r[z] = r.get(z, 0) + jv * cv
        inner = {j: dict(r) for j, r in a.items() if j > i}     # M_i
        out = {}
        for m, cs in c_rows.get(i, {}).items():
            for z, cv in cs:
                if m > i:
                    out[m * n + z] = cv * s
                for j, jv in j_rows.get(m, ()):
                    if j > i:
                        r = inner.setdefault(j, {})
                        r[z] = r.get(z, 0) + jv * cv
        for j, r in inner.items():
            for z, x in r.items():
                for k, jv in cols.get(z, ()):
                    out[j * n + k] = out.get(j * n + k, 0) + jv * x
        for y, r in a.items():
            for j, jv in j_rows.get(y, ()):
                if j > i:
                    for k, av in r.items():
                        out[j * n + k] = out.get(j * n + k, 0) - jv * av
        return d, {divmod(key, n): v for key, v in out.items() if v}

    return row


def nijenhuis(L, J):
    """N(X, Y) = [X, Y] + J([JX, Y] + [X, JY]) - [JX, JY] on basis pairs:
    N[i, j, k] is the e_k part of N(e_i, e_j)."""
    n = L.dim
    return _antisymmetric(n, 3, _nijenhuis_blocks(L, J), zip(range(n - 1)))


def pairing_rows(omega, J):
    """The matrix omega(e_i, J e_j), as a rank-2 Tensor: the sum over m
    of omega[i, m] J[m, j], omega[i, m] read off omega's half as
    half[i, m] for i < m and -half[m, i] for m < i."""
    n, sums = J.base.dim, {}
    (dw, ws), (dj, rows) = _form_on(omega, 2, n).half._mirrored, J.j._rows
    for i, r in ws.items():
        for m, w in r:
            for j, x in rows.get(m, ()):
                sums[i, j] = sums.get((i, j), 0) + w * x
    return Tensor._over((n, n), dw * dj, sums)


# -- the Lee form equation -------------------------------------------------

def lee_form_system(L, omega):
    """Linear system for theta with d(omega) = theta wedge omega.

    Returns (matrix, rhs, triples): one equation per basis triple
    i < j < k in lexicographic order, one column per dual basis covector.
    The row of i < j < k is w[j, k] theta_i - w[i, k] theta_j
    + w[i, j] theta_k.
    """
    n = L.dim
    triples = list(itertools.combinations(range(n), 3))
    rows = {r: x for r, x in _lee_rows(L, omega).items()
            if r < len(triples)}
    # each distinct int once as a Fraction: w has few values
    q = {v: d for row, d in rows.values() for v in row.values()}
    q = {v: Fraction(v, d) for v, d in q.items()} | {0: _ZERO}
    return Tensor._trusted((len(triples), n), [
        ((r, j), q[v]) for r, (row, _) in rows.items()
        for j, v in row.items() if j < n]), [
            q[rows[r][0].get(n, 0)] if r in rows else _ZERO
            for r in range(len(triples))], triples


def _lee_rows(L, omega, d_omega=None):
    """The rows of the Lee system that hold an entry, {r: (ints, d)} in
    row order as _bareiss reads them, then those the closed system adds;
    d_omega is d omega as (denominator, [(triple, int)]), summed here
    from omega, checked first, when not given.

    Row r < C(n, 3), the r-th triple i < j < k, holds w[j, k], -w[i, k],
    w[i, j] at columns i, j, k and (d omega)(e_i, e_j, e_k) at column n,
    over d the lcm of omega's and d omega's denominators, so each w[a, b]
    lands in the n - 2 triples through a and b; the s-th pair i < j then
    gives theta([e_i, e_j]) = 0, c[i, j, .] over c's.
    """
    if d_omega is None:
        d, sums = _d_sums(L, _form_on(omega, 2, L.dim))
        d_omega = d, sums.items()
    n, triples = L.dim, math.comb(L.dim, 3)
    (dw, ws), (db, bs) = omega.half._ints, d_omega
    d = math.lcm(dw, db)
    # the triple i < j < k is row lead[i] - tail[j] + k
    lead = [triples - math.comb(n - i, 3) + math.comb(n - i - 1, 2)
            for i in range(n)]
    tail = [math.comb(n - j, 2) + j + 1 for j in range(n)]
    rows = {}
    for (a, b), v in ws:
        v *= d // dw
        for k in range(n):
            if k < a:
                rows.setdefault(lead[k] - tail[a] + b, {})[k] = v
            elif a < k < b:
                rows.setdefault(lead[a] - tail[k] + b, {})[k] = -v
            elif k > b:
                rows.setdefault(lead[a] - tail[b] + k, {})[k] = v
    for (i, j, k), v in bs:
        if v:
            rows.setdefault(lead[i] - tail[j] + k, {})[n] = v * (d // db)
    rows = {r: (row, d) for r, row in sorted(rows.items())}
    dc, half = L.half._rows
    pairs = triples + math.comb(n, 2)
    for i, by_j in half.items():
        for j, row in by_j.items():
            rows[pairs - math.comb(n - i, 2) + j - i - 1] = dict(row), dc
    return rows


def _lee_form(L, rows, nrows):
    """(theta, None) off the solution of the first nrows rows, else
    (None, certificate)."""
    solved = _bareiss(rows.__getitem__, [r for r in rows if r < nrows],
                      nrows, L.dim).outcome
    if isinstance(solved, Infeasible):
        return None, solved
    values = (((i,), v) for i, v in enumerate(solved.values))
    return KForm(1, Tensor._trusted((L.dim,), values)), None


def lee_form_solve(L, omega):
    """The canonical solution theta of d(omega) = theta wedge omega.

    Free variables are pinned to zero with pivots chosen in dual basis
    order, so the answer is deterministic.  Returns None when the system
    is inconsistent.
    """
    return _lee_form(L, _lee_rows(L, omega), math.comb(L.dim, 3))[0]


# -- the witnesses classify records ----------------------------------------

def _nonzero(claim, t):
    """None for a zero tensor t, else a witness at its first entry."""
    if t.is_zero():
        return None
    idx = t.entries[0][0]
    return Witness(claim, idx, t[idx])


def _asymmetry(claim, P):
    """None for a symmetric matrix P, else a witness at the first i < j
    with P[i, j] != P[j, i], that difference its residual; only where an
    entry is set can it be nonzero."""
    p = P._lookup
    for i, j in sorted({(min(x), max(x)) for x in p if x[0] != x[1]}):
        residual = p.get((i, j), _ZERO) - p.get((j, i), _ZERO)
        if residual:
            return Witness(claim, (i, j), residual)
    return None


def _positive(claim, matrix, minors, kernel=False):
    """None when every leading minor of matrix is positive, else a witness
    with the first that is not as residual; with kernel, a zero minor's
    witness carries a zero-padded kernel vector of its leading block."""
    k = next((k for k, m in enumerate(minors, 1) if m <= 0), None)
    if k is None:
        return None
    detail = ()
    if kernel and minors[k - 1] == 0:
        detail = (null_vector(_leading_block(matrix, k))
                  + (_ZERO,) * (matrix.shape[0] - k))
    return Witness(claim, (k,), minors[k - 1], detail)


# -- the combined report ---------------------------------------------------
#
# Each flag, in report order: the pieces it needs, and the flags of the
# claims whose witnesses refute it.  A computed flag is False exactly
# when classify recorded such a witness.  l.c.K. asks for a closed Lee
# form, so lee_closed witnesses refute lck as well.

VERDICTS = {
    "jacobi": ((), ("jacobi",)),
    "torsion_free": (("connection",), ("torsion_free",)),
    "flat": (("connection",), ("flat",)),
    "codazzi": (("connection", "metric"), ("codazzi",)),
    "metric_positive": (("metric",), ("metric_positive",)),
    "statistical": (("connection", "metric"),
                    ("torsion_free", "codazzi", "metric_positive")),
    "hessian": (("connection", "metric"),
                ("torsion_free", "codazzi", "metric_positive", "flat")),
    "integrable": (("complex_structure",), ("integrable",)),
    "omega_closed": (("omega",), ("omega_closed",)),
    "pairing_positive": (("complex_structure", "omega"),
                         ("pairing_positive",)),
    "kahler": (("complex_structure", "omega"),
               ("integrable", "omega_closed", "pairing_positive")),
    "lck": (("complex_structure", "omega"),
            ("integrable", "pairing_positive", "lck", "lee_closed")),
    "lee_closed": (("omega",), ("lee_closed",)),
}

FLAGS = tuple(VERDICTS)


@dataclass(frozen=True)
class StructureReport:
    """Every verdict computable from the pieces handed to classify.

    Flags are None when the pieces VERDICTS names for them were absent,
    otherwise exact booleans, False exactly when an entry of witnesses
    refutes them.  lee_form prefers a closed solution of the Lee
    equation when one exists, falling back to the canonical solution;
    with no solution at all, lee_closed stays None even though omega was
    given, and flag("lee_closed") raises NoLeeForm.
    """

    is_jacobi: bool | None = None
    is_torsion_free: bool | None = None
    is_flat: bool | None = None
    is_codazzi: bool | None = None
    is_metric_positive: bool | None = None
    is_statistical: bool | None = None
    is_hessian: bool | None = None
    is_integrable: bool | None = None
    is_omega_closed: bool | None = None
    is_pairing_positive: bool | None = None
    is_kahler: bool | None = None
    is_lck: bool | None = None
    constant_curvature: CurvatureFit | None = None
    lee_form: KForm | None = None
    is_lee_closed: bool | None = None
    witnesses: tuple = ()

    def flag(self, name):
        if name not in VERDICTS:
            raise InputError(f"no verdict named {name!r}; the flags are "
                             f"{', '.join(FLAGS)}")
        value = getattr(self, "is_" + name)
        if value is None:
            if name == "lee_closed" and self.is_omega_closed is not None:
                raise NoLeeForm("verdict lee_closed is undefined: the Lee "
                                "equation has no solution theta")
            needs = VERDICTS[name][0]
            raise MissingPieces(
                f"verdict {name} was not computed; it needs "
                f"{' and '.join(needs)}", pieces=needs)
        return value

    def computed_flags(self):
        """(flag, verdict) pairs in FLAGS order, skipping the None ones."""
        flags = ((name, getattr(self, "is_" + name)) for name in FLAGS)
        return [(name, value) for name, value in flags if value is not None]


def classify(L, connection=None, metric=None, complex_structure=None,
             omega=None):
    """Run every applicable check, recording a witness for each failure,
    and read every flag the supplied pieces allow off those witnesses."""
    witnesses = [jacobi_check(L)]
    fit = lee_form = None

    if metric is not None:
        _same_base(L, metric.base)
        g_minors = _symmetric_minors(metric.g)

    if connection is not None:
        _same_base(L, connection.base)
        witnesses.append(_first_nonzero("torsion", L.dim, L.dim - 1,
                                        _torsion_blocks(connection)))
        fitted = None
        if metric is not None:
            if _degenerate(metric.g, g_minors):
                fit = CurvatureFit("degenerate")
            else:
                fitted = metric
        flat, scanned = _curvature_scan(connection, fitted)
        fit = fit or scanned
        witnesses.append(flat)

    if metric is not None:
        witnesses.append(_positive("positive_definite", metric.g,
                                   g_minors, kernel=True))

    if connection is not None and metric is not None:
        witnesses += [codazzi_check(connection, metric), fit.witness]

    if complex_structure is not None:
        _same_base(L, complex_structure.base)
        witnesses.append(_first_nonzero(
            "nijenhuis", L.dim, L.dim - 1,
            _nijenhuis_blocks(L, complex_structure)))

    if omega is not None:
        d_omega = ce_d(L, _form_on(omega, 2, L.dim))
        witnesses.append(_nonzero("d_omega", d_omega.half))

        rows = _lee_rows(L, omega, d_omega.half._ints)
        lee_form, certificate = _lee_form(L, rows, math.comb(L.dim, 3))
        if lee_form is None:
            witnesses.append(Witness("lee_system", (), certificate.residual,
                                     certificate.combination))
        else:
            d_theta = ce_d(L, lee_form).half
            if not d_theta.is_zero():
                closed, joint_cert = _lee_form(
                    L, rows, math.comb(L.dim, 3) + math.comb(L.dim, 2))
                if closed is None:
                    witnesses += [_nonzero("d_lee", d_theta), Witness(
                        "lee_closed_system", (), joint_cert.residual,
                        joint_cert.combination)]
                else:
                    lee_form = closed

        if complex_structure is not None:
            pairing = pairing_rows(omega, complex_structure)
            witnesses.append(
                _asymmetry("pairing_symmetry", pairing)
                or _positive("pairing_positive", pairing,
                             _symmetric_minors(pairing)))

    witnesses = tuple(w for w in witnesses if w is not None)
    refuted = {CLAIMS[w.claim].flag for w in witnesses}
    supplied = {name for name, piece in (
        ("connection", connection), ("metric", metric),
        ("complex_structure", complex_structure), ("omega", omega))
        if piece is not None}
    flags = {"is_" + name: refuted.isdisjoint(refuting)
             for name, (needs, refuting) in VERDICTS.items()
             if supplied.issuperset(needs)}
    if lee_form is None:     # no Lee form, so lee_closed is undefined
        flags.pop("is_lee_closed", None)
    return StructureReport(constant_curvature=fit, lee_form=lee_form,
                           witnesses=witnesses, **flags)


# -- witness re-evaluation -------------------------------------------------

def witness_residual(witness, *, algebra=None, connection=None, metric=None,
                     complex_structure=None, omega=None, lee_form=None):
    """Recompute the quantity a witness points at, from the raw pieces.

    The claim's recheck sums the one entry, or the one last-axis slice,
    that the witness names directly over the entries of the pieces; it
    builds no tensor of the claim and calls none of the routines classify
    computed it with.  A Lee system certificate y is read entry by entry,
    and only the rows where it is nonzero are rebuilt, for y . A = 0 and
    y . b.  Pieces bound to different algebras or dimensions raise
    DimensionMismatch.  The result equals the stored residual for a
    truthful report, and a nonzero value demonstrates the failed claim.
    """
    claim = CLAIMS.get(witness.claim)
    if claim is None:
        raise ShapeMismatch(f"unknown witness claim {witness.claim!r}")
    try:
        indices, detail = tuple(witness.indices), tuple(witness.detail)
    except TypeError:
        raise ShapeMismatch("witness indices and detail must be sequences"
                            ) from None
    pieces = _Pieces(witness.claim, dict(
        algebra=algebra, connection=connection, metric=metric,
        complex_structure=complex_structure, omega=omega, lee_form=lee_form))
    return claim.recheck(pieces, indices, detail)
