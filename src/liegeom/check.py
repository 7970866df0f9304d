"""The claim table and each claim's witness recheck, apart from the kernels.

A witness names a claim, an index tuple and a detail.  classify builds
each from the value that decided its claim: the block a scan of T, R,
nabla g, the fit or N stopped at, the first entry of d omega or d theta,
the pairing's first asymmetric pair, the first minor of its elimination
not positive, an infeasible Lee system's certificate.  witness_residual
runs the claim's recheck, a second computation for every claim: it sums
the one entry, or the one last-axis slice, that the witness names
straight from the raw pieces (gamma, c's half, g, J, the form halves),
builds none of R, N, nabla g, the pairing, the full c or the Lee
system, and imports none of the kernels that did for classify, so a
fault in those cannot vouch for itself.  c[x, y, .] is read off half,
negated when x > y (_bracket_row).  Like the kernels, it sums int
numerators over one common denominator (_dot) and divides once per
entry of its result, converting only the entries it reads (N and
Jacobi read the int numerators c's half and J cache; T, three entries
an output, subtracts them as they are).  So an entry costs O(n) and a
slice O(n^2) (a Nijenhuis slice O(n^3) for a dense J and c) where the
whole tensor costs up to O(n^5).  A minor is eliminated again from its
leading block by leading_minors, which shares no elimination with the
verdict's, and a Lee certificate y is checked only on its nonzero rows,
each rebuilt from omega's half, c's half and the d omega recheck, so
y . A = 0 and y . b cost O(n) a nonzero entry.  From liegeom it imports
errors and tensors' Tensor, _as_q and leading_minors, nothing else.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import (DimensionMismatch, MissingPieces, ShapeMismatch,
                     UnsupportedDegree)
from .tensors import Tensor, _as_q, leading_minors

_ZERO = Fraction(0)


# -- input guards, and the minor recheck -----------------------------------

def _same_base(L, other):
    if L != other:
        raise DimensionMismatch("pieces are bound to different algebras")


def _form_on(form, degree, dim):
    """form, refused unless it has the given degree and dimension."""
    if form.degree != degree:
        raise UnsupportedDegree(f"expected a {degree}-form, "
                                f"not one of degree {form.degree}")
    if form.dim != dim:
        raise DimensionMismatch("form and algebra dimensions differ")
    return form


def _leading_block(matrix, k):
    """The leading k x k block of a matrix."""
    return Tensor._trusted((k, k), (
        (idx, v) for idx, v in matrix.entries if max(idx) < k))


def _basis_indices(idx, arity, dim):
    """idx as arity int basis positions below dim, else ShapeMismatch."""
    if len(idx) != arity or not all(type(i) is int and 0 <= i < dim
                                    for i in idx):
        raise ShapeMismatch(
            f"witness indices {idx} are not {arity} positions below {dim}")
    return idx


def _leading(idx, n):
    """k for a witness index (k,) naming a leading minor of an n x n
    matrix, else ShapeMismatch."""
    if len(idx) != 1 or not (type(idx[0]) is int and 1 <= idx[0] <= n):
        raise ShapeMismatch(f"no leading minor {idx} of a {n}x{n} matrix")
    return idx[0]


def _minor(matrix, idx, detail):
    """Leading minor idx[0] of the square matrix, from the leading block
    of that size alone and up to the first zero minor; a nonempty detail
    must be a kernel vector of that block, padded with zeros."""
    n, detail = matrix.shape[0], tuple(map(_as_q, detail))
    k = _leading(idx, n)
    block = _leading_block(matrix, k)
    minors = leading_minors(block)
    if len(minors) < k:
        raise ShapeMismatch(f"no leading minor {idx} up to the first zero one")
    if detail and (len(detail) != n or any(detail[k:]) or not any(detail)
                   or any(_dot((1, x, detail[m]) for (a, m), x in
                               block.entries if a == r) for r in range(k))):
        raise ShapeMismatch(
            f"detail is no zero-padded kernel vector of the {k}x{k} block")
    return minors[-1]


# -- pointwise rechecks from the raw pieces ---------------------------------

def _dot(*products):
    """The exact sum of s x y over the products (s, x, y), s = 1 or -1, of
    each iterable given; an absent factor (None) or a zero one adds
    nothing.  The products are summed as int numerators over the lcm of
    their denominators, so the sum divides once."""
    ps = [(s * x.numerator * y.numerator, x.denominator * y.denominator)
          for group in products for s, x, y in group if x and y]
    d = math.lcm(*(q for _, q in ps))
    return Fraction(sum(p * (d // q) for p, q in ps), d)


def _bracket_row(half, x, y, n):
    """c[x, y, m] at each m < n, None where zero, read off half, a dict
    of c's entries at i < j: negated when x > y, zero when x = y."""
    if x < y:
        return [half.get((x, y, m)) for m in range(n)]
    return [-v if x > y and (v := half.get((y, x, m))) else None
            for m in range(n)]


def jacobi_residual(L, i, j, k):
    """[[e_i, e_j], e_k] + [[e_j, e_k], e_i] + [[e_k, e_i], e_j] for basis
    positions i, j, k, read off the int numerators of c's half over d: at
    each l, the sum over m of c[x, y, m] c[m, z, l] over the cyclic
    orders (x, y, z) of (i, j, k), over d^2."""
    (d, half), n = L.half._ints, L.dim
    half, total = dict(half), [0] * n
    for x, y, z in ((i, j, k), (j, k, i), (k, i, j)):
        for m, v in enumerate(_bracket_row(half, x, y, n)):
            if v:
                for l, w in enumerate(_bracket_row(half, m, z, n)):
                    if w:
                        total[l] += v * w
    return tuple(Fraction(t, d * d) for t in total)


def _riemann(D, i, j, k, l):
    """The products of R[i, j, k, l] = sum over m of gamma[j, k, m]
    gamma[i, m, l] - gamma[i, k, m] gamma[j, m, l] - c[i, j, m]
    gamma[m, k, l]."""
    gamma, n = D.gamma._lookup, D.base.dim
    c, ms = _bracket_row(D.base.half._lookup, i, j, n), range(n)
    return (((1, gamma.get((j, k, m)), gamma.get((i, m, l))) for m in ms),
            ((-1, gamma.get((i, k, m)), gamma.get((j, m, l))) for m in ms),
            ((-1, c[m], gamma.get((m, k, l))) for m in ms))


def _omega_row(omega, s, a, ys):
    """The products of s times the sum over m of omega(e_a, e_m) ys[m],
    read off the increasing half of a 2-form."""
    half = omega.half._lookup
    for m, y in enumerate(ys):
        if m != a:
            yield ((s, half.get((a, m)), y) if a < m
                   else (-s, half.get((m, a)), y))


def _pairing(omega, J, s, a, b):
    """The products of s P[a, b] = s omega(e_a, J e_b), the sum over m of
    omega[a, m] J[m, b]."""
    j = J.j._lookup
    return _omega_row(omega, s, a, [j.get((m, b)) for m in range(J.base.dim)])


def _torsion_at(p, idx, detail):
    """T(e_i, e_j): gamma[i, j, k] - gamma[j, i, k] - c[i, j, k] at each k."""
    D = p.connection
    n = D.base.dim
    i, j = _basis_indices(idx, 2, n)
    gamma, c = D.gamma._lookup, _bracket_row(D.base.half._lookup, i, j, n)
    return tuple(gamma.get((i, j, k), _ZERO) - gamma.get((j, i, k), _ZERO)
                 - (c[k] or _ZERO) for k in range(n))


def _curvature_at(p, idx, detail):
    """R(e_i, e_j) e_k: R[i, j, k, l] at each l."""
    D = p.connection
    i, j, k = _basis_indices(idx, 3, D.base.dim)
    return tuple(_dot(*_riemann(D, i, j, k, l)) for l in range(D.base.dim))


def _fit_at(p, idx, detail):
    """R[i, j, k, l] - c (g[j, k] [l = i] - g[i, k] [l = j])."""
    D, metric = p.connection, p.metric
    _same_base(D.base, metric.base)
    i, j, k, l = _basis_indices(idx, 4, D.base.dim)
    if len(detail) != 1:
        raise ShapeMismatch("a curvature fit witness carries one constant")
    c, g = _as_q(detail[0]), metric.g._lookup
    return _dot(*_riemann(D, i, j, k, l), (
        (-1, c, g.get((j, k)) if l == i else None),
        (1, c, g.get((i, k)) if l == j else None)))


def _codazzi_at(p, idx, detail):
    """(nabla_{e_i} g)(e_j, e_k) - (nabla_{e_j} g)(e_i, e_k)."""
    D, metric = p.connection, p.metric
    _same_base(D.base, metric.base)
    i, j, k = _basis_indices(idx, 3, D.base.dim)
    gamma, g, ms = D.gamma._lookup, metric.g._lookup, range(D.base.dim)
    # (nabla_{e_a} g)(e_b, e_k) = -(sum over m of gamma[a, b, m] g[m, k]
    # + gamma[a, k, m] g[b, m]), at (a, b) = (i, j) minus at (j, i)
    return _dot(((-1, gamma.get((i, j, m)), g.get((m, k))) for m in ms),
                ((-1, gamma.get((i, k, m)), g.get((j, m))) for m in ms),
                ((1, gamma.get((j, i, m)), g.get((m, k))) for m in ms),
                ((1, gamma.get((j, k, m)), g.get((i, m))) for m in ms))


def _nijenhuis_at(p, idx, detail):
    """N(e_i, e_j) = [e_i, e_j] + J([J e_i, e_j] + [e_i, J e_j])
    - [J e_i, J e_j], where J e_i is column i of J, each bracket summed
    off the int numerators of c's half and of J: [J e_i, e_j]_z is the
    sum over m of J[m, i] c[m, j, z], and [J e_i, J e_j] that of J[m, i]
    J[y, j] c[m, y, z].  The slice is over dc dj^2, one division an
    entry."""
    L, J = p.algebra, p.complex_structure
    _same_base(L, J.base)
    n = L.dim
    i, j = _basis_indices(idx, 2, n)
    (dc, half), (dj, jl), ms = L.half._ints, J.j._ints, range(n)
    half, jl = dict(half), dict(jl)
    ji, jj = ([(m, v) for m in ms if (v := jl.get((m, x)))] for x in (i, j))

    def add(out, s, a, b):  # out plus s c[a, b, .], in place
        for z, x in enumerate(_bracket_row(half, a, b, n)):
            if x:
                out[z] += s * x
        return out

    inner, outer = [0] * n, [0] * n     # over dc dj, and over dc dj^2
    for m, v in ji:
        add(inner, v, m, j)
        for y, w in jj:
            add(outer, v * w, m, y)
    for y, w in jj:
        add(inner, w, i, y)
    top = add([0] * n, dj * dj, i, j)
    return tuple(Fraction(top[k] - outer[k] + sum(
        v * x for z, v in enumerate(inner) if v and (x := jl.get((k, z)))),
        dc * dj * dj) for k in ms)


def _d_omega_at(p, idx, detail):
    """(d omega)(e_i, e_j, e_k) = -omega([e_i, e_j], e_k)
    + omega([e_i, e_k], e_j) - omega([e_j, e_k], e_i)."""
    L = p.algebra
    omega = _form_on(p.omega, 2, L.dim)
    i, j, k = _basis_indices(idx, 3, L.dim)

    def of_bracket(s, a, b, z):    # s omega([e_a, e_b], e_z)
        return _omega_row(omega, -s, z,
                          _bracket_row(L.half._lookup, a, b, L.dim))

    return _dot(of_bracket(-1, i, j, k), of_bracket(1, i, k, j),
                of_bracket(-1, j, k, i))


def _d_lee_at(p, idx, detail):
    """(d theta)(e_i, e_j) = -theta([e_i, e_j])."""
    L = p.algebra
    theta = _form_on(p.lee_form, 1, L.dim).half._lookup
    i, j = _basis_indices(idx, 2, L.dim)
    c = _bracket_row(L.half._lookup, i, j, L.dim)
    return _dot((-1, x, theta.get((m,))) for m, x in enumerate(c))


def _unrank(r, n, size):
    """The r-th increasing size-tuple of positions below n, in
    lexicographic order."""
    out, a = [], 0
    for t in range(size, 0, -1):
        while r >= (skip := math.comb(n - a - 1, t - 1)):
            r, a = r - skip, a + 1
        out.append(a)
        a += 1
    return tuple(out)


def _lee_certificate(p, detail, closed):
    """y . b for a combination y = detail of the rows of the Lee system,
    with y . A = 0, read off the rows where y is nonzero: row r < C(n, 3)
    is the r-th triple i < j < k, A's row there w[j, k], -w[i, k],
    w[i, j] at columns i, j, k and b_r (d omega)(e_i, e_j, e_k); with
    closed, row C(n, 3) + s is the s-th pair i < j, A's row there
    c[i, j, .] and b_r zero."""
    L = p.algebra
    n = L.dim
    omega = _form_on(p.omega, 2, n).half._lookup
    triples = math.comb(n, 3)
    if len(detail) != triples + closed * math.comb(n, 2):
        raise ShapeMismatch("combination length does not match the system")
    columns, b = [[] for _ in range(n)], []    # products of y . A, y . b
    for r, y in enumerate(detail):
        if type(y) is not Fraction:
            y = _as_q(y)
        if not y:
            continue
        if r < triples:
            i, j, k = _unrank(r, n, 3)
            for m, s, key in ((i, 1, (j, k)), (j, -1, (i, k)), (k, 1, (i, j))):
                columns[m].append((s, y, omega.get(key)))
            b.append((1, y, _d_omega_at(p, (i, j, k), ())))
        else:
            i, j = _unrank(r - triples, n, 2)
            for m, x in enumerate(_bracket_row(L.half._lookup, i, j, n)):
                columns[m].append((1, y, x))
    if any(map(_dot, columns)):
        raise ShapeMismatch("combination is not a left null vector")
    return _dot(b)


def _pairing_pieces(p):
    """omega and J for a pairing claim, a 2-form of J's dimension."""
    omega, J = p.omega, p.complex_structure
    return _form_on(omega, 2, J.base.dim), J


def _pairing_symmetry_at(p, idx, detail):
    """P[i, j] - P[j, i]."""
    omega, J = _pairing_pieces(p)
    i, j = _basis_indices(idx, 2, J.base.dim)
    return _dot(_pairing(omega, J, 1, i, j), _pairing(omega, J, -1, j, i))


def _pairing_minor_at(p, idx, detail):
    """Leading minor k of P, with only P's k x k block filled in."""
    omega, J = _pairing_pieces(p)
    n = J.base.dim
    k = _leading(idx, n)
    return _minor(Tensor.from_entries((n, n), {
        (a, b): _dot(_pairing(omega, J, 1, a, b))
        for a in range(k) for b in range(k)}), idx, detail)


# -- the claim table -------------------------------------------------------

@dataclass(frozen=True)
class Claim:
    """One claim: the flag its witnesses refute, which VERDICTS reads
    (None for the curvature fit), whether witness indices are basis
    positions, and the recheck evaluating a witness from the raw pieces,
    a second computation beside the one classify decided the claim by."""

    name: str
    flag: str | None
    labelled: bool
    recheck: object


CLAIMS = {claim.name: claim for claim in (
    Claim("jacobi", "jacobi", True,
          lambda p, idx, detail: jacobi_residual(
              p.algebra, *_basis_indices(idx, 3, p.algebra.dim))),
    Claim("torsion", "torsion_free", True, _torsion_at),
    Claim("curvature", "flat", True, _curvature_at),
    Claim("codazzi", "codazzi", True, _codazzi_at),
    Claim("positive_definite", "metric_positive", False,
          lambda p, idx, detail: _minor(p.metric.g, idx, detail)),
    Claim("constant_curvature", None, True, _fit_at),
    Claim("nijenhuis", "integrable", True, _nijenhuis_at),
    Claim("d_omega", "omega_closed", True, _d_omega_at),
    Claim("lee_system", "lck", False,
          lambda p, idx, detail: _lee_certificate(p, detail, False)),
    Claim("d_lee", "lee_closed", True, _d_lee_at),
    Claim("lee_closed_system", "lee_closed", False,
          lambda p, idx, detail: _lee_certificate(p, detail, True)),
    Claim("pairing_symmetry", "pairing_positive", True, _pairing_symmetry_at),
    Claim("pairing_positive", "pairing_positive", False, _pairing_minor_at),
)}


class _Pieces:
    """The pieces a claim's recheck reads, by attribute; reading one
    that was not supplied raises MissingPieces naming it."""

    def __init__(self, claim, pieces):
        self._claim, self._pieces = claim, pieces

    def __getattr__(self, name):
        value = self._pieces[name]
        if value is None:
            raise MissingPieces(f"a {self._claim} witness is rechecked from "
                                f"{name}, which was not given", pieces=(name,))
        return value
