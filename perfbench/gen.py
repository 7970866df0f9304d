"""Seeded inputs for the dense-documents and lee-systems workloads.

Everything here is plain exact arithmetic over Fraction and imports
nothing from liegeom, so the invariants asserted on the generated
inputs (J^2 = -1, positive leading minors, Jacobi on basis-changed
algebras, failing Jacobi on random brackets, feasible and infeasible
Lee systems) are checked independently of the program under test.
"""

from __future__ import annotations

import itertools
import json
from fractions import Fraction

# Small Lie algebras as {(i, j): {k: value}} with i < j, used as blocks
# of direct sums.  Direct sums keep the bracket sparse and Jacobi-valid.
_BLOCKS = {
    "sl2": (3, {(0, 1): {1: 2}, (0, 2): {2: -2}, (1, 2): {0: 1}}),
    "su2": (3, {(0, 1): {2: 1}, (1, 2): {0: 1}, (0, 2): {1: -1}}),
    "h3": (3, {(0, 1): {2: 1}}),
    "aff1": (2, {(0, 1): {1: 1}}),
    "r1": (1, {}),
}


# -- exact matrices (lists of row lists of Fractions) ----------------------

def identity(n):
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def mat_mul(a, b):
    cols = list(zip(*b))
    return [[sum((x * y for x, y in zip(row, col)), Fraction(0))
             for col in cols] for row in a]


def transpose(a):
    return [list(col) for col in zip(*a)]


def inverse(a):
    """Gauss-Jordan inverse; None when a is singular."""
    n = len(a)
    m = [list(row) + ident for row, ident in zip(a, identity(n))]
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col] != 0), None)
        if piv is None:
            return None
        m[col], m[piv] = m[piv], m[col]
        p = m[col][col]
        m[col] = [x / p for x in m[col]]
        for r in range(n):
            if r != col and m[r][col] != 0:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return [row[n:] for row in m]


def leading_minors(a):
    """Leading principal minors by Bareiss elimination without pivoting.

    Stops at the first zero minor and returns the minors so far.
    """
    n = len(a)
    m = [list(row) for row in a]
    minors = []
    prev = Fraction(1)
    for k in range(n):
        minors.append(m[k][k])
        if m[k][k] == 0:
            return minors
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) / prev
        prev = m[k][k]
    return minors


def rank(rows):
    m = [list(row) for row in rows]
    r = 0
    ncols = len(m[0]) if m else 0
    for col in range(ncols):
        piv = next((i for i in range(r, len(m)) if m[i][col] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(r + 1, len(m)):
            if m[i][col] != 0:
                f = m[i][col] / m[r][col]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        r += 1
    return r


# -- random pieces ---------------------------------------------------------

def rand_q(rng, span=3, dens=(1, 2, 3), nonzero=False):
    while True:
        value = Fraction(rng.randint(-span, span), rng.choice(dens))
        if value != 0 or not nonzero:
            return value


def random_invertible(rng, n):
    """A rational basis change and its inverse."""
    while True:
        p = [[rand_q(rng, 2, (1, 2)) for _ in range(n)] for _ in range(n)]
        pinv = inverse(p)
        if pinv is not None:
            return p, pinv


def block_sum(names):
    """Structure constants c[i][j][k] of a direct sum of _BLOCKS."""
    n = sum(_BLOCKS[name][0] for name in names)
    c = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    base = 0
    for name in names:
        size, table = _BLOCKS[name]
        for (i, j), comp in table.items():
            for k, v in comp.items():
                c[base + i][base + j][base + k] = Fraction(v)
                c[base + j][base + i][base + k] = -Fraction(v)
        base += size
    return c


def random_blocks(rng, n):
    """Seeded choice of blocks summing to dimension n, at least one
    non-abelian."""
    while True:
        names = []
        left = n
        while left:
            fits = [b for b, (s, _) in _BLOCKS.items() if s <= left]
            name = rng.choice(fits)
            names.append(name)
            left -= _BLOCKS[name][0]
        if any(name != "r1" for name in names):
            return names


def change_basis(c, p, pinv):
    """Constants of the basis f_a = sum_i p[a][i] e_i."""
    n = len(c)
    # x[a][b][k] = sum_ij p[a][i] p[b][j] c[i][j][k]
    half = [[[sum((p[b][j] * c[i][j][k] for j in range(n) if p[b][j]),
                  Fraction(0)) for k in range(n)]
             for b in range(n)] for i in range(n)]
    out = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    for a in range(n):
        for b in range(n):
            x = [sum((p[a][i] * half[i][b][k] for i in range(n) if p[a][i]),
                     Fraction(0)) for k in range(n)]
            for cc in range(n):
                out[a][b][cc] = sum((x[k] * pinv[k][cc] for k in range(n)),
                                    Fraction(0))
    return out


def random_brackets(rng, n):
    c = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    for i, j in itertools.combinations(range(n), 2):
        for k in range(n):
            v = rand_q(rng, 2, (1,))
            c[i][j][k] = v
            c[j][i][k] = -v
    return c


def jacobi_residual(c, i, j, k):
    """[[e_i, e_j], e_k] + [[e_j, e_k], e_i] + [[e_k, e_i], e_j]."""
    n = len(c)
    return [sum((c[i][j][p] * c[p][k][m] + c[j][k][p] * c[p][i][m]
                 + c[k][i][p] * c[p][j][m] for p in range(n)), Fraction(0))
            for m in range(n)]


def jacobi_holds(c):
    return not any(any(jacobi_residual(c, i, j, k))
                   for i, j, k in itertools.combinations(range(len(c)), 3))


def random_two_form(rng, n):
    return {(i, j): rand_q(rng, 3, (1, 2), nonzero=True)
            for i, j in itertools.combinations(range(n), 2)}


def form_matrix(w, n):
    m = [[Fraction(0)] * n for _ in range(n)]
    for (i, j), v in w.items():
        m[i][j] = v
        m[j][i] = -v
    return m


def d_two_form(c, w):
    """Chevalley differential of a 2-form {(i, j): v}, i < j."""
    n = len(c)
    wm = form_matrix(w, n)
    out = {}
    for i, j, k in itertools.combinations(range(n), 3):
        v = sum((-c[i][j][m] * wm[m][k] + c[i][k][m] * wm[m][j]
                 - c[j][k][m] * wm[m][i] for m in range(n)), Fraction(0))
        if v:
            out[(i, j, k)] = v
    return out


def wedge_one_two(theta, w, n):
    """theta ^ w as {(i, j, k): v} for a 1-form list theta."""
    wm = form_matrix(w, n)
    out = {}
    for i, j, k in itertools.combinations(range(n), 3):
        v = theta[i] * wm[j][k] - theta[j] * wm[i][k] + theta[k] * wm[i][j]
        if v:
            out[(i, j, k)] = v
    return out


def lee_rows(c, w):
    """The Lee system d(w) = theta ^ w as (rows, rhs), triples in order."""
    n = len(c)
    wm = form_matrix(w, n)
    d = d_two_form(c, w)
    rows, rhs = [], []
    for i, j, k in itertools.combinations(range(n), 3):
        row = [Fraction(0)] * n
        row[i] += wm[j][k]
        row[j] -= wm[i][k]
        row[k] += wm[i][j]
        rows.append(row)
        rhs.append(d.get((i, j, k), Fraction(0)))
    return rows, rhs


def conjugated_j(rng, n):
    """S J0 S^-1 for the standard J0 that swaps the two halves."""
    m = n // 2
    j0 = [[Fraction(0)] * n for _ in range(n)]
    for i in range(m):
        j0[m + i][i] = Fraction(1)
        j0[i][m + i] = Fraction(-1)
    s, sinv = random_invertible(rng, n)
    return mat_mul(mat_mul(s, j0), sinv)


def pd_metric(rng, n, span=2):
    a = [[rand_q(rng, span, (1, 2)) for _ in range(n)] for _ in range(n)]
    g = mat_mul(a, transpose(a))
    for i in range(n):
        g[i][i] += 1
    return g


def indefinite_metric(rng, n):
    """Nondegenerate symmetric metric whose first leading minor is 0."""
    while True:
        g = pd_metric(rng, n)
        g[0][0] = Fraction(0)
        if g[0][1:] != [0] * (n - 1) and rank(g) == n:
            return g


# -- documents -------------------------------------------------------------

def _q(v):
    return str(v.numerator) if v.denominator == 1 else str(v)


def document_text(c, gamma=None, metric=None, j=None, forms=()):
    """A liegeom document (format_version 1) as JSON text."""
    n = len(c)
    doc = {
        "format_version": 1,
        "dim": n,
        "basis": [f"e{i + 1}" for i in range(n)],
        "brackets": [[i, j, k, _q(c[i][j][k])]
                     for i, j in itertools.combinations(range(n), 2)
                     for k in range(n) if c[i][j][k]],
    }
    if gamma is not None:
        doc["connection"] = [[i, j, k, _q(gamma[i][j][k])]
                             for i in range(n) for j in range(n)
                             for k in range(n) if gamma[i][j][k]]
    if metric is not None:
        doc["metric"] = [[i, j, _q(metric[i][j])] for i in range(n)
                         for j in range(i, n) if metric[i][j]]
    if j is not None:
        doc["complex_structure"] = [[i, k, _q(j[i][k])] for i in range(n)
                                    for k in range(n) if j[i][k]]
    if forms:
        doc["forms"] = [{"name": name, "degree": len(next(iter(w))),
                         "entries": [[*idx, _q(v)] for idx, v in
                                     sorted(w.items())]}
                        for name, w in forms]
    return json.dumps(doc, sort_keys=True, indent=1)


def dense_document(rng, n, jacobi_valid, indefinite=False):
    """One dense-documents input and the facts the oracle needs.

    Jacobi-valid algebras are direct sums of small algebras written in a
    random rational basis; the rest are random brackets that fail Jacobi
    at the first triple.
    """
    residual = None
    if jacobi_valid:
        p, pinv = random_invertible(rng, n)
        c = change_basis(block_sum(random_blocks(rng, n)), p, pinv)
        if not jacobi_holds(c):
            raise AssertionError("basis change broke the Jacobi identity")
    else:
        while True:
            c = random_brackets(rng, n)
            residual = jacobi_residual(c, 0, 1, 2)
            if any(residual):
                break
    gamma = [[[rand_q(rng, 2, (1, 2)) for _ in range(n)] for _ in range(n)]
             for _ in range(n)]
    g = indefinite_metric(rng, n) if indefinite else pd_metric(rng, n)
    minors = leading_minors(g)
    if indefinite == all(m > 0 for m in minors):
        raise AssertionError("metric positivity does not match its share")
    j = conjugated_j(rng, n)
    if mat_mul(j, j) != [[-x for x in row] for row in identity(n)]:
        raise AssertionError("generated J does not square to -1")
    # omega(e_i, J e_j) is kept asymmetric, so the lck claim fails on the
    # pairing: every document is an exit-1 job with witnesses
    while True:
        omega = random_two_form(rng, n)
        pairing = mat_mul(form_matrix(omega, n), j)
        if pairing != transpose(pairing):
            break
    text = document_text(c, gamma, g, j, (("omega", omega),))
    return text, {"dim": n, "jacobi": jacobi_valid, "jacobi_residual": residual,
                  "positive": not indefinite}


# -- Lee systems -----------------------------------------------------------

def heisenberg_line(m):
    """R x h_{2m+1} with basis x1..xm, y1..ym, z, t and [x_i, y_i] = z."""
    n = 2 * m + 2
    c = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    for i in range(m):
        c[i][m + i][2 * m] = Fraction(1)
        c[m + i][i][2 * m] = Fraction(-1)
    return c


def _automorphism(rng, m):
    """Basis change f_a = e_a + alpha_a t + beta_a z on the x, y part and
    t -> t + gamma z: it fixes every bracket of R x h_{2m+1}, so the
    algebra stays sparse while forms written in the new basis turn dense.
    """
    n = 2 * m + 2
    z, t = 2 * m, 2 * m + 1
    p = identity(n)
    for a in range(2 * m):
        p[a][t] = rand_q(rng, 2, (1,), nonzero=True)
        p[a][z] = rand_q(rng, 2, (1,), nonzero=True)
    p[t][z] = rand_q(rng, 2, (1,), nonzero=True)
    return p, inverse(p)


def _transform_two_form(w, p, n):
    wm = mat_mul(mat_mul(p, form_matrix(w, n)), transpose(p))
    return {(i, j): wm[i][j] for i, j in itertools.combinations(range(n), 2)
            if wm[i][j]}


def lee_feasible(rng, m):
    """(c, omega, theta) with d(omega) = theta ^ omega, omega nondegenerate.

    omega = sum x^i ^ y^i + t^* ^ z^* + d_theta(beta) for theta = t^*, a
    Vaisman-type pair, then rewritten through an automorphism.
    """
    n = 2 * m + 2
    z, t = 2 * m, 2 * m + 1
    c = heisenberg_line(m)
    theta = [Fraction(0)] * n
    theta[t] = Fraction(1)
    while True:
        w = {(i, m + i): Fraction(1) for i in range(m)}
        w[(z, t)] = Fraction(-1)
        beta = [rand_q(rng, 2, (1,)) for _ in range(n)]
        # d_theta(beta) = d(beta) - theta ^ beta, d(beta)(a, b) = -beta([a, b])
        for a, b in itertools.combinations(range(n), 2):
            v = -sum((c[a][b][k] * beta[k] for k in range(n)), Fraction(0))
            v -= theta[a] * beta[b] - theta[b] * beta[a]
            if v:
                w[(a, b)] = w.get((a, b), Fraction(0)) + v
        w = {idx: v for idx, v in w.items() if v}
        if rank(form_matrix(w, n)) == n:
            break
    p, pinv = _automorphism(rng, m)
    if change_basis(c, p, pinv) != c:
        raise AssertionError("the basis change is not an automorphism")
    w = _transform_two_form(w, p, n)
    theta = [sum((p[a][i] * theta[i] for i in range(n)), Fraction(0))
             for a in range(n)]
    if d_two_form(c, w) != wedge_one_two(theta, w, n):
        raise AssertionError("generated Lee pair misses d(omega) = theta ^ omega")
    if rank(form_matrix(w, n)) < n:
        raise AssertionError("an automorphism made omega degenerate")
    return c, w, theta


def lee_infeasible(rng, m):
    """(c, omega) over R x h_{2m+1} whose Lee system has no solution."""
    c = heisenberg_line(m)
    n = len(c)
    while True:
        w = random_two_form(rng, n)
        rows, rhs = lee_rows(c, w)
        if rank([r + [b] for r, b in zip(rows, rhs)]) > rank(rows):
            return c, w
