"""A change-of-basis oracle for the three row-block scans.

Take the new basis f_a = sum over i of P[i][a] e_i, with P rational and
invertible and Q its inverse.  Every claim is tensorial, so in the new
frame

  c'[a, b, k] = sum P[i][a] P[j][b] c[i, j, l] Q[k][l], and gamma too;
  J'          = Q J P, with j[i, k] the e_i coefficient of J e_k;
  T' and N'   follow c's law.

The laws are written here once, on plain {index: Fraction} dicts, and
call no liegeom kernel.  The Jacobi, torsion and Nijenhuis verdicts must
agree in both frames, every witness must recheck in its own frame, and
the tensors T and N must follow the law.  A kernel reading an index in
the wrong slot, J transposed say, is no tensor and breaks the law; a
sign flip or a dropped term is a tensor too and passes (the
differential tests catch those).
"""

from fractions import Fraction

from hypothesis import Phase, given, settings, strategies as st

from liegeom import (ComplexStructure, Connection, LieAlgebra, Tensor,
                     classify, double, get_example, nijenhuis, torsion,
                     witness_residual)

Q = Fraction

# Lie algebras of dim 2 and 3, padded with central directions: the
# clan, su2 and the Heisenberg algebra
LIE = (((0, 1, 1, 2),), ((0, 1, 2, 2), (1, 2, 0, 2), (0, 2, 1, -2)),
       ((0, 1, 2, 1),))
SMALL = st.integers(-2, 2)
# a broken kernel fails at once, not after minutes of shrinking
UNSHRUNK = [phase for phase in Phase if phase is not Phase.shrink]


def inverse(m):
    """The inverse of the square matrix m by Gauss-Jordan, None when m is
    singular."""
    n = len(m)
    a = [[Q(x) for x in row] + [Q(i == j) for j in range(n)]
         for i, row in enumerate(m)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col]), None)
        if pivot is None:
            return None
        a[col], a[pivot] = a[pivot], a[col]
        a[col] = [x / a[col][col] for x in a[col]]
        for r in range(n):
            if r != col and a[r][col]:
                a[r] = [x - a[r][col] * y for x, y in zip(a[r], a[col])]
    return [row[n:] for row in a]


def transformed(t, slots, P, Qm):
    """t ({index: Fraction}) in the new frame: each lower slot ("l") read
    against P, each upper one ("u") against Q, one axis at a time."""
    n = len(P)
    for axis, slot in enumerate(slots):
        out = {}
        for idx, v in t.items():
            i = idx[axis]
            for a in range(n):
                m = P[i][a] if slot == "l" else Qm[a][i]
                if m:
                    key = idx[:axis] + (a,) + idx[axis + 1:]
                    out[key] = out.get(key, 0) + m * v
        t = {idx: v for idx, v in out.items() if v}
    return t


def full(t):
    return dict(t.entries)


@st.composite
def invertible(draw, n):
    """A matrix with entries in -2..2, redrawn while it is singular."""
    rows = st.lists(st.lists(SMALL, min_size=n, max_size=n),
                    min_size=n, max_size=n)
    return draw(rows.filter(lambda m: inverse(m) is not None))


@st.composite
def pieces(draw):
    """(n, c, gamma, J, P): the dimension, the structure constants as a
    full {(i, j, k): Fraction}, a connection the same way, an almost
    complex structure as {(i, k): Fraction} (None in odd dimension) and
    the change of basis."""
    kind = draw(st.sampled_from(("random", "lie", "double")))
    if kind == "double":    # the catalog's doubles, each J integrable
        entry = get_example(draw(st.sampled_from(
            ("so2", "clan-triangular", "su2", "abelian-n"))))
        dbl = double(entry.algebra, entry.connection)
        n, c, j = dbl.algebra.dim, full(dbl.algebra.c), full(
            dbl.complex_structure.j)
    else:
        n = draw(st.integers(2, 6))
        c = {}
        if kind == "lie":
            for i, jj, k, v in draw(st.sampled_from(
                    [b for b in LIE if max(max(t[:3]) for t in b) < n])):
                c[i, jj, k], c[jj, i, k] = Q(v), Q(-v)
        else:
            for i in range(n):
                for jj in range(i + 1, n):
                    for k in range(n):
                        if v := draw(SMALL):
                            c[i, jj, k], c[jj, i, k] = Q(v), Q(-v)
        j = None
        if n % 2 == 0:      # S J0 S^-1, J0 the standard rotation
            s = draw(invertible(n))
            j0 = {}
            for x in range(0, n, 2):
                j0[x + 1, x], j0[x, x + 1] = Q(1), Q(-1)
            j = transformed(j0, "ul", inverse(s), s)
    # c / 2 is torsion-free, and so is a term added at (x, y, z) and
    # (y, x, z); one added at (x, y, z) alone, x != y, gives torsion
    gamma = {idx: v / 2 for idx, v in c.items()}
    index = st.integers(0, n - 1)
    for x, y, z, v, symmetric in draw(st.lists(st.tuples(
            index, index, index, SMALL, st.booleans()), max_size=4)):
        for key in {(x, y, z), (y, x, z)} if symmetric else {(x, y, z)}:
            gamma[key] = gamma.get(key, 0) + v
    return n, c, gamma, j, draw(invertible(n))


def build(n, c, gamma, j):
    labels = tuple(f"e{i}" for i in range(n))
    L = LieAlgebra(n, labels, Tensor.from_entries(
        (n,) * 3, {idx: v for idx, v in c.items() if idx[0] < idx[1]}))
    D = Connection(L, Tensor.from_entries((n,) * 3, gamma))
    J = None if j is None else ComplexStructure(L, Tensor.from_entries(
        (n, n), j))
    return L, D, J


@settings(max_examples=40, phases=UNSHRUNK)
@given(pieces())
def test_the_scans_commute_with_a_change_of_basis(p):
    n, c, gamma, j, P = p
    Qm = inverse(P)
    old = build(n, c, gamma, j)
    new = build(n, transformed(c, "llu", P, Qm),
                transformed(gamma, "llu", P, Qm),
                None if j is None else transformed(j, "ul", P, Qm))
    reports = []
    for L, D, J in (old, new):
        report = classify(L, connection=D, complex_structure=J)
        for w in report.witnesses:
            assert witness_residual(w, algebra=L, connection=D,
                                    complex_structure=J) == w.residual
        reports.append(report)
    flags = ["jacobi", "torsion_free"] + ["integrable"] * (j is not None)
    assert [reports[0].flag(f) for f in flags] == [
        reports[1].flag(f) for f in flags]
    assert full(torsion(new[1])) == transformed(
        full(torsion(old[1])), "llu", P, Qm)
    if j is not None:
        assert full(nijenhuis(new[0], new[2])) == transformed(
            full(nijenhuis(old[0], old[2])), "llu", P, Qm)
