import random
from fractions import Fraction

import pytest

import reference
from liegeom import (DimensionMismatch, LieAlgebra, Witness, algebra,
                     as_vector, bracket, get_example, jacobi_check,
                     lck_family)

Q = Fraction


def clan():
    return LieAlgebra.from_brackets(("u", "v"), {(0, 1): {1: 2}})


def su2():
    return LieAlgebra.from_brackets(
        ("u", "v", "w"),
        {(0, 1): {2: 2}, (1, 2): {0: 2}, (0, 2): {1: -2}})


def test_from_brackets_fills_antisymmetric_half():
    L = clan()
    assert L.c[0, 1, 1] == 2
    assert L.c[1, 0, 1] == -2


def test_duplicate_labels_rejected():
    with pytest.raises(DimensionMismatch):
        LieAlgebra.abelian(("e", "e"))


def test_bracket_clan():
    L = clan()
    u = L.basis_vector(0)
    v = L.basis_vector(1)
    assert bracket(L, u, v) == (Q(0), Q(2))


def test_bracket_abelian_vanishes():
    L = LieAlgebra.abelian(("x", "y", "z"))
    assert bracket(L, (1, 2, 3), (4, 5, 6)) == (Q(0), Q(0), Q(0))


def test_bracket_su2():
    L = su2()
    assert bracket(L, L.basis_vector(0), L.basis_vector(1)) == (0, 0, 2)
    assert bracket(L, L.basis_vector(1), L.basis_vector(2)) == (2, 0, 0)
    assert bracket(L, L.basis_vector(2), L.basis_vector(0)) == (0, 2, 0)


def test_bracket_bilinear():
    L = su2()
    x = (Q(1), Q(2), Q(0))
    y = (Q(0), Q(1, 2), Q(3))
    z = (Q(-1), Q(0), Q(1))
    left = bracket(L, x, tuple(a + b for a, b in zip(y, z)))
    split = tuple(a + b for a, b in
                  zip(bracket(L, x, y), bracket(L, x, z)))
    assert left == split


def test_bracket_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        bracket(clan(), (1, 0, 0), (0, 1))


def test_as_vector_coerces():
    L = clan()
    assert as_vector(L, [1, "1/2"]) == (Q(1), Q(1, 2))
    with pytest.raises(DimensionMismatch):
        as_vector(L, [1])


def test_jacobi_passes_on_su2_and_abelian():
    assert jacobi_check(su2()) is None
    assert jacobi_check(LieAlgebra.abelian(("a", "b", "c"))) is None


def test_jacobi_violation_witness():
    # [e1,e2]=e1 and [e1,e3]=e3 break the cyclic identity on (e1,e2,e3)
    L = LieAlgebra.from_brackets(
        ("e1", "e2", "e3"), {(0, 1): {0: 1}, (0, 2): {2: 1}})
    assert jacobi_check(L) == Witness("jacobi", (0, 1, 2), (Q(0), Q(0), Q(1)))


def test_jacobi_reports_first_triple():
    L = LieAlgebra.from_brackets(
        ("a", "b", "c", "d"),
        {(1, 2): {1: 1}, (1, 3): {3: 1}})
    assert jacobi_check(L).indices == (1, 2, 3)


def _count_jacobi_blocks(monkeypatch):
    """Wrap the Jacobi block kernel so that each block read is counted."""
    reads = []

    def counted(L, kernel=algebra._jacobi_blocks):
        block = kernel(L)

        def read(i):
            reads.append(i)
            return block(i)

        return read

    monkeypatch.setattr(algebra, "_jacobi_blocks", counted)
    return reads


def test_jacobi_check_stops_at_the_first_failing_block(monkeypatch):
    # a dense dim-12 bracket fails at (0, 1, 2), so only the block of
    # leading index 0 is summed; its residual is the reference's
    rng = random.Random(11)
    values = [Q(1, 2), Q(-3, 5), Q(2, 7), Q(-1), Q(3)]
    n = 12
    L = LieAlgebra.from_brackets(
        tuple(f"e{i}" for i in range(n)),
        {(i, j): {k: rng.choice(values) for k in range(n)}
         for i in range(n) for j in range(i + 1, n)})
    reads = _count_jacobi_blocks(monkeypatch)
    witness = jacobi_check(L)
    assert reads == [0]
    assert witness == reference.jacobi_check(L)
    assert witness.indices == (0, 1, 2)


def test_jacobi_check_sums_every_block_of_a_passing_algebra(monkeypatch):
    # su2's l.c.K. family lives on the double of a flat, torsion-free
    # cone, which holds Jacobi: each block i < n - 2 is read once
    entry = get_example("su2")
    L = lck_family(entry.algebra, entry.connection, entry.metric,
                   c=None, t=1).double.algebra
    reads = _count_jacobi_blocks(monkeypatch)
    assert jacobi_check(L) is None
    assert reads == list(range(L.dim - 2))
