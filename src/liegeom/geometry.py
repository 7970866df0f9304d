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
witnesses, False exactly when one of them refutes it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

from .algebra import LieAlgebra, Witness, jacobi_check, jacobi_residual
from .errors import (DimensionMismatch, MissingPieces, NoLeeForm,
                     NotAlmostComplex, ShapeMismatch, UnsupportedDegree)
from .forms import KForm, ce_d
from .tensors import (Infeasible, Tensor, contract, det, leading_minors,
                      null_vector, solve_linear)


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
        self.g.require_pair(0, 1, 1)

    @classmethod
    def from_rows(cls, base, rows):
        return cls(base, Tensor.from_rows(rows))

    @classmethod
    def identity(cls, base):
        n = base.dim
        return cls.from_rows(base, [[1 if i == j else 0 for j in range(n)]
                                    for i in range(n)])

    def is_positive_definite(self):
        return all(m > 0 for m in leading_minors(self.g))


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
        identity = Tensor.from_entries((n, n), {(i, i): 1 for i in range(n)})
        excess = _map_axis(self.j, 1, self.j, 0) + identity
        if not excess.is_zero():
            (i, k), value = excess.entries[0]
            expected = -1 if i == k else 0
            raise NotAlmostComplex(
                f"(J*J)[{i}, {k}] = {value + expected}, expected {expected}")

    @classmethod
    def from_rows(cls, base, rows):
        return cls(base, Tensor.from_rows(rows))


# -- verdict computations --------------------------------------------------

def torsion(connection):
    """T as a (1, 2) tensor: T[i, j, k] is the e_k part of T(e_i, e_j)."""
    L = connection.base
    n = L.dim
    entries = {}
    for (i, j, k), value in connection.gamma.entries:
        entries[i, j, k] = entries.get((i, j, k), 0) + value
        entries[j, i, k] = entries.get((j, i, k), 0) - value
    for idx, value in L.c.entries:
        entries[idx] = entries.get(idx, 0) - value
    return Tensor.from_entries((n, n, n), entries)


def curvature(connection):
    """R as a (1, 3) tensor: R[i, j, k, l] is the e_l part of R(e_i, e_j) e_k.

    R[i, j, k, l] = sum over m of gamma[j, k, m] gamma[i, m, l]
    - gamma[i, k, m] gamma[j, m, l] - c[i, j, m] gamma[m, k, l]; the
    second term is the first with i and j swapped, so one contraction of
    gamma with itself fills both.
    """
    L = connection.base
    n = L.dim
    gamma = connection.gamma.entries
    d1, squares = contract(gamma, 2, gamma, 1)
    d2, brackets = contract(L.c.entries, 2, gamma, 0)
    d = math.lcm(d1, d2)    # both sums as ints over one denominator
    s1, s2 = d // d1, d // d2
    entries = {}
    for (j, k, i, l), v in squares.items():
        v *= s1
        entries[i, j, k, l] = entries.get((i, j, k, l), 0) + v
        entries[j, i, k, l] = entries.get((j, i, k, l), 0) - v
    for idx, v in brackets.items():
        entries[idx] = entries.get(idx, 0) - v * s2
    return Tensor.from_entries((n, n, n, n), {
        idx: Fraction(v, d) for idx, v in entries.items() if v})


def nabla_g(connection, metric):
    """(nabla_{e_i} g)(e_j, e_k) under the invariant-data convention.

    The sum over m of -gamma[i, j, m] g[m, k] - gamma[i, k, m] g[j, m];
    as g is symmetric, the contraction of gamma with g at (i, j, k) fills
    both (i, j, k) and (i, k, j).
    """
    n = connection.base.dim
    d, sums = contract(connection.gamma.entries, 2, metric.g.entries, 0)
    entries = {}
    for (i, j, k), v in sums.items():
        entries[i, j, k] = entries.get((i, j, k), 0) - v
        entries[i, k, j] = entries.get((i, k, j), 0) - v
    return Tensor.from_entries((n, n, n), {
        idx: Fraction(v, d) for idx, v in entries.items() if v})


def codazzi_check(connection, metric):
    """None when nabla g is totally symmetric, else a "codazzi" Witness
    at the first (i, j, k) where it loses symmetry in its first two slots.

    Symmetry in the last two slots is automatic for a symmetric metric,
    so only the (i, j) swap is scanned, in lexicographic order.
    """
    _same_base(connection.base, metric.base)
    ng = nabla_g(connection, metric)
    idx = _first_asymmetry(ng)
    return None if idx is None else _witness("codazzi", ng, idx)


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


def comparison_tensor(metric):
    """K[i, j, k, l] = g[j, k] [l == i] - g[i, k] [l == j], from g alone."""
    n = metric.base.dim
    entries = {}
    for (a, k), value in metric.g.entries:
        for b in range(n):
            if a != b:
                entries[b, a, k, b] = value
                entries[a, b, k, b] = -value
    return Tensor.from_entries((n, n, n, n), entries)


def constant_curvature(connection, metric):
    """Fit one exact c with R = c K, "degenerate" on a singular metric."""
    _same_base(connection.base, metric.base)
    if det(metric.g) == 0:
        return CurvatureFit("degenerate")
    return _curvature_fit(curvature(connection), comparison_tensor(metric))


def _curvature_fit(r, k):
    """Fit R = c K on computed tensors; c is read off K's first nonzero.

    When K vanishes identically the trial constant is 0, so any nonzero
    entry of R is the witness.  Only where R or K is nonzero can the
    residual be, so the scan runs over the union of their supports.
    """
    c = Fraction(0) if k.is_zero() else r[k.entries[0][0]] / k.entries[0][1]
    for idx in sorted({idx for idx, _ in r.entries + k.entries}):
        residual = CLAIMS["constant_curvature"].residual((r, k), idx, (c,))
        if residual != 0:
            return CurvatureFit("none", witness=Witness(
                "constant_curvature", idx, residual, (c,)))
    if k.is_zero():
        return CurvatureFit("underdetermined")
    return CurvatureFit("constant", c)


def _map_axis(t, axis, A, a_axis):
    """t with the matrix A applied along axis: the contraction of t's
    axis with A's a_axis, its index i put back at axis.  a_axis 0 gives
    t times A (the sum over m of t[..., m, ...] A[m, i] at i), a_axis 1
    gives A times t (the sum of A[i, m] t[..., m, ...])."""
    d, sums = contract(t.entries, axis, A.entries, a_axis)
    return Tensor.from_entries(t.shape, {
        key[:axis] + key[-1:] + key[axis:-1]: Fraction(v, d)
        for key, v in sums.items()})


def nijenhuis(L, J):
    """N(X, Y) = [X, Y] + J([JX, Y] + [X, JY]) - [JX, JY] on basis pairs.

    J e_i is the sum over a of J[a, i] e_a, so [J e_i, e_j] is c times J
    along axis 0, and J v is J times v along the output axis.
    """
    _same_base(L, J.base)
    c, j = L.c, J.j
    left = _map_axis(c, 0, j, 0)
    inner = left + _map_axis(c, 1, j, 0)
    return c + _map_axis(inner, 2, j, 1) - _map_axis(left, 1, j, 0)


def pairing_rows(omega, J):
    """The matrix omega(e_i, J e_j), as a rank-2 Tensor."""
    return _map_axis(omega.coefficients, 1, J.j, 0)


# -- the Lee form equation -------------------------------------------------

def lee_form_system(L, omega):
    """Linear system for theta with d(omega) = theta wedge omega.

    Returns (matrix, rhs, triples): one equation per basis triple
    i < j < k in lexicographic order, one column per dual basis covector.
    The row of i < j < k is w[j, k] theta_i - w[i, k] theta_j
    + w[i, j] theta_k, so a component w[a, b] lands at column m of the
    row of {a, b, m}, negated when a < m < b.
    """
    if omega.degree != 2:
        raise UnsupportedDegree("the Lee equation needs a 2-form")
    if omega.dim != L.dim:
        raise DimensionMismatch("form and algebra dimensions differ")
    n = L.dim
    triples = list(itertools.combinations(range(n), 3))
    row_of = {t: r for r, t in enumerate(triples)}
    entries = {}
    for (a, b), value in omega.components():
        for m in set(range(n)) - {a, b}:
            entries[row_of[tuple(sorted((a, b, m)))], m] = (
                -value if a < m < b else value)
    rhs = [Fraction(0)] * len(triples)
    for idx, value in ce_d(L, omega).components():
        rhs[row_of[idx]] = value
    matrix = Tensor.from_entries((len(rhs), n), entries)
    return matrix, rhs, triples


def _closed_system(L, system):
    """A Lee system with one row theta([e_i, e_j]) = 0 per pair i < j,
    i.e. d(theta) = 0, appended below its rows."""
    matrix, rhs, triples = system
    pairs = {p: r for r, p in enumerate(
        itertools.combinations(range(L.dim), 2), len(rhs))}
    entries = dict(matrix.entries)
    entries.update(((pairs[i, j], k), value)
                   for (i, j, k), value in L.c.entries if i < j)
    rhs = list(rhs) + [Fraction(0)] * len(pairs)
    return Tensor.from_entries((len(rhs), L.dim), entries), rhs, triples


def _lee_solve(L, system):
    """(theta, None) for the canonical solution, (None, certificate) if none."""
    solved = solve_linear(*system[:2])
    if isinstance(solved, Infeasible):
        return None, solved
    values = {(i,): v for i, v in enumerate(solved.values) if v != 0}
    return KForm.from_components(L.dim, 1, values), None


def lee_form_solve(L, omega):
    """The canonical solution theta of d(omega) = theta wedge omega.

    Free variables are pinned to zero with pivots chosen in dual basis
    order, so the answer is deterministic.  Returns None when the system
    is inconsistent.
    """
    theta, _ = _lee_solve(L, lee_form_system(L, omega))
    return theta


# -- the claims ------------------------------------------------------------
#
# A witness names a claim, an index tuple and a detail.  Its residual is
# read off one object (a tensor, a matrix, a linear system) by
# the claim's residual function.  classify applies that function to the
# object it has just computed; witness_residual rebuilds the object from
# the raw pieces with the claim's measure and applies the same function.

def _swap_residual(t, idx, detail):
    """t at idx minus t with the first two indices of idx swapped."""
    return t[idx] - t[(idx[1], idx[0]) + idx[2:]]


def _first_asymmetry(t):
    """The lexicographically first index with i < j in its first two
    places at which _swap_residual is nonzero, else None; only where an
    entry is set can it be."""
    candidates = {(min(idx[:2]), max(idx[:2])) + idx[2:]
                  for idx, _ in t.entries if idx[0] != idx[1]}
    return next((idx for idx in sorted(candidates)
                 if _swap_residual(t, idx, ())), None)


def _slice(t, idx, detail):
    """The last-axis vector of t at the leading indices idx."""
    return tuple(t[idx + (m,)] for m in range(t.shape[-1]))


def _entry(t, idx, detail):
    return t[idx]


def _basis_indices(idx, arity, dim):
    """idx as arity basis positions below dim, else ShapeMismatch."""
    if len(idx) != arity or not all(0 <= i < dim for i in idx):
        raise ShapeMismatch(
            f"witness indices {idx} are not {arity} positions below {dim}")
    return idx


def _minor(matrix, idx, detail):
    """Leading minor idx[0] of matrix; a nonempty detail must be a kernel
    vector of the leading block of that size, padded with zeros."""
    minors = leading_minors(matrix)
    k = idx[0] if len(idx) == 1 else 0
    if not 1 <= k <= len(minors):
        raise ShapeMismatch(f"no leading minor {idx} up to the first zero one")
    if detail and (len(detail) != matrix.shape[1] or any(detail[k:])
                   or not any(detail)
                   or any(i < k for i, in _image(matrix, detail, 1))):
        raise ShapeMismatch(
            f"detail is no zero-padded kernel vector of the {k}x{k} block")
    return minors[k - 1]


def _image(matrix, x, axis):
    """The support of the sequence x contracted with one axis of matrix,
    as the keys (i,) of A x for axis 1, of x A for axis 0."""
    return contract(matrix.entries, axis, Tensor.from_entries(
        (len(x),), {(i,): v for i, v in enumerate(x)}).entries, 0)[1]


def _fitted(detail):
    """The fitted constant a constant_curvature witness carries."""
    if len(detail) != 1:
        raise ShapeMismatch("a curvature fit witness carries one constant")
    return detail[0]


def _certificate(system, idx, detail):
    """y . rhs for a combination y = detail with y . matrix = 0."""
    matrix, rhs, _ = system
    if len(detail) != matrix.shape[0]:
        raise ShapeMismatch("combination length does not match the system")
    if _image(matrix, detail, 0):
        raise ShapeMismatch("combination is not a left null vector")
    return sum((y * b for y, b in zip(detail, rhs)), Fraction(0))


@dataclass(frozen=True)
class Claim:
    """One claim: the flag its witnesses refute, which VERDICTS reads
    (None for the curvature fit), whether witness indices are basis
    positions, the measure rebuilding its object from raw pieces, and
    the residual function reading a witness off that object."""

    name: str
    flag: str | None
    labelled: bool
    measure: object
    residual: object


CLAIMS = {claim.name: claim for claim in (
    Claim("jacobi", "jacobi", True, lambda p: p.algebra,
          lambda L, idx, detail: jacobi_residual(
              L, *_basis_indices(idx, 3, L.dim))),
    Claim("torsion", "torsion_free", True,
          lambda p: torsion(p.connection), _slice),
    Claim("curvature", "flat", True,
          lambda p: curvature(p.connection), _slice),
    Claim("codazzi", "codazzi", True,
          lambda p: nabla_g(p.connection, p.metric),
          _swap_residual),
    Claim("positive_definite", "metric_positive", False,
          lambda p: p.metric.g, _minor),
    Claim("constant_curvature", None, True,
          lambda p: (curvature(p.connection), comparison_tensor(p.metric)),
          lambda rk, idx, detail: rk[0][idx] - _fitted(detail) * rk[1][idx]),
    Claim("nijenhuis", "integrable", True,
          lambda p: nijenhuis(p.algebra, p.complex_structure), _slice),
    Claim("d_omega", "omega_closed", True,
          lambda p: ce_d(p.algebra, p.omega).coefficients,
          _entry),
    Claim("lee_system", "lck", False,
          lambda p: lee_form_system(p.algebra, p.omega),
          _certificate),
    Claim("d_lee", "lee_closed", True,
          lambda p: ce_d(p.algebra, p.lee_form).coefficients,
          _entry),
    Claim("lee_closed_system", "lee_closed", False,
          lambda p: _closed_system(
              p.algebra, lee_form_system(p.algebra, p.omega)),
          _certificate),
    Claim("pairing_symmetry", "pairing_positive", True,
          lambda p: pairing_rows(p.omega, p.complex_structure),
          _swap_residual),
    Claim("pairing_positive", "pairing_positive", False,
          lambda p: pairing_rows(p.omega, p.complex_structure), _minor),
)}


def _witness(claim, obj, indices, detail=()):
    """A witness whose residual is read off the computed object obj."""
    return Witness(claim, indices,
                   CLAIMS[claim].residual(obj, indices, detail), detail)


def _nonzero(claim, t, lead):
    """None for a zero tensor t, else a witness at the first lead indices
    of its first nonzero entry."""
    return None if t.is_zero() else _witness(claim, t, t.entries[0][0][:lead])


def _positive(claim, matrix, minors, kernel=False):
    """None when every leading minor of matrix is positive, else a witness
    at the first that is not; with kernel, a zero minor's witness carries
    a kernel vector of its leading block, padded with zeros."""
    k = next((k for k, m in enumerate(minors, 1) if m <= 0), None)
    if k is None:
        return None
    detail = ()
    if kernel and minors[k - 1] == 0:
        block = Tensor.from_entries((k, k), {
            idx: v for idx, v in matrix.entries if max(idx) < k})
        detail = null_vector(block) + (Fraction(0),) * (matrix.shape[0] - k)
    return _witness(claim, matrix, (k,), detail)


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

    if connection is not None:
        _same_base(L, connection.base)
        witnesses.append(_nonzero("torsion", torsion(connection), 2))
        r = curvature(connection)
        witnesses.append(_nonzero("curvature", r, 3))

    if metric is not None:
        _same_base(L, metric.base)
        minors = leading_minors(metric.g)
        witnesses.append(_positive("positive_definite", metric.g, minors,
                                   kernel=True))

    if connection is not None and metric is not None:
        witnesses.append(codazzi_check(connection, metric))
        # the leading minors end in det g unless they stop short of it
        # at a zero one; only then is g eliminated a second time
        full = minors and len(minors) == L.dim
        if (minors[-1] if full else det(metric.g)) == 0:
            fit = CurvatureFit("degenerate")
        else:
            fit = _curvature_fit(r, comparison_tensor(metric))
        witnesses.append(fit.witness)

    if complex_structure is not None:
        _same_base(L, complex_structure.base)
        witnesses.append(_nonzero(
            "nijenhuis", nijenhuis(L, complex_structure), 2))

    if omega is not None:
        if omega.degree != 2:
            raise UnsupportedDegree("classification expects a 2-form")
        if omega.dim != L.dim:
            raise DimensionMismatch("form and algebra dimensions differ")
        witnesses.append(_nonzero("d_omega", ce_d(L, omega).coefficients, 3))

        system = lee_form_system(L, omega)
        lee_form, certificate = _lee_solve(L, system)
        if lee_form is None:
            witnesses.append(_witness(
                "lee_system", system, (), certificate.combination))
        else:
            d_theta = ce_d(L, lee_form).coefficients
            if not d_theta.is_zero():
                joint = _closed_system(L, system)
                closed, joint_cert = _lee_solve(L, joint)
                if closed is None:
                    witnesses += [_nonzero("d_lee", d_theta, 2), _witness(
                        "lee_closed_system", joint, (),
                        joint_cert.combination)]
                else:
                    lee_form = closed

        if complex_structure is not None:
            pairing = pairing_rows(omega, complex_structure)
            asym = _first_asymmetry(pairing)
            witnesses.append(
                _positive("pairing_positive", pairing,
                          leading_minors(pairing)) if asym is None
                else _witness("pairing_symmetry", pairing, asym))

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


def _same_base(L, other):
    if L != other:
        raise DimensionMismatch("pieces are bound to different algebras")


# -- witness re-evaluation -------------------------------------------------

def witness_residual(witness, *, algebra=None, connection=None, metric=None,
                     complex_structure=None, omega=None, lee_form=None):
    """Recompute the quantity a witness points at, from scratch.

    The claim's object is rebuilt from the raw pieces and its residual
    read off with the function classify used.  The result equals the
    stored residual for a truthful report, and a nonzero value
    demonstrates the failed claim.
    """
    claim = CLAIMS.get(witness.claim)
    if claim is None:
        raise ShapeMismatch(f"unknown witness claim {witness.claim!r}")
    pieces = _Pieces(witness.claim, dict(
        algebra=algebra, connection=connection, metric=metric,
        complex_structure=complex_structure, omega=omega, lee_form=lee_form))
    return claim.residual(claim.measure(pieces), tuple(witness.indices),
                          tuple(witness.detail))


class _Pieces:
    """The pieces a claim's measure reads, by attribute; reading one
    that was not supplied raises MissingPieces naming it."""

    def __init__(self, claim, pieces):
        self._claim, self._pieces = claim, pieces

    def __getattr__(self, name):
        value = self._pieces[name]
        if value is None:
            raise MissingPieces(f"a {self._claim} witness is rechecked from "
                                f"{name}, which was not given", pieces=(name,))
        return value
