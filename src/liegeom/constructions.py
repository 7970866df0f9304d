"""Constructions that manufacture new structures from verified ones.

  * double: the semidirect sum of an algebra with a second copy of
    itself acted on through a connection, carrying the standard complex
    structure that swaps the copies; whether its bracket satisfies
    Jacobi is left to jacobi_check or classify.
  * kahler_form_from_hessian: the closed positive pairing form the
    double of a flat statistical (Hessian) structure carries.
  * cone_extend: the one-dimension-higher algebra with a radiant vector
    rho, whose connection absorbs constant curvature c into the rho
    direction and comes out flat and torsion free.
  * lck_family: the one-parameter family omega_t on the double of a
    cone, with Lee form -(1 + c t) rho^1 as classify solves it; the t
    where 1 + c t = 0 is the Kahler member.
  * solve_lambda: exact roots of c L^2 - 2 L + 1 = 0, rational when the
    discriminant is a rational square and an explicit surd pair
    otherwise.
  * extract_statistical: the inverse of cone_extend.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .algebra import LieAlgebra
from .errors import (CurvatureMismatch, DimensionMismatch, MissingRadiant,
                     NonPositiveT, NoRealSolution, NotConical, NotHessian,
                     NotStatistical, UnderdeterminedCurvature, ZeroCurvature)
from .forms import KForm, dual_form
from .geometry import (ComplexStructure, Connection, Metric, StructureReport,
                       classify)
from .tensors import Tensor, _as_q


@dataclass(frozen=True)
class DoubledAlgebra:
    """L acting on a second copy of itself through a connection.

    Basis order is the first copy then the second, labels suffixed 1
    and 2.  The candidate bracket satisfies Jacobi exactly when the
    connection is flat; nothing here assumes or records that verdict,
    which classify or jacobi_check on algebra decides.
    """

    algebra: LieAlgebra
    complex_structure: ComplexStructure


def double(L, connection):
    """Semidirect double of (L, connection) with its standard j."""
    if connection.base != L:
        raise DimensionMismatch("connection is bound to a different algebra")
    n = L.dim
    labels = tuple(x + "1" for x in L.basis_labels) + tuple(
        x + "2" for x in L.basis_labels)
    half = L.half.entries + tuple(
        ((i, n + j, n + k), value)
        for (i, j, k), value in connection.gamma.entries)
    algebra = LieAlgebra(2 * n, labels, Tensor._trusted((2 * n,) * 3, half))
    j = ComplexStructure(algebra, Tensor._trusted((2 * n, 2 * n), [
        pair for i in range(n)
        for pair in (((n + i, i), Fraction(1)), ((i, n + i), Fraction(-1)))]))
    return DoubledAlgebra(algebra, j)


def _pairing_form(metric):
    """The 2-form on the double of g's base with omega(X + 0, 0 + Y) =
    g(X, Y), zero on pairs from the same copy."""
    n = metric.g.shape[0]
    return KForm(2, Tensor._trusted((2 * n, 2 * n), [
        ((i, n + j), value) for (i, j), value in metric.g.entries]))


@dataclass(frozen=True)
class HessianKahlerResult:
    double: DoubledAlgebra
    omega: KForm
    report: StructureReport


def kahler_form_from_hessian(L, connection, metric):
    """Pairing form of the double of a flat statistical structure.

    omega(X + 0, 0 + Y) = g(X, Y) and omega vanishes on pairs from the
    same copy.  The report certifies closedness, integrability and
    positivity of omega(., j .); the preconditions (flat, torsion free,
    Codazzi symmetric, positive definite) raise NotHessian naming the
    first failed verdict.
    """
    state = classify(L, connection=connection, metric=metric)
    for name in ("jacobi", "torsion_free", "flat", "codazzi",
                 "metric_positive"):
        if not state.flag(name):
            raise NotHessian(f"not a Hessian structure: {name} fails")
    dbl = double(L, connection)
    omega = _pairing_form(metric)
    report = classify(dbl.algebra, complex_structure=dbl.complex_structure,
                      omega=omega)
    return HessianKahlerResult(dbl, omega, report)


# -- the quadratic for the cone generator ----------------------------------

@dataclass(frozen=True)
class SurdPair:
    """The two real roots (p + sqrt(d)) / q and (p - sqrt(d)) / q.

    Stored with integer p, q and positive non-square d, q positive.
    """

    p: int
    d: int
    q: int


def solve_lambda(c):
    """Real solutions of c L^2 - 2 L + 1 = 0 with L not in {0, 1/2}.

    Rational roots come back as a sorted tuple of Fractions; an
    irrational pair comes back as a SurdPair.  c = 0 raises
    ZeroCurvature and a negative discriminant raises NoRealSolution.
    """
    c = _as_q(c)
    if c == 0:
        raise ZeroCurvature("the quadratic degenerates for curvature zero")
    if 1 - c < 0:
        raise NoRealSolution(f"discriminant 1 - c = {1 - c} is negative")
    a, b = c.numerator, c.denominator
    d = b * (b - a)
    root = math.isqrt(d)
    if root * root == d:
        values = {Fraction(b + root, a), Fraction(b - root, a)}
        values -= {Fraction(0), Fraction(1, 2)}
        return tuple(sorted(values))
    p, q = b, a
    if q < 0:
        p, q = -p, -q
    return SurdPair(p, d, q)


# -- cone extension --------------------------------------------------------

@dataclass(frozen=True)
class ConeExtension:
    """A statistical base together with its radiant direction rho.

    The report certifies the cone connection flat and torsion free on a
    bracket that still satisfies Jacobi.
    """

    algebra: LieAlgebra
    nabla: Connection
    rho_index: int
    c: Fraction
    base_metric: Metric
    report: StructureReport

    def metric(self, t):
        """g extended by t > 0 on the rho direction (zero across)."""
        t = _as_q(t)
        if t <= 0:
            raise NonPositiveT(f"the cone metric needs t > 0, got {t}")
        n, r = self.algebra.dim, self.rho_index
        return Metric(self.algebra, Tensor._trusted(
            (n, n), self.base_metric.g.entries + (((r, r), t),)))


def _fresh_label(taken, stem="rho"):
    if stem not in taken:
        return stem
    k = 0
    while f"{stem}{k}" in taken:
        k += 1
    return f"{stem}{k}"


def cone_extend(L, connection, metric, c=None):
    """Extend a statistical structure of constant curvature c by a cone.

    The new algebra is the product with a central rho; the connection is
    nabla_X Y = D_X Y - c g(X, Y) rho on the base, with rho acting as
    the identity.  c may be omitted when the base determines it; a
    supplied c is cross-checked unless the fit is underdetermined.
    """
    c = None if c is None else _as_q(c)
    state = classify(L, connection=connection, metric=metric)
    for name in ("jacobi", "torsion_free", "codazzi", "metric_positive"):
        if not state.flag(name):
            raise NotStatistical(f"not a statistical structure: {name} fails")
    fit = state.constant_curvature
    if fit.kind == "none":
        raise CurvatureMismatch("no constant curvature fits the base")
    if fit.kind == "underdetermined":
        if c is None:
            raise UnderdeterminedCurvature(
                "the base determines no curvature; supply c explicitly")
    else:
        if c is None:
            c = fit.value
        elif c != fit.value:
            raise CurvatureMismatch(
                f"declared curvature {c} but the base has {fit.value}")

    n = L.dim
    r = n
    labels = L.basis_labels + (_fresh_label(set(L.basis_labels)),)
    shape = (n + 1,) * 3
    algebra = LieAlgebra(n + 1, labels, Tensor._trusted(shape, L.half.entries))

    gamma = dict(connection.gamma.entries)
    for (i, j), value in metric.g.entries:
        gamma[(i, j, r)] = -c * value
    for i in range(n):
        gamma[(i, r, i)] = Fraction(1)
        gamma[(r, i, i)] = Fraction(1)
    gamma[(r, r, r)] = Fraction(1)
    cone_nabla = Connection(algebra, Tensor._trusted(shape, gamma.items()))

    report = classify(algebra, connection=cone_nabla)
    if not (report.is_jacobi and report.is_torsion_free and report.is_flat):
        raise RuntimeError("cone construction lost flatness; this is a bug")
    return ConeExtension(algebra, cone_nabla, r, c, metric, report)


# -- the locally conformally Kahler family ---------------------------------

@dataclass(frozen=True)
class LckFamily:
    """omega_t on the double of the cone, with its Lee form."""

    double: DoubledAlgebra
    omega: KForm
    lee_form: KForm
    report: StructureReport
    cone: ConeExtension
    c: Fraction
    t: Fraction


def lck_family(L, connection, metric, c, t):
    """Build omega_t = omega + t rho^1 ^ rho^2 on the double of the cone.

    t must be positive.  The verified Lee form is -(1 + c t) rho^1, so
    the member is Kahler exactly when 1 + c t = 0.  As g is positive
    definite and t > 0, omega_t is nondegenerate on a double of
    dimension at least 4, so the Lee equation has one solution and the
    report's Lee form is -(1 + c t) rho^1 exactly when the identity
    holds.
    """
    t = _as_q(t)
    if t <= 0:
        raise NonPositiveT(f"the family needs t > 0, got {t}")
    cone = cone_extend(L, connection, metric, c)
    c = cone.c
    dbl = double(cone.algebra, cone.nabla)
    omega = _pairing_form(cone.metric(t))
    lee = dual_form(dbl.algebra, cone.rho_index).scale(-(1 + c * t))
    report = classify(dbl.algebra, complex_structure=dbl.complex_structure,
                      omega=omega)
    if report.lee_form != lee:
        raise RuntimeError("Lee identity failed on the double; this is a bug")
    return LckFamily(dbl, omega, lee, report, cone, c, t)


# -- inverse of the cone ---------------------------------------------------

def extract_statistical(algebra, nabla, base_metric, rho_index):
    """Recover (D, c) from a cone-shaped (algebra, nabla, g, rho).

    base_metric lives on the base algebra spanned by the non-rho basis
    vectors.  MissingRadiant flags a rho that does not act as the
    radiant identity; NotConical flags everything else that stops the
    data being a cone over a statistical base.
    """
    n1 = algebra.dim
    r = rho_index
    if type(r) is not int or not 0 <= r < n1:
        raise DimensionMismatch(f"rho index {r!r} is no position below {n1}")
    base = [i for i in range(n1) if i != r]
    rho_label = algebra.basis_labels[r]

    names = algebra.basis_labels
    for (i, j, k), _ in algebra.half.entries:
        if r in (i, j):
            raise NotConical(f"[{rho_label}, {names[i + j - r]}] is nonzero")
    for (i, j, k), _ in algebra.half.entries:
        if k == r and r not in (i, j):
            raise NotConical("a base bracket leaves the base subspace at "
                             f"({names[i]}, {names[j]})")

    gamma = nabla.gamma
    for i in base:
        for k in range(n1):
            expected = Fraction(1 if k == i else 0)
            if gamma[i, r, k] != expected:
                raise MissingRadiant(
                    f"nabla_{algebra.basis_labels[i]} {rho_label} is not "
                    f"{algebra.basis_labels[i]}")
            if gamma[r, i, k] != expected:
                raise MissingRadiant(
                    f"nabla_{rho_label} {algebra.basis_labels[i]} is not "
                    f"{algebra.basis_labels[i]}")
    for k in range(n1):
        if gamma[r, r, k] != Fraction(1 if k == r else 0):
            raise MissingRadiant(f"nabla_{rho_label} {rho_label} is not {rho_label}")

    labels = tuple(algebra.basis_labels[i] for i in base)
    base_algebra = LieAlgebra(len(base), labels, _restrict(algebra.half, base))
    if base_metric.base != base_algebra:
        raise DimensionMismatch(
            "base metric is not bound to the base spanned by the non-rho "
            "vectors")

    curvature_value = None
    g = base_metric.g
    for a, i in enumerate(base):
        for b, j in enumerate(base):
            rho_part = gamma[i, j, r]
            if g[a, b] != 0:
                candidate = -rho_part / g[a, b]
                if curvature_value is None:
                    curvature_value = candidate
                elif candidate != curvature_value:
                    raise NotConical(
                        "the rho component of nabla is not proportional to g")
            elif rho_part != 0:
                raise NotConical(
                    "the rho component of nabla is not proportional to g")
    if curvature_value is None:
        raise NotConical("a zero metric determines no curvature")

    connection = Connection(base_algebra, _restrict(gamma, base))
    return connection, curvature_value


def _restrict(t, base):
    """The rank-3 tensor t on the span of the basis positions in base."""
    n = len(base)
    position = {b: p for p, b in enumerate(base)}
    entries = {tuple(position[i] for i in idx): value
               for idx, value in t.entries if all(i in position for i in idx)}
    return Tensor._trusted((n, n, n), entries.items())
