"""Lie algebras with involutions and the constructions that tie them to
Lie triple systems.

A Lie algebra lives here as a rank-3 structure tensor: tensor[i, j, k] is the
k-th coordinate of the commutator of the i-th and j-th basis vectors.  An
involutive automorphism theta splits the algebra into its +1 and -1
eigenspaces; the -1 part carries the double-commutator triple bracket.  In the
other direction, every Lie triple system embeds as the -1 part of a canonical
symmetric Lie algebra built from its bracket operators.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from triplekit import numerics as nx
from triplekit import lts as lt
from triplekit.numerics import DEFAULT_TOLERANCE, FLOAT, TolerancePolicy
from triplekit.lts import AxiomReport, LieTripleSystem, LtsMorphism, Subspace


class InvolutionDefectError(ValueError):
    """theta fails to be an involutive automorphism of the algebra."""


class ClosureDefectError(ValueError):
    """The -1 eigenspace is not closed under the double commutator."""


class AxiomDefectError(ValueError):
    """A constructed algebra violates its defining identities."""


@dataclass(frozen=True)
class LieAlgebra:
    dim: int
    tensor: np.ndarray  # rank 3
    mode: str
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        if self.tensor.shape != (self.dim,) * 3:
            raise AxiomDefectError("tensor shape does not match dim")
        if nx.mode_of(self.tensor) != self.mode:
            raise lt.ModeMismatchError("tensor dtype does not match declared mode")
        if self.mode == FLOAT and not np.isfinite(self.tensor).all():
            raise lt.LtsStructureError("tensor has a non-finite entry")

    def to_float(self) -> "LieAlgebra":
        if self.mode == FLOAT:
            return self
        return LieAlgebra(self.dim, nx.to_float(self.tensor), FLOAT, self.labels)


def verify_lie_axioms(g: LieAlgebra, tol: TolerancePolicy = DEFAULT_TOLERANCE) -> AxiomReport:
    """Antisymmetry and the Jacobi identity on basis tuples.

    Exact mode runs both on the integer numerators of the tensor and demands
    zero defect; float mode compares against eq_tol.
    """
    c, s = nx.numerators(g.tensor)
    anti = nx.defect_size(c + c.transpose(1, 0, 2), s)
    jac = nx.contract_numerators(c, c, axes=([2], [0]), terms=3)
    jac = nx.defect_size(jac + jac.transpose(2, 0, 1, 3) + jac.transpose(1, 2, 0, 3), s * s)
    worst = max(anti, jac)
    ok = nx.negligible(worst, tol)
    name = None if ok else "antisymmetry" if anti >= jac else "jacobi"
    return AxiomReport(ok, float(worst), name)


def _square_defect(theta: np.ndarray):
    """Worst entry of theta^2 - 1; exact (a Fraction) on integer numerators."""
    n, s = nx.numerators(theta)
    sq = nx.contract_numerators(n, n, axes=1)
    return nx.defect_size(*nx.difference(sq, s * s, np.eye(len(n), dtype=sq.dtype), 1))


def _automorphism_defect(g: LieAlgebra, theta: np.ndarray):
    """Worst entry of theta[x, y] - [theta x, theta y] over basis pairs.

    Exact (a Fraction) on integer numerators, a float in float mode.
    """
    c, sc = nx.numerators(g.tensor)
    t, st = nx.numerators(theta)
    lhs = nx.contract_numerators(c, t, axes=([2], [1]))           # [i,j,m]
    t1 = nx.contract_numerators(t, c, axes=([0], [0]))            # [i,b,l]
    rhs = nx.contract_numerators(t, t1, axes=([0], [1]))          # [j,i,l]
    rhs = rhs.transpose(1, 0, 2)
    return nx.defect_size(*nx.difference(lhs, sc * st, rhs, sc * st * st))


@dataclass(frozen=True)
class SymmetricLieAlgebra:
    """A Lie algebra together with an involutive automorphism.

    Both the involution property and the automorphism property are checked at
    construction time; exact mode tolerates no defect at all, float mode
    tolerates tol.eq_tol.
    """
    algebra: LieAlgebra
    theta: np.ndarray
    tol: TolerancePolicy = field(default=DEFAULT_TOLERANCE, compare=False)

    def __post_init__(self):
        g = self.algebra
        if self.theta.shape != (g.dim, g.dim):
            raise InvolutionDefectError("theta shape does not match the algebra")
        if nx.mode_of(self.theta) != g.mode:
            raise lt.ModeMismatchError("theta mode does not match the algebra")
        if g.mode == FLOAT and not np.isfinite(self.theta).all():
            raise lt.LtsStructureError("theta has a non-finite entry")
        if not nx.negligible(_square_defect(self.theta), self.tol):
            raise InvolutionDefectError("theta squared is not the identity")
        if not nx.negligible(_automorphism_defect(g, self.theta), self.tol):
            raise InvolutionDefectError("theta is not an automorphism")

    @property
    def dim(self) -> int:
        return self.algebra.dim

    @property
    def mode(self) -> str:
        return self.algebra.mode


@dataclass(frozen=True)
class EigenSplit:
    plus: Subspace
    minus: Subspace


def eigensplit(sla: SymmetricLieAlgebra, tol: TolerancePolicy = DEFAULT_TOLERANCE) -> EigenSplit:
    """Eigenspaces of theta; also checks that the +1 part is a subalgebra."""
    g = sla.algebra
    eye = nx.identity(g.dim, g.mode)
    plus = Subspace(nx.nullspace(sla.theta - eye, tol))
    minus = Subspace(nx.nullspace(sla.theta + eye, tol))
    if plus.dim + minus.dim != g.dim:
        raise InvolutionDefectError("eigenspaces of theta do not span")
    brackets = nx.contract(plus.basis, g.tensor, axes=([1], [0]))   # [u,j,k]
    brackets = nx.contract(plus.basis, brackets, axes=([1], [1]))   # [v,u,k]
    if not plus.contains_all(brackets.reshape(plus.dim ** 2, g.dim), tol):
        raise InvolutionDefectError("+1 eigenspace is not a subalgebra")
    return EigenSplit(plus, minus)


def triple_from_involution(g: LieAlgebra, theta: np.ndarray,
                           tol: TolerancePolicy = DEFAULT_TOLERANCE
                           ) -> tuple[LieTripleSystem, Subspace]:
    """Double-commutator triple system on the -1 eigenspace of theta.

    Accepts any linear involution; closure of the -1 part under the double
    commutator is what is actually needed and is verified here.  Returns the
    system together with the eigenspace basis used as its coordinates.
    """
    if not nx.negligible(_square_defect(theta), tol):
        raise InvolutionDefectError("theta squared is not the identity")
    minus = Subspace(nx.nullspace(theta + nx.identity(g.dim, g.mode), tol))
    d = minus.dim
    b, sb = nx.numerators(minus.basis)
    c, sc = nx.numerators(g.tensor)
    # [[b_i, b_j], b_k] for all i, j, k in one contraction chain on the
    # numerators, which the span kernel takes with their scale
    inner = nx.contract_numerators(b, c, axes=(1, 0))
    inner = nx.contract_numerators(b, inner, axes=(1, 1)).transpose(1, 0, 2)
    dbl = nx.contract_numerators(inner, c, axes=(2, 0))
    dbl = nx.contract_numerators(dbl, b, axes=(2, 1)).transpose(0, 1, 3, 2)
    coords, inside = nx.coordinates_in_span_many(
        minus.basis, (dbl.reshape(d ** 3, g.dim), sb ** 3 * sc ** 2), tol)
    if not inside.all():
        raise ClosureDefectError("-1 eigenspace is not closed under double commutators")
    return LieTripleSystem(d, coords.reshape(d, d, d, d), g.mode), minus


def minus_triple(sla: SymmetricLieAlgebra,
                 tol: TolerancePolicy = DEFAULT_TOLERANCE) -> tuple[LieTripleSystem, Subspace]:
    return triple_from_involution(sla.algebra, sla.theta, tol)


def g_plus(g: LieAlgebra, tol: TolerancePolicy = DEFAULT_TOLERANCE) -> LieTripleSystem:
    """Triple system on all of g with bracket one quarter of [[x, y], z].

    The quarter normalization makes the group exponential of G agree with the
    symmetric-space exponential of G seen as a symmetric space.  The center of
    the result is every x whose commutators land in the center of g; in
    particular it contains the embedded center of g, which is verified here.
    """
    tensor = nx.contract(g.tensor, g.tensor, axes=([2], [0])) / 4  # exact in both modes
    system = LieTripleSystem(g.dim, tensor, g.mode, g.labels)
    zg = lie_center(g, tol)
    zsys = lt.center(system, tol)
    if not zsys.contains_all(zg.basis, tol):
        raise AxiomDefectError("center of the quarter system lost the algebra center")
    return system


def lie_center(g: LieAlgebra, tol: TolerancePolicy = DEFAULT_TOLERANCE) -> Subspace:
    """Joint kernel of the adjoint maps."""
    d = g.dim
    stacked = g.tensor.transpose(1, 2, 0).reshape(d * d, d)
    return Subspace(nx.nullspace(stacked, tol))


def symmetric_center(sla: SymmetricLieAlgebra,
                     tol: TolerancePolicy = DEFAULT_TOLERANCE) -> Subspace:
    """Center of the algebra, with theta-invariance verified."""
    z = lie_center(sla.algebra, tol)
    if not z.contains_all(nx.contract(z.basis, sla.theta, axes=([1], [1])), tol):
        raise InvolutionDefectError("center is not theta invariant")
    return z


@dataclass(frozen=True)
class StandardEmbedding:
    """A triple system realized inside its canonical symmetric Lie algebra.

    The ambient algebra is spanned by the independent bracket operators
    (the derived part, first h_dim coordinates) followed by the original
    system (the last coordinates).  theta fixes the operators and negates
    the system.
    """
    source: LieTripleSystem
    symmetric: SymmetricLieAlgebra
    h_dim: int
    operators: tuple[np.ndarray, ...]
    embedding: LtsMorphism


def standard_embedding(m: LieTripleSystem,
                       tol: TolerancePolicy = DEFAULT_TOLERANCE) -> StandardEmbedding:
    """Embed a triple system as the odd part of a symmetric Lie algebra.

    The even part is spanned by the operators v -> bracket(e_i, e_j, v),
    chosen by nx.span_basis in lexicographic (i, j) order.  Commutation
    relations: operators commute into operators, an operator applied to an
    odd vector is a matrix action, and two odd vectors bracket to their
    bracket operator.  The coordinates of the commutators and of the d^2
    bracket operators come from one span solve.  theta fixes the operators
    and negates the odd block e_h .. e_(n-1).

    Verifies, and fails loudly otherwise: that the operators close under
    commutators and span every bracket operator, the Jacobi identity of the
    ambient algebra, that theta is an involutive automorphism, that the
    double commutator on the odd block is the original bracket (a morphism
    certification with the identity matrix), and that the center of the
    ambient algebra is the embedded center of the system.
    """
    d = m.dim
    brackets = m.tensor.transpose(0, 1, 3, 2).reshape(d * d, d * d)  # operator of (e_i, e_j)
    ops = nx.span_basis(brackets, tol)
    h = len(ops)
    n = h + d
    stack = brackets[ops].reshape(h, d, d)
    comms = nx.commutators(stack, stack).reshape(h * h, d * d)
    coords, inside = nx.coordinates_in_span_many(stack.reshape(h, d * d),
                                                 np.concatenate([comms, brackets]), tol)
    if not inside[:h * h].all():
        raise AxiomDefectError("operator span is not closed under commutators")
    if not inside[h * h:].all():
        raise AxiomDefectError("bracket operator escaped the operator span")
    tensor = nx.zeros((n, n, n), m.mode)
    tensor[:h, :h, :h] = coords[:h * h].reshape(h, h, h)
    # an operator acting on an odd basis vector: column k of the operator
    tensor[:h, h:, h:] = stack.transpose(0, 2, 1)
    tensor[h:, :h, h:] = -stack.transpose(2, 0, 1)
    tensor[h:, h:, :h] = coords[h * h:].reshape(d, d, h)
    ambient = LieAlgebra(n, tensor, m.mode)
    report = verify_lie_axioms(ambient, tol)
    if not report.ok:
        raise AxiomDefectError(f"embedding violates {report.identity} by {report.worst_violation}")
    theta = nx.identity(n, m.mode)
    odd = np.arange(h, n)
    theta[odd, odd] = -theta[odd, odd]
    symmetric = SymmetricLieAlgebra(ambient, theta, tol)  # checks the automorphism

    # [[p_i, p_j], p_k]: [p, p] lands in the operators, which act back on p
    back = nx.contract(tensor[h:, h:, :h], tensor[:h, h:, h:], axes=([2], [0]))
    embedding = lt.certify_morphism(
        LtsMorphism(m, LieTripleSystem(d, back, m.mode), nx.identity(d, m.mode)), tol)
    if not embedding.certified:
        raise AxiomDefectError("embedding morphism failed certification")

    z_ambient = lie_center(ambient, tol)
    z_m = lt.center(m, tol)
    embedded = nx.zeros((z_m.dim, n), m.mode)
    embedded[:, h:] = z_m.basis
    if not z_ambient.equals(Subspace(embedded), tol):
        raise AxiomDefectError("ambient center differs from the embedded center")
    return StandardEmbedding(m, symmetric, h, tuple(stack), embedding)
