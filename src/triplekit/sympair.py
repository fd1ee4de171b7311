"""Matrix symmetric pairs and their coset geometry.

A pair is a matrix group G (given by a basis of its Lie algebra inside
gl(ambient_n)) together with an involutive group automorphism sigma, either
conjugation g -> J g J^(-1) or g -> transpose-inverse.  Points of the quotient
space are cosets g K, where K is the sigma-fixed subgroup; two representatives
p, q name the same point when q^(-1) p lands in K.

The quotient multiplies by g K . h K = g sigma(g)^(-1) sigma(h) K, which makes
every point a symmetry of the space.  The exponential of the space is the
group exponential of an odd tangent vector followed by the coset projection.

Kernel computations downstream treat the full fixed group as K by default;
an identity-component heuristic can be switched on per pair, and is exactly
that, a heuristic (component detection from finite data is not decidable).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from triplekit import numerics as nx
from triplekit import lts as lt
from triplekit import symlie as sl
from triplekit.numerics import DEFAULT_TOLERANCE, FLOAT, RATIONAL, TolerancePolicy

FULL_FIXED_GROUP = "full_fixed_group"
IDENTITY_COMPONENT_HEURISTIC = "identity_component_heuristic"


class PairInputError(ValueError):
    pass


@dataclass(frozen=True)
class SigmaConjugation:
    matrix: np.ndarray
    inverse: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "inverse", np.linalg.inv(self.matrix))

    def apply(self, g: np.ndarray) -> np.ndarray:
        return self.matrix @ g @ self.inverse

    def apply_tangent(self, x: np.ndarray) -> np.ndarray:
        return self.matrix @ x @ self.inverse


@dataclass(frozen=True)
class SigmaTransposeInverse:
    def apply(self, g: np.ndarray) -> np.ndarray:
        return np.swapaxes(np.linalg.inv(g), -1, -2)

    def apply_tangent(self, x: np.ndarray) -> np.ndarray:
        return -x.T


@dataclass
class MatrixSymmetricPair:
    """Matrix group with involution, plus optional exact-arithmetic shadow.

    lie_basis spans the Lie algebra in gl(ambient_n), float entries.  When the
    basis happens to have rational entries, exact_basis carries it with
    Fraction arithmetic so that derived structure constants are exact.
    """
    ambient_n: int
    lie_basis: list
    sigma: object
    fixed_group_policy: str = FULL_FIXED_GROUP
    name: str = ""
    exact_basis: Optional[list] = None
    exact_sigma_matrix: Optional[np.ndarray] = None
    _cache: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        for b in self.lie_basis:
            if b.shape != (self.ambient_n, self.ambient_n):
                raise PairInputError("basis matrix shape does not match ambient size")
        if self.fixed_group_policy not in (FULL_FIXED_GROUP, IDENTITY_COMPONENT_HEURISTIC):
            raise PairInputError(f"unknown policy {self.fixed_group_policy!r}")

    @property
    def dim(self) -> int:
        return len(self.lie_basis)


def theta_tangent(pair: MatrixSymmetricPair, x: np.ndarray) -> np.ndarray:
    """Differential of sigma on the Lie algebra."""
    return pair.sigma.apply_tangent(x)


def derived_symmetric_algebra(pair: MatrixSymmetricPair) -> sl.SymmetricLieAlgebra:
    """Structure constants and theta in basis coordinates.

    Uses the exact shadow basis when available, so the constants carry no
    rounding; otherwise solves least squares in float.
    """
    if "sla" in pair._cache:
        return pair._cache["sla"]
    if pair.exact_basis is not None:
        sla = _derive_sla(pair, pair.exact_basis, RATIONAL)
    else:
        sla = _derive_sla(pair, pair.lie_basis, FLOAT)
    pair._cache["sla"] = sla
    return sla


def derived_symmetric_algebra_float(pair: MatrixSymmetricPair) -> sl.SymmetricLieAlgebra:
    """Float-route structure constants, regardless of any exact shadow.

    Direction validation and scanning only need tolerance-level answers, and
    the float route is orders of magnitude faster on larger pairs.
    """
    if "sla_float" not in pair._cache:
        pair._cache["sla_float"] = _derive_sla(pair, pair.lie_basis, FLOAT)
    return pair._cache["sla_float"]


def _derive_sla(pair: MatrixSymmetricPair, mats, mode: str) -> sl.SymmetricLieAlgebra:
    d = len(mats)
    n = pair.ambient_n
    stack = np.array(mats, dtype=mats[0].dtype)
    comms = nx.commutators(stack, stack).reshape(d * d, n * n)
    if mode == RATIONAL and pair.exact_sigma_matrix is not None:
        jm = pair.exact_sigma_matrix
        # J A_i J^-1 for every basis matrix, with J inverted once
        images = nx.contract(nx.contract(stack, nx.inverse(jm), axes=([2], [0])),
                             jm, axes=([1], [1])).transpose(0, 2, 1)
    elif mode == RATIONAL:
        # transpose-inverse sigma keeps rationality
        images = -stack.transpose(0, 2, 1)
    else:
        images = np.array([theta_tangent(pair, m) for m in mats])
    coords, inside = nx.coordinates_in_span_many(
        stack.reshape(d, n * n), np.concatenate([comms, images.reshape(d, n * n)]))
    if not inside[:d * d].all():
        raise PairInputError("lie_basis is not closed under commutators")
    if not inside[d * d:].all():
        raise PairInputError("theta does not preserve the Lie algebra span")
    # column i of theta holds the coordinates of the image of basis vector i
    return sl.SymmetricLieAlgebra(sl.LieAlgebra(d, coords[:d * d].reshape(d, d, d), mode),
                                  coords[d * d:].T)


def minus_triple(pair: MatrixSymmetricPair) -> tuple[lt.LieTripleSystem, lt.Subspace]:
    """Odd-part triple system of the derived symmetric algebra."""
    if "minus" not in pair._cache:
        pair._cache["minus"] = sl.minus_triple(derived_symmetric_algebra(pair))
    return pair._cache["minus"]


def minus_triple_float(pair: MatrixSymmetricPair) -> tuple[lt.LieTripleSystem, lt.Subspace]:
    """Float-route odd-part triple, for scans and direction validation."""
    if "minus_float" not in pair._cache:
        pair._cache["minus_float"] = sl.minus_triple(derived_symmetric_algebra_float(pair))
    return pair._cache["minus_float"]


def tangent_from_coords(pair: MatrixSymmetricPair, coords: np.ndarray) -> np.ndarray:
    out = np.zeros((pair.ambient_n, pair.ambient_n))
    for c, b in zip(coords, pair.lie_basis):
        out = out + float(c) * b
    return out


def tangent_to_coords(pair: MatrixSymmetricPair, x: np.ndarray,
                      tol: TolerancePolicy = DEFAULT_TOLERANCE) -> np.ndarray:
    flat = [b.reshape(-1) for b in pair.lie_basis]
    coords = nx.coordinates_in_span(flat, np.asarray(x, dtype=float).reshape(-1), tol)
    if coords is None:
        raise PairInputError("matrix is not in the Lie algebra span")
    return coords


def check_odd_tangent(pair: MatrixSymmetricPair, x: np.ndarray,
                      tol: TolerancePolicy = DEFAULT_TOLERANCE) -> None:
    """Validate that x lies in the Lie algebra with theta(x) = -x."""
    tangent_to_coords(pair, x, tol)
    defect = theta_tangent(pair, x) + x
    scale = max(1.0, float(np.max(np.abs(x))))
    if float(np.max(np.abs(defect))) > tol.membership_tol * scale:
        raise PairInputError("tangent vector is not odd under theta")


@dataclass(frozen=True)
class CosetPoint:
    pair: MatrixSymmetricPair
    rep: np.ndarray


def base_point(pair: MatrixSymmetricPair) -> CosetPoint:
    return CosetPoint(pair, np.eye(pair.ambient_n))


def fixed_group_residual(pair: MatrixSymmetricPair, g: np.ndarray):
    """Scale-free distance of a group element from the sigma-fixed subgroup.

    g is one matrix, giving a float, or a stack of shape (k, n, n), giving
    an array of k residuals; entry i equals the residual of g[i] bit for bit.
    """
    stack = g if g.ndim == 3 else g[np.newaxis]
    # Frobenius norms per slice, bit for bit as np.linalg.norm gives them
    k = len(stack)
    num = nx.row_norms((pair.sigma.apply(stack) - stack).reshape(k, -1))
    den = np.maximum(nx.row_norms(stack.reshape(k, -1)), 1e-300)
    res = num / den
    return res if g.ndim == 3 else float(res[0])


def in_fixed_group(pair: MatrixSymmetricPair, g: np.ndarray,
                   tol: TolerancePolicy = DEFAULT_TOLERANCE) -> bool:
    if fixed_group_residual(pair, g) > tol.membership_tol:
        return False
    if pair.fixed_group_policy == IDENTITY_COMPONENT_HEURISTIC:
        return _in_identity_component(pair, g, tol)
    return True


def _in_identity_component(pair: MatrixSymmetricPair, g: np.ndarray,
                           tol: TolerancePolicy) -> bool:
    """Heuristic: walk toward g by arcs inside the fixed group.

    Tries the principal log of g directly, then retries after sliding g by
    short arcs exp(-s b) for even basis directions b and steps s in multiples
    of 0.1.  Accepts when some slid logarithm lands in the even part of the
    algebra.  This is a heuristic; it can refuse elements of the component
    that need longer walks.
    """
    sla = derived_symmetric_algebra(pair)
    split = sl.eigensplit(sla)
    plus_mats = [tangent_from_coords(pair, nx.to_float(v)) for v in split.plus.basis]
    plus_flat = [m.reshape(-1) for m in plus_mats]

    def log_lands_even(h: np.ndarray) -> bool:
        try:
            x = nx.principal_log(h, tol)
        except nx.LogBranchError:
            return False
        if not plus_flat:
            return float(np.max(np.abs(x))) <= tol.membership_tol
        return nx.coordinates_in_span(plus_flat, x.reshape(-1), tol) is not None

    if log_lands_even(g):
        return True
    for b in plus_mats:
        for step in (0.1, 0.2, 0.3):
            slid = nx.matrix_exp(-step * b) @ g
            if log_lands_even(slid):
                return True
    return False


def coset_eq(p: CosetPoint, q: CosetPoint,
             tol: TolerancePolicy = DEFAULT_TOLERANCE) -> bool:
    rel = np.linalg.inv(q.rep) @ p.rep
    return in_fixed_group(p.pair, rel, tol)


def coset_residual(p: CosetPoint, q: CosetPoint) -> float:
    """Residual of the equality test, before the policy threshold."""
    rel = np.linalg.inv(q.rep) @ p.rep
    return fixed_group_residual(p.pair, rel)


def exp_pair(pair: MatrixSymmetricPair, x: np.ndarray, t: float = 1.0,
             tol: TolerancePolicy = DEFAULT_TOLERANCE) -> CosetPoint:
    """Space exponential: coset of the group exponential of t x, x odd."""
    check_odd_tangent(pair, x, tol)
    return CosetPoint(pair, nx.matrix_exp(t * np.asarray(x, dtype=float)))


def coset_mul(p: CosetPoint, q: CosetPoint) -> CosetPoint:
    """Point multiplication g K . h K = g sigma(g)^(-1) sigma(h) K."""
    pair = p.pair
    g, h = p.rep, q.rep
    rep = g @ np.linalg.inv(pair.sigma.apply(g)) @ pair.sigma.apply(h)
    return CosetPoint(pair, rep)


def group_plus_mul(g: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Group-as-symmetric-space product g . h = g h^(-1) g."""
    return g @ np.linalg.inv(h) @ g


@dataclass(frozen=True)
class Geodesic:
    """One-parameter family t -> Exp(t x) through the base point."""
    pair: MatrixSymmetricPair
    direction: np.ndarray

    def point(self, t: float) -> CosetPoint:
        return exp_pair(self.pair, self.direction, t)


def geodesic(pair: MatrixSymmetricPair, direction: np.ndarray,
             tol: TolerancePolicy = DEFAULT_TOLERANCE) -> Geodesic:
    check_odd_tangent(pair, direction, tol)
    return Geodesic(pair, np.asarray(direction, dtype=float))


def translate(geo: Geodesic, s: float, p: CosetPoint) -> CosetPoint:
    """Translation along a geodesic: reflect in the base point, then in the
    point at parameter s/2.  Acting on the geodesic itself it shifts the
    parameter by s."""
    mid = geo.point(s / 2.0)
    start = geo.point(0.0)
    return coset_mul(mid, coset_mul(start, p))


def central_odd_check(pair: MatrixSymmetricPair, x: np.ndarray,
                      tol: TolerancePolicy = DEFAULT_TOLERANCE) -> None:
    """Require x to be odd and central in the derived triple system.

    Validation is a tolerance decision, so the float route is used even when
    an exact shadow exists; exact centers stay available via minus_triple.
    """
    check_odd_tangent(pair, x, tol)
    system, minus = minus_triple_float(pair)
    coords = nx.coordinates_in_span([nx.to_float(v) for v in minus.basis],
                                    tangent_to_coords(pair, x, tol), tol)
    if coords is None:
        raise PairInputError("vector is odd but escaped the odd coordinate span")
    z = lt.center(system, tol)
    zf = [nx.to_float(v) for v in z.basis]
    if nx.coordinates_in_span(zf, np.asarray(coords, dtype=float), tol) is None:
        raise PairInputError("direction is not central in the derived triple system")


def exp_center_check(pair: MatrixSymmetricPair, xs, ys,
                     tol: TolerancePolicy = DEFAULT_TOLERANCE) -> float:
    """Worst residual of Exp(2x - y) = Exp(x) . Exp(y) over central x, odd y.

    Each x must be central in the derived triple system; the law is what makes
    the exponential restricted to the center a morphism onto its image.
    """
    worst = 0.0
    for x in xs:
        central_odd_check(pair, x, tol)
    for x in xs:
        for y in ys:
            lhs = exp_pair(pair, 2.0 * x - y, 1.0, tol)
            rhs = coset_mul(exp_pair(pair, x, 1.0, tol), exp_pair(pair, y, 1.0, tol))
            worst = max(worst, coset_residual(lhs, rhs))
    return worst
