"""Matrix symmetric pairs and their coset geometry.

A pair is a matrix group G (given by a basis of its Lie algebra inside
gl(ambient_n)) together with an involutive group automorphism sigma, either
conjugation g -> J g J^(-1) or g -> transpose-inverse.  The basis and J are in
one mode: Fraction for rational documents, so that the derived structure
constants are exact, float otherwise.  Points of the quotient space are cosets
g K, where K is the sigma-fixed subgroup; two representatives p, q name the
same point when q^(-1) p lands in K.

The quotient multiplies by g K . h K = g sigma(g)^(-1) sigma(h) K, which makes
every point a symmetry of the space.  The exponential of the space is the
group exponential of an odd tangent vector followed by the coset projection.
Group elements and tangent matrices are always float.

K is always the full sigma-fixed group: membership is the one residual test
in_fixed_group, and kernel lattices downstream are computed against it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from triplekit import numerics as nx
from triplekit import lts as lt
from triplekit import symlie as sl
from triplekit.numerics import DEFAULT_TOLERANCE, FLOAT, RATIONAL, TolerancePolicy


class PairInputError(ValueError):
    pass


@dataclass(frozen=True)
class SigmaConjugation:
    """sigma(g) = J g J^(-1), with J in the pair's mode.

    Group elements are float, so the float J and its float inverse are
    computed once here; an exact tangent stack is conjugated exactly.
    """
    matrix: np.ndarray
    float_matrix: np.ndarray = field(init=False, repr=False, compare=False)
    inverse: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        shape = np.shape(self.matrix)
        if len(shape) != 2 or shape[0] != shape[1]:
            raise PairInputError("sigma matrix is not square")
        j = nx.to_float(self.matrix)
        if not np.isfinite(j).all():
            raise PairInputError("sigma matrix has a non-finite entry")
        try:
            inverse = np.linalg.inv(j)
        except np.linalg.LinAlgError as e:
            raise PairInputError("sigma matrix is singular") from e
        object.__setattr__(self, "float_matrix", j)
        object.__setattr__(self, "inverse", inverse)

    def apply(self, g: np.ndarray) -> np.ndarray:
        return self.float_matrix @ g @ self.inverse

    def apply_tangent(self, x: np.ndarray) -> np.ndarray:
        """J x J^(-1) for one matrix or a stack; exact when x is."""
        if nx.mode_of(x) == FLOAT:
            return self.apply(x)
        j = self.matrix
        right = nx.contract(x, nx.inverse(j), axes=([-1], [0]))
        return nx.contract(right, j, axes=([-2], [1])).swapaxes(-1, -2)


@dataclass(frozen=True)
class SigmaTransposeInverse:
    def apply(self, g: np.ndarray) -> np.ndarray:
        return np.swapaxes(np.linalg.inv(g), -1, -2)

    def apply_tangent(self, x: np.ndarray) -> np.ndarray:
        return -np.swapaxes(x, -1, -2)


@dataclass(frozen=True, eq=False)
class MatrixSymmetricPair:
    """Matrix group with involution.

    basis spans the Lie algebra in gl(ambient_n), as a (dim, n, n) stack in
    the pair's mode; a conjugation sigma holds J in the same mode.
    float_basis is the float copy that tangent vectors and exponentials
    use, derived here from basis.  Derived algebras and triple
    systems are cached on the pair itself, per mode, so a pair made by
    dataclasses.replace derives from its own fields.
    """
    ambient_n: int
    basis: np.ndarray
    sigma: object
    name: str = ""
    float_basis: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        n = self.ambient_n
        mats = [np.asarray(b) for b in self.basis]
        if not mats:
            raise PairInputError("basis is empty")
        if any(m.shape != (n, n) for m in mats):
            raise PairInputError("basis matrix shape does not match ambient size")
        mode = nx.mode_of(mats[0])
        stack = np.array(mats, dtype=object if mode == RATIONAL else float)
        floats = nx.to_float(stack)
        if not np.isfinite(floats).all():
            raise PairInputError("basis has a non-finite entry")
        if isinstance(self.sigma, SigmaConjugation):
            if self.sigma.matrix.shape != (n, n):
                raise PairInputError("sigma matrix shape does not match ambient size")
            if nx.mode_of(self.sigma.matrix) != mode:
                raise PairInputError("sigma matrix mode does not match the basis")
        object.__setattr__(self, "basis", stack)
        object.__setattr__(self, "float_basis", floats)
        # (kind, mode) -> derived object; an attribute, not a field, so
        # dataclasses.replace starts a new pair with an empty one
        object.__setattr__(self, "_derived", {})

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def mode(self) -> str:
        return nx.mode_of(self.basis)


def theta_tangent(pair: MatrixSymmetricPair, x: np.ndarray) -> np.ndarray:
    """Differential of sigma on the Lie algebra."""
    return pair.sigma.apply_tangent(x)


def derived_symmetric_algebra(pair: MatrixSymmetricPair,
                              mode: str | None = None) -> sl.SymmetricLieAlgebra:
    """Structure constants and theta in basis coordinates.

    mode defaults to the pair's own: a rational pair gives constants that
    carry no rounding.  FLOAT solves least squares on the float basis, which
    is all that direction validation and scans need, and is much faster on
    larger pairs.
    """
    mode = mode or pair.mode
    key = ("sla", mode)
    if key not in pair._derived:
        pair._derived[key] = _derive_sla(pair, mode)
    return pair._derived[key]


def _derive_sla(pair: MatrixSymmetricPair, mode: str) -> sl.SymmetricLieAlgebra:
    """The one derivation of structure constants and theta from a matrix basis."""
    if mode == RATIONAL and pair.mode == FLOAT:
        raise nx.ModeError("a float pair has no exact structure constants")
    stack = pair.basis if mode == RATIONAL else pair.float_basis
    d, nn = pair.dim, pair.ambient_n ** 2
    # one target array: the commutators live no longer than the concatenation
    targets = np.concatenate([nx.commutators(stack, stack).reshape(d * d, nn),
                              theta_tangent(pair, stack).reshape(d, nn)])
    coords, inside = nx.coordinates_in_span_many(stack.reshape(d, nn), targets)
    if not inside[:d * d].all():
        raise PairInputError("basis is not closed under commutators")
    if not inside[d * d:].all():
        raise PairInputError("theta does not preserve the Lie algebra span")
    # column i of theta holds the coordinates of the image of basis vector i
    return sl.SymmetricLieAlgebra(sl.LieAlgebra(d, coords[:d * d].reshape(d, d, d), mode),
                                  coords[d * d:].T)


def minus_triple(pair: MatrixSymmetricPair,
                 mode: str | None = None) -> tuple[lt.LieTripleSystem, lt.Subspace]:
    """Odd-part triple system of the derived symmetric algebra, in mode
    (the pair's own by default)."""
    mode = mode or pair.mode
    key = ("minus", mode)
    if key not in pair._derived:
        pair._derived[key] = sl.minus_triple(derived_symmetric_algebra(pair, mode))
    return pair._derived[key]


def tangent_from_coords(pair: MatrixSymmetricPair, coords: np.ndarray) -> np.ndarray:
    return np.tensordot(np.asarray(coords, dtype=float), pair.float_basis, 1)


def tangent_to_coords(pair: MatrixSymmetricPair, x: np.ndarray,
                      tol: TolerancePolicy = DEFAULT_TOLERANCE) -> np.ndarray:
    flat = pair.float_basis.reshape(pair.dim, -1)
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
    return fixed_group_residual(pair, g) <= tol.membership_tol


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

    Validation is a tolerance decision, so the float derivation is used even
    for a rational pair; its exact center is the center of
    minus_triple(pair).
    """
    check_odd_tangent(pair, x, tol)
    system, minus = minus_triple(pair, FLOAT)
    coords = nx.coordinates_in_span(minus.basis, tangent_to_coords(pair, x, tol), tol)
    if coords is None:
        raise PairInputError("vector is odd but escaped the odd coordinate span")
    if nx.coordinates_in_span(lt.center(system, tol).basis, coords, tol) is None:
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
