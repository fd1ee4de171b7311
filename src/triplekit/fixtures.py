"""Fixture gallery: the worked examples every other module is tested against."""

from __future__ import annotations

from fractions import Fraction
from dataclasses import replace
from functools import cache

import numpy as np

from triplekit import numerics as nx
from triplekit import lts as lt
from triplekit import symlie as sl
from triplekit import sympair as sp
from triplekit.numerics import RATIONAL


# ---------------------------------------------------------------- matrix bases

def _e(n, i, j, mode=RATIONAL):
    m = nx.zeros((n, n), mode)
    m[i, j] = Fraction(1) if mode == RATIONAL else 1.0
    return m


def unitary_basis_realified(n: int) -> list[np.ndarray]:
    """Basis of the realified n x n skew-hermitian matrices, exact entries.

    Order: i*E_kk diagonals, then E_kl - E_lk, then i*(E_kl + E_lk), k < l.
    A complex entry a+bi turns into the real 2x2 block [[a, -b], [b, a]].
    """
    zero = nx.zeros((n, n), RATIONAL)
    out = []
    for k in range(n):
        out.append(nx.realify(zero, _e(n, k, k)))
    for k in range(n):
        for l in range(k + 1, n):
            out.append(nx.realify(_e(n, k, l) - _e(n, l, k), zero))
    for k in range(n):
        for l in range(k + 1, n):
            out.append(nx.realify(zero, _e(n, k, l) + _e(n, l, k)))
    return out


def imaginary_symmetric_basis_realified(n: int) -> list[np.ndarray]:
    """Basis of realified i*Sym(n, R): i*E_kk, then i*(E_kl + E_lk), k < l."""
    zero = nx.zeros((n, n), RATIONAL)
    out = [nx.realify(zero, _e(n, k, k)) for k in range(n)]
    for k in range(n):
        for l in range(k + 1, n):
            out.append(nx.realify(zero, _e(n, k, l) + _e(n, l, k)))
    return out


def conjugation_matrix_realified(n: int) -> np.ndarray:
    """Entrywise complex conjugation as the real block matrix diag(I, -I)."""
    j = nx.identity(2 * n, RATIONAL)
    for i in range(n, 2 * n):
        j[i, i] = Fraction(-1)
    return j


def so_basis(n: int) -> list[np.ndarray]:
    """Basis E_kl - E_lk (k < l) of the real antisymmetric n x n matrices."""
    return [_e(n, k, l) - _e(n, l, k) for k in range(n) for l in range(k + 1, n)]


def _labeled(obj, labels):
    """A triple system or Lie algebra with basis labels, structure unchanged."""
    return replace(obj, labels=tuple(labels))


# ----------------------------------------------------------------- LTS gallery

@cache
def abelian_lts(n: int) -> lt.LieTripleSystem:
    return lt.LieTripleSystem(n, nx.zeros((n, n, n, n), RATIONAL), RATIONAL,
                              tuple(f"e{i + 1}" for i in range(n)))


@cache
def sphere_lts(n: int) -> lt.LieTripleSystem:
    """Bracket of the round sphere: <y,z> x - <x,z> y on R^n."""
    tensor = nx.zeros((n, n, n, n), RATIONAL)
    one = Fraction(1)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if j == k:
                    tensor[i, j, k, i] += one
                if i == k:
                    tensor[i, j, k, j] -= one
    return lt.LieTripleSystem(n, tensor, RATIONAL, tuple(f"e{i + 1}" for i in range(n)))


@cache
def u_minus_lts(n: int) -> lt.LieTripleSystem:
    """Realified i*Sym(n), the odd part of u(n) under conjugation."""
    labels = [f"iE{k + 1}{k + 1}" for k in range(n)]
    labels += [f"iS{k + 1}{l + 1}" for k in range(n) for l in range(k + 1, n)]
    return _labeled(sp.minus_triple(u_modulo_o_pair(n))[0], labels)


@cache
def heisenberg_lie() -> "sl.LieAlgebra":
    """Three generators p, q, z with commutator of p and q equal to z."""
    tensor = nx.zeros((3, 3, 3), RATIONAL)
    tensor[0, 1, 2] = Fraction(1)
    tensor[1, 0, 2] = Fraction(-1)
    return sl.LieAlgebra(3, tensor, RATIONAL, ("p", "q", "z"))


@cache
def so3_lie() -> "sl.LieAlgebra":
    return _labeled(sp.derived_symmetric_algebra(sphere_pair(2)).algebra, ("L12", "L13", "L23"))


@cache
def broken_lts() -> lt.LieTripleSystem:
    """Sphere tensor with one corrupted entry; fails left antisymmetry."""
    good = sphere_lts(2)
    tensor = good.tensor.copy()
    tensor[0, 0, 1, 1] = Fraction(1)
    return lt.LieTripleSystem(2, tensor, RATIONAL, good.labels)


# ------------------------------------------------------ symmetric Lie algebras

@cache
def u_symmetric_algebra(n: int) -> "sl.SymmetricLieAlgebra":
    """Realified u(n) with the involution conjugate-by-J, J = diag(I, -I).

    Fixed part is the realified real antisymmetric matrices, odd part the
    realified i*Sym(n).
    """
    return sp.derived_symmetric_algebra(u_modulo_o_pair(n))


@cache
def so_symmetric_algebra(n: int) -> "sl.SymmetricLieAlgebra":
    """so(n+1) with conjugation by diag(1, ..., 1, -1); odd part is the sphere."""
    return sp.derived_symmetric_algebra(sphere_pair(n))


def flip_symmetric_algebra(g: "sl.LieAlgebra") -> "sl.SymmetricLieAlgebra":
    """g x g with the swap involution; its odd part is anti-diagonal."""
    d = g.dim
    tensor = nx.zeros((2 * d, 2 * d, 2 * d), g.mode)
    tensor[:d, :d, :d] = g.tensor
    tensor[d:, d:, d:] = g.tensor
    doubled = sl.LieAlgebra(2 * d, tensor, g.mode)
    # the swap: identity rows with the two halves exchanged
    theta = nx.identity(2 * d, g.mode)[np.roll(np.arange(2 * d), d)]
    return sl.SymmetricLieAlgebra(doubled, theta)


@cache
def su2_symmetric_algebra() -> "sl.SymmetricLieAlgebra":
    """Realified su(2) with conjugation by diag(1, -1)."""
    zero = nx.zeros((2, 2), RATIONAL)
    mats = [
        nx.realify(zero, _e(2, 0, 0) - _e(2, 1, 1)),
        nx.realify(_e(2, 0, 1) - _e(2, 1, 0), zero),
        nx.realify(zero, _e(2, 0, 1) + _e(2, 1, 0)),
    ]
    j = nx.realify(_e(2, 0, 0) - _e(2, 1, 1), zero)
    sla = sp.derived_symmetric_algebra(_conjugation_pair(mats, j, "SU(2)/U(1)"))
    return replace(sla, algebra=_labeled(sla.algebra, ("iH", "X", "iY")))


def broken_symmetric_algebra() -> tuple["sl.LieAlgebra", np.ndarray]:
    """gl(2) with an involution that is not an automorphism.

    The algebra comes from GL(2) over O(2), sigma the transpose-inverse.
    The -1 eigenspace span{E11 + E12, E21} of theta is not closed under double
    commutators: [[E11 + E12, E21], E11 + E12] = E11 - E22 - E21 + 2 E12
    has E12 coefficient 2 but E11 coefficient 1, so it leaves the span.
    """
    mats = [_e(2, 0, 0), _e(2, 0, 1), _e(2, 1, 0), _e(2, 1, 1)]
    gl2 = sp.MatrixSymmetricPair(2, mats, sp.SigmaTransposeInverse(), name="GL(2)/O(2)")
    algebra = _labeled(sp.derived_symmetric_algebra(gl2).algebra, ("E11", "E12", "E21", "E22"))
    # theta = I - 2P, P the projection onto span{E11+E12, E21} along span{E12, E22}
    minus = [nx.rational_array([1, 1, 0, 0]), nx.rational_array([0, 0, 1, 0])]
    plus = [nx.rational_array([0, 1, 0, 0]), nx.rational_array([0, 0, 0, 1])]
    cols = []
    # column i of the inverse holds the coordinates of e_i in the basis
    inv = nx.inverse(np.array(minus + plus, dtype=object).T)
    for i in range(4):
        coords = inv[:, i]
        img = -coords[0] * minus[0] - coords[1] * minus[1] + coords[2] * plus[0] + coords[3] * plus[1]
        cols.append(img)
    theta = np.array(cols, dtype=object).T
    return algebra, theta


# --------------------------------------------------------------- matrix pairs

def _conjugation_pair(basis, j: np.ndarray, name: str) -> "sp.MatrixSymmetricPair":
    """The pair of a rational matrix basis with sigma = conjugation by j."""
    return sp.MatrixSymmetricPair(len(j), basis, sp.SigmaConjugation(j), name=name)


@cache
def u_modulo_o_pair(n: int) -> "sp.MatrixSymmetricPair":
    """Realified U(n) over O(n): sigma is conjugation by diag(I, -I)."""
    return _conjugation_pair(unitary_basis_realified(n), conjugation_matrix_realified(n),
                             f"U({n})/O({n})")


@cache
def sphere_pair(n: int) -> "sp.MatrixSymmetricPair":
    """SO(n+1) over SO(n): sigma is conjugation by diag(1, ..., 1, -1)."""
    j = nx.identity(n + 1, RATIONAL)
    j[n, n] = Fraction(-1)
    return _conjugation_pair(so_basis(n + 1), j, f"SO({n + 1})/SO({n})")


@cache
def group_double_pair(n: int) -> "sp.MatrixSymmetricPair":
    """U(n) x U(n) with the swap involution; quotient by the diagonal.

    This realizes the group U(n) itself as a symmetric space.  The element
    x of u(n) corresponds to the odd vector (x/2, -x/2); its exponential
    kernel along a central direction is the kernel of exp itself.
    """
    small = unitary_basis_realified(n)
    m = 2 * n
    basis = []
    for b in small:
        top = nx.zeros((2 * m, 2 * m), RATIONAL)
        top[:m, :m] = b
        basis.append(top)
    for b in small:
        bot = nx.zeros((2 * m, 2 * m), RATIONAL)
        bot[m:, m:] = b
        basis.append(bot)
    swap = nx.zeros((2 * m, 2 * m), RATIONAL)
    eye = nx.identity(m, RATIONAL)
    swap[:m, m:] = eye
    swap[m:, :m] = eye
    return _conjugation_pair(basis, swap, f"U({n})+ as (U({n})xU({n}))/diagonal")


def central_direction_u(n: int) -> np.ndarray:
    """Realified i * identity, the central direction of u(n)."""
    zero = nx.zeros((n, n), RATIONAL)
    return nx.to_float(nx.realify(zero, nx.identity(n, RATIONAL)))


def central_direction_group_double(n: int) -> np.ndarray:
    """Odd vector of the doubled pair matching i * identity in u(n).

    The identification sends (x, -x) to 2x, so the direction realizing
    i * identity is (i*I/2, -i*I/2) block-embedded.
    """
    m = 2 * n
    z = central_direction_u(n) / 2.0
    out = np.zeros((2 * m, 2 * m))
    out[:m, :m] = z
    out[m:, m:] = -z
    return out


def random_invertible(rng: np.random.Generator, n: int) -> np.ndarray:
    """Invertible matrix sampled away from the singular locus."""
    while True:
        g = rng.standard_normal((n, n))
        if abs(np.linalg.det(g)) > 0.1:
            return g


# ---------------------------------------------------------------- the gallery

@cache
def lts_gallery() -> dict[str, lt.LieTripleSystem]:
    entries = {
        "abelian2": abelian_lts(2),
        "abelian3": abelian_lts(3),
        "sphere2": sphere_lts(2),
        "sphere3": sphere_lts(3),
        "sphere4": sphere_lts(4),
        "u2_minus": u_minus_lts(2),
        "u3_minus": u_minus_lts(3),
        "so3_plus_quarter": sl.g_plus(so3_lie()),
        "heisenberg_plus_quarter": sl.g_plus(heisenberg_lie()),
    }
    return entries


@cache
def symmetric_algebra_gallery() -> dict[str, "sl.SymmetricLieAlgebra"]:
    return {
        "u2_conjugation": u_symmetric_algebra(2),
        "u3_conjugation": u_symmetric_algebra(3),
        "so3_reflection": so_symmetric_algebra(2),
        "so4_reflection": so_symmetric_algebra(3),
        "su2_diag": su2_symmetric_algebra(),
        "so3_flip": flip_symmetric_algebra(so3_lie()),
        "heisenberg_flip": flip_symmetric_algebra(heisenberg_lie()),
    }


@cache
def pair_gallery() -> dict[str, "sp.MatrixSymmetricPair"]:
    return {
        "u2_mod_o2": u_modulo_o_pair(2),
        "u3_mod_o3": u_modulo_o_pair(3),
        "u4_mod_o4": u_modulo_o_pair(4),
        "so3_mod_so2": sphere_pair(2),
        "so4_mod_so3": sphere_pair(3),
        "u2_group_double": group_double_pair(2),
        "u3_group_double": group_double_pair(3),
    }
