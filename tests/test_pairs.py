"""The one derivation of a matrix symmetric pair, against the four routes it
replaced (oracles.py), and the frozen pair's construction checks."""

import dataclasses
from fractions import Fraction

import numpy as np
import pytest

from triplekit import fixtures as fx
from triplekit import jsonio
from triplekit import numerics as nx
from triplekit import symlie as sl
from triplekit import sympair as sp
from triplekit.numerics import FLOAT, RATIONAL

from oracles import (conjugation_theta_old, derive_sla_float_old, lie_from_matrices_old,
                     lts_from_matrices_old)

SEED = 20261018
PAIRS = sorted(fx.pair_gallery())


def _same(a, b) -> bool:
    """Equal shape and entries: Fractions by ==, floats bit for bit."""
    return a.shape == b.shape and a.dtype == b.dtype and np.array_equal(a, b)


def _assert_same_sla(got: sl.SymmetricLieAlgebra, want: sl.SymmetricLieAlgebra):
    assert got.mode == want.mode
    assert _same(got.algebra.tensor, want.algebra.tensor)
    assert _same(got.theta, want.theta)


def _exact_oracle(pair) -> sl.SymmetricLieAlgebra:
    mats = list(pair.basis)
    return sl.SymmetricLieAlgebra(lie_from_matrices_old(mats),
                                  conjugation_theta_old(mats, pair.sigma.matrix))


def _unimodular(rng, d: int) -> np.ndarray:
    p = np.eye(d, dtype=int)
    for _ in range(2 * d):
        i, j = rng.choice(d, 2, replace=False)
        p[i] += int(rng.integers(-2, 3)) * p[j]
    return p


def _rebased(pair, rng) -> sp.MatrixSymmetricPair:
    """The same rational pair on a seeded unimodular change of its basis."""
    p = nx.rational_array(_unimodular(rng, pair.dim).tolist())
    return dataclasses.replace(pair, basis=nx.contract(p, pair.basis, axes=1))


def _rotated(pair, rng) -> sp.MatrixSymmetricPair:
    """A float copy of a pair on a seeded orthogonal change of ambient coordinates."""
    q, r = np.linalg.qr(rng.standard_normal((pair.ambient_n, pair.ambient_n)))
    q = q * np.sign(np.diag(r))
    return sp.MatrixSymmetricPair(pair.ambient_n, [q @ b @ q.T for b in pair.float_basis],
                                  sp.SigmaConjugation(q @ pair.sigma.float_matrix @ q.T),
                                  name=f"rotated {pair.name}")


def _gl_pair(n: int, mode: str) -> sp.MatrixSymmetricPair:
    """GL(n) over O(n): all of gl(n), sigma the transpose-inverse."""
    basis = [fx._e(n, i, j, mode) for i in range(n) for j in range(n)]
    return sp.MatrixSymmetricPair(n, basis, sp.SigmaTransposeInverse(), name=f"GL({n})/O({n})")


# ------------------------------------------------- the derivation vs the old routes

@pytest.mark.parametrize("name", PAIRS)
def test_gallery_pairs_match_old_routes(name):
    pair = fx.pair_gallery()[name]
    assert pair.mode == RATIONAL
    _assert_same_sla(sp.derived_symmetric_algebra(pair), _exact_oracle(pair))
    _assert_same_sla(sp.derived_symmetric_algebra(pair, FLOAT),
                     derive_sla_float_old(pair, list(pair.float_basis)))


@pytest.mark.parametrize("name", PAIRS)
def test_rebased_rational_pairs_match_old_routes(name):
    rng = np.random.default_rng([SEED, PAIRS.index(name)])
    pair = _rebased(fx.pair_gallery()[name], rng)
    _assert_same_sla(sp.derived_symmetric_algebra(pair), _exact_oracle(pair))


@pytest.mark.parametrize("name", PAIRS)
def test_rotated_float_pairs_match_old_float_route(name):
    rng = np.random.default_rng([SEED, 1, PAIRS.index(name)])
    pair = _rotated(fx.pair_gallery()[name], rng)
    assert pair.mode == FLOAT
    want = derive_sla_float_old(pair, list(pair.float_basis))
    _assert_same_sla(sp.derived_symmetric_algebra(pair), want)
    system, minus = sp.minus_triple(pair)
    old_system, old_minus = sl.minus_triple(want)
    assert _same(system.tensor, old_system.tensor) and _same(minus.basis, old_minus.basis)


@pytest.mark.parametrize("n", [2, 3])
def test_transpose_inverse_pairs_match_old_routes(n):
    exact, floats = _gl_pair(n, RATIONAL), _gl_pair(n, FLOAT)
    sla = sp.derived_symmetric_algebra(exact)
    assert _same(sla.algebra.tensor, lie_from_matrices_old(list(exact.basis)).tensor)
    # theta(E_ij) = -E_ji
    want = nx.zeros((n * n, n * n), RATIONAL)
    for i in range(n):
        for j in range(n):
            want[j * n + i, i * n + j] = Fraction(-1)
    assert _same(sla.theta, want)
    _assert_same_sla(sp.derived_symmetric_algebra(floats),
                     derive_sla_float_old(floats, list(floats.float_basis)))


def _su2_old() -> sl.SymmetricLieAlgebra:
    zero = nx.zeros((2, 2), RATIONAL)
    mats = [
        nx.realify(zero, fx._e(2, 0, 0) - fx._e(2, 1, 1)),
        nx.realify(fx._e(2, 0, 1) - fx._e(2, 1, 0), zero),
        nx.realify(zero, fx._e(2, 0, 1) + fx._e(2, 1, 0)),
    ]
    j = nx.realify(fx._e(2, 0, 0) - fx._e(2, 1, 1), zero)
    return sl.SymmetricLieAlgebra(lie_from_matrices_old(mats, ("iH", "X", "iY")),
                                  conjugation_theta_old(mats, j))


def _conjugation_old(mats, j) -> sl.SymmetricLieAlgebra:
    return sl.SymmetricLieAlgebra(lie_from_matrices_old(mats), conjugation_theta_old(mats, j))


def _sphere_j(n: int) -> np.ndarray:
    j = nx.identity(n + 1, RATIONAL)
    j[n, n] = Fraction(-1)
    return j


def _u_minus_labels(n: int) -> list[str]:
    return ([f"iE{k + 1}{k + 1}" for k in range(n)]
            + [f"iS{k + 1}{l + 1}" for k in range(n) for l in range(k + 1, n)])


@pytest.mark.parametrize("built,old", [
    (lambda: fx.u_symmetric_algebra(2), lambda: _conjugation_old(
        fx.unitary_basis_realified(2), fx.conjugation_matrix_realified(2))),
    (lambda: fx.u_symmetric_algebra(3), lambda: _conjugation_old(
        fx.unitary_basis_realified(3), fx.conjugation_matrix_realified(3))),
    (lambda: fx.so_symmetric_algebra(2), lambda: _conjugation_old(fx.so_basis(3), _sphere_j(2))),
    (lambda: fx.so_symmetric_algebra(3), lambda: _conjugation_old(fx.so_basis(4), _sphere_j(3))),
    (fx.su2_symmetric_algebra, _su2_old),
    (lambda: fx.u_minus_lts(2), lambda: lts_from_matrices_old(
        fx.imaginary_symmetric_basis_realified(2), _u_minus_labels(2))),
    (lambda: fx.u_minus_lts(3), lambda: lts_from_matrices_old(
        fx.imaginary_symmetric_basis_realified(3), _u_minus_labels(3))),
    (fx.so3_lie, lambda: lie_from_matrices_old(fx.so_basis(3), ("L12", "L13", "L23"))),
    (lambda: fx.broken_symmetric_algebra()[0], lambda: lie_from_matrices_old(
        [fx._e(2, 0, 0), fx._e(2, 0, 1), fx._e(2, 1, 0), fx._e(2, 1, 1)],
        ("E11", "E12", "E21", "E22"))),
], ids=["u2", "u3", "so3", "so4", "su2", "u2_minus", "u3_minus", "so3_lie", "gl2"])
def test_fixture_builders_match_old_routes(built, old):
    assert jsonio.dumps(built()) == jsonio.dumps(old())


# ------------------------------------------------------------ the frozen pair

def test_replace_derives_from_the_new_fields():
    pair = fx.u_modulo_o_pair(2)
    sla = sp.derived_symmetric_algebra(pair)
    sp.minus_triple(pair, FLOAT)
    one = nx.identity(4, RATIONAL)
    assert not _same(sla.theta, one)
    fixed = dataclasses.replace(pair, sigma=sp.SigmaConjugation(one))
    assert _same(sp.derived_symmetric_algebra(fixed).theta, one)
    assert sp.minus_triple(fixed, FLOAT)[0].dim == 0
    rebased = _rebased(pair, np.random.default_rng(SEED))
    assert _same(sp.derived_symmetric_algebra(rebased).algebra.tensor,
                 lie_from_matrices_old(list(rebased.basis)).tensor)
    floats = dataclasses.replace(pair, basis=pair.float_basis,
                                 sigma=sp.SigmaConjugation(pair.sigma.float_matrix))
    assert sp.derived_symmetric_algebra(floats).mode == FLOAT
    assert sp.derived_symmetric_algebra(pair) is sla


def test_pair_is_frozen_and_holds_one_basis():
    pair = fx.sphere_pair(2)
    with pytest.raises(dataclasses.FrozenInstanceError):
        pair.basis = pair.float_basis
    assert pair.basis.shape == (3, 3, 3) and pair.basis.dtype == object
    assert np.array_equal(pair.float_basis, nx.to_float(pair.basis))
    assert pair.sigma.matrix.dtype == object
    assert np.array_equal(pair.sigma.float_matrix, nx.to_float(pair.sigma.matrix))


def test_float_pair_has_no_exact_derivation():
    pair = _gl_pair(2, FLOAT)
    with pytest.raises(nx.ModeError):
        sp.derived_symmetric_algebra(pair, RATIONAL)


def _so3_float(**changes) -> dict:
    base = dict(ambient_n=3, basis=[nx.to_float(b) for b in fx.so_basis(3)],
                sigma=sp.SigmaConjugation(np.diag([1.0, 1.0, -1.0])))
    base.update(changes)
    return base


def _nan_basis():
    basis = [nx.to_float(b).copy() for b in fx.so_basis(3)]
    basis[0][0, 1] = np.nan
    return basis


@pytest.mark.parametrize("changes,message", [
    (dict(ambient_n=4), "basis matrix shape does not match ambient size"),
    (dict(basis=[]), "basis is empty"),
    (dict(sigma=sp.SigmaConjugation(np.eye(2))), "sigma matrix shape does not match"),
    (dict(basis=_nan_basis()), "basis has a non-finite entry"),
    (dict(sigma=sp.SigmaConjugation(nx.identity(3, RATIONAL))), "mode does not match"),
], ids=["shape", "empty", "sigma_size", "nan", "sigma_mode"])
def test_pair_construction_refuses_bad_input(changes, message):
    with pytest.raises(sp.PairInputError, match=message):
        sp.MatrixSymmetricPair(**_so3_float(**changes))


@pytest.mark.parametrize("matrix,message", [
    (np.ones((2, 3)), "not square"),
    (np.array([[1.0, np.inf], [0.0, 1.0]]), "non-finite"),
    (np.ones((2, 2)), "singular"),
], ids=["not_square", "inf", "singular"])
def test_sigma_conjugation_refuses_bad_matrices(matrix, message):
    with pytest.raises(sp.PairInputError, match=message):
        sp.SigmaConjugation(matrix)
