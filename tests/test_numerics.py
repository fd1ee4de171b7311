import math
from fractions import Fraction

import numpy as np
import pytest

from triplekit import numerics as nx

from oracles import (hand_rref_fractions, matrix_exp_loops, nullspace_full_svd,
                     rotation_matrix, tensordot_loops)

EQ_EPS = 1e-9
SEED = 42


def test_nullspace_rank_one_rational():
    # Hand row reduction of [[1,1],[1,1]]: single pivot, solution x = -y.
    a = nx.rational_array([[1, 1], [1, 1]])
    basis = nx.nullspace(a)
    assert len(basis) == 1
    v = basis[0]
    # span{(1,-1)}: components are opposite and nonzero
    assert v[0] == -v[1] and v[0] != 0


def test_nullspace_matches_hand_reduction():
    rows = [[2, 4, 6], [1, 2, 3], [0, 0, 5]]
    _, pivots = hand_rref_fractions(rows)
    a = nx.rational_array(rows)
    red, top, piv = nx.rref(nx.numerators(a)[0])
    assert piv == pivots
    assert len(nx.nullspace(a)) == 3 - len(pivots)
    # every basis vector actually solves the system
    for v in nx.nullspace(a):
        res = a @ v
        assert all(x == 0 for x in res)


def test_nullspace_float_residual_bound():
    rng = np.random.default_rng(SEED)
    for _ in range(20):
        a = rng.standard_normal((5, 7))
        a[:, 3] = a[:, 0] + a[:, 1]  # force a nontrivial nullspace
        for v in nx.nullspace(a):
            assert np.linalg.norm(a @ v) <= nx.DEFAULT_TOLERANCE.rank_tol * np.linalg.norm(a) * np.linalg.norm(v) * 10


def test_exact_and_float_nullspace_dims_agree():
    rng = np.random.default_rng(SEED)
    for _ in range(25):
        num = rng.integers(-50, 50, size=(4, 6))
        den = rng.integers(1, 1000, size=(4, 6))
        exact = np.empty((4, 6), dtype=object)
        for i in range(4):
            for j in range(6):
                exact[i, j] = Fraction(int(num[i, j]), int(den[i, j]))
        if rng.random() < 0.5:
            exact[:, 5] = exact[:, 0] * Fraction(2, 3)
        approx = nx.to_float(exact)
        assert len(nx.nullspace(exact)) == len(nx.nullspace(approx))


def test_span_basis_greedy_order():
    vs = [nx.rational_array([1, 0, 0]),
          nx.rational_array([2, 0, 0]),
          nx.rational_array([0, 1, 0]),
          nx.rational_array([1, 1, 0])]
    for vectors in (vs, [nx.to_float(v) for v in vs]):
        assert nx.span_basis(vectors) == [0, 2]
    eye = list(nx.identity(3, nx.FLOAT))
    assert len(nx.span_basis(eye + [np.ones(3)])) == 3


def test_empty_basis_membership():
    # an empty basis spans the vectors the membership rule calls zero
    coords, inside = nx.coordinates_in_span_many([], [np.full(3, 1e-16), np.full(3, 1e-3)])
    assert coords.shape == (2, 0) and inside.tolist() == [True, False]
    exact = [nx.zeros((3,), nx.RATIONAL), nx.rational_array(["0", "1/10000000000", "0"])]
    coords, inside = nx.coordinates_in_span_many([], exact)
    assert coords.shape == (2, 0) and inside.tolist() == [True, False]
    assert nx.span_basis([np.full(3, 1e-16), np.full(3, 1e-3)]) == [1]


def test_coordinates_in_span():
    basis = [nx.rational_array([1, 0, 1]), nx.rational_array([0, 1, 1])]
    v = nx.rational_array([2, 3, 5])
    coords = nx.coordinates_in_span(basis, v)
    assert coords is not None
    assert list(coords) == [Fraction(2), Fraction(3)]
    outside = nx.rational_array([0, 0, 1])
    assert nx.coordinates_in_span(basis, outside) is None


def test_matrix_exp_rotation_quarter_turn():
    # exp(t J) for J = [[0,-1],[1,0]] is the rotation by t; frozen at t = pi/2
    j = np.array([[0.0, -1.0], [1.0, 0.0]])
    got = nx.matrix_exp((math.pi / 2) * j)
    want = np.array([[0.0, -1.0], [1.0, 0.0]])
    assert np.max(np.abs(got - want)) < 1e-12
    for t in (0.3, 1.7, -2.5, 40.0):
        assert np.max(np.abs(nx.matrix_exp(t * j) - rotation_matrix(t))) < 1e-11


def test_matrix_exp_inverse_property():
    rng = np.random.default_rng(SEED)
    for _ in range(30):
        x = rng.standard_normal((4, 4))
        x *= 1.0 / max(1.0, np.linalg.norm(x))
        prod = nx.matrix_exp(x) @ nx.matrix_exp(-x)
        assert np.max(np.abs(prod - np.eye(4))) < EQ_EPS


def test_matrix_exp_large_norm():
    j = np.array([[0.0, -1.0], [1.0, 0.0]])
    t = 47.0
    assert np.max(np.abs(nx.matrix_exp(t * j) - rotation_matrix(t))) < 1e-9


def test_matrix_exp_rejects_rational():
    with pytest.raises(nx.ModeError):
        nx.matrix_exp(nx.identity(2, nx.RATIONAL))


def test_realify_multiplicative():
    rng = np.random.default_rng(SEED)
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    left = nx.realify_complex(a) @ nx.realify_complex(b)
    right = nx.realify_complex(a @ b)
    assert np.max(np.abs(left - right)) < 1e-12


# ------------------------------------------------------------ contract kernel

def random_fraction_array(rng, shape, num=(-5, 6), den=(1, 7)):
    flat = [Fraction(int(rng.integers(*num)), int(rng.integers(*den)))
            for _ in range(math.prod(shape))]
    return np.array(flat, dtype=object).reshape(shape)


CONTRACTIONS = [
    ((3, 4), (4, 2), ([1], [0])),
    ((2, 3, 3), (3, 2, 3), ([1, 2], [2, 0])),
    ((3, 3, 3, 3), (3, 3, 3, 3), ([3], [2])),
    ((4,), (4, 3, 3), ([0], [0])),
    ((2, 3), (3, 0), ([1], [0])),
]


@pytest.mark.parametrize("shape_a,shape_b,axes", CONTRACTIONS)
def test_contract_matches_loop_oracle(shape_a, shape_b, axes):
    rng = np.random.default_rng(SEED)
    for _ in range(3):
        a = random_fraction_array(rng, shape_a)
        b = random_fraction_array(rng, shape_b)
        _, sa = nx.numerators(a)
        _, sb = nx.numerators(b)
        assert sa * sb > 1 or a.size == 0 or b.size == 0   # common denominators in play
        got = nx.contract(a, b, axes)
        want = tensordot_loops(a, b, axes)
        assert got.shape == want.shape and got.dtype == object
        assert all(isinstance(x, Fraction) for x in got.reshape(-1))
        assert all(x == y for x, y in zip(got.reshape(-1), want.reshape(-1)))


def test_contract_python_int_fallback_is_exact():
    # numerators near 3**25 * 840 fit int64 one by one, but their products
    # put k * max|a| * max|b| far past 2**62, so an int64 contraction wraps;
    # the kernel must fall back to Python ints and stay exact
    rng = np.random.default_rng(SEED)
    big = 3 ** 25
    a = random_fraction_array(rng, (3, 4), den=(1, 8)) + big
    b = random_fraction_array(rng, (4, 3), den=(1, 8)) * big
    na, _ = nx.numerators(a)
    nb, _ = nx.numerators(b)
    assert 4 * max(map(abs, na.flat)) * max(map(abs, nb.flat)) >= nx.INT64_BOUND
    got = nx.contract(a, b, 1)
    want = tensordot_loops(a, b, ([1], [0]))
    assert all(x == y for x, y in zip(got.reshape(-1), want.reshape(-1)))
    wrapped = np.tensordot(na.astype(np.int64), nb.astype(np.int64), 1)
    assert any(int(w) != int(n) for w, n in zip(wrapped.reshape(-1),
                                                nx.contract_numerators(na, nb, 1).reshape(-1)))


def test_contract_int64_bound_edge():
    # just under the bound stays int64, at the bound moves to Python ints;
    # both give the exact sum
    m = 2 ** 30
    a = nx.rational_array([[m, m]])
    for top, dtype in ((2 ** 31 - 1, np.int64), (2 ** 31, object)):
        b = nx.rational_array([[top], [top]])
        n = nx.contract_numerators(nx.numerators(a)[0], nx.numerators(b)[0], 1)
        assert n.dtype == dtype
        assert nx.contract(a, b, 1)[0, 0] == 2 * m * top


def test_contract_float_is_tensordot_and_modes_must_match():
    rng = np.random.default_rng(SEED)
    a = rng.standard_normal((3, 4, 2))
    b = rng.standard_normal((4, 2, 5))
    got = nx.contract(a, b, ([1, 2], [0, 1]))
    assert got.dtype == float
    assert np.array_equal(got, np.tensordot(a, b, ([1, 2], [0, 1])))
    with pytest.raises(nx.ModeError):
        nx.contract(nx.rational_array([[1, 2]]), np.ones((2, 1)), 1)


def test_numerators_round_trip_and_inverse():
    rng = np.random.default_rng(SEED)
    a = random_fraction_array(rng, (4, 4))
    n, s = nx.numerators(a)
    assert s == math.lcm(*[x.denominator for x in a.reshape(-1)])
    assert all(isinstance(x, int) for x in n.reshape(-1))
    assert np.array_equal(nx.rescale(n, s), a)
    a = a + nx.identity(4, nx.RATIONAL) * 10   # diagonally dominant, invertible
    assert np.array_equal(nx.contract(nx.inverse(a), a, 1), nx.identity(4, nx.RATIONAL))
    with pytest.raises(np.linalg.LinAlgError):
        nx.inverse(nx.rational_array([[1, 2], [2, 4]]))


def test_commutators_match_matrix_products():
    rng = np.random.default_rng(SEED)
    stack = random_fraction_array(rng, (3, 4, 4))
    comms = nx.commutators(stack, stack)
    for i in range(3):
        for j in range(3):
            want = stack[i] @ stack[j] - stack[j] @ stack[i]
            assert np.array_equal(comms[i, j], want)


# ------------------------------------------- stacked exponential, nullspace

def _random_stack(rng, k, n, norms):
    """k random n x n matrices with the given 1-norms."""
    x = rng.standard_normal((k, n, n))
    return x / np.linalg.norm(x, 1, axis=(1, 2))[:, None, None] * np.asarray(norms)[:, None, None]


def test_matrix_exp_stack_equals_single_bitwise():
    # 1-norms from 0.01 to 30 give 0 to 3 squarings inside one stack
    rng = np.random.default_rng(SEED)
    squarings_seen = set()
    for n in range(1, 13):
        norms = 10.0 ** rng.uniform(-2, math.log10(30), 12)
        norms[:2] = (5.0, 30.0)
        x = _random_stack(rng, 12, n, norms)
        stacked = nx.matrix_exp(x)
        assert stacked.shape == x.shape
        for i in range(12):
            assert np.array_equal(stacked[i], nx.matrix_exp(x[i]))
            assert np.array_equal(stacked[i], matrix_exp_loops(x[i]))
            assert np.array_equal(nx.matrix_exp(x[i:i + 1])[0], stacked[i])
            squarings_seen.add(max(0, math.ceil(math.log2(norms[i] / 5.371920351148152))))
    assert squarings_seen == {0, 1, 2, 3}


def test_matrix_exp_empty_stack():
    assert nx.matrix_exp(np.zeros((0, 3, 3))).shape == (0, 3, 3)


@pytest.mark.parametrize("skew", [False, True])
def test_matrix_exp_against_scipy_expm(skew):
    linalg = pytest.importorskip("scipy.linalg")
    rng = np.random.default_rng(SEED + skew)
    for _ in range(150):
        n = int(rng.integers(2, 13))
        x = rng.standard_normal((n, n))
        if skew:
            x = x - x.T
        norm = 10.0 ** rng.uniform(-2, math.log10(30))
        x *= norm / np.linalg.norm(x, 1)
        want = linalg.expm(x)
        rel = np.linalg.norm(nx.matrix_exp(x) - want) / np.linalg.norm(want)
        # below theta_13 = 5.37 no squaring amplifies the [13/13] error; above
        # it s squarings can amplify it by about 2**s times the conditioning
        # of exp at x, so the bound loosens by two orders for norms up to 30
        assert rel < (1e-12 if norm <= 5.4 else 1e-10)


def test_nullspace_reduced_svd_matches_full_svd():
    rng = np.random.default_rng(SEED)
    for _ in range(60):
        cols = int(rng.integers(1, 19))
        rows = int(rng.integers(0, 300))
        rank = int(rng.integers(0, cols + 1))
        a = rng.standard_normal((rows, rank)) @ rng.standard_normal((rank, cols))
        got, want = nx.nullspace(a), nullspace_full_svd(a)
        assert len(got) == len(want)
        assert all(np.array_equal(g, w) for g, w in zip(got, want))


def test_nullspace_wide_matrix_keeps_full_v():
    a = np.array([[1.0, 2.0, 3.0]])
    basis = nx.nullspace(a)
    assert len(basis) == 2
    assert np.max(np.abs(a @ np.array(basis).T)) < 1e-12
