import math

import numpy as np
import pytest

from triplekit import numerics as nx
from triplekit import lts as lt
from triplekit import sympair as sp
from triplekit import fixtures as fx

from oracles import double_bracket_matrix, fixed_group_residual_loops

SEED = 42
LAW_EPS = 1e-9
EXP_EPS = 1e-8


def random_odd_tangent(rng, pair, scale=1.0):
    _, minus = sp.minus_triple(pair)
    coords = rng.standard_normal(minus.dim) * scale
    ambient = np.zeros((pair.ambient_n, pair.ambient_n))
    for c, v in zip(coords, minus.basis):
        ambient = ambient + c * sp.tangent_from_coords(pair, nx.to_float(v))
    return ambient


def random_fixed_element(rng, pair, scale=0.7):
    from triplekit import symlie as sl
    split = sl.eigensplit(sp.derived_symmetric_algebra(pair))
    coords = rng.standard_normal(split.plus.dim) * scale
    x = np.zeros((pair.ambient_n, pair.ambient_n))
    for c, v in zip(coords, split.plus.basis):
        x = x + c * sp.tangent_from_coords(pair, nx.to_float(v))
    return nx.matrix_exp(x)


def test_exp_kernel_points_u2():
    pair = fx.u_modulo_o_pair(2)
    z = fx.central_direction_u(2)
    base = sp.base_point(pair)
    assert sp.coset_eq(sp.exp_pair(pair, z, math.pi), base)
    assert not sp.coset_eq(sp.exp_pair(pair, z, math.pi / 2), base)


def test_exp_rejects_even_or_foreign_tangents():
    pair = fx.u_modulo_o_pair(2)
    even = sp.tangent_from_coords(pair, nx.to_float(nx.rational_array([0, 0, 1, 0])))
    # third basis vector is realified E12 - E21, which is sigma-fixed
    with pytest.raises(sp.PairInputError):
        sp.exp_pair(pair, even, 1.0)
    foreign = np.zeros((4, 4))
    foreign[0, 0] = 1.0  # not skew-hermitian, outside the span
    with pytest.raises(sp.PairInputError):
        sp.exp_pair(pair, foreign, 1.0)


@pytest.mark.parametrize("pair_name", ["u2_mod_o2", "so3_mod_so2"])
def test_reflection_space_laws(pair_name):
    pair = fx.pair_gallery()[pair_name]
    rng = np.random.default_rng(SEED)
    pts = [sp.exp_pair(pair, random_odd_tangent(rng, pair, 0.8)) for _ in range(12)]
    for i, x in enumerate(pts):
        assert sp.coset_residual(sp.coset_mul(x, x), x) < LAW_EPS
        for y in pts:
            xy = sp.coset_mul(x, y)
            assert sp.coset_residual(sp.coset_mul(x, xy), y) < LAW_EPS
        for y in pts[:4]:
            for z in pts[:4]:
                lhs = sp.coset_mul(x, sp.coset_mul(y, z))
                rhs = sp.coset_mul(sp.coset_mul(x, y), sp.coset_mul(x, z))
                assert sp.coset_residual(lhs, rhs) < LAW_EPS


def test_group_plus_laws_gl2():
    rng = np.random.default_rng(SEED)
    mats = [fx.random_invertible(rng, 2) for _ in range(10)]
    for g in mats:
        assert np.max(np.abs(sp.group_plus_mul(g, g) - g)) < LAW_EPS
        for h in mats:
            gh = sp.group_plus_mul(g, h)
            back = sp.group_plus_mul(g, gh)
            assert np.max(np.abs(back - h)) < 1e-7 * max(1.0, np.max(np.abs(h)))
        for h in mats[:4]:
            for k in mats[:4]:
                lhs = sp.group_plus_mul(g, sp.group_plus_mul(h, k))
                rhs = sp.group_plus_mul(sp.group_plus_mul(g, h), sp.group_plus_mul(g, k))
                assert np.max(np.abs(lhs - rhs)) < 1e-6 * max(1.0, np.max(np.abs(lhs)))


def test_representative_independence():
    pair = fx.u_modulo_o_pair(2)
    rng = np.random.default_rng(SEED)
    for _ in range(10):
        x = random_odd_tangent(rng, pair, 0.9)
        p = sp.exp_pair(pair, x)
        k = random_fixed_element(rng, pair)
        p_shift = sp.CosetPoint(pair, p.rep @ k)
        assert sp.coset_eq(p, p_shift)
        q = sp.exp_pair(pair, random_odd_tangent(rng, pair, 0.5))
        assert sp.coset_residual(sp.coset_mul(p, q), sp.coset_mul(p_shift, q)) < LAW_EPS
        assert sp.coset_residual(sp.coset_mul(q, p), sp.coset_mul(q, p_shift)) < LAW_EPS


@pytest.mark.parametrize("builder,basis_fn", [
    (lambda: fx.u_modulo_o_pair(2), None),
    (lambda: fx.sphere_pair(2), None),
])
def test_derived_triple_matches_matrix_double_brackets(builder, basis_fn):
    pair = builder()
    system, minus = sp.minus_triple(pair)
    assert system.mode == nx.RATIONAL  # the rational basis was used
    mats = pair.basis
    minus_mats = []
    for v in minus.basis:
        acc = nx.zeros((pair.ambient_n, pair.ambient_n), nx.RATIONAL)
        for c, b in zip(v, mats):
            acc = acc + c * b
        minus_mats.append(acc)
    d = system.dim
    for i in range(d):
        for j in range(d):
            for k in range(d):
                want = double_bracket_matrix(minus_mats[i], minus_mats[j], minus_mats[k])
                got = nx.zeros((pair.ambient_n, pair.ambient_n), nx.RATIONAL)
                for c, b in zip(system.tensor[i, j, k], minus_mats):
                    got = got + c * b
                assert nx.max_abs(got - want) == 0.0


def test_exp_intertwines_block_embedding():
    pair2 = fx.u_modulo_o_pair(2)
    pair3 = fx.u_modulo_o_pair(3)

    def embed(m4):
        out = np.zeros((6, 6))
        out[0:2, 0:2] = m4[0:2, 0:2]
        out[0:2, 3:5] = m4[0:2, 2:4]
        out[3:5, 0:2] = m4[2:4, 0:2]
        out[3:5, 3:5] = m4[2:4, 2:4]
        return out

    def embed_group(g4):
        out = embed(g4)
        out[2, 2] = 1.0
        out[5, 5] = 1.0
        return out

    rng = np.random.default_rng(SEED)
    for _ in range(8):
        x = random_odd_tangent(rng, pair2, 0.8)
        lhs = sp.exp_pair(pair3, embed(x))
        rhs = sp.CosetPoint(pair3, embed_group(sp.exp_pair(pair2, x).rep))
        assert sp.coset_residual(lhs, rhs) < LAW_EPS


def test_base_point_reflection_has_isolated_fixed_point():
    pair = fx.u_modulo_o_pair(2)
    base = sp.base_point(pair)
    rng = np.random.default_rng(SEED)
    for _ in range(1000):
        x = random_odd_tangent(rng, pair, 1.0)
        norm = np.linalg.norm(x)
        x = x * (rng.uniform(1e-3, 0.1) / norm)  # inside the ball, away from 0
        p = sp.exp_pair(pair, x)
        reflected = sp.coset_mul(base, p)
        assert not sp.coset_eq(reflected, p)


def test_geodesic_translation_law():
    for pair in [fx.u_modulo_o_pair(2), fx.sphere_pair(2)]:
        rng = np.random.default_rng(SEED)
        v = random_odd_tangent(rng, pair, 1.0)
        geo = sp.geodesic(pair, v)
        for s in (0.4, 1.3, -0.7):
            for t in (0.0, 0.5, 2.2):
                moved = sp.translate(geo, s, geo.point(t))
                assert sp.coset_residual(moved, geo.point(t + s)) < EXP_EPS


def test_exp_center_law_u2():
    pair = fx.u_modulo_o_pair(2)
    rng = np.random.default_rng(SEED)
    z = fx.central_direction_u(2)
    xs = [z * rng.uniform(-2, 2) for _ in range(5)]
    ys = [random_odd_tangent(rng, pair, 1.5) for _ in range(5)]
    assert sp.exp_center_check(pair, xs, ys) < EXP_EPS


def test_exp_center_rejects_non_central():
    pair = fx.u_modulo_o_pair(2)
    _, minus = sp.minus_triple(pair)
    non_central = sp.tangent_from_coords(pair, nx.to_float(minus.basis[0]))
    # i*E11 realified is odd but not central in i*Sym(2)
    with pytest.raises(sp.PairInputError):
        sp.central_odd_check(pair, non_central)


def test_group_double_center_direction_is_central():
    pair = fx.group_double_pair(2)
    sp.central_odd_check(pair, fx.central_direction_group_double(2))


def test_sigma_conjugation_inverts_once():
    rng = np.random.default_rng(SEED)
    j = fx.random_invertible(rng, 4)
    sigma = sp.SigmaConjugation(j)
    assert np.array_equal(sigma.inverse, np.linalg.inv(j))
    g = rng.standard_normal((4, 4))
    assert np.array_equal(sigma.apply(g), j @ g @ np.linalg.inv(j))
    assert np.array_equal(sigma.apply_tangent(g), j @ g @ np.linalg.inv(j))


@pytest.mark.parametrize("sigma", ["conjugation", "transpose_inverse"])
def test_fixed_group_residual_stack_equals_single_bitwise(sigma):
    rng = np.random.default_rng(SEED)
    pair = fx.u_modulo_o_pair(2)
    if sigma == "transpose_inverse":
        pair = sp.MatrixSymmetricPair(ambient_n=4, basis=pair.float_basis,
                                      sigma=sp.SigmaTransposeInverse())
    stack = np.array([fx.random_invertible(rng, 4) for _ in range(40)]
                     + [nx.matrix_exp(t * fx.central_direction_u(2)) for t in (0.0, 1.0, math.pi)])
    res = sp.fixed_group_residual(pair, stack)
    assert res.shape == (43,)
    for g, r in zip(stack, res):
        single = sp.fixed_group_residual(pair, g)
        assert isinstance(single, float) and single == float(r)
        assert single == fixed_group_residual_loops(pair, g)
    one = sp.fixed_group_residual(pair, stack[:1])
    assert one.shape == (1,) and float(one[0]) == float(res[0])
