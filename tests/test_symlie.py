from fractions import Fraction

import numpy as np
import pytest

from triplekit import numerics as nx
from triplekit import lts as lt
from triplekit import symlie as sl
from triplekit import fixtures as fx

from oracles import bracket_eval, double_bracket_matrix, lie_bracket_eval

SEED = 42


def test_lie_axioms_gallery():
    for name, g in [("heisenberg", fx.heisenberg_lie()), ("so3", fx.so3_lie())]:
        assert sl.verify_lie_axioms(g).ok, name
    for name, sla in fx.symmetric_algebra_gallery().items():
        assert sl.verify_lie_axioms(sla.algebra).ok, name


def test_involution_defect_rejected():
    g = fx.heisenberg_lie()
    theta = nx.identity(3, nx.RATIONAL)
    theta[0, 0] = Fraction(2)  # not an involution
    with pytest.raises(sl.InvolutionDefectError):
        sl.SymmetricLieAlgebra(g, theta)


def test_non_automorphism_rejected():
    g = fx.heisenberg_lie()
    theta = nx.identity(3, nx.RATIONAL)
    theta[0, 0] = Fraction(-1)  # negating p alone breaks [p,q] = z
    with pytest.raises(sl.InvolutionDefectError):
        sl.SymmetricLieAlgebra(g, theta)


def test_eigensplit_identity_involution():
    g = fx.so3_lie()
    sla = sl.SymmetricLieAlgebra(g, nx.identity(3, nx.RATIONAL))
    split = sl.eigensplit(sla)
    assert split.plus.dim == 3 and split.minus.dim == 0


def test_eigensplit_flip():
    sla = fx.flip_symmetric_algebra(fx.so3_lie())
    split = sl.eigensplit(sla)
    assert split.plus.dim == 3 and split.minus.dim == 3
    # odd vectors have the shape (x, -x)
    for v in split.minus.basis:
        assert all(v[i] == -v[3 + i] for i in range(3))


def test_eigensplit_u2():
    sla = fx.u_symmetric_algebra(2)
    split = sl.eigensplit(sla)
    assert split.plus.dim == 1   # realified antisymmetric 2x2
    assert split.minus.dim == 3  # realified i * Sym(2)


def test_triple_from_involution_matches_matrix_double_bracket():
    # the derived tensor on i*Sym(2) must reproduce the explicit double
    # commutators of the realified matrices, exactly
    sla = fx.u_symmetric_algebra(2)
    system, minus = sl.minus_triple(sla)
    mats = fx.unitary_basis_realified(2)
    minus_mats = []
    for v in minus.basis:
        acc = nx.zeros((4, 4), nx.RATIONAL)
        for c, b in zip(v, mats):
            acc = acc + c * b
        minus_mats.append(acc)
    flat = [m.reshape(-1) for m in minus_mats]
    d = system.dim
    for i in range(d):
        for j in range(d):
            for k in range(d):
                want = double_bracket_matrix(minus_mats[i], minus_mats[j], minus_mats[k])
                got = nx.zeros((4, 4), nx.RATIONAL)
                for c, b in zip(system.tensor[i, j, k], minus_mats):
                    got = got + c * b
                assert nx.max_abs(got - want) == 0.0
    assert lt.verify_axioms(system).ok


def test_closure_defect():
    algebra, theta = fx.broken_symmetric_algebra()
    with pytest.raises(sl.ClosureDefectError):
        sl.triple_from_involution(algebra, theta)


def test_g_plus_so3_axioms_and_center():
    system = sl.g_plus(fx.so3_lie())
    assert lt.verify_axioms(system).ok
    assert lt.center(system).dim == 0
    # quarter scaling: bracket(e1,e2,e2) = [[L12,L13],L23]/4 expressed in basis
    mats = fx.so_basis(3)
    e = nx.identity(3, nx.RATIONAL)
    got = bracket_eval(system, e[0], e[1], e[1])
    want_mat = double_bracket_matrix(mats[0], mats[1], mats[1]) * Fraction(1, 4)
    acc = nx.zeros((3, 3), nx.RATIONAL)
    for c, b in zip(got, mats):
        acc = acc + c * b
    assert nx.max_abs(acc - want_mat) == 0.0


def test_g_plus_heisenberg_center():
    system = sl.g_plus(fx.heisenberg_lie())
    # commutators land in the center, so every direction is central here
    assert lt.center(system).dim == 3
    assert lt.verify_axioms(system).ok


def test_lie_center_heisenberg():
    z = sl.lie_center(fx.heisenberg_lie())
    assert z.dim == 1
    assert z.basis[0][2] != 0 and z.basis[0][0] == 0 and z.basis[0][1] == 0


def test_lie_center_so3_trivial():
    assert sl.lie_center(fx.so3_lie()).dim == 0


def test_symmetric_center_theta_invariant():
    sla = fx.u_symmetric_algebra(2)
    z = sl.symmetric_center(sla)
    assert z.dim == 1


def test_su2_split_and_trivial_centers():
    sla = fx.su2_symmetric_algebra()
    split = sl.eigensplit(sla)
    assert split.plus.dim == 1 and split.minus.dim == 2
    assert sl.lie_center(sla.algebra).dim == 0
    system, _ = sl.minus_triple(sla)
    assert lt.center(system).dim == 0


def test_minus_center_contains_algebra_center_minus_part():
    # the odd part of the algebra center is always central in the triple system
    half = Fraction(1, 2)
    seen_nonzero = 0
    for sla in [fx.u_symmetric_algebra(2), fx.u_symmetric_algebra(3),
                fx.flip_symmetric_algebra(fx.heisenberg_lie())]:
        system, minus = sl.minus_triple(sla)
        z_alg = sl.lie_center(sla.algebra)
        z_sys = lt.center(system)
        for v in z_alg.basis:
            odd = (v - sla.theta @ v) * half
            if nx.max_abs(odd) == 0.0:
                continue
            coords = nx.coordinates_in_span(list(minus.basis), odd)
            assert coords is not None  # center is theta stable
            assert z_sys.contains(coords)
            seen_nonzero += 1
    assert seen_nonzero >= 3  # the check must not pass vacuously


@pytest.mark.parametrize("n,h_expected", [(2, 1), (3, 3), (4, 6)])
def test_standard_embedding_sphere(n, h_expected):
    emb = sl.standard_embedding(fx.sphere_lts(n))
    assert emb.h_dim == h_expected  # n(n-1)/2 rotation operators
    assert emb.symmetric.dim == h_expected + n
    assert emb.embedding.certified


@pytest.mark.parametrize("n", [3, 4, 5])
def test_standard_embedding_rotated_float_sphere(n):
    # the (i, i) bracket operators of a rotated sphere are rounding noise,
    # about 1e-16; they lie in the span of nothing but count as zero
    q, r = np.linalg.qr(np.random.default_rng([SEED, n]).standard_normal((n, n)))
    q = q * np.sign(np.diag(r))
    t = np.einsum("ai,bj,ck,ijkl,dl->abcd", q, q, q, nx.to_float(fx.sphere_lts(n).tensor), q)
    assert 0 < np.abs(t[0, 0]).max() < 1e-14
    emb = sl.standard_embedding(lt.LieTripleSystem(n, t, nx.FLOAT))
    assert emb.h_dim == n * (n - 1) // 2
    assert sl.lie_center(emb.symmetric.algebra).dim == 0
    assert emb.embedding.certified


def test_standard_embedding_below_float_range():
    # every bracket entry is +-2^-1100, which float() turns into 0.0
    m = fx.sphere_lts(3)
    small = lt.LieTripleSystem(3, m.tensor * Fraction(1, 2 ** 1100), nx.RATIONAL)
    emb = sl.standard_embedding(small)
    assert emb.h_dim == 3 and emb.symmetric.dim == 6
    assert emb.embedding.certified


def test_standard_embedding_u2_minus():
    emb = sl.standard_embedding(fx.u_minus_lts(2))
    assert emb.h_dim == 1
    assert emb.symmetric.dim == 4
    z = sl.lie_center(emb.symmetric.algebra)
    assert z.dim == 1


def test_standard_embedding_abelian():
    emb = sl.standard_embedding(fx.abelian_lts(3))
    assert emb.h_dim == 0
    assert emb.symmetric.dim == 3


def test_flip_minus_isomorphic_to_quarter_system():
    # (x, -x) -> 2x intertwines the flip triple bracket with the quarter bracket
    for g in [fx.so3_lie(), fx.heisenberg_lie()]:
        sla = fx.flip_symmetric_algebra(g)
        flip_sys, minus = sl.minus_triple(sla)
        plus_sys = sl.g_plus(g)
        d = g.dim
        rows = []
        for v in minus.basis:
            rows.append(np.array([2 * v[i] for i in range(d)], dtype=object))
        matrix = np.array(rows, dtype=object).T
        f = lt.LtsMorphism(flip_sys, plus_sys, matrix)
        assert lt.certify_morphism(f).certified


def test_random_conjugated_symmetric_algebras():
    # structured random family: conjugate a known pair by an invertible
    # rational change of basis; every derived system must pass the axioms
    rng = np.random.default_rng(SEED)
    bases = [fx.u_symmetric_algebra(2), fx.so_symmetric_algebra(2),
             fx.flip_symmetric_algebra(fx.heisenberg_lie())]
    for trial in range(12):
        sla = bases[trial % len(bases)]
        d = sla.dim
        s = _random_unimodular(rng, d)
        conj = _conjugate_symmetric_algebra(sla, s)
        split = sl.eigensplit(conj)
        assert split.plus.dim + split.minus.dim == d
        system, _ = sl.minus_triple(conj)
        assert lt.verify_axioms(system).ok


def _random_unimodular(rng, d):
    m = nx.identity(d, nx.RATIONAL)
    for _ in range(3 * d):
        i, j = rng.integers(0, d, size=2)
        if i == j:
            continue
        m[i] = m[i] + Fraction(int(rng.integers(-2, 3))) * m[j]
    return m


def _conjugate_symmetric_algebra(sla, s):
    g = sla.algebra
    d = g.dim
    sinv = nx.inverse(s)
    new_basis = [s.T[i] for i in range(d)]  # row i holds the new basis vector
    tensor = nx.zeros((d, d, d), nx.RATIONAL)
    for i in range(d):
        for j in range(d):
            br = lie_bracket_eval(g, new_basis[i], new_basis[j])
            tensor[i, j, :] = sinv @ br
    theta = sinv @ sla.theta @ s
    return sl.SymmetricLieAlgebra(sl.LieAlgebra(d, tensor, nx.RATIONAL), theta)
