from fractions import Fraction

import numpy as np
import pytest

from triplekit import numerics as nx
from triplekit import lts as lt
from triplekit import fixtures as fx
from triplekit import symlie as sl

from oracles import (
    antisymmetry_defect_loops,
    bracket_eval,
    certify_morphism_loops,
    certify_morphism_old,
    cyclic_defect_loops,
    derivation_defect_loops,
    linear_defect_witness_loops,
    sphere_bracket_direct,
    triple_bracket_loops,
)

SEED = 42


def random_rational_tensor(rng, d):
    t = nx.zeros((d, d, d, d), nx.RATIONAL)
    for i in range(d):
        for j in range(d):
            for k in range(d):
                for l in range(d):
                    t[i, j, k, l] = Fraction(int(rng.integers(-3, 4)), int(rng.integers(1, 4)))
    return t


def test_defect_contractions_match_loop_oracle():
    # validates the tensor-contraction implementation of all three identities
    # against naked quintuple loops on random tensors
    rng = np.random.default_rng(SEED)
    for _ in range(5):
        t = random_rational_tensor(rng, 3)
        m = lt.LieTripleSystem(3, t, nx.RATIONAL)
        c = m.tensor
        anti = nx.max_abs(c + c.transpose(1, 0, 2, 3))
        assert anti == antisymmetry_defect_loops(c)
        cyc = nx.max_abs(c + c.transpose(2, 0, 1, 3) + c.transpose(1, 2, 0, 3))
        assert cyc == cyclic_defect_loops(c)
        report = lt.verify_axioms(m)
        worst_oracle = max(antisymmetry_defect_loops(c), cyclic_defect_loops(c),
                           derivation_defect_loops(c))
        assert report.worst_violation == worst_oracle


def test_bracket_eval_matches_loops():
    rng = np.random.default_rng(SEED)
    m = fx.sphere_lts(3)
    for _ in range(10):
        x, y, z = (nx.rational_array(list(rng.integers(-4, 5, size=3))) for _ in range(3))
        got = bracket_eval(m, x, y, z)
        want = triple_bracket_loops(m.tensor, x, y, z)
        assert all(a == b for a, b in zip(got, want))


def test_sphere_bracket_frozen_values():
    # direct expansion: bracket(e1,e2,e2) = <e2,e2> e1 - <e1,e2> e2 = e1
    #                   bracket(e1,e2,e1) = <e2,e1> e1 - <e1,e1> e2 = -e2
    m = fx.sphere_lts(3)
    e = nx.identity(3, nx.RATIONAL)
    assert list(bracket_eval(m, e[0], e[1], e[1])) == [1, 0, 0]
    assert list(bracket_eval(m, e[0], e[1], e[0])) == [0, -1, 0]
    rng = np.random.default_rng(SEED)
    for _ in range(10):
        x, y, z = (nx.rational_array(list(rng.integers(-3, 4, size=3))) for _ in range(3))
        want = sphere_bracket_direct(x, y, z)
        got = bracket_eval(m, x, y, z)
        assert all(a == b for a, b in zip(got, want))


@pytest.mark.parametrize("name", ["abelian2", "sphere2", "sphere3", "sphere4",
                                  "u2_minus", "u3_minus"])
def test_gallery_systems_satisfy_axioms(name):
    m = fx.lts_gallery()[name]
    report = lt.verify_axioms(m)
    assert report.ok, (name, report)


def test_broken_tensor_reported_with_witness():
    bad = fx.broken_lts()
    report = lt.verify_axioms(bad)
    assert not report.ok
    assert report.worst_violation > 0
    assert report.identity == "left_antisymmetry"
    assert report.witness is not None


def test_center_sphere_trivial():
    z = lt.center(fx.sphere_lts(3))
    assert z.dim == 0


def test_center_abelian_everything():
    z = lt.center(fx.abelian_lts(3))
    assert z.dim == 3


def test_center_u2_minus_is_scalar_line():
    # center of i*Sym(2) is the span of i*I, which has coordinates (1, 1, 0)
    # in the basis (i*E11, i*E22, i*(E12+E21))
    m = fx.u_minus_lts(2)
    z = lt.center(m)
    assert z.dim == 1
    v = z.basis[0]
    assert v[0] == v[1] and v[0] != 0 and v[2] == 0


@pytest.mark.parametrize("eps", [Fraction(1), Fraction(1, 2 ** 1100)])
def test_center_lateral_check_is_exact(eps):
    # bracket(e2, e1, e2) = eps e1: e1 is in the kernel of x -> bracket(x, ., .)
    # and span{e1} is an ideal, but e1 fails the middle lateral identity,
    # by eps, which float() reads as 0.0 when eps = 2^-1100
    tensor = nx.zeros((2, 2, 2, 2), nx.RATIONAL)
    tensor[1, 0, 1, 0] = eps
    with pytest.raises(lt.LtsStructureError, match="central vector fails a lateral identity"):
        lt.center(lt.LieTripleSystem(2, tensor, nx.RATIONAL))


def test_float_center_memory_u4_minus():
    # the d^3 x d stacked bracket matrix is tall: the reduced SVD never builds
    # its d^3 x d^3 U, which alone is 8 MB at d = 10
    import tracemalloc
    from triplekit import sympair as sp
    system, _ = sp.minus_triple(fx.u_modulo_o_pair(4), nx.FLOAT)
    assert system.dim == 10
    lt.center(system)  # warm any lazily built state outside the measurement
    tracemalloc.start()
    try:
        z = lt.center(system)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert z.dim == 1
    assert peak < 2 ** 20

def test_subspace_of_negligible_vectors_is_zero():
    exact = lt.subspace_from_vectors(nx.zeros((1, 3), nx.RATIONAL))
    noise = lt.subspace_from_vectors(np.full((1, 3), 1e-16))
    assert exact.basis.shape == noise.basis.shape == (0, 3)


def test_subsystem_not_ideal_in_sphere():
    m = fx.sphere_lts(3)
    sub = lt.subspace_from_vectors(nx.rational_array([[1, 0, 0], [0, 1, 0]]))
    assert lt.is_subsystem(m, sub)
    # bracket(e1, e3, e1) = -e3 escapes span{e1, e2}
    assert not lt.is_ideal(m, sub)


def test_center_is_ideal_u2_minus():
    m = fx.u_minus_lts(2)
    z = lt.center(m)
    assert lt.is_ideal(m, z)


def test_quotient_by_center():
    m = fx.u_minus_lts(2)
    z = lt.center(m)
    q, proj = lt.quotient(m, z)
    assert q.dim == 2
    assert proj.certified
    assert lt.verify_axioms(q).ok
    # representative independence: shifting the input by a central vector
    # does not move the projection
    rng = np.random.default_rng(SEED)
    for _ in range(10):
        x = nx.rational_array(list(rng.integers(-4, 5, size=3)))
        shift = z.basis[0] * Fraction(int(rng.integers(-3, 4)))
        a = proj.matrix @ x
        b = proj.matrix @ (x + shift)
        assert all(p == q_ for p, q_ in zip(a, b))


def test_quotient_rejects_non_ideal():
    m = fx.sphere_lts(3)
    sub = lt.subspace_from_vectors(nx.rational_array([[1, 0, 0], [0, 1, 0]]))
    with pytest.raises(lt.NotAnIdealError):
        lt.quotient(m, sub)


def test_direct_product_blocks_and_mode_guard():
    a = fx.sphere_lts(2)
    b = fx.u_minus_lts(2)
    prod = lt.direct_product(a, b)
    assert prod.dim == 5
    assert lt.verify_axioms(prod).ok
    z = lt.center(prod)
    assert z.dim == 1  # sphere contributes nothing, u2 part its scalar line
    with pytest.raises(lt.ModeMismatchError):
        lt.direct_product(a, b.to_float())


def test_grid_dimensions_and_axioms():
    base = fx.u_minus_lts(2)
    path = lt.grid_path_system(base, 4, lt.PATH_ZERO_AT_START)
    assert path.system.dim == 3 * base.dim
    loop = lt.grid_path_system(base, 4, lt.LOOP_ZERO_AT_BOTH_ENDS)
    assert loop.system.dim == 2 * base.dim
    assert lt.verify_axioms(loop.system).ok
    with pytest.raises(lt.LtsStructureError):
        lt.grid_path_system(base, 2, lt.LOOP_ZERO_AT_BOTH_ENDS)
    with pytest.raises(lt.LtsStructureError):
        lt.grid_path_system(base, 1, lt.PATH_ZERO_AT_START)


def test_grid_center_is_nodewise_center():
    base = fx.u_minus_lts(2)
    for t in (3, 4, 5):
        loop = lt.grid_path_system(base, t, lt.LOOP_ZERO_AT_BOTH_ENDS)
        z_grid = lt.center(loop.system)
        z_base = lt.center(base)
        embedded = lt.grid_node_embedding(loop, z_base)
        assert z_grid.equals(embedded)


def test_doubling_map_not_a_morphism():
    # scaling by 2 multiplies the trilinear bracket by 8, not 2
    m = fx.sphere_lts(3)
    f = lt.LtsMorphism(m, m, nx.identity(3, nx.RATIONAL) * Fraction(2))
    assert not lt.certify_morphism(f).certified
    ident = lt.LtsMorphism(m, m, nx.identity(3, nx.RATIONAL))
    assert lt.certify_morphism(ident).certified


def test_dimension_cap():
    with pytest.raises(lt.LtsStructureError):
        lt.LieTripleSystem(33, nx.zeros((33,) * 4, nx.RATIONAL), nx.RATIONAL)


# ------------------------------------------- exact contractions, quotients

@pytest.mark.parametrize("name", ["abelian2", "abelian3", "heisenberg_plus_quarter"])
def test_quotient_by_full_center_is_zero_dimensional(name):
    m = fx.lts_gallery()[name]
    z = lt.center(m)
    assert z.dim == m.dim
    q, proj = lt.quotient(m, z)
    assert q.dim == 0 and q.tensor.shape == (0, 0, 0, 0)
    assert proj.matrix.shape == (0, m.dim)
    assert proj.certified
    assert lt.verify_axioms(q).ok


def u3_minus_perturbed():
    m = fx.u_minus_lts(3)
    tensor = m.tensor.copy()
    tensor[0, 0, 1, 1] += Fraction(1)
    return lt.LieTripleSystem(m.dim, tensor, m.mode, m.labels)


@pytest.mark.parametrize("build", [fx.broken_lts, u3_minus_perturbed])
def test_failing_report_matches_loop_oracles(build):
    m = build()
    report = lt.verify_axioms(m)
    anti, anti_at = linear_defect_witness_loops(m.tensor, "left_antisymmetry")
    cyc, cyc_at = linear_defect_witness_loops(m.tensor, "cyclic_sum")
    assert anti == antisymmetry_defect_loops(m.tensor)
    assert cyc == cyclic_defect_loops(m.tensor)
    # the antisymmetry defect is the worst one for both systems
    assert not report.ok
    assert report.identity == "left_antisymmetry"
    assert report.worst_violation == anti == max(anti, cyc)
    assert tuple(int(i) for i in report.witness) == anti_at


def gallery_morphisms():
    """Quotient projections and standard-embedding morphisms of the gallery."""
    out = []
    for name, m in sorted(fx.lts_gallery().items()):
        _, proj = lt.quotient(m, lt.center(m))
        out.append((f"quotient-{name}", proj))
        out.append((f"embed-{name}", sl.standard_embedding(m).embedding))
    return out


def float_morphism(f):
    return lt.LtsMorphism(f.source.to_float(), f.target.to_float(), nx.to_float(f.matrix))


def perturbed(f, delta):
    matrix = f.matrix.copy()
    matrix[0, 0] = matrix[0, 0] + delta
    return lt.LtsMorphism(f.source, f.target, matrix)


def test_certify_morphism_matches_loop_oracle():
    failing = 0
    for label, f in gallery_morphisms():
        for g in (f, float_morphism(f)):
            want = certify_morphism_loops(g)
            assert want, label
            assert lt.certify_morphism(g).certified == want, label
        if not any(x != 0 for x in f.target.tensor.reshape(-1)):
            continue   # every linear map into an abelian system is a morphism
        bad = perturbed(f, Fraction(1, 3))
        failing += 1
        for g in (bad, float_morphism(bad)):
            assert not certify_morphism_loops(g), label
            assert not lt.certify_morphism(g).certified, label
    assert failing >= 10


def test_certify_morphism_matches_fraction_oracle():
    for label, f in gallery_morphisms():
        deltas = (Fraction(1, 3), Fraction(2 ** 70 + 1, 2 ** 11 * 3)) if f.matrix.size else ()
        for g in (f, *(perturbed(f, delta) for delta in deltas)):
            assert lt.certify_morphism(g).certified == certify_morphism_old(g).certified, label


def test_rational_change_of_basis_is_certified():
    # f_a = sum_i p[i, a] e_i; the map taking e-coordinates to f-coordinates
    # is p^-1, an isomorphism onto the system written in the f basis
    m = fx.u_minus_lts(2)
    assert m.dim == 3
    p = nx.rational_array([[1, 1, 0], [0, 1, 0], [0, 1, 1]])
    p = p * nx.rational_array([Fraction(1, 2), 3, Fraction(-2, 3)])
    pinv = nx.inverse(p)
    t = nx.contract(m.tensor, p, axes=([0], [0]))                  # [j,k,l,a]
    t = nx.contract(t, p, axes=([0], [0]))                         # [k,l,a,b]
    t = nx.contract(t, p, axes=([0], [0]))                         # [l,a,b,c]
    t = nx.contract(t, pinv, axes=([0], [1]))                      # [a,b,c,l]
    target = lt.LieTripleSystem(m.dim, t, nx.RATIONAL)
    f = lt.LtsMorphism(m, target, pinv)
    assert lt.certify_morphism(f).certified and certify_morphism_old(f).certified
    bad = perturbed(f, Fraction(1, 2 ** 70))
    assert not lt.certify_morphism(bad).certified and not certify_morphism_old(bad).certified


def test_morphism_off_below_float_resolution_stays_uncertified():
    # (1 + e) I multiplies the bracket by 1 + e on one side and (1 + e)^3 on
    # the other: the sides differ by about 2e, far below float resolution
    m = fx.sphere_lts(3)
    f = lt.LtsMorphism(m, m, nx.identity(3, nx.RATIONAL) * (1 + Fraction(1, 2 ** 80)))
    assert not lt.certify_morphism(f).certified
    assert not certify_morphism_old(f).certified
    assert lt.certify_morphism(float_morphism(f)).certified
