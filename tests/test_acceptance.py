"""Acceptance suite: the headline guarantees, one test per criterion.

Run with -v to get one pass/fail line per criterion; each test also prints a
single summary line with the measured numbers.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from triplekit import fixtures as fx
from triplekit import lts as lt
from triplekit import numerics as nx
from triplekit import periods as pd
from triplekit import symlie as sl
from triplekit import sympair as sp
from triplekit.numerics import RATIONAL


def _line(n, text):
    print(f"[criterion {n:02d}] PASS  {text}")


# 1 ---------------------------------------------------------------------------

def test_criterion_01_space_kernel_generator_is_pi():
    times = []
    for n in (2, 3, 4):
        t0 = time.monotonic()
        lat = pd.kernel_lattice_1d(fx.u_modulo_o_pair(n), fx.central_direction_u(n))
        dt = time.monotonic() - t0
        times.append(dt)
        assert lat.verdict == pd.DISCRETE
        assert abs(float(lat.generators[0][0]) - math.pi) < 1e-8
        assert dt < 5.0
    _line(1, "u(n)/O(n) kernel generator = pi for n=2,3,4 "
             f"(times {', '.join(f'{t:.2f}s' for t in times)})")


# 2 ---------------------------------------------------------------------------

def test_criterion_02_group_kernel_generator_is_two_pi():
    group = pd.kernel_lattice_1d(fx.group_double_pair(2),
                                 fx.central_direction_group_double(2))
    space = pd.kernel_lattice_1d(fx.u_modulo_o_pair(2), fx.central_direction_u(2))
    assert group.verdict == pd.DISCRETE
    g = float(group.generators[0][0])
    assert abs(g - 2.0 * math.pi) < 1e-8
    ratio = g / float(space.generators[0][0])
    assert round(ratio, 9) == 2.0
    _line(2, f"group presentation kernel = 2 pi, ratio to space kernel = {ratio:.9f}")


# 3 ---------------------------------------------------------------------------

def test_criterion_03_centers_are_the_scalar_line_exactly():
    for n in (2, 3, 4):
        iI = nx.realify(nx.zeros((n, n), RATIONAL), nx.identity(n, RATIONAL))
        system = fx.u_minus_lts(n)
        z = lt.center(system)
        assert system.mode == RATIONAL and z.mode == RATIONAL
        assert z.dim == 1
        odd_basis = fx.imaginary_symmetric_basis_realified(n)
        coords = nx.coordinates_in_span([m.reshape(-1) for m in odd_basis],
                                        iI.reshape(-1))
        assert z.contains(coords)

        algebra = fx.u_symmetric_algebra(n).algebra
        zl = sl.lie_center(algebra)
        assert zl.dim == 1
        full_basis = fx.unitary_basis_realified(n)
        coords_full = nx.coordinates_in_span([m.reshape(-1) for m in full_basis],
                                             iI.reshape(-1))
        assert zl.contains(coords_full)
    _line(3, "center(u(n) odd part) = span{iI} = center(u(n)) exactly, n=2..4")


# 4 ---------------------------------------------------------------------------

def test_criterion_04_standard_embedding_over_all_fixtures():
    gallery = fx.lts_gallery()
    results = []
    for name in sorted(gallery):
        system = gallery[name]
        emb = sl.standard_embedding(system)
        rep = sl.verify_lie_axioms(emb.symmetric.algebra.to_float())
        assert rep.ok and rep.worst_violation < 1e-9
        back, _ = sl.minus_triple(emb.symmetric)
        assert np.array_equal(back.tensor, system.tensor)
        assert emb.embedding.certified
        results.append(f"{name}:h{emb.h_dim}")
    for n, h_expect in ((2, 1), (3, 3), (4, 6)):
        emb = sl.standard_embedding(fx.sphere_lts(n))
        assert emb.h_dim == h_expect == n * (n - 1) // 2
    _line(4, "standard embedding certified on all fixtures "
             f"({', '.join(results)})")


# 5 ---------------------------------------------------------------------------

def test_criterion_05_randomized_symmetric_algebras_derive_exact_triples():
    from test_symlie import _conjugate_symmetric_algebra, _random_unimodular
    rng = np.random.default_rng(20260816)
    families = [fx.u_symmetric_algebra(2), fx.so_symmetric_algebra(3),
                fx.flip_symmetric_algebra(fx.heisenberg_lie())]
    checked = 0
    ideals = 0
    for trial in range(100):
        base = families[trial % len(families)]
        sla = _conjugate_symmetric_algebra(
            base, _random_unimodular(rng, base.algebra.dim))
        system, _ = sl.minus_triple(sla)
        rep = lt.verify_axioms(system)
        assert rep.ok and rep.worst_violation == 0
        z = lt.center(system)
        if 0 < z.dim < system.dim:
            assert lt.is_ideal(system, z)
            ideals += 1
        checked += 1
    assert checked == 100
    _line(5, f"100 randomized exact symmetric algebras -> derived triples pass "
             f"axioms exactly ({ideals} nontrivial centers closed as ideals)")


# 6 ---------------------------------------------------------------------------

def test_criterion_06_reflection_laws_hold_to_1e9():
    rng = np.random.default_rng(7)
    worst = 0.0
    count = 0
    for pair in (fx.u_modulo_o_pair(2), fx.sphere_pair(2)):
        _, minus = sp.minus_triple(pair, nx.FLOAT)
        mb = [sp.tangent_from_coords(pair, nx.to_float(v)) for v in minus.basis]
        for _ in range(300):
            def rand_point():
                coeffs = rng.uniform(-0.8, 0.8, size=len(mb))
                x = sum(c * m for c, m in zip(coeffs, mb))
                return sp.exp_pair(pair, x, 1.0)
            a, b, c = rand_point(), rand_point(), rand_point()
            worst = max(worst, sp.coset_residual(sp.coset_mul(a, a), a))
            worst = max(worst, sp.coset_residual(
                sp.coset_mul(a, sp.coset_mul(a, b)), b))
            worst = max(worst, sp.coset_residual(
                sp.coset_mul(a, sp.coset_mul(b, c)),
                sp.coset_mul(sp.coset_mul(a, b), sp.coset_mul(a, c))))
            count += 3
    for _ in range(134):
        x = rng.uniform(-0.7, 0.7, size=(2, 2))
        y = rng.uniform(-0.7, 0.7, size=(2, 2))
        z = rng.uniform(-0.7, 0.7, size=(2, 2))
        g, h, k = (nx.matrix_exp(m) for m in (x, y, z))
        scale = max(1.0, nx.frobenius(g))
        worst = max(worst, nx.frobenius(sp.group_plus_mul(g, g) - g) / scale)
        worst = max(worst, nx.frobenius(
            sp.group_plus_mul(g, sp.group_plus_mul(g, h)) - h) / scale)
        worst = max(worst, nx.frobenius(
            sp.group_plus_mul(g, sp.group_plus_mul(h, k))
            - sp.group_plus_mul(sp.group_plus_mul(g, h),
                                sp.group_plus_mul(g, k))) / scale)
        count += 3
    assert count >= 1000
    assert worst < 1e-9
    _line(6, f"point reflection laws on {count} sampled instances, worst "
             f"residual {worst:.2e}")


# 7 ---------------------------------------------------------------------------

def test_criterion_07_exponential_center_law():
    rng = np.random.default_rng(11)
    worst = 0.0
    for n in (2, 3):
        pair = fx.u_modulo_o_pair(n)
        iI = fx.central_direction_u(n)
        odd = fx.imaginary_symmetric_basis_realified(n)
        odd_f = [nx.to_float(m) for m in odd]
        xs = [t * iI for t in np.linspace(-1.2, 1.2, 10)]
        ys = []
        for _ in range(10):
            coeffs = rng.uniform(-0.9, 0.9, size=len(odd_f))
            ys.append(sum(c * m for c, m in zip(coeffs, odd_f)))
        worst = max(worst, sp.exp_center_check(pair, xs, ys))
    assert worst < 1e-8
    _line(7, f"Exp(2x - y) = Exp(x).Exp(y) for central x over a 100-sample "
             f"grid per pair, worst residual {worst:.2e}")


# 8 ---------------------------------------------------------------------------

def test_criterion_08_sqrt2_projection_witness_under_ten_seconds():
    t0 = time.monotonic()
    cfg = pd.SubgroupSearchConfig(epsilon=1e-6, coefficient_bound=10 ** 6)
    # generator-normalized units: the projected lattice is d (Z + sqrt(2) Z)
    # and every statement below is scale-covariant in d
    lat = pd.subgroup_discreteness(
        [np.array([1.0]), np.array([math.sqrt(2.0)])], cfg)
    assert lat.verdict == pd.NON_DISCRETE_WITNESS
    w = lat.witness
    assert w.norm < 1e-6
    assert max(abs(c) for c in w.coefficients) <= 10 ** 6
    control = pd.subgroup_discreteness(
        [np.array([Fraction(1), Fraction(2)], dtype=object),
         np.array([Fraction(1), Fraction(0)], dtype=object)])
    assert control.verdict == pd.DISCRETE
    dt = time.monotonic() - t0
    assert dt < 10.0
    _line(8, f"sqrt(2) witness {w.coefficients} with |value| = {w.norm:.3e} "
             f"< 1e-6; rational-slope control Discrete ({dt:.2f}s)")


# 9 ---------------------------------------------------------------------------

def test_criterion_09_product_kernel_lattice():
    k = pd.kernel_lattice_1d(fx.u_modulo_o_pair(2), fx.central_direction_u(2))
    prod = pd.product_lattice(k, k)
    assert prod.verdict == pd.DISCRETE
    gens = np.array([np.asarray(g) for g in prod.generators])
    expect = np.array([[math.pi, 0.0], [0.0, math.pi]])
    err = float(np.max(np.abs(gens - expect)))
    assert err < 1e-8
    _line(9, f"product lattice generated by (pi, 0), (0, pi); max error {err:.2e}")


# 10 --------------------------------------------------------------------------

def test_criterion_10_grid_center_equals_nodewise_center():
    for name, system in (("u2_minus", fx.u_minus_lts(2)), ("sphere3", fx.sphere_lts(3))):
        for T in (3, 4, 5):
            grid = lt.grid_path_system(system, T, lt.LOOP_ZERO_AT_BOTH_ENDS)
            zg = lt.center(grid.system)
            znode = lt.grid_node_embedding(grid, lt.center(system))
            assert zg.mode == RATIONAL
            assert zg.equals(znode)
    _line(10, "loop-grid center = node-wise embedded center, exactly, "
              "for u2_minus and sphere3 at T = 3, 4, 5")


# 11 --------------------------------------------------------------------------

def test_criterion_11_geodesic_translation_law():
    worst = 0.0
    for pair, coords in ((fx.u_modulo_o_pair(2), None), (fx.sphere_pair(2), None)):
        _, minus = sp.minus_triple(pair, nx.FLOAT)
        x = sp.tangent_from_coords(pair, nx.to_float(minus.basis[0]))
        x = x / nx.frobenius(x)
        geo = sp.geodesic(pair, x)
        for s in np.linspace(-1.5, 1.5, 7):
            for t in np.linspace(-1.5, 1.5, 7):
                moved = sp.translate(geo, float(s), geo.point(float(t)))
                worst = max(worst, sp.coset_residual(moved, geo.point(float(s + t))))
    assert worst < 1e-8
    _line(11, f"geodesic translation by s maps alpha(t) to alpha(s + t); "
              f"worst residual {worst:.2e}")
