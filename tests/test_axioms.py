"""The axiom check, which takes the derivation identity one block of output
slabs at a time, against the d^6 computation it replaced (oracles.py), plus
its memory bound and the float inputs it refuses."""

import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from triplekit import fixtures as fx
from triplekit import lts as lt
from triplekit import numerics as nx
from triplekit import symlie as sl
from triplekit.numerics import FLOAT, RATIONAL

from oracles import verify_axioms_d6

SEED = 20261018


def _report(rep):
    return (rep.ok, rep.worst_violation, rep.identity, rep.witness)


def _assert_matches_d6(m, tol=nx.DEFAULT_TOLERANCE):
    got, want = lt.verify_axioms(m, tol), verify_axioms_d6(m, tol)
    assert _report(got) == _report(want)
    return got


def _orthogonal(rng, d):
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    return q * np.sign(np.diag(r))


def _rotated(m, rng):
    """The float system on an orthogonal change of basis, as the float decks build it."""
    q = _orthogonal(rng, m.dim)
    t = np.einsum("ai,bj,ck,ijkl,dl->abcd", q, q, q, nx.to_float(m.tensor), q, optimize=True)
    return lt.LieTripleSystem(m.dim, t, FLOAT)


def _deck_float_systems():
    """Rotated copies of the float structure systems: u3 and u4 minus parts,
    spheres, a path grid over u2 minus (d = 9) and a loop grid over the
    4-sphere (d = 12), and two products."""
    rng = np.random.default_rng(SEED)
    bases = {
        "u3_minus": fx.u_minus_lts(3),
        "u4_minus": fx.u_minus_lts(4),
        "sphere5": fx.sphere_lts(5),
        "sphere6": fx.sphere_lts(6),
        "path_u2_minus_4": lt.grid_path_system(fx.u_minus_lts(2), 4, lt.PATH_ZERO_AT_START).system,
        "loop_sphere4_5": lt.grid_path_system(fx.sphere_lts(4), 5,
                                              lt.LOOP_ZERO_AT_BOTH_ENDS).system,
    }
    out = [(f"{name}-{copy}", _rotated(m, rng)) for copy in range(2)
           for name, m in bases.items()]
    for a, b in (("u3_minus", "sphere6"), ("sphere5", "u3_minus")):
        out.append((f"{a}x{b}", lt.direct_product(_rotated(bases[a], rng),
                                                  _rotated(bases[b], rng))))
    return out


@pytest.mark.parametrize("name", sorted(fx.lts_gallery()))
def test_gallery_matches_d6_in_both_modes(name):
    m = fx.lts_gallery()[name]
    assert _assert_matches_d6(m).ok
    assert _assert_matches_d6(m.to_float()).ok


def test_deck_float_systems_match_d6():
    systems = _deck_float_systems()
    assert {m.dim for _, m in systems} >= {6, 9, 10, 11, 12}
    for label, m in systems:
        rep = _assert_matches_d6(m)
        assert rep.ok and 0.0 < rep.worst_violation < 1e-12, label


def test_products_match_d6():
    gallery = fx.lts_gallery()
    for a, b in (("sphere3", "u2_minus"), ("u3_minus", "abelian2"), ("broken", "sphere2")):
        ma = fx.broken_lts() if a == "broken" else gallery[a]
        prod = lt.direct_product(ma, gallery[b])
        _assert_matches_d6(prod)
        _assert_matches_d6(prod.to_float())


@pytest.mark.parametrize("d", range(1, 19))
def test_random_float_tensors_match_d6(d):
    # single entries of a slab differ from the d^6 array in their last bits
    # at d = 9, 11 and 13 and above; the worst value and its witness do not
    rng = np.random.default_rng([SEED, d])
    m = lt.LieTripleSystem(d, rng.standard_normal((d,) * 4), FLOAT)
    rep = _assert_matches_d6(m)
    assert not rep.ok


def _lts_projection(a):
    """Left antisymmetric tensor with zero cyclic sum, 3 times the projection
    of a onto such tensors (integers stay integers), so only the derivation
    identity can fail."""
    a = a - a.transpose(1, 0, 2, 3)
    return 2 * a - a.transpose(1, 2, 0, 3) - a.transpose(2, 0, 1, 3)


@pytest.mark.parametrize("d", [2, 3, 5, 7, 9, 11, 13])
def test_derivation_only_defects_match_d6(d):
    rng = np.random.default_rng([SEED, d, 1])
    m = lt.LieTripleSystem(d, _lts_projection(rng.standard_normal((d,) * 4)), FLOAT)
    rep = _assert_matches_d6(m)
    assert rep.identity == "derivation"


@pytest.mark.parametrize("d", [2, 3, 4, 6, 7, 9, 10])
def test_tied_maxima_follow_the_first_argmax(d):
    # integer-valued entries give integer defects with many equal maxima, so
    # the witness depends on the tie rule alone; both modes agree on it
    rng = np.random.default_rng([SEED, d, 2])
    t = _lts_projection(rng.integers(-1, 2, size=(d,) * 4))
    rep = _assert_matches_d6(lt.LieTripleSystem(d, t.astype(float), FLOAT))
    assert rep.identity == "derivation"
    exact = lt.LieTripleSystem(d, nx.rational_array(t.tolist()), RATIONAL)
    assert _report(_assert_matches_d6(exact)) == _report(rep)


def _cross_slab_tie(c) -> bool:
    """Whether the largest |D| recurs in output slabs of two blocks of the
    loop and the first tuple attaining it is not in the first such block."""
    def e(spec):
        return np.einsum(spec, c, c, optimize=True)
    defect = np.abs(e("uvwm,ijml->ijuvwl") - e("ijum,mvwl->ijuvwl")
                    - e("ijvm,umwl->ijuvwl") - e("ijwm,uvml->ijuvwl"))
    top = defect.max()
    step = max(1, lt.SLAB_ENTRIES // c.shape[0] ** 5)
    blocks = sorted({int(l) // step for l in np.flatnonzero((defect == top).any(axis=(0, 1, 2, 3, 4)))})
    first = np.unravel_index(int(np.argmax(defect)), defect.shape)
    return top > 0 and len(blocks) > 1 and first[5] // step != blocks[0]


@pytest.mark.parametrize("d", [7, 9])
def test_derivation_ties_across_slabs_take_the_lowest_flat_index(d):
    # sparse integer tensors tie often; some tie across blocks of output
    # slabs with the first tuple in a later block than the first tied slab
    crossing = 0
    for seed in range(60):
        rng = np.random.default_rng([SEED, d, seed])
        a = np.zeros((d,) * 4)
        for _ in range(3):
            a[tuple(rng.integers(0, d, size=4))] = rng.choice([-1.0, 1.0])
        c = _lts_projection(a)
        rep = _assert_matches_d6(lt.LieTripleSystem(d, c, FLOAT))
        assert rep.identity in (None, "derivation")
        crossing += _cross_slab_tie(c)
    assert crossing >= 1


@pytest.mark.parametrize("name", ["u3_minus", "sphere4", "so3_plus_quarter", "u2_minus"])
def test_one_entry_perturbations_match_d6(name):
    m = fx.lts_gallery()[name]
    rng = np.random.default_rng([SEED, len(name)])
    for _ in range(6):
        idx = tuple(int(x) for x in rng.integers(0, m.dim, size=4))
        exact = m.tensor.copy()
        exact[idx] += Fraction(int(rng.integers(1, 5)), int(rng.integers(1, 7)))
        me = lt.LieTripleSystem(m.dim, exact, RATIONAL)
        assert not _assert_matches_d6(me).ok
        floats = nx.to_float(m.tensor).copy()
        floats[idx] += 10.0 ** -int(rng.integers(3, 12))
        _assert_matches_d6(lt.LieTripleSystem(m.dim, floats, FLOAT))


def test_exact_check_with_python_int_numerators_matches_d6():
    # numerators near 2**40 fail the int64 bound of the derivation products
    m = fx.sphere_lts(3)
    big = m.tensor * Fraction(2 ** 40 + 1, 3)
    big[0, 1, 0, 1] += Fraction(1, 5)
    rep = _assert_matches_d6(lt.LieTripleSystem(3, big, RATIONAL))
    assert not rep.ok


def test_float_check_at_d18_stays_in_o_d5_memory():
    # the d^6 computation peaked at 1,559 MiB here; one d = 18 slab is 15 MiB
    d = 18
    m = lt.LieTripleSystem(d, np.random.default_rng([SEED, d]).standard_normal((d,) * 4),
                           FLOAT)
    tracemalloc.start()
    try:
        lt.verify_axioms(m)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 160 * 2 ** 20


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_float_tensors_are_refused(bad):
    t = nx.to_float(fx.sphere_lts(3).tensor).copy()
    t[0, 1, 0, 1] = bad
    with pytest.raises(lt.LtsStructureError, match="non-finite"):
        lt.LieTripleSystem(3, t, FLOAT)
    g = nx.to_float(fx.so3_lie().tensor).copy()
    g[0, 1, 2] = bad
    with pytest.raises(lt.LtsStructureError, match="non-finite"):
        sl.LieAlgebra(3, g, FLOAT)
