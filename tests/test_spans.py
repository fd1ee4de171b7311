"""The batched span kernel and the structure checks built on it, against the
per-target loops in oracles.py, plus the error paths those checks guard."""

from fractions import Fraction

import numpy as np
import pytest

from triplekit import fixtures as fx
from triplekit import lts as lt
from triplekit import numerics as nx
from triplekit import symlie as sl
from triplekit import sympair as sp
from triplekit.numerics import FLOAT, RATIONAL, TolerancePolicy

from oracles import (coordinates_in_span_loops, embedding_tensor_loops, is_ideal_loops,
                     is_subsystem_loops, plus_closure_loops, quotient_old,
                     span_basis_old, standard_embedding_old)

SEED = 20240611
LOOSE = TolerancePolicy(eq_tol=10.0)


def _outcome(fn, *args):
    """What a call returns, or the type and message of the error it raises."""
    try:
        return fn(*args)
    except (lt.LtsStructureError, sl.InvolutionDefectError, sl.AxiomDefectError) as e:
        return type(e), str(e)


def _float_subspace(sub: lt.Subspace) -> lt.Subspace:
    return lt.Subspace(nx.to_float(sub.basis))


def _exact_subspace(d: int, rows) -> lt.Subspace:
    """Subspace on the given rows as they are, dependent ones included."""
    basis = nx.rational_array(rows) if len(rows) else nx.zeros((0, d), RATIONAL)
    return lt.Subspace(basis.reshape(len(rows), d))


def _assert_kernel_matches_loops(basis, targets, tol=nx.DEFAULT_TOLERANCE):
    coords, inside = nx.coordinates_in_span_many(basis, targets, tol)
    assert coords.shape == (len(targets), len(basis))
    assert inside.shape == (len(targets),) and inside.dtype == bool
    for t, v in enumerate(targets):
        want = coordinates_in_span_loops(list(basis), v, tol)
        assert bool(inside[t]) == (want is not None)
        assert (nx.coordinates_in_span(basis, v, tol) is None) == (want is None)
        if want is None:
            continue
        if nx.mode_of(v) == RATIONAL:
            assert all(isinstance(x, Fraction) for x in coords[t])
            assert list(coords[t]) == list(want)
        else:
            np.testing.assert_allclose(coords[t], want, rtol=0, atol=1e-12)
    return inside


def _kernel_cases():
    rng = np.random.default_rng(SEED)
    a, b = rng.integers(-3, 4, size=(2, 4))
    dependent = [a, b, a + b, 2 * a, np.zeros(4, dtype=int)]
    inside_targets = [3 * a - b, np.zeros(4, dtype=int), a + 5 * b]
    full = [[1, 2, 0], [0, 1, 1], [1, 0, 1]]
    return [
        ([], [[0, 0, 0], [0, 1, 0]]),                      # empty basis, zero target
        (full, [[1, 1, 1], [0, 0, 0], [5, -2, 7]]),       # full rank: everything inside
        (dependent, inside_targets + [[1, 0, 0, 0], [0, 0, 0, 1]]),
        (dependent, []),                                   # no targets
        ([[0, 0, 0]], [[0, 0, 0], [1, 0, 0]]),             # basis of zero vectors
    ]


@pytest.mark.parametrize("case", range(len(_kernel_cases())))
@pytest.mark.parametrize("mode", [RATIONAL, FLOAT])
def test_span_kernel_matches_per_target_loops(case, mode):
    rows, target_rows = _kernel_cases()[case]
    build = nx.rational_array if mode == RATIONAL else nx.float_array
    basis = [build(np.asarray(r).tolist()) for r in rows]
    targets = [build(np.asarray(t).tolist()) for t in target_rows]
    inside = _assert_kernel_matches_loops(basis, targets)
    if case == 0:
        assert list(inside) == [True, False]
    if case == 2:
        assert list(inside) == [True, True, True, False, False]


def test_span_kernel_takes_arrays_and_lists_alike():
    basis = nx.rational_array([[1, 0, 1], [0, 1, 1]])
    targets = nx.rational_array([[2, 3, 5], [0, 0, 1]])
    coords, inside = nx.coordinates_in_span_many(basis, targets)
    coords_l, inside_l = nx.coordinates_in_span_many(list(basis), list(targets))
    assert list(inside) == list(inside_l) == [True, False]
    assert list(coords[0]) == list(coords_l[0]) == [Fraction(2), Fraction(3)]


def _float_span_cases():
    """Tall (few long vectors), wide (more vectors than coordinates) and
    rank-deficient float bases, each with targets inside, outside, zero and
    far from the unit scale."""
    rng = np.random.default_rng(SEED)
    a = rng.standard_normal((4, 9))
    cases = {
        "tall": rng.standard_normal((3, 12)),
        "wide": rng.standard_normal((12, 5)),
        "rank_deficient": np.vstack([a, a[0] + 2.0 * a[1], 3.0 * a[2], np.zeros(9)]),
    }
    out = {}
    for name, basis in cases.items():
        n = basis.shape[1]
        combos = rng.standard_normal((6, len(basis))) @ basis
        targets = np.vstack([combos, 1e7 * combos[:2], rng.standard_normal((5, n)),
                             1e-7 * rng.standard_normal((2, n)), np.zeros((1, n))])
        out[name] = (basis, targets)
    return out


@pytest.mark.parametrize("name", ["tall", "wide", "rank_deficient"])
def test_stacked_residual_norms_equal_per_target_norms(name):
    basis, targets = _float_span_cases()[name]
    coords = np.linalg.lstsq(basis.T, targets.T, rcond=None)[0]
    recon = basis.T @ coords
    per_target = np.array([np.linalg.norm(recon[:, j] - targets[j])
                           for j in range(len(targets))])
    stacked = nx.row_norms(np.subtract(recon.T, targets, order="C"))
    assert stacked.tobytes() == per_target.tobytes()
    target_norms = np.array([np.linalg.norm(t) for t in targets])
    assert nx.row_norms(targets).tobytes() == target_norms.tobytes()
    assert nx.row_norms(np.asfortranarray(targets)).tobytes() == target_norms.tobytes()
    # the membership rule the kernel applied per target before
    tol = nx.DEFAULT_TOLERANCE
    want = [float(np.linalg.norm(recon[:, j] - targets[j]))
            <= tol.membership_tol * max(1.0, float(np.linalg.norm(targets[j])))
            for j in range(len(targets))]
    _, inside = nx.coordinates_in_span_many(basis, targets, tol)
    assert inside.tolist() == want


@pytest.mark.parametrize("name", ["tall", "wide", "rank_deficient"])
def test_float_membership_matches_per_target_loops(name):
    basis, targets = _float_span_cases()[name]
    inside = _assert_kernel_matches_loops(list(basis), list(targets))
    expected_out = name != "wide"   # twelve vectors in general position span R^5
    assert inside[:8].all() and inside[-1]
    assert (not inside[8:13].any()) == expected_out


def _random_rows(rng, count: int, d: int):
    return [rng.integers(-2, 3, size=d).tolist() for _ in range(count)]


def _subspaces(m: lt.LieTripleSystem, rng) -> list[lt.Subspace]:
    """Center, empty, whole space on a dependent basis, and random subspaces."""
    d = m.dim
    z = lt.center(m)
    eye = np.eye(d, dtype=int).tolist()
    subs = [z, _exact_subspace(d, []),
            _exact_subspace(d, eye + [[1] * d])]
    if z.dim:
        zrows = [[str(x) for x in v] for v in z.basis]
        subs.append(_exact_subspace(d, zrows + zrows))    # center, each vector twice
    for k in range(1, d):
        rows = _random_rows(rng, k, d)
        subs.append(_exact_subspace(d, rows))
        subs.append(_exact_subspace(d, rows + [np.sum(rows, axis=0).tolist()]))
    return subs


def _assert_checks_match_loops(m: lt.LieTripleSystem, sub: lt.Subspace) -> tuple:
    got = (_outcome(lt.is_ideal, m, sub), _outcome(lt.is_subsystem, m, sub))
    assert got == (_outcome(is_ideal_loops, m, sub), _outcome(is_subsystem_loops, m, sub))
    mf, sf = m.to_float(), _float_subspace(sub)
    assert (_outcome(lt.is_ideal, mf, sf), _outcome(lt.is_subsystem, mf, sf)) == got
    assert got == (_outcome(is_ideal_loops, mf, sf), _outcome(is_subsystem_loops, mf, sf))
    return got


@pytest.mark.parametrize("name", sorted(fx.lts_gallery()))
def test_ideal_and_subsystem_checks_match_loops_on_gallery(name):
    m = fx.lts_gallery()[name]
    rng = np.random.default_rng([SEED, m.dim])
    verdicts = [_assert_checks_match_loops(m, sub) for sub in _subspaces(m, rng)]
    assert verdicts[0] == (True, True)      # the center
    assert verdicts[2] == (True, True)      # the whole space
    if name in ("sphere3", "sphere4", "u3_minus"):
        assert any(v[0] is False for v in verdicts)


def test_ideal_checks_match_loops_on_product_factors():
    m = lt.direct_product(fx.sphere_lts(2), fx.u_minus_lts(2))
    left = [[1, 2, 0, 0, 0], [2, 4, 0, 0, 0], [0, 1, 0, 0, 0]]                 # dependent
    right = [[0, 0, 1, 1, 0], [0, 0, 0, 1, 1], [0, 0, 1, 2, 1], [0, 0, 1, 0, 0]]
    mixed = [[1, 0, 1, 0, 0]]
    verdicts = [_assert_checks_match_loops(m, _exact_subspace(5, rows))
                for rows in (left, right, mixed)]
    assert [v[0] for v in verdicts] == [True, True, False]


@pytest.mark.parametrize("base, grid_size, constraint", [
    ("sphere2", 3, lt.PATH_ZERO_AT_START),
    ("sphere2", 4, lt.LOOP_ZERO_AT_BOTH_ENDS),
    ("u2_minus", 3, lt.PATH_ZERO_AT_START),
])
def test_ideal_checks_match_loops_on_grids(base, grid_size, constraint):
    grid = lt.grid_path_system(fx.lts_gallery()[base], grid_size, constraint)
    rng = np.random.default_rng([SEED, grid_size])
    d = grid.base.dim
    base_subs = [lt.center(grid.base), _exact_subspace(d, _random_rows(rng, 1, d))]
    subs = [lt.grid_node_embedding(grid, s) for s in base_subs]
    subs.append(_exact_subspace(grid.system.dim, _random_rows(rng, 2, grid.system.dim)))
    for sub in subs:
        _assert_checks_match_loops(grid.system, sub)


@pytest.mark.parametrize("name", sorted(fx.symmetric_algebra_gallery()))
def test_eigensplit_closure_matches_loops(name):
    sla = fx.symmetric_algebra_gallery()[name]
    split = sl.eigensplit(sla)
    plus_closure_loops(sla.algebra, split.plus)
    float_sla = sl.SymmetricLieAlgebra(sla.algebra.to_float(), nx.to_float(sla.theta))
    assert sl.eigensplit(float_sla).plus.dim == split.plus.dim


@pytest.mark.parametrize("name", sorted(fx.lts_gallery()))
def test_standard_embedding_matches_per_operator_loops(name):
    m = fx.lts_gallery()[name]
    ops, tensor = embedding_tensor_loops(m)
    emb = sl.standard_embedding(m)
    assert emb.h_dim == len(ops)
    assert all(np.array_equal(a, b) for a, b in zip(emb.operators, ops))
    got = emb.symmetric.algebra.tensor
    assert got.shape == tensor.shape and (got == tensor).all()
    mf = m.to_float()
    _, tensor_f = embedding_tensor_loops(mf)
    emb_f = sl.standard_embedding(mf)
    assert emb_f.h_dim == emb.h_dim and emb_f.embedding.certified
    np.testing.assert_allclose(emb_f.symmetric.algebra.tensor, tensor_f, rtol=0, atol=1e-9)


def _rebased_lts(m: lt.LieTripleSystem, rng) -> lt.LieTripleSystem:
    """The exact system on a seeded rational change of basis f_a = sum_i p[i, a] e_i."""
    p = nx.rational_array([[str(Fraction(int(rng.integers(-3, 4)), int(rng.integers(1, 4))))
                            for _ in range(m.dim)] for _ in range(m.dim)])
    while len(nx.span_basis(list(p))) < m.dim:
        p = p + nx.identity(m.dim, RATIONAL)
    t = nx.contract(m.tensor, p, axes=([0], [0]))                  # [j,k,l,a]
    t = nx.contract(t, p, axes=([0], [0]))                         # [k,l,a,b]
    t = nx.contract(t, p, axes=([0], [0]))                         # [l,a,b,c]
    t = nx.contract(t, nx.inverse(p), axes=([0], [1]))             # [a,b,c,l]
    return lt.LieTripleSystem(m.dim, t, RATIONAL)


def _gallery_and_rebased():
    rng = np.random.default_rng(SEED)
    out = []
    for name, m in sorted(fx.lts_gallery().items()):
        out += [(name, m), (f"{name} rebased", _rebased_lts(m, rng))]
    return out


def test_standard_embedding_matches_old_code():
    for label, m in _gallery_and_rebased():
        got, want = sl.standard_embedding(m), standard_embedding_old(m)
        assert got.h_dim == want.h_dim, label
        assert all((a == b).all() for a, b in zip(got.operators, want.operators)), label
        for a, b in ((got.symmetric.algebra.tensor, want.symmetric.algebra.tensor),
                     (got.symmetric.theta, want.symmetric.theta),
                     (got.embedding.matrix, want.embedding.matrix),
                     (got.embedding.target.tensor, want.embedding.target.tensor)):
            assert a.shape == b.shape and (a == b).all(), label
        assert got.embedding.certified and want.embedding.certified, label


def test_float_span_basis_matches_old_code_on_bracket_operators():
    # no operator of these systems is rounding noise, so the membership rule
    # keeps exactly the operators the SVD rank did
    for label, m in _gallery_and_rebased():
        d = m.dim
        ops = list(nx.to_float(m.tensor).transpose(0, 1, 3, 2).reshape(d * d, d * d))
        ids = [id(v) for v in ops]
        assert nx.span_basis(ops) == [ids.index(id(v)) for v in span_basis_old(ops)], label


# ------------------------------------------------------------------ error paths

def test_one_sided_ideal_closure_raises():
    # bracket(e1, ., .) vanishes, so span{e1} passes the first test, but
    # bracket(e2, e1, e2) = e2 leaves it
    tensor = nx.zeros((2, 2, 2, 2), RATIONAL)
    tensor[1, 0, 1, 1] = Fraction(1)
    m = lt.LieTripleSystem(2, tensor, RATIONAL)
    sub = _exact_subspace(2, [[1, 0]])
    for system, s in ((m, sub), (m.to_float(), _float_subspace(sub))):
        want = (lt.LtsStructureError,
                "ideal closure is one-sided; tensor is not a Lie triple system")
        assert _outcome(lt.is_ideal, system, s) == want
        assert _outcome(is_ideal_loops, system, s) == want


def _heisenberg_float() -> sl.LieAlgebra:
    return fx.heisenberg_lie().to_float()


def test_plus_eigenspace_not_a_subalgebra_raises():
    # theta = diag(1, 1, -1) on Heisenberg: [p, q] = z leaves the +1 part;
    # a loose construction tolerance lets the non-automorphism through
    sla = sl.SymmetricLieAlgebra(_heisenberg_float(), np.diag([1.0, 1.0, -1.0]), LOOSE)
    want = (sl.InvolutionDefectError, "+1 eigenspace is not a subalgebra")
    assert _outcome(sl.eigensplit, sla) == want
    split_plus = lt.Subspace(np.eye(3)[:2])
    assert _outcome(plus_closure_loops, sla.algebra, split_plus) == want


def test_center_not_theta_invariant_raises():
    # theta swaps p and z, so it moves the center span{z}
    theta = np.eye(3)[[2, 1, 0]]
    sla = sl.SymmetricLieAlgebra(_heisenberg_float(), theta, LOOSE)
    assert _outcome(sl.symmetric_center, sla) == (
        sl.InvolutionDefectError, "center is not theta invariant")


def test_operator_span_not_closed_raises():
    # the operators of (e1, e1) and (e2, e2) are E12 and E21; their
    # commutator E11 - E22 is not a combination of them
    tensor = nx.zeros((2, 2, 2, 2), RATIONAL)
    tensor[0, 0, 1, 0] = Fraction(1)
    tensor[1, 1, 0, 1] = Fraction(1)
    m = lt.LieTripleSystem(2, tensor, RATIONAL)
    want = (sl.AxiomDefectError, "operator span is not closed under commutators")
    assert _outcome(sl.standard_embedding, m) == want
    assert _outcome(embedding_tensor_loops, m) == want


def _e(i, j):
    return fx._e(2, i, j)


def _conjugation_pair(mats, j):
    return sp.MatrixSymmetricPair(2, mats, sp.SigmaConjugation(j))


def test_non_closed_matrix_bases_raise():
    one = nx.identity(2, RATIONAL)
    with pytest.raises(sp.PairInputError, match="not closed under commutators"):
        sp.derived_symmetric_algebra(_conjugation_pair([_e(0, 1), _e(1, 0)], one))
    with pytest.raises(sp.PairInputError, match="not closed under commutators"):
        sp.minus_triple(_conjugation_pair([_e(0, 0), _e(0, 1) + _e(1, 0)], one))
    swap = nx.rational_array([[0, 1], [1, 0]])
    with pytest.raises(sp.PairInputError, match="theta does not preserve the Lie algebra span"):
        sp.derived_symmetric_algebra(_conjugation_pair([_e(0, 1)], swap))


# ------------------------------------------------------------------ quotients

def _quotient_cases():
    """Gallery systems, exact and float, with their centers, and ideals
    given with dependent rows."""
    cases = []
    for name, m in sorted(fx.lts_gallery().items()):
        for system in (m, m.to_float()):
            cases.append((f"{name} {system.mode}", system, lt.center(system)))
    m = fx.u_minus_lts(3)
    z = lt.center(m).basis
    cases.append(("u3_minus center, a multiple and zero", m,
                  lt.Subspace(np.concatenate([z, z * Fraction(-2), z * 0]))))
    rows = nx.rational_array([[1, 2, 0], [2, 4, 0], [0, 0, 1], [1, 2, 1]])
    cases.append(("abelian3 dependent rows", fx.lts_gallery()["abelian3"], lt.Subspace(rows)))
    return cases


def test_quotient_matches_two_pass_oracle():
    for label, m, ideal in _quotient_cases():
        (got, gproj), (want, wproj) = lt.quotient(m, ideal), quotient_old(m, ideal)
        assert got.tensor.shape == want.tensor.shape, label
        assert (got.tensor == want.tensor).all(), label
        assert gproj.matrix.shape == wproj.matrix.shape, label
        assert (gproj.matrix == wproj.matrix).all(), label
        assert got.labels == want.labels and gproj.certified == wproj.certified, label
