import math
from fractions import Fraction

import numpy as np
import pytest

from triplekit import fixtures as fx
from triplekit import numerics as nx
from triplekit import periods as pd
from triplekit import sympair as sp
from oracles import (best_sqrt2_relation, float_subgroup_loops, gram_schmidt_norms_loops,
                     kernel_lattice_1d_loops, lll_reduce_loops, search_outcome)

CFG = pd.SubgroupSearchConfig(epsilon=1e-6, coefficient_bound=10 ** 6)


def _frac(*xs):
    return np.array([Fraction(x) for x in xs], dtype=object)


# -------------------------------------------------------------- 1-d kernels

@pytest.mark.parametrize("n", [2, 3, 4])
def test_unitary_over_orthogonal_kernel_is_pi(n):
    pair = fx.u_modulo_o_pair(n)
    lat = pd.kernel_lattice_1d(pair, fx.central_direction_u(n))
    assert lat.verdict == pd.DISCRETE
    assert abs(float(lat.generators[0][0]) - math.pi) < 1e-8
    assert lat.meta["frequencies"] == pytest.approx([1.0], abs=1e-12)


def test_group_double_kernel_is_two_pi():
    pair = fx.group_double_pair(2)
    lat = pd.kernel_lattice_1d(pair, fx.central_direction_group_double(2))
    assert lat.verdict == pd.DISCRETE
    assert abs(float(lat.generators[0][0]) - 2.0 * math.pi) < 1e-8


def test_kernel_ratio_group_to_space_is_exactly_two():
    # same central element, seen in the space and in the group presentation
    space = pd.kernel_lattice_1d(fx.u_modulo_o_pair(2), fx.central_direction_u(2))
    group = pd.kernel_lattice_1d(fx.group_double_pair(2),
                                 fx.central_direction_group_double(2))
    ratio = float(group.generators[0][0]) / float(space.generators[0][0])
    assert round(ratio, 9) == 2.0


def test_default_direction_unit_frobenius_period():
    # normalized direction for u(2) is the central skew matrix over norm 2,
    # which doubles the period of the unnormalized generator
    lat = pd.kernel_lattice_1d(fx.u_modulo_o_pair(2))
    assert lat.verdict == pd.DISCRETE
    assert abs(float(lat.generators[0][0]) - 2.0 * math.pi) < 1e-8


def test_kernel_requires_central_direction():
    pair = fx.u_modulo_o_pair(2)
    bad = pair.float_basis[0]  # i E_11 direction: odd but not central
    with pytest.raises(pd.CenterMismatchError):
        pd.kernel_lattice_1d(pair, bad)


def test_kernel_out_of_range_lists_no_zeros():
    # t_max bounds the listed kernel points, not the verdict
    pair = fx.u_modulo_o_pair(2)
    lat = pd.kernel_lattice_1d(pair, fx.central_direction_u(2), t_max=2.0)
    assert lat.verdict == pd.DISCRETE
    assert abs(float(lat.generators[0][0]) - math.pi) < 1e-12
    assert lat.meta["zeros_in_range"] == []
    # however large t_max is, the list stays bounded
    for t_max in (1e12, math.inf):
        far = pd.kernel_lattice_1d(pair, fx.central_direction_u(2), t_max=t_max)
        assert len(far.meta["zeros_in_range"]) == pd.ZEROS_LISTED


def test_zero_direction_gives_continuous_kernel_witness():
    # degenerate control: the zero ray lies in the kernel identically
    pair = fx.u_modulo_o_pair(2)
    zero = np.zeros((4, 4))
    lat = pd.kernel_lattice_1d(pair, zero)
    assert lat.verdict == pd.NON_DISCRETE_WITNESS
    assert lat.witness is not None


# ------------------------------------------- spectral route vs the loop scan

def _assert_matches_loop_scan(pair, direction, **kw):
    """Same verdict as the one-matrix-at-a-time scan, and a generator within
    1e-10 of the scan's refined zero and within 1e-12 of pi / mu."""
    old = kernel_lattice_1d_loops(pair, direction, **kw)
    new = pd.kernel_lattice_1d(pair, direction)
    assert new.verdict == old.verdict
    assert len(new.generators) == len(old.generators)
    if new.verdict == pd.DISCRETE:
        g = float(new.generators[0][0])
        assert abs(g - float(old.generators[0][0])) < 1e-10
        [mu] = new.meta["frequencies"]
        assert abs(g - math.pi / mu) < 1e-12
        assert new.meta["generator_residual"] <= pd.DEFAULT_TOLERANCE.membership_tol
    assert new.meta["exp_evaluations"] <= 2
    return new


@pytest.mark.parametrize("name", sorted(fx.pair_gallery()))
def test_kernel_scan_matches_oracle_on_fixtures(name):
    # t_max = 12 puts the first kernel point of every fixture in the scan's range
    pair = fx.pair_gallery()[name]
    try:
        _assert_matches_loop_scan(pair, None, t_max=12.0)
    except pd.CenterMismatchError:
        # the sphere pairs have no central line; the oracle must refuse too
        with pytest.raises(pd.CenterMismatchError):
            kernel_lattice_1d_loops(pair, None)


@pytest.mark.parametrize("name,period", [("u2_group_double", 2 * math.sqrt(2) * math.pi),
                                         ("u3_group_double", 2 * math.sqrt(3) * math.pi),
                                         ("u4_mod_o4", 2 * math.sqrt(2) * math.pi)])
def test_kernel_beyond_default_t_max_is_discrete(name, period):
    # the scan at its default t_max = 8 found no kernel point on these
    lat = pd.kernel_lattice_1d(fx.pair_gallery()[name])
    assert lat.verdict == pd.DISCRETE
    assert float(lat.generators[0][0]) == pytest.approx(period, abs=1e-12)
    assert lat.meta["zeros_in_range"] == []
    assert lat.meta["exp_evaluations"] == 1


def _rotated_pair(rng, n, double):
    """A fixture pair on a seeded orthogonal change of ambient coordinates,
    with its central direction scaled by s in [0.9, 1.6]."""
    base = fx.group_double_pair(n) if double else fx.u_modulo_o_pair(n)
    z = fx.central_direction_group_double(n) if double else fx.central_direction_u(n)
    q, r = np.linalg.qr(rng.standard_normal((base.ambient_n, base.ambient_n)))
    q = q * np.sign(np.diag(r))
    pair = sp.MatrixSymmetricPair(
        ambient_n=base.ambient_n, basis=[q @ b @ q.T for b in base.float_basis],
        sigma=sp.SigmaConjugation(q @ base.sigma.float_matrix @ q.T), name=f"rotated {base.name}")
    return pair, float(rng.uniform(0.9, 1.6)) * (q @ z @ q.T)


@pytest.mark.parametrize("double", [False, True])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_kernel_scan_matches_oracle_on_rotated_pairs(n, double):
    rng = np.random.default_rng([42, n, double])
    pair, direction = _rotated_pair(rng, n, double)
    lat = _assert_matches_loop_scan(pair, direction)
    assert lat.verdict == pd.DISCRETE


def _transpose_inverse_pair(n):
    """GL(n) over O(n): sigma is g -> g^(-T), the Lie algebra all of gl(n)."""
    basis = []
    for i in range(n):
        for j in range(n):
            e = np.zeros((n, n))
            e[i, j] = 1.0
            basis.append(e)
    return sp.MatrixSymmetricPair(ambient_n=n, basis=basis,
                                  sigma=sp.SigmaTransposeInverse(), name=f"GL({n})/O({n})")


@pytest.mark.parametrize("n", [2, 3])
def test_kernel_scan_transpose_inverse_pair(n):
    # exp(t I) = e^t I never meets O(n) for t > 0: no kernel point
    pair = _transpose_inverse_pair(n)
    lat = _assert_matches_loop_scan(pair, np.eye(n))
    assert lat.verdict == pd.INCONCLUSIVE
    assert lat.meta["reason"] == "real spectral part"
    assert lat.meta["real_part"] == pytest.approx(1.0)
    assert lat.meta["exp_evaluations"] == 0


def test_kernel_scan_matches_oracle_edge_cases():
    # the zero ray and a ray below the threshold both lie in the kernel
    pair = fx.u_modulo_o_pair(2)
    for z in (np.zeros((4, 4)), 1e-12 * fx.central_direction_u(2)):
        lat = _assert_matches_loop_scan(pair, z)
        assert lat.verdict == pd.NON_DISCRETE_WITNESS
        t = float(lat.witness.vector[0])
        assert sp.in_fixed_group(pair, nx.matrix_exp(t * z))
        assert lat.meta["exp_evaluations"] == 1


def test_kernel_nilpotent_direction_is_inconclusive():
    # span{E12} with sigma = conjugation by diag(1, -1): E12 is odd and
    # central, and exp(t E12) = I + t E12 never returns to the fixed group
    e12 = np.array([[0.0, 1.0], [0.0, 0.0]])
    pair = sp.MatrixSymmetricPair(2, [e12], sp.SigmaConjugation(np.diag([1.0, -1.0])))
    lat = pd.kernel_lattice_1d(pair, e12)
    assert (lat.verdict, lat.meta["reason"]) == (pd.INCONCLUSIVE, "nilpotent")
    assert lat.generators == ()


def test_kernel_several_frequencies_go_through_subgroup_search():
    # U(2)/O(2) twice, along (i I, 2 i I): frequencies 1 and 2, kernel pi Z;
    # the float search cannot certify the exact relation 2 * 1 - 2 = 0 yet
    small = fx.u_modulo_o_pair(2)
    zero = np.zeros((4, 4))
    basis = [np.block([[b, zero], [zero, zero]]) for b in small.float_basis]
    basis += [np.block([[zero, zero], [zero, b]]) for b in small.float_basis]
    j = small.sigma.float_matrix
    pair = sp.MatrixSymmetricPair(8, basis, sp.SigmaConjugation(np.block([[j, zero], [zero, j]])))
    z = fx.central_direction_u(2)
    lat = pd.kernel_lattice_1d(pair, np.block([[z, zero], [zero, 2.0 * z]]))
    assert lat.meta["frequencies"] == pytest.approx([1.0, 2.0], abs=1e-12)
    assert lat.verdict == pd.INCONCLUSIVE
    assert lat.meta["reason"] == "frequency subgroup is Inconclusive"
    assert lat.meta["subgroup_verdict"] == pd.INCONCLUSIVE
    assert lat.meta["subgroup"]["route"] == "integer_relation_search"
    assert lat.meta["exp_evaluations"] == 0


def test_kernel_scan_reports_its_work():
    lat = pd.kernel_lattice_1d(fx.u_modulo_o_pair(2), fx.central_direction_u(2))
    meta = lat.meta
    assert meta["zeros_in_range"] == pytest.approx([math.pi, 2 * math.pi], abs=1e-12)
    assert meta["frequencies"] == pytest.approx([1.0], abs=1e-12)
    assert meta["generator_residual"] < 1e-12
    # one exponential: the cross-check of the generator
    assert meta["exp_evaluations"] == 1


# ------------------------------------------------------------ exact lattices

def test_integer_row_hnf_canonical():
    assert pd.integer_row_hnf([[2, 4], [1, 2]]) == [[1, 2]]
    assert pd.integer_row_hnf([[4], [6]]) == [[2]]
    assert pd.integer_row_hnf([[-3]]) == [[3]]
    assert pd.integer_row_hnf([[1, 5], [0, 3]]) == [[1, 2], [0, 3]]
    assert pd.integer_row_hnf([[0, 0]]) == []


def test_rational_generators_always_discrete():
    lat = pd.subgroup_discreteness([_frac(1, 2), _frac(1, 0)])
    assert lat.verdict == pd.DISCRETE
    assert [list(map(str, b)) for b in lat.generators] == [["1", "0"], ["0", "2"]]


def test_rational_slope_control_discrete():
    # slope 3/7 through the integer grid: projected subgroup is (1/7)-periodic
    lat = pd.subgroup_discreteness([_frac("3/7"), _frac("1/2")])
    assert lat.verdict == pd.DISCRETE
    # 3/7 = 6/14, 1/2 = 7/14, gcd step 1/14
    assert [str(lat.generators[0][0])] == ["1/14"]


def test_rational_generator_below_float_range_is_kept():
    # float(2^-1100) is 0.0, but the generator is not zero
    tiny = Fraction(1, 2 ** 1100)
    lat = pd.subgroup_discreteness([_frac(3), _frac(tiny)])
    assert lat.verdict == pd.DISCRETE
    assert [[abs(x) for x in g] for g in lat.generators] == [[tiny]]


def test_route_follows_generator_dtype():
    # Fraction generators take the exact route, float ones the search, and an
    # all-zero set of either kind reports the route its dtype picks
    for gens, route in (([_frac(1, 2), _frac(0, 3)], "integer_row_reduction"),
                        ([_frac(0, 0), _frac(0, 0)], "integer_row_reduction"),
                        ([np.array([1.0, 2.0]), np.array([0.0, 3.0])], "integer_relation_search"),
                        ([np.zeros(2), np.zeros(2)], "integer_relation_search")):
        lat = pd.subgroup_discreteness(gens, CFG)
        assert lat.verdict == pd.DISCRETE and lat.meta["route"] == route
    exact = pd.quotient_projection_discreteness([_frac(1, 0), _frac(0, 1)], [_frac(1, 2)], CFG)
    assert exact.meta["route"] == "integer_row_reduction"
    floats = pd.quotient_projection_discreteness([np.array([1.0, 0.0]), np.array([0.0, 1.0])],
                                                 [np.array([1.0, 2.0])], CFG)
    assert floats.meta["route"] == "integer_relation_search"


def test_empty_and_zero_generators_discrete():
    assert pd.subgroup_discreteness([], CFG).verdict == pd.DISCRETE
    z = pd.subgroup_discreteness([np.zeros(3)], CFG)
    assert z.verdict == pd.DISCRETE
    assert z.generators == ()


# ------------------------------------------------------------- float lattices

def test_sqrt2_witness_matches_convergent_oracle():
    lat = pd.subgroup_discreteness([np.array([1.0]), np.array([math.sqrt(2.0)])], CFG)
    assert lat.verdict == pd.NON_DISCRETE_WITNESS
    w = lat.witness
    p, q, err = best_sqrt2_relation(CFG.coefficient_bound)
    assert w.coefficients == (p, -q)
    assert abs(w.norm - err) < 1e-12
    assert w.norm < CFG.epsilon
    assert max(abs(c) for c in w.coefficients) <= CFG.coefficient_bound


def test_witness_replays_from_coefficients():
    gens = [np.array([1.0]), np.array([math.sqrt(2.0)])]
    lat = pd.subgroup_discreteness(gens, CFG)
    acc = np.zeros(1)
    for c, g in zip(lat.witness.coefficients, gens):
        acc = acc + c * g
    assert abs(float(np.linalg.norm(acc)) - lat.witness.norm) < 1e-15


def test_pi_lattice_in_plane_discrete():
    gens = [np.array([math.pi, 0.0]), np.array([0.0, math.pi])]
    lat = pd.subgroup_discreteness(gens, CFG)
    assert lat.verdict == pd.DISCRETE
    assert lat.meta["lambda1_lower_bound"] > 0


def test_stricter_epsilon_never_upgrades_to_discrete():
    gens = [np.array([1.0]), np.array([math.sqrt(2.0)])]
    strict = pd.SubgroupSearchConfig(epsilon=1e-9, coefficient_bound=10 ** 6)
    lat = pd.subgroup_discreteness(gens, strict)
    # no combination below 1e-9 exists within the bound, but discreteness
    # cannot be certified either: the honest answer is Inconclusive
    assert lat.verdict == pd.INCONCLUSIVE


def test_exact_relation_is_not_a_witness():
    # 2*(1/2) - 1 = 0 exactly; a zero combination proves nothing about
    # non-discreteness and must be filtered by the relation floor
    gens = [np.array([1.0]), np.array([0.5])]
    lat = pd.subgroup_discreteness(gens, CFG)
    assert lat.verdict != pd.NON_DISCRETE_WITNESS


def test_single_generator_discrete():
    lat = pd.subgroup_discreteness([np.array([7.0])], CFG)
    assert lat.verdict == pd.DISCRETE


# ------------------------------------------ float search against the loop oracle

PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)
SEARCH_CONFIGS = (CFG, pd.SubgroupSearchConfig(epsilon=1e-9, coefficient_bound=10 ** 6),
                  pd.SubgroupSearchConfig(epsilon=1e-3, coefficient_bound=100))


def _float_generators(family, k, d, rng):
    if family == "lattice":  # rational lattice: integer rows over a denominator
        mat = rng.integers(-4, 5, size=(k, d))
        mat[~mat.any(axis=1), 0] = 1
        return list(mat / int(rng.integers(1, 7)))
    if family == "dense":  # s * {1, sqrt(p), ...}, primes may repeat
        roots = [1.0] + [math.sqrt(p) for p in rng.choice(PRIMES, size=k * d - 1)]
        return list(float(rng.uniform(0.5, 2.0)) * np.array(roots).reshape(k, d))
    return list(rng.normal(size=(k, d)))


@pytest.mark.parametrize("family", ["lattice", "dense", "gauss"])
@pytest.mark.parametrize("k", range(1, 9))
def test_float_search_matches_loop_oracle_exactly(family, k):
    rng = np.random.default_rng([k, len(family)])
    for d, cfg in zip((1, 2, 3), SEARCH_CONFIGS):
        gens = _float_generators(family, k, d, rng)
        old = float_subgroup_loops(gens, cfg)
        new = pd.subgroup_discreteness(gens, cfg)
        assert search_outcome(new, old.meta) == search_outcome(old, old.meta)


def test_float_search_tie_breaks_match_loop_oracle():
    # near-integer generators give many witnesses with equal sums of squares
    # and zero entries, so the sign each candidate is kept with shows in the
    # chosen coefficients and in the sign of zeros of the witness vector
    rng = np.random.default_rng(0)
    cfg = pd.SubgroupSearchConfig(epsilon=1e-3, coefficient_bound=100)
    witnesses = 0
    for _ in range(60):
        k, d = int(rng.integers(2, 5)), int(rng.integers(1, 3))
        gens = [rng.integers(-2, 3, size=d) + rng.integers(-3, 4, size=d) * 1e-5
                for _ in range(k)]
        gens = [g for g in gens if g.any()]
        old = float_subgroup_loops(gens, cfg)
        new = pd.subgroup_discreteness(gens, cfg)
        assert search_outcome(new, old.meta) == search_outcome(old, old.meta)
        witnesses += new.witness is not None
    assert witnesses > 20


def test_lll_reduction_matches_loop_oracle_exactly():
    rng = np.random.default_rng(3)
    for n in range(1, 9):
        for magnitude in (10, 10 ** 13):
            rows = rng.integers(-magnitude, magnitude, size=(n, n + 2)).tolist()
            got = pd._lll_reduce_int(rows)
            assert got.basis == lll_reduce_loops(rows)
            assert not got.capped
            _, norms = gram_schmidt_norms_loops(np.array(got.basis, dtype=float))
            assert got.norms.tolist() == norms.tolist()


def test_lll_reports_the_iteration_cap():
    rows = np.random.default_rng(4).integers(-10 ** 13, 10 ** 13, size=(6, 8)).tolist()
    full = pd._lll_reduce_int(rows)
    assert full.iterations > 3 and not full.capped
    cut = pd._lll_reduce_int(rows, max_iters=3)
    assert (cut.iterations, cut.capped) == (3, True)
    assert cut.basis == lll_reduce_loops(rows, max_iters=3)


def test_float_search_on_python_int_coefficients(monkeypatch):
    # the exact relation 1 - 2**70 * 2**-70 = 0 puts 2**70 into the reduced
    # coefficients, beyond int64: the enumeration must run on Python ints
    dtypes = []
    contract = nx.contract_numerators

    def spy(*args, **kwargs):
        out = contract(*args, **kwargs)
        dtypes.append(out.dtype)
        return out

    monkeypatch.setattr(nx, "contract_numerators", spy)
    gens = [np.array([1.0]), np.array([2.0 ** -70])]
    cfg = pd.SubgroupSearchConfig(epsilon=1e-6, coefficient_bound=10 ** 30)
    new = pd.subgroup_discreteness(gens, cfg)
    assert dtypes == [object]
    old = float_subgroup_loops(gens, cfg)
    assert search_outcome(new, old.meta) == search_outcome(old, old.meta)
    assert new.meta["candidates"] > 0


def test_float_search_explains_itself():
    single = pd.subgroup_discreteness([np.array([7.0])], CFG)
    # one generator: offsets -6..6 give six classes up to sign, e_0 among them
    assert single.meta["candidates"] == 6
    assert (single.meta["lll_iterations"], single.meta["lll_capped"]) == (0, False)
    assert single.meta["lambda1_lower_bound"] > single.meta["reachable"]
    strict = pd.SubgroupSearchConfig(epsilon=1e-9, coefficient_bound=10 ** 6)
    unsure = pd.subgroup_discreteness([np.array([1.0]), np.array([math.sqrt(2.0)])], strict)
    assert unsure.verdict == pd.INCONCLUSIVE
    assert unsure.meta["lambda1_lower_bound"] <= unsure.meta["reachable"]
    assert unsure.meta["lll_iterations"] > 0 and not unsure.meta["lll_capped"]
    witness = pd.subgroup_discreteness([np.array([1.0]), np.array([math.sqrt(2.0)])], CFG)
    assert witness.meta["candidates"] > 0
    assert "reachable" not in witness.meta


# --------------------------------------------------------- quotient criterion

def test_quotient_projection_exact_frozen():
    # Z^2 projected along the line through (1, 2); complement coordinates of
    # e1, e2 are -2/5 and 1/5 by hand, so the projected subgroup is (1/5)Z
    gens = [_frac(1, 0), _frac(0, 1)]
    ideal = [_frac(1, 2)]
    lat = pd.quotient_projection_discreteness(gens, ideal)
    assert lat.verdict == pd.DISCRETE
    assert [list(map(str, b)) for b in lat.generators] == [["1/5"]]


def test_quotient_projection_sqrt2_witness_and_defect_pair():
    gens = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
    ideal = [np.array([1.0, math.sqrt(2.0)])]
    lat = pd.quotient_projection_discreteness(gens, ideal, CFG)
    assert lat.verdict == pd.NON_DISCRETE_WITNESS
    assert lat.witness.norm < CFG.epsilon
    pair = lat.meta["defect_pair"]
    # x is a true lattice point, y lies in the ideal, and 2x - y is small
    x, y = pair["x"], pair["y"]
    assert np.linalg.norm(x) > 1.0
    coeff = float(y @ ideal[0]) / float(ideal[0] @ ideal[0])
    assert np.linalg.norm(y - coeff * ideal[0]) < 1e-9
    # cancellation limit: x is ~1e6 in norm while the defect is ~1e-6
    assert abs(pair["defect"] - 2.0 * lat.witness.norm) < 1e-9
    p, q, err = best_sqrt2_relation(CFG.coefficient_bound)
    assert set(map(abs, lat.witness.coefficients)) == {p, q}


# ------------------------------------------------------------------- products

def test_product_lattice_of_two_circles():
    k1 = pd.kernel_lattice_1d(fx.u_modulo_o_pair(2), fx.central_direction_u(2))
    prod = pd.product_lattice(k1, k1)
    assert prod.verdict == pd.DISCRETE
    assert prod.ambient_dim == 2
    gens = np.array([np.asarray(g) for g in prod.generators])
    expect = np.array([[math.pi, 0.0], [0.0, math.pi]])
    assert np.max(np.abs(gens - expect)) < 1e-8


def test_product_verdict_combination():
    k1 = pd.kernel_lattice_1d(fx.u_modulo_o_pair(2), fx.central_direction_u(2))
    bad = pd.subgroup_discreteness([np.array([1.0]), np.array([math.sqrt(2.0)])], CFG)
    mixed = pd.product_lattice(k1, bad)
    assert mixed.verdict == pd.NON_DISCRETE_WITNESS
    assert mixed.witness is not None
    # witness vector is block-embedded on the second factor
    assert abs(mixed.witness.vector[0]) < 1e-15
    assert abs(mixed.witness.vector[1] - bad.witness.norm) < 1e-12

    unsure = pd.subgroup_discreteness(
        [np.array([1.0]), np.array([math.sqrt(2.0)])],
        pd.SubgroupSearchConfig(epsilon=1e-9, coefficient_bound=10 ** 6))
    assert pd.product_lattice(k1, unsure).verdict == pd.INCONCLUSIVE


# ------------------------------------------------------------------ grid loops

@pytest.mark.parametrize("grid_size", [3, 4, 5])
def test_grid_loops_only_zero_survives(grid_size):
    pair = fx.u_modulo_o_pair(2)
    rep = pd.grid_loop_period_check(pair, grid_size, fx.central_direction_u(2))
    assert rep["only_zero_admissible"]
    assert rep["admissible_kernel_loops"] == 1
    assert rep["pointwise_kernel_loops"] == 3 ** (grid_size - 2)
    assert rep["scanned"] == 9 ** (grid_size - 2)


def test_grid_loop_excluded_example_violates_steps():
    pair = fx.u_modulo_o_pair(2)
    rep = pd.grid_loop_period_check(pair, 3, fx.central_direction_u(2))
    nodes = rep["excluded_example"]
    assert nodes is not None
    p = rep["generator"]
    steps = [abs(nodes[i + 1] - nodes[i]) for i in range(len(nodes) - 1)]
    assert max(steps) >= p / 2.0
    # yet every node individually exponentiates into the fixed group
    dirm = fx.central_direction_u(2)
    from triplekit import numerics as nx
    for c in nodes:
        assert sp.in_fixed_group(pair, nx.matrix_exp(c * dirm))


# ------------------------------------------------------------------- reporting

def test_reports_carry_finite_dimension_caveat():
    k1 = pd.kernel_lattice_1d(fx.u_modulo_o_pair(2), fx.central_direction_u(2))
    assert "simply connected" in k1.meta["caveat"]
    sub = pd.subgroup_discreteness([np.array([1.0])], CFG)
    assert "simply connected" in sub.meta["caveat"]
    rep = pd.grid_loop_period_check(fx.u_modulo_o_pair(2), 3, fx.central_direction_u(2))
    assert "simply connected" in rep["caveat"]
