"""Property tests for the exact contraction kernel, the fraction-free row
reduction and the exact queries on it, the batched span kernel, the float
subgroup search, the stacked matrix exponential, the axiom check and
the JSON round trip (need hypothesis)."""

import json
import math
from fractions import Fraction

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from triplekit import fixtures as fx  # noqa: E402
from triplekit import jsonio  # noqa: E402
from triplekit import lts as lt  # noqa: E402
from triplekit import numerics as nx  # noqa: E402
from triplekit import periods as pd  # noqa: E402
from triplekit import symlie as sl  # noqa: E402
from triplekit import sympair as sp  # noqa: E402

from oracles import (coordinates_in_span_loops, coordinates_in_span_many_old,  # noqa: E402
                     float_subgroup_loops, inverse_old, matrix_exp_loops, nullspace_old,
                     rref_old, search_outcome, span_basis_old, tensordot_loops,
                     verify_axioms_d6)

fractions = st.builds(Fraction, st.integers(-2 ** 70, 2 ** 70), st.integers(1, 2 ** 12))


@st.composite
def contraction_operands(draw):
    m, k, n = (draw(st.integers(0, 3)) for _ in range(3))
    entries = st.one_of(fractions, st.integers(-4, 4).map(Fraction))
    a = np.array(draw(st.lists(entries, min_size=m * k, max_size=m * k)), dtype=object)
    b = np.array(draw(st.lists(entries, min_size=k * n, max_size=k * n)), dtype=object)
    return a.reshape(m, k), b.reshape(k, n)


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(contraction_operands())
def test_contract_is_exact(operands):
    a, b = operands
    got = nx.contract(a, b, 1)
    want = tensordot_loops(a, b, ([1], [0]))
    assert got.shape == want.shape
    assert all(x == y for x, y in zip(got.reshape(-1), want.reshape(-1)))


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(st.lists(st.integers(-1000, 1000), min_size=16, max_size=16),
                  st.lists(st.integers(-1000, 1000), min_size=16, max_size=16))
def test_exact_and_float_routes_agree_on_integers(xs, ys):
    # small integer entries are exact in float64 too, so both routes must agree
    a = nx.rational_array(xs).reshape(2, 2, 4)
    b = nx.rational_array(ys).reshape(4, 2, 2)
    exact = nx.contract(a, b, ([2, 1], [0, 2]))
    float_ = nx.contract(nx.to_float(a), nx.to_float(b), ([2, 1], [0, 2]))
    assert np.array_equal(nx.to_float(exact), float_)


@st.composite
def span_problems(draw):
    """A basis, often dependent, and targets half of which are combinations of it."""
    n, k, count = draw(st.integers(1, 4)), draw(st.integers(0, 4)), draw(st.integers(0, 5))
    small = st.one_of(st.integers(-3, 3).map(Fraction),
                      st.builds(Fraction, st.integers(-9, 9), st.integers(1, 4)))
    vector = st.lists(small, min_size=n, max_size=n).map(nx.rational_array)
    basis = draw(st.lists(vector, min_size=k, max_size=k))
    targets = []
    for _ in range(count):
        if basis and draw(st.booleans()):
            coeffs = draw(st.lists(small, min_size=k, max_size=k))
            targets.append(sum((c * b for c, b in zip(coeffs, basis)), nx.zeros((n,), nx.RATIONAL)))
        else:
            targets.append(draw(vector))
    return basis, targets


@hypothesis.settings(max_examples=80, deadline=None)
@hypothesis.given(span_problems())
def test_batched_exact_coordinates_equal_per_target(problem):
    basis, targets = problem
    coords, inside = nx.coordinates_in_span_many(basis, targets)
    assert coords.shape == (len(targets), len(basis))
    for t, v in enumerate(targets):
        want = coordinates_in_span_loops(basis, v)
        assert bool(inside[t]) == (want is not None)
        if want is not None:
            assert list(coords[t]) == list(want)


@st.composite
def exact_matrices(draw, rows=None, cols=None):
    """Wide, tall, square, zero and rank-deficient rational matrices with mixed
    denominators, some numerators past 2**64."""
    free_cols = cols is None
    rows = draw(st.integers(0, 6)) if rows is None else rows
    cols = draw(st.integers(1, 7)) if free_cols else cols
    if free_cols and rows and draw(st.booleans()):
        cols = rows
    entry = st.one_of(st.just(Fraction(0)), st.integers(-3, 3).map(Fraction),
                      st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6)), fractions)
    a = np.array(draw(st.lists(entry, min_size=rows * cols, max_size=rows * cols)),
                 dtype=object).reshape(rows, cols)
    shape = draw(st.sampled_from(["any", "zero", "dependent_row", "dependent_column"]))
    c = draw(entry)
    if shape == "zero":
        a = nx.zeros((rows, cols), nx.RATIONAL)
    elif shape == "dependent_row" and rows >= 2:
        a[-1] = c * a[0] + a[1]
    elif shape == "dependent_column" and cols >= 2:
        a[:, -1] = c * a[:, 0]
    return a


@hypothesis.settings(max_examples=150, deadline=None)
@hypothesis.given(exact_matrices(), st.one_of(st.none(), st.integers(0, 8)))
def test_fraction_free_rref_matches_fraction_rref(a, limit):
    n, s = nx.numerators(a)
    red, top, pivots = nx.rref(n, limit)
    old, old_pivots = rref_old(a, limit)
    r = len(pivots)
    assert pivots == old_pivots
    assert red.shape == old.shape
    assert all(type(x) is int for x in red.reshape(-1))
    # pivot rows are top times the reduced rows, the rest top * s times the residual
    assert (red[:r] == top * old[:r]).all()
    assert (red[r:] == top * s * old[r:]).all()
    if all(abs(x) < 2 ** 62 for x in n.reshape(-1)):
        again = nx.rref(n.astype(np.int64), limit)
        assert again[1:] == (top, pivots) and (again[0] == red).all()


@hypothesis.settings(max_examples=150, deadline=None)
@hypothesis.given(exact_matrices())
def test_exact_queries_match_fraction_oracles(a):
    assert [list(v) for v in nx.nullspace(a)] == [list(v) for v in nullspace_old(a)]
    rows = list(a)
    ids = [id(r) for r in rows]
    assert nx.span_basis(rows) == [ids.index(id(v)) for v in span_basis_old(rows)]
    if a.shape[0] != a.shape[1]:
        return
    try:
        inv = inverse_old(a)
    except np.linalg.LinAlgError:
        with pytest.raises(np.linalg.LinAlgError):
            nx.inverse(a)
    else:
        assert (nx.inverse(a) == inv).all()


@hypothesis.settings(max_examples=150, deadline=None)
@hypothesis.given(st.one_of(exact_matrices(), exact_matrices().map(nx.to_float)))
def test_span_basis_keeps_every_nullspace_row(a):
    # a nullspace basis is independent by construction, which is why a
    # Subspace takes it without a span_basis pass
    basis = nx.nullspace(a)
    assert basis.shape[1] == a.shape[1] and nx.mode_of(basis) == nx.mode_of(a)
    assert nx.span_basis(basis) == list(range(len(basis)))


@st.composite
def exact_span_problems(draw):
    """A basis from exact_matrices and targets, half of them combinations of it."""
    k, n = draw(st.integers(0, 5)), draw(st.integers(1, 6))
    basis = draw(exact_matrices(rows=k, cols=n))
    targets = []
    for _ in range(draw(st.integers(0, 5))):
        if k and draw(st.booleans()):
            coeffs = draw(exact_matrices(rows=1, cols=k))[0]
            targets.append(coeffs @ basis)
        else:
            targets.append(draw(exact_matrices(rows=1, cols=n))[0])
    return basis, np.array(targets, dtype=object).reshape(len(targets), n)


@hypothesis.settings(max_examples=150, deadline=None)
@hypothesis.given(exact_span_problems())
def test_exact_span_kernel_matches_fraction_oracle(problem):
    basis, targets = problem
    want_coords, want_inside = coordinates_in_span_many_old(basis, targets)
    num, s = nx.numerators(targets)
    forms = [targets, (num, s)]
    if all(abs(x) < 2 ** 62 for x in num.reshape(-1)):
        forms.append((num.astype(np.int64), s))     # as contract_numerators leaves it
    for form in forms:
        coords, inside = nx.coordinates_in_span_many(basis, form)
        assert (inside == want_inside).all()
        assert coords.shape == want_coords.shape and (coords == want_coords).all()


@st.composite
def subgroup_generators(draw):
    k, d = draw(st.integers(1, 5)), draw(st.integers(1, 3))
    entries = st.one_of(st.integers(-6, 6).map(float),
                        st.sampled_from([math.sqrt(p) for p in (2, 3, 5, 7)]),
                        st.floats(-8.0, 8.0, allow_nan=False, allow_subnormal=False))
    vectors = st.lists(entries, min_size=d, max_size=d).filter(any)
    return [np.array(v) for v in draw(st.lists(vectors, min_size=k, max_size=k))]


@hypothesis.settings(max_examples=40, deadline=None)
@hypothesis.given(subgroup_generators(),
                  st.sampled_from([(1e-6, 10 ** 6), (1e-9, 10 ** 6), (1e-3, 100)]))
def test_float_subgroup_search_matches_loop_oracle(gens, search):
    cfg = pd.SubgroupSearchConfig(epsilon=search[0], coefficient_bound=search[1])
    old = float_subgroup_loops(gens, cfg)
    new = pd.subgroup_discreteness(gens, cfg)
    assert search_outcome(new, old.meta) == search_outcome(old, old.meta)


@st.composite
def matrix_stacks(draw):
    k, n = draw(st.integers(1, 6)), draw(st.integers(1, 8))
    entries = st.floats(-1.0, 1.0, allow_nan=False, allow_subnormal=False)
    x = np.array(draw(st.lists(entries, min_size=k * n * n, max_size=k * n * n)))
    scales = np.array(draw(st.lists(st.floats(0.0, 30.0), min_size=k, max_size=k)))
    return x.reshape(k, n, n) * scales[:, None, None]


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(matrix_stacks())
def test_stacked_matrix_exp_matches_single_matrix_oracle(x):
    stacked = nx.matrix_exp(x)
    for i in range(x.shape[0]):
        assert np.array_equal(stacked[i], matrix_exp_loops(x[i]))


@st.composite
def triple_tensors(draw):
    """Tensors up to d = 8 in either mode: sparse or dense, small integers
    (whose defects tie) or floats, and sometimes projected so that only the
    derivation identity can fail."""
    d = draw(st.integers(1, 8))
    exact = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    t = rng.integers(-2, 3, size=(d,) * 4)
    t = t * (rng.random((d,) * 4) < draw(st.sampled_from([0.02, 0.2, 1.0])))
    if draw(st.booleans()):
        t = t - t.transpose(1, 0, 2, 3)
        t = 2 * t - t.transpose(1, 2, 0, 3) - t.transpose(2, 0, 1, 3)
    if exact:
        return lt.LieTripleSystem(d, nx.rational_array(t.tolist()), nx.RATIONAL)
    if draw(st.booleans()):
        return lt.LieTripleSystem(d, t + rng.standard_normal((d,) * 4) * 1e-3, nx.FLOAT)
    return lt.LieTripleSystem(d, t.astype(float), nx.FLOAT)


@hypothesis.settings(max_examples=80, deadline=None)
@hypothesis.given(triple_tensors())
def test_axiom_check_matches_d6_oracle(m):
    got, want = lt.verify_axioms(m), verify_axioms_d6(m)
    assert (got.ok, got.worst_violation, got.identity, got.witness) \
        == (want.ok, want.worst_violation, want.identity, want.witness)


@st.composite
def documents(draw):
    """Canonical JSON of a random lts, lie, symmetric or pair object in either
    mode; mostly-zero entries, and labels or names sometimes."""
    exact = draw(st.booleans())
    mode = nx.RATIONAL if exact else nx.FLOAT
    value = (st.builds(Fraction, st.integers(-50, 50), st.integers(1, 12)) if exact
             else st.floats(-1e6, 1e6, allow_nan=False))
    entry = st.one_of(st.just(0), value, st.just(0))

    def array(shape):
        size = math.prod(shape)
        data = draw(st.lists(entry, min_size=size, max_size=size))
        if exact:
            return nx.rational_array([Fraction(x) for x in data]).reshape(shape)
        return np.array(data, dtype=float).reshape(shape)

    def labels(d):
        return draw(st.none() | st.tuples(*[st.text(max_size=3)] * d))

    kind = draw(st.sampled_from(["lts", "lie", "symmetric_lie", "pair"]))
    d = draw(st.integers(1, 3))
    if kind == "lts":
        obj = lt.LieTripleSystem(d, array((d,) * 4), mode, labels(d))
    elif kind == "lie":
        obj = sl.LieAlgebra(d, array((d,) * 3), mode, labels(d))
    elif kind == "symmetric_lie":
        # the swap of two copies is an involutive automorphism of any bracket
        obj = fx.flip_symmetric_algebra(sl.LieAlgebra(d, array((d,) * 3), mode))
    else:
        n = draw(st.integers(1, 3))
        if draw(st.booleans()):
            sigma = sp.SigmaTransposeInverse()
        else:
            signs = draw(st.lists(st.sampled_from([-1, 1]), min_size=n, max_size=n))
            j = np.diag(signs)[draw(st.permutations(range(n)))]
            sigma = sp.SigmaConjugation(nx.rational_array(j.tolist()) if exact
                                        else j.astype(float))
        obj = sp.MatrixSymmetricPair(n, list(array((d, n, n))), sigma,
                                     name=draw(st.text(max_size=6)))
    return jsonio.dumps(obj)


@hypothesis.settings(max_examples=120, deadline=None)
@hypothesis.given(documents())
def test_json_round_trip_is_byte_identical(s):
    assert jsonio.dumps(jsonio.from_dict(json.loads(s))) == s
