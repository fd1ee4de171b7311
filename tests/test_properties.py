"""Property tests for the exact contraction kernel, the batched span kernel,
the float subgroup search, the stacked matrix exponential, the axiom check and
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

from oracles import (coordinates_in_span_loops, float_subgroup_loops,  # noqa: E402
                     matrix_exp_loops, search_outcome, tensordot_loops, verify_axioms_d6)

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
        obj = sp.MatrixSymmetricPair(
            n, list(array((d, n, n))), sigma,
            fixed_group_policy=draw(st.sampled_from([sp.FULL_FIXED_GROUP,
                                                     sp.IDENTITY_COMPONENT_HEURISTIC])),
            name=draw(st.text(max_size=6)))
    return jsonio.dumps(obj)


@hypothesis.settings(max_examples=120, deadline=None)
@hypothesis.given(documents())
def test_json_round_trip_is_byte_identical(s):
    assert jsonio.dumps(jsonio.from_dict(json.loads(s))) == s
