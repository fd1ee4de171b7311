"""Property tests for the exact contraction kernel (need hypothesis)."""

from fractions import Fraction

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from triplekit import numerics as nx  # noqa: E402

from oracles import tensordot_loops  # noqa: E402

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
