"""Hypothesis property of the Smith form: the pivot-and-delete routine gives
the divisors of its oracle in ``tests/oracles.py``, the first version's
swap, restart and offender loop."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given
from hypothesis import strategies as st

import oracles
from artinhexa.triviality import smith_invariants

# small entries make long chains of remainders, large ones many steps each;
# zeros make sparse and rank-deficient matrices
entries = st.one_of(st.just(0), st.integers(-3, 3), st.integers(-1000, 1000))


@st.composite
def matrices(draw):
    width = draw(st.integers(0, 6))
    rows = draw(st.lists(st.lists(entries, min_size=width, max_size=width), max_size=6))
    return rows, width


@given(matrices())
@example(([[2, 0], [0, 3]], 2))
@example(([[4, 0, 0], [0, 6, 0], [0, 0, 10]], 3))
@example(([[1, 2], [1, 2]], 2))
@example(([], 0))
@example(([[], []], 0))
@example(([], 4))
def test_smith_invariants_equal_the_oracle(matrix):
    rows, width = matrix
    assert smith_invariants(rows, width) == oracles.smith_invariants(rows, width)
