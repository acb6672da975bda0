"""Hypothesis properties of the word layer's fast paths: join-cancellation
lengths, ``power`` on syllable exponents, the least rotation and the cyclic
canonical form, and results built without the public constructor's
validation."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given
from hypothesis import strategies as st

from artinhexa.words import (
    Word,
    _join_cancellation,
    _least_offset,
    concat,
    cyclic_reduce,
    invert,
    power,
    reduce_word,
)
from oracles import conjugate, cyclic_canonical

words = st.lists(
    st.tuples(st.integers(1, 3), st.integers(-3, 3)), max_size=12
).map(reduce_word)

# powers of short words: their rotations tie, as in (x1*x2)^k
powers = st.builds(power, words, st.integers(1, 4))

# raw syllable sequences over a small alphabet, repeated so that the least
# syllable and whole rotations recur
periodic = st.builds(
    lambda syls, k: tuple(syls) * k,
    st.lists(st.tuples(st.integers(1, 2), st.sampled_from((-1, 1, 2))), max_size=6),
    st.integers(1, 4),
)


def assert_valid(w: Word) -> None:
    assert Word(w.syllables) == w


@given(words, words)
def test_join_cancellation_gives_product_length(a, b):
    cancelled = _join_cancellation(a.syllables, 0, len(a.syllables), b.syllables)
    assert len(a) + len(b) - cancelled == len(concat(a, b))


@given(words, words, st.integers(0, 30))
def test_join_cancellation_on_rotations(a, b, rot):
    core = cyclic_reduce(a).syllables
    n = len(core)
    rot %= max(n, 1)
    rotated = Word(core[rot:] + core[:rot])
    cancelled = _join_cancellation(core + core, rot, rot + n, b.syllables)
    assert len(rotated) + len(b) - cancelled == len(concat(rotated, b))


@given(words, st.integers(-9, 9))
def test_power_is_repeated_concat(w, k):
    base = w if k >= 0 else invert(w)
    assert power(w, k) == concat(*[base] * abs(k))


@given(words, words, st.integers(-9, 9))
def test_unvalidated_results_pass_public_validation(a, b, k):
    for w in (concat(a, b), invert(a), power(a, k)):
        assert_valid(w)
    assert_valid(cyclic_reduce(concat(a, b)))


@given(periodic)
@example(((1, 1), (2, 1)) * 3)
@example(((1, 1), (2, 1), (1, 1), (1, 2)))  # the second least syllable starts it
def test_least_offset_is_first_least_rotation(syls):
    rotations = [syls[i:] + syls[:i] for i in range(len(syls))]
    expected = rotations.index(min(rotations)) if syls else 0
    assert _least_offset(syls) == expected


@given(st.one_of(words, powers))
def test_cyclic_reduce_returns_canonical_word_itself(w):
    canonical = cyclic_reduce(w)
    assert canonical == cyclic_canonical(w)
    assert cyclic_reduce(canonical) is canonical


@given(st.one_of(words, powers), words)
def test_cyclic_reduce_is_conjugation_invariant(w, g):
    assert cyclic_reduce(conjugate(w, g)) == cyclic_reduce(w)
