"""Hypothesis properties of the triviality layer: the Smith form against its
oracle in ``tests/oracles.py`` (the first version's swap, restart and
offender loop); the greedy multiplication search against the version that
builds every candidate word; and the ``mult`` and ``subst`` moves, on
relators that are not cyclically reduced, against one reduction pass over
the spelled-out rotation and product."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import assume, example, given
from hypothesis import strategies as st

import oracles
from artinhexa.triviality import _best_mult, _canonical, _solve, apply_move, smith_invariants
from artinhexa.words import Word, invert, parse_word, reduce_word
from test_triviality import reference_best_mult

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


def syllables(gens):
    return st.tuples(st.sampled_from(gens), st.integers(-3, 3).filter(bool))


def words_over(gens, max_size=6):
    return st.lists(syllables(gens), max_size=max_size).map(reduce_word)


# short relators over x1..x3 with small exponents: many candidates of the
# search have one length, so the syllables often break the tie
@given(st.lists(st.lists(syllables((1, 2, 3)), min_size=1, max_size=4).map(reduce_word), min_size=2, max_size=3))
@example([parse_word("x2^2"), parse_word("x1^-1*x2^2")])  # x1^-1 from r1 beats x1 from r0
@example([parse_word("x1^3*x2"), parse_word("x1^-2")])  # x1^3 and x1^-2 merge to a shorter x1
def test_best_mult_matches_the_candidate_word_reference(relators):
    canonical = _canonical(relators)
    assert _best_mult(canonical) == reference_best_mult(canonical)


@st.composite
def uncyclic_relators(draw, gens=(1, 2, 3)):
    """A reduced relator whose first and last syllables share a generator,
    so that its rotations meet at a merge or a cancellation."""
    gen = draw(st.sampled_from(gens))
    w = reduce_word([(gen, draw(st.integers(-3, 3).filter(bool)))]
                    + list(draw(words_over(gens)).syllables)
                    + [(gen, draw(st.integers(-3, 3).filter(bool)))])
    assume(len(w.syllables) >= 2 and w.syllables[0][0] == w.syllables[-1][0])
    return w


def spelled_power(w: Word, k: int) -> list:
    return list((w if k > 0 else invert(w)).syllables) * abs(k)


@given(uncyclic_relators(), words_over((1, 2, 3)), st.sampled_from((1, -1)), st.data())
def test_mult_on_a_relator_that_is_not_cyclically_reduced(ri, rj, sign, data):
    rot = data.draw(st.integers(0, len(ri.syllables) - 1))
    syls = ri.syllables
    expected = reduce_word(syls[rot:] + syls[:rot] + tuple(spelled_power(rj, sign)))
    assert apply_move(3, [ri, rj], ("mult", 0, 1, sign, rot)) == (3, [expected, rj])


@given(st.sampled_from((1, 2, 3)), st.sampled_from((1, -1)), st.data())
def test_subst_of_a_relator_that_is_not_cyclically_reduced(gen, exp, data):
    rest = tuple(g for g in (1, 2, 3) if g != gen)
    relator = data.draw(uncyclic_relators(rest))
    at = data.draw(st.integers(1, len(relator.syllables) - 1))
    syls = relator.syllables
    relator = reduce_word(syls[:at] + ((gen, exp),) + syls[at:])
    others = data.draw(st.lists(words_over((1, 2, 3)), max_size=2))
    # u x^exp v = 1 gives x = (v u)^-exp
    syls = relator.syllables
    solution = reduce_word(syls[at + 1 :] + syls[:at])
    assert _solve(relator, gen) == (solution if exp == -1 else invert(solution))
    expected = []
    for other in others:
        pairs = []
        for g, e in other.syllables:
            pairs += spelled_power(solution, -exp * e) if g == gen else [(g, e)]
        expected.append(reduce_word((g - 1 if g > gen else g, e) for g, e in pairs))
    assert apply_move(3, [relator, *others], ("subst", 0, gen)) == (2, expected)
