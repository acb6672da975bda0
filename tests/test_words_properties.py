"""Hypothesis properties of the word layer's fast paths: join-cancellation
lengths, products and powers built at their joins against one reduction
pass over the chained syllables, the least rotation and the cyclic
canonical form, results built without the public constructor's
validation, and serialisation through the memo of syllable text."""

import time

import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given
from hypothesis import strategies as st

from artinhexa import words as words_module
from artinhexa.artin import ArtinCheck, Presentation, gen_from_params, verify_artin
from artinhexa.hexa import SurgeryParams
from artinhexa.words import (
    IDENTITY,
    Word,
    _join_cancellation,
    _least_offset,
    concat,
    cyclic_reduce,
    invert,
    parse_word,
    power,
    reduce_word,
    serialize_word,
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


# conjugate-shaped words g*w*g^-1: their ends merge or cancel, in a product
# with another word and in a power of their own
conjugates = st.builds(lambda w, g: concat(g, w, invert(g)), words, words)
shaped = st.one_of(words, powers, conjugates)


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


@given(st.lists(shaped, max_size=5))
@example([parse_word("x1*x2"), parse_word("x2^-1*x1^-1*x3")])  # empties, then goes on
@example([parse_word("x1*x2^2"), parse_word("x2^-1*x3")])  # merges without cancelling
@example([])
def test_concat_is_one_reduction_of_the_chained_syllables(ws):
    assert concat(*ws) == reduce_word(syl for w in ws for syl in w.syllables)


@given(shaped, st.integers(-9, 9))
@example(parse_word("x1*x2*x1^2"), 3)  # the core's ends merge into x1^3
@example(parse_word("x3*x1^2*x2*x1^-1*x3^-1"), -4)
@example(IDENTITY, 5)
def test_power_is_one_reduction_of_the_repeated_syllables(w, k):
    base = w if k >= 0 else invert(w)
    assert power(w, k) == reduce_word(base.syllables * abs(k))


def test_power_costs_the_syllables_of_the_result():
    t0 = time.perf_counter()
    assert power(IDENTITY, 10**9) == IDENTITY
    w = power(parse_word("x1*x2*x1^-1"), 10**6)
    elapsed = time.perf_counter() - t0
    assert w.syllables == ((1, 1), (2, 10**6), (1, -1))
    assert elapsed < 0.1


def artin_oracle(pres: Presentation) -> ArtinCheck:
    """Both Artin identities, each product reduced in one pass."""
    w_syls, f_syls = [], []
    for i, r in enumerate(pres.relators, start=1):
        r_inv = invert(r).syllables
        w_syls += r_inv + ((i, 1),) + r.syllables
        f_syls += r.syllables + ((i, 1),) + r_inv
    target = reduce_word((i, 1) for i in range(1, pres.rank + 1))
    return ArtinCheck(w=reduce_word(w_syls) == target, f=reduce_word(f_syls) == target)


def _relators(rank: int):
    gens = st.lists(st.tuples(st.integers(1, rank), st.integers(-3, 3)), max_size=8).map(reduce_word)
    return st.tuples(*[gens] * rank)


small = st.integers(-3, 3)
presentations = st.one_of(
    st.integers(1, 3).flatmap(lambda rank: st.builds(Presentation, st.just(rank), _relators(rank))),
    st.builds(gen_from_params, st.builds(SurgeryParams, small, small, small, small, small, small)),
)


@given(presentations)
@example(Presentation(0, ()))
def test_verify_artin_matches_one_reduction_per_identity(pres):
    assert verify_artin(pres) == artin_oracle(pres)


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


def formatted_syllables(w: Word) -> str:
    """The text form, each syllable formatted afresh."""
    if not w.syllables:
        return "1"
    return "*".join(f"x{gen}" if exp == 1 else f"x{gen}^{exp}" for gen, exp in w.syllables)


# exponents +-1, large exponents and generators above 9
text_words = st.lists(
    st.tuples(
        st.one_of(st.integers(1, 3), st.integers(10, 10**6)),
        st.one_of(st.sampled_from((1, -1)), st.integers(-3, 3), st.integers(-10**12, 10**12)),
    ),
    max_size=12,
).map(reduce_word)


@given(text_words)
@example(IDENTITY)
@example(reduce_word(((12, 1), (1, -1), (10, 10**12))))
def test_serialize_word_formats_each_syllable(w):
    assert serialize_word(w) == formatted_syllables(w)
    assert serialize_word(w) == formatted_syllables(w)  # from the memo, where it holds them
    assert parse_word(serialize_word(w)) == w


@given(st.lists(text_words, max_size=6))
def test_serialize_word_keeps_at_most_its_bound(ws):
    # a full memo still gives every word its text, from the memo or afresh
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(words_module, "SYLLABLE_TEXTS", 3)
        patch.setattr(words_module, "_syllable_text", {})
        for w in ws + ws:
            assert serialize_word(w) == formatted_syllables(w)
        kept = words_module._syllable_text
        assert len(kept) <= 3
        assert all(text == formatted_syllables(Word((syl,))) for syl, text in kept.items())
