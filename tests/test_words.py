import random

import pytest

from artinhexa.words import (
    IDENTITY,
    Word,
    WordError,
    WordSyntaxError,
    _least_offset,
    abelianize,
    concat,
    cyclic_reduce,
    generator,
    invert,
    parse_int,
    parse_word,
    power,
    reduce_word,
    serialize_word,
)
from oracles import conjugate, cyclic_canonical


# ---- independent letter-level oracle -------------------------------------

def letters_reduce(letters):
    out = []
    for x in letters:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return out


def to_letters(pairs):
    out = []
    for g, e in pairs:
        out.extend([g if e > 0 else -g] * abs(e))
    return out


def word_from_letters(letters):
    return reduce_word((abs(x), 1 if x > 0 else -1) for x in letters)


def random_pairs(rng, length, rank=3, max_exp=3):
    return [
        (rng.randint(1, rank), rng.choice([e for e in range(-max_exp, max_exp + 1) if e]))
        for _ in range(length)
    ]


# ---- reduce ----------------------------------------------------------------

def test_reduce_inverse_pair():
    assert reduce_word([(1, 1), (1, -1)]) == IDENTITY


def test_reduce_cancel_then_merge():
    assert reduce_word([(2, -1), (2, 1), (3, 1)]) == generator(3)


def test_reduce_table5_relator():
    # x2^-1 * (x2 x3)^-1 = x2^-1 x3^-1 x2^-1
    w = concat(generator(2, -1), invert(parse_word("x2*x3")))
    assert serialize_word(w) == "x2^-1*x3^-1*x2^-1"


def test_reduce_idempotent_and_matches_letter_oracle():
    rng = random.Random(7)
    for _ in range(300):
        pairs = random_pairs(rng, rng.randint(0, 12))
        w = reduce_word(pairs)
        assert reduce_word(w.syllables) == w
        assert to_letters(w.syllables) == letters_reduce(to_letters(pairs))


def test_reduce_rejects_bad_generators():
    with pytest.raises(WordError):
        reduce_word([(0, 1)])


def test_word_invariant_enforced():
    with pytest.raises(WordError):
        Word(((1, 1), (1, 2)))
    with pytest.raises(WordError):
        Word(((1, 0),))


# ---- confluence: random inverse-pair insertion -----------------------------

def insert_inverse_pairs(rng, letters, k):
    out = list(letters)
    for _ in range(k):
        pos = rng.randint(0, len(out))
        g = rng.randint(1, 3) * rng.choice([1, -1])
        out[pos:pos] = [g, -g]
    return out


def test_confluence_1000_trials():
    rng = random.Random(2024)
    for _ in range(1000):
        base = word_from_letters(
            [rng.randint(1, 3) * rng.choice([1, -1]) for _ in range(rng.randint(0, 10))]
        )
        noisy = insert_inverse_pairs(rng, to_letters(base.syllables), rng.randint(0, 20))
        assert word_from_letters(noisy) == base


# ---- concat / invert / power ------------------------------------------------

def test_concat_examples():
    x1, x2, x3 = generator(1), generator(2), generator(3)
    assert concat(x1, invert(x1)) == IDENTITY
    assert concat(x1 * x2, invert(x2) * x3) == x1 * x3
    w = x1 * x2 * x3
    assert serialize_word(w * w) == "x1*x2*x3*x1*x2*x3"


def test_concat_associative_identity_neutral():
    rng = random.Random(5)
    for _ in range(100):
        a, b, c = (reduce_word(random_pairs(rng, 6)) for _ in range(3))
        assert (a * b) * c == a * (b * c)
        assert a * IDENTITY == a == IDENTITY * a


def test_invert_examples():
    assert serialize_word(invert(parse_word("x1*x2"))) == "x2^-1*x1^-1"
    assert invert(IDENTITY) == IDENTITY
    assert serialize_word(invert(parse_word("x3^-2*x2^-1"))) == "x2*x3^2"


def test_invert_is_inverse():
    rng = random.Random(11)
    for _ in range(200):
        w = reduce_word(random_pairs(rng, 8))
        assert w * invert(w) == IDENTITY
        assert invert(w) * w == IDENTITY


def test_power_matches_repeated_concat():
    w = parse_word("x1*x2^-2")
    assert power(w, 0) == IDENTITY
    assert power(w, 3) == w * w * w
    assert power(w, -2) == invert(w * w)


# ---- conjugation -------------------------------------------------------------

def test_conjugate_examples():
    x1, x2 = generator(1), generator(2)
    assert conjugate(x1, IDENTITY) == x1
    assert conjugate(x2, power(x2, 5)) == x2
    assert serialize_word(conjugate(x1, x2)) == "x2^-1*x1*x2"


def test_conjugate_convention_is_right_conjugation():
    w, g = parse_word("x1*x2"), parse_word("x3*x1")
    assert conjugate(w, g) == invert(g) * w * g


# ---- cyclic reduction and conjugacy ------------------------------------------

def test_cyclic_reduce_examples():
    assert cyclic_reduce(parse_word("x1^-1*x2*x1")) == generator(2)
    assert cyclic_reduce(parse_word("x2*x1")) == parse_word("x1*x2")
    assert cyclic_reduce(parse_word("x3^-1*x1*x2*x3")) == parse_word("x1*x2")
    assert cyclic_reduce(parse_word("x1*x2*x1^-2")) == parse_word("x1^-1*x2")
    w = parse_word("x1*x2")
    assert cyclic_reduce(w) is w
    assert cyclic_reduce(IDENTITY) is IDENTITY


def test_cyclic_reduce_against_peel_oracle():
    rng = random.Random(13)
    for _ in range(300):
        letters = [rng.randint(1, 3) * rng.choice([1, -1]) for _ in range(rng.randint(0, 14))]
        w = word_from_letters(letters)
        assert cyclic_reduce(w).syllables == cyclic_canonical(w).syllables


@pytest.mark.parametrize(
    "values, offset",
    [([2, 1, 1] * 10_000, 1), ([1] * 29_997 + [2, 1, 1], 29_998)],
    ids=["periodic", "one-break"],
)
def test_least_offset_makes_linearly_many_comparisons(values, offset):
    # the least item recurs at least 2*10^4 times: comparing whole rotations
    # from each of its places would take on the order of 10^8 comparisons
    budget = [4 * len(values)]

    class Counted:
        __slots__ = ("value",)
        __hash__ = None

        def __init__(self, value):
            self.value = value

        def _spend(self):
            budget[0] -= 1
            if budget[0] < 0:
                raise AssertionError("more than 4 comparisons per item")

        def __eq__(self, other):
            self._spend()
            return self.value == other.value

        def __lt__(self, other):
            self._spend()
            return self.value < other.value

    assert _least_offset(tuple(map(Counted, values))) == offset


def test_cyclic_word_canonical_rotation_invariance():
    rng = random.Random(17)
    for _ in range(200):
        w = reduce_word(random_pairs(rng, 6))
        cyc = cyclic_reduce(w)
        syls = cyc.syllables
        for k in range(len(syls)):
            rotated = Word(syls[k:] + syls[:k])
            assert cyclic_reduce(rotated) == cyc


def test_is_conjugate_examples():
    # conjugacy classes are compared through their cyclic canonical forms
    assert cyclic_reduce(parse_word("x1*x2")) == cyclic_reduce(parse_word("x2*x1"))
    assert cyclic_reduce(generator(1)) != cyclic_reduce(generator(2))


def test_is_conjugate_explicit_conjugates():
    rng = random.Random(19)
    for _ in range(200):
        w = reduce_word(random_pairs(rng, rng.randint(0, 12)))
        g = reduce_word(random_pairs(rng, rng.randint(0, 12)))
        assert cyclic_reduce(conjugate(w, g)) == cyclic_reduce(w)
        # left-translate of the conjugator changes nothing
        h = reduce_word(random_pairs(rng, 4))
        assert cyclic_reduce(conjugate(w, h * g)) == cyclic_reduce(w)


# ---- abelianization ------------------------------------------------------------

def test_abelianize_examples():
    assert abelianize(parse_word("x1^-1*x2*x1*x2"), 3) == (0, 2, 0)
    assert abelianize(IDENTITY, 3) == (0, 0, 0)
    assert abelianize(parse_word("x3^-2*x2^-1*x3^-1*x2^-1"), 3) == (0, -2, -3)


def test_abelianize_homomorphism_kills_conjugators():
    rng = random.Random(23)
    for _ in range(200):
        a = reduce_word(random_pairs(rng, 8))
        b = reduce_word(random_pairs(rng, 8))
        va = abelianize(a, 3)
        vb = abelianize(b, 3)
        assert abelianize(a * b, 3) == tuple(x + y for x, y in zip(va, vb))
        assert abelianize(conjugate(a, b), 3) == va


def test_abelianize_rank_check():
    with pytest.raises(WordError):
        abelianize(generator(4), 3)


# ---- parsing and serialization ---------------------------------------------------

def test_parse_examples():
    assert len(parse_word("x1^-1*x2*x3^2").syllables) == 3
    assert parse_word("1") == IDENTITY
    assert serialize_word(parse_word("x1*x1")) == "x1^2"
    assert parse_word(" x1 * x2 ") == parse_word("x1*x2")


def test_serialize_omits_exponent_one():
    assert serialize_word(parse_word("x2^1")) == "x2"
    assert serialize_word(IDENTITY) == "1"


def test_parse_round_trip():
    rng = random.Random(29)
    for _ in range(200):
        w = reduce_word(random_pairs(rng, 8))
        assert parse_word(serialize_word(w)) == w


def test_parse_errors_carry_position():
    with pytest.raises(WordSyntaxError) as err:
        parse_word("x1*y2")
    assert err.value.position == 3
    # \u0661 and \u0662 are Arabic-Indic one and two: digits are ASCII only
    for bad in ("x1^0", "", "x\u0661", "x1^\u0662", "x\u0661^2"):
        with pytest.raises(WordSyntaxError):
            parse_word(bad)


def test_parse_int_takes_ascii_digits_only():
    assert parse_int("12") == 12
    assert parse_int(" -3 ") == -3
    assert parse_int("+0") == 0
    # \u0661 is Arabic-Indic one; int() takes it and "1_0", this reader does not
    for bad in ("\u0661", "1_0", "", "-", "1.0", "0x1", "1,0"):
        with pytest.raises(ValueError):
            parse_int(bad)
