import itertools
import random

import pytest

from artinhexa.freeprod import (
    D,
    FP_IDENTITY,
    FPWord,
    FPWordError,
    Y,
    Y2,
    fp_concat,
    fp_invert,
    fp_power,
    rho,
    serialize_fp_word,
)
from oracles import fp_cyclic_reduce, fp_is_even_power_form

Y2D = Y2 * D
DY2 = D * Y2
YD = Y * D
DY = D * Y


def all_fp_words(max_len):
    """Every normal-form word of syllable length <= max_len."""
    out = [FP_IDENTITY]
    frontier = [FP_IDENTITY]
    for _ in range(max_len):
        new = []
        for w in frontier:
            last = w.syllables[-1] if w.syllables else None
            for syl in (0, 1, 2):
                if last is None or (last == 0) != (syl == 0):
                    new.append(FPWord(w.syllables + (syl,)))
        out.extend(new)
        frontier = new
    return out


def test_fp_reduce_torsion():
    assert fp_concat(Y, Y, Y) == FP_IDENTITY
    assert fp_concat(D, D) == FP_IDENTITY


def test_fp_reduce_rho_of_half_twist():
    # (y^2 D)(D y^2)(y^2 D) collapses to D
    w = fp_concat(Y2, D, D, Y2, Y2, D)
    assert w == D


def test_fp_reduce_mod_exponents():
    assert fp_power(Y, 5) == Y2
    assert fp_power(D, -3) == D
    assert fp_power(Y, -1) == Y2


def test_fp_concat_invert_examples():
    assert YD * DY2 == FP_IDENTITY
    assert fp_invert(Y2D) == DY
    assert serialize_fp_word(fp_power(Y2D, 2) * fp_power(DY2, 2)) == "y^2*D*y*D*y^2"


def test_fp_group_axioms():
    words = all_fp_words(3)
    rng = random.Random(3)
    for _ in range(300):
        a, b, c = (rng.choice(words) for _ in range(3))
        assert (a * b) * c == a * (b * c)
        assert a * fp_invert(a) == FP_IDENTITY
        assert fp_invert(a) * a == FP_IDENTITY


def test_fp_word_invariant_enforced():
    with pytest.raises(FPWordError):
        FPWord((0, 0))
    with pytest.raises(FPWordError):
        FPWord((1, 2))
    with pytest.raises(FPWordError):
        FPWord((3,))


def test_fp_cyclic_reduce_examples():
    # y^2 D y D y^2 has cyclic class (D y)^2
    w = fp_power(Y2D, 2) * fp_power(DY2, 2)
    assert fp_cyclic_reduce(w) == fp_cyclic_reduce(fp_power(DY, 2))
    assert fp_cyclic_reduce(D) == D
    assert fp_cyclic_reduce(DY * DY) == DY * DY


def test_fp_cyclic_reduce_is_canonical():
    for w in all_fp_words(6):
        c = fp_cyclic_reduce(w)
        assert fp_cyclic_reduce(c) == c
        # the least rotation, as first written: the minimum over all of them
        syls = c.syllables
        assert syls == min((syls[i:] + syls[:i] for i in range(len(syls))), default=())
    assert fp_cyclic_reduce(FPWord((1, 0))) == FPWord((0, 1))


def test_fp_is_conjugate_examples():
    # conjugacy classes are compared through their cyclic normal forms
    assert fp_cyclic_reduce(YD) == fp_cyclic_reduce(DY)
    assert fp_cyclic_reduce(Y) != fp_cyclic_reduce(Y2)


def test_fp_conjugacy_against_brute_force():
    conjugators = all_fp_words(6)
    words = all_fp_words(4)
    rng = random.Random(31)

    def brute(a, b):
        return any(fp_invert(g) * a * g == b for g in conjugators)

    for _ in range(120):
        a, b = rng.choice(words), rng.choice(words)
        if brute(a, b):
            assert fp_cyclic_reduce(a) == fp_cyclic_reduce(b)
    for _ in range(200):
        w, g = rng.choice(words), rng.choice(conjugators)
        assert fp_cyclic_reduce(fp_invert(g) * w * g) == fp_cyclic_reduce(w)


def test_rho_anchors():
    assert rho([1, 2]) == Y
    assert rho([1, 2, 1]) == D
    assert rho([2, 1, 2]) == D
    assert rho([1, 2, 2, 1]) == fp_power(YD, 2)


def test_rho_homomorphism_and_inverses():
    assert rho([1, -1]) == FP_IDENTITY
    assert rho([2, -2]) == FP_IDENTITY
    rng = random.Random(37)
    for _ in range(200):
        u = [rng.choice([1, -1, 2, -2]) for _ in range(rng.randint(0, 8))]
        v = [rng.choice([1, -1, 2, -2]) for _ in range(rng.randint(0, 8))]
        assert rho(u + v) == rho(u) * rho(v)


def test_rho_kills_full_twist():
    assert rho([1, 2, 1] * 2) == FP_IDENTITY


def test_rho_rejects_bad_letters():
    with pytest.raises(FPWordError):
        rho([3])


def test_even_power_form_examples():
    hit = fp_is_even_power_form(fp_power(DY, 4))
    assert hit is not None and hit.k == 2 and hit.base == DY

    hit = fp_is_even_power_form(fp_power(Y2D, 2) * fp_power(DY2, 2))
    assert hit is not None and hit.k == 1 and hit.base == DY

    assert fp_is_even_power_form(rho([1] * 4 + [2] * 2)) is None


def test_even_power_form_detects_both_bases():
    for k in (1, 2, 3):
        hit = fp_is_even_power_form(fp_power(Y2D, 2 * k))
        assert hit is not None and hit.k == k and hit.base == Y2D
        # conjugates are recognized through the cyclic form
        g = Y * D * Y2
        hit = fp_is_even_power_form(fp_invert(g) * fp_power(DY, 2 * k) * g)
        assert hit is not None and hit.k == k and hit.base == DY
    assert fp_is_even_power_form(fp_power(DY, 2)) is not None
    assert fp_is_even_power_form(DY) is None
    assert fp_is_even_power_form(FP_IDENTITY) is None
    assert fp_is_even_power_form(fp_power(DY, 3)) is None


def rho_block_product(blocks):
    parts = []
    for e, f in blocks:
        parts.append(fp_power(Y2D, 2 * e))
        parts.append(fp_power(DY2, 2 * f))
    return fp_concat(*parts)


def test_block_decomposition_small_grid():
    # prefix in {Dy, y^2 D}, suffix in {yD, D y^2}, nonempty middle
    prefixes = {(0, 1), (2, 0)}
    suffixes = {(1, 0), (0, 2)}
    for n in (1, 2):
        for combo in itertools.product([1, -1, 2, -2], repeat=2 * n):
            blocks = [(combo[2 * i], combo[2 * i + 1]) for i in range(n)]
            w = rho_block_product(blocks)
            assert len(w) >= 5
            assert w.syllables[:2] in prefixes
            assert w.syllables[-2:] in suffixes


def test_even_power_criterion_small_grid():
    for n in (1, 2):
        for combo in itertools.product([1, -1, 2, -2], repeat=2 * n):
            blocks = [(combo[2 * i], combo[2 * i + 1]) for i in range(n)]
            yes = fp_is_even_power_form(rho_block_product(blocks)) is not None
            expected = all(b == (1, 1) for b in blocks) or all(b == (-1, -1) for b in blocks)
            assert yes == expected, blocks


def test_naive_power_shortcut_for_block_images_is_wrong_and_unused():
    # the tempting shortcut rho(w1) = (y^2 D)^(2(e1-f1)) would make the
    # image trivial whenever e1 == f1; the normal form says otherwise, so
    # the engine recomputes every image and never uses such a formula
    for e1, f1 in ((1, 1), (2, 2), (-1, -1)):
        image = rho_block_product([(e1, f1)])
        shortcut = fp_power(Y2D, 2 * (e1 - f1))
        assert shortcut == FP_IDENTITY
        assert image != shortcut
    # the genuine normal form for (1, 1) is the Case-1 shape y^2 D y D y^2
    assert serialize_fp_word(rho_block_product([(1, 1)])) == "y^2*D*y*D*y^2"
