import random

import pytest

from artinhexa import braids
from artinhexa.braids import (
    CONNECTED_SUM,
    ESSENTIAL_TORUS,
    HYPERBOLIC,
    SPLITTABLE,
    BraidError,
    PureBraid,
    classify,
    format_blocks,
    parse_blocks,
    parse_braid_word,
)
from artinhexa.freeprod import rho
from oracles import normalize, rho_torus_witness, to_braid_word


def test_normalize_merges_across_zero():
    b = normalize(PureBraid(((2, 0), (3, 1)), 1))
    assert b == PureBraid(((5, 1),), 1)


def test_normalize_drops_zero_blocks():
    assert normalize(PureBraid(((0, 0),), 0)) == PureBraid((), 0)
    assert normalize(PureBraid(((1, 2),), -1)) == PureBraid(((1, 2),), -1)


def test_normalize_merges_zero_sigma1():
    assert normalize(PureBraid(((1, 2), (0, 3)), 0)) == PureBraid(((1, 5),), 0)


def test_normalize_preserves_expansion():
    rng = random.Random(41)
    for _ in range(300):
        blocks = tuple(
            (rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(rng.randint(0, 4))
        )
        b = PureBraid(blocks, rng.randint(-2, 2))
        letters_reduce = lambda ls: _reduce_letters(ls)
        assert letters_reduce(to_braid_word(b)) == letters_reduce(to_braid_word(normalize(b)))


def _reduce_letters(letters):
    out = []
    for x in letters:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return out


def test_to_braid_word_examples():
    assert to_braid_word(PureBraid(((1, 1),), 0)) == (1, 1, 2, 2)
    assert to_braid_word(PureBraid((), 1)) == (1, 2, 1, 1, 2, 1)
    assert to_braid_word(PureBraid(((-1, 0),), 0)) == (-1, -1)


def test_to_braid_word_length_formula():
    rng = random.Random(43)
    for _ in range(100):
        blocks = tuple(
            (rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(rng.randint(0, 3))
        )
        e = rng.randint(-3, 3)
        expected = sum(2 * abs(x) + 2 * abs(y) for x, y in blocks) + 6 * abs(e)
        assert len(to_braid_word(PureBraid(blocks, e))) == expected


def test_classify_examples():
    c = classify(PureBraid(((1, 1),), 5))
    assert c.tag == ESSENTIAL_TORUS and c.clauses == ("Thm4.2-ii",)

    c = classify(PureBraid(((2, 3),), 0))
    assert c.tag == CONNECTED_SUM and c.clauses == ("Thm4.2-iii",)

    assert classify(PureBraid(((2, 3),), 1)).tag == HYPERBOLIC

    c = classify(PureBraid(((1, 1), (1, 1)), 7))
    assert c.tag == ESSENTIAL_TORUS and c.clauses == ("Thm4.6-iii",)


def test_classify_torus_beats_connected_sum_on_overlap():
    # e1 = f1 = 1 with e = 0 satisfies both clauses; torus wins, both recorded
    c = classify(PureBraid(((1, 1),), 0))
    assert c.tag == ESSENTIAL_TORUS
    assert set(c.clauses) == {"Thm4.2-ii", "Thm4.2-iii"}


def test_classify_zero_exponent_and_degenerate_cases():
    assert classify(PureBraid((), 0)).tag == SPLITTABLE
    assert classify(PureBraid((), 2)).tag == ESSENTIAL_TORUS
    assert classify(PureBraid(((3, 0),), 0)).tag == SPLITTABLE
    assert classify(PureBraid(((3, 0),), 2)).tag == ESSENTIAL_TORUS
    assert classify(PureBraid(((0, -2),), 4)).tag == ESSENTIAL_TORUS
    assert classify(PureBraid(((-1, -1), (-1, -1)), 1)).clauses == ("Thm4.6-iv",)


def test_classify_invariant_under_rotation():
    rng = random.Random(47)
    for _ in range(1000):
        n = rng.randint(1, 4)
        blocks = [(rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(n)]
        e = rng.randint(-2, 2)
        base = classify(PureBraid(tuple(blocks), e))
        k = rng.randrange(n)
        rotated = blocks[k:] + blocks[:k]
        assert classify(PureBraid(tuple(rotated), e)) == base


def test_classify_invariant_under_normalize():
    rng = random.Random(53)
    for _ in range(300):
        blocks = tuple(
            (rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(rng.randint(0, 4))
        )
        b = PureBraid(blocks, rng.randint(-2, 2))
        assert classify(b) == classify(normalize(b))


def reference_cyclic_blocks(blocks):
    """The closure's block list as first written: its own run merging,
    wrap-around merging and least rotation among those starting at a sigma1
    run, applied after ``normalize``.  The oracle for ``_cyclic_blocks``."""
    runs = []  # (generator 1|2, exponent)
    for e, f in normalize(PureBraid(tuple(blocks))).blocks:
        for gen, exp in ((1, e), (2, f)):
            if exp == 0:
                continue
            if runs and runs[-1][0] == gen:
                merged = runs[-1][1] + exp
                runs.pop()
                if merged:
                    runs.append((gen, merged))
            else:
                runs.append((gen, exp))
    while len(runs) >= 2 and runs[0][0] == runs[-1][0]:
        gen, exp = runs.pop()
        merged = runs[0][1] + exp
        runs.pop(0)
        if merged:
            runs.insert(0, (gen, merged))
    if not runs:
        return ()
    if len(runs) == 1:
        gen, exp = runs[0]
        return ((exp, 0),) if gen == 1 else ((0, exp),)
    starts = [i for i, (gen, _) in enumerate(runs) if gen == 1]
    best = min(tuple(runs[i:] + runs[:i]) for i in starts)
    return tuple((best[i][1], best[i + 1][1]) for i in range(0, len(best), 2))


def test_cyclic_blocks_match_reference(monkeypatch):
    rng = random.Random(59)
    cases = [
        (),
        ((0, 0), (0, 0)),
        ((1, 2), (0, -2), (-1, 0)),  # cancels to nothing
        ((2, 1), (0, -1), (-2, 3)),  # a cancelling run in the middle
        ((1, 2), (-1, 0)),  # runs cancel around the closure
        ((0, 1), (2, 3), (1, -1)),  # cancel, then merge, around the closure
        ((0, 1), (2, 3), (1, 0)),
    ] + [
        tuple((rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(rng.randint(2, 6)))
        for _ in range(3000)
    ]
    twists = [rng.randint(-1, 1) for _ in cases]
    new = [(braids._cyclic_blocks(blocks), classify(PureBraid(blocks, e)))
           for blocks, e in zip(cases, twists)]
    assert sum(len(b) >= 2 for b, _ in new) > 1000  # multi-block canonical forms
    monkeypatch.setattr(braids, "_cyclic_blocks", reference_cyclic_blocks)
    for blocks, e, (canonical, tag) in zip(cases, twists, new):
        assert canonical == reference_cyclic_blocks(blocks), blocks
        assert tag == classify(PureBraid(blocks, e)), blocks


def test_rho_torus_witness_examples():
    for e in (-2, 0, 3):
        hit = rho_torus_witness(PureBraid(((1, 1),), e))
        assert hit is not None
    assert rho_torus_witness(PureBraid(((-1, -1),), 5)) is not None
    assert rho_torus_witness(PureBraid(((2, 1),), 0)) is None


def test_rho_torus_witness_rejects_zero_blocks():
    with pytest.raises(BraidError):
        rho_torus_witness(PureBraid(((1, 0),), 0))


def test_witness_agrees_with_classifier_small_grid():
    import itertools

    for n in (1, 2):
        for combo in itertools.product([1, -1, 2, -2], repeat=2 * n):
            blocks = tuple((combo[2 * i], combo[2 * i + 1]) for i in range(n))
            for e in (-1, 0, 2):
                b = PureBraid(blocks, e)
                witness = rho_torus_witness(b) is not None
                c = classify(b)
                fires = c.tag == ESSENTIAL_TORUS and any(
                    cl in ("Thm4.2-ii", "Thm4.6-iii", "Thm4.6-iv") for cl in c.clauses
                )
                assert witness == fires, (blocks, e)


def _sl2_trace(blocks) -> int:
    """The trace of the braid's image in SL(2,Z) under sigma1^2 -> A =
    [[1,2],[0,1]] and sigma2^2 -> B = [[1,0],[-2,1]], full twist left out:
    it goes to -I, which changes the sign only."""
    (a, b), (c, d) = (1, 0), (0, 1)
    for e, f in blocks:
        # times A^e = [[1,2e],[0,1]], then times B^f = [[1,0],[-2f,1]]
        b, d = b + 2 * e * a, d + 2 * e * c
        a, c = a - 2 * f * b, c - 2 * f * d
    return a + d


def test_braid_class_agrees_with_the_trace_in_sl2z():
    # the closure is pseudo-Anosov exactly when |trace| > 2 (the
    # Nielsen-Thurston trichotomy in SL(2,Z) form), a criterion that shares
    # nothing with classify's cyclic normal form; with twist 0 and one block
    # after merging, classify says ConnectedSum, so only one-sided rules hold
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    exponents = st.integers(-3, 3)

    @hypothesis.given(st.lists(st.tuples(exponents, exponents), max_size=4), st.integers(-2, 2))
    @hypothesis.example([(1, 1), (1, 1)], 0)
    @hypothesis.example([(2, 0), (0, 3)], 0)
    @hypothesis.example([(1, 2), (0, 0), (-1, 0)], 1)
    def check(blocks, twist):
        trace = abs(_sl2_trace(blocks))
        tag = classify(PureBraid(tuple(blocks), twist)).tag
        if tag == HYPERBOLIC:
            assert trace > 2
        if trace > 2 and twist != 0:
            assert tag == HYPERBOLIC
        if trace == 2:
            assert tag in (ESSENTIAL_TORUS, SPLITTABLE)

    check()


def test_rho_of_expansion_matches_blockwise():
    from artinhexa.freeprod import fp_concat, fp_power

    s1, s2 = rho([1]), rho([2])
    rng = random.Random(59)
    for _ in range(200):
        blocks = tuple(
            (rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(rng.randint(0, 3))
        )
        e = rng.randint(-2, 2)
        b = PureBraid(blocks, e)
        blockwise = fp_concat(
            *[fp_concat(fp_power(s1, 2 * x), fp_power(s2, 2 * y)) for x, y in blocks]
        )
        assert rho(to_braid_word(b)) == blockwise  # full twist dies under rho


def test_block_text_round_trip():
    assert parse_blocks("1,1") == ((1, 1),)
    assert parse_blocks("2,-3;0,1") == ((2, -3), (0, 1))
    assert parse_blocks("") == ()
    assert format_blocks(((2, -3), (0, 1))) == "2,-3;0,1"
    with pytest.raises(BraidError):
        parse_blocks("1")
    with pytest.raises(BraidError):
        parse_blocks("a,b")
    with pytest.raises(BraidError):
        parse_blocks("\u0661,1_0")  # int() reads this as ((1, 10),)


def test_parse_braid_word():
    assert parse_braid_word("s1*s2^-1*s1") == (1, -2, 1)
    assert parse_braid_word("s2^3") == (2, 2, 2)
    assert parse_braid_word("1") == ()
    # \u0661 and \u0662 are Arabic-Indic one and two: digits are ASCII only
    for bad in ("s3", "s1^\u0661", "s2^-\u0662"):
        with pytest.raises(BraidError):
            parse_braid_word(bad)


def test_parse_braid_word_refuses_oversized_words():
    limit = braids.MAX_BRAID_LETTERS
    assert len(parse_braid_word(f"s1^{limit}")) == limit
    assert parse_braid_word(f"s1^{limit // 2}*s2^-{limit // 2}")[-1] == -2
    # the exponents are summed before a letter is built
    for big in (f"s1^{limit + 1}", f"s1^{limit}*s2^-1", "s2^-" + "9" * 30):
        with pytest.raises(BraidError, match="above the limit"):
            parse_braid_word(big)
