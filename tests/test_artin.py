import itertools
import random

import pytest

from artinhexa import artin
from artinhexa.artin import (
    ArtinCheck,
    Presentation,
    PresentationError,
    SurgeryParams,
    gen_from_hex,
    gen_from_params,
    verify_artin,
)
from artinhexa.hexa import HexFilling, linking_matrix, to_surgery
from artinhexa.matching import build_tasks
from artinhexa.words import IDENTITY, abelianize, parse_word, reduce_word
from hex_oracle import closed_form_relators


def params(m, n, p, e, e1, f1):
    return gen_from_params(SurgeryParams(m, n, p, e, e1, f1))


def test_gen_from_params_power_case():
    pres = params(3, -2, 5, 0, 0, 0)
    assert pres.serialized_relators() == ("x1^3", "x2^-2", "x3^5")


def test_gen_from_params_substitution_case():
    # m=n=1, p=0, f1=1: direct substitution into the relator formulas
    pres = params(1, 1, 0, 0, 0, 1)
    assert pres.serialized_relators() == ("x1", "x2*x3", "x3^-1*x2*x3")
    check = verify_artin(pres)
    assert check.w and not check.f


def test_gen_from_params_full_twist_case():
    pres = params(1, 1, 1, 1, 0, 0)
    assert pres.serialized_relators() == ("x1*x2*x3",) * 3


def test_gen_from_hex_table5_row1():
    pres = gen_from_hex(HexFilling(1, 1, 1, 0, 0, 0))
    assert pres.serialized_relators() == ("x1^-1", "x2^-1*x3^-1*x2^-1", "x3^-1*x2^-1")


def test_gen_from_hex_zero_filling():
    pres = gen_from_hex(HexFilling(0, 0, 0, 0, 0, 0))
    assert pres.relators == (IDENTITY,) * 3


def test_gen_from_hex_table5_row14_shape():
    pres = gen_from_hex(HexFilling(1, 1, 0, 0, 1, 0))
    assert pres.serialized_relators() == ("x1^-1", "x2^-1", "x3^-1")


def test_presentation_rank_check():
    with pytest.raises(PresentationError):
        Presentation(2, (parse_word("x3"),))
    with pytest.raises(PresentationError):
        Presentation(-1, ())


def test_verify_artin_powers():
    pres = Presentation(3, (parse_word("x1^4"), parse_word("x2^-2"), parse_word("x3")))
    assert verify_artin(pres) == ArtinCheck(w=True, f=True)


def test_verify_artin_figure6_open_book():
    pres = Presentation(
        3,
        (
            parse_word("x1*x2*x3*x1*x2*x1"),
            parse_word("x1*x2*x3*x1*x2^2"),
            parse_word("x1*x2*x3^2"),
        ),
    )
    check = verify_artin(pres)
    assert check.f
    assert not check.w


def test_verify_artin_rank_mismatch():
    with pytest.raises(PresentationError):
        verify_artin(Presentation(3, (parse_word("x1"),)))


def test_verify_artin_invariant_under_reduction():
    # handing unreduced relator data to the constructor is impossible, so
    # check the equivalent: reduced forms of random raw syllables verify
    # identically however they were assembled
    rng = random.Random(79)
    for _ in range(50):
        raw = [
            [(rng.randint(1, 3), rng.choice([-2, -1, 1, 2])) for _ in range(6)]
            for _ in range(3)
        ]
        pres = Presentation(3, tuple(reduce_word(r) for r in raw))
        doubled = [r + [(1, 1), (1, -1)] for r in raw]
        pres2 = Presentation(3, tuple(reduce_word(r) for r in doubled))
        assert verify_artin(pres) == verify_artin(pres2)


def test_w_identity_exhaustive_small():
    for combo in itertools.product(range(-1, 2), repeat=6):
        assert verify_artin(gen_from_params(SurgeryParams(*combo))).w


def test_w_identity_random_samples():
    rng = random.Random(83)
    for _ in range(300):
        combo = [rng.randint(-4, 4) for _ in range(6)]
        assert verify_artin(gen_from_params(SurgeryParams(*combo))).w


def test_w_abelianization_sanity():
    # both sides of the W identity abelianize to (1, 1, 1): conjugation dies
    rng = random.Random(89)
    for _ in range(50):
        pres = gen_from_params(SurgeryParams(*(rng.randint(-3, 3) for _ in range(6))))
        total = (0, 0, 0)
        for i in range(1, 4):
            total = tuple(a + b for a, b in zip(total, abelianize(parse_word(f"x{i}"), 3)))
        assert total == (1, 1, 1)


def test_hex_params_consistency_sampled():
    rng = random.Random(97)
    for _ in range(400):
        h = HexFilling(*(rng.randint(-3, 3) for _ in range(6)))
        assert gen_from_hex(h).relators == closed_form_relators(h)


def test_surgery_presentation_matches_hex_route():
    h = HexFilling(2, -1, 3, -2, 0, 1)
    assert gen_from_params(to_surgery(h)).relators == closed_form_relators(h)


def syllable_bound(s):
    """The bound ``gen_from_params`` checks, written out again."""
    e, e1, f1 = abs(s.e), abs(s.e1), abs(s.f1)
    return 3 * (e1 * (4 * f1 + 2) + 2 * f1 + 3 * e + 1)


def test_syllable_bound_is_never_below_the_real_count():
    rng = random.Random(101)
    for _ in range(400):
        s = SurgeryParams(*(rng.randint(-30, 30) for _ in range(6)))
        syllables = sum(len(r.syllables) for r in gen_from_params(s).relators)
        assert syllables <= syllable_bound(s)


def test_gen_from_params_refuses_oversized_presentations(monkeypatch):
    # the bound is read from the parameters, so the cap applies exactly
    s = SurgeryParams(1, 2, 3, -2, 5, -4)
    monkeypatch.setattr(artin, "MAX_PRESENTATION_SYLLABLES", syllable_bound(s))
    gen_from_params(s)
    monkeypatch.setattr(artin, "MAX_PRESENTATION_SYLLABLES", syllable_bound(s) - 1)
    with pytest.raises(PresentationError, match="above the limit"):
        gen_from_params(s)


def test_linking_matrix_on_every_filling_of_the_match_command():
    # the distinct fillings of match-examples --tables 1,2,3
    # --param-range=-1..1 --symmetries all
    fillings = {task.filling for task in build_tasks((1, 2, 3), (-1, 1), "all")}
    assert len(fillings) == 2168
    for h in fillings:
        matrix = linking_matrix(to_surgery(h))
        assert matrix == tuple(abelianize(r, 3) for r in gen_from_hex(h).relators)
        assert matrix == tuple(zip(*matrix))
        negated = tuple(tuple(-v for v in row) for row in matrix)
        assert linking_matrix(to_surgery(h.mirror())) == negated
