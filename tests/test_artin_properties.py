"""Hypothesis property of the closed-form linking matrix: it is the
exponent-sum matrix of the presentation ``gen_from_params`` builds, it is
symmetric, and the mirror image of a filling negates it.  On the same
presentations the W identity holds (a theorem, see README), and so does the
F identity when ``e = e1 = f1 = 0``.  F also holds on a few parameter sets
with a non-zero twist, so "F only if ``e = e1 = f1 = 0``" is false."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given
from hypothesis import strategies as st

from artinhexa.artin import check_size, gen_from_params, verify_artin
from artinhexa.hexa import HexFilling, SurgeryParams, linking_matrix, to_surgery
from artinhexa.words import abelianize

# the framings do not lengthen the relators; the twists do, and up to 40
# they keep every presentation to a few thousand syllables, inside the cap
framings = st.one_of(st.just(0), st.integers(-3, 3), st.integers(-10**6, 10**6))
twists = st.one_of(st.just(0), st.integers(-3, 3), st.integers(-40, 40))
surgery_params = st.builds(SurgeryParams, framings, framings, framings, twists, twists, twists)


def filling_of(s: SurgeryParams) -> HexFilling:
    """The filling whose surgery parameters are ``s``: ``to_surgery``
    inverted."""
    return HexFilling(
        -s.m + s.e + s.e1,
        -s.n + s.e + s.e1 + s.f1,
        -s.f1,
        -s.e1,
        -s.p + s.e + s.f1,
        -s.e,
    )


@given(surgery_params)
@example(SurgeryParams(0, 0, 0, 0, 0, 0))
@example(SurgeryParams(-1, 2, -3, -4, 5, -6))
@example(SurgeryParams(0, 0, 0, 40, -40, 40))
def test_linking_matrix_is_the_exponent_sum_matrix(s):
    check_size(s)
    matrix = linking_matrix(s)
    pres = gen_from_params(s)
    assert matrix == tuple(abelianize(r, 3) for r in pres.relators)
    check = verify_artin(pres)
    assert check.w
    if s.e == s.e1 == s.f1 == 0:  # the relators are powers x_i^k
        assert check.f
    assert matrix == tuple(zip(*matrix))
    h = filling_of(s)
    assert to_surgery(h) == s
    assert linking_matrix(to_surgery(h.mirror())) == tuple(tuple(-v for v in row) for row in matrix)


@pytest.mark.parametrize(
    "s",
    [
        SurgeryParams(1, 1, 0, 0, 1, 0),  # r1 = r2 = x1 x2, r3 = 1
        SurgeryParams(0, 1, 1, 0, 0, 1),  # r2 = r3 = x2 x3, r1 = 1
        SurgeryParams(1, 1, 1, 1, 0, 0),  # r1 = r2 = r3 = x1 x2 x3
        SurgeryParams(1, -1, 1, 1, -1, -1),
    ],
)
def test_f_holds_with_a_non_zero_twist(s):
    # counterexamples to "F only if e = e1 = f1 = 0", which held on every
    # F row of the reference sweep: of the 117649 sets in -3..3, 97 have a
    # non-zero twist and satisfy F
    assert verify_artin(gen_from_params(s)) == (True, True)
