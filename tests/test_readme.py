import doctest
import itertools
from pathlib import Path

from artinhexa.artin import gen_from_hex, linking_matrix
from artinhexa.hexa import SLOTS, HexFilling, HexSymmetry, instantiate_row, parse_cell, to_surgery
from artinhexa.tables import load_symmetries, load_table
from artinhexa.triviality import abelian_invariants, replay, simplify

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_tour_runs_as_a_doctest():
    result = doctest.testfile(str(README), module_relative=False)
    assert result.attempted > 0
    assert result.failed == 0


def det3(m):
    (a, b, c), (d, e, f), (g, h, i) = m
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def surgery_det(h):
    """``det`` of the linking matrix of the filling's surgery: plus or minus
    the order of the double branched cover's first homology."""
    return det3(linking_matrix(to_surgery(h)))


def test_symmetry_table_is_the_group_preserving_the_surgery_determinant():
    # README *Data files*: surgery_det is a cubic in the six slots.  In one
    # slot, its second differences from 0 and from 1 are affine in the other
    # five; zero on {0,1}^5, they are zero everywhere, and the cubic is then
    # affine in that slot.  So surgery_det is multilinear, and so are its
    # composites with a slot permutation and with the mirror; and two
    # multilinear polynomials agree everywhere when they agree on {0,1}^6
    cube = [HexFilling(*h) for h in itertools.product((0, 1), repeat=6)]
    for i in range(6):
        for rest in itertools.product((0, 1), repeat=5):
            d = [surgery_det(HexFilling(*rest[:i], v, *rest[i:])) for v in range(4)]
            assert d[2] - 2 * d[1] + d[0] == d[3] - 2 * d[2] + d[1] == 0
    det = {h: surgery_det(h) for h in cube}
    assert all(surgery_det(h.mirror()) == -det[h] for h in cube)
    preserving, negating = set(), set()
    for sources in itertools.permutations(SLOTS):
        images = [det[HexSymmetry(0, sources).apply(h)] for h in cube]
        if images == [det[h] for h in cube]:
            preserving.add(sources)
        if images == [-det[h] for h in cube]:
            negating.add(sources)
    assert preserving == {sym.sources for sym in load_symmetries()}
    assert len(preserving) == 24 and not negating


# For symmetry row i, LINKING_FORM_BASES[i - 1] is a U in GL(3, Z) with
# U^T L(h) U == L(sigma h) for every filling h, where L is the linking
# matrix of the filling's surgery; rows 1 and 11 are signed permutations
LINKING_FORM_BASES = (
    ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
    ((0, 1, 1), (1, 0, 0), (-1, -1, 0)),
    ((0, 1, 0), (0, -1, -1), (1, 1, 1)),
    ((1, 1, 1), (-1, -1, 0), (0, 1, 0)),
    ((0, 1, 1), (0, 0, -1), (-1, -1, 0)),
    ((1, 1, 0), (-1, 0, 0), (0, -1, -1)),
    ((0, 1, 0), (-1, -1, 0), (1, 1, 1)),
    ((1, 1, 1), (0, -1, -1), (0, 1, 0)),
    ((1, 1, 0), (0, 0, 1), (0, -1, -1)),
    ((1, 0, 0), (-1, -1, -1), (0, 0, 1)),
    ((0, 0, 1), (0, 1, 0), (1, 0, 0)),
    ((0, 0, 1), (-1, -1, -1), (1, 0, 0)),
    ((1, 0, 0), (0, 1, 1), (0, 0, -1)),
    ((0, 1, 0), (1, 0, 0), (-1, -1, -1)),
    ((0, 1, 1), (0, -1, 0), (1, 1, 0)),
    ((1, 1, 0), (-1, -1, -1), (0, 1, 1)),
    ((0, 1, 0), (0, 0, 1), (-1, -1, -1)),
    ((1, 1, 1), (-1, 0, 0), (0, -1, 0)),
    ((0, 1, 1), (-1, -1, -1), (1, 1, 0)),
    ((1, 1, 0), (0, -1, 0), (0, 1, 1)),
    ((1, 1, 1), (0, 0, -1), (0, -1, 0)),
    ((1, 0, 0), (-1, -1, 0), (0, 0, -1)),
    ((0, 0, 1), (0, -1, -1), (-1, 0, 0)),
    ((0, 0, 1), (1, 1, 0), (-1, 0, 0)),
)


def congruent(u, m):
    """``u^T m u`` for 3x3 matrices."""
    return tuple(
        tuple(sum(u[k][i] * m[k][l] * u[l][j] for k in range(3) for l in range(3)) for j in range(3))
        for i in range(3)
    )


def test_every_symmetry_row_preserves_the_linking_form():
    # README *Data files*: h -> L(h) is linear, and so is h -> U^T L(h) U,
    # so agreeing on the six unit fillings they agree on every filling.
    # Among the 6960 matrices with entries in -1..1 and det +-1, U and -U
    # are the only ones that do
    units = [HexFilling(*(int(i == j) for j in range(6))) for i in range(6)]

    def forms(u):
        return tuple(congruent(u, linking_matrix(to_surgery(h))) for h in units)

    candidates = [
        m for m in (tuple(zip(*[iter(e)] * 3)) for e in itertools.product((-1, 0, 1), repeat=9))
        if abs(det3(m)) == 1
    ]
    assert len(candidates) == 6960
    solutions = {}
    for u in candidates:
        solutions.setdefault(forms(u), set()).add(u)
    symmetries = load_symmetries()
    assert len(symmetries) == len(LINKING_FORM_BASES) == 24
    for sym, u in zip(symmetries, LINKING_FORM_BASES):
        images = tuple(linking_matrix(to_surgery(sym.apply(h))) for h in units)
        minus_u = tuple(tuple(-v for v in row) for row in u)
        assert forms(u) == images
        assert solutions[images] == {u, minus_u}, sym.index


def test_findings_table3_row36_one_digit_slip():
    # README *Findings*: the bundled table 3 row 36 has determinant
    # -4*alpha-2 for every alpha, and -1 throughout with beta = 2
    for alpha in range(-5, 6):
        bundled = HexFilling(alpha, 1, -3, -1, -2, 1)
        assert [h for _, h in instantiate_row(row36(), {"alpha": alpha})] == [bundled]
        assert det3(linking_matrix(to_surgery(bundled))) == -4 * alpha - 2
        beta2 = HexFilling(alpha, 2, -3, -1, -2, 1)
        assert det3(linking_matrix(to_surgery(beta2))) == -1


# S3 as the permutations of (0, 1, 2); p[i] is the image of i
IDENTITY = (0, 1, 2)
S3 = tuple(itertools.permutations(IDENTITY))
# images of x1, x2, x3; x1 is a 3-cycle and x2 a transposition, so they generate S3
STORED_S3_IMAGES = ((1, 2, 0), (0, 2, 1), (2, 0, 1))


def then(p, q):
    """The permutation ``p`` followed by ``q``."""
    return tuple(q[i] for i in p)


def s3_image(word, images):
    image = IDENTITY
    for g, e in word.syllables:
        step = images[g - 1] if e > 0 else tuple(sorted(IDENTITY, key=images[g - 1].__getitem__))
        for _ in range(abs(e) % 6):  # every element of S3 has order dividing 6
            image = then(image, step)
    return image


def kills_every_relator(pres, images):
    return all(s3_image(r, images) == IDENTITY for r in pres.relators)


def row36(beta=None):
    """Table 3 row 36 as bundled, or with its beta cell ``1`` put as ``beta``."""
    (row,) = [row for row in load_table(3) if row.row == 36]
    if beta is None:
        return row
    k = row.column_order.index("beta")
    assert row.cells[k] == parse_cell("1")
    return row._replace(cells=(*row.cells[:k], parse_cell(beta), *row.cells[k + 1 :]))


def test_findings_table3_row36_maps_onto_s3_exactly_when_3_divides_4alpha_plus_2():
    # README *Findings*: at alpha in {-5, -2, 1, 4} the stored images kill
    # every relator, and x1, x2 do not commute, so the group maps onto S3
    # and is not cyclic; at the other alpha no triple with a noncommuting
    # pair does
    x1, x2, _ = STORED_S3_IMAGES
    assert then(x1, x2) != then(x2, x1)
    for alpha in range(-5, 6):
        ((_, filling),) = instantiate_row(row36(), {"alpha": alpha})
        pres = gen_from_hex(filling)
        if (4 * alpha + 2) % 3 == 0:
            assert alpha in (-5, -2, 1, 4)
            assert kills_every_relator(pres, STORED_S3_IMAGES), alpha
        else:
            for images in itertools.product(S3, repeat=3):
                if any(then(a, b) != then(b, a) for a, b in itertools.combinations(images, 2)):
                    assert not kills_every_relator(pres, images), (alpha, images)


def test_findings_table3_row36_with_beta_2_is_certified_trivial():
    # README *Findings*: with beta = 2 each identity image is Trivial in 5
    # moves that replay to the empty presentation, and every symmetry image
    # has divisors 1,1,1; some of those stall as Unknown, so only their
    # divisors are checked
    symmetries = load_symmetries()
    assert len(symmetries) == 24
    for alpha in range(-5, 6):
        ((_, filling),) = instantiate_row(row36("2"), {"alpha": alpha})
        assert filling == HexFilling(alpha, 2, -3, -1, -2, 1)
        pres = gen_from_hex(filling)
        verdict = simplify(pres)
        assert (verdict.tag, len(verdict.moves)) == ("Trivial", 5), alpha
        assert replay(pres, verdict.moves) == (0, ())
        for sym in symmetries:
            assert abelian_invariants(gen_from_hex(sym.apply(filling))) == (1, 1, 1), (alpha, sym.index)
