"""Artin 3-presentations from surgery parameters and hexatangle fillings.

Two generators feed everything downstream: the presentation attached to an
integrally framed small closed pure 3-braid, and its specialization to a
hexatangle filling through the surgery correspondence.  Both identities a
presentation can satisfy in the free group are checked exactly:

    W:  prod_i r_i^-1 x_i r_i  ==  x_1 ... x_n
    F:  prod_i r_i x_i r_i^-1  ==  x_1 ... x_n
"""

from __future__ import annotations

from dataclasses import dataclass

from .hexa import HexFilling, SurgeryParams, to_surgery
from .words import Word, _join, concat, generator, invert, power, serialize_word


class PresentationError(ValueError):
    pass


@dataclass(frozen=True)
class Presentation:
    rank: int
    relators: tuple[Word, ...]

    def __post_init__(self):
        if self.rank < 0:
            raise PresentationError(f"rank {self.rank} is negative")
        for r in self.relators:
            if r.max_generator() > self.rank:
                raise PresentationError(
                    f"relator {serialize_word(r)} exceeds rank {self.rank}"
                )

    def serialized_relators(self) -> tuple[str, ...]:
        return tuple(serialize_word(r) for r in self.relators)


@dataclass(frozen=True, slots=True)
class ArtinCheck:
    w: bool
    f: bool


_X1 = generator(1)
_X2 = generator(2)
_X3 = generator(3)
_X23 = concat(_X2, _X3)
_X123 = concat(_X1, _X2, _X3)
# Every relator below has at most |e1|*(4|f1|+2) + 2|f1| + 3|e| + 1
# syllables; three times that is checked against this cap before any word
# is built.
MAX_PRESENTATION_SYLLABLES = 2_000_000


def check_size(s: SurgeryParams) -> None:
    """Raise ``PresentationError`` when the bound on the syllable count of
    ``gen_from_params(s)`` exceeds ``MAX_PRESENTATION_SYLLABLES``."""
    e, e1, f1 = abs(s.e), abs(s.e1), abs(s.f1)
    bound = 3 * (e1 * (4 * f1 + 2) + 2 * f1 + 3 * e + 1)
    if bound > MAX_PRESENTATION_SYLLABLES:
        raise PresentationError(
            f"presentation may have {bound} syllables, above the limit {MAX_PRESENTATION_SYLLABLES}"
        )


def linking_matrix(s: SurgeryParams) -> tuple[tuple[int, int, int], ...]:
    """The exponent-sum matrix of ``gen_from_params(s)``, row i the
    abelianized ``r_i``, built without any word.  ``K`` abelianizes to
    (1, 1, 0), so the framings fall on the diagonal and the linking
    numbers off it; equal relators have equal matrices."""
    e, e1, f1 = s.e, s.e1, s.f1
    return ((s.m, e + e1, e), (e + e1, s.n, e + f1), (e, e + f1, s.p))


def gen_from_params(s: SurgeryParams) -> Presentation:
    """Presentation of the surgered small closed pure 3-braid.

    The middle block is ``K = x1 (x2 x3)^-f1 x2 (x2 x3)^f1``; relators are

        r1 = x1^(m-e-e1)        K^e1 (x1 x2 x3)^e
        r2 = x2^(n-e-e1-f1) (x2 x3)^f1 K^e1 (x1 x2 x3)^e
        r3 = x3^(p-e-f1)    (x2 x3)^f1      (x1 x2 x3)^e

    Parameters that ``check_size`` refuses raise ``PresentationError``.
    """
    check_size(s)
    x23_f1 = power(_X23, s.f1)
    block = concat(_X1, invert(x23_f1), _X2, x23_f1)
    block_e1 = power(block, s.e1)
    tail = power(_X123, s.e)
    r1 = concat(power(_X1, s.m - s.e - s.e1), block_e1, tail)
    r2 = concat(power(_X2, s.n - s.e - s.e1 - s.f1), x23_f1, block_e1, tail)
    r3 = concat(power(_X3, s.p - s.e - s.f1), x23_f1, tail)
    return Presentation(3, (r1, r2, r3))


def gen_from_hex(h: HexFilling) -> Presentation:
    """Presentation of the double branched cover of the filled hexatangle:
    gen_from_params composed with the surgery correspondence.  The
    exponents collapse to

        r1 = x1^-alpha                 K^-delta (x1 x2 x3)^-eta
        r2 = x2^-beta  (x2 x3)^-gamma  K^-delta (x1 x2 x3)^-eta
        r3 = x3^-epsilon (x2 x3)^-gamma          (x1 x2 x3)^-eta

    with ``K = x1 (x2 x3)^gamma x2 (x2 x3)^-gamma``.
    """
    return gen_from_params(to_surgery(h))


def verify_artin(pres: Presentation) -> ArtinCheck:
    """Evaluate both Artin identities exactly in the free group.

    Both are always computed and reported: the generators here are built to
    satisfy W, while open-book relator sets satisfy F, and conflating the
    two hides real information.
    """
    if len(pres.relators) != pres.rank:
        raise PresentationError(
            f"need {pres.rank} relators to verify, got {len(pres.relators)}"
        )
    target = [(i, 1) for i in range(1, pres.rank + 1)]
    w, f = [], []
    for i, r in enumerate(pres.relators, start=1):
        syls, inv, x = r.syllables, invert(r).syllables, ((i, 1),)
        for part in (inv, x, syls):
            _join(w, part)
        for part in (syls, x, inv):
            _join(f, part)
    return ArtinCheck(w=w == target, f=f == target)
