"""Artin 3-presentations from surgery parameters and hexatangle fillings.

Two generators feed everything downstream: the presentation attached to an
integrally framed small closed pure 3-braid, and its specialization to a
hexatangle filling through the surgery correspondence.  Both identities a
presentation can satisfy in the free group are checked exactly:

    W:  prod_i r_i^-1 x_i r_i  ==  x_1 ... x_n
    F:  prod_i r_i x_i r_i^-1  ==  x_1 ... x_n
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

from .hexa import HexFilling, SurgeryParams, to_surgery
from .words import Word, concat, generator, invert, power, serialize_word


class PresentationError(ValueError):
    pass


class RatGroupWarning(UserWarning):
    """rat_group called on a presentation whose preconditions were not
    certified."""


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

    def __str__(self) -> str:
        return "; ".join(self.serialized_relators())


@dataclass(frozen=True, slots=True)
class ArtinCheck:
    w: bool
    f: bool


_X1 = generator(1)
_X2 = generator(2)
_X3 = generator(3)
_X23 = concat(_X2, _X3)
_X123 = concat(_X1, _X2, _X3)


def gen_from_params(s: SurgeryParams) -> Presentation:
    """Presentation of the surgered small closed pure 3-braid.

    The middle block is ``K = x1 (x2 x3)^-f1 x2 (x2 x3)^f1``; relators are

        r1 = x1^(m-e-e1)        K^e1 (x1 x2 x3)^e
        r2 = x2^(n-e-e1-f1) (x2 x3)^f1 K^e1 (x1 x2 x3)^e
        r3 = x3^(p-e-f1)    (x2 x3)^f1      (x1 x2 x3)^e
    """
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
    target = concat(*(generator(i) for i in range(1, pres.rank + 1)))
    w_parts = []
    f_parts = []
    for i, r in enumerate(pres.relators, start=1):
        x = generator(i)
        r_inv = invert(r)
        w_parts.extend((r_inv, x, r))
        f_parts.extend((r, x, r_inv))
    return ArtinCheck(w=concat(*w_parts) == target, f=concat(*f_parts) == target)


def rat_group(pres: Presentation, certified: bool = False) -> Presentation:
    """Drop the last relator, producing the deficiency-1 presentation.

    The construction is only meaningful on an Artin presentation of the
    trivial group; pass ``certified=True`` once the Artin identity and a
    Trivial verdict are in hand, otherwise a warning (not an error) is
    issued and the presentation is produced anyway.
    """
    if not pres.relators:
        raise PresentationError("no relator to drop")
    if not certified:
        check = verify_artin(pres)
        if not (check.w or check.f):
            warnings.warn(
                "rat_group input satisfies neither Artin identity",
                RatGroupWarning,
                stacklevel=2,
            )
    return Presentation(pres.rank, pres.relators[:-1])
