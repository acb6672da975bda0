"""Normal forms in the free product Z2<D> * Z3<y>.

Elements are alternating sequences of syllables from the two factors.  A
syllable is encoded as a small int: ``0`` for the involution D, ``1`` for y,
``2`` for y^2.

The braid group B3 maps onto this group by ``sigma1 -> y^2*D`` and
``sigma2 -> D*y^2`` (the quotient killing the center); :func:`rho` computes
images of braid words under that map.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

D_SYL = 0
Y_SYL = 1
Y2_SYL = 2

_NAMES = {D_SYL: "D", Y_SYL: "y", Y2_SYL: "y^2"}


class FPWordError(ValueError):
    """Malformed free-product word data or braid letters."""


def _push(stack: list[int], syl: int) -> None:
    stack.append(syl)
    while len(stack) >= 2:
        a, b = stack[-2], stack[-1]
        if a == D_SYL and b == D_SYL:
            del stack[-2:]
        elif a != D_SYL and b != D_SYL:
            k = (a + b) % 3
            del stack[-2:]
            if k:
                stack.append(k)
        else:
            break


@dataclass(frozen=True, slots=True)
class FPWord:
    """Normal-form element of Z2 * Z3: strictly alternating syllables."""

    syllables: tuple[int, ...] = ()

    def __post_init__(self):
        prev = None
        for syl in self.syllables:
            if syl not in (D_SYL, Y_SYL, Y2_SYL):
                raise FPWordError(f"bad syllable code {syl}")
            if prev is not None and (prev == D_SYL) == (syl == D_SYL):
                raise FPWordError("word is not in alternating normal form")
            prev = syl

    def __mul__(self, other: "FPWord") -> "FPWord":
        return fp_concat(self, other)

    def __len__(self) -> int:
        return len(self.syllables)


FP_IDENTITY = FPWord()
D = FPWord((D_SYL,))
Y = FPWord((Y_SYL,))
Y2 = FPWord((Y2_SYL,))


def _inv_syl(syl: int) -> int:
    return syl if syl == D_SYL else 3 - syl


def fp_concat(*words: FPWord) -> FPWord:
    stack: list[int] = []
    for w in words:
        for syl in w.syllables:
            _push(stack, syl)
    return FPWord(tuple(stack))


def fp_invert(w: FPWord) -> FPWord:
    return FPWord(tuple(_inv_syl(s) for s in reversed(w.syllables)))


def fp_power(w: FPWord, k: int) -> FPWord:
    if k < 0:
        w, k = fp_invert(w), -k
    return fp_concat(*([w] * k)) if k else FP_IDENTITY


# images of sigma1, sigma2 and their inverses
_RHO = {
    1: FPWord((Y2_SYL, D_SYL)),   # y^2*D
    -1: FPWord((D_SYL, Y_SYL)),   # (y^2*D)^-1 = D*y
    2: FPWord((D_SYL, Y2_SYL)),   # D*y^2
    -2: FPWord((Y_SYL, D_SYL)),   # (D*y^2)^-1 = y*D
}


def rho(braid_letters: Iterable[int]) -> FPWord:
    """Image of a braid word under the epimorphism B3 -> Z2 * Z3.

    ``braid_letters`` are signed generator indices: ``1``/``-1`` for
    sigma1^{+-1}, ``2``/``-2`` for sigma2^{+-1}.  Satisfies the braid
    relation (rho(s1 s2 s1) == rho(s2 s1 s2)) and kills the full twist.
    """
    try:
        return fp_concat(*(_RHO[letter] for letter in braid_letters))
    except KeyError as exc:
        raise FPWordError(f"bad braid letter {exc.args[0]}; use +-1, +-2") from None


def serialize_fp_word(w: FPWord) -> str:
    if not w.syllables:
        return "1"
    return "*".join(_NAMES[s] for s in w.syllables)
