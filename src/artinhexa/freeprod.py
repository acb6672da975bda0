"""Normal forms and conjugacy in the free product Z2<D> * Z3<y>.

Elements are alternating sequences of syllables from the two factors.  A
syllable is encoded as a small int: ``0`` for the involution D, ``1`` for y,
``2`` for y^2.  The encoding doubles as the canonical syllable order
D < y < y^2 used for cyclic rotation.

The braid group B3 maps onto this group by ``sigma1 -> y^2*D`` and
``sigma2 -> D*y^2`` (the quotient killing the center); :func:`rho` computes
images of braid words under that map.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .words import _least_offset

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

    def __invert__(self) -> "FPWord":
        return fp_invert(self)

    def __pow__(self, k: int) -> "FPWord":
        return fp_power(self, k)

    def __bool__(self) -> bool:
        return bool(self.syllables)

    def __len__(self) -> int:
        return len(self.syllables)

    def __str__(self) -> str:
        return serialize_fp_word(self)


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


def fp_cyclic_reduce(w: FPWord) -> FPWord:
    """Cyclic normal form: merge wrap-around same-factor syllables, then
    rotate to the canonical (least) representative."""
    syls = w.syllables
    while len(syls) >= 2 and (syls[0] == D_SYL) == (syls[-1] == D_SYL):
        merged = 0 if syls[0] == D_SYL else (syls[0] + syls[-1]) % 3  # D*D = 1
        syls = (merged,) + syls[1:-1] if merged else syls[1:-1]
    offset = _least_offset(syls)
    return FPWord(syls[offset:] + syls[:offset])


# images of sigma1, sigma2 and their inverses
_RHO = {
    1: (Y2_SYL, D_SYL),   # y^2*D
    -1: (D_SYL, Y_SYL),   # (y^2*D)^-1 = D*y
    2: (D_SYL, Y2_SYL),   # D*y^2
    -2: (Y_SYL, D_SYL),   # (D*y^2)^-1 = y*D
}


def rho(braid_letters: Iterable[int]) -> FPWord:
    """Image of a braid word under the epimorphism B3 -> Z2 * Z3.

    ``braid_letters`` are signed generator indices: ``1``/``-1`` for
    sigma1^{+-1}, ``2``/``-2`` for sigma2^{+-1}.  Satisfies the braid
    relation (rho(s1 s2 s1) == rho(s2 s1 s2)) and kills the full twist.
    """
    stack: list[int] = []
    for letter in braid_letters:
        try:
            image = _RHO[letter]
        except KeyError:
            raise FPWordError(f"bad braid letter {letter}; use +-1, +-2") from None
        for syl in image:
            _push(stack, syl)
    return FPWord(tuple(stack))


@dataclass(frozen=True, slots=True)
class EvenPowerForm:
    """Witness that a cyclic form is ``(y^2*D)^(2k)`` or ``(D*y)^(2k)``."""

    k: int
    base: FPWord

    def __str__(self) -> str:
        return f"({serialize_fp_word(self.base)})^{2 * self.k}"


def fp_is_even_power_form(w: FPWord) -> EvenPowerForm | None:
    """Detect whether the cyclic normal form of ``w`` is an even power
    ``(y^2*D)^(2k)`` or ``(D*y)^(2k)`` with ``k >= 1``; returns the witness
    or None."""
    syls = fp_cyclic_reduce(w).syllables
    n = len(syls)
    if n < 4 or n % 4:
        return None
    # canonical rotation of an alternating cycle starts with D
    if any(s != D_SYL for s in syls[0::2]):
        return None
    ys = set(syls[1::2])
    if len(ys) != 1:
        return None
    base = FPWord((Y2_SYL, D_SYL)) if ys == {Y2_SYL} else FPWord((D_SYL, Y_SYL))
    return EvenPowerForm(n // 4, base)


def serialize_fp_word(w: FPWord) -> str:
    if not w.syllables:
        return "1"
    return "*".join(_NAMES[s] for s in w.syllables)
