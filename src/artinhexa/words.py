"""Exact algebra of reduced words in a finitely generated free group.

Words are kept in syllable (run-length) form: a sequence of
``(generator, exponent)`` pairs with nonzero exponents and distinct adjacent
generators.  Generators are numbered from 1.  All values are immutable and
every operation is a pure function, so everything here is safe to use from
many threads without synchronization.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable

Syllable = tuple[int, int]


class WordError(ValueError):
    """Malformed word data: bad generator index or zero exponent."""


class WordSyntaxError(WordError):
    """Unparsable word text; ``position`` is the 0-based offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def _clip(text: str, limit: int = 40) -> str:
    """``repr(text)`` cut after ``limit`` characters, for error messages
    that echo their input."""
    shown = repr(text[: limit + 1])
    return shown if len(shown) <= limit + 2 else shown[: limit + 1] + "..."


def _reduce_syllables(pairs: Iterable[Syllable]) -> tuple[Syllable, ...]:
    stack: list[Syllable] = []
    for gen, exp in pairs:
        if exp == 0:
            continue
        if stack and stack[-1][0] == gen:
            merged = stack[-1][1] + exp
            stack.pop()
            if merged:
                stack.append((gen, merged))
        else:
            stack.append((gen, exp))
    return tuple(stack)


@dataclass(frozen=True, slots=True)
class Word:
    """A freely reduced word.  Construct via :func:`reduce_word` or the
    parser; the constructor only checks the reducedness invariant."""

    syllables: tuple[Syllable, ...] = ()

    def __post_init__(self):
        prev = 0
        for gen, exp in self.syllables:
            if gen < 1:
                raise WordError(f"generator index {gen} out of range")
            if exp == 0:
                raise WordError(f"zero exponent on generator {gen}")
            if gen == prev:
                raise WordError(f"unreduced word: repeated generator {gen}")
            prev = gen

    def __mul__(self, other: "Word") -> "Word":
        return concat(self, other)

    def __invert__(self) -> "Word":
        return invert(self)

    def __pow__(self, k: int) -> "Word":
        return power(self, k)

    def __bool__(self) -> bool:
        return bool(self.syllables)

    def __str__(self) -> str:
        return serialize_word(self)

    def __len__(self) -> int:
        """Letter length, counting each generator with multiplicity."""
        return sum(abs(exp) for _, exp in self.syllables)

    def max_generator(self) -> int:
        return max((gen for gen, _ in self.syllables), default=0)


IDENTITY = Word()

_new = object.__new__
_set_syllables = Word.syllables.__set__


def _word(syllables: tuple[Syllable, ...]) -> Word:
    """Wrap syllables already known to be freely reduced (results of
    :func:`_reduce_syllables`, inverses, rotations of cyclically reduced
    words), skipping the validation the public constructor runs."""
    w = _new(Word)
    _set_syllables(w, syllables)
    return w


def generator(index: int, exp: int = 1) -> Word:
    if exp == 0:
        return IDENTITY
    return Word(((index, exp),))


def reduce_word(pairs: Iterable[Syllable]) -> Word:
    """Freely reduce a raw syllable sequence, dropping exponent-0 pairs.
    Idempotent: ``reduce_word(w.syllables) == w`` for any :class:`Word` ``w``."""
    pairs = tuple(pairs)
    for gen, _ in pairs:
        if gen < 1:
            raise WordError(f"generator index {gen} out of range")
    return Word(_reduce_syllables(pairs))


def concat(*words: Word) -> Word:
    """Reduced product of words, left to right."""
    pairs: list[Syllable] = []
    for w in words:
        pairs.extend(w.syllables)
    return _word(_reduce_syllables(pairs))


def invert(w: Word) -> Word:
    return _word(tuple((gen, -exp) for gen, exp in reversed(w.syllables)))


def power(w: Word, k: int) -> Word:
    """``w`` multiplied by itself ``k`` times (``invert(w)`` for ``k < 0``),
    in one reduction pass over the repeated syllables."""
    if len(w.syllables) == 1:
        gen, exp = w.syllables[0]
        return _word(((gen, exp * k),)) if k else IDENTITY
    if k < 0:
        w, k = invert(w), -k
    return _word(_reduce_syllables(w.syllables * k))


def _join_cancellation(
    left: tuple[Syllable, ...], start: int, stop: int, right: tuple[Syllable, ...]
) -> int:
    """Letters cancelled when the reduced words ``left[start:stop]`` and
    ``right`` are multiplied: free reduction acts only at the join, so
    ``len(concat(a, b)) == len(a) + len(b) - _join_cancellation(a.syllables,
    0, len(a.syllables), b.syllables)``."""
    cancelled = 0
    i = stop - 1
    for gen, exp in right:
        if i < start or left[i][0] != gen:
            break
        merged = left[i][1] + exp
        if merged:
            return cancelled + abs(left[i][1]) + abs(exp) - abs(merged)
        cancelled += 2 * abs(exp)
        i -= 1
    return cancelled


def abelianize(w: Word, rank: int) -> tuple[int, ...]:
    """Exponent-sum vector of length ``rank``."""
    sums = [0] * rank
    for gen, exp in w.syllables:
        if gen > rank:
            raise WordError(f"generator index {gen} exceeds rank {rank}")
        sums[gen - 1] += exp
    return tuple(sums)


def _least_offset(syls: tuple) -> int:
    """Offset of the first lexicographically least rotation of ``syls`` (of
    any comparable syllables).  Only an offset holding a least syllable can
    start it, so rotations are compared only when it occurs more than once."""
    least = min(syls, default=None)
    if syls.count(least) == 1:
        return syls.index(least)
    starts = [i for i, s in enumerate(syls) if s == least]
    return min(starts, key=lambda i: syls[i:] + syls[:i], default=0)


def cyclic_reduce(w: Word) -> tuple[Word, Word]:
    """Split ``w`` into its cyclic canonical form and a conjugator.

    The canonical form of a conjugacy class is the lexicographically least
    rotation (ordering syllables by generator, then exponent) of a
    cyclically reduced word.  Returns ``(c, t)`` with ``w == t^-1 * c * t``
    exactly (right conjugation, ``w == conjugate(c, t)``): the rotation
    offset of the canonicalization is folded into ``t``.  A word that is
    already canonical comes back as ``(w, IDENTITY)``, the same object
    ``w``, and nothing is copied.
    """
    syls = w.syllables
    conj: list[Syllable] = []
    while len(syls) >= 2 and syls[0][0] == syls[-1][0]:
        gen, last_exp = syls[-1]
        merged = syls[0][1] + last_exp
        syls = ((gen, merged),) + syls[1:-1] if merged else syls[1:-1]
        conj.insert(0, (gen, last_exp))
    # the first least rotation; its offset is folded into the conjugator so
    # the exact identity w == conjugate(canonical, t) survives
    # canonicalization.  The core is cyclically reduced and the conjugator is
    # a rotation tail of it followed by a suffix of w, so both are reduced.
    offset = _least_offset(syls)
    if not (offset or conj):
        return w, IDENTITY
    canonical = _word(syls[offset:] + syls[:offset])
    return canonical, _word((syls[offset:] if offset else ()) + tuple(conj))


def parse_int(text: str) -> int:
    """``int(text)`` on a sign, ASCII digits and spaces only; anything else,
    or more digits than ``int`` reads, raises ``ValueError``."""
    try:
        if text.isascii() and "_" not in text:
            return int(text)
    except ValueError:
        pass
    raise ValueError(f"invalid integer {_clip(text)}")


_SYLLABLE_RE = re.compile(r"x(\d+)(?:\^(-?\d+))?\Z", re.ASCII)


def parse_word(text: str) -> Word:
    """Parse the word grammar ``WORD := "1" | SYL ("*" SYL)*`` with
    ``SYL := "x" INT ["^" NONZERO-INT]``.  The result is freely reduced."""
    stripped = text.strip()
    if stripped == "1":
        return IDENTITY
    if not stripped:
        raise WordSyntaxError("empty word text", 0)
    pairs: list[Syllable] = []
    pos = 0
    for chunk in text.split("*"):
        token = chunk.strip()
        at = pos + chunk.index(token) if token else pos
        m = _SYLLABLE_RE.match(token)
        if not m:
            raise WordSyntaxError(f"expected syllable, got {_clip(token)}", at)
        try:
            gen = parse_int(m.group(1))
            exp = parse_int(m.group(2) or "1")
        except ValueError:
            raise WordSyntaxError("integer with too many digits", at) from None
        if gen < 1:
            raise WordSyntaxError(f"generator index {gen} out of range", at)
        if exp == 0:
            raise WordSyntaxError("exponent 0 is not allowed", at)
        pairs.append((gen, exp))
        pos += len(chunk) + 1
    return Word(_reduce_syllables(pairs))


def serialize_word(w: Word) -> str:
    """Canonical text form; always reduced, ``^1`` omitted, ``1`` for the
    identity."""
    if not w.syllables:
        return "1"
    parts = []
    for gen, exp in w.syllables:
        parts.append(f"x{gen}" if exp == 1 else f"x{gen}^{exp}")
    return "*".join(parts)
