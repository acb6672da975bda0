"""Exact algebra of reduced words in a finitely generated free group.

Words are kept in syllable (run-length) form: a sequence of
``(generator, exponent)`` pairs with nonzero exponents and distinct adjacent
generators.  Generators are numbered from 1.  All values are immutable and
every public operation is a pure function, so everything here is safe to use
from many threads without synchronization.  The one exception is the private
``_join``, which extends the list it is given in place; its callers own that
list.
"""

from __future__ import annotations

import re
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


def _frozen(self, name, value=None):
    """``__setattr__`` and ``__delattr__`` of ``Word``, the one slotted record."""
    raise AttributeError(f"cannot assign to or delete field {name!r}")


class Word:
    """A freely reduced word.  Construct via :func:`reduce_word` or the
    parser; the constructor only checks the reducedness invariant.  Frozen,
    and equal only to another ``Word``, never to a bare tuple."""

    __slots__ = ("syllables",)

    def __init__(self, syllables: tuple[Syllable, ...] = ()):
        prev = 0
        for gen, exp in syllables:
            if gen < 1:
                raise WordError(f"generator index {gen} out of range")
            if exp == 0:
                raise WordError(f"zero exponent on generator {gen}")
            if gen == prev:
                raise WordError(f"unreduced word: repeated generator {gen}")
            prev = gen
        _set_syllables(self, syllables)

    __setattr__ = __delattr__ = _frozen

    def __eq__(self, other):
        return self.syllables == other.syllables if other.__class__ is Word else NotImplemented

    def __hash__(self) -> int:
        return hash((self.syllables,))

    def __repr__(self) -> str:
        return f"Word(syllables={self.syllables!r})"

    def __reduce__(self):
        return Word, (self.syllables,)

    def __mul__(self, other: "Word") -> "Word":
        return concat(self, other)

    def __bool__(self) -> bool:
        return bool(self.syllables)

    def __str__(self) -> str:
        return serialize_word(self)

    def __len__(self) -> int:
        """Letter length, counting each generator with multiplicity."""
        return sum(abs(exp) for _, exp in self.syllables)

    def max_generator(self) -> int:
        # syllables order by generator first
        return max(self.syllables)[0] if self.syllables else 0


_new = object.__new__
_set_syllables = Word.syllables.__set__

IDENTITY = Word()


def _word(syllables: tuple[Syllable, ...]) -> Word:
    """Wrap syllables already known to be freely reduced (results of
    :func:`_reduce_syllables`, products built by :func:`_join`, inverses,
    rotations of cyclically reduced words), skipping the validation the
    public constructor runs."""
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


def _join(acc: list[Syllable], syllables: tuple[Syllable, ...]) -> None:
    """Multiply the reduced syllable list ``acc``, in place, by the reduced
    ``syllables``.  Free reduction acts only at the join: the matching ends
    cancel, at most one syllable merges, and the rest is one slice."""
    i, n = 0, len(syllables)
    while acc and i < n:
        gen, exp = syllables[i]
        last_gen, last_exp = acc[-1]
        if last_gen != gen:
            break
        acc.pop()
        i += 1
        if last_exp + exp:
            # the next syllable has another generator: the join is done
            acc.append((gen, last_exp + exp))
            break
    acc.extend(syllables[i:] if i else syllables)


def concat(*words: Word) -> Word:
    """Reduced product of words, left to right."""
    acc: list[Syllable] = []
    for w in words:
        _join(acc, w.syllables)
    return _word(tuple(acc))


def invert(w: Word) -> Word:
    return _word(tuple([(gen, -exp) for gen, exp in reversed(w.syllables)]))


def _peel(syls: tuple[Syllable, ...]) -> tuple[int, int]:
    """``(lo, hi)`` with ``syls[:lo]`` the inverse of ``syls[hi + 1:]`` and
    ``syls[lo]``, ``syls[hi]`` not mutually inverse: a reduced word is
    ``u c u^-1`` with ``u = syls[:lo]`` and ``c = syls[lo : hi + 1]``
    cyclically reduced up to a merge of its two ends."""
    lo, hi = 0, len(syls) - 1
    while lo < hi and syls[lo][0] == syls[hi][0] and syls[lo][1] == -syls[hi][1]:
        lo += 1
        hi -= 1
    return lo, hi


def power(w: Word, k: int) -> Word:
    """``w`` multiplied by itself ``k`` times (``invert(w)`` ``-k`` times for
    ``k < 0``).  With ``w = u c u^-1`` and ``c`` cyclically reduced, the
    result is ``u c^k u^-1``, built by tuple repetition; where the two ends
    of ``c`` have one generator, their merged syllable repeats with the
    middle.  The cost is linear in the syllables of the result, not in
    ``k``."""
    if k < 0:
        w, k = invert(w), -k
    if k == 1 or not w.syllables:
        return w
    if not k:
        return IDENTITY
    syls = w.syllables
    lo, hi = _peel(syls)
    if lo == hi:
        gen, exp = syls[lo]
        return _word(syls[:lo] + ((gen, exp * k),) + syls[hi + 1 :])
    gen, exp = syls[lo]
    if gen != syls[hi][0]:
        return _word(syls[:lo] + syls[lo : hi + 1] * k + syls[hi + 1 :])
    # c = (gen, a) m (gen, b) with m non-empty and a + b != 0, so
    # c^k = (gen, a) m [(gen, a + b) m]^(k-1) (gen, b)
    merged = ((gen, exp + syls[hi][1]),) + syls[lo + 1 : hi]
    return _word(syls[:hi] + merged * (k - 1) + syls[hi:])


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
    any comparable syllables), in at most ``4 * len(syls)`` comparisons.
    Two candidates ``i < j`` are kept, every other start below ``j`` being
    ruled out.  Where their rotations first differ, ``k`` places in, the
    start of the larger one and the ``k`` starts after it are ruled out:
    each is beaten by the start as far into the smaller one."""
    n = len(syls)
    i, j = 0, 1
    while j < n:
        k = 0
        while syls[(i + k) % n] == syls[(j + k) % n]:
            k += 1
            if k == n:  # period j - i: every start repeats one in i..j-1
                return i
        if syls[(i + k) % n] < syls[(j + k) % n]:
            j += k + 1
        else:
            i = max(j, i + k + 1)
            j = i + 1
    return i


def cyclic_reduce(w: Word) -> Word:
    """The cyclic canonical form of ``w``: the lexicographically least
    rotation (ordering syllables by generator, then exponent) of its
    cyclically reduced core.  A cyclically reduced conjugate is unique up
    to rotation, so two words are conjugate exactly when their forms are
    equal.  A word that is already canonical comes back as the same object
    ``w``, and nothing is copied."""
    syls = w.syllables
    lo, hi = _peel(syls)
    if lo < hi and syls[lo][0] == syls[hi][0]:
        # the ends merge into one syllable; syls[hi - 1], now before it
        # cyclically, has another generator, so the peel ends here
        gen, exp = syls[lo]
        core = ((gen, exp + syls[hi][1]),) + syls[lo + 1 : hi]
    else:
        core = syls[lo : hi + 1] if lo else syls
    # a rotation of the cyclically reduced core is reduced
    offset = _least_offset(core)
    if not offset and core is syls:
        return w
    return _word(core[offset:] + core[:offset])


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
