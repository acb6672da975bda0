"""Pure 3-braid blocks and the hyperbolicity classification of their
closures.

A pure 3-braid is stored as block exponents: ``beta = prod_i sigma1^(2 e_i)
sigma2^(2 f_i)`` followed by ``(sigma1 sigma2 sigma1)^(2 e)`` (the full-twist
power, central in B3).  The closure is hyperbolic unless one of the torus /
splittable / connected-sum clauses fires; clause codes name the theorem
clause that applied.
"""

from __future__ import annotations

import re
from typing import Iterable, NamedTuple

from .words import _clip, cyclic_reduce, parse_int, reduce_word

HYPERBOLIC = "Hyperbolic"
ESSENTIAL_TORUS = "EssentialTorus"
SPLITTABLE = "Splittable"
CONNECTED_SUM = "ConnectedSum"


class BraidError(ValueError):
    pass


class PureBraid(NamedTuple):
    blocks: tuple[tuple[int, int], ...] = ()
    twist: int = 0


class BraidClass(NamedTuple):
    """Classification of a closed pure 3-braid; ``clauses`` lists every
    theorem clause that matched, first one deciding the tag."""

    tag: str
    clauses: tuple[str, ...] = ()

    def __str__(self) -> str:
        return f"{self.tag} {','.join(self.clauses)}".strip()


def _cyclic_blocks(blocks: Iterable[tuple[int, int]]) -> tuple[tuple[int, int], ...]:
    """Canonical block list of the *closure*: the cyclic canonical form of
    the block word in sigma1^2 (generator 1) and sigma2^2 (generator 2), so
    zero runs are also merged across the wrap-around, which is a conjugation
    of the braid."""
    word = reduce_word((gen, exp) for e, f in blocks for gen, exp in ((1, e), (2, f)))
    syls = cyclic_reduce(word).syllables
    if len(syls) == 1:
        gen, exp = syls[0]
        return ((exp, 0),) if gen == 1 else ((0, exp),)
    # generator 1 sorts first, so the least rotation starts at a sigma1 run
    return tuple((syls[i][1], syls[i + 1][1]) for i in range(0, len(syls), 2))


def classify(b: PureBraid) -> BraidClass:
    """Decide the closure's type: hyperbolic unless a torus, splittable or
    connected-sum clause applies.

    The braid is first put in cyclic normal form (zero exponents merged
    away, including around the closure), so the answer is invariant under
    block rotation.  Overlapping clauses are resolved by fixed priority:
    splittable, then essential torus, then connected sum; every matching
    clause is recorded, tag-deciding clause first.
    """
    blocks = _cyclic_blocks(b.blocks)
    e = b.twist
    n = len(blocks)
    if n == 0:
        if e == 0:
            return BraidClass(SPLITTABLE, ("Thm4.6-ii",))
        # closed full-twist powers are torus links; both all-blocks clauses
        # hold vacuously
        return BraidClass(ESSENTIAL_TORUS, ("Thm4.6-iii", "Thm4.6-iv"))
    if n == 1:
        e1, f1 = blocks[0]
        if e1 == 0 or f1 == 0:
            if e == 0:
                return BraidClass(SPLITTABLE, ("Thm4.2-i", "Thm4.6-ii"))
            return BraidClass(ESSENTIAL_TORUS, ("Thm4.2-i",))
        if e1 == f1 and abs(e1) == 1:
            clauses = ["Thm4.2-ii"]
            if e == 0:
                clauses.append("Thm4.2-iii")
            return BraidClass(ESSENTIAL_TORUS, tuple(clauses))
        if e == 0:
            return BraidClass(CONNECTED_SUM, ("Thm4.2-iii",))
        return BraidClass(HYPERBOLIC)
    if all(block == (1, 1) for block in blocks):
        return BraidClass(ESSENTIAL_TORUS, ("Thm4.6-iii",))
    if all(block == (-1, -1) for block in blocks):
        return BraidClass(ESSENTIAL_TORUS, ("Thm4.6-iv",))
    return BraidClass(HYPERBOLIC)


def parse_blocks(text: str) -> tuple[tuple[int, int], ...]:
    """Parse the block format ``"e1,f1;e2,f2;..."``; empty text means no
    blocks."""
    stripped = text.strip()
    if not stripped:
        return ()
    blocks = []
    for part in stripped.split(";"):
        pieces = part.split(",")
        if len(pieces) != 2:
            raise BraidError(f"bad block {_clip(part)}; expected e,f")
        try:
            blocks.append((parse_int(pieces[0]), parse_int(pieces[1])))
        except ValueError:
            raise BraidError(f"bad block {_clip(part)}; expected integers") from None
    return tuple(blocks)


def format_blocks(blocks: Iterable[tuple[int, int]]) -> str:
    return ";".join(f"{e},{f}" for e, f in blocks)


_BRAID_SYL_RE = re.compile(r"s([12])(?:\^(-?\d+))?\Z", re.ASCII)
# A parsed word has one letter per unit of exponent, so the exponents are
# summed and checked before any letter is built.
MAX_BRAID_LETTERS = 100_000


def parse_braid_word(text: str) -> tuple[int, ...]:
    """Parse braid words like ``"s1*s2^-1*s1"`` into signed letters."""
    stripped = text.strip()
    if stripped == "1":
        return ()
    syllables: list[tuple[int, int]] = []
    for chunk in stripped.split("*"):
        token = chunk.strip()
        m = _BRAID_SYL_RE.match(token)
        if not m:
            raise BraidError(f"expected s1 or s2 syllable, got {_clip(token)}")
        gen = parse_int(m.group(1))
        try:
            exp = parse_int(m.group(2) or "1")
        except ValueError:
            raise BraidError(f"exponent with too many digits in syllable {len(syllables) + 1}") from None
        syllables.append((gen if exp > 0 else -gen, abs(exp)))
    total = sum(count for _, count in syllables)
    if total > MAX_BRAID_LETTERS:
        raise BraidError(f"braid word has {total} letters, above the limit {MAX_BRAID_LETTERS}")
    return tuple(letter for letter, count in syllables for _ in range(count))
