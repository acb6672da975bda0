"""Triviality certification for presentations: abelian invariants by exact
integer Smith normal form, then a bounded deterministic Tietze-style
simplifier.

A ``Trivial`` verdict carries a replayable move log; ``NotTrivial`` carries
the nontrivial divisors; ``Unknown`` is an honest outcome when the move
budget runs out or, before that, the greedy search stalls (triviality is
undecidable in general, so no answer is forced).
"""

from __future__ import annotations

import itertools
import math
from typing import Iterable, NamedTuple, Sequence

from . import artin
from .artin import Presentation
from .words import (
    Syllable,
    Word,
    _join,
    _join_cancellation,
    _reduce_syllables,
    _word,
    abelianize,
    cyclic_reduce,
    invert,
    power,
)

DEFAULT_BUDGET = 100_000
# Bound on the Smith form's work, rows * rank * min(rows, rank) for an
# exponent matrix of rows relators by rank generators: each of up to
# min(rows, rank) pivots scans what is left of the matrix.  A 464 x 464
# identity matrix (9.99 * 10^7) takes about a second on a 2-vCPU host.
MAX_SMITH_WORK = 10**8

Move = tuple


def smith_invariants(rows: Sequence[Sequence[int]], width: int) -> tuple[int, ...]:
    """Elementary divisors of an integer matrix, in divisibility order,
    padded with zeros to ``min(len(rows), width)`` entries.  A least entry
    is the pivot until its row and column clear, then it is recorded and
    they are deleted; each pair of recorded values ends as ``(gcd, lcm)``.
    Cohen, *A Course in Computational Algebraic Number Theory*, 2.4.4.

    The divisors multiply to ``|det|``, so a 3 x 3 matrix with ``|det| = 1``
    (almost every exponent matrix of a sweep) has divisors ``(1, 1, 1)``
    and skips the pivot loop."""
    if any(len(r) != width for r in rows):
        raise ValueError("ragged matrix")
    if width == 3 and len(rows) == 3:
        (a, b, c), (d, e, f), (g, h, i) = rows
        if abs(a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)) == 1:
            return (1, 1, 1)
    m = [list(r) for r in rows]
    divisors: list[int] = []
    while True:
        least = 0
        for r_index, r in enumerate(m):
            for k, v in enumerate(r):
                if v and (not least or abs(v) < least):
                    least, i, j = abs(v), r_index, k
        if not least:
            break
        pivot_row = m.pop(i)  # by position: rows may be equal
        p = pivot_row[j]
        cleared = True
        for r in m:
            if r[j]:
                q = r[j] // p
                for k, v in enumerate(pivot_row):
                    r[k] -= q * v
                cleared = cleared and not r[j]
        for k, v in enumerate(pivot_row):
            if k != j and v:
                q = v // p
                for r in m:
                    r[k] -= q * r[j]
                pivot_row[k] -= q * p
                cleared = cleared and not pivot_row[k]
        if cleared:
            divisors.append(least)
            for r in m:
                del r[j]
        else:
            m.insert(i, pivot_row)
    for a, b in itertools.combinations(range(len(divisors)), 2):
        x, y = divisors[a], divisors[b]
        divisors[a], divisors[b] = math.gcd(x, y), math.lcm(x, y)
    return tuple(divisors) + (0,) * (min(len(rows), width) - len(divisors))


def abelian_invariants(pres: Presentation) -> tuple[int, ...]:
    """Divisor chain of the relator exponent matrix, one entry per
    generator (zeros encode free factors).  Refuses with ``ValueError``,
    before any exponent row is built, a matrix whose Smith form would take
    more than ``MAX_SMITH_WORK`` steps."""
    height, rank = len(pres.relators), pres.rank
    work = height * rank * min(height, rank)
    if work > MAX_SMITH_WORK:
        raise ValueError(
            f"Smith form of {height} relators in {rank} generators takes"
            f" {height}*{rank}*{min(height, rank)} = {work} steps, above the limit {MAX_SMITH_WORK}"
        )
    rows = [abelianize(r, rank) for r in pres.relators]
    divisors = list(smith_invariants(rows, rank))
    divisors.extend([0] * (rank - len(divisors)))
    return tuple(divisors)


class TrivialityVerdict(NamedTuple):
    tag: str  # "Trivial" | "NotTrivial" | "Unknown"
    divisors: tuple[int, ...]
    moves: tuple[Move, ...]

    def as_json_dict(self) -> dict:
        return {
            "tag": self.tag,
            "divisors": list(self.divisors),
            "moves": [list(m) for m in self.moves],
            "budget_spent": len(self.moves),
        }


def _canonical(relators: Iterable[Word]) -> list[Word]:
    return [core for core in map(cyclic_reduce, relators) if core]


def _eliminate(relators: list[Word], rel_index: int, gen: int, repl: Word) -> list[Word]:
    """The relators other than ``rel_index`` with ``repl`` put for
    ``x_gen``.  Refuses with ``ValueError``, before spelling out a power of
    ``repl``, when they would then hold more than
    ``artin.MAX_PRESENTATION_SYLLABLES`` syllables before reduction."""
    # ``gen`` occurs in relator ``rel_index`` (checked by the caller), so it
    # lies in 1..rank; ``repl`` lacks it, so shifting the higher generators
    # down one keeps adjacent generators distinct
    repl = _word(tuple((g - 1 if g > gen else g, e) for g, e in repl.syllables))
    width = len(repl.syllables)
    cap = artin.MAX_PRESENTATION_SYLLABLES
    new = []
    size = 0  # syllables of the finished relators, before reduction
    for k, other in enumerate(relators):
        if k == rel_index:
            continue
        pairs: list[tuple[int, int]] = []
        for g, e in other.syllables:
            if g == gen:
                # power(repl, e) has at most width * |e| syllables
                if size + len(pairs) + (width * abs(e) if width > 1 else width) > cap:
                    raise ValueError(f"substituting for x{gen} builds more than {cap} syllables")
                pairs.extend(power(repl, e).syllables)
            else:
                pairs.append((g - 1 if g > gen else g, e))
        size += len(pairs)
        new.append(_word(_reduce_syllables(pairs)))
    return new


def _solve(relator: Word, gen: int) -> Word:
    """Solve ``u x^s v = 1`` for ``x``, which is ``(v u)^-s``; ``gen`` must
    occur exactly once in the relator and with exponent +-1."""
    syls = relator.syllables
    positions = [i for i, (g, _) in enumerate(syls) if g == gen]
    if len(positions) != 1 or abs(syls[positions[0]][1]) != 1:
        raise ValueError(f"generator {gen} is not solvable in {relator}")
    i = positions[0]
    vu = _word(_product(syls[i + 1 :], 0, syls[:i]))
    return vu if syls[i][1] == -1 else invert(vu)


def _product(syls: tuple, rot: int, other: tuple) -> tuple[Syllable, ...]:
    """Syllables of the rotation ``syls[rot:] + syls[:rot]`` times ``other``,
    all reduced.  Where ``syls`` is not cyclically reduced, the two pieces
    of the rotation merge or cancel where they meet."""
    product = list(syls[rot:])
    _join(product, syls[:rot])
    _join(product, other)
    return tuple(product)


def _relator_index(relators: list[Word], k: int) -> int:
    if not 0 <= k < len(relators):
        raise ValueError(f"relator index {k} out of range 0..{len(relators) - 1}")
    return k


_MOVE_SIZES = {"reduce": 1, "kill": 3, "subst": 3, "mult": 5}


def apply_move(rank: int, relators: list[Word], move: Move) -> tuple[int, list[Word]]:
    """The ``(rank, relators)`` after one Tietze move; ``relators`` is left
    as it is.  Refuses with ``ValueError`` any move that is not legal on
    them: an empty move, one of the wrong length for its kind or with a
    field after the kind that is not an ``int``, a relator index out of
    range, a ``kill`` of a relator other than the bare ``x_gen^+-1``, a
    ``subst`` of a generator that is not solvable or whose result would be
    too large (see ``_eliminate``), or a ``mult`` of a
    relator by itself, with a sign other than +-1 or a rotation outside
    its syllables."""
    kind = move[0] if move and isinstance(move[0], str) else None
    size = _MOVE_SIZES.get(kind)
    if move and size is None:
        raise ValueError(f"unknown move {move!r}")
    if len(move) != size or any(type(field) is not int for field in move[1:]):
        raise ValueError(f"malformed move {move!r}")
    if kind == "reduce":
        return rank, _canonical(relators)
    if kind in ("kill", "subst"):
        # a bare relator x_gen^+-1 solves to the identity
        _, rel_index, gen = move
        relator = relators[_relator_index(relators, rel_index)]
        if kind == "kill" and relator.syllables not in (((gen, 1),), ((gen, -1),)):
            raise ValueError(f"relator {rel_index} is not x{gen}^+-1")
        return rank - 1, _eliminate(relators, rel_index, gen, _solve(relator, gen))
    _, i, j, sign, rot = move
    syls = relators[_relator_index(relators, i)].syllables
    other = relators[_relator_index(relators, j)]
    if i == j or sign not in (1, -1) or not 0 <= rot < len(syls):
        raise ValueError(f"illegal multiplication move {move!r}")
    if sign == -1:
        other = invert(other)
    return rank, [*relators[:i], _word(_product(syls, rot, other.syllables)), *relators[i + 1 :]]


def replay(pres: Presentation, moves: Iterable[Move]) -> tuple[int, tuple[Word, ...]]:
    """Re-apply a move log from scratch; returns the final (rank, relators).
    A valid Trivial certificate replays to ``(0, ())``."""
    rank, relators = pres.rank, list(pres.relators)
    for move in moves:
        rank, relators = apply_move(rank, relators, move)
    return rank, tuple(relators)


def _best_mult(relators: list[Word]) -> Move | None:
    """Smallest-result-first greedy multiplication move over canonical
    (nonempty, cyclically reduced) relators, with a fixed lexicographic
    tie-break ``(length, syllables, i, j, sign, rot)`` for reproducibility.

    The candidate ``rotation(r_i, rot) * r_j^sign`` has letter length
    ``len(r_i) + len(r_j)`` less the letters cancelled at its one join, so
    a shorter candidate wins on its length alone, and syllables are built
    only to break a tie in length.
    """
    lengths = [len(r) for r in relators]
    signed = [((1, r.syllables), (-1, invert(r).syllables)) for r in relators]
    best = best_syls = None
    for i, ri in enumerate(relators):
        syls = ri.syllables
        n = len(syls)
        doubled = syls + syls
        # rotation ``rot`` ends in syllable ``rot - 1``
        ends: dict[Syllable, list[int]] = {}
        for rot in range(n):
            ends.setdefault(syls[rot - 1], []).append(rot)
        for j, pair in enumerate(signed):
            if j == i:
                continue
            for sign, other in pair:
                gen, exp = other[0]
                # an end (gen, a), a != -exp, cancels 2 * min(|a|, |exp|)
                # letters: too few to shorten r_i unless 2 * |exp| > len(r_j)
                rots = range(n) if 2 * abs(exp) > lengths[j] else ends.get((gen, -exp), ())
                for rot in rots:
                    length = lengths[i] + lengths[j]
                    length -= _join_cancellation(doubled, rot, rot + n, other)
                    if length >= lengths[i] or best and length > best[0]:
                        continue
                    if best is None or length < best[0]:
                        best, best_syls = (length, i, j, sign, rot, other), None
                        continue
                    if best_syls is None:
                        best_syls = _product(relators[best[1]].syllables, *best[4:])
                    cand = _product(syls, rot, other)
                    if (cand, i, j, sign, rot) < (best_syls, *best[1:5]):
                        best, best_syls = (length, i, j, sign, rot, other), cand
    return best and ("mult", *best[1:5])


def simplify(pres: Presentation, budget: int = DEFAULT_BUDGET) -> TrivialityVerdict:
    """Bounded deterministic search for a trivialization.  An
    abelian-invariant check short-circuits to NotTrivial up front, so
    Trivial is never reported for a group with nontrivial homology."""
    if budget < 0:
        raise ValueError(f"budget must be at least 0, got {budget}")
    divisors = abelian_invariants(pres)
    if any(d != 1 for d in divisors):
        return TrivialityVerdict("NotTrivial", divisors, ())
    rank, moves = _search(pres.rank, list(pres.relators), budget)
    return TrivialityVerdict("Unknown" if rank else "Trivial", divisors, moves)


def _search(rank: int, relators: list[Word], budget: int) -> tuple[int, tuple[Move, ...]]:
    """Greedy Tietze search from ``(rank, relators)``, left as they are:
    the rank it ends at (0 when trivial) and at most ``budget`` moves.

    Move order per round: (a) free+cyclic reduction of all relators,
    (b) deleting a generator whose relator is a bare ``x^+-1``,
    (c) Tietze elimination of a generator occurring exactly once in some
    relator, (d) greedy length-reducing relator multiplication over all
    cyclic rotations.
    """
    moves: list[Move] = []
    while rank and len(moves) < budget:
        # right after a ("reduce",) move the relators are canonical already
        canonical = relators if moves[-1:] == [("reduce",)] else _canonical(relators)
        if canonical != relators:
            # the ("reduce",) move, applied from the pass just computed
            move, relators = ("reduce",), canonical
        else:
            move = _pick_structural(relators) or _best_mult(relators)
            if move is None:
                break
            rank, relators = apply_move(rank, relators, move)
        moves.append(move)
    return rank, tuple(moves)


def _pick_structural(relators: list[Word]) -> Move | None:
    for idx, r in enumerate(relators):
        syls = r.syllables
        if len(syls) == 1 and abs(syls[0][1]) == 1:
            return ("kill", idx, syls[0][0])
    for idx, r in enumerate(relators):
        counts: dict[int, int] = {}
        for g, e in r.syllables:
            counts[g] = counts.get(g, 0) + abs(e)
        for g, e in r.syllables:
            if counts[g] == 1 and abs(e) == 1:
                return ("subst", idx, g)
    return None
