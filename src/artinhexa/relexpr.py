"""Relator expressions: words with grouped subwords and (possibly symbolic)
integer exponents, as printed in the example tables.

Grammar::

    EXPR   := FACTOR ("*" FACTOR)*
    FACTOR := ITEM ["^" EXP]
    ITEM   := "x" INT | "(" EXPR ")"
    EXP    := SIGNED-INT | ["-"] VAR | "(" LINEAR ")"

where LINEAR is a linear form such as ``gamma-1`` or ``-beta-1`` sharing the
table-cell syntax (without the leading ±).  The text ``1`` is the empty
expression.

The parser reads the text as a sequence of tokens, each one match of a
single regular expression: ``x`` with its digits, ``^`` with its whole
exponent, ``(``, ``)`` or ``*``.  Whitespace may come before any token and
between ``^`` and its exponent, but not inside a generator or a bare
exponent (``x 1`` and ``x1^- 2`` are refused).  Instantiating an expression
at a variable assignment yields a reduced :class:`~artinhexa.words.Word`.
"""

from __future__ import annotations

import re
from functools import cache
from typing import Mapping, NamedTuple, Union

from .hexa import HexError, LinearCell, parse_cell
from .words import Syllable, Word, _clip, _reduce_syllables, _word, parse_int


class RelatorExprError(ValueError):
    pass


_CONST_ONE = LinearCell(c0=1)


class Factor(NamedTuple):
    base: Union[int, tuple["Factor", ...]]
    exp: LinearCell = _CONST_ONE


class RelatorExpr(NamedTuple):
    factors: tuple[Factor, ...]
    text: str

    def variables(self) -> tuple[str, ...]:
        return tuple(dict.fromkeys(_exponent_vars(self.factors)))

    def instantiate(self, assignment: Mapping[str, int] | None = None) -> Word:
        """The word at ``assignment``: the factors are spelled out into one
        syllable list, reduced once.  Free reduction is confluent, so this
        is the reduced product of the factors' powers."""
        return _word(_reduce_syllables(_spell(self.factors, assignment or {})))


def _exponent_vars(factors: tuple[Factor, ...]):
    """The exponent variables of ``factors`` and their groups, in order."""
    for f in factors:
        if f.exp.var is not None:
            yield f.exp.var
        if not isinstance(f.base, int):
            yield from _exponent_vars(f.base)


def _spell(factors: tuple[Factor, ...], assignment: Mapping[str, int]) -> list[Syllable]:
    """The unreduced syllables of ``factors``: a group raised to ``k``
    contributes its syllables ``|k|`` times, inverted when ``k < 0``."""
    out: list[Syllable] = []
    for f in factors:
        if isinstance(f.base, int):
            (k,) = f.exp.values(assignment)
            out.append((f.base, k))
            continue
        inner = _spell(f.base, assignment)
        (k,) = f.exp.values(assignment)
        if k < 0:
            inner, k = [(gen, -exp) for gen, exp in reversed(inner)], -k
        out += inner * k
    return out


# optional whitespace, then one token: a generator, a caret with its
# exponent (a bare signed integer or variable, or a parenthesised cell
# taken without its parentheses), "(", ")" or "*"; the token's kind is
# the number of its group
_TOKEN_RE = re.compile(
    r"\s*(?:x([0-9]+)|\^\s*(?:(-?(?:[0-9]+|[a-z]+))|\(([^)]*)\))|(\()|(\))|(\*))"
)
_GEN, _BARE, _PAREN, _OPEN, _CLOSE, _TIMES = range(1, 7)
# the token kinds allowed after each kind, and at the start (0)
_ITEM = frozenset((_GEN, _OPEN))
_JOIN = frozenset((_CLOSE, _TIMES))
_NEXT = {
    0: _ITEM, _OPEN: _ITEM, _TIMES: _ITEM,
    _BARE: _JOIN, _PAREN: _JOIN,
    _GEN: _JOIN | {_BARE, _PAREN}, _CLOSE: _JOIN | {_BARE, _PAREN},
}


@cache
def _gen_factor(digits: str) -> Factor:
    try:
        index = parse_int(digits)
    except ValueError:
        raise RelatorExprError("too many digits in a generator index") from None
    if index < 1:
        raise RelatorExprError(f"generator index {index} out of range")
    return Factor(index)


@cache
def _exp_cell(text: str) -> LinearCell:
    try:
        cell = parse_cell(text)
    except HexError as exc:
        raise RelatorExprError(str(exc)) from exc
    if cell.pm:
        raise RelatorExprError(f"± not allowed in exponent {_clip(text)}")
    return cell


def _error(what: str, pos: int, text: str) -> RelatorExprError:
    return RelatorExprError(f"{what} at position {pos} in {_clip(text)}")


def parse_relator_expr(text: str) -> RelatorExpr:
    stripped = text.strip()
    if stripped == "1":
        return RelatorExpr((), stripped)
    groups: list[list[Factor]] = [[]]  # the factors of the text and of each open group
    kind = pos = 0
    while m := _TOKEN_RE.match(stripped, pos):
        allowed, kind = _NEXT[kind], m.lastindex
        if kind not in allowed or (kind == _CLOSE and len(groups) == 1):
            raise _error(f"unexpected {_clip(m[0].lstrip())}", pos, stripped)
        if kind == _GEN:
            groups[-1].append(_gen_factor(m[_GEN]))
        elif kind == _OPEN:
            # the expression is walked recursively, one call per level
            if len(groups) > 100:
                raise _error("groups nested more than 100 deep", pos, stripped)
            groups.append([])
        elif kind == _CLOSE:
            inner = tuple(groups.pop())
            groups[-1].append(Factor(inner))
        elif kind != _TIMES:
            groups[-1][-1] = Factor(groups[-1][-1].base, _exp_cell(m[kind]))
        pos = m.end()
    if pos != len(stripped):
        raise _error("unexpected input", pos, stripped)
    if _TIMES not in _NEXT[kind] or len(groups) > 1:
        raise _error("unexpected end", pos, stripped)
    return RelatorExpr(tuple(groups[0]), stripped)
