"""Relator expressions: words with grouped subwords and (possibly symbolic)
integer exponents, as printed in the example tables.

Grammar::

    EXPR   := FACTOR ("*" FACTOR)*
    FACTOR := ITEM ["^" EXP]
    ITEM   := "x" INT | "(" EXPR ")"
    EXP    := SIGNED-INT | ["-"] VAR | "(" LINEAR ")"

where LINEAR is a linear form such as ``gamma-1`` or ``-beta-1`` sharing the
table-cell syntax (without the leading ±).  Instantiating an expression at a
variable assignment yields a reduced :class:`~artinhexa.words.Word`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Mapping, Union

from .hexa import HexError, LinearCell, parse_cell
from .words import Word, concat, generator, parse_int, power


class RelatorExprError(ValueError):
    pass


_CONST_ONE = LinearCell(c0=1)


@dataclass(frozen=True)
class Factor:
    base: Union[int, tuple["Factor", ...]]
    exp: LinearCell = _CONST_ONE


@dataclass(frozen=True)
class RelatorExpr:
    factors: tuple[Factor, ...]
    text: str

    def variables(self) -> tuple[str, ...]:
        seen: list[str] = []

        def walk(factors):
            for f in factors:
                if f.exp.var is not None and f.exp.var not in seen:
                    seen.append(f.exp.var)
                if not isinstance(f.base, int):
                    walk(f.base)

        walk(self.factors)
        return tuple(seen)

    def instantiate(self, assignment: Mapping[str, int] | None = None) -> Word:
        assignment = assignment or {}

        def build(factors) -> Word:
            parts = []
            for f in factors:
                base = generator(f.base) if isinstance(f.base, int) else build(f.base)
                (exp,) = f.exp.values(assignment)
                parts.append(power(base, exp))
            return concat(*parts)

        return build(self.factors)

    def __str__(self) -> str:
        return self.text


_GEN_RE = re.compile(r"x(\d+)", re.ASCII)
# a bare signed integer or variable, or a parenthesised cell without parens
_EXP_RE = re.compile(r"-?(?:\d+|[a-z]+)|\(([^)]*)\)", re.ASCII)


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch: str):
        if self.peek() != ch:
            raise RelatorExprError(
                f"expected {ch!r} at position {self.pos} in {self.text!r}"
            )
        self.pos += 1

    def match_re(self, pattern: re.Pattern) -> re.Match | None:
        self.skip_ws()
        m = pattern.match(self.text, self.pos)
        if m:
            self.pos = m.end()
        return m


def _parse_exp(sc: _Scanner) -> LinearCell:
    m = sc.match_re(_EXP_RE)
    if not m:
        raise RelatorExprError(f"expected exponent at position {sc.pos} in {sc.text!r}")
    text = m.group(0) if m.group(1) is None else m.group(1)
    try:
        cell = parse_cell(text)
    except HexError as exc:
        raise RelatorExprError(str(exc)) from exc
    if cell.pm:
        raise RelatorExprError(f"± not allowed in exponent {text!r}")
    return cell


def _parse_factor(sc: _Scanner) -> Factor:
    if sc.peek() == "(":
        sc.expect("(")
        inner = _parse_factors(sc)
        sc.expect(")")
        base: Union[int, tuple[Factor, ...]] = inner
    else:
        m = sc.match_re(_GEN_RE)
        if not m:
            raise RelatorExprError(
                f"expected generator or group at position {sc.pos} in {sc.text!r}"
            )
        try:
            base = parse_int(m.group(1))
        except ValueError:
            raise RelatorExprError(f"too many digits at position {m.start()} in a generator index") from None
        if base < 1:
            raise RelatorExprError(f"generator index {base} out of range")
    exp = _CONST_ONE
    if sc.peek() == "^":
        sc.expect("^")
        exp = _parse_exp(sc)
    return Factor(base, exp)


def _parse_factors(sc: _Scanner) -> tuple[Factor, ...]:
    factors = [_parse_factor(sc)]
    while sc.peek() == "*":
        sc.expect("*")
        factors.append(_parse_factor(sc))
    return tuple(factors)


def parse_relator_expr(text: str) -> RelatorExpr:
    stripped = text.strip()
    if stripped == "1":
        return RelatorExpr((), stripped)
    sc = _Scanner(stripped)
    factors = _parse_factors(sc)
    sc.skip_ws()
    if sc.pos != len(sc.text):
        raise RelatorExprError(
            f"trailing input at position {sc.pos} in {sc.text!r}"
        )
    return RelatorExpr(factors, stripped)
