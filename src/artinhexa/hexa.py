"""Hexatangle fillings, their tetrahedral symmetries, and the surgery
correspondence.

The six boundary boxes carry integer fillings named alpha..eta; the
canonical parameter order everywhere in memory is
``(alpha, beta, gamma, delta, epsilon, eta)``.  The bundled tables ship in
other column orders; loaders carry an explicit per-table column map so
nothing gets silently transposed.
"""

from __future__ import annotations

import itertools
import operator
import re
from collections import namedtuple
from functools import cache
from typing import Iterable, Mapping, NamedTuple

from .braids import PureBraid
from .words import _clip, parse_int

SLOTS = ("alpha", "beta", "gamma", "delta", "epsilon", "eta")
_SLOT_INDEX = {name: i for i, name in enumerate(SLOTS)}


class HexError(ValueError):
    pass


class CellSyntaxError(HexError):
    pass


class HexFilling(NamedTuple):
    alpha: int
    beta: int
    gamma: int
    delta: int
    epsilon: int
    eta: int

    def as_tuple(self) -> tuple[int, ...]:
        return tuple(self)

    def mirror(self) -> "HexFilling":
        """Mirror image: every integral tangle negated.  This negates the
        exponent-sum matrix of the presentation, so the divisors agree; a
        filling and its mirror also agree on the W identity and the braid
        class, and never get opposite triviality verdicts (pinned by the
        pipeline tests)."""
        return HexFilling(*(-v for v in self))

    def __str__(self) -> str:
        return ",".join(map(str, self))


@cache
def _picker(sources: tuple[str, ...]):
    """The slot picker of a symmetry; at most 720 keys, one per permutation
    of the slots."""
    return operator.itemgetter(*map(_SLOT_INDEX.get, sources))


class HexSymmetry(namedtuple("HexSymmetry", "index sources")):
    """One row of the symmetry table: ``sources[i]`` is the slot whose old
    value the canonical slot ``SLOTS[i]`` takes.  A named tuple that checks
    its fields when built."""

    __slots__ = ()

    def __new__(cls, index: int, sources: tuple[str, ...]):
        if sorted(sources) != sorted(SLOTS):
            raise HexError(f"symmetry {index} is not a bijection on slots")
        return tuple.__new__(cls, (index, sources))

    _make = classmethod(lambda cls, values: cls(*values))  # so _replace checks too

    def apply(self, h: HexFilling) -> HexFilling:
        # HexFilling.__new__ checks nothing, so the picked tuple is wrapped as is
        return tuple.__new__(HexFilling, _picker(self.sources)(h))

    def compose(self, other: "HexSymmetry") -> tuple[str, ...]:
        """Sources of `apply other first, then self` (index is not tracked)."""
        return tuple(other.sources[_SLOT_INDEX[src]] for src in self.sources)

    def is_identity(self) -> bool:
        return self.sources == SLOTS


def orbit(
    h: HexFilling,
    symmetries: Iterable[HexSymmetry],
    include_mirror: bool = False,
) -> tuple[HexFilling, ...]:
    """All images of ``h`` under the symmetries (and their mirrors when
    requested), deduplicated and sorted for a deterministic order."""
    images = {sym.apply(h) for sym in symmetries}
    if include_mirror:
        images |= {img.mirror() for img in images}
    return tuple(sorted(images))


class SymmetryReport(NamedTuple):
    distinct: bool
    duplicates: tuple[tuple[int, int], ...]
    has_identity: bool
    closed: bool
    missing_products: tuple[tuple[int, int], ...]
    opposite_pairings: tuple[tuple[tuple[str, str], ...], ...]

    @property
    def passed(self) -> bool:
        return (
            self.distinct
            and self.has_identity
            and self.closed
            and len(self.opposite_pairings) == 1
        )

    def lines(self) -> list[str]:
        out = [
            f"distinct assignments: {'pass' if self.distinct else 'FAIL ' + str(self.duplicates)}",
            f"identity present: {'pass' if self.has_identity else 'FAIL'}",
            "closed under composition: "
            + ("pass" if self.closed else f"FAIL {self.missing_products[:10]}"),
        ]
        if len(self.opposite_pairings) == 1:
            pairs = " ".join("{%s,%s}" % p for p in self.opposite_pairings[0])
            out.append(f"opposite-box pairing: pass {pairs}")
        else:
            out.append(
                f"opposite-box pairing: FAIL ({len(self.opposite_pairings)} invariant pairings)"
            )
        return out


def _pairings() -> list[tuple[tuple[str, str], ...]]:
    out = []
    for p1 in SLOTS[1:]:
        rest1 = [s for s in SLOTS[1:] if s != p1]
        for p2 in rest1[1:]:
            rest2 = [s for s in rest1[1:] if s != p2]
            out.append(((SLOTS[0], p1), (rest1[0], p2), (rest2[0], rest2[1])))
    return out


def validate_symmetry_table(symmetries: Iterable[HexSymmetry]) -> SymmetryReport:
    """Check a candidate symmetry table: 24 pairwise distinct assignments,
    identity present, closure under composition, and a unique 3-pair
    opposite-box partition preserved by every row.  Failures are report
    content, never exceptions."""
    syms = tuple(symmetries)
    seen: dict[tuple[str, ...], int] = {}
    duplicates = []
    for sym in syms:
        if sym.sources in seen:
            duplicates.append((seen[sym.sources], sym.index))
        else:
            seen[sym.sources] = sym.index
    has_identity = any(sym.is_identity() for sym in syms)
    source_set = set(seen)
    missing = []
    for a, b in itertools.product(syms, repeat=2):
        if a.compose(b) not in source_set:
            missing.append((a.index, b.index))
    pairings = []
    for candidate in _pairings():
        pair_sets = {frozenset(p) for p in candidate}
        if all(
            frozenset(sym.sources[_SLOT_INDEX[x]] for x in pair) in pair_sets
            for sym in syms
            for pair in candidate
        ):
            pairings.append(candidate)
    return SymmetryReport(
        distinct=not duplicates,
        duplicates=tuple(duplicates),
        has_identity=has_identity,
        closed=not missing,
        missing_products=tuple(missing),
        opposite_pairings=tuple(pairings),
    )


_TETRA_EDGES = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


def tetrahedral_control() -> tuple[HexSymmetry, ...]:
    """Known-good control: the S4 vertex action of the tetrahedron on its
    six edges, with edges labelled by the canonical slots.  Opposite slots
    are the complementary edge pairs."""
    edge_slot = {frozenset(edge): SLOTS[i] for i, edge in enumerate(_TETRA_EDGES)}
    syms = []
    for index, perm in enumerate(sorted(itertools.permutations(range(4))), start=1):
        # perm moves the box at edge E to edge perm(E), so slot t receives
        # the old value of the slot at perm^-1(E_t)
        inv = tuple(perm.index(v) for v in range(4))
        sources = tuple(
            edge_slot[frozenset(inv[v] for v in _TETRA_EDGES[i])] for i in range(6)
        )
        syms.append(HexSymmetry(index, sources))
    return tuple(syms)


class SurgeryParams(NamedTuple):
    """Integral framings (m, n, p) on the single-block closed pure 3-braid
    ``Delta^(2e) (sigma1^2)^e1 (sigma2^2)^f1``."""

    m: int
    n: int
    p: int
    e: int
    e1: int
    f1: int

    @property
    def braid(self) -> PureBraid:
        return PureBraid(((self.e1, self.f1),), self.e)


def to_surgery(h: HexFilling) -> SurgeryParams:
    """Surgery correspondence: the double branched cover of the filling is
    the ``(-a-d-h, -b-d-g-h, -e-g-h)`` surgery on
    ``sigma1^(-2 delta) sigma2^(-2 gamma) Delta^(-2 eta)``."""
    a, b, g, d, e, h_ = h
    return SurgeryParams(-a - d - h_, -b - d - g - h_, -e - g - h_, -h_, -d, -g)


class LinearCell(namedtuple("LinearCell", "pm c0 c1 var")):
    """A table cell: an optional leading +- sign on the constant, plus at
    most one slot variable with coefficient +-1.  Value(s) are
    ``(+-c0) + c1 * var``.  A named tuple that checks its fields when built."""

    __slots__ = ()

    def __new__(cls, pm: bool = False, c0: int = 0, c1: int = 0, var: str | None = None):
        if var is not None and var not in SLOTS:
            raise HexError(f"unknown variable {var!r}")
        if (var is None) != (c1 == 0):
            raise HexError("variable and coefficient must come together")
        if c1 not in (-1, 0, 1):
            raise HexError(f"variable coefficient {c1} not in -1..1")
        if pm and c0 <= 0:
            raise HexError("pm cells need a positive constant part")
        return tuple.__new__(cls, (pm, c0, c1, var))

    _make = classmethod(lambda cls, values: cls(*values))  # so _replace checks too

    def values(self, assignment: Mapping[str, int]) -> tuple[int, ...]:
        """Concrete value(s); pm cells give the + branch first."""
        base = 0
        if self.var is not None:
            if self.var not in assignment:
                raise HexError(f"unbound variable {self.var!r}")
            base = self.c1 * assignment[self.var]
        if self.pm:
            return (self.c0 + base, -self.c0 + base)
        return (self.c0 + base,)


# A cell whole: any whitespace after "±" and before a "+"/"-" between
# terms, only ASCII whitespace between a sign and its term.
_CELL_RE = re.compile(
    r"(±\s*)?([+-]?)[ \t\n\r\f\v]*([0-9]+|[a-z]+)((?:\s*[+-][ \t\n\r\f\v]*(?:[0-9]+|[a-z]+))*)"
)
_TERM_RE = re.compile(r"([+-])\s*([0-9]+|[a-z]+)")


def parse_cell(text: str) -> LinearCell:
    """Parse ``CELL := ["±"] TERM (("+"|"-") TERM)*`` with
    ``TERM := INT | VAR`` and at most one variable per cell."""
    s = text.strip()
    m = _CELL_RE.fullmatch(s)
    if not m:
        raise CellSyntaxError(f"bad cell {_clip(s)}")
    pm, sign, term, rest = m.groups()
    if pm and (sign or not term.isdigit()):
        raise CellSyntaxError(f"± must prefix an unsigned constant in {_clip(s)}")
    c0 = c1 = 0
    var = None
    for sign, term in [(sign, term), *_TERM_RE.findall(rest)]:
        k = -1 if sign == "-" else 1
        if term.isdigit():
            try:
                c0 += k * parse_int(term)
            except ValueError:
                raise CellSyntaxError("integer with too many digits in cell") from None
        elif var is not None:
            raise CellSyntaxError(f"more than one variable in {_clip(s)}")
        elif term not in SLOTS:
            raise CellSyntaxError(f"unknown variable {_clip(term)} in {_clip(s)}")
        else:
            var, c1 = term, k
    if pm and c0 <= 0:
        raise CellSyntaxError(f"± needs a positive constant part in {_clip(s)}")
    return LinearCell(pm=bool(pm), c0=c0, c1=c1, var=var)


def serialize_cell(cell: LinearCell) -> str:
    """Canonical cell text; parse_cell round-trips it."""
    if cell.var is None:
        return ("±" if cell.pm else "") + str(cell.c0)
    var_part = cell.var if cell.c1 > 0 else "-" + cell.var
    if cell.pm:
        return f"±{cell.c0}{'+' if cell.c1 > 0 else '-'}{cell.var}"
    if cell.c0 == 0:
        return var_part
    return f"{cell.c0}{'+' if cell.c1 > 0 else '-'}{cell.var}"


class ParamRow(namedtuple("ParamRow", "table_id row column_order cells")):
    """One table row: six cells in the table's own (declared) column order.
    A named tuple that checks its fields when built."""

    __slots__ = ()

    def __new__(cls, table_id, row, column_order: tuple[str, ...], cells: tuple[LinearCell, ...]):
        if sorted(column_order) != sorted(SLOTS):
            raise HexError(f"bad column order {column_order}")
        if len(cells) != 6:
            raise HexError("a row needs exactly 6 cells")
        self = tuple.__new__(cls, (table_id, row, column_order, cells))
        if len(self.variables()) > 2:
            raise HexError(f"row {table_id}.{row} has >2 free variables")
        return self

    _make = classmethod(lambda cls, values: cls(*values))  # so _replace checks too

    def variables(self) -> tuple[str, ...]:
        return tuple(dict.fromkeys(cell.var for cell in self.cells if cell.var is not None))


def instantiate_row(
    row: ParamRow, assignment: Mapping[str, int]
) -> list[tuple[str, HexFilling]]:
    """Expand a row at a variable assignment into concrete fillings, one per
    combination of the +-/- branches of its pm cells (labelled like "+-+"),
    reordered from the printed column order into canonical slot order."""
    for var in row.variables():
        if var not in assignment:
            raise HexError(f"unbound variable {var!r} in row {row.table_id}.{row.row}")
    per_cell = [cell.values(assignment) for cell in row.cells]
    pm_positions = [i for i, cell in enumerate(row.cells) if cell.pm]
    out = []
    for choice in itertools.product(*(range(len(v)) for v in per_cell)):
        values = {row.column_order[i]: per_cell[i][choice[i]] for i in range(6)}
        branch = "".join("+" if choice[i] == 0 else "-" for i in pm_positions)
        out.append((branch, HexFilling(*(values[s] for s in SLOTS))))
    return out
