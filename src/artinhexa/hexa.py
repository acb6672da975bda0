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


def linking_matrix(s: SurgeryParams) -> tuple[tuple[int, int, int], ...]:
    """The exponent-sum matrix of ``gen_from_params(s)``, row i the
    abelianized ``r_i``, built without any word.  ``K`` abelianizes to
    (1, 1, 0), so the framings fall on the diagonal and the linking
    numbers off it; equal relators have equal matrices."""
    e, e1, f1 = s.e, s.e1, s.f1
    return ((s.m, e + e1, e), (e + e1, s.n, e + f1), (e, e + f1, s.p))


def _surgery_det(h: HexFilling) -> int:
    (a, b, c), (d, e, f), (g, k, i) = linking_matrix(to_surgery(h))
    return a * (e * i - f * k) - b * (d * i - f * g) + c * (d * k - e * g)


def symmetry_discrepancies(symmetries: Iterable[HexSymmetry]) -> list[str]:
    """One line per fault of a candidate symmetry table: a row that repeats
    an earlier row, a row under which ``det linking_matrix(to_surgery(h))``
    (plus or minus the order of the double branched cover's first homology)
    changes for some ``h`` in ``{0,1}^6``, and a count of distinct rows
    other than 24.  The determinant is multilinear in the six slots, so those
    64 fillings decide it for every filling; the slot permutations that keep
    it form a group of order 24, so 24 distinct rows that keep it are that
    group, identity and closure included."""
    cube = [HexFilling(*h) for h in itertools.product((0, 1), repeat=6)]
    dets = {h: _surgery_det(h) for h in cube}
    seen: dict[tuple[str, ...], int] = {}
    faults = []
    for sym in symmetries:
        if sym.sources in seen:
            faults.append(f"row {sym.index} repeats row {seen[sym.sources]}")
            continue
        seen[sym.sources] = sym.index
        for h in cube:
            image = sym.apply(h)
            if dets[image] != dets[h]:
                faults.append(f"row {sym.index}: det {dets[h]} at {h}, {dets[image]} at its image {image}")
                break
    if len(seen) != 24:
        faults.append(f"{len(seen)} distinct rows, not 24")
    return faults


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
