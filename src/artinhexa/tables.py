"""Bundled table data: the three parameter tables, the symmetry table, and
the six example-presentation tables.

Files are read with one ``open`` from the package's ``data`` directory, or
from the directory that ``ARTINHEXA_DATA`` names (empty counts as unset).
A line ends at a line feed, a carriage return or the pair of them, as a
text-mode file splits it and as presentation files are read: a form feed or
U+2028 stays in its row, whose parser takes it as whitespace or refuses it,
and a byte that is not UTF-8 is refused at its row.
Loaders keep each table's printed column order; reordering into the
canonical slot order happens only at instantiation time.
"""

from __future__ import annotations

import os
from functools import lru_cache
from typing import TYPE_CHECKING, NamedTuple

from .hexa import SLOTS, HexSymmetry, ParamRow, parse_cell
from .words import _clip, parse_int

if TYPE_CHECKING:
    from .relexpr import RelatorExpr

DATA_ENV = "ARTINHEXA_DATA"

PARAM_TABLES = (1, 2, 3)
EXAMPLE_TABLES = (5, 6, 7, 8, 9, 10)


class TableError(ValueError):
    pass


def _read(name: str, width: int, build, header: bool = True) -> tuple:
    """``build(order, number, cells)`` for each row of data file ``name``,
    where ``order`` is the declared column order (empty without a header
    line) and each row has its number and ``width`` cells.  An error in a
    row is raised as a ``TableError`` naming the file and the row, or where
    the row has no number yet, the file and the line (blank lines count)."""
    path = os.path.join(os.environ.get(DATA_ENV) or os.path.join(os.path.dirname(__file__), "data"), name)
    try:
        with open(path, encoding="utf-8", errors="surrogateescape") as fh:
            lines = [
                (n, [cell.strip() for cell in line.split("\t")]) for n, line in enumerate(fh, 1) if line.strip()
            ]
    except FileNotFoundError:
        raise TableError(f"data file {path} is missing") from None
    if not lines:
        raise TableError(f"{name} is empty")
    order: tuple[str, ...] = ()
    if header:
        order = tuple(lines[0][1][0].split())
        if sorted(order) != sorted(SLOTS):
            raise TableError(f"{name}: bad column declaration {lines[0][1]}")
        del lines[0]
    rows = []
    for n, cells in lines:
        if len(cells) != width + 1:
            raise TableError(f"{name} line {n}: expected row number + {width} cells, got {cells}")
        try:
            number = parse_int(cells[0])
        except ValueError:
            raise TableError(f"{name} line {n}: bad row number {_clip(cells[0])}") from None
        try:
            rows.append(build(order, number, cells[1:]))
        except ValueError as exc:
            raise TableError(f"{name} row {number}: {exc}") from exc
    return tuple(rows)


@lru_cache(maxsize=None)
def load_table(table_id: int) -> tuple[ParamRow, ...]:
    """Parameter table 1, 2 or 3 in its printed column order."""
    if table_id not in PARAM_TABLES:
        raise TableError(f"no parameter table {table_id}")
    return _read(
        f"table{table_id}.tsv",
        6,
        lambda order, number, cells: ParamRow(table_id, number, order, tuple(map(parse_cell, cells))),
    )


@lru_cache(maxsize=None)
def load_symmetries() -> tuple[HexSymmetry, ...]:
    """The 24 symmetry assignments, verbatim as shipped (row 1 is the
    identity).  Validation is a separate, explicit step; loading never
    corrects anything."""
    def build(order, number, cells):
        by_slot = dict(zip(order, cells))
        return HexSymmetry(number, tuple(by_slot[s] for s in SLOTS))

    return _read("symmetries.tsv", 6, build)


def identity_symmetry() -> HexSymmetry:
    for sym in load_symmetries():
        if sym.is_identity():
            return sym
    raise TableError("symmetry table has no identity row")


def symmetry_by_index(index: int) -> HexSymmetry:
    for sym in load_symmetries():
        if sym.index == index:
            return sym
    raise TableError(f"no symmetry with index {index}")


class ExampleRow(NamedTuple):
    """One example-table presentation: three relator expressions, possibly
    with one symbolic exponent variable."""

    table: int
    row: int
    relators: tuple[RelatorExpr, RelatorExpr, RelatorExpr]

    def variables(self) -> tuple[str, ...]:
        return tuple(dict.fromkeys(v for r in self.relators for v in r.variables()))


@lru_cache(maxsize=None)
def load_examples(table: int) -> tuple[ExampleRow, ...]:
    from .relexpr import parse_relator_expr  # only the example tables need it

    if table not in EXAMPLE_TABLES:
        raise TableError(f"no example table {table}")
    return _read(
        f"examples{table}.tsv",
        3,
        lambda _, number, cells: ExampleRow(table, number, tuple(map(parse_relator_expr, cells))),
        header=False,
    )
