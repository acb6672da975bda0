"""Bundled table data: the three parameter tables, the symmetry table, and
the six example-presentation tables.

Files live under ``artinhexa/data`` and can be overridden by pointing the
``ARTINHEXA_DATA`` environment variable at a directory with the same file
names.  Loaders keep each table's printed column order; reordering into the
canonical slot order happens only at instantiation time.
"""

from __future__ import annotations

import os
from functools import lru_cache
from importlib.resources import files
from typing import NamedTuple

from .hexa import SLOTS, HexError, HexSymmetry, ParamRow, parse_cell
from .relexpr import RelatorExpr, RelatorExprError, parse_relator_expr
from .words import _clip, parse_int

DATA_ENV = "ARTINHEXA_DATA"

PARAM_TABLES = (1, 2, 3)
EXAMPLE_TABLES = (5, 6, 7, 8, 9, 10)


class TableError(ValueError):
    pass


def read_data_text(name: str) -> str:
    override = os.environ.get(DATA_ENV)
    if override:
        path = os.path.join(override, name)
        if not os.path.exists(path):
            raise TableError(f"{DATA_ENV} set but {path} is missing")
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    return files("artinhexa").joinpath("data", name).read_text(encoding="utf-8")


def _read(
    name: str, width: int, header: bool = True
) -> tuple[tuple[str, ...], list[tuple[int, list[str]]]]:
    """The declared column order (empty without a header line) and the
    ``(number, cells)`` rows of data file ``name``, ``width`` cells each."""
    lines = [
        [cell.strip() for cell in line.split("\t")]
        for line in read_data_text(name).splitlines()
        if line.strip()
    ]
    if not lines:
        raise TableError(f"{name} is empty")
    order: tuple[str, ...] = ()
    if header:
        order = tuple(lines[0][0].split())
        if sorted(order) != sorted(SLOTS):
            raise TableError(f"{name}: bad column declaration {lines[0]}")
        del lines[0]
    rows = []
    for cells in lines:
        if len(cells) != width + 1:
            raise TableError(f"{name}: expected row number + {width} cells, got {cells}")
        try:
            rows.append((parse_int(cells[0]), cells[1:]))
        except ValueError:
            raise TableError(f"{name}: bad row number {_clip(cells[0])}") from None
    return order, rows


@lru_cache(maxsize=None)
def load_table(table_id: int) -> tuple[ParamRow, ...]:
    """Parameter table 1, 2 or 3 in its printed column order."""
    if table_id not in PARAM_TABLES:
        raise TableError(f"no parameter table {table_id}")
    order, rows = _read(f"table{table_id}.tsv", 6)
    return tuple(
        ParamRow(table_id, number, order, tuple(parse_cell(c) for c in cells))
        for number, cells in rows
    )


@lru_cache(maxsize=None)
def load_symmetries() -> tuple[HexSymmetry, ...]:
    """The 24 symmetry assignments, verbatim as shipped (row 1 is the
    identity).  Validation is a separate, explicit step; loading never
    corrects anything."""
    name = "symmetries.tsv"
    order, rows = _read(name, 6)
    syms = []
    for number, cells in rows:
        by_slot = dict(zip(order, cells))
        try:
            syms.append(HexSymmetry(number, tuple(by_slot[s] for s in SLOTS)))
        except HexError as exc:
            raise TableError(f"{name} row {number}: {exc}") from exc
    return tuple(syms)


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
        seen: list[str] = []
        for r in self.relators:
            for v in r.variables():
                if v not in seen:
                    seen.append(v)
        return tuple(seen)


@lru_cache(maxsize=None)
def load_examples(table: int) -> tuple[ExampleRow, ...]:
    if table not in EXAMPLE_TABLES:
        raise TableError(f"no example table {table}")
    name = f"examples{table}.tsv"
    _, rows = _read(name, 3, header=False)
    examples = []
    for number, cells in rows:
        try:
            relators = tuple(parse_relator_expr(c) for c in cells)
        except RelatorExprError as exc:
            raise TableError(f"{name} row {number}: {exc}") from exc
        examples.append(ExampleRow(table, number, relators))
    return tuple(examples)
