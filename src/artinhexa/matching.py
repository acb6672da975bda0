"""Tasks over the parameter tables, and their match with the example tables.

Every instantiated filling (optionally swept through the 24 symmetries and
the mirror transform) becomes one task, generated lazily in a fixed
canonical order.  Both report commands match fillings with the example
tables through one ``ExampleIndex``: the example instances on the grid
keyed by exponent-sum matrix, which a walk over the relator expressions
gives without spelling a word.  A filling is looked up by its closed-form
linking matrix, and an instance's relators are spelled only when some
filling has its matrix.  ``match_examples`` compares tasks by relators
only, and builds a presentation only for a filling whose matrix is an
example's; it runs no Artin check, triviality search or braid
classification, so ``match-examples`` loads this module and not
``pipeline``.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator, NamedTuple, Sequence

from . import artin
from .artin import check_size, gen_from_params
from .hexa import HexFilling, HexSymmetry, instantiate_row, linking_matrix, to_surgery
from .tables import (
    EXAMPLE_TABLES,
    ExampleRow,
    TableError,
    identity_symmetry,
    load_examples,
    load_symmetries,
    load_table,
)
from .words import serialize_word

Assignment = tuple[tuple[str, int], ...]


class Task(NamedTuple):
    table: int
    row: int
    assignment: Assignment
    branch: str
    symmetry: int
    mirrored: bool
    filling: HexFilling


MATCH_COLUMNS = ("example_table", "row", "kind", "instances", "matched", "first_match")


def assignments_for(
    variables: Sequence[str], param_range: tuple[int, int]
) -> Iterator[Assignment]:
    lo, hi = param_range
    if lo > hi:
        raise ValueError(f"empty parameter range {lo}..{hi}")
    values = range(lo, hi + 1)
    return (
        tuple(zip(variables, combo))
        for combo in itertools.product(values, repeat=len(variables))
    )


def build_tasks(
    tables: Iterable[int] = (1, 2, 3),
    param_range: tuple[int, int] = (-5, 5),
    symmetries: str = "all",
    mirror: bool = False,
) -> Iterator[Task]:
    """The tasks in canonical order, generated lazily.  The arguments are
    checked and the tables loaded before this returns, so bad input raises
    here and not part-way through the stream."""
    if symmetries not in ("all", "id"):
        raise ValueError(f"symmetries must be 'all' or 'id', got {symmetries!r}")
    syms: tuple[HexSymmetry, ...]
    syms = load_symmetries() if symmetries == "all" else (identity_symmetry(),)
    assignments_for((), param_range)  # raises on an empty range
    loaded = {}
    for table_id in tables:
        if table_id in loaded:
            raise ValueError(f"table {table_id} is given more than once")
        loaded[table_id] = load_table(table_id)
    return _tasks(loaded.items(), param_range, syms, mirror)


def _tasks(loaded, param_range, syms, mirror) -> Iterator[Task]:
    for table_id, table_rows in loaded:
        for row in table_rows:
            for assignment in assignments_for(row.variables(), param_range):
                for branch, base in instantiate_row(row, dict(assignment)):
                    for sym in syms:
                        image = sym.apply(base)
                        for mirrored in (False, True) if mirror else (False,):
                            filling = image.mirror() if mirrored else image
                            yield Task(
                                table_id,
                                row.row,
                                assignment,
                                branch,
                                sym.index,
                                mirrored,
                                filling,
                            )


def _example_instances(example: ExampleRow, param_range: tuple[int, int]):
    """The instances of one printed example row; parametric rows are
    expanded over the same grid as their source table.  Each instance comes
    as its assignment, its exponent-sum matrix and the number of syllables
    its relators spell out before reduction, all found without spelling a
    word.  The matrix is ``None`` when a generator above x3 has a non-zero
    sum, as in no filling's presentation.  A relator with no variable is
    summed once for the row."""
    variables = [r.variables() for r in example.relators]
    fixed = [None if v else r.exponent_sums() for r, v in zip(example.relators, variables)]
    for assignment in assignments_for(tuple(dict.fromkeys(itertools.chain(*variables))), param_range):
        env = dict(assignment)
        matrix, size, beyond = [], 0, False
        for r, f in zip(example.relators, fixed):
            sums, n = f or r.exponent_sums(env)
            size += n
            beyond = beyond or max(sums, default=0) > 3 and any(v for g, v in sums.items() if g > 3)
            matrix.append((sums.get(1, 0), sums.get(2, 0), sums.get(3, 0)))
        yield assignment, None if beyond else tuple(matrix), size


class _Row:
    """An example row: its coordinates ``table:row`` and its instances, each
    as its assignment and exponent-sum matrix.  An instance's serialized
    triple is spelled the first time it is asked for, then kept; a relator
    with no variable is spelled once for the row."""

    __slots__ = ("table", "example", "label", "instances", "_texts", "_triples")

    def __init__(self, table: int, example: ExampleRow):
        self.table, self.example, self.label = table, example, f"{table}:{example.row}"
        self.instances: list[tuple[Assignment, tuple | None]] = []
        self._texts: list[str | None] | None = None
        self._triples: dict[Assignment, tuple[str, ...]] = {}

    def triple(self, assignment: Assignment) -> tuple[str, ...]:
        triple = self._triples.get(assignment)
        if triple is None:
            relators = self.example.relators
            if self._texts is None:
                self._texts = [None if r.variables() else serialize_word(r.instantiate()) for r in relators]
            env = dict(assignment)
            triple = tuple([t or serialize_word(r.instantiate(env)) for r, t in zip(relators, self._texts)])
            self._triples[assignment] = triple
        return triple


class ExampleIndex:
    """The example rows with their instances on a grid (``rows``), and the
    instances by exponent-sum matrix (``by_matrix``, as row and assignment),
    both in table order.  Building it spells no word, but refuses, as an
    error naming the file and the row, any instance whose relators would
    spell out more than ``MAX_PRESENTATION_SYLLABLES`` syllables."""

    def __init__(self, param_range: tuple[int, int]):
        self.rows: list[_Row] = []
        self.by_matrix: dict[tuple, list[tuple[_Row, Assignment]]] = {}
        for table in EXAMPLE_TABLES:
            for example in load_examples(table):
                row = _Row(table, example)
                for assignment, matrix, size in _example_instances(example, param_range):
                    if size > artin.MAX_PRESENTATION_SYLLABLES:
                        at = f" at {format_assignment(assignment)}" if assignment else ""
                        raise TableError(
                            f"examples{table}.tsv row {example.row}: relators{at} spell out {size} "
                            f"syllables, above the limit {artin.MAX_PRESENTATION_SYLLABLES}"
                        )
                    row.instances.append((assignment, matrix))
                    if matrix is not None:
                        self.by_matrix.setdefault(matrix, []).append((row, assignment))
                self.rows.append(row)

    def label(self, matrix: tuple, triple: tuple[str, ...]) -> str:
        """The coordinates ``table:row`` of the first instance with this
        exponent-sum matrix and serialized triple, ``""`` when there is
        none.  Equal triples have equal matrices, so this is the first
        instance in table order with the triple."""
        for row, assignment in self.by_matrix.get(matrix, ()):
            if row.triple(assignment) == triple:
                return row.label
        return ""


class ExampleMatch(NamedTuple):
    table: int
    row: int
    concrete: bool
    instances: int
    matched: int
    first_match: str  # report-row coordinates, "" when unmatched


def match_examples(
    tasks: Iterable[Task], param_range: tuple[int, int] = (-5, 5)
) -> list[ExampleMatch]:
    """Compare every example-table row against the tasks' relator triples;
    the first task with a triple is the one reported.  Concrete rows are
    matched as printed; parametric rows instance by instance on the shared
    grid.  Unmatched rows are findings to report, not failures.  The tasks
    are read as a stream: what is kept is the fillings seen and the first
    task of each triple generated.

    Each distinct filling is size-checked, so an oversized one is refused
    as in ``pipeline.run_tables``.  Its triple is generated only when its linking
    matrix is the exponent-sum matrix of some example instance: equal
    triples have equal matrices, so no other filling can match.  An
    instance is spelled only when some filling has its matrix; one with a
    non-zero sum on a generator above x3 has no matrix and matches nothing.
    """
    examples = ExampleIndex(param_range)
    hit = set()  # the example matrices that some filling has
    first: dict[tuple[str, ...], Task] = {}  # the first task of each triple generated
    seen: set[HexFilling] = set()
    for task in tasks:
        if task.filling in seen:
            continue
        seen.add(task.filling)
        params = to_surgery(task.filling)
        check_size(params)
        matrix = linking_matrix(params)
        if matrix in examples.by_matrix:
            hit.add(matrix)
            first.setdefault(gen_from_params(params).serialized_relators(), task)
    out = []
    for row in examples.rows:
        hits = [
            (assignment, first[row.triple(assignment)])
            for assignment, matrix in row.instances
            if matrix in hit and row.triple(assignment) in first
        ]
        location = ""
        if hits:
            assignment, task = hits[0]
            location = f"table{task.table} row {task.row} sym {task.symmetry}"
            location += f" branch {task.branch}" if task.branch else ""
            location += " at " + format_assignment(assignment) if assignment else ""
        example = row.example
        out.append(ExampleMatch(
            row.table, example.row, not example.variables(), len(row.instances), len(hits), location
        ))
    return out


def format_assignment(assignment: Assignment) -> str:
    return ",".join(f"{name}={value}" for name, value in assignment) if assignment else "-"


def _table_lines(columns: Sequence[str], records: Iterable[Sequence], as_json: bool) -> Iterator[str]:
    """A table as it is written, one chunk per record (and one for the header
    or the brackets), so it is never held whole; TSV cells are strings.  The
    JSON chunks join to ``json.dumps(payload, indent=2) + "\\n"``."""
    if not as_json:
        yield "\t".join(columns) + "\n"
        for cells in records:
            yield "\t".join(cells) + "\n"
        return
    import json

    yield "["
    sep = ""
    for cells in records:
        text = json.dumps(dict(zip(columns, cells)), indent=2)
        yield sep + "\n  " + text.replace("\n", "\n  ")
        sep = ","
    yield "\n]\n" if sep else "]\n"


def match_lines(matches: Iterable[ExampleMatch], as_json: bool = False) -> Iterator[str]:
    """The example matches, one chunk per example row, as :func:`_table_lines`
    writes them; an unmatched ``first_match`` is ``-`` in TSV, ``""`` in JSON."""
    records = (
        (m.table, m.row, "concrete" if m.concrete else "parametric", m.instances, m.matched, m.first_match)
        for m in matches
    )
    if not as_json:
        records = ((*map(str, r[:-1]), r[-1] or "-") for r in records)
    return _table_lines(MATCH_COLUMNS, records, as_json)


def matches_tsv(matches: Sequence[ExampleMatch]) -> str:
    return "".join(match_lines(matches))
