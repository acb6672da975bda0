"""Batch verification pipeline over the parameter tables.

Every instantiated filling (optionally swept through the 24 symmetries and
the mirror transform) becomes one task and one report row.  Symmetry images
often coincide, so the full chain (presentation generation, both Artin
identities, the triviality search with its abelian invariants, and the
hyperbolicity classification of the associated surgery braid) runs once
per distinct filling and its cells are shared by every row with that
filling.  Rows come out in a fixed canonical order whatever the worker
count, so reports are byte-identical across ``jobs`` settings: at
``jobs`` above 1, each block's new fillings are split among child
processes forked for that block, and their results are put back in order.
Both report commands match fillings with the example tables through one
``ExampleIndex``: the example instances on the grid keyed by exponent-sum
matrix, which a walk over the relator expressions gives without spelling a
word.  A filling is looked up by its closed-form linking matrix, and an
instance's relators are spelled only when some filling has its matrix.
``run_tables`` does the lookup in ``_run_filling``, so at ``jobs`` above 1
the workers do it; ``match_examples`` compares tasks by relators only, and
builds a presentation only for a filling whose matrix is an example's.

The sweep is streamed: tasks are generated lazily, rows are yielded block
by block, and the cells of recent fillings are kept in a cache of fixed
size, so memory does not grow with the parameter range.
"""

from __future__ import annotations

import itertools
import marshal
import os
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, Sequence

from . import artin
from .artin import check_size, gen_from_params, verify_artin
from .braids import classify
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
from .triviality import simplify
from .words import serialize_word

Assignment = tuple[tuple[str, int], ...]

# Tasks taken per block: the block's new fillings are split among workers
# forked for the block, so at benchmark scale each run forks them once.
BLOCK_TASKS = 4096
# Fillings whose cells are kept from one block to the next; the oldest is
# dropped first.  The chain is
# pure, so a dropped filling only costs a second run of the chain.
CACHE_FILLINGS = 1 << 16


class Task(NamedTuple):
    table: int
    row: int
    assignment: Assignment
    branch: str
    symmetry: int
    mirrored: bool
    filling: HexFilling


@dataclass(frozen=True)
class ReportRow:
    """A task's fields followed by its report cells."""

    table: int
    row: int
    assignment: Assignment
    branch: str
    symmetry: int
    mirrored: bool
    filling: HexFilling
    relators: tuple[str, str, str]
    artin_w: bool
    artin_f: bool
    divisors: tuple[int, ...]
    verdict: str
    braid_class: str
    example_match: str = ""


TSV_COLUMNS = (
    "table",
    "row",
    "assignment",
    "branch",
    "symmetry",
    "mirror",
    "filling",
    "r1",
    "r2",
    "r3",
    "artin_w",
    "artin_f",
    "divisors",
    "verdict",
    "braid_class",
    "example_match",
)

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


def _run_filling(filling: HexFilling, examples: ExampleIndex) -> tuple:
    """The report cells that depend on the filling alone, in ``ReportRow``
    field order from ``relators`` to ``example_match``."""
    params = to_surgery(filling)
    pres = gen_from_params(params)
    check = verify_artin(pres)
    verdict = simplify(pres)
    relators = pres.serialized_relators()
    return (
        relators,
        check.w,
        check.f,
        verdict.divisors,
        verdict.tag,
        str(classify(params.braid)),
        examples.label(linking_matrix(params), relators),
    )


def run_tables(
    tables: Iterable[int] = (1, 2, 3),
    param_range: tuple[int, int] = (-5, 5),
    symmetries: str = "all",
    mirror: bool = False,
    jobs: int = 1,
) -> Iterator[ReportRow]:
    """The report rows in task order, as an iterator.  The arguments are
    checked and the example tables read and indexed before this returns;
    the chain runs as the rows are taken."""
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    tasks = build_tasks(tables, param_range, symmetries, mirror)
    return _rows(tasks, ExampleIndex(param_range), jobs)


def _fork_map(todo: list[HexFilling], examples: ExampleIndex, cpus: list[int], workers: int):
    """``_run_filling`` of each filling of ``todo``, run by ``min(workers, len(todo))``
    forked children when that is more than one: child ``k`` is pinned to
    ``cpus[k]``, best effort, as the scheduler may leave forked children
    sharing one CPU; it runs ``todo[k::workers]`` and sends its results
    back through a pipe as ``marshal`` data.  The results come back in
    ``todo`` order, and no child outlives the call.  A child that raises
    or is killed sends no complete results; as the chain is pure, ``todo``
    is then run again here, serially: that raises exactly the error a
    ``jobs=1`` run raises, or gives its results if the failure was the
    child's own.  The program starts no thread, so the children are forked
    from a process with one thread."""
    workers = min(workers, len(todo))
    if workers < 2:
        return map(_run_filling, todo, itertools.repeat(examples))
    pids, readers = [], []
    try:
        for k in range(workers):
            read_end, write_end = os.pipe()
            readers.append(open(read_end, "rb"))
            with open(write_end, "wb") as writer:
                pid = os.fork()
                if pid == 0:
                    _child(todo[k::workers], examples, cpus[k], writer)
            pids.append(pid)
        payloads = [reader.read() for reader in readers]
    finally:
        for reader in readers:
            reader.close()
        for pid in pids:
            os.kill(pid, 9)  # SIGKILL; importing signal costs a run 1 ms
            os.waitpid(pid, 0)
    results: list = [None] * len(todo)
    try:
        for k, payload in enumerate(payloads):
            results[k::workers] = marshal.loads(payload)
    except (EOFError, ValueError):  # an empty or cut payload
        return list(map(_run_filling, todo, itertools.repeat(examples)))
    return results


def _child(part: list[HexFilling], examples: ExampleIndex, cpu: int, writer) -> None:
    """A forked child's whole life: it writes the results of ``part``, or
    nothing if a filling raises, and leaves through ``os._exit``, so it
    runs none of the parent's ``finally`` blocks (such as the removal of a
    partial ``--out`` file) and flushes none of the output buffers it
    inherited."""
    try:
        try:
            os.sched_setaffinity(0, {cpu})
        except (AttributeError, OSError):
            pass
        writer.write(marshal.dumps([_run_filling(filling, examples) for filling in part]))
        writer.flush()
    finally:
        os._exit(0)


def _rows(tasks, examples, jobs) -> Iterator[ReportRow]:
    cache: dict[HexFilling, tuple] = {}
    try:
        cpus = sorted(os.sched_getaffinity(0))
    except AttributeError:  # no affinity calls on this platform
        cpus = list(range(os.cpu_count() or 1))
    workers = min(jobs, len(cpus)) if hasattr(os, "fork") else 1
    while block := list(itertools.islice(tasks, BLOCK_TASKS)):
        todo = [f for f in dict.fromkeys(task.filling for task in block) if f not in cache]
        for filling, result in zip(todo, _fork_map(todo, examples, cpus, workers)):
            cache[filling] = result
        for task in block:
            yield ReportRow(*task, *cache[task.filling])
        # one pass: deleting the first key again and again rescans the
        # deleted slots at the front of the dict
        for filling in list(itertools.islice(cache, max(0, len(cache) - CACHE_FILLINGS))):
            del cache[filling]


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


def example_index(param_range: tuple[int, int]) -> dict[tuple[str, ...], str]:
    """Map every example instance's serialized triple to the coordinates of
    the first instance in table order with it; every instance is spelled."""
    index: dict[tuple[str, ...], str] = {}
    for row in ExampleIndex(param_range).rows:
        for assignment, _ in row.instances:
            index.setdefault(row.triple(assignment), row.label)
    return index


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
    as in ``run_tables``.  Its triple is generated only when its linking
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


def _row_cells(row: ReportRow) -> list[str]:
    return [
        str(row.table),
        str(row.row),
        format_assignment(row.assignment),
        row.branch or "-",
        str(row.symmetry),
        "1" if row.mirrored else "0",
        str(row.filling),
        row.relators[0],
        row.relators[1],
        row.relators[2],
        "true" if row.artin_w else "false",
        "true" if row.artin_f else "false",
        ",".join(str(d) for d in row.divisors),
        row.verdict,
        row.braid_class,
        row.example_match or "-",
    ]


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


def report_lines(rows: Iterable[ReportRow], as_json: bool = False) -> Iterator[str]:
    """The report, one chunk per row, as :func:`_table_lines` writes it."""
    return _table_lines(TSV_COLUMNS, map(_row_cells, rows), as_json)


def report_tsv(rows: Iterable[ReportRow]) -> str:
    return "".join(report_lines(rows))


def report_json(rows: Iterable[ReportRow]) -> str:
    return "".join(report_lines(rows, as_json=True))


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
