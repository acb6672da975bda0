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
``match_examples`` compares tasks with the example tables by relators only,
and builds a presentation only for a filling whose closed-form linking
matrix equals the exponent-sum matrix of some example instance.

The sweep is streamed: tasks are generated lazily, rows are yielded block
by block, and the cells of recent fillings are kept in a cache of fixed
size, so memory does not grow with the parameter range.
"""

from __future__ import annotations

import itertools
import json
import marshal
import os
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, Sequence

from .artin import check_size, gen_from_params, linking_matrix, verify_artin
from .braids import classify
from .hexa import HexFilling, HexSymmetry, instantiate_row, to_surgery
from .tables import (
    EXAMPLE_TABLES,
    ExampleRow,
    identity_symmetry,
    load_examples,
    load_symmetries,
    load_table,
)
from .triviality import simplify
from .words import abelianize, serialize_word

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


def _run_filling(filling: HexFilling) -> tuple:
    """The report cells that depend on the filling alone, in ``ReportRow``
    field order from ``relators`` to ``braid_class``."""
    params = to_surgery(filling)
    pres = gen_from_params(params)
    check = verify_artin(pres)
    verdict = simplify(pres)
    return (
        pres.serialized_relators(),
        check.w,
        check.f,
        verdict.divisors,
        verdict.tag,
        str(classify(params.braid)),
    )


def run_tables(
    tables: Iterable[int] = (1, 2, 3),
    param_range: tuple[int, int] = (-5, 5),
    symmetries: str = "all",
    mirror: bool = False,
    jobs: int = 1,
) -> Iterator[ReportRow]:
    """The report rows in task order, as an iterator.  The arguments are
    checked and the example tables read before this returns; the chain runs
    as the rows are taken."""
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    tasks = build_tasks(tables, param_range, symmetries, mirror)
    return _rows(tasks, example_index(param_range), jobs)


def _fork_map(todo: list[HexFilling], cpus: list[int], workers: int):
    """``map(_run_filling, todo)``, run by ``min(workers, len(todo))``
    forked children when that is more than one: child ``k`` is pinned to
    ``cpus[k % len(cpus)]``, best effort, as the scheduler may leave forked
    children sharing one CPU; it runs ``todo[k::workers]`` and sends its
    results back through a pipe as ``marshal`` data, which unlike
    ``pickle`` costs no import; only an error is pickled.  The results
    come back in ``todo`` order.  A child's error is raised here
    unchanged, the one of the earliest filling that failed, as a serial
    run would raise it; and no child outlives the call.  The program
    starts no thread, so the children are forked from a process with one
    thread."""
    workers = min(workers, len(todo))
    if workers < 2:
        return map(_run_filling, todo)
    pids, readers = [], []
    try:
        for k in range(workers):
            read_end, write_end = os.pipe()
            readers.append(open(read_end, "rb"))
            with open(write_end, "wb") as writer:
                pid = os.fork()
                if pid == 0:
                    _child(todo[k::workers], cpus[k % len(cpus)], writer)
            pids.append(pid)
        payloads = [reader.read() for reader in readers]
    finally:
        for reader in readers:
            reader.close()
        for pid in pids:
            os.kill(pid, 9)  # SIGKILL; importing signal costs a run 1 ms
            os.waitpid(pid, 0)
    results: list = [None] * len(todo)
    failures = []
    for k, payload in enumerate(payloads):
        try:
            failed, value = marshal.loads(payload)
        except (EOFError, ValueError):
            raise ChildProcessError("a worker process ended without its results") from None
        if failed is None:
            results[k::workers] = value
        else:  # the failure's index in todo, and the pickled error
            import pickle

            failures.append((failed * workers + k, pickle.loads(value)))
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]
    return results


def _child(part: list[HexFilling], cpu: int, writer) -> None:
    """A forked child's whole life: it writes ``(None, results)``, or
    ``(i, pickled error)`` for the first filling ``part[i]`` that failed,
    and leaves through ``os._exit``, so it runs none of the parent's
    ``finally`` blocks (such as the removal of a partial ``--out`` file)
    and flushes none of the output buffers it inherited."""
    code = 1
    try:
        try:
            os.sched_setaffinity(0, {cpu})
        except (AttributeError, OSError):
            pass
        results = []
        try:
            for filling in part:
                results.append(_run_filling(filling))
            payload = marshal.dumps((None, results))
        except BaseException as exc:  # raised again by the parent
            import pickle

            payload = marshal.dumps((len(results), pickle.dumps(exc)))
        writer.write(payload)
        writer.flush()
        code = 0
    finally:
        os._exit(code)


def _rows(tasks, index, jobs) -> Iterator[ReportRow]:
    cache: dict[HexFilling, tuple] = {}
    try:
        cpus = sorted(os.sched_getaffinity(0))
    except AttributeError:  # no affinity calls on this platform
        cpus = list(range(os.cpu_count() or 1))
    workers = min(jobs, len(cpus)) if hasattr(os, "fork") else 1
    while block := list(itertools.islice(tasks, BLOCK_TASKS)):
        todo = [f for f in dict.fromkeys(task.filling for task in block) if f not in cache]
        for filling, result in zip(todo, _fork_map(todo, cpus, workers)):
            cache[filling] = (*result, index.get(result[0], ""))
        for task in block:
            yield ReportRow(*task, *cache[task.filling])
        # one pass: deleting the first key again and again rescans the
        # deleted slots at the front of the dict
        for filling in list(itertools.islice(cache, max(0, len(cache) - CACHE_FILLINGS))):
            del cache[filling]


def _example_instances(example: ExampleRow, param_range: tuple[int, int]):
    """Concrete relator triples of one printed example row; parametric rows
    are expanded over the same grid as their source table.  Each instance
    comes as its assignment, its serialized triple and its words.  A relator
    with no variable is instantiated and serialized once for the row."""
    fixed = [None if r.variables() else r.instantiate() for r in example.relators]
    texts = [None if w is None else serialize_word(w) for w in fixed]
    for assignment in assignments_for(example.variables(), param_range):
        env = dict(assignment)
        words = [r.instantiate(env) if w is None else w for r, w in zip(example.relators, fixed)]
        triple = tuple([serialize_word(w) if t is None else t for w, t in zip(words, texts)])
        yield assignment, triple, words


def example_index(param_range: tuple[int, int]) -> dict[tuple[str, str, str], str]:
    """Map reduced relator triples to their example-table coordinates."""
    index: dict[tuple[str, str, str], str] = {}
    for table in EXAMPLE_TABLES:
        for example in load_examples(table):
            for _, triple, _ in _example_instances(example, param_range):
                index.setdefault(triple, f"{table}:{example.row}")
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
    are read as a stream: what is kept is the fillings seen and one task per
    example triple.

    Each distinct filling is size-checked, so an oversized one is refused
    as in ``run_tables``.  Its triple is generated only when its linking
    matrix is the exponent-sum matrix of some example instance: equal
    triples have equal matrices, so no other filling can match.  An
    instance using a generator above x3 has no such matrix and matches
    nothing.
    """
    examples = []
    matrices = set()
    for table in EXAMPLE_TABLES:
        for example in load_examples(table):
            instances = []
            for assignment, triple, words in _example_instances(example, param_range):
                instances.append((assignment, triple))
                if max(w.max_generator() for w in words) <= 3:
                    matrices.add(tuple(abelianize(w, 3) for w in words))
            examples.append((table, example, instances))
    first = dict.fromkeys(triple for *_, instances in examples for _, triple in instances)
    seen: set[HexFilling] = set()
    for task in tasks:
        if task.filling in seen:
            continue
        seen.add(task.filling)
        params = to_surgery(task.filling)
        check_size(params)
        if linking_matrix(params) in matrices:
            triple = gen_from_params(params).serialized_relators()
            if triple in first and first[triple] is None:
                first[triple] = task
    out = []
    for table, example, instances in examples:
        hits = [(assignment, first[t]) for assignment, t in instances if first[t] is not None]
        location = ""
        if hits:
            assignment, hit = hits[0]
            location = f"table{hit.table} row {hit.row} sym {hit.symmetry}"
            location += f" branch {hit.branch}" if hit.branch else ""
            location += " at " + format_assignment(assignment) if assignment else ""
        out.append(ExampleMatch(
            table, example.row, not example.variables(), len(instances), len(hits), location
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
