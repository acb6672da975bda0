"""Batch verification pipeline over the parameter tables.

Every task of ``matching.build_tasks`` becomes one report row.  Symmetry
images often coincide, so the full chain (presentation generation, both
Artin identities, the triviality search with its abelian invariants, and
the hyperbolicity classification of the associated surgery braid) runs once
per distinct filling and its cells are shared by every row with that
filling.  Rows come out in a fixed canonical order whatever the worker
count, so reports are byte-identical across ``jobs`` settings: at
``jobs`` above 1, each block's new fillings are split among child
processes forked for that block, and their results are put back in order.
``_run_filling`` also labels a filling with the first example instance
that has its relators, through ``matching.ExampleIndex``, so at ``jobs``
above 1 the workers do the lookup.

The sweep is streamed: tasks are generated lazily, rows are yielded block
by block, and the cells of recent fillings are kept in a cache of fixed
size, so memory does not grow with the parameter range.
"""

from __future__ import annotations

import itertools
import marshal
import os
from dataclasses import dataclass
from typing import Iterable, Iterator

from .artin import gen_from_params, verify_artin
from .braids import classify
from .hexa import HexFilling, linking_matrix, to_surgery
from .matching import (  # match_examples and matches_tsv: bench/traced.py reads them here
    Assignment,
    ExampleIndex,
    _table_lines,
    build_tasks,
    format_assignment,
    match_examples,
    matches_tsv,
)
from .triviality import simplify

# Tasks taken per block: the block's new fillings are split among workers
# forked for the block, so at benchmark scale each run forks them once.
BLOCK_TASKS = 4096
# Fillings whose cells are kept from one block to the next; the oldest is
# dropped first.  The chain is
# pure, so a dropped filling only costs a second run of the chain.
CACHE_FILLINGS = 1 << 16


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


def example_index(param_range: tuple[int, int]) -> dict[tuple[str, ...], str]:
    """Map every example instance's serialized triple to the coordinates of
    the first instance in table order with it; every instance is spelled."""
    index: dict[tuple[str, ...], str] = {}
    for row in ExampleIndex(param_range).rows:
        for assignment, _ in row.instances:
            index.setdefault(row.triple(assignment), row.label)
    return index


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


def report_lines(rows: Iterable[ReportRow], as_json: bool = False) -> Iterator[str]:
    """The report, one chunk per row, as :func:`_table_lines` writes it."""
    return _table_lines(TSV_COLUMNS, map(_row_cells, rows), as_json)


def report_tsv(rows: Iterable[ReportRow]) -> str:
    return "".join(report_lines(rows))


def report_json(rows: Iterable[ReportRow]) -> str:
    return "".join(report_lines(rows, as_json=True))
