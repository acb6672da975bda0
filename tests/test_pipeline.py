import functools
import json
import multiprocessing
import os
import random
import subprocess
import sys
import threading

import pytest

import oracles
from artinhexa import pipeline, triviality
from artinhexa.artin import gen_from_hex, gen_from_params, verify_artin
from artinhexa.braids import classify
from artinhexa.hexa import HexFilling, to_surgery
from artinhexa.pipeline import (
    TSV_COLUMNS,
    ExampleMatch,
    ReportRow,
    _row_cells,
    assignments_for,
    build_tasks,
    example_index,
    match_examples,
    match_lines,
    matches_tsv,
    report_json,
    report_tsv,
    run_tables,
)
from artinhexa.triviality import DEFAULT_BUDGET, simplify

SMALL = dict(tables=(1,), param_range=(-1, 1), symmetries="id")


def reference_run_tables(tables, param_range, symmetries, mirror, budget=DEFAULT_BUDGET):
    """``run_tables`` as a list: every task, then the cells of every distinct
    filling, then every row.  The oracle for the streamed sweep."""
    tasks = list(build_tasks(tables, param_range, symmetries, mirror))
    cells = {}
    for filling in dict.fromkeys(task.filling for task in tasks):
        pres = gen_from_hex(filling)
        check = verify_artin(pres)
        verdict = simplify(pres, budget)
        cells[filling] = dict(
            relators=pres.serialized_relators(),
            artin_w=check.w,
            artin_f=check.f,
            divisors=verdict.divisors,
            verdict=verdict.tag,
            braid_class=str(classify(to_surgery(filling).braid)),
        )
    index = example_index(param_range)
    return [
        ReportRow(
            **task._asdict(),
            **cells[task.filling],
            example_match=index.get(cells[task.filling]["relators"], ""),
        )
        for task in tasks
    ]


def reference_report_tsv(rows):
    lines = ["\t".join(TSV_COLUMNS)]
    lines.extend("\t".join(_row_cells(row)) for row in rows)
    return "\n".join(lines) + "\n"


def reference_report_json(rows):
    payload = [dict(zip(TSV_COLUMNS, _row_cells(row))) for row in rows]
    return json.dumps(payload, indent=2) + "\n"


@functools.lru_cache(maxsize=None)
def reference_reports(mirror):
    """Tables 1 at -1..1 under all symmetries: 632 distinct fillings with
    the mirror on, and 4608 rows, more than one block."""
    rows = reference_run_tables((1,), (-1, 1), "all", mirror)
    return reference_report_tsv(rows), reference_report_json(rows)


@pytest.fixture
def chain_calls(monkeypatch):
    """The surgery parameters of the fillings sent through the chain, in
    order; ``to_surgery`` is one-to-one, so they count the fillings."""
    calls = []

    def counting(params):
        calls.append(params)
        return gen_from_params(params)

    monkeypatch.setattr(pipeline, "gen_from_params", counting)
    return calls


@pytest.fixture
def fake_pool(monkeypatch):
    """``multiprocessing.Pool`` replaced by a pool started in no process.  It
    runs the initializer once per worker with each pin recorded, not made,
    and computes ``map``'s chunks in a shuffled order.  The value is a list
    of ``(workers, pinned CPUs)``, one per pool."""
    pools = []

    class FakePool:
        def __init__(self, processes, initializer, initargs):
            pinned = []
            with monkeypatch.context() as m:
                m.setattr(os, "sched_setaffinity", lambda pid, cpus: pinned.extend(cpus))
                for _ in range(processes):
                    initializer(*initargs)
            pools.append((processes, pinned))

        def map(self, func, iterable, chunksize):
            items = list(iterable)
            chunks = [items[i:i + chunksize] for i in range(0, len(items), chunksize)]
            order = list(range(len(chunks)))
            random.Random(len(items)).shuffle(order)
            done = {i: list(map(func, chunks[i])) for i in order}
            return [result for i in range(len(chunks)) for result in done[i]]

        def terminate(self):
            pass

    monkeypatch.setattr(multiprocessing, "Pool", FakePool)
    return pools


@pytest.fixture(scope="module")
def small_report():
    return list(run_tables(**SMALL))


def test_assignments_for():
    assert list(assignments_for((), (-5, 5))) == [()]
    assert list(assignments_for(("gamma",), (-1, 1))) == [
        (("gamma", -1),),
        (("gamma", 0),),
        (("gamma", 1),),
    ]
    with pytest.raises(ValueError):
        assignments_for((), (3, 2))


def test_task_order_is_canonical():
    tasks = build_tasks(**SMALL)
    keys = [(t.table, t.row, t.assignment, t.branch, t.symmetry, t.mirrored) for t in tasks]
    assert keys == sorted(keys)
    assert len(keys) == len(set(keys))


def test_table1_row1_first_branch_is_example_table5_row1(small_report):
    first = small_report[0]
    assert (first.table, first.row, first.branch, first.symmetry) == (1, 1, "+++", 1)
    assert first.filling.as_tuple() == (1, 1, 1, 0, 0, 0)
    assert first.relators == ("x1^-1", "x2^-1*x3^-1*x2^-1", "x3^-1*x2^-1")
    assert first.artin_w
    assert first.verdict == "Trivial"
    assert first.divisors == (1, 1, 1)
    assert first.example_match == "5:1"


def test_trivial_verdicts_have_unit_divisors(small_report):
    for row in small_report:
        if row.verdict == "Trivial":
            assert row.divisors == (1, 1, 1)


def test_w_identity_holds_throughout(small_report):
    assert all(row.artin_w for row in small_report)


def test_report_serialization_shapes(small_report):
    tsv = report_tsv(small_report)
    lines = tsv.strip().split("\n")
    assert lines[0].split("\t") == list(pipeline.TSV_COLUMNS)
    assert len(lines) == len(small_report) + 1
    js = report_json(small_report)
    payload = json.loads(js)
    assert len(payload) == len(small_report)
    assert payload[0]["filling"] == "1,1,1,0,0,0"
    # the streamed JSON chunks join to one json.dumps of the whole payload
    for rows in (small_report, small_report[:1], []):
        assert report_json(rows) == reference_report_json(rows)
        assert report_tsv(rows) == reference_report_tsv(rows)
    assert report_json([]) == "[]\n"


def test_jobs_do_not_change_report():
    for mirror in (False, True):
        config = dict(tables=(1,), param_range=(-1, 1), symmetries="all", mirror=mirror)
        expected = reference_reports(mirror)
        for jobs in (1, 2, 4):
            rows = list(run_tables(**config, jobs=jobs))
            got = report_tsv(rows), report_json(rows)
            assert got == expected, f"mirror={mirror} jobs={jobs}"


@pytest.mark.parametrize(
    "jobs, cpus, workers",
    [
        (100_000, {0, 1, 2}, 3),
        (2, {0, 1, 2}, 2),
        (2, {1}, None),
        (8, 3, 3),
        (8, None, None),
        (1, {0, 1, 2, 3}, None),
    ],
    ids=["capped", "below-cap", "one-usable-cpu", "no-affinity", "cpu-count-unknown", "serial"],
)
def test_pool_size_is_capped_at_cpu_count(monkeypatch, fake_pool, jobs, cpus, workers):
    # the cap is the CPUs this process may run on (a set), or where the
    # platform cannot tell, the CPU count (a number or None)
    if isinstance(cpus, set):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
    else:
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    config = dict(tables=(1,), param_range=(0, 0), symmetries="id")
    got = report_tsv(run_tables(**config, jobs=jobs))
    assert fake_pool == ([] if workers is None else [(workers, list(range(workers)))])
    assert got == report_tsv(run_tables(**config, jobs=1))


def test_more_workers_than_this_host_has_keep_the_bytes(monkeypatch, fake_pool):
    # eight workers whatever this host has: each pinned to its own CPU, and
    # their chunks finished out of order
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {7, 6, 5, 4, 3, 2, 1, 0})
    for mirror in (False, True):
        config = dict(tables=(1,), param_range=(-1, 1), symmetries="all", mirror=mirror)
        rows = list(run_tables(**config, jobs=8))
        assert (report_tsv(rows), report_json(rows)) == reference_reports(mirror)
    assert fake_pool == [(8, list(range(8)))] * 2


def test_pinning_hands_out_cpus_in_turn_and_never_waits(monkeypatch):
    pinned = []
    monkeypatch.setattr(os, "sched_setaffinity", lambda pid, cpus: pinned.append((pid, cpus)))
    counter = multiprocessing.Value("i", 0)
    cpus = [2, 5, 7]
    for _ in cpus:
        pipeline._pin_worker(counter, cpus)
    assert pinned == [(0, {2}), (0, {5}), (0, {7})]

    # a replacement worker comes after the first ones; its pin fails here
    def refuse(pid, cpus):
        pinned.append((pid, cpus))
        raise OSError(22, "Invalid argument")

    monkeypatch.setattr(os, "sched_setaffinity", refuse)
    errors = []

    def replacement():
        try:
            pipeline._pin_worker(counter, cpus)
        except Exception as exc:
            errors.append(exc)

    late = threading.Thread(target=replacement)
    late.start()
    late.join(timeout=10)
    assert not late.is_alive() and errors == []
    assert pinned[-1] == (0, {2})
    # and where the platform has no affinity calls, nothing is pinned
    monkeypatch.delattr(os, "sched_setaffinity")
    pipeline._pin_worker(counter, cpus)
    assert counter.value == 5


def test_failed_pins_neither_hang_nor_change_the_report():
    # a real pool of two workers, forked from a parent whose every pin
    # fails; a pool that restarts its workers for ever shows as a timeout
    code = (
        "import os, sys\n"
        "def refuse(pid, cpus):\n"
        "    os.write(2, b'refused\\n')\n"
        "    raise OSError(22, 'Invalid argument')\n"
        "os.sched_setaffinity = refuse\n"
        "os.sched_getaffinity = lambda pid: {0, 1}\n"
        "from artinhexa.pipeline import report_tsv, run_tables\n"
        "rows = run_tables(tables=(1,), param_range=(-1, 1), symmetries='all', jobs=2)\n"
        "sys.stdout.write(report_tsv(rows))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(pipeline.__file__)))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120, check=True
    )
    assert out.stderr.split() == ["refused"] * 2
    assert out.stdout == reference_reports(False)[0]


def test_first_row_runs_the_chain_on_one_block(monkeypatch, chain_calls):
    monkeypatch.setattr(pipeline, "BLOCK_TASKS", 256)
    rows = run_tables(param_range=(-5, 5), symmetries="all", jobs=1)
    assert chain_calls == []
    first = next(rows)
    assert (first.table, first.row, first.symmetry) == (1, 1, 1)
    assert 0 < len(chain_calls) <= 256
    rows.close()


def test_cache_eviction_keeps_the_bytes(monkeypatch, chain_calls):
    # a cache far smaller than a block: it is cut back after each block,
    # so fillings of earlier blocks come back through the chain later
    monkeypatch.setattr(pipeline, "BLOCK_TASKS", 512)
    monkeypatch.setattr(pipeline, "CACHE_FILLINGS", 16)
    config = dict(tables=(1,), param_range=(-1, 1), symmetries="all", mirror=True)
    rows = list(run_tables(**config, jobs=1))
    assert (report_tsv(rows), report_json(rows)) == reference_reports(True)
    assert len(chain_calls) > len(set(chain_calls)) == 632
    # and with a pool, whose workers' chain calls are not counted here
    rows = list(run_tables(**config, jobs=2))
    assert (report_tsv(rows), report_json(rows)) == reference_reports(True)


def test_cache_drops_its_oldest_fillings_first(monkeypatch, chain_calls):
    # the chain calls equal those of a reference cache that drops its first
    # key one at a time until it is back at its size
    monkeypatch.setattr(pipeline, "BLOCK_TASKS", 512)
    monkeypatch.setattr(pipeline, "CACHE_FILLINGS", 16)
    config = dict(tables=(1,), param_range=(-1, 1), symmetries="all", mirror=True)
    list(run_tables(**config, jobs=1))
    fillings = [task.filling for task in build_tasks(**config)]
    expected, kept = [], {}
    for start in range(0, len(fillings), 512):
        new = [f for f in dict.fromkeys(fillings[start:start + 512]) if f not in kept]
        expected += map(to_surgery, new)
        kept.update(dict.fromkeys(new))
        while len(kept) > 16:
            del kept[next(iter(kept))]
    assert chain_calls == expected


def test_chain_runs_once_per_distinct_filling(monkeypatch):
    calls = []
    smith_calls = []
    smith_invariants = triviality.smith_invariants

    def counting(params):
        calls.append(params)
        return gen_from_params(params)

    def counting_smith(rows, width):
        smith_calls.append(rows)
        return smith_invariants(rows, width)

    monkeypatch.setattr(pipeline, "gen_from_params", counting)
    monkeypatch.setattr(triviality, "smith_invariants", counting_smith)
    rows = list(run_tables(
        tables=(1,), param_range=(-1, 1), symmetries="all", mirror=True, jobs=1,
    ))
    assert len(rows) == 4608
    assert len(calls) == len(set(calls)) == len({r.filling for r in rows}) == 632
    # the divisors come from the search's own Smith form
    assert len(smith_calls) == 632


def test_mirror_flag_adds_rows():
    plain = list(run_tables(**SMALL, mirror=False))
    mirrored = list(run_tables(**SMALL, mirror=True))
    assert len(mirrored) == 2 * len(plain)
    assert any(r.mirrored for r in mirrored)


def test_mirror_rows_agree_with_their_originals():
    # negating all six parameters negates the exponent-sum matrix, so the
    # divisors must agree; W, the braid class and the decided verdicts are
    # the rest of the mirror convention
    rows = list(run_tables(tables=(1, 2, 3), param_range=(-1, 1), symmetries="id", mirror=True))
    def key(r):
        return (r.table, r.row, r.assignment, r.branch, r.symmetry)

    mirrors = {key(r): r for r in rows if r.mirrored}
    pairs = [(r, mirrors[key(r)]) for r in rows if not r.mirrored]
    assert 2 * len(pairs) == len(rows)
    for plain, mirrored in pairs:
        assert mirrored.filling == plain.filling.mirror()
        assert mirrored.divisors == plain.divisors
        assert mirrored.artin_w == plain.artin_w
        assert mirrored.braid_class == plain.braid_class
        assert {plain.verdict, mirrored.verdict} != {"Trivial", "NotTrivial"}


def test_example_index_contains_known_triples():
    index = example_index((-1, 1))
    assert index[("x1^-1", "x2^-1*x3^-1*x2^-1", "x3^-1*x2^-1")] == "5:1"
    assert index[("x1^-1", "x2^-1", "x3^-1")] == "5:14"


@pytest.mark.parametrize("param_range", [(0, 0), (-1, 1), (-8, 2), (-5, 5)])
def test_example_index_equals_the_oracle(monkeypatch, param_range):
    items = list(example_index(param_range).items())
    monkeypatch.setattr(pipeline, "_example_instances", oracles.example_instances)
    assert items == list(example_index(param_range).items())


def test_match_examples_equals_the_oracle(monkeypatch):
    tasks = list(build_tasks(param_range=(-1, 1), symmetries="all"))
    matches = match_examples(tasks, (-1, 1))
    monkeypatch.setattr(pipeline, "_example_instances", oracles.example_instances)
    assert matches == match_examples(tasks, (-1, 1))


@pytest.mark.parametrize(
    "stream, kwargs",
    [
        (build_tasks, dict(param_range=(-1, 1), symmetries="all")),
        (build_tasks, dict(param_range=(0, 0), symmetries="id", mirror=True)),
        (build_tasks, dict(param_range=(-5, 5), symmetries="id")),
        # report rows are tasks too; the benchmark's traced run passes them
        (run_tables, dict(param_range=(-1, 1), symmetries="all")),
    ],
    ids=["tasks", "tasks-mirror", "tasks-wide", "report-rows"],
)
def test_match_examples_equals_the_reference_matcher(stream, kwargs):
    # the reference holds one task per distinct filling before matching
    tasks = list(stream(**kwargs))
    expected = oracles.match_examples(tasks, kwargs["param_range"])
    assert sum(m.matched for m in expected) > 0
    assert match_examples(tasks, kwargs["param_range"]) == expected


def test_match_examples_reports_the_first_task_of_a_shared_triple(monkeypatch):
    # distinct fillings of the tables give distinct triples, so the rule is
    # pinned under a surgery map that merges fillings equal up to signs;
    # the matcher builds its triples from the surgery parameters
    def absolute(filling):
        return HexFilling(*(abs(v) for v in filling.as_tuple()))

    tasks = list(build_tasks(param_range=(-1, 1), symmetries="all"))
    monkeypatch.setattr(pipeline, "to_surgery", lambda filling: to_surgery(absolute(filling)))
    monkeypatch.setattr(oracles, "gen_from_hex", lambda filling: gen_from_hex(absolute(filling)))
    expected = oracles.match_examples(tasks, (-1, 1))
    assert sum(m.matched for m in expected) > 0
    assert match_examples(tasks, (-1, 1)) == expected


def test_match_examples_finds_table5_and_flags_corruption(small_report):
    matches = [m for m in match_examples(small_report, (-1, 1)) if m.table == 5]
    by_row = {m.row: m for m in matches}
    assert by_row[1].matched == by_row[1].instances > 0
    assert "table1 row 1" in by_row[1].first_match
    # negative control: a corrupted triple must not match anything
    corrupted = ("x1^-1", "x2^-1*x3^-1*x2^-1", "x3^-1*x2^-1*x1^-1")
    assert corrupted not in {r.relators for r in small_report}
    text = matches_tsv(matches)
    assert text.startswith("example_table\trow")
    # tasks carry no report cells; their relators give the same matches
    assert [m for m in match_examples(build_tasks(**SMALL), (-1, 1)) if m.table == 5] == matches


def test_match_lines_equal_the_reference_writers():
    # match-examples writes through the report writer: the TSV needs its
    # cells as strings and "-" for an unmatched row, the JSON its numbers
    # and "" for it
    unmatched = ExampleMatch(6, 12, False, 3, 0, "")
    for matches in (
        match_examples(build_tasks(param_range=(-1, 1), symmetries="all"), (-1, 1)),
        match_examples(build_tasks(param_range=(0, 0), symmetries="id", mirror=True), (0, 0)),
        [unmatched, ExampleMatch(5, 1, True, 1, 1, "table1 row 1 sym 1")],
        [],
    ):
        assert "".join(match_lines(matches)) == matches_tsv(matches) == oracles.matches_tsv(matches)
        assert "".join(match_lines(matches, as_json=True)) == oracles.matches_json(matches)


def test_unknown_symmetry_mode_rejected():
    with pytest.raises(ValueError):
        build_tasks(symmetries="some")


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(symmetries="some"),
        dict(tables=(1, 9)),
        dict(param_range=(2, 1)),
        dict(tables=(1, 1)),
        dict(jobs=0),
        dict(budget=-1),
    ],
    ids=["symmetries", "table", "range", "repeated-table", "jobs", "budget"],
)
def test_bad_arguments_raise_before_any_row(kwargs):
    # the tasks and rows are lazy, but their arguments are checked on call
    if not {"jobs", "budget"} & kwargs.keys():
        with pytest.raises(ValueError):
            build_tasks(**kwargs)
    with pytest.raises(ValueError):
        run_tables(**kwargs)
