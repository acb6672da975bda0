import functools
import json
import os
import signal
import subprocess
import sys
import time
import types

import pytest

import oracles
from artinhexa import artin, pipeline, triviality
from artinhexa.artin import gen_from_hex, gen_from_params, verify_artin
from artinhexa.braids import classify
from artinhexa.hexa import HexFilling, linking_matrix, to_surgery
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
from artinhexa.tables import EXAMPLE_TABLES, load_examples
from artinhexa.triviality import simplify

SMALL = dict(tables=(1,), param_range=(-1, 1), symmetries="id")


def reference_run_tables(tables, param_range, symmetries, mirror):
    """``run_tables`` as a list: every task, then the cells of every distinct
    filling, then every row.  The oracle for the streamed sweep."""
    tasks = list(build_tasks(tables, param_range, symmetries, mirror))
    cells = {}
    for filling in dict.fromkeys(task.filling for task in tasks):
        pres = gen_from_hex(filling)
        check = verify_artin(pres)
        verdict = simplify(pres)
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
def children(monkeypatch, tmp_path):
    """Watches the forked workers: ``forks()`` counts the children forked,
    and ``pins()`` lists, sorted, the CPUs they asked to be pinned to.  A
    child's memory is its own, so each child records its pin, which is not
    made, in a file."""
    log = tmp_path / "pins"
    log.touch()
    forks = []
    fork = os.fork

    def counting_fork():
        forks.append(1)
        return fork()

    def recording_pin(pid, cpus):
        fd = os.open(log, os.O_WRONLY | os.O_APPEND)
        os.write(fd, b"".join(b"%d\n" % cpu for cpu in cpus))
        os.close(fd)

    monkeypatch.setattr(os, "fork", counting_fork)
    monkeypatch.setattr(os, "sched_setaffinity", recording_pin)
    return types.SimpleNamespace(
        forks=lambda: len(forks), pins=lambda: sorted(map(int, log.read_text().split()))
    )


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


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
        (2, {1}, 0),
        (8, 3, 3),
        (8, None, 0),
        (1, {0, 1, 2, 3}, 0),
    ],
    ids=["capped", "below-cap", "one-usable-cpu", "no-affinity", "cpu-count-unknown", "serial"],
)
def test_pool_size_is_capped_at_cpu_count(monkeypatch, children, jobs, cpus, workers):
    # the cap is the CPUs this process may run on (a set), or where the
    # platform cannot tell, the CPU count (a number or None); the one block
    # holds 46 fillings, so every worker gets some
    if isinstance(cpus, set):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
    else:
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    config = dict(tables=(1,), param_range=(0, 0), symmetries="id")
    got = report_tsv(run_tables(**config, jobs=jobs))
    assert (children.forks(), children.pins()) == (workers, list(range(workers)))
    assert got == report_tsv(run_tables(**config, jobs=1))


def test_more_workers_than_this_host_has_keep_the_bytes(monkeypatch, children):
    # eight workers whatever this host has, each pinned to its own CPU; the
    # mirrored run's second block has no new filling, so forks none
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {7, 6, 5, 4, 3, 2, 1, 0})
    for mirror in (False, True):
        config = dict(tables=(1,), param_range=(-1, 1), symmetries="all", mirror=mirror)
        rows = list(run_tables(**config, jobs=8))
        assert (report_tsv(rows), report_json(rows)) == reference_reports(mirror)
    assert (children.forks(), children.pins()) == (16, sorted(list(range(8)) * 2))


def test_failed_pins_neither_hang_nor_change_the_report():
    # two workers, forked from a parent whose every pin fails; a worker
    # that waits on its pin shows as a timeout
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


def test_a_worker_error_is_the_error_of_a_serial_run(monkeypatch):
    # the second and third fillings fail: the third is the first of worker
    # 0 to fail, but the second comes first in a serial run
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    config = dict(tables=(1,), param_range=(0, 0), symmetries="id")
    todo = list(dict.fromkeys(task.filling for task in build_tasks(**config)))
    run_filling = pipeline._run_filling

    def failing(filling, examples):
        if filling in todo[1:3]:
            raise artin.PresentationError(f"refused {filling}")
        return run_filling(filling, examples)

    monkeypatch.setattr(pipeline, "_run_filling", failing)
    for jobs in (1, 2):
        with pytest.raises(artin.PresentationError) as info:
            list(run_tables(**config, jobs=jobs))
        assert str(info.value) == f"refused {todo[1]}"
    assert_no_child_left()


def test_no_worker_outlives_its_block(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    config = dict(tables=(1,), param_range=(-1, 1), symmetries="all", mirror=True)
    assert len(list(run_tables(**config, jobs=2))) == 4608
    assert_no_child_left()
    rows = run_tables(**config, jobs=2)
    next(rows)
    rows.close()
    assert_no_child_left()
    with monkeypatch.context() as m:
        m.setattr(artin, "MAX_PRESENTATION_SYLLABLES", 40)
        with pytest.raises(artin.PresentationError, match="above the limit 40"):
            list(run_tables(**config, jobs=2))
    assert_no_child_left()
    # a worker killed before it sends its results: the parent runs the
    # block again itself and gives the rows of a serial run
    parent, run_filling = os.getpid(), pipeline._run_filling

    def killed_in_a_worker(filling, examples):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return run_filling(filling, examples)

    monkeypatch.setattr(pipeline, "_run_filling", killed_in_a_worker)
    assert report_tsv(run_tables(**config, jobs=2)) == report_tsv(run_tables(**config, jobs=1))
    assert_no_child_left()


def test_workers_are_killed_when_the_parent_stops_reading(monkeypatch):
    # the parent's read fails while its two workers are still at work:
    # they are killed and reaped at once, not waited for
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(pipeline, "_run_filling", lambda filling, examples: time.sleep(5))

    class FailingReader:
        def __init__(self, file):
            self.close = file.close

        def read(self):
            raise OSError(4, "Interrupted system call")

    def failing_open(fd, mode):
        return FailingReader(open(fd, mode)) if mode == "rb" else open(fd, mode)

    monkeypatch.setattr(pipeline, "open", failing_open, raising=False)
    start = time.monotonic()
    with pytest.raises(OSError, match="Interrupted system call"):
        list(run_tables(tables=(1,), param_range=(0, 0), symmetries="id", jobs=2))
    assert time.monotonic() - start < 60
    assert_no_child_left()


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
    # and with forked workers, whose chain calls are not counted here
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
def test_example_instances_are_summed_as_the_spelled_words(param_range):
    # the exponent sums and syllable counts come from a walk over the
    # factors; the oracle spells every instance and abelianizes its words
    for table in EXAMPLE_TABLES:
        for example in load_examples(table):
            got = list(pipeline._example_instances(example, param_range))
            assert got == list(oracles.example_instances(example, param_range))


@pytest.mark.parametrize(
    "config",
    [((1, 3), (0, 0), "all"), ((2, 3), (-8, 2), "id")],
    ids=["sweep", "long-words"],
)
def test_lazy_example_lookup_equals_the_full_index(config):
    # run-tables labels a filling by its linking matrix and spells an
    # example instance only when a filling has its matrix
    param_range = config[1]
    examples, index = pipeline.ExampleIndex(param_range), example_index(param_range)
    labels = []
    for filling in dict.fromkeys(task.filling for task in build_tasks(*config)):
        params = to_surgery(filling)
        triple = gen_from_params(params).serialized_relators()
        labels.append(examples.label(linking_matrix(params), triple))
        assert labels[-1] == index.get(triple, "")
    assert any(labels)
    spelled = sum(len(row._triples) for row in examples.rows)
    assert 0 < spelled < sum(len(row.instances) for row in examples.rows)


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
    ],
    ids=["symmetries", "table", "range", "repeated-table", "jobs"],
)
def test_bad_arguments_raise_before_any_row(kwargs):
    # the tasks and rows are lazy, but their arguments are checked on call
    if "jobs" not in kwargs:
        with pytest.raises(ValueError):
            build_tasks(**kwargs)
    with pytest.raises(ValueError):
        run_tables(**kwargs)
