import pytest

from artinhexa import pipeline, triviality
from artinhexa.artin import gen_from_hex
from artinhexa.pipeline import (
    assignments_for,
    build_tasks,
    example_index,
    match_examples,
    matches_tsv,
    report_json,
    report_tsv,
    run_tables,
)

SMALL = dict(tables=(1,), param_range=(-1, 1), symmetries="id")


@pytest.fixture(scope="module")
def small_report():
    return run_tables(**SMALL)


def test_assignments_for():
    assert assignments_for((), (-5, 5)) == [()]
    assert assignments_for(("gamma",), (-1, 1)) == [
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
    import json

    payload = json.loads(js)
    assert len(payload) == len(small_report)
    assert payload[0]["filling"] == "1,1,1,0,0,0"


def test_jobs_do_not_change_report():
    for mirror in (False, True):
        config = dict(tables=(1,), param_range=(-1, 1), symmetries="all", mirror=mirror)
        a = run_tables(**config, jobs=1)
        b = run_tables(**config, jobs=4)
        assert report_tsv(a) == report_tsv(b), f"mirror={mirror}"


def test_chain_runs_once_per_distinct_filling(monkeypatch):
    calls = []
    smith_calls = []
    smith_invariants = triviality.smith_invariants

    def counting(filling):
        calls.append(filling)
        return gen_from_hex(filling)

    def counting_smith(rows, width):
        smith_calls.append(rows)
        return smith_invariants(rows, width)

    monkeypatch.setattr(pipeline, "gen_from_hex", counting)
    monkeypatch.setattr(triviality, "smith_invariants", counting_smith)
    rows = run_tables(
        tables=(1,), param_range=(-1, 1), symmetries="all", mirror=True, jobs=1,
    )
    assert len(rows) == 4608
    assert len(calls) == len(set(calls)) == len({r.filling for r in rows}) == 632
    # the divisors come from the search's own Smith form
    assert len(smith_calls) == 632


def test_mirror_flag_adds_rows():
    plain = run_tables(**SMALL, mirror=False)
    mirrored = run_tables(**SMALL, mirror=True)
    assert len(mirrored) == 2 * len(plain)
    assert any(r.mirrored for r in mirrored)


def test_mirror_rows_agree_with_their_originals():
    # negating all six parameters negates the exponent-sum matrix, so the
    # divisors must agree; W, the braid class and the decided verdicts are
    # the rest of the mirror convention
    rows = run_tables(tables=(1, 2, 3), param_range=(-1, 1), symmetries="id", mirror=True)
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


def test_match_examples_finds_table5_and_flags_corruption(small_report):
    matches = [m for m in match_examples(small_report, (-1, 1)) if m.table == 5]
    by_row = {m.row: m for m in matches}
    assert by_row[1].fully_matched
    assert "table1 row 1" in by_row[1].first_match
    # negative control: a corrupted triple must not match anything
    corrupted = ("x1^-1", "x2^-1*x3^-1*x2^-1", "x3^-1*x2^-1*x1^-1")
    assert corrupted not in {r.relators for r in small_report}
    text = matches_tsv(matches)
    assert text.startswith("example_table\trow")
    # tasks carry no report cells; their relators give the same matches
    assert [m for m in match_examples(build_tasks(**SMALL), (-1, 1)) if m.table == 5] == matches


def test_unknown_symmetry_mode_rejected():
    with pytest.raises(ValueError):
        build_tasks(symmetries="some")
