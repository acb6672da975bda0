import pytest

from artinhexa import tables
from artinhexa.cli import main
from artinhexa.hexa import serialize_cell
from artinhexa.tables import (
    EXAMPLE_TABLES,
    PARAM_TABLES,
    TableError,
    load_examples,
    load_symmetries,
    load_table,
    read_data_text,
    symmetry_by_index,
)


def test_row_counts():
    assert len(load_table(1)) == 28
    assert len(load_table(2)) == 64
    assert len(load_table(3)) == 40
    assert len(load_symmetries()) == 24
    for t in EXAMPLE_TABLES:
        assert len(load_examples(t)) == 20


def test_column_orders_match_print():
    assert load_table(1)[0].column_order == ("eta", "beta", "alpha", "delta", "epsilon", "gamma")
    assert load_table(2)[0].column_order == ("eta", "alpha", "beta", "gamma", "delta", "epsilon")
    assert load_table(3)[0].column_order == ("delta", "eta", "alpha", "beta", "gamma", "epsilon")


def test_spot_check_printed_cells():
    t1 = {row.row: row for row in load_table(1)}
    assert tuple(map(serialize_cell, t1[13].cells)) == ("0", "0", "1", "-1", "±1-gamma", "gamma")
    assert tuple(map(serialize_cell, t1[1].cells)) == ("0", "±1", "±1", "0", "0", "±1")

    t2 = {row.row: row for row in load_table(2)}
    assert tuple(map(serialize_cell, t2[21].cells)) == ("0", "1", "-2", "gamma", "-3-gamma", "1")
    assert tuple(map(serialize_cell, t2[12].cells)) == ("0", "1", "beta", "gamma", "-1", "±1-gamma")

    t3 = {row.row: row for row in load_table(3)}
    assert tuple(map(serialize_cell, t3[15].cells)) == ("-1", "1", "alpha", "1-alpha", "-2", "1")
    # the known-inconsistent row is carried verbatim, never corrected
    assert tuple(map(serialize_cell, t3[36].cells)) == ("-1", "1", "alpha", "1", "-3", "-2")


def test_round_trip_is_lossless():
    for table_id in (1, 2, 3):
        name = f"table{table_id}.tsv"
        lines = [l for l in read_data_text(name).splitlines() if l.strip()]
        for row, line in zip(load_table(table_id), lines[1:]):
            printed = tuple(line.split("\t")[1:])
            assert tuple(serialize_cell(c) for c in row.cells) == printed


def test_variable_counts():
    two_var_rows = [
        (row.table_id, row.row)
        for t in (1, 2, 3)
        for row in load_table(t)
        if len(row.variables()) == 2
    ]
    assert two_var_rows == [(2, 12)]


def test_symmetry_rows_verbatim():
    # row 3, the row the apply-symmetry worked example exercises
    assert symmetry_by_index(3).sources == (
        "gamma",
        "alpha",
        "beta",
        "eta",
        "delta",
        "epsilon",
    )


def test_example_tables_sources_and_kinds():
    concrete = {t: sum(1 for ex in load_examples(t) if not ex.variables()) for t in EXAMPLE_TABLES}
    assert concrete == {5: 20, 6: 20, 7: 0, 8: 0, 9: 0, 10: 0}
    vars_by_table = {t: {v for ex in load_examples(t) for v in ex.variables()} for t in EXAMPLE_TABLES}
    assert vars_by_table[7] == {"gamma"} and vars_by_table[8] == {"gamma"}
    assert vars_by_table[9] == {"beta"} and vars_by_table[10] == {"epsilon"}


def test_example_row_spot_check():
    row1 = load_examples(5)[0]
    assert [r.text for r in row1.relators] == [
        "x1^-1",
        "x2^-1*x3^-1*x2^-1",
        "x3^-1*x2^-1",
    ]


def test_unknown_tables_rejected():
    with pytest.raises(TableError):
        load_table(4)
    with pytest.raises(TableError):
        load_examples(3)


def test_data_env_override(tmp_path, monkeypatch):
    target = tmp_path / "table1.tsv"
    target.write_text("eta beta alpha delta epsilon gamma\n1\t0\t0\t0\t0\t0\t0\n")
    monkeypatch.setenv(tables.DATA_ENV, str(tmp_path))
    load_table.cache_clear()
    try:
        rows = load_table(1)
        assert len(rows) == 1
    finally:
        monkeypatch.delenv(tables.DATA_ENV)
        load_table.cache_clear()
    assert len(load_table(1)) == 28


def test_data_env_missing_file(tmp_path, monkeypatch):
    monkeypatch.setenv(tables.DATA_ENV, str(tmp_path))
    load_table.cache_clear()
    try:
        with pytest.raises(TableError, match=f"{tmp_path / 'table1.tsv'} is missing"):
            load_table(1)
    finally:
        monkeypatch.delenv(tables.DATA_ENV)
        load_table.cache_clear()


LOADERS = {
    "table1.tsv": lambda: load_table(1),
    "symmetries.tsv": load_symmetries,
    "examples5.tsv": lambda: load_examples(5),
}


def _clear_caches():
    for loader in (load_table, load_symmetries, load_examples):
        loader.cache_clear()


def test_data_byte_that_is_not_utf8_is_refused_at_its_row(tmp_path, monkeypatch):
    # a copy of the bundled table 1 with a line holding one byte 0xff
    text = read_data_text("table1.tsv").encode("utf-8")
    (tmp_path / "table1.tsv").write_bytes(text + b"\xff\n")
    line = text.count(b"\n") + 1
    monkeypatch.setenv(tables.DATA_ENV, str(tmp_path))
    _clear_caches()
    try:
        with pytest.raises(TableError, match=rf"table1\.tsv line {line}: expected row number"):
            load_table(1)
    finally:
        monkeypatch.delenv(tables.DATA_ENV)
        _clear_caches()


@pytest.mark.parametrize("name", sorted(LOADERS))
def test_row_numbers_take_ascii_digits_only(name, tmp_path, monkeypatch, capsys):
    # a copy of the bundled data whose first row number in `name` is
    # "\u0661_0", which int() reads as 10
    names = [f"table{t}.tsv" for t in PARAM_TABLES] + ["symmetries.tsv"]
    names += [f"examples{t}.tsv" for t in EXAMPLE_TABLES]
    for data_name in names:
        lines = read_data_text(data_name).split("\n")
        if data_name == name:
            first = 0 if name.startswith("examples") else 1
            lines[first] = "\u0661_0" + lines[first][lines[first].index("\t"):]
        (tmp_path / data_name).write_text("\n".join(lines), encoding="utf-8")
    monkeypatch.setenv(tables.DATA_ENV, str(tmp_path))
    _clear_caches()
    try:
        with pytest.raises(TableError, match="bad row number"):
            LOADERS[name]()
        argv = ["run-tables", "--tables", "1", "--param-range=0..0", "--symmetries", "id"]
        assert main(argv) == 1
        line = 1 if name.startswith("examples") else 2
        assert f"{name} line {line}: bad row number '\u0661_0'" in capsys.readouterr().err
    finally:
        monkeypatch.delenv(tables.DATA_ENV)
        _clear_caches()
