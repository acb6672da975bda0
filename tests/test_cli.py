import hashlib
import json
import os
import subprocess
import sys
import time

import pytest

import artinhexa
import oracles
from artinhexa import artin, cli, pipeline, tables, triviality
from artinhexa.cli import main
from artinhexa.hexa import CellSyntaxError, HexError, linking_matrix, to_surgery
from artinhexa.relexpr import RelatorExprError


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_presentation_hex(capsys):
    code, out, _ = run(capsys, "gen-presentation", "--hex", "1,1,1,0,0,0")
    assert code == 0
    assert out.splitlines() == ["rank 3", "x1^-1", "x2^-1*x3^-1*x2^-1", "x3^-1*x2^-1"]


def test_gen_presentation_params(capsys):
    code, out, _ = run(capsys, "gen-presentation", "--params", "1,1,0,0,0,1")
    assert code == 0
    assert out.splitlines()[1:] == ["x1", "x2*x3", "x3^-1*x2*x3"]


def test_gen_presentation_needs_exactly_one_source(capsys):
    code, _, err = run(capsys, "gen-presentation")
    assert code == 1 and "error" in err
    code, _, err = run(capsys, "gen-presentation", "--hex", "1,1,1,0,0,0", "--params", "1,1,1,0,0,0")
    assert code == 1


def test_gen_presentation_bad_filling(capsys):
    code, _, err = run(capsys, "gen-presentation", "--hex", "1,2,3")
    assert code == 1 and "expected 6 integers" in err


def test_gen_presentation_refuses_oversized_presentations(capsys):
    # about 1.2e9 syllables: the bound is checked before any word is built
    code, out, err = run(capsys, "gen-presentation", "--hex", "1,1,10000,10000,1,1")
    assert code == 1 and out == ""
    assert err.startswith("error: presentation may have") and "above the limit" in err


def test_verify_and_simplify_roundtrip(tmp_path, capsys):
    path = tmp_path / "pres.txt"
    code, out, _ = run(capsys, "gen-presentation", "--hex", "1,1,1,0,0,0", "--out", str(path))
    assert code == 0
    code, out, _ = run(capsys, "verify-artin", "--file", str(path))
    assert code == 0
    assert out.splitlines() == ["W true", "F false"]
    code, out, _ = run(capsys, "verify-artin", "--file", str(path), "--condition", "w")
    assert out.splitlines() == ["W true"]

    code, out, _ = run(capsys, "simplify", "--file", str(path), "--emit-log")
    assert code == 0
    verdict = json.loads(out)
    assert verdict["tag"] == "Trivial"
    assert verdict["divisors"] == [1, 1, 1]
    assert verdict["moves"]
    code, out, _ = run(capsys, "simplify", "--file", str(path))
    assert "moves" not in json.loads(out)


def test_simplify_emit_log_keeps_its_first_start_log(tmp_path, capsys):
    # the bytes of a stall: a restart of the search must leave this first
    # start's log as it is
    path = tmp_path / "pres.txt"
    assert run(capsys, "gen-presentation", "--hex", "1,-3,-4,-3,1,0", "--out", str(path))[0] == 0
    code, out, _ = run(capsys, "simplify", "--file", str(path), "--emit-log")
    assert code == 0
    verdict = json.loads(out)
    assert (verdict["tag"], verdict["budget_spent"]) == ("Unknown", 11)
    assert verdict["budget_spent"] < triviality.DEFAULT_BUDGET
    digest = "287321d7a27992d6b1b39371d56edfb4874947e2a06064de95e45682a6a4ea7e"
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_verify_artin_bad_file(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("x1\n")
    code, _, err = run(capsys, "verify-artin", "--file", str(path))
    assert code == 1 and "rank" in err


def test_simplify_negative_rank_file(tmp_path, capsys):
    path = tmp_path / "negative.txt"
    path.write_text("rank -1\n")
    code, out, err = run(capsys, "simplify", "--file", str(path))
    assert code == 1 and out == ""
    assert err.startswith("error:") and "rank -1" in err


@pytest.mark.parametrize(
    "text, message",
    [
        # \u0661 is Arabic-Indic one, which int() reads as 1
        ("rank \u0661\n", "invalid integer"),
        ("rank 1_0\n", "invalid integer"),
        ("rank 3 junk\nx1\nx2\nx3\n", "first line must be 'rank N'"),
        ("rank\nx1\n", "first line must be 'rank N'"),
        ("rank3\n", "first line must be 'rank N'"),
        # one divisor per declared generator would be allocated and printed
        ("rank 2000000\n", "above the limit 10000"),
        # a line error names the file and its physical line, blank ones counted
        ("rank x\n", "pres.txt line 1: invalid integer 'x'"),
        ("rank 3\nx1*x2\nx1*y2\nx3\n", "pres.txt line 3: expected syllable, got 'y2' (at position 3)"),
        ("\nrank 3\n\nx1*x2^\n", "pres.txt line 4: expected syllable, got 'x2^' (at position 3)"),
        ("rank 3\nx1\nx4\n", "error: relator x4 exceeds rank 3\n"),
        # a form feed ends no line, as in a data file
        ("rank 3\nx1\f\nx2\nx1*y2\n", "pres.txt line 4: expected syllable, got 'y2' (at position 3)"),
    ],
)
def test_simplify_rejects_bad_rank_line(tmp_path, capsys, text, message):
    path = tmp_path / "pres.txt"
    path.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, "simplify", "--file", str(path))
    assert code == 1 and out == ""
    assert err.startswith("error:") and message in err and err.count("\n") == 1


def test_simplify_refuses_a_byte_that_is_not_utf8_at_its_line(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_bytes(b"rank 3\nx1\xff\nx2\nx3\n")
    code, out, err = run(capsys, "simplify", "--file", str(path))
    assert code == 1 and out == ""
    assert err == f"error: {path} line 2: expected syllable, got 'x1\\udcff' (at position 0)\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("symmetry", "--index", "1", "--hex=\u0661,0,0,0,0,1_0"),
        ("gen-presentation", "--params", "1,1,0,0,0,\u0661"),
        ("run-tables", "--param-range=0..0_0"),
        ("run-tables", "--tables", "\u0661"),
        ("match-examples", "--param-range=\u0661..1"),
        ("parse-cell", "gamma", "--assign", "gamma=1_0"),
        ("classify-braid", "--blocks", "\u0661,1_0"),
    ],
)
def test_integer_fields_take_ascii_digits_only(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 1 and err.startswith("error:")


def test_classify_braid(capsys):
    code, out, _ = run(capsys, "classify-braid", "--blocks", "1,1", "--twist", "3")
    assert code == 0
    assert out.strip() == "EssentialTorus Thm4.2-ii"
    code, out, _ = run(capsys, "classify-braid", "--blocks", "2,3")
    assert out.strip() == "ConnectedSum Thm4.2-iii"
    code, out, _ = run(capsys, "classify-braid", "--blocks", "2,3", "--twist", "1")
    assert out.strip() == "Hyperbolic"


def test_rho(capsys):
    code, out, _ = run(capsys, "rho", "--braid-word", "s1*s2*s1")
    assert code == 0 and out.strip() == "D"
    code, out, _ = run(capsys, "rho", "--braid-word", "s1*s2")
    assert out.strip() == "y"
    code, out, _ = run(capsys, "rho", "--braid-word", "s1*s2^2*s1")
    assert out.strip() == "y*D*y*D"
    code, out, err = run(capsys, "rho", "--braid-word", "s1^2000000")
    assert code == 1 and out == "" and "above the limit" in err


def test_symmetry_and_orbit(capsys):
    code, out, _ = run(capsys, "symmetry", "--index", "3", "--hex", "1,2,3,4,5,6")
    assert code == 0 and out.strip() == "3,1,2,6,4,5"
    code, out, err = run(capsys, "symmetry", "--index", "25", "--hex", "1,2,3,4,5,6")
    assert (code, out, err) == (1, "", "error: no symmetry with index 25\n")
    code, out, _ = run(capsys, "orbit", "--hex", "0,0,0,0,0,0")
    assert out.strip() == "0,0,0,0,0,0"
    code, out, _ = run(capsys, "orbit", "--hex", "1,0,0,0,0,0", "--mirror", "on")
    lines = out.strip().splitlines()
    assert len(lines) > 6 and "-1,0,0,0,0,0" in lines


SYMMETRY_HEADER = "symmetry table, checked against det of the surgery's linking matrix on {0,1}^6:\n"


def test_validate_symmetries(capsys):
    assert run(capsys, "validate-symmetries") == (0, SYMMETRY_HEADER + "discrepancy report: empty\n", "")


def test_parse_cell(capsys):
    code, out, _ = run(capsys, "parse-cell", "±1-gamma", "--assign", "gamma=2")
    assert code == 0
    assert out.splitlines() == ["canonical ±1-gamma", "values -1,-3"]
    code, out, _ = run(capsys, "parse-cell", "0")
    assert out.splitlines() == ["canonical 0", "values 0"]
    code, _, err = run(capsys, "parse-cell", "2gamma")
    assert code == 1


def test_parse_cell_refuses_an_unbound_variable_before_printing(capsys):
    code, out, err = run(capsys, "parse-cell", "alpha", "--assign", "beta=3")
    assert (code, out) == (1, "")
    assert err == "error: unbound variable 'alpha'\n"


def test_validate_symmetries_refuses_a_bad_table_before_printing(data_copy, capsys):
    # the report header is not printed ahead of the table's error
    code, out, err = run_on_data(
        data_copy, capsys, ("validate-symmetries",),
        "2\tbeta\tgamma\t", "2\tbeta\tbeta\t", edited="symmetries.tsv",
    )
    assert (code, out) == (1, "")
    assert err == "error: symmetries.tsv row 2: symmetry 2 is not a bijection on slots\n"


def test_validate_symmetries_reports_a_table_that_fails_its_checks(data_copy, capsys):
    # row 2 made equal to row 1 loads, but repeats it and leaves 23 rows:
    # the whole report is printed, and the exit status is 1
    result = run_on_data(
        data_copy, capsys, ("validate-symmetries",),
        "2\tbeta\tgamma\talpha\tepsilon\tdelta\teta\n", "2\talpha\tbeta\tgamma\tdelta\teta\tepsilon\n",
        edited="symmetries.tsv",
    )
    out = (
        SYMMETRY_HEADER
        + "  row 2 repeats row 1\n"
        + "  23 distinct rows, not 24\n"
        + "discrepancy report: bundled table FAILED checks above\n"
    )
    assert result == (1, out, "")


def test_run_tables_tsv_and_json(tmp_path, capsys):
    out_path = tmp_path / "report.tsv"
    code, _, _ = run(
        capsys,
        "run-tables",
        "--tables", "1",
        "--param-range", "0..0",
        "--symmetries", "id",
        "--out", str(out_path),
    )
    assert code == 0
    lines = out_path.read_text().strip().splitlines()
    assert lines[0].startswith("table\trow")
    assert len(lines) > 28  # pm branches multiply the row count

    code, out, _ = run(
        capsys,
        "run-tables", "--tables", "1", "--param-range", "0..0",
        "--symmetries", "id", "--json",
    )
    payload = json.loads(out)
    assert payload[0]["verdict"] in ("Trivial", "NotTrivial", "Unknown")


REPORT_INPUT_ERRORS = {
    ("--tables", "1,9"): "no parameter table 9",
    ("--param-range=2..1",): "empty parameter range 2..1",
    ("--symmetries", "id", "--tables", "0"): "no parameter table 0",
    ("--tables", "1,1"): "table 1 is given more than once",
    # the comma-list flags name themselves, as --hex and --params do
    ("--tables", "1,x"): "--tables: expected comma-separated integers, got '1,x'",
    ("--param-range=1..x",): "--param-range: expected LO..HI, got '1..x'",
}


@pytest.mark.parametrize("argv", list(REPORT_INPUT_ERRORS))
@pytest.mark.parametrize("command", ["run-tables", "match-examples"])
def test_report_input_errors_create_no_file(tmp_path, capsys, command, argv):
    # the report is streamed into the file, so input is checked before it opens
    out_path = tmp_path / "report.tsv"
    code, out, err = run(capsys, command, *argv, "--out", str(out_path))
    assert (code, out, err) == (1, "", f"error: {REPORT_INPUT_ERRORS[argv]}\n")
    assert not out_path.exists()


def test_refusal_while_writing_removes_the_partial_file(tmp_path, monkeypatch, capsys):
    # a filling refused part-way through the stream raises after the header
    # is written; the run still exits 1 and leaves no report behind
    monkeypatch.setattr(artin, "MAX_PRESENTATION_SYLLABLES", 40)
    out_path = tmp_path / "F"
    argv = ("run-tables", "--tables", "1", "--symmetries", "id", "--param-range=-1..1")
    code, _, err = run(capsys, *argv, "--out", str(out_path))
    assert code == 1 and "above the limit" in err
    assert not out_path.exists()


def test_match_examples_refuses_a_filling_no_example_can_match(tmp_path, monkeypatch, capsys):
    # match-examples size-checks every new filling, not only those whose
    # linking matrix is an example's: the first refused one matches none,
    # and is refused on its own as well as in the run
    monkeypatch.setattr(artin, "MAX_PRESENTATION_SYLLABLES", 40)
    for task in pipeline.build_tasks((1,), (-1, 1), "id"):
        params = to_surgery(task.filling)
        try:
            artin.check_size(params)
        except artin.PresentationError:
            break
    else:
        pytest.fail("no filling is refused")
    examples = [e for t in tables.EXAMPLE_TABLES for e in tables.load_examples(t)]
    matrices = {matrix for example in examples for _, matrix, _ in oracles.example_instances(example, (-1, 1))}
    assert linking_matrix(params) not in matrices
    with pytest.raises(artin.PresentationError, match="above the limit"):
        pipeline.match_examples([task], (-1, 1))
    out_path = tmp_path / "F"
    argv = ("match-examples", "--tables", "1", "--symmetries", "id", "--param-range=-1..1")
    code, _, err = run(capsys, *argv, "--out", str(out_path))
    assert code == 1 and "presentation may have 45 syllables, above the limit 40" in err
    assert not out_path.exists()


def replaced(old, new):
    """A ``data_copy`` edit that replaces the first ``old``, which must
    occur, by ``new``."""

    def edit(text):
        assert old in text
        return text.replace(old, new, 1)

    return edit


def run_on_data(data_copy, capsys, argv, old, new, edited="examples5.tsv"):
    """Run the command on a copy of the bundled data whose file ``edited``
    has its first ``old`` replaced by ``new``."""
    with data_copy({edited: replaced(old, new)}):
        return run(capsys, *argv)


def test_match_examples_leaves_an_example_above_x3_unmatched(data_copy, capsys):
    # example table 5 row 1 using x4 matches nothing, and nothing raises
    argv = ("match-examples", "--tables", "1", "--param-range=0..0", "--symmetries", "id")
    code, out, _ = run(capsys, *argv)
    assert code == 0 and out.splitlines()[1].startswith("5\t1\tconcrete\t1\t1\t")
    code, out, err = run_on_data(data_copy, capsys, argv, "1\tx1^-1\t", "1\tx1^-1*x4\t")
    assert code == 0 and err == ""
    assert out.splitlines()[1] == "5\t1\tconcrete\t1\t0\t-"


@pytest.mark.parametrize("new", ["x2*x1^-1*x2^-1", "x4*x1^-1*x4^-1"], ids=["conjugate", "zero-x4-sum"])
def test_an_example_with_the_matrix_but_not_the_triple_matches_nothing(new, data_copy, capsys):
    # example table 5 row 1's x1^-1 becomes a relator with the same exponent
    # sums (x4's is 0): table 1 row 1 still has the example's matrix, so
    # only the triple check behind the matrix filter tells them apart
    argv = ("--tables", "1", "--param-range=0..0", "--symmetries", "id")
    code, report, _ = run(capsys, "run-tables", *argv)
    assert code == 0 and report.count("\t5:1\n") > 0
    filling = next(pipeline.build_tasks((1,), (0, 0), "id")).filling
    matrix = linking_matrix(to_surgery(filling))
    with data_copy({"examples5.tsv": replaced("1\tx1^-1\t", f"1\t{new}\t")}):
        examples = pipeline.ExampleIndex((0, 0))
        assert [(row.label, assignment) for row, assignment in examples.by_matrix[matrix]] == [("5:1", ())]
        assert examples.label(matrix, artin.gen_from_hex(filling).serialized_relators()) == ""
        assert run(capsys, "run-tables", *argv) == (0, report.replace("\t5:1\n", "\t-\n"), "")
        code, out, err = run(capsys, "match-examples", *argv)
    assert code == 0 and err == ""
    assert out.splitlines()[1] == "5\t1\tconcrete\t1\t0\t-"


@pytest.mark.parametrize("command", ["run-tables", "match-examples"])
def test_an_example_above_the_syllable_cap_is_refused_before_any_output(
    command, tmp_path, data_copy, capsys, monkeypatch
):
    # the example index counts an instance's syllables without spelling it,
    # and refuses one above the cap, whether or not a filling has its
    # matrix, before the report's first line or its file
    argv = (command, "--tables", "1", "--symmetries", "id")
    with data_copy({"examples5.tsv": replaced("1\tx1^-1\t", "1\t(x1*x2)^100000000\t")}):
        assert run(capsys, *argv, "--param-range=0..0") == (1, "", (
            "error: examples5.tsv row 1: relators spell out 200000005 syllables, above the limit 2000000\n"
        ))
    # at a lowered cap, the bundled tables hold instances above it; the first
    # one in table order is refused, as the oracle counts its syllables
    cap, param_range = 100, (-5, 5)
    table, row, assignment, size = next(
        (table, example.row, assignment, size)
        for table in tables.EXAMPLE_TABLES
        for example in tables.load_examples(table)
        for assignment, _, _, size in oracles.spelled_instances(example, param_range)
        if size > cap
    )
    monkeypatch.setattr(artin, "MAX_PRESENTATION_SYLLABLES", cap)
    out_path = tmp_path / "report"
    code, out, err = run(capsys, *argv, "--param-range=-5..5", "--out", str(out_path))
    assert (code, out) == (1, "") and not out_path.exists()
    assert err == (
        f"error: examples{table}.tsv row {row}: relators at {pipeline.format_assignment(assignment)}"
        f" spell out {size} syllables, above the limit {cap}\n"
    )


def test_match_examples_refuses_a_deeply_nested_example(data_copy, capsys):
    nested = "(" * 3000 + "x1^-1" + ")" * 3000
    argv = ("match-examples", "--tables", "1", "--param-range=0..0", "--symmetries", "id")
    code, out, err = run_on_data(data_copy, capsys, argv, "1\tx1^-1\t", f"1\t{nested}\t")
    assert code == 1 and out == ""
    assert err.startswith("error: examples5.tsv row 1: groups nested more than 100 deep at position 100 ")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "command, edited, old, new, message, cause",
    [
        ("match-examples", "examples6.tsv", "4\tx3^-1*x2^-1*x3*x2*x3\t", "4\tx1^(gamma\t",
         "examples6.tsv row 4: unexpected input at position 2 in 'x1^(gamma'", RelatorExprError),
        ("run-tables", "examples6.tsv", "4\tx3^-1*x2^-1*x3*x2*x3\t", "4\tx1^(gamma\t",
         "examples6.tsv row 4: unexpected input at position 2 in 'x1^(gamma'", RelatorExprError),
        ("run-tables", "table1.tsv", "2\t0\t0\t", "2\t1+q\t0\t",
         "table1.tsv row 2: unknown variable 'q' in '1+q'", CellSyntaxError),
        ("run-tables", "table1.tsv", "2\t0\t0\t\u00b11\t0\t", "2\talpha\tbeta\t\u00b11\tgamma\t",
         "table1.tsv row 2: row 1.2 has >2 free variables", HexError),
        ("match-examples", "symmetries.tsv", "2\tbeta\tgamma\t", "2\tbeta\tbeta\t",
         "symmetries.tsv row 2: symmetry 2 is not a bijection on slots", HexError),
        # a row with no number yet is located by its line, blank lines
        # included: table1.tsv's row 2 is on line 4 after the blank line
        ("run-tables", "table1.tsv", "\n2\t0\t0\t", "\n\n2\t0\t",
         "table1.tsv line 4: expected row number + 6 cells, got "
         "['2', '0', '\u00b11', '0', '\u00b11', '\u00b11']", type(None)),
        ("run-tables", "table1.tsv", "\n2\t0\t0\t", "\nx\t0\t0\t",
         "table1.tsv line 3: bad row number 'x'", type(None)),
        # lines end at \n, \r\n or \r only, as in a presentation file: row 1
        # ending in U+2028 leaves row 2 on line 3
        ("run-tables", "table1.tsv", "\n2\t0\t0\t", "\u2028\nx\t0\t0\t",
         "table1.tsv line 3: bad row number 'x'", type(None)),
        ("run-tables", "table1.tsv", "eta beta alpha delta epsilon gamma\n", "eta beta alpha delta epsilon\n",
         "table1.tsv: bad column declaration ['eta beta alpha delta epsilon']", type(None)),
        ("run-tables", "symmetries.tsv", "1\talpha\tbeta\tgamma\tdelta\teta\tepsilon\n", "",
         "symmetry table has no identity row", type(None)),
    ],
    ids=["match-examples", "run-tables", "table-cell", "table-variables", "symmetries",
         "row-shape", "row-number", "line-separator", "columns", "no-identity"],
)
def test_example_table_errors_name_the_file_and_row(
    command, edited, old, new, message, cause, tmp_path, data_copy, capsys
):
    # every data file's row errors are wrapped in one place, in tables._read;
    # a wrapped error keeps the parser's error as its cause
    out_path = tmp_path / "report"
    argv = (command, "--tables", "1", "--param-range=0..0", "--symmetries", "id", "--out", str(out_path))
    with data_copy({edited: replaced(old, new)}):
        code, out, err = run(capsys, *argv)
        with pytest.raises(tables.TableError) as info:
            pipeline.run_tables(tables=(1,), param_range=(0, 0), symmetries="id")
    assert code == 1 and out == "" and not out_path.exists()
    assert err == f"error: {message}\n"
    assert isinstance(info.value.__cause__, cause)


def test_missing_data_file_is_one_error_line(data_copy, capsys):
    argv = ("run-tables", "--tables", "1", "--param-range=0..0", "--symmetries", "id")
    with data_copy({"table1.tsv": None}) as directory:
        code, out, err = run(capsys, *argv)
    assert (code, out, err) == (1, "", f"error: data file {directory / 'table1.tsv'} is missing\n")


def test_run_tables_to_stdout_refuses_a_bad_example_table_before_the_header(data_copy, capsys):
    # the example index is built before the report's first line is written
    argv = ("run-tables", "--tables", "1", "--param-range=0..0", "--symmetries", "id")
    row4 = "4\tx3^-1*x2^-1*x3*x2*x3\t"
    code, out, err = run_on_data(
        data_copy, capsys, argv, row4, "4\tx1^(gamma\t", edited="examples6.tsv"
    )
    assert (code, out) == (1, "")
    assert err == "error: examples6.tsv row 4: unexpected input at position 2 in 'x1^(gamma'\n"


# each is slow only in cyclic_reduce, once quadratic in the word length: the
# peel copied the conjugate once per peeled syllable, and the least rotation
# compared whole rotations from each place of the least syllable, which
# recurs 10^5 times once the first move turns x1^100000 into a power
LONG_INPUTS = {
    "long-power": ["x1*x2*x3^2*x2", "x1^100000*x3", "x2*x3"],
    "long-conjugate": ["*".join(["x1*x2"] * 80_000 + ["x3"] + ["x2^-1*x1^-1"] * 80_000), "x1", "x2"],
}


@pytest.mark.parametrize("name", LONG_INPUTS)
def test_simplify_is_quick_on_long_words(tmp_path, name):
    path = tmp_path / "pres.txt"
    path.write_text("\n".join(["rank 3", *LONG_INPUTS[name]]) + "\n")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(artinhexa.__file__)))
    out = subprocess.run(
        [sys.executable, "-m", "artinhexa.cli", "simplify", "--file", str(path)],
        env=env, capture_output=True, text=True, check=True, timeout=60,
    )
    assert json.loads(out.stdout)["tag"] == "Trivial"


def test_simplify_refuses_a_substitution_above_the_syllable_cap(tmp_path, monkeypatch, capsys):
    # the first move puts x2^-1*x3^-2*x2^-1 for x1, so x1^1000 would be
    # spelled out as 3000 syllables (3*10^9 for x1^1000000000 at the real cap)
    monkeypatch.setattr(artin, "MAX_PRESENTATION_SYLLABLES", 2000)
    path = tmp_path / "pres.txt"
    path.write_text("rank 3\nx1*x2*x3^2*x2\nx1^1000*x3\nx2*x3\n")
    code, out, err = run(capsys, "simplify", "--file", str(path))
    assert (code, out, err) == (1, "", "error: substituting for x1 builds more than 2000 syllables\n")


def test_simplify_bounds_the_smith_form(tmp_path, capsys):
    # x1 .. xN costs N^3 Smith steps: 2.7 * 10^7 is searched, 10^12 is
    # refused before any exponent row is built
    def simplify_identity(rank):
        path = tmp_path / f"rank{rank}.txt"
        path.write_text("\n".join([f"rank {rank}", *(f"x{k}" for k in range(1, rank + 1))]) + "\n")
        return run(capsys, "simplify", "--file", str(path))

    code, out, _ = simplify_identity(300)
    assert code == 0 and json.loads(out)["tag"] == "Trivial"
    start = time.perf_counter()
    assert simplify_identity(10_000) == (1, "", (
        "error: Smith form of 10000 relators in 10000 generators takes"
        " 10000*10000*10000 = 1000000000000 steps, above the limit 100000000\n"
    ))
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize(
    "argv",
    [
        ("gen-presentation", "--hex", "1,1,1,0,0,0"),
        ("run-tables", "--tables", "1", "--param-range=0..0", "--symmetries", "id"),
        ("match-examples", "--tables", "1", "--param-range=0..0", "--symmetries", "id"),
    ],
)
def test_out_path_that_cannot_be_opened_is_one_error_line(tmp_path, argv):
    out_path = tmp_path / "missing" / "x"
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(artinhexa.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "artinhexa.cli", *argv, "--out", str(out_path)],
        env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr
    assert not out_path.parent.exists()


def test_write_error_removes_the_partial_file(tmp_path, monkeypatch, capsys):
    # a write that fails part-way, as on a full disk, is one error line too
    class FullDisk:
        def __init__(self, *args, **kwargs):
            self.fh = open(*args, **kwargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def writelines(self, chunks):
            self.fh.write(next(iter(chunks)))
            self.fh.flush()
            raise OSError(28, "No space left on device")

    monkeypatch.setattr(cli, "open", FullDisk, raising=False)
    out_path = tmp_path / "report.tsv"
    argv = ("run-tables", "--tables", "1", "--symmetries", "id", "--param-range=0..0")
    code, _, err = run(capsys, *argv, "--out", str(out_path))
    assert code == 1 and err == "error: [Errno 28] No space left on device\n"
    assert not out_path.exists()


def test_jobs_1_imports_no_pool(tmp_path):
    # no command imports multiprocessing: --jobs > 1 forks its workers
    # itself, here two whatever this host has; and TSV runs leave json
    # unimported, since only the JSON writers import it.  Under -X dev -W
    # error a fork from a process with threads (3.12) fails the run and a
    # pipe left open prints a ResourceWarning, so stderr must stay empty
    code = (
        "import os, sys; os.sched_getaffinity = lambda pid: {0, 1}; from artinhexa.cli import main; "
        f"main(['run-tables', '--tables', '1', '--param-range=0..0', '--out', {str(tmp_path / 'r.tsv')!r}]); "
        f"main(['run-tables', '--tables', '1', '--param-range=0..0', '--jobs', '2', '--out', {str(tmp_path / 'r2.tsv')!r}]); "
        "main(['match-examples', '--tables', '1', '--param-range=0..0', '--jobs', '2']); "
        "print('multiprocessing' in sys.modules, 'json' in sys.modules)"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(artinhexa.__file__)))
    out = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error", "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert (out.stdout.splitlines()[-1], out.stderr) == ("False False", "")
    assert (tmp_path / "r.tsv").read_bytes() == (tmp_path / "r2.tsv").read_bytes()


def test_import_leaves_the_report_pipeline_unloaded():
    # each command imports what it runs; -S: a site-packages .pth file may
    # import inspect or dataclasses itself
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(artinhexa.__file__)))
    heavy = ("artinhexa.pipeline", "artinhexa.triviality", "artinhexa.artin", "dataclasses", "inspect")
    code = f"import sys, artinhexa.cli; print([m for m in {heavy!r} if m in sys.modules])"
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout == "[]\n"


# the modules every command loads: the command line, and tables with what
# it imports
STARTUP_MODULES = {"cli", "braids", "hexa", "relexpr", "tables", "words"}
REPORT_ARGS = ("--tables", "1", "--param-range=0..0", "--symmetries", "id")
COMMAND_MODULES = {
    ("gen-presentation", "--hex", "1,1,1,0,0,0"): {"artin"},
    ("verify-artin", "--file", "{pres}"): {"artin"},
    ("simplify", "--file", "{pres}"): {"artin", "triviality"},
    ("classify-braid", "--blocks", "1,1"): set(),
    ("rho", "--braid-word", "s1*s2"): {"freeprod"},
    ("symmetry", "--index", "3", "--hex", "1,2,3,4,5,6"): set(),
    ("orbit", "--hex", "1,2,3,4,5,6"): set(),
    ("validate-symmetries",): set(),
    ("parse-cell", "±1-gamma"): set(),
    ("run-tables", *REPORT_ARGS): {"artin", "triviality", "pipeline"},
    ("match-examples", *REPORT_ARGS): {"artin", "triviality", "pipeline"},
}


def test_every_command_is_in_the_import_table():
    commands = cli.build_parser()._subparsers._group_actions[0].choices
    assert sorted(commands) == sorted(argv[0] for argv in COMMAND_MODULES)


@pytest.mark.parametrize("argv, extra", COMMAND_MODULES.items(), ids=[a[0] for a in COMMAND_MODULES])
def test_each_command_imports_what_it_runs(tmp_path, argv, extra):
    # in a fresh interpreter: a handler that lost an import fails here
    pres = tmp_path / "pres.txt"
    pres.write_text("rank 3\nx1^-1\nx2^-1*x3^-1*x2^-1\nx3^-1*x2^-1\n", encoding="utf-8")
    code = (
        "import sys\n"
        "from artinhexa.cli import main\n"
        "code = main(sys.argv[1:])\n"
        "print(sorted(m for m in sys.modules if m.startswith('artinhexa.')))\n"
        "sys.exit(code)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(artinhexa.__file__)))
    argv = [a.format(pres=pres) for a in argv]
    proc = subprocess.run([sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")
    loaded = proc.stdout.splitlines()[-1]
    assert loaded == str(sorted("artinhexa." + m for m in STARTUP_MODULES | extra))


def test_a_worker_error_ends_the_run_as_a_serial_one_does(tmp_path):
    # a filling refused in a forked worker: the same output and one error
    # line as at --jobs 1, no --out file, and no child left behind; on
    # stdout, the header that waits in the buffer when the workers are
    # forked is written once, by the parent
    code = (
        "import os, sys\n"
        "os.sched_getaffinity = lambda pid: {0, 1}\n"
        "from artinhexa import artin\n"
        "from artinhexa.cli import main\n"
        "artin.MAX_PRESENTATION_SYLLABLES = int(sys.argv[1])\n"
        "code = main(sys.argv[2:])\n"
        "try:\n"
        "    os.waitpid(-1, os.WNOHANG)\n"
        "except ChildProcessError:\n"
        "    sys.exit(code)\n"
        "sys.exit('a child is left')\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(artinhexa.__file__)))
    argv = ("run-tables", "--tables", "1", "--symmetries", "id", "--param-range=-1..1")
    runs = {}
    for limit in (40, 2_000_000):
        for jobs in ("1", "2"):
            out_path = tmp_path / f"report-{limit}-{jobs}"
            for target in (("--out", str(out_path)), ()):
                runs[limit, jobs, bool(target)] = proc = subprocess.run(
                    [sys.executable, "-c", code, str(limit), *argv, "--jobs", jobs, *target],
                    env=env, capture_output=True, text=True, timeout=120,
                )
            assert out_path.exists() == (limit > 40)
    for target in (True, False):
        serial, forked = runs[40, "1", target], runs[40, "2", target]
        assert (forked.returncode, forked.stdout, forked.stderr) == (1, serial.stdout, serial.stderr)
        assert serial.returncode == 1 and serial.stdout in ("", pipeline.report_tsv([])) and serial.stderr.count("\n") == 1
        assert serial.stderr.startswith("error: presentation may have ")
        serial, forked = runs[2_000_000, "1", target], runs[2_000_000, "2", target]
        assert (forked.returncode, forked.stdout, forked.stderr) == (0, serial.stdout, "")
    assert runs[2_000_000, "2", False].stdout.count("table\trow\t") == 1
    assert (tmp_path / "report-2000000-1").read_bytes() == (tmp_path / "report-2000000-2").read_bytes()


def test_match_examples_small(capsys):
    code, out, _ = run(
        capsys,
        "match-examples",
        "--tables", "1",
        "--param-range=-1..1",  # leading dash needs the = form
        "--symmetries", "id",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("example_table")
    assert len(lines) == 121
    t5r1 = next(l for l in lines if l.startswith("5\t1\t"))
    assert "table1 row 1" in t5r1


@pytest.mark.parametrize("fmt", [(), ("--json",)], ids=["tsv", "json"])
def test_match_examples_stdout_equals_out_file(tmp_path, capsysbinary, fmt):
    argv = ["match-examples", "--tables", "1", "--param-range=-1..1", "--symmetries", "id", *fmt]
    out_path = tmp_path / "matches"
    assert main(argv) == 0
    stdout = capsysbinary.readouterr().out
    assert main([*argv, "--out", str(out_path)]) == 0
    assert stdout == out_path.read_bytes() != b""


@pytest.mark.parametrize(
    "argv",
    [
        ("run-tables", "--tables", "1", "--param-range=-1..1", "--symmetries", "id", "--jobs", "1"),
        ("run-tables", "--tables", "1", "--param-range=-1..1", "--symmetries", "id", "--jobs", "2"),
        ("match-examples", "--tables", "1", "--param-range=0..0", "--symmetries", "id"),
        ("orbit", "--hex", "1,2,3,4,5,6"),
    ],
    ids=["run-tables-jobs-1", "run-tables-jobs-2", "match-examples", "orbit"],
)
def test_closed_reader_ends_the_run_quietly(argv):
    # the reader has gone before the first write, as `head -1` has after one
    # line; 141 is 128 + SIGPIPE, the status a shell shows for such a writer
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(artinhexa.__file__)))
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "artinhexa.cli", *argv],
            env=env, stdout=write_end, stderr=subprocess.PIPE, timeout=120,
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (141, b"")


def test_match_examples_compares_relators_only(monkeypatch, capsys):
    argv = ("match-examples", "--tables", "1,2,3", "--param-range=-1..1", "--jobs", "2")
    code, expected, _ = run(capsys, *argv)
    assert code == 0

    def forbidden(*args, **kwargs):
        raise AssertionError("match-examples ran a report-only computation")

    for module, name in (
        (pipeline, "verify_artin"),
        (pipeline, "simplify"),
        (pipeline, "classify"),
        (triviality, "smith_invariants"),
    ):
        monkeypatch.setattr(module, name, forbidden)
    assert run(capsys, *argv) == (0, expected, "")


def test_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as err:
        main(["no-such-command"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["verify-artin"])  # missing required --file
    assert err.value.code == 2
    for argv in (["match-examples", "--budget", "5"], ["run-tables", "--budget", "5"]):
        with pytest.raises(SystemExit) as err:
            main(argv)  # the budget is a setting of simplify only
        assert err.value.code == 2
    for argv in (["orbit", "--hex", "1,0,0,0,0,0", "--mirror", "maybe"],
                 ["run-tables", "--mirror", "maybe"],
                 ["run-tables", "--jobs", "\u0661"],
                 ["run-tables", "--jobs", "0"],
                 ["run-tables", "--jobs", "-3"],
                 ["match-examples", "--jobs", "0"],
                 ["simplify", "--file", "pres.txt", "--budget", "-1"],
                 ["classify-braid", "--blocks", "1,1", "--twist", "1_0"]):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
