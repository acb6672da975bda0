import json
import os
import subprocess
import sys

import pytest

import artinhexa
import oracles
from artinhexa import artin, cli, pipeline, tables, triviality
from artinhexa.cli import main
from artinhexa.hexa import to_surgery
from artinhexa.relexpr import RelatorExprError
from artinhexa.words import abelianize


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
    ],
)
def test_simplify_rejects_bad_rank_line(tmp_path, capsys, text, message):
    path = tmp_path / "pres.txt"
    path.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, "simplify", "--file", str(path))
    assert code == 1 and out == ""
    assert err.startswith("error:") and message in err


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
    code, out, _ = run(capsys, "orbit", "--hex", "0,0,0,0,0,0")
    assert out.strip() == "0,0,0,0,0,0"
    code, out, _ = run(capsys, "orbit", "--hex", "1,0,0,0,0,0", "--mirror", "on")
    lines = out.strip().splitlines()
    assert len(lines) > 6 and "-1,0,0,0,0,0" in lines


def test_validate_symmetries(capsys):
    code, out, _ = run(capsys, "validate-symmetries")
    assert code == 0
    assert "control" in out and "bundled symmetry table" in out
    assert "discrepancy report: empty" in out


def test_parse_cell(capsys):
    code, out, _ = run(capsys, "parse-cell", "±1-gamma", "--assign", "gamma=2")
    assert code == 0
    assert out.splitlines() == ["canonical ±1-gamma", "values -1,-3"]
    code, out, _ = run(capsys, "parse-cell", "0")
    assert out.splitlines() == ["canonical 0", "values 0"]
    code, _, err = run(capsys, "parse-cell", "2gamma")
    assert code == 1


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


@pytest.mark.parametrize(
    "argv",
    [
        ("--tables", "1,9"),
        ("--param-range=2..1",),
        ("--symmetries", "id", "--tables", "0"),
        ("--tables", "1,1"),
    ],
)
@pytest.mark.parametrize("command", ["run-tables", "match-examples"])
def test_report_input_errors_create_no_file(tmp_path, capsys, command, argv):
    # the report is streamed into the file, so input is checked before it opens
    out_path = tmp_path / "report.tsv"
    code, _, err = run(capsys, command, *argv, "--out", str(out_path))
    assert code == 1 and err.startswith("error:")
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
    matrices = {
        tuple(abelianize(w, 3) for w in words)
        for example in examples
        for _, _, words in oracles.example_instances(example, (-1, 1))
    }
    assert artin.linking_matrix(params) not in matrices
    with pytest.raises(artin.PresentationError, match="above the limit"):
        pipeline.match_examples([task], (-1, 1))
    out_path = tmp_path / "F"
    argv = ("match-examples", "--tables", "1", "--symmetries", "id", "--param-range=-1..1")
    code, _, err = run(capsys, *argv, "--out", str(out_path))
    assert code == 1 and "presentation may have 45 syllables, above the limit 40" in err
    assert not out_path.exists()


def run_on_data(tmp_path, monkeypatch, capsys, argv, old, new, edited="examples5.tsv"):
    """Run the command on a copy of the bundled data whose file ``edited``
    has its first ``old`` replaced by ``new``."""
    names = [f"table{t}.tsv" for t in tables.PARAM_TABLES] + ["symmetries.tsv"]
    names += [f"examples{t}.tsv" for t in tables.EXAMPLE_TABLES]
    for name in names:
        text = tables.read_data_text(name)
        if name == edited:
            assert old in text
            text = text.replace(old, new, 1)
        (tmp_path / name).write_text(text, encoding="utf-8")
    monkeypatch.setenv(tables.DATA_ENV, str(tmp_path))
    loaders = (tables.load_table, tables.load_symmetries, tables.load_examples)
    for loader in loaders:
        loader.cache_clear()
    try:
        return run(capsys, *argv)
    finally:
        monkeypatch.delenv(tables.DATA_ENV)
        for loader in loaders:
            loader.cache_clear()


def test_match_examples_leaves_an_example_above_x3_unmatched(tmp_path, monkeypatch, capsys):
    # example table 5 row 1 using x4 matches nothing, and nothing raises
    argv = ("match-examples", "--tables", "1", "--param-range=0..0", "--symmetries", "id")
    code, out, _ = run(capsys, *argv)
    assert code == 0 and out.splitlines()[1].startswith("5\t1\tconcrete\t1\t1\t")
    code, out, err = run_on_data(tmp_path, monkeypatch, capsys, argv, "1\tx1^-1\t", "1\tx1^-1*x4\t")
    assert code == 0 and err == ""
    assert out.splitlines()[1] == "5\t1\tconcrete\t1\t0\t-"


def test_match_examples_refuses_a_deeply_nested_example(tmp_path, monkeypatch, capsys):
    nested = "(" * 3000 + "x1^-1" + ")" * 3000
    argv = ("match-examples", "--tables", "1", "--param-range=0..0", "--symmetries", "id")
    code, out, err = run_on_data(tmp_path, monkeypatch, capsys, argv, "1\tx1^-1\t", f"1\t{nested}\t")
    assert code == 1 and out == ""
    assert err.startswith("error: examples5.tsv row 1: groups nested more than 100 deep at position 100 ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("command", ["match-examples", "run-tables"])
def test_example_table_errors_name_the_file_and_row(command, tmp_path, monkeypatch, capsys):
    out_path = tmp_path / "report"
    argv = (command, "--tables", "1", "--param-range=0..0", "--symmetries", "id", "--out", str(out_path))
    row4 = "4\tx3^-1*x2^-1*x3*x2*x3\t"
    code, out, err = run_on_data(
        tmp_path, monkeypatch, capsys, argv, row4, "4\tx1^(gamma\t", edited="examples6.tsv"
    )
    assert code == 1 and out == "" and not out_path.exists()
    assert err == "error: examples6.tsv row 4: unexpected input at position 2 in 'x1^(gamma'\n"
    monkeypatch.setenv(tables.DATA_ENV, str(tmp_path))
    tables.load_examples.cache_clear()
    try:
        with pytest.raises(tables.TableError) as info:
            tables.load_examples(6)
    finally:
        tables.load_examples.cache_clear()
    assert isinstance(info.value.__cause__, RelatorExprError)


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
    # a pool costs its import on every command, so only --jobs > 1 pays it
    code = (
        "import sys; from artinhexa.cli import main; "
        f"main(['run-tables', '--tables', '1', '--param-range=0..0', '--out', {str(tmp_path / 'r.tsv')!r}]); "
        "main(['match-examples', '--tables', '1', '--param-range=0..0', '--jobs', '2']); "
        "print('multiprocessing' in sys.modules)"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(artinhexa.__file__)))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.splitlines()[-1] == "False"


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
    with pytest.raises(SystemExit) as err:
        main(["match-examples", "--budget", "5"])  # the budget is run-tables only
    assert err.value.code == 2
    for argv in (["orbit", "--hex", "1,0,0,0,0,0", "--mirror", "maybe"],
                 ["run-tables", "--mirror", "maybe"],
                 ["run-tables", "--jobs", "\u0661"],
                 ["run-tables", "--jobs", "0"],
                 ["run-tables", "--jobs", "-3"],
                 ["match-examples", "--jobs", "0"],
                 ["run-tables", "--budget", "-1"],
                 ["simplify", "--file", "pres.txt", "--budget", "-1"],
                 ["classify-braid", "--blocks", "1,1", "--twist", "1_0"]):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
