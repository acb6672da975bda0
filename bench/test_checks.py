"""Tests of the benchmark's own checks: each must pass a report the program
wrote and reject a planted bad one.

    python3 -m unittest discover -s bench -p 'test_*.py'
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402
import run  # noqa: E402

SHAPE = ((3,), (0, 0), "all")  # 960 rows, table 3 row 36 among them
MATCH_SHAPE = ((1, 2, 3), (-3, 3), "all")


def program_report(command: str, tables, param_range, symmetries) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "report.tsv")
        lo, hi = param_range
        subprocess.run(
            [sys.executable, "-c", run.CLI, command,
             "--tables", ",".join(map(str, tables)), f"--param-range={lo}..{hi}",
             "--symmetries", symmetries, "--out", out],
            env=run.child_env(), check=True, timeout=120,
        )
        with open(out, encoding="utf-8") as fh:
            return fh.read()


def edit_cells(text: str, line_no: int, **cells) -> str:
    lines = text.split("\n")
    row = lines[line_no].split("\t")
    for name, value in cells.items():
        row[checks.REPORT_COLUMNS.index(name)] = value
    lines[line_no] = "\t".join(row)
    return "\n".join(lines)


def key_of(text: str, line_no: int) -> tuple[str, ...]:
    return tuple(text.split("\n")[line_no].split("\t")[:6])


class ReportChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.data = checks.load_data(run.DATA)
        cls.report = program_report("run-tables", *SHAPE)

    def check(self, text):
        return checks.check_report(text, self.data, *SHAPE, run_simplify=True)

    def test_program_report_passes(self):
        outcome = self.check(self.report)
        self.assertTrue(outcome.ok, outcome.problems)
        self.assertEqual(outcome.attempted, 960)
        self.assertEqual(checks.row_count(self.data, *SHAPE), 960)

    def test_flipped_divisor_is_rejected(self):
        bad = edit_cells(self.report, 5, divisors="1,1,3")
        self.assertIn(key_of(self.report, 5), self.check(bad).failed_rows)

    def test_flipped_artin_w_is_rejected(self):
        cell = self.report.split("\n")[7].split("\t")[10]
        bad = edit_cells(self.report, 7, artin_w="false" if cell == "true" else "true")
        self.assertEqual(self.check(bad).failed_rows, {key_of(self.report, 7)})

    def test_relator_swapped_between_rows_is_rejected(self):
        lines = self.report.split("\n")
        r_a, r_b = lines[1].split("\t")[7], lines[30].split("\t")[7]
        self.assertNotEqual(r_a, r_b)
        bad = edit_cells(edit_cells(self.report, 1, r1=r_b), 30, r1=r_a)
        self.assertEqual(
            self.check(bad).failed_rows, {key_of(self.report, 1), key_of(self.report, 30)}
        )

    def test_dropped_row_is_rejected(self):
        lines = self.report.split("\n")
        bad = "\n".join(lines[:100] + lines[101:])
        outcome = self.check(bad)
        self.assertEqual(outcome.failed_rows, {key_of(self.report, 100)})
        self.assertEqual(outcome.attempted, 960)

    def test_jobs_report_differing_by_one_byte_is_rejected(self):
        ref = self.report.encode()
        self.assertEqual(checks.identical(ref, ref, "report"), [])
        bad = bytearray(ref)
        bad[len(bad) // 2] ^= 1
        self.assertEqual(len(checks.identical(ref, bytes(bad), "report")), 1)
        self.assertEqual(len(checks.identical(ref, ref[:-1], "report")), 1)

    def test_changed_finding_is_rejected(self):
        lines = self.report.split("\n")
        at = next(i for i, line in enumerate(lines) if line.startswith("3\t36\t"))
        self.assertEqual(lines[at].split("\t")[12], "1,1,2")
        bad = edit_cells(self.report, at, divisors="1,1,1", verdict="Trivial")
        self.assertIn(key_of(self.report, at), self.check(bad).failed_rows)


class MatchChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.data = checks.load_data(run.DATA)
        cls.report = program_report("match-examples", *MATCH_SHAPE)

    def check(self, text):
        return checks.check_matches(text, self.data, *MATCH_SHAPE)

    def test_program_report_passes(self):
        outcome = self.check(self.report)
        self.assertTrue(outcome.ok, outcome.problems)
        self.assertEqual(outcome.attempted, 120)

    def test_changed_match_count_is_rejected(self):
        lines = self.report.split("\n")
        cells = lines[3].split("\t")
        cells[4] = str(int(cells[4]) - 1)
        lines[3] = "\t".join(cells)
        self.assertEqual(self.check("\n".join(lines)).failed_rows, {tuple(cells[:2])})

    def test_wrong_first_match_is_rejected(self):
        lines = self.report.split("\n")
        cells = lines[2].split("\t")
        cells[5] = cells[5].replace("sym ", "sym 1")
        lines[2] = "\t".join(cells)
        self.assertEqual(self.check("\n".join(lines)).failed_rows, {tuple(cells[:2])})


class IndependentAlgebra(unittest.TestCase):
    def test_determinantal_divisors_of_the_findings(self):
        # table 3 row 36: det -4a-2, coprime 2x2 minors, so 1,1,|4a+2|
        for a in range(-5, 6):
            m = [[-a, 0, -1], [0, 2, 2], [-1, 2, 4]]
            self.assertEqual(checks.determinantal_divisors(m), (1, 1, abs(4 * a + 2)))
        # examples6 row 12 presents Z/5
        m = [[-1, -1, -2], [0, -2, -3], [-2, -3, -3]]
        self.assertEqual(checks.determinantal_divisors(m), (1, 1, 5))
        self.assertEqual(checks.determinantal_divisors([[0] * 3] * 3), (0, 0, 0))

    def test_filling_formula_satisfies_w(self):
        rels = checks.filling_relators(1, 1, 1, 0, 0, 0)
        self.assertEqual(rels, [[-1], [-2, -3, -2], [-3, -2]])
        self.assertEqual(checks.artin_identities(rels), (True, False))

    def test_relator_expressions(self):
        env = {"beta": 2}
        self.assertEqual(checks.eval_relator_expr("x2^(-beta+1)*(x2*x3)^-1", env), [-2, -3, -2])
        self.assertEqual(checks.eval_relator_expr("x1^beta*x1^-2", env), [])
        self.assertEqual(checks.cell_values("±1-gamma", {"gamma": 3}), (-2, -4))


if __name__ == "__main__":
    unittest.main()
