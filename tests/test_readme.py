import doctest
from pathlib import Path

from artinhexa.artin import linking_matrix
from artinhexa.hexa import HexFilling, instantiate_row, to_surgery
from artinhexa.tables import load_table

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_tour_runs_as_a_doctest():
    result = doctest.testfile(str(README), module_relative=False)
    assert result.attempted > 0
    assert result.failed == 0


def det3(m):
    (a, b, c), (d, e, f), (g, h, i) = m
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def test_findings_table3_row36_one_digit_slip():
    # README *Findings*: the bundled table 3 row 36 has determinant
    # -4*alpha-2 for every alpha, and -1 throughout with beta = 2
    (row36,) = [row for row in load_table(3) if row.row == 36]
    for alpha in range(-5, 6):
        bundled = HexFilling(alpha, 1, -3, -1, -2, 1)
        assert [h for _, h in instantiate_row(row36, {"alpha": alpha})] == [bundled]
        assert det3(linking_matrix(to_surgery(bundled))) == -4 * alpha - 2
        beta2 = HexFilling(alpha, 2, -3, -1, -2, 1)
        assert det3(linking_matrix(to_surgery(beta2))) == -1
