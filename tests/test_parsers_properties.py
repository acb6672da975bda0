"""Hypothesis properties of the text parsers: on any text each one returns a
value or raises its module's documented error, and accepted input
round-trips through the matching serializer.  The table-cell parser also
accepts and refuses what its term-by-term oracle (``tests/oracles.py``)
does."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given
from hypothesis import strategies as st

import oracles
from artinhexa.artin import Presentation
from artinhexa.braids import BraidError, format_blocks, parse_blocks, parse_braid_word
from artinhexa.hexa import CellSyntaxError, parse_cell, serialize_cell
from artinhexa.relexpr import RelatorExprError, parse_relator_expr
from artinhexa.cli import _load_presentation
from artinhexa.words import WordSyntaxError, parse_word, serialize_word

# Fragments of the grammars, so that accepted input is common, mixed with
# near misses: non-ASCII digits and spaces, unknown names, stray signs.
FRAGMENTS = (
    "x", "x1", "x2", "x3", "s1", "s2", "s3", "0", "1", "2", "3", "-", "+", "±",
    "^", "*", "(", ")", ",", ";", " ", "\t", "\u00a0", "\u0661", "gamma", "alpha",
    "foo", "1,1", "-1,2;",
)
# a digit run longer than int() reads (4300 digits by default), placed where
# each grammar reads an integer
long_digits = st.builds(
    "{}{}{}".format,
    st.sampled_from(("", "-", "x", "x1^", "x2^-", "s1^", "s2^-", "1,", "±", "gamma+", "x1^(")),
    st.integers(4301, 6000).map("9".__mul__),
    st.sampled_from(("", "*x1", ",1", "-alpha", ")", ";1,1")),
)
texts = st.one_of(
    st.text(max_size=30),
    st.lists(st.sampled_from(FRAGMENTS), max_size=10).map("".join),
    long_digits,
)
# presentation files: a rank line (any integer, some near misses) and lines
# of text, often relators
rank_lines = st.one_of(st.integers().map("rank {}".format), texts)
presentation_texts = st.one_of(
    st.text(),
    st.builds(
        lambda head, lines: "\n".join([head, *lines]),
        rank_lines,
        st.lists(texts, max_size=4),
    ),
)


@given(texts)
def test_parse_word_accepts_or_raises_syntax_error(text):
    try:
        w = parse_word(text)
    except WordSyntaxError:
        return
    assert parse_word(serialize_word(w)) == w


@given(texts)
def test_parse_cell_accepts_or_raises_syntax_error(text):
    try:
        cell = parse_cell(text)
    except CellSyntaxError:
        return
    assert parse_cell(serialize_cell(cell)) == cell


# cells: well-formed but for the whitespace, of every kind around the signs
# (the grammar takes any whitespace after "±" and between terms, only ASCII
# whitespace between a sign and its term), and runs of cell fragments
cell_spaces = st.sampled_from(("", " ", "\t", "\u00a0", "\u2003"))
cell_terms = st.sampled_from(("0", "1", "3", "12", "007", "gamma", "alpha"))
cells = st.builds(
    lambda pm, sign, space, term, rest: pm + sign + space + term + "".join(rest),
    st.builds("{}{}".format, st.sampled_from(("", "", "±")), cell_spaces),
    st.sampled_from(("", "+", "-")),
    cell_spaces,
    cell_terms,
    st.lists(
        st.builds("{}{}{}{}".format, cell_spaces, st.sampled_from(("+", "-")), cell_spaces, cell_terms),
        max_size=3,
    ),
)
CELL_FRAGMENTS = ("±", "+", "-", " ", "\t", "\u00a0", "\u0661", "0", "1", "12", "gamma", "beta", "foo", "x")
cell_texts = st.one_of(
    cells, st.lists(st.sampled_from(CELL_FRAGMENTS), max_size=10).map("".join), st.text(max_size=12)
)


def cell_outcome(parse, text):
    try:
        return parse(text)
    except CellSyntaxError:
        return None


@given(cell_texts)
@example("-\u00a01")
@example("1+\u00a0gamma")
@example("1+" + "9" * 4400)
@example("-\t1 \u00a0+ beta")
@example("±\u00a03-gamma")
@example("±-1")
@example("± gamma")
@example("1 2")
@example("gamma+alpha")
def test_parse_cell_accepts_and_refuses_as_the_oracle_does(text):
    assert cell_outcome(parse_cell, text) == cell_outcome(oracles.parse_cell, text)


@given(texts)
def test_parse_relator_expr_accepts_or_raises_its_error(text):
    try:
        parse_relator_expr(text)
    except RelatorExprError:
        pass


@given(texts)
def test_parse_blocks_accepts_or_raises_braid_error(text):
    try:
        blocks = parse_blocks(text)
    except BraidError:
        return
    assert parse_blocks(format_blocks(blocks)) == blocks


@given(texts)
def test_parse_braid_word_accepts_or_raises_braid_error(text):
    try:
        parse_braid_word(text)
    except BraidError:
        pass


@pytest.fixture(scope="module")
def presentation_path(tmp_path_factory):
    return tmp_path_factory.mktemp("presentation") / "pres.txt"


@given(presentation_texts)
def test_load_presentation_accepts_or_raises_domain_or_value_error(presentation_path, text):
    presentation_path.write_text(text, encoding="utf-8")
    try:
        pres = _load_presentation(str(presentation_path))
    except ValueError:
        return
    assert isinstance(pres, Presentation)


BAD_TOKEN = "x" + "?" * 4999


@pytest.mark.parametrize(
    "parse, error, text",
    [
        (parse_blocks, BraidError, "1," + BAD_TOKEN),
        (parse_braid_word, BraidError, BAD_TOKEN),
        (parse_cell, CellSyntaxError, BAD_TOKEN),
        (parse_cell, CellSyntaxError, "gamma+" + "q" * 5000),
        (parse_word, WordSyntaxError, BAD_TOKEN),
        (parse_relator_expr, RelatorExprError, BAD_TOKEN),
        (parse_relator_expr, RelatorExprError, "x1^(" + BAD_TOKEN + ")"),
        (parse_relator_expr, RelatorExprError, "x1^" + "q" * 5000),
    ],
    ids=["blocks", "braid-word", "cell", "cell-variable", "word", "relexpr",
         "relexpr-cell", "relexpr-variable"],
)
def test_errors_echo_a_bounded_part_of_their_input(parse, error, text):
    with pytest.raises(error) as exc:
        parse(text)
    assert len(str(exc.value)) < 200
