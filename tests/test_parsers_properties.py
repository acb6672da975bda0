"""Hypothesis properties of the text parsers: on any text each one returns a
value or raises its module's documented error, and accepted input
round-trips through the matching serializer."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given
from hypothesis import strategies as st

from artinhexa.artin import Presentation
from artinhexa.braids import BraidError, format_blocks, parse_blocks, parse_braid_word
from artinhexa.hexa import CellSyntaxError, parse_cell, serialize_cell
from artinhexa.relexpr import RelatorExprError, parse_relator_expr
from artinhexa.cli import DomainError, _load_presentation
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
    except (DomainError, ValueError):
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
