"""The relator-expression parser and instantiation against their oracles
(``tests/oracles.py``): the recursive-descent parser over a whitespace-
skipping scanner, and instantiation by ``concat`` of reduced ``power``s."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given
from hypothesis import strategies as st

import oracles
from artinhexa.hexa import LinearCell
from artinhexa.relexpr import Factor, RelatorExpr, RelatorExprError, parse_relator_expr
from artinhexa.words import abelianize

# well-formed expressions, with whitespace wherever the grammar allows it
spaces = st.sampled_from(("", " ", "  ", "\t", "\n", "\u00a0", "\u2003"))
exponents = st.sampled_from(
    ("2", "-3", "0", "-0", "12", "gamma", "-beta", "(gamma-1)", "( -beta+2 )",
     "(3)", "(-epsilon-1)", "( alpha )")
)
generators = st.integers(1, 12).map("x{}".format)


def with_exponent(items):
    return st.builds(
        lambda item, a, b, exp: item if exp is None else f"{item}{a}^{b}{exp}",
        items, spaces, spaces, st.none() | exponents,
    )


def product(factors):
    return st.lists(st.tuples(spaces, factors, spaces), min_size=1, max_size=4).map(
        lambda parts: "*".join(a + f + b for a, f, b in parts)
    )


items = st.recursive(
    generators,
    lambda inner: st.builds("({})".format, product(with_exponent(inner))),
    max_leaves=8,
)
expressions = product(with_exponent(items))

# near misses: a fragment or a space inserted into, or a character removed
# from, a well-formed expression, and runs of grammar fragments
FRAGMENTS = (
    "x", "x1", "x0", "x 1", "1", "0", "-", "+", "±", "^", "*", "(", ")", " ", "\t",
    "\u00a0", "\u0661", "gamma", "beta", "foo", "^(", "^-", "^ -", ")^", "-1", "(±1)",
)


def insert(text, at, part):
    at %= len(text) + 1
    return text[:at] + part + text[at:]


def remove(text, at):
    at %= len(text)
    return text[:at] + text[at + 1:]


# each near miss is drawn as a tuple (text, position, fragment) whose
# position is taken modulo the text's length, so every position stays
# reachable, and Hypothesis shrinks the three parts independently
positions = st.integers(min_value=0)
inserted = st.builds(insert, expressions, positions, st.sampled_from(FRAGMENTS))
spaced = st.builds(insert, expressions, positions, spaces)
removed = st.builds(remove, expressions, positions)
texts = st.one_of(
    expressions, inserted, spaced, removed,
    st.lists(st.sampled_from(FRAGMENTS), max_size=10).map("".join),
    st.text(max_size=20),
)


def outcome(parse, text):
    try:
        return parse(text)
    except RelatorExprError:
        return None


@given(expressions)
def test_well_formed_expressions_parse_as_the_oracle_parses(text):
    expr = parse_relator_expr(text)
    assert expr == oracles.parse_relator_expr(text)


@given(texts)
@example("x 1")
@example("x1^- 2")
@example("x1 ^ ( gamma )")
@example("(x1)^2^3")
def test_texts_are_accepted_or_refused_as_the_oracle_does(text):
    assert outcome(parse_relator_expr, text) == outcome(oracles.parse_relator_expr, text)


# factor trees: any exponent on a generator; on a group, values in -2..2
# (a variable cell is c0 + c1 * var with |c0| <= 1 and |var| <= 1), so
# that nesting stays small
VARIABLES = ("beta", "gamma")
group_cells = st.one_of(
    st.integers(-2, 2).map(lambda k: LinearCell(c0=k)),
    st.builds(
        lambda c0, c1, var: LinearCell(c0=c0, c1=c1, var=var),
        st.integers(-1, 1), st.sampled_from((-1, 1)), st.sampled_from(VARIABLES),
    ),
)
generator_cells = st.one_of(group_cells, st.integers(-5, 5).map(lambda k: LinearCell(c0=k)))
factor_trees = st.recursive(
    st.builds(Factor, st.integers(1, 3), generator_cells),
    lambda inner: st.builds(Factor, st.lists(inner, min_size=1, max_size=4).map(tuple), group_cells),
    max_leaves=12,
)
assignments = st.fixed_dictionaries({name: st.integers(-1, 1) for name in VARIABLES})


@given(st.lists(factor_trees, max_size=4).map(tuple), assignments)
def test_instantiation_equals_the_product_of_reduced_powers(factors, env):
    got = RelatorExpr(factors, "").instantiate(env)
    assert got == oracles.instantiate(factors, env)


@given(st.lists(factor_trees, max_size=4).map(tuple), assignments)
def test_exponent_sums_are_those_of_the_spelled_word(factors, env):
    sums, syllables = RelatorExpr(factors, "").exponent_sums(env)
    assert set(sums) <= {1, 2, 3}
    assert tuple(sums.get(g, 0) for g in (1, 2, 3)) == abelianize(oracles.instantiate(factors, env), 3)
    assert syllables == oracles.syllable_count(factors, env)
