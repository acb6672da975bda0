import pytest

import oracles
from artinhexa.relexpr import RelatorExprError, parse_relator_expr
from artinhexa.tables import EXAMPLE_TABLES, _read
from artinhexa.words import parse_word, serialize_word


def inst(text, **env):
    return serialize_word(parse_relator_expr(text).instantiate(env))


def test_plain_words():
    assert inst("x1^-1*x2*x3^2") == "x1^-1*x2*x3^2"
    assert inst("1") == "1"


def test_grouped_powers():
    assert inst("(x2*x3)^2") == "x2*x3*x2*x3"
    assert inst("(x2*x3)^-2") == "x3^-1*x2^-1*x3^-1*x2^-1"
    assert inst("(x1*x2*x3*x1)^-1") == "x1^-1*x3^-1*x2^-1*x1^-1"


def test_nested_groups():
    text = "(x2*(x2*x3)^-gamma*x1*(x2*x3)^gamma)^2*x2*(x2*x3)^-gamma"
    expr = parse_relator_expr(text)
    assert expr.variables() == ("gamma",)
    got = expr.instantiate({"gamma": 1})
    manual = parse_word("x2*x3^-1*x2^-1*x1*x2*x3*" * 2 + "x2*x3^-1*x2^-1")
    assert got == manual


def test_symbolic_exponents():
    assert inst("x1^-gamma", gamma=3) == "x1^-3"
    assert inst("x2^(gamma-1)", gamma=-2) == "x2^-3"
    assert inst("x3^(-epsilon-1)", epsilon=0) == "x3^-1"
    assert inst("(x2*x3)^(-gamma+1)", gamma=1) == "1"


def test_instantiation_reduces():
    # substitution can collapse a whole expression
    assert inst("(x2*x3)^gamma*(x2*x3)^-gamma", gamma=4) == "1"


def test_concrete_flag():
    assert not parse_relator_expr("x1*x2").variables()
    assert parse_relator_expr("x1^beta").variables() == ("beta",)


def test_variables_collected_in_order():
    expr = parse_relator_expr("x1^beta*(x2^gamma*x3)^-beta")
    assert expr.variables() == ("beta", "gamma")


def test_unbound_variable_rejected():
    from artinhexa.hexa import HexError

    with pytest.raises(HexError):
        parse_relator_expr("x1^gamma").instantiate({})


def test_parse_errors():
    # \u0661 is an Arabic-Indic one: digits are ASCII only
    for bad in ("x0", "(x1", "x1^", "x1^(2", "x1&", "x1^(±1)", "x1^(±0)", "x1^foo", "x1 x2",
                "x\u0661", "x1^\u0661", "x1^-\u0661", "x1^(\u0661)"):
        with pytest.raises(RelatorExprError):
            parse_relator_expr(bad)


def test_nesting_deeper_than_100_groups_is_refused():
    # instantiation and variables() recurse once per level of nesting
    assert inst("(" * 100 + "x1" + ")" * 100) == "x1"
    with pytest.raises(RelatorExprError, match="^groups nested more than 100 deep at position 100 "):
        parse_relator_expr("(" * 101 + "x1" + ")" * 101)


def test_whitespace_tolerated():
    assert inst(" x1 * ( x2 * x3 ) ^ 2 ") == "x1*x2*x3*x2*x3"


def test_bundled_expressions_parse_as_the_oracle_parses():
    count = 0
    for table in EXAMPLE_TABLES:
        for cells in _read(f"examples{table}.tsv", 3, lambda _, number, cells: cells, header=False):
            for text in cells:
                assert parse_relator_expr(text) == oracles.parse_relator_expr(text)
                count += 1
    assert count == 360
