import random

import pytest

from artinhexa.braids import PureBraid
from artinhexa.hexa import (
    SLOTS,
    CellSyntaxError,
    HexError,
    HexFilling,
    HexSymmetry,
    LinearCell,
    ParamRow,
    instantiate_row,
    orbit,
    parse_cell,
    serialize_cell,
    tetrahedral_control,
    to_surgery,
    validate_symmetry_table,
)
from artinhexa.tables import load_symmetries, symmetry_by_index


def rand_filling(rng):
    return HexFilling(*(rng.randint(-4, 4) for _ in range(6)))


# ---- symmetries ------------------------------------------------------------

def test_identity_symmetry_fixes_everything():
    rng = random.Random(61)
    sym1 = symmetry_by_index(1)
    assert sym1.is_identity()
    for _ in range(50):
        h = rand_filling(rng)
        assert sym1.apply(h) == h


def test_symmetry_3_worked_example():
    # alpha takes gamma's value, beta alpha's, gamma beta's,
    # delta eta's, eta epsilon's, epsilon delta's
    h = HexFilling(1, 2, 3, 4, 5, 6)
    assert symmetry_by_index(3).apply(h) == HexFilling(3, 1, 2, 6, 4, 5)


def test_symmetry_2_is_order_three():
    sym2 = symmetry_by_index(2)
    rng = random.Random(67)
    for _ in range(50):
        h = rand_filling(rng)
        assert sym2.apply(sym2.apply(sym2.apply(h))) == h


def test_symmetry_must_be_bijection():
    with pytest.raises(HexError):
        HexSymmetry(99, ("alpha",) * 6)


def test_validator_passes_on_control():
    report = validate_symmetry_table(tetrahedral_control())
    assert report.passed
    assert report.distinct and report.has_identity and report.closed
    assert len(report.opposite_pairings) == 1
    # complementary tetrahedron edges under the canonical labelling
    assert report.opposite_pairings[0] == (
        ("alpha", "eta"),
        ("beta", "epsilon"),
        ("gamma", "delta"),
    )


def test_validator_flags_broken_tables():
    control = list(tetrahedral_control())
    # duplicate a row: distinctness and closure both degrade
    broken = control[:23] + [HexSymmetry(24, control[0].sources)]
    report = validate_symmetry_table(broken)
    assert not report.distinct
    # drop a row: closure fails
    report = validate_symmetry_table(control[1:])
    assert not report.closed and report.missing_products


def test_bundled_table_validates_and_pairs_opposites():
    report = validate_symmetry_table(load_symmetries())
    assert report.passed
    assert report.opposite_pairings[0] == (
        ("alpha", "epsilon"),
        ("beta", "eta"),
        ("gamma", "delta"),
    )


def test_orbit_basics():
    syms = load_symmetries()
    zero = HexFilling(0, 0, 0, 0, 0, 0)
    assert orbit(zero, syms) == (zero,)
    rng = random.Random(71)
    for _ in range(20):
        h = rand_filling(rng)
        images = orbit(h, syms)
        assert len(images) <= 24
        mirrored = orbit(h, syms, include_mirror=True)
        assert len(mirrored) <= 48
        assert set(images) <= set(mirrored)
        for sym in syms:
            assert sym.apply(h) in images


def test_mirror_negates():
    assert HexFilling(1, -2, 3, 0, 5, -6).mirror() == HexFilling(-1, 2, -3, 0, -5, 6)


def test_symmetries_preserve_abelian_invariants():
    # the homology of the generated presentation is a symmetry invariant,
    # whether or not the filling comes from the tables
    from artinhexa.artin import gen_from_hex
    from artinhexa.triviality import abelian_invariants

    syms = load_symmetries()
    rng = random.Random(127)
    for _ in range(40):
        h = rand_filling(rng)
        base = abelian_invariants(gen_from_hex(h))
        for sym in syms:
            assert abelian_invariants(gen_from_hex(sym.apply(h))) == base


# ---- surgery correspondence ---------------------------------------------------

def test_to_surgery_examples():
    spec = to_surgery(HexFilling(1, 1, 1, 0, 0, 0))
    assert (spec.m, spec.n, spec.p) == (-1, -2, -1)
    assert spec.braid == PureBraid(((0, -1),), 0)

    spec = to_surgery(HexFilling(0, 0, 0, 0, 0, 0))
    assert (spec.m, spec.n, spec.p) == (0, 0, 0)
    assert spec.braid == PureBraid(((0, 0),), 0)


def test_to_surgery_formula():
    rng = random.Random(73)
    for _ in range(100):
        h = rand_filling(rng)
        spec = to_surgery(h)
        assert (spec.m, spec.n, spec.p) == (
            -h.alpha - h.delta - h.eta,
            -h.beta - h.delta - h.gamma - h.eta,
            -h.epsilon - h.gamma - h.eta,
        )
        assert spec.braid.blocks == ((-h.delta, -h.gamma),)
        assert spec.braid.twist == -h.eta


# ---- cells and rows -------------------------------------------------------------

def test_parse_cell_examples():
    cell = parse_cell("±1-gamma")
    assert cell == LinearCell(pm=True, c0=1, c1=-1, var="gamma")
    assert cell.values({"gamma": 2}) == (-1, -3)

    assert parse_cell("0") == LinearCell()
    assert parse_cell("-3-gamma").values({"gamma": -1}) == (-2,)
    assert parse_cell("1-alpha") == LinearCell(c0=1, c1=-1, var="alpha")
    assert parse_cell("gamma") == LinearCell(c1=1, var="gamma")
    assert parse_cell("-epsilon") == LinearCell(c1=-1, var="epsilon")
    assert parse_cell("±1") == LinearCell(pm=True, c0=1)


def test_parse_cell_errors():
    # ± needs a positive constant; digits are ASCII only (\u0661 and \u0663
    # are Arabic-Indic one and three)
    for bad in ("", "2gamma", "gamma+delta", "±gamma", "foo", "1 2", "±0", "±0+gamma",
                "±1-3", "\u0661", "1+\u0661", "±\u0663"):
        with pytest.raises(CellSyntaxError):
            parse_cell(bad)
    with pytest.raises(HexError):
        LinearCell(c1=2, var="gamma")


def test_cell_unbound_variable():
    with pytest.raises(HexError):
        parse_cell("gamma").values({})


def test_serialize_cell_round_trip():
    for text in ("0", "-3", "±1", "gamma", "-gamma", "±1-gamma", "1-alpha", "-3-epsilon", "3-alpha"):
        assert serialize_cell(parse_cell(text)) == text


def _row(cells_text, order=("eta", "beta", "alpha", "delta", "epsilon", "gamma")):
    return ParamRow(1, 99, order, tuple(parse_cell(c) for c in cells_text))


def test_instantiate_row_reorders_and_branches():
    # declared order eta beta alpha delta epsilon gamma
    row = _row(("0", "1", "±1", "0", "-1", "gamma"))
    out = instantiate_row(row, {"gamma": 4})
    assert [(branch, h.as_tuple()) for branch, h in out] == [
        ("+", (1, 1, 4, 0, -1, 0)),
        ("-", (-1, 1, 4, 0, -1, 0)),
    ]


def test_instantiate_row_multiple_pm_cells():
    row = _row(("0", "±1", "±1", "0", "0", "±1"))
    out = instantiate_row(row, {})
    assert len(out) == 8
    assert out[0][0] == "+++" and out[0][1] == HexFilling(1, 1, 1, 0, 0, 0)
    assert out[-1][0] == "---" and out[-1][1] == HexFilling(-1, -1, -1, 0, 0, 0)


def test_instantiate_row_requires_assignment():
    row = _row(("0", "1", "1", "0", "-1", "gamma"))
    with pytest.raises(HexError):
        instantiate_row(row, {})


def test_row_variable_limit():
    with pytest.raises(HexError):
        ParamRow(
            1,
            1,
            SLOTS,
            tuple(parse_cell(c) for c in ("alpha", "beta", "gamma", "0", "0", "0")),
        )
