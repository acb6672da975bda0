import random

import pytest

import oracles
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
    symmetry_discrepancies,
    to_surgery,
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


def test_symmetries_apply_as_their_slot_names_say():
    # the Hypothesis import is here so that the rest of this file runs without it
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    syms = load_symmetries()
    assert len(syms) == 24

    @hypothesis.given(st.builds(HexFilling, *[st.integers(-10**6, 10**6)] * 6))
    @hypothesis.example(HexFilling(1, 2, 3, 4, 5, 6))
    def check(h):
        for sym in syms:
            by_name = {slot: getattr(h, src) for slot, src in zip(SLOTS, sym.sources)}
            assert sym.apply(h) == HexFilling(**by_name), sym.index

    check()


def test_symmetry_images_are_fillings_built_from_the_picked_values():
    # apply wraps the picked values without calling HexFilling: its image
    # must be the same filling, with the same type, repr and text
    h = HexFilling(1, -2, 3, 0, 5, -6)
    for sym in load_symmetries():
        image, expected = sym.apply(h), HexFilling(*(getattr(h, src) for src in sym.sources))
        assert type(image) is HexFilling and image == expected, sym.index
        assert (repr(image), str(image)) == (repr(expected), str(expected))


def test_symmetry_must_be_bijection():
    with pytest.raises(HexError):
        HexSymmetry(99, ("alpha",) * 6)


def keeps_pairing(sym, *pairs):
    pairs = {frozenset(p) for p in pairs}
    return {frozenset(sym.sources[SLOTS.index(s)] for s in p) for p in pairs} == pairs


def test_bundled_table_validates_and_pairs_opposites():
    syms = load_symmetries()
    assert symmetry_discrepancies(syms) == []
    # every row keeps the pairing of opposite boxes
    assert all(keeps_pairing(sym, ("alpha", "epsilon"), ("beta", "eta"), ("gamma", "delta")) for sym in syms)


def test_validator_flags_broken_tables():
    syms = list(load_symmetries())
    repeated = syms[:23] + [HexSymmetry(24, syms[0].sources)]
    assert symmetry_discrepancies(repeated) == ["row 24 repeats row 1", "23 distinct rows, not 24"]
    assert symmetry_discrepancies(syms[:5] + syms[6:]) == ["23 distinct rows, not 24"]


def test_a_well_formed_group_that_changes_the_cover_is_refused_row_by_row():
    planted = oracles.tetrahedral_edge_action()
    # a group of 24 distinct rows: its products are its rows, row 1 the
    # identity; every row keeps the pairing of opposite edges
    h = HexFilling(*range(6))
    images = {sym.apply(h) for sym in planted}
    assert len(images) == 24 and planted[0].is_identity()
    assert {a.apply(b.apply(h)) for a in planted for b in planted} == images
    assert all(keeps_pairing(sym, ("alpha", "eta"), ("beta", "epsilon"), ("gamma", "delta")) for sym in planted)
    bundled = {sym.sources for sym in load_symmetries()}
    outside = [sym.index for sym in planted if sym.sources not in bundled]
    assert len(outside) == 20
    faults = symmetry_discrepancies(planted)
    assert [int(line.split()[1].rstrip(":")) for line in faults] == outside
    assert faults[0] == "row 2: det 0 at 0,1,1,0,1,0, -1 at its image 0,1,1,1,0,0"


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
