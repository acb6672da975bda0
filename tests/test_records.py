"""The record types are named tuples or slotted classes: frozen, hashable,
picklable, with a ``Name(field=value, ...)`` repr and their fields in a
fixed order; the ones that check their fields refuse bad values however
they are built.  Also what the benchmark's traced run relies on, and a
start-up guard that counts the classes built as dataclasses and looks for
``json`` and ``importlib.resources``."""

import dataclasses
import json
import os
import pickle
import subprocess
import sys

import pytest

import artinhexa
from artinhexa import artin, braids, hexa, pipeline, relexpr, tables, triviality, words
from artinhexa.pipeline import ReportRow, Task, build_tasks, match_examples, run_tables

FILLING = hexa.HexFilling(1, -2, 3, 0, 5, -6)
PRES = artin.gen_from_hex(hexa.HexFilling(1, 1, 1, 0, 0, 0))
WORD = words.parse_word("x1^2*x3^-1")
SYMMETRY = tables.load_symmetries()[1]
CELL = hexa.parse_cell("±2-gamma")
ROW = tables.load_table(1)[0]


def records():
    """One instance of each record type, with its fields in order."""
    yield FILLING, ("alpha", "beta", "gamma", "delta", "epsilon", "eta")
    yield hexa.to_surgery(FILLING), ("m", "n", "p", "e", "e1", "f1")
    yield braids.PureBraid(((1, 2), (-1, 3)), 2), ("blocks", "twist")
    yield braids.classify(braids.PureBraid(((1, 1),), 0)), ("tag", "clauses")
    yield artin.verify_artin(PRES), ("w", "f")
    yield triviality.simplify(PRES, 50), ("tag", "divisors", "moves")
    expr = relexpr.parse_relator_expr("x1*(x2*x3^gamma)^-2")
    yield expr.factors[1], ("base", "exp")
    yield expr, ("factors", "text")
    yield tables.load_examples(5)[0], ("table", "row", "relators")
    yield next(build_tasks((1,), (0, 0), "all", True)), (
        "table", "row", "assignment", "branch", "symmetry", "mirrored", "filling",
    )
    yield pipeline.ExampleMatch(5, 1, True, 1, 1, "table1 row 1 sym 1"), (
        "table", "row", "concrete", "instances", "matched", "first_match",
    )
    # the records that check their fields when built
    yield WORD, ("syllables",)
    yield PRES, ("rank", "relators")
    yield SYMMETRY, ("index", "sources")
    yield CELL, ("pm", "c0", "c1", "var")
    yield ROW, ("table_id", "row", "column_order", "cells")


RECORDS = list(records())
IDS = [type(record).__name__ for record, _ in RECORDS]


@pytest.mark.parametrize("record, fields", RECORDS, ids=IDS)
def test_fields_cannot_be_assigned(record, fields):
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = None


@pytest.mark.parametrize("record, fields", RECORDS, ids=IDS)
def test_equal_records_hash_equal(record, fields):
    copy = type(record)(**{name: getattr(record, name) for name in fields})
    assert copy is not record
    assert copy == record and hash(copy) == hash(record)


@pytest.mark.parametrize("record, fields", RECORDS, ids=IDS)
def test_pickle_round_trips(record, fields):
    back = pickle.loads(pickle.dumps(record))
    assert type(back) is type(record) and back == record


@pytest.mark.parametrize("record, fields", RECORDS, ids=IDS)
def test_repr_names_every_field(record, fields):
    inner = ", ".join(f"{name}={getattr(record, name)!r}" for name in fields)
    assert repr(record) == f"{type(record).__name__}({inner})"


def test_a_word_equals_only_a_word():
    # a Word is no tuple: len is its letter length, and it never equals
    # its syllables
    w = words.Word(((1, 2),))
    assert w != ((1, 2),) and w != (((1, 2),),) and len(w) == 2
    assert w == words.parse_word("x1^2") and words.Word() == words.IDENTITY


def test_checked_named_tuples_equal_plain_tuples():
    assert CELL == (True, 2, -1, "gamma") and hash(CELL) == hash((True, 2, -1, "gamma"))
    assert PRES == (PRES.rank, PRES.relators)
    assert SYMMETRY == (2, SYMMETRY.sources) and hash(SYMMETRY) == hash((2, SYMMETRY.sources))


def test_symmetry_is_compared_without_its_picker():
    sym = SYMMETRY
    copy = hexa.HexSymmetry(sym.index, sym.sources)
    assert copy == sym and hash(copy) == hash(sym) and "_pick" not in repr(sym)
    assert copy.apply(FILLING) == sym.apply(FILLING) != FILLING
    assert pickle.loads(pickle.dumps(sym)).apply(FILLING) == sym.apply(FILLING)
    assert hexa.HexSymmetry(sym.index + 1, sym.sources) != sym


def bad_values():
    """A refused value for each field check of the records that check their
    fields, as the record and the change that breaks it."""
    yield WORD, {"syllables": ((1, 1), (1, 2))}  # a repeated generator
    yield WORD, {"syllables": ((1, 0),)}
    yield WORD, {"syllables": ((0, 1),)}
    yield PRES, {"rank": -1}
    yield PRES, {"rank": 2}  # a relator has x3
    yield SYMMETRY, {"sources": ("alpha",) * 6}  # not a bijection
    yield CELL, {"c0": 0}  # a ± cell needs c0 > 0
    yield CELL, {"c1": 0}
    yield CELL, {"c1": 2, "var": "gamma"}
    yield CELL, {"var": "zeta"}
    yield ROW, {"cells": ROW.cells[:5]}
    yield ROW, {"cells": tuple(map(hexa.parse_cell, ("alpha", "beta", "gamma"))) + ROW.cells[3:]}
    yield ROW, {"column_order": hexa.SLOTS[:5] + ("alpha",)}


BAD_VALUES = list(bad_values())
FIELDS = {type(record): fields for record, fields in RECORDS}


@pytest.mark.parametrize(
    "record, change", BAD_VALUES, ids=[f"{type(r).__name__}-{'-'.join(c)}" for r, c in BAD_VALUES]
)
def test_checked_records_refuse_bad_values(record, change):
    fields = {name: getattr(record, name) for name in FIELDS[type(record)]}
    with pytest.raises(ValueError):
        type(record)(**{**fields, **change})
    if isinstance(record, tuple):  # _replace checks as the constructor does
        with pytest.raises(ValueError):
            record._replace(**change)


def test_records_keep_their_text_forms():
    assert str(FILLING) == "1,-2,3,0,5,-6"
    assert str(braids.BraidClass("EssentialTorus", ("Thm4.2-i",))) == "EssentialTorus Thm4.2-i"
    assert str(braids.BraidClass("Hyperbolic")) == "Hyperbolic"
    # a filling formats as text, not as the argument tuple of "%"
    assert "%s" % (FILLING,) == "1,-2,3,0,5,-6" and f"{FILLING}" == str(FILLING)


def test_as_tuple_is_a_plain_tuple():
    values = FILLING.as_tuple()
    assert type(values) is tuple and values == (1, -2, 3, 0, 5, -6)
    assert hexa.HexFilling(*values) == FILLING


def test_report_row_is_a_dataclass_built_by_keyword():
    task = next(build_tasks((1,), (0, 0), "id"))
    row = ReportRow(
        **task._asdict(), relators=("x1", "x2", "x3"), artin_w=True, artin_f=False,
        divisors=(1, 1, 1), verdict="-", braid_class="Hyperbolic",
    )
    assert row.example_match == ""
    assert (row.table, row.row, row.filling) == (task.table, task.row, task.filling)
    marked = dataclasses.replace(row, example_match="5:1")
    assert marked.example_match == "5:1"
    assert dataclasses.replace(marked, example_match="") == row
    with pytest.raises(dataclasses.FrozenInstanceError):
        row.verdict = "Trivial"


def test_report_row_starts_with_the_task_fields():
    # _rows builds a row as ReportRow(*task, *cells)
    assert tuple(f.name for f in dataclasses.fields(ReportRow)) == Task._fields + (
        "relators", "artin_w", "artin_f", "divisors", "verdict", "braid_class", "example_match",
    )


def test_match_examples_reads_report_rows_as_tasks():
    config = dict(tables=(1, 2), param_range=(0, 0), symmetries="all")
    rows = list(run_tables(**config))
    assert all(isinstance(row, ReportRow) for row in rows)
    by_rows = match_examples(rows, config["param_range"])
    assert by_rows == match_examples(build_tasks(**config), config["param_range"])
    assert any(m.matched for m in by_rows)


STARTUP = """
import sys
import artinhexa.cli

json_at_startup = "json" in sys.modules
import dataclasses, importlib, json, pkgutil

def dataclasses_loaded():
    return sorted(
        f"{name.split('.')[-1]}.{cls.__name__}"
        for name, module in list(sys.modules.items())
        if name.startswith("artinhexa.")
        for cls in vars(module).values()
        if isinstance(cls, type) and cls.__module__ == name and dataclasses.is_dataclass(cls)
    )

at_startup = dataclasses_loaded()
freeprod_at_startup = "artinhexa.freeprod" in sys.modules
for info in pkgutil.iter_modules(artinhexa.__path__):
    importlib.import_module("artinhexa." + info.name)
print(json.dumps([json_at_startup, at_startup, freeprod_at_startup, dataclasses_loaded()]))
"""


def test_startup_builds_only_the_expected_dataclasses():
    # ReportRow stays a dataclass: the traced benchmark builds it by keyword
    # and copies it with dataclasses.replace; the report commands import it,
    # and rho imports FPWord, so starting the command line builds neither
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(artinhexa.__file__)))
    out = subprocess.run([sys.executable, "-c", STARTUP], env=env, capture_output=True, text=True, check=True)
    json_at_startup, at_startup, freeprod_at_startup, everywhere = json.loads(out.stdout)
    assert not json_at_startup and not freeprod_at_startup
    assert at_startup == []
    assert everywhere == ["freeprod.FPWord", "pipeline.ReportRow"]


def test_startup_does_not_import_importlib_resources():
    # -S: a site-packages .pth file may import importlib.resources itself
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(artinhexa.__file__)))
    code = "import sys, artinhexa.cli; print('importlib.resources' in sys.modules)"
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout == "False\n"
