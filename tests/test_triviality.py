import functools
import hashlib
import json
import random
import re

import pytest

from artinhexa import triviality
from artinhexa.artin import Presentation, gen_from_hex
from artinhexa.hexa import HexFilling
from artinhexa.matching import build_tasks
from artinhexa.triviality import (
    abelian_invariants,
    apply_move,
    replay,
    simplify,
    smith_invariants,
)
from artinhexa.words import (
    Word,
    concat,
    invert,
    parse_word,
    power,
    reduce_word,
    serialize_word,
)
from oracles import conjugate, cyclic_canonical


def pres(*texts, rank=3):
    return Presentation(rank, tuple(parse_word(t) for t in texts))


# ---- Smith normal form -------------------------------------------------------

def test_smith_known_matrix():
    # classic example with chain 1 | 10 | 30
    m = [[12, 6, 4], [3, 9, 6], [2, 16, 14]]
    assert smith_invariants(m, 3) == (1, 10, 30)


def test_smith_zero_and_identity():
    assert smith_invariants([[0, 0], [0, 0]], 2) == (0, 0)
    assert smith_invariants([[1, 0], [0, 1]], 2) == (1, 1)
    assert smith_invariants([], 3) == ()


def test_smith_refuses_a_ragged_matrix():
    with pytest.raises(ValueError, match="ragged matrix"):
        smith_invariants([[1, 0, 0], [0, 1]], 3)


def test_smith_rank_deficient():
    assert smith_invariants([[1, 1, 1], [1, 1, 1], [1, 1, 1]], 3) == (1, 0, 0)


def test_smith_against_sympy_oracle():
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form

    rng = random.Random(101)
    for _ in range(120):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        m = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        got = smith_invariants([r[:] for r in m], cols)
        snf = smith_normal_form(sympy.Matrix(m))
        expected = tuple(abs(int(snf[i, i])) for i in range(min(rows, cols)))
        assert got == expected, m


def test_smith_divisor_product_is_determinant():
    rng = random.Random(103)
    for _ in range(100):
        m = [[rng.randint(-5, 5) for _ in range(3)] for _ in range(3)]
        det = (
            m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
        )
        divisors = smith_invariants([r[:] for r in m], 3)
        product = 1
        for d in divisors:
            product *= d
        assert product == abs(det)


# ---- abelian invariants --------------------------------------------------------

def test_abelian_invariants_table5_row1():
    p = pres("x1^-1", "x2^-1*x3^-1*x2^-1", "x3^-1*x2^-1")
    assert abelian_invariants(p) == (1, 1, 1)


def test_abelian_invariants_torsion():
    assert abelian_invariants(pres("x1^2", "x2", "x3")) == (1, 1, 2)


def test_abelian_invariants_free():
    assert abelian_invariants(pres("1", "1", "1")) == (0, 0, 0)
    assert abelian_invariants(Presentation(3, ())) == (0, 0, 0)


def test_abelian_invariants_deficiency():
    assert abelian_invariants(pres("x1*x2*x3", "x1*x2*x3", "x1*x2*x3")) == (1, 0, 0)


def test_invariants_stable_under_nielsen_style_moves():
    rng = random.Random(107)
    for _ in range(60):
        relators = [
            reduce_word(
                [(rng.randint(1, 3), rng.choice([-2, -1, 1, 2])) for _ in range(5)]
            )
            for _ in range(3)
        ]
        base = abelian_invariants(Presentation(3, tuple(relators)))
        g = reduce_word([(rng.randint(1, 3), rng.choice([-1, 1])) for _ in range(4)])
        i, j = rng.sample(range(3), 2)

        conjugated = list(relators)
        conjugated[i] = conjugate(relators[i], g)
        assert abelian_invariants(Presentation(3, tuple(conjugated))) == base

        inverted = list(relators)
        inverted[i] = invert(relators[i])
        assert abelian_invariants(Presentation(3, tuple(inverted))) == base

        multiplied = list(relators)
        multiplied[i] = concat(relators[i], relators[j])
        assert abelian_invariants(Presentation(3, tuple(multiplied))) == base


def test_abelian_invariants_bounds_the_smith_work(monkeypatch):
    # relators * rank * min(relators, rank) = 2 * 3 * 2 steps
    p = pres("x1", "x2^2")
    monkeypatch.setattr(triviality, "MAX_SMITH_WORK", 12)
    assert abelian_invariants(p) == (1, 2, 0)
    monkeypatch.setattr(triviality, "MAX_SMITH_WORK", 11)
    with pytest.raises(ValueError, match=r"2 relators in 3 generators takes 2\*3\*2 = 12 steps, above the limit 11$"):
        abelian_invariants(p)


# ---- simplify -------------------------------------------------------------------

def test_simplify_table5_row1_trivial():
    verdict = simplify(pres("x1^-1", "x2^-1*x3^-1*x2^-1", "x3^-1*x2^-1"))
    assert verdict.tag == "Trivial"
    assert len(verdict.moves) <= 10


def test_simplify_refutes_by_invariants():
    verdict = simplify(pres("x1^2", "x2", "x3"))
    assert verdict.tag == "NotTrivial"
    assert verdict.divisors == (1, 1, 2)
    assert verdict.moves == ()


def test_simplify_repeated_relator_not_trivial():
    verdict = simplify(pres("x1*x2*x3", "x1*x2*x3", "x1*x2*x3"))
    assert verdict.tag == "NotTrivial"
    assert verdict.divisors == (1, 0, 0)


def test_simplify_budget_exhaustion_is_unknown():
    # a trivial-group filling whose search needs more than two moves
    p = gen_from_hex(HexFilling(1, -1, -2, -2, -3, 0))
    assert simplify(p).tag == "Trivial"
    verdict = simplify(p, budget=2)
    assert verdict.tag == "Unknown"
    assert len(verdict.moves) == 2
    verdict = simplify(p, budget=0)
    assert (verdict.tag, verdict.moves) == ("Unknown", ())
    with pytest.raises(ValueError, match="budget must be at least 0, got -1"):
        simplify(p, budget=-1)


def test_simplify_never_trivial_with_nontrivial_homology():
    rng = random.Random(109)
    for _ in range(100):
        relators = tuple(
            reduce_word(
                [(rng.randint(1, 3), rng.choice([-2, -1, 1, 2])) for _ in range(4)]
            )
            for _ in range(3)
        )
        p = Presentation(3, relators)
        verdict = simplify(p, budget=200)
        if any(d != 1 for d in abelian_invariants(p)):
            assert verdict.tag == "NotTrivial"


def test_trivial_certificates_replay_to_empty():
    # instantiated table rows present the trivial group, so most reach
    # Trivial; every certificate must replay to the empty presentation
    from artinhexa.hexa import instantiate_row
    from artinhexa.matching import assignments_for
    from artinhexa.tables import load_table

    replayed = 0
    for row in load_table(1):
        for assignment in assignments_for(row.variables(), (-1, 1)):
            for _, h in instantiate_row(row, dict(assignment)):
                p = gen_from_hex(h)
                verdict = simplify(p)
                if verdict.tag == "Trivial":
                    assert replay(p, verdict.moves) == (0, ())
                    replayed += 1
    assert replayed > 80


def test_simplify_deterministic():
    p = gen_from_hex(HexFilling(0, 0, 2, -1, -1, 1))
    a = simplify(p, budget=500)
    b = simplify(p, budget=500)
    assert a == b


def test_verdict_json_shape():
    verdict = simplify(pres("x1", "x2", "x3"))
    payload = verdict.as_json_dict()
    assert set(payload) == {"tag", "divisors", "moves", "budget_spent"}
    assert payload["tag"] == "Trivial"
    assert all(isinstance(m, list) for m in payload["moves"])
    assert payload["budget_spent"] == len(payload["moves"]) == 3


def test_replay_rejects_out_of_range_generator():
    with pytest.raises(ValueError):
        replay(pres("x1", "x2", "x3"), [("kill", 0, 0)])


@pytest.mark.parametrize(
    "relators, moves",
    [
        # divisors 1,1,2: killing x1 by its square must not replay to (0, ())
        (("x1^2", "x2", "x3"), [("kill", 0, 1)] * 3),
        (("x1", "x2", "x3"), [("kill", 5, 1)]),
        (("x1", "x2", "x3"), [("kill", -1, 2)]),
        (("x1", "x2", "x3"), [("kill", -1, 3)]),
        (("x1", "x2", "x3"), [("kill", 0, 2)]),
        (("x1*x2", "x2", "x3"), [("kill", 0, 1)]),
        (("x1*x2", "x2", "x3"), [("subst", 3, 1)]),
        (("x1*x2", "x2", "x3"), [("subst", -1, 3)]),
        # mult of a relator by itself replaces x1^2 by the identity
        (("x1^2", "x2", "x3"), [("mult", 0, 0, -1, 0)]),
        (("x1*x2", "x2", "x3"), [("mult", 0, 3, 1, 0)]),
        (("x1*x2", "x2", "x3"), [("mult", -1, 0, 1, 0)]),
        (("x1*x2", "x2", "x3"), [("mult", 0, 1, 2, 0)]),
        (("x1*x2", "x2", "x3"), [("mult", 0, 1, 0, 0)]),
        (("x1*x2", "x2", "x3"), [("mult", 0, 1, 1, 2)]),
        (("x1*x2", "x2", "x3"), [("mult", 0, 1, 1, -1)]),
        (("x1", "x2", "x3"), [()]),
    ],
)
def test_replay_rejects_illegal_moves(relators, moves):
    with pytest.raises(ValueError):
        replay(pres(*relators), moves)


@pytest.mark.parametrize(
    "relators, move, expected",
    [
        (("x2*x1*x2^-1", "1", "x3*x2"), ("reduce",), (3, ["x1", "x2*x3"])),
        (("x1", "x1*x2", "x3*x1^-1"), ("kill", 0, 1), (2, ["x1", "x2"])),
        (("x1*x2*x3", "x1*x3", "x2"), ("subst", 0, 2), (2, ["x1*x2", "x1^-1*x2^-1"])),
        (("x1*x2", "x2^-1*x3", "x3"), ("mult", 0, 1, 1, 0), (3, ["x1*x3", "x2^-1*x3", "x3"])),
        (("x1*x2", "x3*x1", "x3"), ("mult", 0, 1, -1, 1), (3, ["x2*x3^-1", "x3*x1", "x3"])),
    ],
    ids=["reduce", "kill", "subst", "mult", "mult-inverse-rotated"],
)
def test_apply_move_returns_a_new_pair(relators, move, expected):
    given = [parse_word(t) for t in relators]
    before = list(given)
    rank, out = apply_move(3, given, move)
    assert given == before
    assert out is not given
    assert (rank, [serialize_word(w) for w in out]) == expected


@pytest.mark.parametrize(
    "relators, move, message",
    [
        (("x1", "x2", "x3"), ("kill", 5, 1), "relator index 5 out of range 0..2"),
        (("x1", "x2", "x3"), ("kill", 0, 2), "relator 0 is not x2^+-1"),
        (("x1^2*x2", "x2", "x3"), ("subst", 0, 1), "generator 1 is not solvable in x1^2*x2"),
        (("x1^2", "x2", "x3"), ("mult", 0, 0, -1, 0), "illegal multiplication move ('mult', 0, 0, -1, 0)"),
        (("x1*x2", "x2", "x3"), ("mult", 0, 1, 1, 2), "illegal multiplication move ('mult', 0, 1, 1, 2)"),
        (("x1", "x2", "x3"), ("swap", 0, 1), "unknown move ('swap', 0, 1)"),
        (("x1", "x2", "x3"), (), "malformed move ()"),
        (("x1", "x2", "x3"), ("reduce", 1, 2), "malformed move ('reduce', 1, 2)"),
        (("x1", "x2", "x3"), ("kill", 0, 1, 9), "malformed move ('kill', 0, 1, 9)"),
        (("x1", "x2", "x3"), (["kill"], 0, 1), "unknown move (['kill'], 0, 1)"),
        (("x1", "x2", "x3"), ("kill", "0", 1), "malformed move ('kill', '0', 1)"),
        (("x1", "x2", "x3"), ("kill", 0, 1.0), "malformed move ('kill', 0, 1.0)"),
        (("x1", "x2", "x3"), ("kill", True, 1), "malformed move ('kill', True, 1)"),
        (("x1*x2", "x2", "x3"), ("mult", 0, 1, 1, 0.5), "malformed move ('mult', 0, 1, 1, 0.5)"),
    ],
    ids=["index", "kill", "subst", "mult-self", "mult-rotation", "unknown",
         "empty", "reduce-too-long", "kill-too-long", "kind-not-str",
         "index-str", "gen-float", "index-bool", "rotation-float"],
)
def test_apply_move_refuses_illegal_moves(relators, move, message):
    given = [parse_word(t) for t in relators]
    before = list(given)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        apply_move(3, given, move)
    assert given == before


def test_subst_refuses_a_result_above_the_syllable_cap(monkeypatch):
    # x1 = x3^-1*x2^-1, which is x2^-1*x1^-1 once x3 and x2 move down, so
    # the other relators spell out to 1 + 14 syllables before reduction
    given = [parse_word(t) for t in ("x1*x2*x3", "x2", "x1^7")]
    monkeypatch.setattr(triviality.artin, "MAX_PRESENTATION_SYLLABLES", 15)
    rank, out = apply_move(3, given, ("subst", 0, 1))
    assert (rank, [serialize_word(w) for w in out]) == (2, ["x1", "*".join(["x2^-1*x1^-1"] * 7)])
    monkeypatch.setattr(triviality.artin, "MAX_PRESENTATION_SYLLABLES", 14)
    with pytest.raises(ValueError, match="^substituting for x1 builds more than 14 syllables$"):
        apply_move(3, given, ("subst", 0, 1))


def test_every_emitted_log_replays():
    # logs of every verdict, not only Trivial ones, consist of legal moves
    fillings = dict.fromkeys(t.filling for t in build_tasks((1, 2, 3), (-1, 1), "id"))
    tags = set()
    for h in fillings:
        p = gen_from_hex(h)
        verdict = simplify(p)
        rank, relators = replay(p, verdict.moves)
        tags.add(verdict.tag)
        if verdict.tag == "Trivial":
            assert (rank, relators) == (0, ())
    assert {"Trivial", "Unknown"} <= tags


def reference_best_mult(relators):
    """``_best_mult`` as it was first written: build every candidate word and
    read its length.  The oracle for the tie-break, and so for move logs."""
    best_key = None
    best_move = None
    for i, ri in enumerate(relators):
        base_len = len(ri)
        syls = ri.syllables
        for rot in range(max(len(syls), 1)):
            rotated = Word(syls[rot:] + syls[:rot])
            for j, rj in enumerate(relators):
                if i == j:
                    continue
                for sign in (1, -1):
                    other = rj if sign == 1 else invert(rj)
                    cand = concat(rotated, other)
                    if len(cand) >= base_len:
                        continue
                    key = (len(cand), cand.syllables, i, j, sign, rot)
                    if best_key is None or key < best_key:
                        best_key = key
                        best_move = ("mult", i, j, sign, rot)
    return best_move


@functools.lru_cache(maxsize=None)
def distinct_verdicts(tables, param_range, symmetries):
    """Distinct fillings of a benchmark workload, their presentations and
    the ``simplify`` JSON of each."""
    tasks = build_tasks(tables, param_range, symmetries, False)
    fillings = list(dict.fromkeys(task.filling for task in tasks))
    presentations = [gen_from_hex(f) for f in fillings]
    return fillings, presentations, [simplify(p).as_json_dict() for p in presentations]


WORKLOADS = pytest.mark.parametrize(
    "tables, param_range, symmetries, distinct",
    [((1, 3), (0, 0), "all", 992), ((2, 3), (-8, 2), "id", 527)],
    ids=["sweep", "long-words"],
)


# sha256 of each workload's verdict JSON, one line per distinct filling:
# a change to any move log, verdict or divisor changes it
LOG_DIGESTS = {
    "sweep": "ea0b605b1ad968c02c9c2b69351448e45eb3e7492213717875425b4767b4e1cf",
    "long-words": "2f4469bc6941a0a4d597ded408e1901ab620e21f2400b8d3aa5c08d3fbd409d0",
}


@WORKLOADS
def test_move_logs_match_golden_digest(request, tables, param_range, symmetries, distinct):
    fillings, _, verdicts = distinct_verdicts(tables, param_range, symmetries)
    assert len(fillings) == distinct
    text = "\n".join(json.dumps(v) for v in verdicts)
    assert hashlib.sha256(text.encode()).hexdigest() == LOG_DIGESTS[request.node.callspec.id]


# Unknown verdicts per workload and the most moves any of them spent
STALLS = {"sweep": (90, 15), "long-words": (23, 40)}


@WORKLOADS
def test_every_unknown_is_a_stall(request, tables, param_range, symmetries, distinct):
    # an Unknown that spent less than the budget is a stall, not a run-out
    _, _, verdicts = distinct_verdicts(tables, param_range, symmetries)
    spent = [len(v["moves"]) for v in verdicts if v["tag"] == "Unknown"]
    assert (len(spent), max(spent)) == STALLS[request.node.callspec.id]
    assert max(spent) < triviality.DEFAULT_BUDGET


@WORKLOADS
def test_best_mult_matches_candidate_word_reference(
    monkeypatch, tables, param_range, symmetries, distinct
):
    fillings, presentations, fast = distinct_verdicts(tables, param_range, symmetries)
    assert len(fillings) == distinct
    assert any(m[0] == "mult" for v in fast for m in v["moves"])
    monkeypatch.setattr(triviality, "_best_mult", reference_best_mult)
    for filling, p, outcome in searched(fillings, presentations, fast):
        rank, moves = triviality._search(p.rank, list(p.relators), triviality.DEFAULT_BUDGET)
        assert (rank == 0, [list(m) for m in moves]) == outcome, filling


def reference_canonical(relators):
    return [c for c in map(cyclic_canonical, relators) if c]


def reference_eliminate(relators, rel_index, gen, repl):
    """Elimination in two passes per relator: substitute with ``power`` and
    ``concat``, then renumber the generators above ``gen``."""

    def replace(w):
        return concat(*(power(repl, e) if g == gen else Word(((g, e),)) for g, e in w.syllables))

    def renumber(w):
        return Word(tuple((g - 1 if g > gen else g, e) for g, e in w.syllables))

    return [renumber(replace(r)) for k, r in enumerate(relators) if k != rel_index]


def reference_search(rank, relators, budget):
    """``_search`` with a canonical pass in every round, also the one right
    after a ``("reduce",)`` move."""
    moves = []
    while rank and len(moves) < budget:
        canonical = triviality._canonical(relators)
        if canonical != relators:
            move = ("reduce",)
            relators = canonical
        else:
            move = triviality._pick_structural(relators) or triviality._best_mult(relators)
            if move is None:
                break
            rank, relators = triviality.apply_move(rank, relators, move)
        moves.append(move)
    return rank, tuple(moves)


def searched(fillings, presentations, verdicts):
    """The distinct fillings whose divisors are all 1, the only ones
    ``simplify`` runs ``_search`` on, each with the search's outcome read
    off its verdict: whether it reached rank 0, and its moves."""
    for filling, p, verdict in zip(fillings, presentations, verdicts):
        if all(d == 1 for d in verdict["divisors"]):
            yield filling, p, (verdict["tag"] == "Trivial", verdict["moves"])


@WORKLOADS
def test_search_matches_reference_canonical_and_elimination(
    monkeypatch, tables, param_range, symmetries, distinct
):
    fillings, presentations, fast = distinct_verdicts(tables, param_range, symmetries)
    assert len(fillings) == distinct
    kinds = {m[0] for v in fast for m in v["moves"]}
    assert {"reduce", "kill", "subst"} <= kinds
    monkeypatch.setattr(triviality, "_canonical", reference_canonical)
    monkeypatch.setattr(triviality, "_eliminate", reference_eliminate)
    for filling, p, outcome in searched(fillings, presentations, fast):
        rank, moves = reference_search(p.rank, list(p.relators), triviality.DEFAULT_BUDGET)
        assert (rank == 0, [list(m) for m in moves]) == outcome, filling
