"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
(run with ``pytest tests/test_acceptance.py -v -s`` to see the lines).

Criterion 8 passes on the bundled tables by asserting the three known data
findings exactly (README *Findings*): parameter table 3 row 36 is not
unimodular for any value of its free variable, example table 6 row 6
satisfies neither Artin identity, and the abelianisation of example table
6 row 12 is Z/5 (divisors 1,1,5).  Any other inconsistency fails it as a new finding, and a known finding that
changes or disappears fails it with its own message.
"""

import hashlib
import itertools
import math
import random
import time
from collections import defaultdict

import pytest

from artinhexa.artin import (
    ArtinCheck,
    Presentation,
    SurgeryParams,
    gen_from_hex,
    gen_from_params,
    verify_artin,
)
from artinhexa.braids import ESSENTIAL_TORUS, PureBraid, classify
from artinhexa.freeprod import (
    D_SYL,
    Y2_SYL,
    Y_SYL,
    fp_concat,
    fp_power,
    rho,
    serialize_fp_word,
)
from artinhexa.hexa import HexFilling, symmetry_discrepancies
from artinhexa.pipeline import report_tsv, run_tables
from artinhexa.tables import load_examples, load_symmetries
from artinhexa.triviality import replay, simplify
from artinhexa.words import abelianize, parse_word
from oracles import fp_is_even_power_form, tetrahedral_edge_action


def announce(number: int, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" - {detail}" if detail else ""
    print(f"criterion {number}: {status}{suffix}")


def test_criterion_01_table5_row1_regeneration():
    target = ("x1^-1", "x2^-1*x3^-1*x2^-1", "x3^-1*x2^-1")
    h = HexFilling(1, 1, 1, 0, 0, 0)
    gen_from_hex(h)  # warm-up
    best = min(
        _timed(lambda: gen_from_hex(h).serialized_relators()) for _ in range(5)
    )
    relators = gen_from_hex(h).serialized_relators()
    ok = relators == target and best < 1e-3
    announce(1, ok, f"{best * 1e6:.0f}us, relators {relators}")
    assert relators == target
    assert best < 1e-3


def _timed(fn):
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def test_criterion_02_w_identity_grid_and_samples():
    t0 = time.monotonic()
    failures = []
    for combo in itertools.product(range(-2, 3), repeat=6):
        if not verify_artin(gen_from_params(SurgeryParams(*combo))).w:
            failures.append(combo)
    rng = random.Random(20240817)
    for _ in range(1000):
        combo = tuple(rng.randint(-4, 4) for _ in range(6))
        if not verify_artin(gen_from_params(SurgeryParams(*combo))).w:
            failures.append(combo)
    elapsed = time.monotonic() - t0
    ok = not failures and elapsed < 30
    announce(2, ok, f"16625 cases, {len(failures)} failures, {elapsed:.1f}s")
    assert not failures, failures[:5]
    assert elapsed < 30


def test_criterion_03_surgery_consistency_exhaustive():
    from hex_oracle import closed_form_relators

    mismatches = [
        combo
        for combo in itertools.product(range(-2, 3), repeat=6)
        if gen_from_hex(HexFilling(*combo)).relators
        != closed_form_relators(HexFilling(*combo))
    ]
    announce(3, not mismatches, f"15625 fillings, {len(mismatches)} mismatches")
    assert not mismatches, mismatches[:5]


def test_criterion_04_rho_anchors():
    y = rho([1, 2])
    delta1 = rho([1, 2, 1])
    delta2 = rho([2, 1, 2])
    squared = rho([1, 2, 2, 1])
    ok = (
        y.syllables == (Y_SYL,)
        and delta1.syllables == (D_SYL,)
        and delta1 == delta2
        and squared.syllables == (Y_SYL, D_SYL, Y_SYL, D_SYL)
    )
    announce(4, ok, f"rho(s1 s2)={y}, rho(half twist)={delta1}, rho(s1 s2^2 s1)={squared}")
    assert ok


def _grid_blocks():
    for n in (1, 2, 3):
        for combo in itertools.product([1, -1, 2, -2], repeat=2 * n):
            yield tuple((combo[2 * i], combo[2 * i + 1]) for i in range(n))


def _rho_block_product(blocks):
    s1, s2 = rho([1]), rho([2])
    return fp_concat(
        *[fp_concat(fp_power(s1, 2 * e), fp_power(s2, 2 * f)) for e, f in blocks]
    )


def test_criterion_05_even_power_equivalence():
    t0 = time.monotonic()
    counterexamples = []
    count = 0
    for blocks in _grid_blocks():
        count += 1
        image = _rho_block_product(blocks)
        witness = fp_is_even_power_form(image)
        expected = all(b == (1, 1) for b in blocks) or all(b == (-1, -1) for b in blocks)
        if (witness is not None) != expected:
            counterexamples.append((blocks, serialize_fp_word(image), witness))
    elapsed = time.monotonic() - t0
    ok = not counterexamples and elapsed < 60
    announce(5, ok, f"{count} braids, {len(counterexamples)} counterexamples, {elapsed:.1f}s")
    assert not counterexamples, counterexamples[:3]
    assert elapsed < 60


def test_criterion_06_decomposition_on_grid():
    prefixes = {(D_SYL, Y_SYL), (Y2_SYL, D_SYL)}
    suffixes = {(Y_SYL, D_SYL), (D_SYL, Y2_SYL)}
    failures = []
    for blocks in _grid_blocks():
        w = _rho_block_product(blocks).syllables
        if len(w) < 5 or w[:2] not in prefixes or w[-2:] not in suffixes:
            failures.append(blocks)
    announce(6, not failures, f"{len(failures)} failures")
    assert not failures, failures[:3]


def test_criterion_07_classifier_clauses():
    problems = []
    for e in range(-3, 4):
        c = classify(PureBraid(((1, 1),), e))
        if c.tag != ESSENTIAL_TORUS:
            problems.append(("[(1,1)]", e, c))
    if classify(PureBraid(((2, 3),), 0)).tag != "ConnectedSum":
        problems.append(("[(2,3)]", 0))
    if classify(PureBraid(((2, 3),), 1)).tag != "Hyperbolic":
        problems.append(("[(2,3)]", 1))
    for e in range(-3, 4):
        if classify(PureBraid(((1, 1), (1, 1)), e)).tag != ESSENTIAL_TORUS:
            problems.append(("[(1,1),(1,1)]", e))
    rng = random.Random(20240818)
    for _ in range(1000):
        n = rng.randint(1, 4)
        blocks = [(rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(n)]
        e = rng.randint(-3, 3)
        base = classify(PureBraid(tuple(blocks), e))
        k = rng.randrange(n)
        if classify(PureBraid(tuple(blocks[k:] + blocks[:k]), e)) != base:
            problems.append(("rotation", blocks, e))
    announce(7, not problems, f"{len(problems)} problems")
    assert not problems, problems[:5]


# The three known inconsistencies of the bundled data, as stated in README
# *Findings*.  Criterion 8 asserts each of them exactly, so a finding that
# changes or vanishes fails as loudly as a new one.
ROW36 = "table3 row 36"
EX6_ROW6 = "examples6 row 6"
EX6_ROW12 = "examples6 row 12"
KNOWN_FINDINGS = {
    ROW36: "relation matrix determinant is -4*alpha-2, even and so never +-1: "
    "divisors 1,1,|4*alpha+2| for every alpha and symmetry",
    EX6_ROW6: "satisfies neither Artin identity, yet presents the trivial group",
    EX6_ROW12: "abelianisation Z/5: divisors 1,1,5",
}


def _by_row(problems, reasons=None) -> str:
    """One line per offending row: its case count and first case."""
    return "\n".join(
        f"{where}" + (f" ({reasons[where]})" if reasons else "")
        + f": {len(lines)} cases, e.g. {lines[0]}"
        for where, lines in problems.items()
    )


def _det3(m):
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


def _divisors_from_minors(relators):
    """Smith divisors of the exponent-sum matrix of three relators, from its
    determinantal divisors (the gcd of the k x k minors is d1*...*dk), so
    independently of the program's own Smith form.  ``None`` if singular."""
    m = [abelianize(r, 3) for r in relators]
    det = abs(_det3(m))
    if det == 0:
        return None
    pairs = list(itertools.combinations(range(3), 2))
    g1 = math.gcd(*(x for row in m for x in row))
    g2 = math.gcd(
        *(m[i][k] * m[j][l] - m[i][l] * m[j][k] for i, j in pairs for k, l in pairs)
    )
    return (g1, g2 // g1, det // g2)


FULL_SWEEP = dict(param_range=(-5, 5), symmetries="all")


@pytest.fixture(scope="module")
def full_sweep():
    """The full sweep at ``jobs=1`` and its wall time; criterion 8 checks
    its rows and criterion 11 compares its report against ``jobs=8``."""
    t0 = time.monotonic()
    rows = list(run_tables(**FULL_SWEEP, jobs=1))
    return rows, time.monotonic() - t0


def test_criterion_08_batch_triviality(full_sweep):
    param_range = FULL_SWEEP["param_range"]
    rows, elapsed = full_sweep

    # new findings, grouped by table row so the message names every row
    failures = defaultdict(list)
    changed = defaultdict(list)
    row36_count = 0
    orbits = defaultdict(set)  # the verdicts of each symmetry orbit
    for row in rows:
        orbits[row.table, row.row, row.assignment, row.branch].add(row.verdict)
        where = f"table{row.table} row {row.row}"
        detail = (
            f"assignment {dict(row.assignment)} branch {row.branch or '-'} "
            f"sym {row.symmetry} filling {row.filling}"
        )
        if not row.artin_w:
            failures[where].append(f"W false: {detail}")
        if where == ROW36:
            # the exponent-sum rows of gen_from_hex(a,1,-3,-1,-2,1) are
            # (-a,0,-1), (0,2,2), (-1,2,4); cofactors along the first row give
            # det -a*(8-4) - 1*(0+2) = -4a-2, and the 2x2 minors 2 and -4a-1
            # are coprime, so the divisors are 1,1,|4a+2|.  A symmetry image
            # fills the same hexatangle, so its double branched cover and
            # hence the divisors are unchanged; each row is recomputed anyway
            row36_count += 1
            alpha = dict(row.assignment)["alpha"]
            expected = (1, 1, abs(4 * alpha + 2))
            independent = _divisors_from_minors([parse_word(r) for r in row.relators])
            if row.divisors != expected or independent != expected:
                changed[ROW36].append(
                    f"divisors {row.divisors} (from minors {independent}), "
                    f"expected {expected}: {detail}"
                )
        elif row.divisors != (1, 1, 1):
            failures[where].append(
                f"divisors {','.join(map(str, row.divisors))}: {detail}"
            )
    lo, hi = param_range
    row36_expected = (hi - lo + 1) * len(load_symmetries())
    if row36_count != row36_expected:
        changed[ROW36].append(f"{row36_count} rows instead of {row36_expected}")

    # the fillings of one orbit have homeomorphic double branched covers, so
    # a NotTrivial verdict (a non-trivial abelianisation) holds on the whole
    # orbit; Trivial next to Unknown is a stall of the search, not a clash
    mixed = [verdicts for verdicts in orbits.values() if len(verdicts) > 1]
    split = [verdicts for verdicts in mixed if "NotTrivial" in verdicts]

    # hard floor: the concrete example triples as printed must all reach
    # Trivial at the default budget, examples6 row 12 apart; the parametric
    # ones are instantiated on the same grid and their Trivial rate is
    # reported
    floor_failures = []
    rates = {"instances": 0, "trivial": 0}
    from artinhexa.matching import assignments_for

    for table in (5, 6, 7, 8, 9, 10):
        for example in load_examples(table):
            label = f"examples{table} row {example.row}"
            for assignment in assignments_for(example.variables(), param_range):
                env = dict(assignment)
                pres = Presentation(
                    3, tuple(r.instantiate(env) for r in example.relators)
                )
                verdict = simplify(pres)
                got = (
                    f"{verdict.tag} divisors {verdict.divisors} "
                    f"relators {pres.serialized_relators()}"
                )
                if example.variables():
                    rates["instances"] += 1
                    rates["trivial"] += verdict.tag == "Trivial"
                elif label == EX6_ROW12:
                    # exponent sums (-1,-1,-2), (0,-2,-3), (-2,-3,-3): det 5,
                    # and the minors 2 and 3 of the first two rows are coprime
                    independent = _divisors_from_minors(pres.relators)
                    if (verdict.tag, verdict.divisors, independent) != (
                        "NotTrivial", (1, 1, 5), (1, 1, 5)
                    ):
                        changed[label].append(f"{got} (from minors {independent})")
                elif label == EX6_ROW6:
                    check = verify_artin(pres)
                    certified = verdict.tag == "Trivial" and replay(
                        pres, verdict.moves
                    ) == (0, ())
                    if check != ArtinCheck(w=False, f=False) or not certified:
                        changed[label].append(
                            f"{check}, {got}, certificate replays={certified}"
                        )
                elif verdict.tag != "Trivial":
                    floor_failures.append(f"{label}: {got}")

    rate = 100 * rates["trivial"] / rates["instances"]
    findings = (
        f"findings pinned: {ROW36} divisors 1,1,|4a+2| on {row36_count} rows; "
        f"{EX6_ROW6} W=F=False but Trivial; {EX6_ROW12} NotTrivial 1,1,5"
    )
    detail = (
        f"{len(rows)} rows in {elapsed:.0f}s; "
        f"{sum(map(len, failures.values()))} new W/divisor failures; "
        f"{len(floor_failures)} concrete example floor failures; "
        f"{len(changed)} changed findings; {findings}; "
        f"{len(mixed)} of {len(orbits)} orbits with mixed verdicts, "
        f"{len(split)} with NotTrivial among them; "
        f"parametric example Trivial rate {rates['trivial']}/{rates['instances']} ({rate:.0f}%)"
    )
    ok = not failures and not floor_failures and not changed and not split and elapsed < 600
    announce(8, ok, detail)
    assert elapsed < 600
    assert not changed, (
        "known findings changed or vanished, see README *Findings*:\n"
        + _by_row(changed, KNOWN_FINDINGS)
    )
    assert not failures, "new findings, not in README *Findings*:\n" + _by_row(failures)
    assert not floor_failures, "\n".join(floor_failures)
    assert not split, f"orbits with NotTrivial next to another verdict: {split}"


def test_criterion_09_symmetry_validator():
    # the bundled table passes; the tetrahedral edge action is a group of 24
    # slot permutations with the identity and an invariant opposite-edge
    # pairing, as the bundled table is, yet 20 of its rows change det of the
    # surgery's linking matrix, and each of them is named
    table_report = symmetry_discrepancies(load_symmetries())
    planted = tetrahedral_edge_action()
    planted_report = symmetry_discrepancies(planted)
    bundled = {sym.sources for sym in load_symmetries()}
    outside = [f"row {sym.index}:" for sym in planted if sym.sources not in bundled]
    named = [line.split(" det ")[0] for line in planted_report]
    ok = table_report == [] and named == outside and len(outside) == 20
    announce(
        9,
        ok,
        f"bundled-table report: {'; '.join(table_report) or 'no discrepancies'}; "
        f"tetrahedral edge action refused on {len(named)} rows",
    )
    assert table_report == []
    assert len(outside) == 20 and named == outside


def test_criterion_10_open_book_example_satisfies_f():
    pres = Presentation(
        3,
        (
            parse_word("x1*x2*x3*x1*x2*x1"),
            parse_word("x1*x2*x3*x1*x2^2"),
            parse_word("x1*x2*x3^2"),
        ),
    )
    check = verify_artin(pres)
    announce(10, check.f, f"W={check.w} F={check.f}")
    assert check.f


# sha256 of the full sweep's report, the bytes `run-tables --param-range=-5..5`
# writes with the default tables and symmetries
REFERENCE_REPORT_SHA256 = "92f60a7770fcd62dfb92f7dc0aaf8165f61d5320158b50bb9458a20eeeca1f8f"


def test_criterion_11_report_determinism_across_jobs(full_sweep):
    a = report_tsv(full_sweep[0])
    b = report_tsv(run_tables(**FULL_SWEEP, jobs=8))
    ok = a == b
    announce(11, ok, f"{a.count(chr(10)) - 1} rows, byte-identical={ok}")
    assert ok
    assert hashlib.sha256(a.encode("utf-8")).hexdigest() == REFERENCE_REPORT_SHA256
