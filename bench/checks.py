"""Checks of artinhexa reports, computed apart from the program.

Nothing here imports artinhexa.  Words are lists of signed generator
indices (``x2^-1`` is ``-2``) reduced by a stack, the tables are parsed from
their TSV files by their own small parser, and the presentation of a filling
is rebuilt from the closed formula

    r1 = x1^-alpha                 K^-delta T
    r2 = x2^-beta  (x2 x3)^-gamma  K^-delta T
    r3 = x3^-epsilon (x2 x3)^-gamma         T

with ``K = x1 (x2 x3)^gamma x2 (x2 x3)^-gamma`` and ``T = (x1 x2 x3)^-eta``.
Every check returns problems as text; a problem that names a report row
makes that row a failed operation.
"""

from __future__ import annotations

import itertools
import math
import os
import re
from dataclasses import dataclass, field

SLOTS = ("alpha", "beta", "gamma", "delta", "epsilon", "eta")
EXAMPLE_TABLES = (5, 6, 7, 8, 9, 10)
REPORT_COLUMNS = (
    "table", "row", "assignment", "branch", "symmetry", "mirror", "filling",
    "r1", "r2", "r3", "artin_w", "artin_f", "divisors", "verdict",
    "braid_class", "example_match",
)
MATCH_COLUMNS = ("example_table", "row", "kind", "instances", "matched", "first_match")
VERDICTS = ("Trivial", "NotTrivial", "Unknown")
# README Findings: the two example rows no generated row reproduces.
UNMATCHED_EXAMPLES = {(6, 6), (6, 12)}

# ---------------------------------------------------------------- free group


def reduce_letters(letters) -> list[int]:
    out: list[int] = []
    for a in letters:
        if out and out[-1] == -a:
            out.pop()
        else:
            out.append(a)
    return out


def inverse(w: list[int]) -> list[int]:
    return [-a for a in reversed(w)]


def power(w: list[int], k: int) -> list[int]:
    return reduce_letters((w if k >= 0 else inverse(w)) * abs(k))


_SYLLABLE = re.compile(r"x(\d+)(?:\^(-?\d+))?")


def parse_word(text: str) -> list[int]:
    """Letters of a printed word, as printed (not reduced)."""
    if text == "1":
        return []
    out: list[int] = []
    for token in text.split("*"):
        m = _SYLLABLE.fullmatch(token)
        if not m or int(m[1]) < 1 or m[2] == "0":
            raise ValueError(f"bad syllable {token!r}")
        exp = int(m[2] or 1)
        out.extend([int(m[1]) if exp > 0 else -int(m[1])] * abs(exp))
    return out


def exponent_sums(w: list[int], rank: int = 3) -> list[int]:
    sums = [0] * rank
    for a in w:
        sums[abs(a) - 1] += 1 if a > 0 else -1
    return sums


def artin_identities(rels: list[list[int]]) -> tuple[bool, bool]:
    """W: prod r_i^-1 x_i r_i == x1..xn, and F: prod r_i x_i r_i^-1 == x1..xn."""
    target = list(range(1, len(rels) + 1))
    w: list[int] = []
    f: list[int] = []
    for i, r in enumerate(rels, start=1):
        w += inverse(r) + [i] + r
        f += r + [i] + inverse(r)
    return reduce_letters(w) == target, reduce_letters(f) == target


def _det(m: list[list[int]]) -> int:
    if len(m) == 1:
        return m[0][0]
    return sum(
        (-1) ** j * m[0][j] * _det([row[:j] + row[j + 1 :] for row in m[1:]])
        for j in range(len(m))
    )


def determinantal_divisors(m: list[list[int]]) -> tuple[int, ...]:
    """Smith divisors of a square integer matrix from the gcds of its k x k
    minors: d_1...d_k = gcd of the k x k minors; zeros once a gcd is 0.  So
    |det| is the product of the divisors, and they are all 1 iff det = +-1."""
    n = len(m)
    out: list[int] = []
    prev = 1
    for k in range(1, n + 1):
        g = 0
        for rows in itertools.combinations(range(n), k):
            for cols in itertools.combinations(range(n), k):
                g = math.gcd(g, _det([[m[i][j] for j in cols] for i in rows]))
        if g == 0:
            return tuple(out + [0] * (n - len(out)))
        out.append(g // prev)
        prev = g
    return tuple(out)


def filling_relators(a: int, b: int, g: int, d: int, e: int, h: int) -> list[list[int]]:
    x23_g = power([2, 3], g)
    block_d = power([1] + x23_g + [2] + inverse(x23_g), -d)
    tail = power([1, 2, 3], -h)
    return [
        reduce_letters(power([1], -a) + block_d + tail),
        reduce_letters(power([2], -b) + inverse(x23_g) + block_d + tail),
        reduce_letters(power([3], -e) + inverse(x23_g) + tail),
    ]


# ---------------------------------------------------------------- table data

_TERM = re.compile(r"\s*([+-]?)\s*(\d+|[a-z]+)\s*")
_VARIABLE = re.compile(r"[a-wyz][a-z]*")


def cell_values(text: str, env: dict[str, int]) -> tuple[int, ...]:
    """Values of a cell ``["±"] TERM (("+"|"-") TERM)*``: a leading ± gives
    two values, + first, by the sign of the constant part."""
    s = text.strip()
    pm = s.startswith("±")
    s = s[1:] if pm else s
    const = var = 0
    pos = 0
    while pos < len(s):
        m = _TERM.match(s, pos)
        if not m:
            raise ValueError(f"bad cell {text!r}")
        sign = -1 if m[1] == "-" else 1
        if m[2].isdigit():
            const += sign * int(m[2])
        else:
            var += sign * env[m[2]]
        pos = m.end()
    if pos == 0:
        raise ValueError(f"empty cell {text!r}")
    return (const + var, -const + var) if pm else (const + var,)


def variables(texts) -> tuple[str, ...]:
    seen: list[str] = []
    for text in texts:
        for name in _VARIABLE.findall(text):
            if name not in seen:
                seen.append(name)
    return tuple(seen)


def _tsv_rows(path: str) -> list[list[str]]:
    with open(path, encoding="utf-8") as fh:
        return [[c.strip() for c in line.split("\t")] for line in fh if line.strip()]


@dataclass
class Data:
    """The bundled tables as read from their TSV files."""

    tables: dict[int, list[tuple[int, list[tuple[str, str]]]]] = field(default_factory=dict)
    symmetries: list[tuple[int, tuple[str, ...]]] = field(default_factory=list)
    examples: dict[int, list[tuple[int, tuple[str, str, str]]]] = field(default_factory=dict)


def load_data(data_dir: str) -> Data:
    data = Data()
    for t in (1, 2, 3):
        lines = _tsv_rows(os.path.join(data_dir, f"table{t}.tsv"))
        order = lines[0][0].split()
        data.tables[t] = [(int(c[0]), list(zip(order, c[1:]))) for c in lines[1:]]
    lines = _tsv_rows(os.path.join(data_dir, "symmetries.tsv"))
    order = lines[0][0].split()
    for c in lines[1:]:
        by_slot = dict(zip(order, c[1:]))
        data.symmetries.append((int(c[0]), tuple(by_slot[s] for s in SLOTS)))
    for t in EXAMPLE_TABLES:
        lines = _tsv_rows(os.path.join(data_dir, f"examples{t}.tsv"))
        data.examples[t] = [(int(c[0]), (c[1], c[2], c[3])) for c in lines]
    return data


def format_assignment(assignment) -> str:
    return ",".join(f"{n}={v}" for n, v in assignment) if assignment else "-"


@dataclass(frozen=True)
class Expected:
    key: tuple[str, ...]  # table, row, assignment, branch, symmetry, mirror
    table: int
    row: int
    assignment: tuple[tuple[str, int], ...]
    branch: str
    symmetry: int
    filling: tuple[int, ...]


def expected_rows(data: Data, tables, param_range, symmetries: str) -> list[Expected]:
    """Every report row the sweep must produce, in report order."""
    lo, hi = param_range
    syms = data.symmetries if symmetries == "all" else [
        s for s in data.symmetries if s[1] == SLOTS
    ]
    out = []
    for t in tables:
        for row, cells in data.tables[t]:
            names = variables(text for _, text in cells)
            for combo in itertools.product(range(lo, hi + 1), repeat=len(names)):
                env = dict(zip(names, combo))
                per_cell = [cell_values(text, env) for _, text in cells]
                for choice in itertools.product(*(range(len(v)) for v in per_cell)):
                    by_slot = {cells[i][0]: per_cell[i][choice[i]] for i in range(6)}
                    branch = "".join(
                        "+-"[choice[i]] for i in range(6) if len(per_cell[i]) == 2
                    )
                    base = {s: by_slot[s] for s in SLOTS}
                    for index, sources in syms:
                        filling = tuple(base[src] for src in sources)
                        assignment = tuple(zip(names, combo))
                        key = (
                            str(t), str(row), format_assignment(assignment),
                            branch or "-", str(index), "0",
                        )
                        out.append(Expected(key, t, row, assignment, branch, index, filling))
    return out


def row_count(data: Data, tables, param_range, symmetries: str) -> int:
    """grid^variables x 2^(± cells) x symmetries, summed over the rows."""
    grid = param_range[1] - param_range[0] + 1
    nsym = len(data.symmetries) if symmetries == "all" else 1
    return sum(
        grid ** len(variables(text for _, text in cells))
        * 2 ** sum(text.startswith("±") for _, text in cells)
        * nsym
        for t in tables
        for _, cells in data.tables[t]
    )


# ---------------------------------------------------------- example tables

_GENERATOR = re.compile(r"x(\d+)")
_EXPONENT = re.compile(r"-?(?:\d+|[a-z]+)")


def eval_relator_expr(text: str, env: dict[str, int]) -> list[int]:
    """Reduced letters of an example relator such as
    ``(x2*x3)^gamma*x2^(-beta-1)`` at a variable assignment."""
    s = text.replace(" ", "")
    if s == "1":
        return []
    pos = 0

    def product() -> list[int]:
        nonlocal pos
        out = factor()
        while pos < len(s) and s[pos] == "*":
            pos += 1
            out = out + factor()
        return out

    def factor() -> list[int]:
        nonlocal pos
        if s.startswith("(", pos):
            pos += 1
            base = product()
            if not s.startswith(")", pos):
                raise ValueError(f"unbalanced parentheses in {text!r}")
            pos += 1
        else:
            m = _GENERATOR.match(s, pos)
            if not m:
                raise ValueError(f"bad relator {text!r} at {pos}")
            base = [int(m[1])]
            pos = m.end()
        if not s.startswith("^", pos):
            return base
        pos += 1
        if s.startswith("(", pos):
            end = s.index(")", pos)
            exp_text, pos = s[pos + 1 : end], end + 1
        else:
            m = _EXPONENT.match(s, pos)
            if not m:
                raise ValueError(f"bad exponent in {text!r} at {pos}")
            exp_text, pos = m[0], m.end()
        (k,) = cell_values(exp_text, env)
        return power(base, k)

    out = product()
    if pos != len(s):
        raise ValueError(f"trailing text in {text!r}")
    return reduce_letters(out)


def example_instances(data: Data, param_range):
    """(table, row, concrete, [(assignment, triple), ...]) per example row,
    each triple a tuple of three reduced letter tuples."""
    lo, hi = param_range
    for t in EXAMPLE_TABLES:
        for row, texts in data.examples[t]:
            names = variables(texts)
            instances = []
            for combo in itertools.product(range(lo, hi + 1), repeat=len(names)):
                env = dict(zip(names, combo))
                triple = tuple(tuple(eval_relator_expr(x, env)) for x in texts)
                instances.append((tuple(zip(names, combo)), triple))
            yield t, row, not names, instances


def example_index(data: Data, param_range) -> dict[tuple, str]:
    index: dict[tuple, str] = {}
    for t, row, _, instances in example_instances(data, param_range):
        for _, triple in instances:
            index.setdefault(triple, f"{t}:{row}")
    return index


# ----------------------------------------------------------------- reports


@dataclass
class Outcome:
    """Result of checking one report: ``attempted`` rows were expected,
    ``failed_rows`` names those that were missing or wrong, and
    ``problems`` says why (report-wide problems name no row)."""

    attempted: int
    failed_rows: set = field(default_factory=set)
    problems: list[str] = field(default_factory=list)

    def fail(self, row_key, message: str) -> None:
        if row_key is not None:
            self.failed_rows.add(row_key)
        if len(self.problems) < 50:
            self.problems.append(message)

    @property
    def ok(self) -> bool:
        return not self.failed_rows and not self.problems


def _relators_of(cache: dict[tuple, list[list[int]]], filling: tuple[int, ...]):
    if filling not in cache:
        cache[filling] = filling_relators(*filling)
    return cache[filling]


def check_report(text: str, data: Data, tables, param_range, symmetries: str,
                 run_simplify: bool) -> Outcome:
    """Check a run-tables report (or the rows behind a match-examples run)
    row by row against the independent computations above."""
    rows = expected_rows(data, tables, param_range, symmetries)
    out = Outcome(attempted=len(rows))
    if len(rows) != row_count(data, tables, param_range, symmetries):
        out.fail(None, "row enumeration disagrees with the row-count formula")
    lines = text.split("\n")
    if lines[0] != "\t".join(REPORT_COLUMNS) or lines[-1] != "":
        out.fail(None, "report header or final newline is wrong")
    by_key: dict[tuple, list[str]] = {}
    order = []
    for line in lines[1:-1]:
        cells = line.split("\t")
        if len(cells) != len(REPORT_COLUMNS):
            out.fail(None, f"malformed report line {line[:80]!r}")
            continue
        key = tuple(cells[:6])
        if key in by_key:
            out.fail(key, f"duplicate row {key}")
        by_key[key] = cells
        order.append(key)
    wanted = [e.key for e in rows]
    if set(order) - set(wanted):
        out.fail(None, f"{len(set(order) - set(wanted))} unexpected rows")
    elif order != wanted and len(order) == len(wanted):
        out.fail(None, "rows are not in canonical order")

    index = example_index(data, param_range)
    gens: dict = {}
    orbits: dict[tuple, set] = {}
    for e in rows:
        cells = by_key.get(e.key)
        if cells is None:
            out.fail(e.key, f"missing row {e.key}")
            continue
        for problem in _row_problems(e, cells, gens, index, run_simplify):
            out.fail(e.key, f"row {e.key}: {problem}")
        orbits.setdefault(e.key[:4], set()).add(cells[12])
    if symmetries == "all":
        for e in rows:
            if len(orbits.get(e.key[:4], ())) > 1:
                out.fail(e.key, f"row {e.key}: divisors differ across the symmetry orbit")
    return out


def _row_problems(e: Expected, cells: list[str], gens, index, run_simplify: bool):
    if cells[6] != ",".join(str(v) for v in e.filling):
        yield f"filling {cells[6]} != {e.filling}"
        return
    try:
        rels = [parse_word(c) for c in cells[7:10]]
    except ValueError as exc:
        yield str(exc)
        return
    if rels != _relators_of(gens, e.filling):
        yield "relators differ from the filling formula"
    w, f = artin_identities(rels)
    if cells[10] != ("true" if w else "false") or cells[11] != ("true" if f else "false"):
        yield f"artin_w/artin_f {cells[10]}/{cells[11]}, recomputed {w}/{f}"
    divisors = determinantal_divisors([exponent_sums(r) for r in rels])
    printed = cells[12]
    if printed != ",".join(str(d) for d in divisors):
        yield f"divisors {printed}, minors give {divisors}"
    unit = all(d == 1 for d in divisors)
    verdict = cells[13]
    if not run_simplify:
        if verdict != "-":
            yield f"verdict {verdict} with the search off"
    elif verdict not in VERDICTS:
        yield f"unknown verdict {verdict}"
    elif verdict == "Trivial" and not unit:
        yield "Trivial with a divisor other than 1"
    elif verdict != "NotTrivial" and not unit:
        yield f"{verdict} although a divisor is not 1"
    elif verdict == "NotTrivial" and unit:
        yield "NotTrivial with divisors 1,1,1"
    if e.table == 3 and e.row == 36:
        alpha = dict(e.assignment)["alpha"]
        if divisors != (1, 1, abs(4 * alpha + 2)):
            yield f"finding table 3 row 36: divisors {divisors}, expected 1,1,|4a+2|"
    match = index.get(tuple(tuple(r) for r in rels), "-")
    if cells[15] != match:
        yield f"example_match {cells[15]}, expected {match}"
    if not cells[14]:
        yield "empty braid_class"


def expected_matches(data: Data, tables, param_range, symmetries: str) -> list[tuple[str, ...]]:
    """The match-examples table, rebuilt from the independent sweep."""
    first: dict[tuple, Expected] = {}
    gens: dict = {}
    for e in expected_rows(data, tables, param_range, symmetries):
        triple = tuple(tuple(r) for r in _relators_of(gens, e.filling))
        first.setdefault(triple, e)
    out = []
    for t, row, concrete, instances in example_instances(data, param_range):
        matched = 0
        loc = ""
        for assignment, triple in instances:
            hit = first.get(triple)
            if hit is None:
                continue
            matched += 1
            if not loc:
                loc = f"table{hit.table} row {hit.row} sym {hit.symmetry}"
                if hit.branch:
                    loc += f" branch {hit.branch}"
                if assignment:
                    loc += " at " + format_assignment(assignment)
        out.append((
            str(t), str(row), "concrete" if concrete else "parametric",
            str(len(instances)), str(matched), loc or "-",
        ))
    return out


def check_matches(text: str, data: Data, tables, param_range, symmetries: str) -> Outcome:
    """Check a match-examples report: every row against the rebuilt table,
    and the README finding that exactly examples6 rows 6 and 12 stay
    unmatched while every other row matches fully."""
    wanted = expected_matches(data, tables, param_range, symmetries)
    out = Outcome(attempted=len(wanted))
    lines = text.split("\n")
    if lines[0] != "\t".join(MATCH_COLUMNS) or lines[-1] != "":
        out.fail(None, "match header or final newline is wrong")
    got = {}
    for line in lines[1:-1]:
        cells = tuple(line.split("\t"))
        got.setdefault(cells[:2], []).append(cells)
    if len(lines) - 2 != len(wanted):
        out.fail(None, f"{len(lines) - 2} match rows, expected {len(wanted)}")
    for w in wanted:
        key = w[:2]
        cells = got.get(key, [])
        if cells != [w]:
            out.fail(key, f"match row {key}: {cells} != {w}")
            continue
        unmatched = (int(w[0]), int(w[1])) in UNMATCHED_EXAMPLES
        if (w[4] == "0") != unmatched or (not unmatched and w[4] != w[3]):
            out.fail(key, f"finding: example {key} matched {w[4]} of {w[3]}")
    return out


def identical(reference: bytes, other: bytes, what: str) -> list[str]:
    """Reports must be byte-identical whatever --jobs is."""
    if reference == other:
        return []
    at = next(
        (i for i, (a, b) in enumerate(zip(reference, other)) if a != b),
        min(len(reference), len(other)),
    )
    return [f"{what} differs from the --jobs 1 report at byte {at}"]
