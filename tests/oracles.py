"""Reference implementations kept as test oracles.

The program does not need these: ``classify`` reads a braid's closure from
the cyclic canonical form of its block word, a conjugacy class is decided
by comparing canonical forms, and the relator-expression parser reads
tokens and spells an expression out in one reduction pass.  The tests check
the program against these plainer constructions: block merging, the
literal letter expansion of a braid, the Z2 * Z3 torus criterion, right
conjugation, the cyclic canonical form (ends peeled on a plain list, every
rotation compared), a character-by-character recursive-descent parser whose
instantiation multiplies reduced powers, and the first versions of the
Smith form (swap, restart and offender loop), the table-cell parser (a
term-by-term scanner), the example instances (each one spelled, then
abelianized), the example matcher (every distinct filling's task held
before matching) and the example-match writers (the TSV joined from a list
of lines, the JSON dumped as one payload).  It also builds a planted
symmetry table: the tetrahedron's vertex action on its six edges, a group
of 24 slot permutations other than the bundled one.  Not collected by
pytest (no ``test_`` prefix); test modules import it.
"""

from __future__ import annotations

import itertools
import json
import re
from dataclasses import dataclass
from typing import Union

from artinhexa.artin import gen_from_hex
from artinhexa.braids import BraidError, PureBraid
from artinhexa.freeprod import D_SYL, Y2_SYL, Y_SYL, FPWord, fp_concat, fp_power, rho, serialize_fp_word
from artinhexa.hexa import SLOTS, CellSyntaxError, HexError, HexSymmetry, LinearCell
from artinhexa.matching import ExampleMatch, assignments_for, format_assignment
from artinhexa.relexpr import Factor, RelatorExpr, RelatorExprError
from artinhexa.tables import EXAMPLE_TABLES, load_examples
from artinhexa.words import Word, _clip, abelianize, concat, generator, invert, parse_int, power, serialize_word


def conjugate(w: Word, g: Word) -> Word:
    """Right conjugation ``g^-1 * w * g`` (fixed convention)."""
    return concat(invert(g), w, g)


def cyclic_canonical(w: Word) -> Word:
    """The oracle for ``words.cyclic_reduce``: peel the matching ends on a
    plain list, then take the least of all rotations of the core."""
    syls = list(w.syllables)
    while len(syls) >= 2 and syls[0][0] == syls[-1][0]:
        gen, last_exp = syls.pop()
        merged = syls[0][1] + last_exp
        if merged:
            syls[0] = (gen, merged)
        else:
            syls.pop(0)
    core = tuple(syls)
    offset = min(range(len(core)), key=lambda i: core[i:] + core[:i], default=0)
    return Word(core[offset:] + core[:offset])


def normalize(b: PureBraid) -> PureBraid:
    """Merge blocks across zero exponents and drop all-zero blocks.

    ``(e,0),(e',f')`` becomes ``(e+e',f')`` and ``(e,f),(0,f')`` becomes
    ``(e,f+f')``; the expanded braid word is unchanged up to free
    cancellation.
    """
    out: list[list[int]] = []
    for e, f in b.blocks:
        if out and out[-1][1] == 0:
            out[-1] = [out[-1][0] + e, f]
        elif out and e == 0:
            out[-1][1] += f
        else:
            out.append([e, f])
        if out[-1] == [0, 0]:
            out.pop()
    return PureBraid(tuple((e, f) for e, f in out), b.twist)


def to_braid_word(b: PureBraid) -> tuple[int, ...]:
    """Literal letter expansion, with the half twist spelled as
    sigma1 sigma2 sigma1; length is ``sum(2|e_i| + 2|f_i|) + 6|e|``."""
    letters: list[int] = []
    for e, f in b.blocks:
        letters.extend([1 if e > 0 else -1] * (2 * abs(e)))
        letters.extend([2 if f > 0 else -2] * (2 * abs(f)))
    half = (1, 2, 1) if b.twist > 0 else (-1, -2, -1)
    letters.extend(half * (2 * abs(b.twist)))
    return tuple(letters)


def fp_cyclic_reduce(w: FPWord) -> FPWord:
    """Cyclic normal form: merge wrap-around same-factor syllables, then
    take the least of all rotations."""
    syls = w.syllables
    while len(syls) >= 2 and (syls[0] == D_SYL) == (syls[-1] == D_SYL):
        merged = 0 if syls[0] == D_SYL else (syls[0] + syls[-1]) % 3  # D*D = 1
        syls = (merged,) + syls[1:-1] if merged else syls[1:-1]
    return FPWord(min((syls[i:] + syls[:i] for i in range(len(syls))), default=()))


@dataclass(frozen=True, slots=True)
class EvenPowerForm:
    """Witness that a cyclic form is ``(y^2*D)^(2k)`` or ``(D*y)^(2k)``."""

    k: int
    base: FPWord

    def __str__(self) -> str:
        return f"({serialize_fp_word(self.base)})^{2 * self.k}"


def fp_is_even_power_form(w: FPWord) -> EvenPowerForm | None:
    """Detect whether the cyclic normal form of ``w`` is an even power
    ``(y^2*D)^(2k)`` or ``(D*y)^(2k)`` with ``k >= 1``; returns the witness
    or None."""
    syls = fp_cyclic_reduce(w).syllables
    n = len(syls)
    if n < 4 or n % 4:
        return None
    # canonical rotation of an alternating cycle starts with D
    if any(s != D_SYL for s in syls[0::2]):
        return None
    ys = set(syls[1::2])
    if len(ys) != 1:
        return None
    base = FPWord((Y2_SYL, D_SYL)) if ys == {Y2_SYL} else FPWord((D_SYL, Y_SYL))
    return EvenPowerForm(n // 4, base)


_S1 = rho([1])
_S2 = rho([2])


def rho_torus_witness(b: PureBraid) -> EvenPowerForm | None:
    """Independent torus oracle: image of the block product in Z2 * Z3 is an
    even power of y^2*D or D*y exactly for the all-(1,1) / all-(-1,-1)
    braids.  The full twist is ignored (it dies under the quotient).

    Requires every block exponent nonzero; normalize the braid differently
    first if not.
    """
    parts: list[FPWord] = []
    for e, f in b.blocks:
        if e == 0 or f == 0:
            raise BraidError(f"block ({e},{f}) has a zero exponent")
        parts.append(fp_power(_S1, 2 * e))
        parts.append(fp_power(_S2, 2 * f))
    return fp_is_even_power_form(fp_concat(*parts))


# The relator-expression parser as first written: a scanner that skips
# whitespace before every look-ahead, and recursive descent over it.
_GEN_RE = re.compile(r"x(\d+)", re.ASCII)
_EXP_RE = re.compile(r"-?(?:\d+|[a-z]+)|\(([^)]*)\)", re.ASCII)
_ONE = LinearCell(c0=1)


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch: str):
        if self.peek() != ch:
            raise RelatorExprError(f"expected {ch!r} at position {self.pos}")
        self.pos += 1

    def match_re(self, pattern: re.Pattern) -> re.Match | None:
        self.skip_ws()
        m = pattern.match(self.text, self.pos)
        if m:
            self.pos = m.end()
        return m


def _parse_exp(sc: _Scanner) -> LinearCell:
    m = sc.match_re(_EXP_RE)
    if not m:
        raise RelatorExprError(f"expected exponent at position {sc.pos}")
    text = m.group(0) if m.group(1) is None else m.group(1)
    try:
        cell = parse_cell(text)
    except HexError as exc:
        raise RelatorExprError(str(exc)) from exc
    if cell.pm:
        raise RelatorExprError("± not allowed in an exponent")
    return cell


def _parse_factor(sc: _Scanner) -> Factor:
    if sc.peek() == "(":
        sc.expect("(")
        base: Union[int, tuple[Factor, ...]] = _parse_factors(sc)
        sc.expect(")")
    else:
        m = sc.match_re(_GEN_RE)
        if not m:
            raise RelatorExprError(f"expected generator or group at position {sc.pos}")
        try:
            base = parse_int(m.group(1))
        except ValueError:
            raise RelatorExprError("too many digits in a generator index") from None
        if base < 1:
            raise RelatorExprError(f"generator index {base} out of range")
    exp = _ONE
    if sc.peek() == "^":
        sc.expect("^")
        exp = _parse_exp(sc)
    return Factor(base, exp)


def _parse_factors(sc: _Scanner) -> tuple[Factor, ...]:
    factors = [_parse_factor(sc)]
    while sc.peek() == "*":
        sc.expect("*")
        factors.append(_parse_factor(sc))
    return tuple(factors)


def parse_relator_expr(text: str) -> RelatorExpr:
    """The oracle for ``relexpr.parse_relator_expr``."""
    stripped = text.strip()
    if stripped == "1":
        return RelatorExpr((), stripped)
    sc = _Scanner(stripped)
    factors = _parse_factors(sc)
    sc.skip_ws()
    if sc.pos != len(sc.text):
        raise RelatorExprError(f"trailing input at position {sc.pos}")
    return RelatorExpr(factors, stripped)


def instantiate(factors: tuple[Factor, ...], assignment) -> Word:
    """The oracle for ``RelatorExpr.instantiate``: every group is reduced,
    then raised to its exponent with ``power``, and the parts are
    multiplied with ``concat``."""
    parts = []
    for f in factors:
        base = generator(f.base) if isinstance(f.base, int) else instantiate(f.base, assignment)
        (exp,) = f.exp.values(assignment)
        parts.append(power(base, exp))
    return concat(*parts)


def syllable_count(factors: tuple[Factor, ...], assignment) -> int:
    """The number of syllables ``factors`` spell out before reduction: one
    for a generator, ``|k|`` times its own for a group raised to ``k``."""
    return sum(
        1 if isinstance(f.base, int) else abs(f.exp.values(assignment)[0]) * syllable_count(f.base, assignment)
        for f in factors
    )


def spelled_instances(example, param_range):
    """Every instance of an example row as its assignment, serialized
    triple, words and unreduced syllable count: every relator is parsed
    again from its text and instantiated at every assignment."""
    relators = [parse_relator_expr(r.text) for r in example.relators]
    variables = example.variables()
    for assignment in assignments_for(variables, param_range):
        env = dict(assignment)
        words = tuple(instantiate(r.factors, env) for r in relators)
        size = sum(syllable_count(r.factors, env) for r in relators)
        yield assignment, tuple(map(serialize_word, words)), words, size


def example_instances(example, param_range):
    """The oracle for ``matching._example_instances``: each instance is
    spelled, and its words abelianized; the matrix is ``None`` when a
    generator above x3 keeps a non-zero sum."""
    for assignment, _, words, size in spelled_instances(example, param_range):
        rank = max(3, *(w.max_generator() for w in words))
        sums = [abelianize(w, rank) for w in words]
        matrix = None if any(any(s[3:]) for s in sums) else tuple(s[:3] for s in sums)
        yield assignment, matrix, size


def smith_invariants(rows, width):
    """The oracle for ``triviality.smith_invariants``: move a least entry
    to the diagonal, clear its row and column, swapping up any nonzero
    remainder and restarting, then add in a row holding an entry that the
    pivot does not divide, until the pivot divides the rest."""
    m = [list(r) for r in rows]
    if any(len(r) != width for r in m):
        raise ValueError("ragged matrix")
    R, C = len(m), width
    divisors: list[int] = []
    t = 0
    while t < R and t < C:
        pivot = None
        best = None
        for i in range(t, R):
            for j in range(t, C):
                v = abs(m[i][j])
                if v and (best is None or v < best):
                    best, pivot = v, (i, j)
        if pivot is None:
            break
        i0, j0 = pivot
        m[t], m[i0] = m[i0], m[t]
        for row in m:
            row[t], row[j0] = row[j0], row[t]
        while True:
            restart = False
            for i in range(t + 1, R):
                if m[i][t]:
                    q = m[i][t] // m[t][t]
                    for j in range(t, C):
                        m[i][j] -= q * m[t][j]
                    if m[i][t]:
                        m[t], m[i] = m[i], m[t]
                        restart = True
                        break
            if restart:
                continue
            for j in range(t + 1, C):
                if m[t][j]:
                    q = m[t][j] // m[t][t]
                    for i in range(t, R):
                        m[i][j] -= q * m[i][t]
                    if m[t][j]:
                        for row in m:
                            row[t], row[j] = row[j], row[t]
                        restart = True
                        break
            if restart:
                continue
            p = m[t][t]
            offender = None
            for i in range(t + 1, R):
                for j in range(t + 1, C):
                    if m[i][j] % p:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            for j in range(t, C):
                m[t][j] += m[offender][j]
        divisors.append(abs(m[t][t]))
        t += 1
    divisors.extend([0] * (min(R, C) - len(divisors)))
    return tuple(divisors)


_TETRA_EDGES = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


def tetrahedral_edge_action() -> tuple[HexSymmetry, ...]:
    """The S4 vertex action of the tetrahedron on its six edges, with the
    edges labelled by the canonical slots: 24 distinct rows, the identity
    first, closed under composition, and keeping the pairing of opposite
    edges.  Only 4 of its rows are bundled rows; the other 20 change the
    double branched cover of some filling."""
    edge_slot = {frozenset(edge): SLOTS[i] for i, edge in enumerate(_TETRA_EDGES)}
    syms = []
    for index, perm in enumerate(sorted(itertools.permutations(range(4))), start=1):
        # perm moves the box at edge E to edge perm(E), so slot t receives
        # the old value of the slot at perm^-1(E_t)
        inv = tuple(perm.index(v) for v in range(4))
        sources = tuple(
            edge_slot[frozenset(inv[v] for v in _TETRA_EDGES[i])] for i in range(6)
        )
        syms.append(HexSymmetry(index, sources))
    return tuple(syms)


_TERM_RE = re.compile(r"([+-])?\s*(\d+|[a-z]+)", re.ASCII)


def parse_cell(text: str) -> LinearCell:
    """The oracle for ``hexa.parse_cell``: one term at a time, skipping
    any whitespace after a term; the whitespace between a sign and its term
    is ASCII only, because the term pattern is compiled with ``re.ASCII``."""
    s = text.strip()
    original = s
    pm = s.startswith("±")
    if pm:
        s = s[1:].lstrip()
    pos = 0
    c0 = 0
    c1 = 0
    var = None
    first = True
    while pos < len(s):
        m = _TERM_RE.match(s, pos)
        if not m:
            raise CellSyntaxError(f"bad cell {_clip(original)} near {_clip(s[pos:])}")
        sign_tok, term = m.groups()
        if sign_tok is None and not first:
            raise CellSyntaxError(f"missing +/- between terms in {_clip(original)}")
        sign = -1 if sign_tok == "-" else 1
        if term.isdigit():
            try:
                value = parse_int(term)
            except ValueError:
                raise CellSyntaxError("integer with too many digits in cell") from None
            if pm and first:
                if sign_tok is not None:
                    raise CellSyntaxError(f"± must prefix an unsigned term in {_clip(original)}")
                c0 = value
            else:
                c0 += sign * value
        else:
            if var is not None:
                raise CellSyntaxError(f"more than one variable in {_clip(original)}")
            if term not in SLOTS:
                raise CellSyntaxError(f"unknown variable {_clip(term)} in {_clip(original)}")
            if pm and first:
                raise CellSyntaxError(f"± must prefix a constant in {_clip(original)}")
            var = term
            c1 = sign
        first = False
        pos = m.end()
        while pos < len(s) and s[pos].isspace():
            pos += 1
    if first:
        raise CellSyntaxError(f"empty cell {_clip(original)}")
    if pm and c0 <= 0:
        raise CellSyntaxError(f"± needs a positive constant part in {_clip(original)}")
    return LinearCell(pm=pm, c0=c0, c1=c1, var=var)


def match_examples(tasks, param_range=(-5, 5)):
    """The oracle for ``matching.match_examples``: the first task of every
    distinct filling is held, then the first of those for every relator
    triple, before any example row is matched."""
    first_task = {}
    for task in tasks:
        first_task.setdefault(task.filling, task)
    by_triple = {}
    for filling, task in first_task.items():
        by_triple.setdefault(gen_from_hex(filling).serialized_relators(), task)
    out = []
    for table in EXAMPLE_TABLES:
        for example in load_examples(table):
            matched = 0
            first = ""
            total = 0
            for assignment, triple, *_ in spelled_instances(example, param_range):
                total += 1
                hit = by_triple.get(triple)
                if hit is not None:
                    matched += 1
                    if not first:
                        loc = f"table{hit.table} row {hit.row} sym {hit.symmetry}"
                        if hit.branch:
                            loc += f" branch {hit.branch}"
                        if assignment:
                            loc += " at " + format_assignment(assignment)
                        first = loc
            out.append(ExampleMatch(table, example.row, not example.variables(), total, matched, first))
    return out


def matches_tsv(matches) -> str:
    lines = ["\t".join(("example_table", "row", "kind", "instances", "matched", "first_match"))]
    for m in matches:
        lines.append(
            "\t".join(
                (
                    str(m.table),
                    str(m.row),
                    "concrete" if m.concrete else "parametric",
                    str(m.instances),
                    str(m.matched),
                    m.first_match or "-",
                )
            )
        )
    return "\n".join(lines) + "\n"


def matches_json(matches) -> str:
    payload = [
        {
            "example_table": m.table,
            "row": m.row,
            "kind": "concrete" if m.concrete else "parametric",
            "instances": m.instances,
            "matched": m.matched,
            "first_match": m.first_match,
        }
        for m in matches
    ]
    return json.dumps(payload, indent=2) + "\n"
