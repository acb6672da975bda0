"""Command-line surface.

Exit codes: 0 success, 1 domain error (bad input data, an unsolvable
request, a file that cannot be read or written), 2 usage error, 141 (128 +
SIGPIPE, nothing printed) when the reader closes standard output early.

Each command imports the modules it runs: the module level holds only what
the parser and the small commands share, which ``tables`` loads anyway, so
``artin``, ``triviality`` and the report pipeline are compiled only by the
commands that call them.
"""

from __future__ import annotations

import argparse
import os
import stat
import sys
from typing import TYPE_CHECKING, Iterable

from . import braids, hexa, tables, words

if TYPE_CHECKING:
    from .artin import Presentation


# One divisor per declared generator is allocated and printed, so the rank
# line alone would set the output size.
MAX_FILE_RANK = 10_000


def _parse_ints(text: str, what: str, count: int | None = None) -> tuple[int, ...]:
    try:
        values = tuple(words.parse_int(v) for v in text.split(","))
    except ValueError:
        raise ValueError(f"{what}: expected comma-separated integers, got {words._clip(text)}")
    if count is not None and len(values) != count:
        raise ValueError(f"{what}: expected {count} integers, got {len(values)}")
    return values


def _parse_range(text: str) -> tuple[int, int]:
    try:
        lo, hi = text.split("..")
        return words.parse_int(lo), words.parse_int(hi)
    except ValueError:
        raise ValueError(f"--param-range: expected LO..HI, got {words._clip(text)}")


def _load_presentation(path: str) -> Presentation:
    from .artin import Presentation

    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        lines = [(n, line.strip()) for n, line in enumerate(fh, 1) if line.strip()]
    head = lines[0][1].split() if lines else []
    if len(head) != 2 or head[0] != "rank":
        raise ValueError(f"{path}: first line must be 'rank N'")

    def parse(n: int, parser, text: str):
        try:
            return parser(text)
        except ValueError as exc:
            raise ValueError(f"{path} line {n}: {exc}") from exc

    rank = parse(lines[0][0], words.parse_int, head[1])
    if rank > MAX_FILE_RANK:
        raise ValueError(f"{path}: rank {rank} is above the limit {MAX_FILE_RANK}")
    relators = tuple(parse(n, words.parse_word, line) for n, line in lines[1:])
    return Presentation(rank, relators)


def _presentation_text(pres: Presentation) -> str:
    out = [f"rank {pres.rank}"]
    out.extend(pres.serialized_relators())
    return "\n".join(out) + "\n"


def _emit(chunks: Iterable[str], out_path: str | None) -> None:
    """Write the chunks as they come; the file is opened only now, so an
    input error raised before this creates no file, and one raised while
    the chunks are made or written removes the partial file (a device or a
    link to a file is left in place)."""
    if not out_path:
        sys.stdout.writelines(chunks)
        return
    fh = open(out_path, "w", encoding="utf-8")
    try:
        with fh:
            fh.writelines(chunks)
    except BaseException:
        if stat.S_ISREG(os.lstat(out_path).st_mode):
            os.remove(out_path)
        raise


def _cmd_gen_presentation(args) -> int:
    from . import artin

    if (args.hex is None) == (args.params is None):
        raise ValueError("give exactly one of --hex or --params")
    if args.hex is not None:
        filling = hexa.HexFilling(*_parse_ints(args.hex, "--hex", 6))
        pres = artin.gen_from_hex(filling)
    else:
        params = hexa.SurgeryParams(*_parse_ints(args.params, "--params", 6))
        pres = artin.gen_from_params(params)
    _emit([_presentation_text(pres)], args.out)
    return 0


def _cmd_verify_artin(args) -> int:
    from . import artin

    pres = _load_presentation(args.file)
    check = artin.verify_artin(pres)
    if args.condition in ("w", "both"):
        print(f"W {'true' if check.w else 'false'}")
    if args.condition in ("f", "both"):
        print(f"F {'true' if check.f else 'false'}")
    return 0


def _cmd_simplify(args) -> int:
    import json

    from . import triviality

    pres = _load_presentation(args.file)
    budget = triviality.DEFAULT_BUDGET if args.budget is None else args.budget
    verdict = triviality.simplify(pres, budget)
    payload = verdict.as_json_dict()
    if not args.emit_log:
        del payload["moves"]
    print(json.dumps(payload, indent=2))
    return 0


def _cmd_classify_braid(args) -> int:
    braid = braids.PureBraid(braids.parse_blocks(args.blocks), args.twist)
    print(braids.classify(braid))
    return 0


def _cmd_rho(args) -> int:
    from . import freeprod

    letters = braids.parse_braid_word(args.braid_word)
    print(freeprod.serialize_fp_word(freeprod.rho(letters)))
    return 0


def _cmd_symmetry(args) -> int:
    filling = hexa.HexFilling(*_parse_ints(args.hex, "--hex", 6))
    sym = tables.symmetry_by_index(args.index)
    print(sym.apply(filling))
    return 0


def _cmd_orbit(args) -> int:
    filling = hexa.HexFilling(*_parse_ints(args.hex, "--hex", 6))
    for image in hexa.orbit(filling, tables.load_symmetries(), args.mirror == "on"):
        print(image)
    return 0


def _cmd_validate_symmetries(args) -> int:
    # the table is checked before the first print: a load error prints no report
    faults = hexa.symmetry_discrepancies(tables.load_symmetries())
    print("symmetry table, checked against det of the surgery's linking matrix on {0,1}^6:")
    for line in faults:
        print("  " + line)
    print("discrepancy report: " + ("bundled table FAILED checks above" if faults else "empty"))
    return 1 if faults else 0


def _cmd_parse_cell(args) -> int:
    # the values are computed before the first print: a refusal prints nothing
    cell = hexa.parse_cell(args.cell)
    lines = [f"canonical {hexa.serialize_cell(cell)}"]
    assignment = {}
    if args.assign:
        name, _, raw = args.assign.partition("=")
        try:
            assignment = {name.strip(): words.parse_int(raw)}
        except ValueError:
            raise ValueError(f"bad --assign {words._clip(args.assign)}; expected var=int")
    if args.assign or cell.var is None:
        lines.append("values " + ",".join(str(v) for v in cell.values(assignment)))
    print("\n".join(lines))
    return 0


def _report_args(args) -> dict:
    return dict(
        tables=_parse_ints(args.tables, "--tables"),
        param_range=_parse_range(args.param_range),
        symmetries=args.symmetries,
        mirror=args.mirror == "on",
    )


def _cmd_run_tables(args) -> int:
    from . import pipeline

    rows = pipeline.run_tables(**_report_args(args), jobs=args.jobs)
    _emit(pipeline.report_lines(rows, as_json=args.json), args.out)
    return 0


def _cmd_match_examples(args) -> int:
    from . import pipeline

    cfg = _report_args(args)
    matches = pipeline.match_examples(pipeline.build_tasks(**cfg), cfg["param_range"])
    _emit(pipeline.match_lines(matches, as_json=args.json), args.out)
    return 0


def _add_report_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--tables", default="1,2,3", help="parameter tables to run (default 1,2,3)")
    sub.add_argument("--param-range", default="-5..5", help="free-variable range LO..HI")
    sub.add_argument("--symmetries", choices=("all", "id"), default="all")
    sub.add_argument("--mirror", choices=("on", "off"), default="off", help="also sweep mirror images")
    sub.add_argument("--jobs", type=words.parse_int, default=1, help="worker processes (run-tables only)")
    sub.add_argument("--out", help="write output to a file instead of stdout")
    sub.add_argument("--json", action="store_true", help="JSON instead of TSV")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="artinhexa",
        description="Artin 3-presentations from hexatangle fillings; "
        "hyperbolicity of closed pure 3-braids",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-presentation", help="generate the three relators")
    p.add_argument("--hex", help="filling alpha,beta,gamma,delta,epsilon,eta")
    p.add_argument("--params", help="surgery parameters m,n,p,e,e1,f1")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_gen_presentation)

    p = sub.add_parser("verify-artin", help="check the Artin identities of a presentation file")
    p.add_argument("--file", required=True)
    p.add_argument("--condition", choices=("w", "f", "both"), default="both")
    p.set_defaults(func=_cmd_verify_artin)

    p = sub.add_parser("simplify", help="run the triviality search on a presentation file")
    p.add_argument("--file", required=True)
    p.add_argument("--budget", type=words.parse_int)  # None: triviality.DEFAULT_BUDGET
    p.add_argument("--emit-log", action="store_true", help="include the move log")
    p.set_defaults(func=_cmd_simplify)

    p = sub.add_parser("classify-braid", help="hyperbolicity of a closed pure 3-braid")
    p.add_argument("--blocks", required=True, help='block exponents "e1,f1;e2,f2;..."')
    p.add_argument("--twist", type=words.parse_int, default=0, help="full-twist exponent e")
    p.set_defaults(func=_cmd_classify_braid)

    p = sub.add_parser("rho", help="image of a braid word in Z2 * Z3")
    p.add_argument("--braid-word", required=True, help='e.g. "s1*s2^-1*s1"')
    p.set_defaults(func=_cmd_rho)

    p = sub.add_parser("symmetry", help="apply one symmetry row to a filling")
    p.add_argument("--index", type=words.parse_int, required=True, help="symmetry number 1..24")
    p.add_argument("--hex", required=True)
    p.set_defaults(func=_cmd_symmetry)

    p = sub.add_parser("orbit", help="orbit of a filling under all symmetries")
    p.add_argument("--hex", required=True)
    p.add_argument("--mirror", choices=("on", "off"), default="off")
    p.set_defaults(func=_cmd_orbit)

    p = sub.add_parser(
        "validate-symmetries", help="check the symmetry table against the surgery determinant (exit 1 on a fault)"
    )
    p.set_defaults(func=_cmd_validate_symmetries)

    p = sub.add_parser("parse-cell", help="parse a table cell expression")
    p.add_argument("cell")
    p.add_argument("--assign", help="variable assignment var=int")
    p.set_defaults(func=_cmd_parse_cell)

    p = sub.add_parser("run-tables", help="batch-verify the parameter tables")
    _add_report_flags(p)
    p.set_defaults(func=_cmd_run_tables)

    p = sub.add_parser("match-examples", help="match generated presentations against the example tables")
    _add_report_flags(p)
    p.set_defaults(func=_cmd_match_examples)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    for flag, low in (("jobs", 1), ("budget", 0)):
        value = getattr(args, flag, None)
        if value is not None and value < low:
            parser.error(f"argument --{flag}: {value} is below {low}")
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader has gone: what is left, and the flush at exit, go nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
