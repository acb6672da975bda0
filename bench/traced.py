"""Traced run of one workload: the command's chain driven row by row
through artinhexa's public functions, with a span around every call.

    python3 bench/traced.py --workload sweep --seed 1 --report R --spans S

writes the report R (which must equal the command's report byte for byte),
the spans S as JSON, and prints one JSON object of per-layer metrics.  The
spans are kept in memory and written after the report.  Work done after the
report (replaying the Trivial certificates, word micro-timings, writing the
spans) is reported as ``post_report_s`` so the caller can compare the
traced wall time with the untraced command.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import sys
import time
from dataclasses import replace

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

from artinhexa import artin, braids, hexa, pipeline, tables, triviality, words
from workloads import WORKLOADS

MODULES = ("words", "freeprod", "braids", "hexa", "artin", "triviality",
           "relexpr", "tables", "pipeline", "cli")
MICRO_SAMPLES = 256
MICRO_REPEATS = 5


class Spans:
    """Spans (id, parent, name, start, end), held in memory."""

    def __init__(self):
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.next_id = 0

    def open(self) -> int:
        self.next_id += 1
        return self.next_id

    def add(self, sid: int, parent: int, name: str, t0: float, t1: float) -> None:
        self.spans.append((sid, parent, name, t0, t1))

    def call(self, parent: int, name: str, fn, *args):
        t0 = time.perf_counter()
        out = fn(*args)
        self.add(self.open(), parent, name, t0, time.perf_counter())
        return out

    def busy(self, name: str) -> float:
        return sum(t1 - t0 for _, _, n, t0, t1 in self.spans if n == name)

    def durations(self, name: str) -> list[float]:
        return [t1 - t0 for _, _, n, t0, t1 in self.spans if n == name]


def percentile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    values = sorted(values)
    return values[min(len(values) - 1, int(q * len(values)))]


def classify_filling(filling):
    return braids.classify(hexa.to_surgery(filling).braid)


def traced_chain(spec, sp: Spans):
    """The work of ``run-tables`` / ``match-examples``, span by span.
    Returns the report text, the report rows, and the per-row presentations
    and verdicts."""
    root = sp.open()
    t_root = time.perf_counter()

    def load():
        for t in spec.tables:
            tables.load_table(t)
        tables.load_symmetries()

    sp.call(root, "tables.load", load)
    tasks = sp.call(root, "pipeline.build_tasks", pipeline.build_tasks,
                    spec.tables, spec.param_range, spec.symmetries, False)
    rows, presentations, verdicts = [], [], []
    for task in tasks:
        rid = sp.open()
        t_row = time.perf_counter()
        pres = sp.call(rid, "artin.gen_from_hex", artin.gen_from_hex, task.filling)
        check = sp.call(rid, "artin.verify_artin", artin.verify_artin, pres)
        divisors = sp.call(rid, "triviality.abelian_invariants",
                           triviality.abelian_invariants, pres)
        verdict = None
        if spec.run_simplify:
            verdict = sp.call(rid, "triviality.simplify", triviality.simplify,
                              pres, triviality.DEFAULT_BUDGET)
        braid = sp.call(rid, "braids.classify", classify_filling, task.filling)
        rows.append(pipeline.ReportRow(
            table=task.table, row=task.row, assignment=task.assignment,
            branch=task.branch, symmetry=task.symmetry, mirrored=task.mirrored,
            filling=task.filling, relators=pres.serialized_relators(),
            artin_w=check.w, artin_f=check.f, divisors=divisors,
            verdict=verdict.tag if verdict else "-", braid_class=str(braid),
        ))
        presentations.append(pres)
        verdicts.append(verdict)
        sp.add(rid, root, "pipeline.row", t_row, time.perf_counter())

    def annotate(rows):
        index = pipeline.example_index(spec.param_range)
        return [replace(r, example_match=index[r.relators]) if r.relators in index else r
                for r in rows]

    rows = sp.call(root, "pipeline.example_index", annotate, rows)
    if spec.command == "run-tables":
        text = sp.call(root, "pipeline.report_tsv", pipeline.report_tsv, rows)
    else:
        matches = sp.call(root, "pipeline.match_examples", pipeline.match_examples,
                          rows, spec.param_range)
        text = sp.call(root, "pipeline.report_tsv", pipeline.matches_tsv, matches)
    sp.add(root, 0, "workload", t_root, time.perf_counter())
    return text, rows, presentations, verdicts


def micro_timings(presentations, rows, seed: int) -> dict[str, float]:
    """Per-call time of the word operations, in microseconds, on operands
    drawn with the seed from this workload's own relators and parameters."""
    rng = random.Random(seed)
    picks = [rng.randrange(len(presentations)) for _ in range(MICRO_SAMPLES)]
    pool = [w for p in presentations for w in p.relators]
    ops = [rng.choice(presentations[i].relators) for i in picks]
    others = [rng.choice(pool) for _ in picks]
    exps = [max(1, abs(rng.choice(rows[i].filling.as_tuple()))) for i in picks]
    cases = {
        "words.concat_us": lambda: [words.concat(a, b) for a, b in zip(ops, others)],
        "words.invert_us": lambda: [words.invert(a) for a in ops],
        "words.cyclic_reduce_us": lambda: [words.cyclic_reduce(a) for a in ops],
        "words.power_us": lambda: [words.power(a, k) for a, k in zip(ops, exps)],
        "words.len_us": lambda: [len(a) for a in ops],
    }
    out = {}
    for name, fn in cases.items():
        times = []
        for _ in range(MICRO_REPEATS):
            t0 = time.perf_counter()
            fn()
            times.append((time.perf_counter() - t0) / MICRO_SAMPLES * 1e6)
        out[name] = statistics.median(times)
    return out


def line_counts() -> dict[str, int]:
    src = os.path.join(ROOT, "src", "artinhexa")
    counts = {}
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), encoding="utf-8") as fh:
                counts[name[:-3]] = fh.read().count("\n")
    out = {"src.lines": sum(counts.values())}
    out.update({f"{m}.lines": counts.get(m, 0) for m in MODULES})
    return out


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--report", required=True)
    ap.add_argument("--rows", help="also write the rows behind a match-examples report")
    ap.add_argument("--spans", required=True)
    args = ap.parse_args()
    spec = WORKLOADS[args.workload].seeded(args.seed)

    sp = Spans()
    text, rows, presentations, verdicts = traced_chain(spec, sp)
    with open(args.report, "w", encoding="utf-8") as fh:
        fh.write(text)
    t_report = time.perf_counter()

    # the report carries no move log, so the certificates are checked here
    replay_failed = 0
    for pres, verdict in zip(presentations, verdicts):
        if verdict is not None and verdict.tag == "Trivial":
            if triviality.replay(pres, verdict.moves) != (0, ()):
                replay_failed += 1
    if args.rows:
        with open(args.rows, "w", encoding="utf-8") as fh:
            fh.write(pipeline.report_tsv(rows))

    tags = [v.tag for v in verdicts if v is not None]
    row_ms = [d * 1e3 for d in sp.durations("triviality.simplify")]
    n = len(rows)
    decided = tags.count("Trivial") + tags.count("NotTrivial")
    metrics = {
        "tables.load_s": sp.busy("tables.load"),
        "pipeline.build_tasks_s": sp.busy("pipeline.build_tasks"),
        "pipeline.rows": n,
        "pipeline.distinct_fillings": len({r.filling for r in rows}),
        "pipeline.report_tsv_s": sp.busy("pipeline.report_tsv"),
        "pipeline.example_index_s": sp.busy("pipeline.example_index"),
        "pipeline.match_examples_s": sp.busy("pipeline.match_examples"),
        "artin.gen_from_hex_s": sp.busy("artin.gen_from_hex"),
        "artin.verify_artin_s": sp.busy("artin.verify_artin"),
        "triviality.abelian_invariants_s": sp.busy("triviality.abelian_invariants"),
        "triviality.simplify_s": sp.busy("triviality.simplify"),
        "triviality.moves": sum(len(v.moves) for v in verdicts if v is not None),
        "triviality.simplify_row_p50_ms": percentile(row_ms, 0.50),
        "triviality.simplify_row_p99_ms": percentile(row_ms, 0.99),
        "triviality.simplify_row_max_ms": max(row_ms, default=0.0),
        "triviality.simplify_row_samples": len(row_ms),
        "triviality.trivial": tags.count("Trivial"),
        "triviality.not_trivial": tags.count("NotTrivial"),
        "triviality.unknown": tags.count("Unknown"),
        "triviality.decided_ratio": decided / n if n else 0.0,
        "triviality.replay_failed": replay_failed,
        "braids.classify_s": sp.busy("braids.classify"),
    }
    metrics.update(micro_timings(presentations, rows, args.seed))
    metrics.update(line_counts())
    with open(args.spans, "w", encoding="utf-8") as fh:
        json.dump({"fields": ["id", "parent", "name", "start", "end"], "spans": sp.spans}, fh)
    metrics["post_report_s"] = time.perf_counter() - t_report
    print(json.dumps(metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
