"""Benchmark of the artinhexa command on three workloads.

    python3 bench/run.py --workload sweep --seed 1 --seconds 40 --trace 0

Run from the root of a source tree (``src/artinhexa`` must be there); the
program is run from that tree's sources, as ``artinhexa <command>``.  One
run repeats rounds of the workload's command for ``--seconds`` seconds.  A
round runs the command at ``--jobs 1`` pinned to the first usable CPU, at
``--jobs`` equal to the number of usable CPUs, and at ``--jobs 1`` pinned to
the last one; with ``--trace 0`` it also times three fresh-interpreter
set-ups, pinned like the first command.  Every report must be byte-identical to the first, and the first
is checked row by row by ``checks.py``, which shares no code with the
program.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics of ``BENCHMARK.json``; with ``--trace 1`` a traced
run (``traced.py``) comes first and the object holds the per-layer metrics.
Spans go to ``bench/_out/``.

Every round repeats the same deterministic work, so the differences between
rounds are the host's: the speed of each vCPU of a shared host changes by
up to 2x in stretches of seconds, with what other tenants run on the same
physical core, and CPU time changes with it.  So every time is taken at the
reference speed: it is multiplied by the speed factor that ``speed.Probe``
sampled on the CPUs the process ran on while it ran.  ``setup_s``,
``wall_s``, ``par_wall_s`` and ``peak_rss_mb`` are the medians of the run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
DATA = os.path.join(SRC, "artinhexa", "data")
OUT = os.path.join(HERE, "_out")
sys.path.insert(0, HERE)

import checks  # noqa: E402
import speed  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

CLI = "import sys; from artinhexa.cli import main; sys.exit(main())"
SETUP = (
    "import time\n"
    "t = time.perf_counter()\n"
    "from artinhexa import cli, tables\n"
    "for i in (1, 2, 3): tables.load_table(i)\n"
    "tables.load_symmetries()\n"
    "for i in (5, 6, 7, 8, 9, 10): tables.load_examples(i)\n"
    "print(time.perf_counter() - t)\n"
)
CHILD_TIMEOUT_S = 150
SETUPS_PER_ROUND = 3  # a set-up is short; more of them steady its median


class BenchError(Exception):
    pass


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("ARTINHEXA_DATA", None)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def run_command(argv: list[str], log_path: str, cpus, probe) -> tuple[float, float]:
    """Run one process on ``cpus`` to its end; its wall time in s at the
    reference speed and its peak RSS in MB."""
    with open(log_path, "wb") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, env=child_env(), cwd=ROOT,
                                stdout=subprocess.DEVNULL, stderr=log)
        pin(proc.pid, cpus)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        t1 = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        with open(log_path, encoding="utf-8", errors="replace") as fh:
            raise BenchError(f"{argv[3:]} exited {proc.returncode}: {fh.read()[-2000:]}")
    return (t1 - t0) * probe.factor(cpus, t0, t1), usage.ru_maxrss / 1024


def pin(pid: int, cpus) -> None:
    try:
        os.sched_setaffinity(pid, cpus)
    except ProcessLookupError:  # already ended; it fails its own way
        pass


def run_output(argv: list[str], cpus=None) -> tuple[float, str]:
    """Run one process and return its wall time and standard output."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, env=child_env(), cwd=ROOT, text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    if cpus is not None:
        pin(proc.pid, cpus)
    try:
        out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{argv[1:3]} took over {CHILD_TIMEOUT_S} s") from None
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise BenchError(f"{argv[1:3]} exited {proc.returncode}: {err[-2000:]}")
    return wall, out


def read_bytes(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def declared_metrics() -> tuple[list[dict], list[dict]]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    return bench["end_to_end"], bench["per_layer"]


def measure(args, spec, work: str) -> dict:
    cpus = sorted(os.sched_getaffinity(0))
    nproc = len(cpus)
    data = checks.load_data(DATA)
    log = os.path.join(work, "stderr.log")
    rep1 = os.path.join(work, "jobs1.tsv")
    rep_n = os.path.join(work, "jobsn.tsv")
    problems: list[str] = []
    t_begin = time.perf_counter()

    run_output([sys.executable, "-c", SETUP])  # compiles the bytecode once
    first, last = {cpus[0]}, {cpus[-1]}
    with speed.Probe(cpus) as probe:
        traced = None
        if args.trace:
            traced_report = os.path.join(work, "traced.tsv")
            rows_path = os.path.join(work, "traced_rows.tsv")
            os.makedirs(OUT, exist_ok=True)
            spans = os.path.join(OUT, f"spans-{spec.name}-seed{args.seed}.json")
            argv = [sys.executable, os.path.join(HERE, "traced.py"), "--workload", spec.name,
                    "--seed", str(args.seed), "--report", traced_report, "--spans", spans]
            if spec.command != "run-tables":
                argv += ["--rows", rows_path]
            t0 = time.perf_counter()
            wall, out = run_output(argv, first)
            traced = json.loads(out.strip().splitlines()[-1])
            traced_wall = ((wall - traced.pop("post_report_s"))
                           * probe.factor(first, t0, time.perf_counter()))

        setups, walls, pars, rss = [], [], [], []
        reference = None
        reports = 0
        while True:
            t_round = time.perf_counter()
            for _ in range(0 if args.trace else SETUPS_PER_ROUND):
                t0 = time.perf_counter()
                setup = float(run_output([sys.executable, "-c", SETUP], first)[1])
                setups.append(setup * probe.factor(first, t0, time.perf_counter()))
            for jobs, on in ((1, first), (nproc, set(cpus)), (1, last)):
                out = rep1 if jobs == 1 else rep_n
                argv = [sys.executable, "-c", CLI] + spec.argv(jobs, out)
                wall, peak = run_command(argv, log, on, probe)
                if jobs == 1:
                    walls.append(wall)
                    rss.append(peak)
                else:
                    pars.append(wall)
                if reference is None:
                    reference = read_bytes(out)
                else:
                    problems += checks.identical(reference, read_bytes(out),
                                                 f"a --jobs {jobs} report")
                reports += 1
            now = time.perf_counter()
            if now + (now - t_round) > t_begin + args.seconds:
                break
        host_speed = probe.factor(cpus, t_begin, time.perf_counter())

    if traced is not None:
        problems += checks.identical(reference, read_bytes(traced_report), "the traced report")
        reports += 1
        if traced.pop("triviality.replay_failed"):
            problems.append("a Trivial certificate does not replay to (0, ())")

    text = reference.decode("utf-8")
    shape = (data, spec.tables, spec.param_range, spec.symmetries)
    if spec.command == "run-tables":
        outcome = checks.check_report(text, *shape, run_simplify=True)
    else:
        outcome = checks.check_matches(text, *shape)
        if traced is not None:
            with open(rows_path, encoding="utf-8") as fh:
                behind = checks.check_report(fh.read(), *shape, run_simplify=False)
            problems += behind.problems
    problems += outcome.problems

    wall_s = statistics.median(walls)
    par_wall_s = statistics.median(pars)
    if args.trace:
        metrics = dict(traced)
        metrics["pipeline.par_speedup"] = wall_s / par_wall_s
        metrics["trace.overhead_s"] = traced_wall - wall_s
    else:
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": wall_s,
            "rows_per_s": outcome.attempted / wall_s,
            "par_wall_s": par_wall_s,
            "peak_rss_mb": statistics.median(rss),
        }
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    return {
        "correct": not problems and not outcome.failed_rows,
        "attempted": outcome.attempted * reports,
        "failed": len(outcome.failed_rows) * reports,
        "metrics": metrics,
        "rounds": f"{len(pars)} rounds at --jobs 1, {nproc}, 1; "
                  f"mean speed factor {host_speed:.2f} (1 is the reference speed)",
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(SRC, "artinhexa", "cli.py")):
        print(f"error: no artinhexa sources in {SRC}", file=sys.stderr)
        return 2
    end_to_end, per_layer = declared_metrics()
    declared = per_layer if args.trace else end_to_end
    spec = WORKLOADS[args.workload].seeded(args.seed)

    os.makedirs(OUT, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{spec.name}-", dir=OUT)
    try:
        result = measure(args, spec, work)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    measured = result["metrics"]
    missing = [m["name"] for m in declared if m["name"] not in measured]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 1
    print(f"{spec.name}: seed {args.seed}, tables {spec.tables}, {result['rounds']}")
    metrics = {}
    for m in declared:
        metrics[m["name"]] = {"value": measured[m["name"]], "unit": m["unit"]}
        print(f"  {m['name']:36s} {measured[m['name']]:14.6g} {m['unit']}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
