"""The benchmark's workloads: one `artinhexa` command line each.

Every workload is a fixed, deterministic command.  The seed only permutes
the order of the parameter tables on the command line: the report holds the
same rows in another order, so each seed is another input with the same
amount of work.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # "run-tables" or "match-examples"
    tables: tuple[int, ...]
    param_range: tuple[int, int]
    symmetries: str  # "all" or "id"

    @property
    def run_simplify(self) -> bool:
        return self.command == "run-tables"

    def seeded(self, seed: int) -> "Workload":
        order = list(self.tables)
        random.Random(seed).shuffle(order)
        return replace(self, tables=tuple(order))

    def argv(self, jobs: int, out: str) -> list[str]:
        lo, hi = self.param_range
        return [
            self.command,
            "--tables",
            ",".join(str(t) for t in self.tables),
            f"--param-range={lo}..{hi}",
            "--symmetries",
            self.symmetries,
            "--jobs",
            str(jobs),
            "--out",
            out,
        ]


# Sizes are chosen so that one --jobs 1 run takes 1-2 s on two cores and a
# 40 s run of the benchmark fits several rounds, whose median is reported.
WORKLOADS = {
    # The reference sweep scaled to one grid point and tables 1 and 3: all 24
    # symmetries, 2.32 rows per distinct filling (2.31 for all tables at
    # -5..5), and the triviality search takes most of the time.
    "sweep": Workload("sweep", "run-tables", (1, 3), (0, 0), "all"),
    # Identity symmetry over a range wider than +-5 on the negative side:
    # 1.38 rows per filling, relators up to 452 letters, and 1% of the rows
    # take about half of the search time.
    "long-words": Workload("long-words", "run-tables", (2, 3), (-8, 2), "id"),
    # Every table under all symmetries with the search off, then the example
    # tables are parsed and matched; 118 of the 120 example rows match at
    # this range too.
    "match": Workload("match", "match-examples", (1, 2, 3), (-1, 1), "all"),
}
