"""How fast each CPU runs Python code right now, sampled while a command runs.

On a shared host the speed of a vCPU changes with what the other tenants
run on the same physical core: a fixed Python loop takes from about 90 to
about 200 ms for the same work, in stretches of one to twenty seconds, and
independently on each vCPU.  CPU time slows down exactly as much as wall
time, so neither is a steady measure of the program.

A ``Probe`` runs one thread per CPU, pinned to it.  Every ``PERIOD_S`` the
thread wakes, runs ``probe_loop`` (a fixed stack reduction of signed
letters, under 1 ms, the kind of work the program does) and records its
thread CPU time.  ``factor(cpus, t0, t1)`` is the mean of
``REFERENCE_S / sample`` over the samples taken on those CPUs between t0 and
t1: the host's speed in that interval relative to an undisturbed CPU.  A
time multiplied by it is the time the same work would take at the reference
speed.
"""

from __future__ import annotations

import os
import statistics
import threading
import time

PERIOD_S = 0.05
# probe_loop's CPU time on an undisturbed, busy vCPU of the reference host
# (Intel Xeon, 2 vCPUs, Python 3.11.7), so that a factor near 1 means the
# host ran at its full speed; the samples' lower edge there is 0.6 ms.
REFERENCE_S = 0.0007

_LETTERS = [((i * 7) % 13 - 6) or 1 for i in range(1200)]


def probe_loop() -> int:
    out: list[int] = []
    for _ in range(8):
        for a in _LETTERS:
            if out and out[-1] == -a:
                out.pop()
            else:
                out.append(a)
    return len(out)


class Probe:
    def __init__(self, cpus):
        self.cpus = sorted(cpus)
        self.samples: dict[int, list[tuple[float, float]]] = {c: [] for c in self.cpus}
        self._stop = threading.Event()
        self._threads = [threading.Thread(target=self._run, args=(c,), daemon=True)
                         for c in self.cpus]

    def __enter__(self) -> "Probe":
        for t in self._threads:
            t.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        for t in self._threads:
            t.join()

    def _run(self, cpu: int) -> None:
        os.sched_setaffinity(0, {cpu})  # this thread only
        out = self.samples[cpu]
        while not self._stop.wait(PERIOD_S):
            c0 = time.thread_time()
            probe_loop()
            c1 = time.thread_time()
            out.append((time.perf_counter(), c1 - c0))

    def factor(self, cpus, t0: float, t1: float) -> float:
        """Mean speed of ``cpus`` over [t0, t1] relative to the reference."""
        ratios = [REFERENCE_S / d for c in cpus for t, d in self.samples[c]
                  if t0 <= t <= t1 and d > 0]
        if not ratios:
            raise RuntimeError(f"no speed samples on CPUs {sorted(cpus)} in {t1 - t0:.3f} s")
        return statistics.fmean(ratios)
