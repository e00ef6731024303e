"""How fast this machine runs Python right now, from fixed reference work.

On a shared machine the same Python code runs up to a third slower for
seconds to minutes at a time, whatever the program does.  The benchmark times
a reference every ``EVERY_S`` seconds while it measures, and rescales each
timing to the speed at which the reference takes its nominal time: a timing t
is reported as t * nominal / c, where c is the median time of the reference
within ``WINDOW_S`` seconds of that timing.  Drift of the machine then does
not read as a change in the program.

In-process timings use the loop below (nominal ``REF_S``); timings of CLI
processes use the start of a bare interpreter, ``python -c pass`` (nominal
``START_REF_S``), because process start-up drifts differently from running
Python.  Neither reference runs code of the program, so no change to the
program can move it; the unscaled timings are kept in the details of every
run.
"""

from __future__ import annotations

import bisect
import gc
import statistics
import subprocess
import sys
import time

EVERY_S = 0.25
WINDOW_S = 1.5
# about the references' times on an uncontended 2-vCPU Xeon VM at 2.1 GHz,
# CPython 3.11
REF_S = 0.0025
START_REF_S = 0.045


def _reference_work() -> int:
    # interpreter work of the kinds the program does: integer arithmetic,
    # tuple and frozenset allocation, dict insertion and lookup, sorting
    table = {}
    for i in range(3000):
        table[(i % 61, i)] = frozenset((i, i >> 1, i % 7))
    total = 0
    for key, vals in table.items():
        total += len(vals | {key[0]}) + (key[1] * key[1]) % 7
    return total + len(sorted(table, reverse=True))


def sample() -> float:
    """Seconds the reference loop takes now: the fastest of three runs.

    The garbage collector is off meanwhile, so the size of the caller's heap
    cannot change the loop's time.
    """
    best = float("inf")
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(3):
            t0 = time.perf_counter()
            _reference_work()
            best = min(best, time.perf_counter() - t0)
    finally:
        if was_enabled:
            gc.enable()
    return best


def interpreter_wall(env: dict, code: str = "pass") -> float:
    """Seconds a fresh interpreter takes to run ``code`` and exit."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], env=env, check=True)
    return time.perf_counter() - t0


class Clock:
    """Reference samples taken along a measurement.

    ``sample`` times the reference, whose nominal time is ``nominal``.
    """

    def __init__(self, sample=sample, nominal: float = REF_S):
        self.sample = sample
        self.nominal = nominal
        self.times: list[float] = []
        self.values: list[float] = []

    def tick(self, force: bool = False):
        """Take a sample if ``EVERY_S`` has passed since the last one."""
        now = time.perf_counter()
        if force or not self.times or now - self.times[-1] >= EVERY_S:
            self.values.append(self.sample())
            self.times.append(now)

    def scale(self, t: float = None) -> float:
        """The factor for a timing taken at ``t``; for the whole run without ``t``."""
        if t is None:
            return self.nominal / statistics.median(self.values)
        lo = bisect.bisect_left(self.times, t - WINDOW_S)
        hi = bisect.bisect_right(self.times, t + WINDOW_S)
        near = self.values[lo:hi] or [self.values[min(lo, len(self.values) - 1)]]
        return self.nominal / statistics.median(near)
