"""A fixed reference computation that gauges the machine's speed during a run.

The host this benchmark was defined on lends its CPUs to other tenants:
the same task took up to 70% longer in one set of runs than in another
a few minutes apart, and that drift, not the program, set how much runs
of unchanged code differed.  A :class:`Gauge` runs :func:`reference` between the tasks, a
set share of the task time, so it samples the machine's speed at the
same moments the tasks do.  Each task's time is then scaled by
``REF_MS`` over the median of the reference timings taken nearest to it:
the figures read as times on a machine where the reference takes
``REF_MS``.  Set-up is interpreter start and imports, which a busy host
slows less than it slows the reference, so each set-up probe is scaled
instead by a reference of its own kind, :func:`setup_reference_s`, taken
right after it.  The references are the same code in every run and no
part of the package, so a change to the program moves the scaled
figures by the same share as the raw ones.
"""

from __future__ import annotations

import bisect
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

import numpy as np

LD = np.longdouble

# A round figure within the range of the reference's run medians (4 to 6.5
# ms) on the 2-vCPU x86_64 VM the benchmark was defined on (Python 3.11,
# NumPy 2.4), so the scaled figures read like that machine's milliseconds.
REF_MS = 5.0
# Reference time kept at this share of the task time.
SHARE = 0.1
CHAIN = 2400
POINTS = 1500
# Reference timings around a task that set its scale.
NEAREST = 5
STEP, RATE = LD(0.3), LD(1.7)
# The set-up reference's time here, 0.19 to 0.24 s, rounded like REF_MS.
SETUP_REF_S = 0.2
SETUP_REFERENCE = "import sys, time; t = float(sys.argv[1]); import numpy; print(time.time() - t)"


@dataclass
class _Point:
    x: object
    y: object

    def __post_init__(self) -> None:
        self.x = self.x if isinstance(self.x, LD) else LD(self.x)
        self.y = self.y if isinstance(self.y, LD) else LD(self.y)


def reference() -> float:
    """About ``REF_MS`` of the interpreter-bound work the package does.

    A recurrence chained through a long-double array, small dataclasses
    coerced to long double, and long-double ``log``/``exp`` on scalars.
    """
    chain = np.empty(CHAIN + 1, dtype=LD)
    chain[0] = LD(1.5)
    for j in range(CHAIN):
        chain[j + 1] = (chain[j] + STEP) / RATE
    acc = LD(0)
    for i in range(POINTS):
        p = _Point(0.5 + i * 1e-4, float(i))
        acc += np.log(p.x) * np.exp(-p.x) + p.y / RATE
    return float(acc + chain[-1])


def setup_reference_s(env: dict) -> float:
    """Seconds a fresh interpreter takes to start and import NumPy."""
    proc = subprocess.run([sys.executable, "-c", SETUP_REFERENCE, repr(time.time())], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.strip())


class Gauge:
    """Reference timings taken between tasks, ``SHARE`` of their time."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self.after: list[int] = []  # number of tasks run before each timing
        self.busy = self.task_busy = 0.0
        self.tasks = 0
        reference()  # warm-up, untimed

    def after_task(self, seconds: float) -> None:
        """Count a task's time, and run the reference once if it is behind
        ``SHARE`` of all of it.  Never twice in a row: a repeat would find
        the reference's code and data in the caches, which no task does."""
        self.task_busy += seconds
        self.tasks += 1
        if self.busy < SHARE * self.task_busy:
            start = time.perf_counter()
            reference()
            took = time.perf_counter() - start
            self.times.append(took)
            self.after.append(self.tasks)
            self.busy += took

    def ref_ms(self) -> float:
        return statistics.median(self.times) * 1e3

    def scales(self) -> list[float]:
        """Per task counted, the factor that turns its time into reference-speed time.

        The host's speed changes from second to second, so it is ``REF_MS``
        over the median of the ``NEAREST`` reference timings taken closest
        to the task, not one figure for the whole run.
        """
        n = len(self.times)
        k = min(NEAREST, n)
        factors = []
        for task in range(self.tasks):
            j = bisect.bisect_right(self.after, task)  # timings after[j:] came later
            lo = min(max(0, j - k // 2), n - k)
            factors.append(REF_MS / (statistics.median(self.times[lo:lo + k]) * 1e3))
        return factors
