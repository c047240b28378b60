"""Span recording around the benchmark's calls into the package.

Every call the benchmark makes into ``bykov`` goes through
:meth:`Caller.call`.  The caller times nothing unless tracing is on; it
always classifies the outcome, because a typed ``BykovError`` is an
honest refusal and anything else is a crash, and the two are counted
apart.  With tracing on, each call and each task becomes a span
``(name, layer, start, end, parent, task, status, units)`` kept in
memory and written out once the run ends; ``units`` is the work the call
was asked for (loops, legs or steps), so rates per unit can be taken.
"""

from __future__ import annotations

import sys
import time
import traceback
from collections import defaultdict

OK, REFUSED, FAILED = "ok", "refused", "failed"

# Public functions of each module of src/bykov, as the benchmark calls them.
LAYER_OF = {
    "phi1": "flow", "phi2": "flow", "psi21": "flow", "poincare": "flow", "flow_at": "flow",
    "generate_hitting_sequence": "hitting", "sojourn_fractions": "hitting",
    "derive_constants": "params", "matching_params": "params",
    "lemma_diagnostics": "diagnostics", "corollary_ratios": "diagnostics",
    "estimate_invariants": "diagnostics",
    "adjusted_sequence": "adjusted",
    "verify_conjugacy": "conjugacy",
    "birkhoff_average": "birkhoff", "historic_certificate": "birkhoff",
    "run_all": "acceptance",
}
LAYERS = ("flow", "hitting", "params", "diagnostics", "adjusted", "conjugacy",
          "birkhoff", "cli", "acceptance")

_MAX_TRACEBACKS = 3


class Caller:
    """Runs calls into the package, classifies them and, if asked, traces them."""

    def __init__(self, refusal_type: type, traced: bool) -> None:
        self.refusal_type = refusal_type
        self.traced = traced
        self.spans: list[tuple] = []
        self.task = None          # id of the task being run
        self._task_span = -1      # span index of that task, parent of its calls
        self.counts = defaultdict(int)  # (layer, status) -> calls
        self.task_status = OK     # worst outcome of the current task's calls
        self._tracebacks = 0

    def call(self, fn, *args, name: str | None = None, units: int = 1, **kwargs):
        """Return ``fn(*args, **kwargs)``, or None if it refused or crashed.

        ``name`` defaults to the function's name; a suffix in brackets
        (``birkhoff_average[smooth]``) tells variants of one call apart.
        """
        name = name or fn.__name__
        layer = LAYER_OF[name.split("[")[0]]
        status = OK
        start = time.perf_counter() if self.traced else 0.0
        try:
            result = fn(*args, **kwargs)
        except self.refusal_type:
            status, result = REFUSED, None
        except Exception:  # the benchmark must keep running and count the crash
            status, result = FAILED, None
            self._report_crash(name)
        if self.traced:
            self.spans.append((name, layer, start, time.perf_counter(),
                               self._task_span, self.task, status, units))
        self._count(layer, status)
        return result

    def span(self, name: str, layer: str, start: float, end: float, status: str = OK) -> None:
        """Record a call timed by the caller itself (a child process)."""
        if self.traced:
            self.spans.append((name, layer, start, end, self._task_span, self.task, status, 1))
        self._count(layer, status)

    def begin_task(self, task) -> float:
        self.task = task
        self.task_status = OK
        if self.traced:
            self._task_span = len(self.spans)
            self.spans.append(None)  # filled in by end_task
        return time.perf_counter()

    def end_task(self, start: float, end: float, status: str) -> None:
        """Close the task span once its outputs have been checked."""
        if self.traced:
            self.spans[self._task_span] = ("task", "task", start, end, -1, self.task, status, 1)
            self._task_span = -1

    def _count(self, layer: str, status: str) -> None:
        self.counts[layer, status] += 1
        if status == FAILED or (status == REFUSED and self.task_status == OK):
            self.task_status = status

    def _report_crash(self, name: str) -> None:
        if self._tracebacks < _MAX_TRACEBACKS:
            self._tracebacks += 1
            print(f"crash in {name} (task {self.task}):", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)


def self_times(spans: list[tuple]) -> list[float]:
    """Duration of each span minus the part of it covered by its children."""
    children = defaultdict(list)
    for i, sp in enumerate(spans):
        if sp[4] >= 0:
            children[sp[4]].append((sp[2], sp[3]))
    out = []
    for i, sp in enumerate(spans):
        covered, reach = 0.0, sp[2]
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, reach), min(hi, sp[3])
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(sp[3] - sp[2] - covered)
    return out
