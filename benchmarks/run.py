"""Benchmark of the bykov package: one workload, one seed, one run.

    python3 benchmarks/run.py --workload sweep --seed 1 --seconds 20 --trace 0

Run from anywhere; the package is imported from ``src/`` beside this
directory through ``PYTHONPATH``, as the test suite does, never from an
installed copy.  One caller runs the workload's tasks in a closed loop
(each task starts when the previous one has been checked) until the
tasks have taken ``--seconds`` of wall time, and checks every task's
output against an oracle.  The last line of standard output is the
result as JSON.

The tasks run in ``STRETCHES`` stretches, and a fresh process times the
set-up before each one.  ``--trace 0`` reports the end-to-end metrics.
``--trace 1`` gives each stretch half the time and repeats its tasks
traced, re-times the ROADMAP baseline table, and reports the per-layer
metrics; the spans go to ``benchmarks/out/``.  ``--profile`` adds a separate
profiled pass after the measured ones and writes its cProfile dump there;
no metric reads it.

See ``benchmarks/README.md`` for the workloads, metrics and oracles.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

from spans import FAILED, REFUSED, Caller

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("sweep", "long_orbit", "smooth_average", "cli_cold")
# The run is cut into this many stretches, each after a set-up probe, so
# the probes sample the machine across the whole run.
STRETCHES = 9
# The tail percentile of each workload is fixed, so that a faster program
# is compared at the same percentile.  Each leaves at least MIN_BEYOND
# tasks above it even in the slowest runs seen when the benchmark was
# defined (2 CPUs, --seconds 25, where the machine's speed swung by 40%),
# with room to spare; a run with too few tasks steps down TAIL_LADDER.
# sweep allows p99, but on its 7 ms tasks brief machine stalls moved p99
# by 23% between runs.  On cli_cold the tail lies among the verify-all
# calls (see workloads.CLI_CYCLE).
TAIL_PCT = {"sweep": 95.0, "long_orbit": 75.0, "smooth_average": 80.0, "cli_cold": 90.0}
TAIL_LADDER = (99.0, 95.0, 90.0, 85.0, 80.0, 75.0, 50.0)
MIN_BEYOND = 10


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--profile", action="store_true",
                    help="add a profiled pass and write its cProfile dump to benchmarks/out/")
    ap.add_argument("--setup-probe", type=float, default=None, help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not (SRC / "bykov" / "__init__.py").is_file():
        print(f"error: no bykov package under {SRC}", file=sys.stderr)
        return 2
    if os.environ.get("PYTHONPATH") != str(SRC):
        env = dict(os.environ, PYTHONPATH=str(SRC))
        os.execve(sys.executable, [sys.executable, str(Path(__file__).resolve()), *argv], env)
    if args.setup_probe is not None:
        return setup_probe(args)
    return run(args)


def inputs_for(workload, seed: int) -> list:
    import numpy as np

    rng = np.random.default_rng([seed, WORKLOADS.index(workload.name)])
    return workload.build(rng)


def setup_probe(args) -> int:
    """Child process: import the package and build the inputs, then report."""
    import bykov  # noqa: F401  (the import is what is being timed)

    import_s = time.time() - args.setup_probe
    import workloads

    inputs_for(workloads.make(args.workload, ROOT, OUT, {}), args.seed)
    print(json.dumps({"import_s": import_s, "ready_s": time.time() - args.setup_probe}))
    return 0


def measure_setup(args) -> dict:
    """Import and set-up time of one fresh process, and the set-up
    reference's time right after it."""
    import gauge

    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--setup-probe", repr(time.time())]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    probe = json.loads(proc.stdout.strip().splitlines()[-1])
    probe["ref_s"] = gauge.setup_reference_s(os.environ)
    return probe


def run_pass(wl, inputs, caller, stats, misses: list, first: int = 0,
             seconds: float = math.inf, count: float = math.inf, gauge=None) -> dict:
    """Run tasks back to back from input ``first`` until they have taken
    ``seconds`` or ``count`` tasks have run; tally their outcomes.  A
    ``gauge`` runs its reference between the tasks."""
    latencies, failed, refused, busy, i = [], 0, 0, 0.0, first
    miss_layers = Counter()
    while busy < seconds and i - first < count:
        x = inputs[i % len(inputs)]
        start = caller.begin_task(i)
        out = wl.run(caller, x)
        end = time.perf_counter()
        miss = wl.check(x, out, stats)
        status = FAILED if miss else caller.task_status
        caller.end_task(start, end, status)
        misses.extend((i, layer, msg) for layer, msg in miss)
        miss_layers.update(layer for layer, _ in miss)
        failed += status == FAILED
        refused += status == REFUSED
        latencies.append(end - start)
        busy += end - start
        i += 1
        if gauge is not None:
            gauge.after_task(end - start)
    return {"latencies": latencies, "failed": failed, "refused": refused, "busy": busy,
            "miss_layers": miss_layers, "next": i}


def merge(a: dict, b: dict) -> dict:
    """Tallies of two consecutive stretches of one pass."""
    return {"latencies": a["latencies"] + b["latencies"], "failed": a["failed"] + b["failed"],
            "refused": a["refused"] + b["refused"], "busy": a["busy"] + b["busy"],
            "miss_layers": a["miss_layers"] + b["miss_layers"], "next": b["next"]}


def tail(latencies: list, top: float) -> tuple[float, float]:
    """Latency at percentile ``top``, or lower if that leaves too few tasks above."""
    lat = sorted(latencies)
    n = len(lat)
    candidates = [top] + [p for p in TAIL_LADDER if p < top]
    for pct in candidates:
        rank = max(1, math.ceil(pct * n / 100))  # nearest rank
        if n - rank >= MIN_BEYOND or pct == candidates[-1]:
            return pct, lat[rank - 1]


def end_to_end(p: dict, workload: str, scales: list) -> dict:
    """Throughput and latencies of the pass, each task's time multiplied by its scale."""
    n = len(p["latencies"])
    lat = [t * f for t, f in zip(p["latencies"], scales, strict=True)]
    pct, t = tail(lat, TAIL_PCT[workload])
    return {"tasks_per_s": n / sum(lat), "task_p50_ms": statistics.median(lat) * 1e3,
            "task_tail_ms": t * 1e3, "tail_pct": pct, "samples": n,
            "failed_frac": p["failed"] / n, "refused_frac": p["refused"] / n}


def peak_rss_mb(workload: str) -> float:
    import resource

    who = resource.RUSAGE_CHILDREN if workload == "cli_cold" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


def run(args) -> int:
    import bykov

    if Path(bykov.__file__).resolve().parent != SRC / "bykov":
        print(f"error: bykov imported from {bykov.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import gauge
    import report
    import table
    import workloads
    from bykov.errors import BykovError

    OUT.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    wl = workloads.make(args.workload, ROOT, OUT, env)
    inputs = inputs_for(wl, args.seed)
    if hasattr(wl, "prepare"):
        inputs = wl.prepare(inputs)
    warm = Caller(BykovError, traced=False)
    wl.check(inputs[0], wl.run(warm, inputs[0]), workloads.Stats())

    misses, probes = [], []
    speed = gauge.Gauge()
    plain = Caller(BykovError, traced=False)
    stats, traced = workloads.Stats(), Caller(BykovError, traced=True)
    untraced = traced_pass = None
    for _ in range(STRETCHES):
        probes.append(measure_setup(args))
        first = untraced["next"] if untraced else 0
        u = run_pass(wl, inputs, plain, workloads.Stats(), misses, first,
                     seconds=args.seconds / (1 + args.trace) / STRETCHES, gauge=speed)
        untraced = merge(untraced, u) if untraced else u
        if args.trace:
            # Each traced stretch repeats the untraced one's tasks, so the
            # machine's drift falls on both alike and their ratio is the overhead.
            t = run_pass(wl, inputs, traced, stats, misses, first, count=len(u["latencies"]))
            traced_pass = merge(traced_pass, t) if traced_pass else t
    import_s = statistics.median(p["import_s"] for p in probes)
    e2e = end_to_end(untraced, args.workload, speed.scales())
    e2e.update(setup_s=statistics.median(p["ready_s"] * gauge.SETUP_REF_S / p["ref_s"]
                                         for p in probes),
               peak_rss_mb=peak_rss_mb(args.workload), ref_ms=speed.ref_ms(),
               setup_ref_s=statistics.median(p["ref_s"] for p in probes))
    attempted, failed = len(untraced["latencies"]), untraced["failed"]

    environment = report.environment(args, ROOT, SRC)
    print("env " + json.dumps(environment, sort_keys=True))
    print(report.summary_line(args.workload, e2e))
    if args.trace == 0:
        metrics = {name: e2e[name] for name, _ in report.END_TO_END}
        units = dict(report.END_TO_END)
    else:
        table_caller = Caller(BykovError, traced=True)
        rows, facts, table_miss = table.measure(table_caller, ROOT, OUT / "table", env)
        misses.extend(("table", layer, msg) for layer, msg in table_miss)
        attempted += len(traced_pass["latencies"]) + 1
        failed += traced_pass["failed"] + bool(table_miss)
        metrics, units = report.per_layer(
            e2e, untraced, traced_pass, traced, table_caller, stats, rows, facts, import_s)
        print("cli_digests " + json.dumps(facts["cli_digests"], sort_keys=True))
        report.write_trace(OUT / f"trace-{args.workload}-{args.seed}.json", environment,
                           traced.spans, table_caller.spans, metrics, facts, misses)
    if args.profile:
        import cProfile

        profiler = cProfile.Profile()
        profiler.runcall(run_pass, wl, inputs, Caller(BykovError, traced=False),
                         workloads.Stats(), [], seconds=args.seconds)
        path = OUT / f"profile-{args.workload}-{args.seed}.pstats"
        profiler.dump_stats(path)
        print(f"cProfile dump: {path}", file=sys.stderr)
    for task, layer, msg in misses[:5]:
        print(f"oracle miss in task {task} ({layer}): {msg}", file=sys.stderr)
    result = {"correct": failed == 0 and not misses, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
