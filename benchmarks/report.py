"""Metric names and units, the environment block, and the traced run's report."""

from __future__ import annotations

import hashlib
import json
import os
import platform
import statistics
import subprocess
from importlib import metadata
from pathlib import Path

import numpy as np

from gauge import REF_MS, SETUP_REF_S
from spans import FAILED, LAYERS, REFUSED, self_times
from workloads import CLI_SUBCOMMANDS

# The metric names and units of both kinds of run are the ones BENCHMARK.json
# declares.  failed_frac and refused_frac are printed on the summary line and
# reported by --trace 1 as run.*: they are 0 on most runs, and a share of a
# zero median cannot bound a regression.
SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
END_TO_END = tuple((m["name"], m["unit"]) for m in SPEC["end_to_end"])
PER_LAYER = tuple((m["name"], m["unit"]) for m in SPEC["per_layer"])

CLI_SUBS = CLI_SUBCOMMANDS[:-1]  # verify-all belongs to the acceptance layer


def environment(args, root: Path, src: Path) -> dict:
    """Versions, the extended-precision format, CPUs and the code measured."""
    fi = np.finfo(np.longdouble)
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": metadata.version("scipy"), "machine": platform.machine(),
            "longdouble_eps": float(fi.eps), "longdouble_mantissa_bits": int(fi.nmant) + 1,
            "nproc": os.cpu_count(), "git_sha": git_sha(root), "src_sha256": digest.hexdigest(),
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace}


def git_sha(root: Path) -> str:
    """HEAD of the git checkout at ``root``, or "unavailable" if it is none.

    Git is not asked to search the directories above ``root``.
    """
    if not (root / ".git").exists():
        return "unavailable"
    try:
        proc = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return proc.stdout.strip() if proc.returncode == 0 else "unavailable"


def summary_line(workload: str, e: dict) -> str:
    n = e["samples"]
    return (f"{workload}: tasks_per_s {e['tasks_per_s']:.4g} 1/s | task_p50_ms "
            f"{e['task_p50_ms']:.4g} ms | task_tail_ms {e['task_tail_ms']:.4g} ms "
            f"(p{e['tail_pct']:g} of {n} tasks) | failed_frac {e['failed_frac']:.4g} "
            f"({round(e['failed_frac'] * n)} of {n}) | refused_frac {e['refused_frac']:.4g} "
            f"({round(e['refused_frac'] * n)} of {n}) | setup_s {e['setup_s']:.4g} s | "
            f"peak_rss_mb {e['peak_rss_mb']:.4g} MB | times at reference speed: reference "
            f"{e['ref_ms']:.4g} ms here, {REF_MS:g} ms nominal; set-up reference "
            f"{e['setup_ref_s']:.4g} s here, {SETUP_REF_S:g} s nominal")


def per_layer(e2e, untraced, traced_pass, traced, table_caller, stats, rows, facts,
              import_s) -> tuple[dict, dict]:
    """Every per-layer metric of the traced run, with its unit.

    ``<layer>.*`` counts come from the workload's own traced tasks.  The
    rates and error figures come from the workload's calls where it makes
    them, otherwise from the baseline-table calls, which make every one.
    """
    spans = traced.spans
    calls = [s for s in spans if s[1] != "task"]
    table_calls = table_caller.spans
    task_time = traced_pass["busy"]
    m = {}
    for layer in LAYERS:
        busy = sum(s[3] - s[2] for s in calls if s[1] == layer)
        m[f"{layer}.calls"] = sum(1 for s in calls if s[1] == layer)
        m[f"{layer}.busy_ms"] = busy * 1e3
        m[f"{layer}.share"] = busy / task_time
        m[f"{layer}.failed"] = traced.counts[layer, FAILED] + traced_pass["miss_layers"][layer]

    def first(select):
        for source in (calls, table_calls):
            chosen = [s for s in source if select(s)]
            if chosen:
                return chosen
        raise KeyError("no call made for a per-layer rate")

    def per_unit(select, scale):
        chosen = first(select)
        return scale * sum(s[3] - s[2] for s in chosen) / sum(s[7] for s in chosen)

    def p50_ms(name):
        return statistics.median(s[3] - s[2] for s in first(lambda s: s[0] == name)) * 1e3

    m["hitting.us_per_loop"] = per_unit(lambda s: s[0] == "generate_hitting_sequence", 1e6)
    m["flow.poincare_us_per_step"] = per_unit(lambda s: s[0] == "poincare", 1e6)
    m["params.derive_us"] = per_unit(lambda s: s[0] == "derive_constants", 1e6)
    m["diagnostics.refused"] = traced.counts["diagnostics", REFUSED]
    m["diagnostics.estimate_err_max"] = stats.maxima.get("estimate_err", facts["estimate_err"])
    m["diagnostics.lemma2_err_max_log10"] = stats.maxima.get("lemma2_err_log10",
                                                             facts["lemma2_err_log10"])
    m["adjusted.us_per_loop_n12"] = per_unit(
        lambda s: s[0] == "adjusted_sequence" and s[7] < 100, 1e6)
    m["adjusted.us_per_loop_n1000"] = per_unit(
        lambda s: s[0] == "adjusted_sequence" and s[7] >= 500, 1e6)
    verdicts = stats.counts.get("verdicts", 0)
    m["conjugacy.verdict_true_frac"] = (stats.counts.get("verdict_true", 0) / verdicts
                                        if verdicts else facts["verdict_true_frac"])
    m["birkhoff.piecewise_us_per_leg"] = per_unit(
        lambda s: s[0] == "birkhoff_average[piecewise_constant]", 1e6)
    m["birkhoff.smooth_ms_per_leg"] = per_unit(lambda s: s[0] == "birkhoff_average[smooth]", 1e3)
    m["cli.import_s"] = import_s
    for sub in CLI_SUBS:
        m[f"cli.{sub}_ms"] = p50_ms(sub)
    files = stats.counts.get("files_written", 0)
    m["cli.bytes_per_call"] = (stats.counts["bytes_written"] / files if files
                               else facts["bytes_written"] / len(CLI_SUBS))
    m["cli.files_changed"] = facts["cli_files_changed"]
    m["acceptance.verify_all_ms"] = p50_ms("verify-all")
    m["acceptance.run_all_s"] = p50_ms("run_all") / 1e3
    for k in range(9):
        m[f"acceptance.criterion{k}_s"] = facts[f"acceptance.criterion{k}_s"]

    selfs = self_times(spans)
    # the traced pass repeated exactly the untraced pass's tasks
    m["trace.overhead_frac"] = task_time / untraced["busy"] - 1
    m["trace.glue_share"] = sum(t for s, t in zip(spans, selfs) if s[1] == "task") / task_time
    m["trace.spans"] = len(spans)
    m["run.failed_frac"] = e2e["failed_frac"]
    m["run.refused_frac"] = e2e["refused_frac"]
    m["run.tail_pct"] = e2e["tail_pct"]
    m["run.samples"] = e2e["samples"]
    m.update(rows)

    units = dict(PER_LAYER)
    if set(m) != set(units):
        raise RuntimeError(f"per-layer metrics out of step: {sorted(set(m) ^ set(units))}")
    return {name: float(m[name]) for name in units}, units


def write_trace(path: Path, env: dict, spans: list, table_spans: list, metrics: dict,
                facts: dict, misses: list) -> None:
    """Write the spans, the table's spans and the run's facts as one JSON file."""
    doc = {"env": env, "metrics": metrics, "facts": facts, "misses": misses[:100],
           "span_fields": ["name", "layer", "start", "end", "parent", "task", "status", "units"],
           "spans": spans, "table_spans": table_spans,
           "self_s": self_times(spans)}
    path.write_text(json.dumps(doc))
