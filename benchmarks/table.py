"""The ROADMAP baseline table, re-measured as rows of the traced run.

Each row times one call on the canonical inputs of ``bykov.acceptance``
and keeps the best of ``REPEATS`` runs, as the table was taken.  The
calls go through a traced :class:`spans.Caller`, so a per-layer rate
that a workload's own calls cannot give (the return map in ``sweep``, say)
is taken from these spans instead.  The rows also record sha256 of each
CLI output file on the README's example config and compare it with the
one recorded in ``cli_digests.json``.
"""

from __future__ import annotations

import hashlib
import json
import time
from pathlib import Path

import bykov as B
from bykov.acceptance import CANONICAL_PARAMS, MATCHED_PARAMS, SEED, run_all

import oracles as O
from workloads import CLI_FILES, layer_of_sub, run_cli

HERE = Path(__file__).resolve().parent
REPEATS = 5
COLD_REPEATS = 3
DERIVE_BATCH = 200

# The config of the README's "Command line" section.
README_CONFIG = {
    "params": {"C1": 2, "E1": 1, "omega1": 1, "C2": 3, "E2": 1.5, "omega2": 2, "a": 0.5},
    "params_g": {"C1": 4, "E1": 2, "omega1": 2.3333333333333335,
                 "C2": 6, "E2": 3, "omega2": 1, "a": 0.25},
    "seed": {"theta0": 1.0, "z0": 0.1},
    "n_pairs": 12,
}


def _best(c, repeats: int, fn, *args, **kwargs):
    """Smallest wall time of ``repeats`` calls, and the last result."""
    best, result = float("inf"), None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = c.call(fn, *args, **kwargs)
        best = min(best, time.perf_counter() - t0)
    return best, result


def measure(c, root: Path, out: Path, env: dict) -> tuple[dict, dict, list]:
    """Run every row; return the row metrics, facts for the report, and misses."""
    p, q = CANONICAL_PARAMS, SEED
    rows, facts, miss = {}, {}, []
    c.task = "table"
    for n in (10, 100, 1000):
        rows[f"table.generate_n{n}_ms"] = _best(
            c, REPEATS, B.generate_hitting_sequence, q, p, n, units=n)[0] * 1e3

    per_call = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        for _ in range(DERIVE_BATCH):
            c.call(B.derive_constants, p)
        per_call.append((time.perf_counter() - t0) / DERIVE_BATCH)
    rows["table.derive_constants_us"] = min(per_call) * 1e6

    d = B.derive_constants(p)
    h12 = B.generate_hitting_sequence(q, p, 12)
    secs, lem = _best(c, REPEATS, B.lemma_diagnostics, h12, d)
    rows["table.lemma_n12_ms"] = secs * 1e3
    facts["lemma2_err_log10"] = O.log10_max_abs(lem.lemma2)
    rows["table.adjusted_n12_ms"] = _best(c, REPEATS, B.adjusted_sequence, h12, d, units=12)[0] * 1e3
    secs, est = _best(c, REPEATS, B.estimate_invariants, h12)
    rows["table.estimate_n12_ms"] = secs * 1e3
    facts["estimate_err"] = O.rel_dev(est.as_array(), B.invariant_tuple(p).as_array())
    secs, rep = _best(c, REPEATS, B.verify_conjugacy, q, p, MATCHED_PARAMS, n_pairs=10)
    rows["table.conjugacy_10pairs_ms"] = secs * 1e3
    facts["verdict_true_frac"] = float(rep.verdict)
    if not rep.verdict:
        miss.append(("conjugacy", "canonical matched replay refused"))
    piecewise = B.Observable("piecewise_constant", 0.0, 1.0)
    smooth = B.Observable("smooth", 0.0, 1.0, m=2.0)
    rows["table.birkhoff_piecewise_24_ms"] = _best(
        c, REPEATS, B.birkhoff_average, q, p, piecewise, 24,
        name="birkhoff_average[piecewise_constant]", units=24)[0] * 1e3
    rows["table.birkhoff_smooth_16_ms"] = _best(
        c, REPEATS, B.birkhoff_average, q, p, smooth, 16,
        name="birkhoff_average[smooth]", units=16)[0] * 1e3

    # rates no ROADMAP row gives: long adjusted grids and the return map
    h1000 = B.generate_hitting_sequence(q, p, 1000)
    c.call(B.adjusted_sequence, h1000, d, units=1000)
    point = c.call(B.psi21, q, p)
    for _ in range(1000):
        point, _ = c.call(B.poincare, point, p)
    c.call(B.sojourn_fractions, h1000, 2001)

    run_all()  # the first call imports SciPy for the ODE oracle
    secs, results = _best(c, REPEATS, run_all)
    rows["table.run_all_warm_s"] = secs
    for res in results or []:
        facts[f"acceptance.criterion{res.number}_s"] = res.seconds
        if not res.passed:
            miss.append(("acceptance", f"criterion {res.number} failed: {res.detail}"))

    cold = []
    for _ in range(COLD_REPEATS):
        code, stdout, start, end = run_cli(root, env, ["verify-all"], out / "table-verify")
        c.span("verify-all", layer_of_sub("verify-all"), start, end)
        cold.append(end - start)
        if code != 0:
            miss.append(("acceptance", f"verify-all exited {code}"))
    rows["table.verify_all_cold_s"] = min(cold)

    (facts["cli_digests"], facts["bytes_written"], facts["cli_files_changed"],
     digest_miss) = readme_digests(c, root, out, env)
    return rows, facts, miss + digest_miss


def readme_digests(c, root: Path, out: Path, env: dict) -> tuple[dict, int, int, list]:
    """sha256 of each output file of the README config, their byte count,
    how many differ from the recorded digests, and the misses.

    A file whose digest differs from the one recorded in
    ``cli_digests.json`` is a miss of the ``cli`` layer: the CLI's bytes
    changed.  A change that means to alter them records the new digests.
    """
    out.mkdir(parents=True, exist_ok=True)
    cfg = out / "readme-config.json"
    cfg.write_text(json.dumps(README_CONFIG, indent=2) + "\n")
    expected = json.loads((HERE / "cli_digests.json").read_text())
    run_dir = out / "readme-run"
    digests, size, changed, miss = {}, 0, 0, []
    for sub, name in CLI_FILES.items():
        code, _, start, end = run_cli(root, env, [sub, "--config", str(cfg)], run_dir)
        c.span(sub, "cli", start, end)
        if code != 0:
            miss.append(("cli", f"{sub} exited {code} on the README config"))
        data = (run_dir / name).read_bytes()
        digests[name] = hashlib.sha256(data).hexdigest()
        size += len(data)
        if digests[name] != expected[name]:
            changed += 1
            miss.append(("cli", f"{name} of the README config differs from cli_digests.json"))
    return digests, size, changed, miss
