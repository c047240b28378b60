"""Config-driven experiment harness: JSON in, CSV/JSON out.

Subcommands
-----------
simulate      hitting-time sequence              -> hitting.csv
diagnostics   time-identity and ratio series     -> diagnostics.csv
birkhoff      parity-split time averages         -> birkhoff.csv (exit 2 if
              the two-limit certificate fails)
adjusted      measured vs adjusted times         -> adjusted.csv
conjugacy     replay on the companion system     -> conjugacy.json (exit 2
              on a false verdict)
verify-all    the full acceptance table          -> stdout

Exit codes: 0 success, 2 a verdict came back false, 1 any error.  Output
files are written atomically (temp file + rename) with LF endings and 17
significant digits, so identical configs produce identical bytes.  Set
``BYKOV_LOG=DEBUG`` (or any standard level name) for progress logging.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import math
import os
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable, Sequence

import numpy as np

from .adjusted import adjusted_sequence
from .birkhoff import Observable, birkhoff_average, historic_certificate
from .conjugacy import verify_conjugacy
from .diagnostics import corollary_ratios, lemma_diagnostics
from .errors import BykovError, ConstraintViolation, ParseError
from .flow import SectionPoint
from .hitting import generate_hitting_sequence
from .params import PerturbationSpec, SystemParams, derive_constants, validate_params

__all__ = ["ExperimentConfig", "parse_config", "run_experiment", "emit_csv", "main"]

log = logging.getLogger("bykov")

_PARAM_KEYS = ("C1", "E1", "omega1", "C2", "E2", "omega2", "a")


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description; every precondition checked eagerly."""

    params: SystemParams
    params_g: SystemParams | None
    theta0: float
    z0: float
    n_pairs: int
    observable: Observable
    tol: float | None


def _number(obj: dict, key: str, path: str) -> float:
    if key not in obj:
        raise ParseError("missing required key", f"{path}.{key}")
    val = obj[key]
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise ParseError(f"expected a number, got {type(val).__name__}", f"{path}.{key}")
    try:
        num = float(val)
    except OverflowError:  # an integer literal beyond the float range
        num = math.inf
    if not math.isfinite(num):
        raise ParseError("value must be finite", f"{path}.{key}")
    return num


def _check_tol(tol: float) -> float:
    """The tolerance of a verdict, from the config or from ``--tol``."""
    if not (math.isfinite(tol) and tol > 0):
        raise ConstraintViolation(f"tol must be positive and finite, got {tol}")
    return tol


def _system_params(obj: Any, path: str) -> SystemParams:
    if not isinstance(obj, dict):
        raise ParseError("expected an object", path)
    kwargs = {key: _number(obj, key, path) for key in _PARAM_KEYS}
    pert = None
    if "perturbation" in obj:
        sub = obj["perturbation"]
        if not isinstance(sub, dict):
            raise ParseError("expected an object", f"{path}.perturbation")
        pert = PerturbationSpec(
            c1=_number(sub, "c1", f"{path}.perturbation"),
            c2=_number(sub, "c2", f"{path}.perturbation"),
            eps=_number(sub, "eps", f"{path}.perturbation"),
        )
    return validate_params(SystemParams(**kwargs, perturbation=pert))


def parse_config(text: bytes | str) -> ExperimentConfig:
    """Parse and eagerly validate a JSON experiment config.

    Structural problems raise :class:`~bykov.errors.ParseError` carrying
    the JSON path of the first offending element (for example
    ``$.params.a``); admissibility problems (a parameter outside the
    model inequalities, a seed off the section) raise
    :class:`~bykov.errors.ConstraintViolation` immediately rather than
    at first use.
    """
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as e:
            raise ParseError(f"config is not UTF-8: {e}", "$") from e
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"invalid JSON: {e.msg}", f"$ (line {e.lineno})") from e
    if not isinstance(doc, dict):
        raise ParseError("top level must be an object", "$")
    if "params" not in doc:
        raise ParseError("missing required key", "$.params")

    known = {"params", "params_g", "seed", "n_pairs", "observable", "tol"}
    for key in doc:
        if key not in known:
            log.warning("ignoring unknown config key %r", key)

    params = _system_params(doc["params"], "$.params")
    params_g = (
        _system_params(doc["params_g"], "$.params_g") if "params_g" in doc else None
    )

    theta0, z0 = 1.0, 0.1
    if "seed" in doc:
        seed = doc["seed"]
        if not isinstance(seed, dict):
            raise ParseError("expected an object", "$.seed")
        theta0 = _number(seed, "theta0", "$.seed")
        z0 = _number(seed, "z0", "$.seed")
        if not (0.0 < z0 < 1.0):
            raise ConstraintViolation(
                f"seed height z0 must lie strictly between 0 and 1, got {z0}"
            )

    n_pairs = 12
    if "n_pairs" in doc:
        val = doc["n_pairs"]
        if isinstance(val, bool) or not isinstance(val, int):
            raise ParseError("expected an integer", "$.n_pairs")
        if val < 1:
            raise ConstraintViolation(f"n_pairs must be at least 1, got {val}")
        n_pairs = val

    observable = Observable(kind="piecewise_constant", g_sigma1=0.0, g_sigma2=1.0)
    if "observable" in doc:
        sub = doc["observable"]
        if not isinstance(sub, dict):
            raise ParseError("expected an object", "$.observable")
        kind = sub.get("kind")
        if not isinstance(kind, str):
            raise ParseError("expected a string 'kind'", "$.observable.kind")
        kwargs: dict[str, float] = {
            "g_sigma1": _number(sub, "g_sigma1", "$.observable"),
            "g_sigma2": _number(sub, "g_sigma2", "$.observable"),
        }
        if "m" in sub:
            kwargs["m"] = _number(sub, "m", "$.observable")
        if "g_boundary" in sub:
            kwargs["g_boundary"] = _number(sub, "g_boundary", "$.observable")
        observable = Observable(kind=kind, **kwargs)

    tol = _check_tol(_number(doc, "tol", "$")) if "tol" in doc else None

    return ExperimentConfig(
        params=params,
        params_g=params_g,
        theta0=theta0,
        z0=z0,
        n_pairs=n_pairs,
        observable=observable,
        tol=tol,
    )


def _cell(value: Any) -> str:
    """Render one CSV cell: 17 significant digits, blanks for undefined."""
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    val = float(value)
    if math.isnan(val):
        return ""
    return format(val, ".17g")


def _atomic_write(path: Path, write_body) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "w", newline="") as f:
            write_body(f)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def emit_csv(series: Iterable[Sequence[Any]], path, *, header: Sequence[str]) -> None:
    """Write rows as RFC-4180 CSV: header line, LF endings, 17 digits.

    Cells pass through :func:`_cell`, so floats round-trip bit-exactly
    and NaN/None render as empty fields.  The write is atomic.
    """
    rows = [[_cell(v) for v in row] for row in series]

    def body(f):
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(list(header))
        writer.writerows(rows)

    _atomic_write(Path(path), body)


def _series_cell(arr: np.ndarray | None, i: int):
    if arr is None or i >= len(arr):
        return None
    return arr[i]


def _run_simulate(cfg: ExperimentConfig, seed: SectionPoint, out: Path, n: int) -> int:
    h = generate_hitting_sequence(seed, cfg.params, n)
    rows = [
        (k, t, "Out1" if k % 2 else "Out2", theta, log_coord)
        for k, (t, theta, log_coord) in enumerate(zip(h.times, h.theta, h.log_coord))
    ]
    emit_csv(rows, out / "hitting.csv",
             header=["index", "time", "chart", "theta_lifted", "log_coord"])
    log.info("wrote %s (%d crossings)", out / "hitting.csv", len(rows))
    return 0


def _run_diagnostics(cfg: ExperimentConfig, seed: SectionPoint, out: Path, n: int) -> int:
    h = generate_hitting_sequence(seed, cfg.params, n)
    d = derive_constants(cfg.params)
    lem = lemma_diagnostics(h, d)
    rat = corollary_ratios(h, cfg.params).ratios
    rows = []
    for i in range(n + 1):
        rows.append(
            (
                i,
                _series_cell(lem.lemma1, i),
                _series_cell(lem.lemma2, i),
                _series_cell(lem.lemma3, i),
                _series_cell(lem.residuals, i),
                _series_cell(rat[0], i),
                _series_cell(rat[1], i),
                _series_cell(rat[2], i),
                _series_cell(rat[3], i),
            )
        )
    emit_csv(rows, out / "diagnostics.csv",
             header=["i", "lemma1", "lemma2", "lemma3", "residual",
                     "ratio1", "ratio2", "ratio3", "ratio4"])
    log.info("wrote %s", out / "diagnostics.csv")
    return 0


def _run_birkhoff(cfg: ExperimentConfig, seed: SectionPoint, out: Path, n: int,
                  tol: float | None) -> int:
    series = birkhoff_average(seed, cfg.params, cfg.observable, upto_index=2 * n)
    rows = []
    by_index = {}
    for avg, t, k in zip(series.even_averages, series.even_times, series.even_indices):
        by_index[int(k)] = ("even", t, avg, series.predicted_even)
    for avg, t, k in zip(series.odd_averages, series.odd_times, series.odd_indices):
        by_index[int(k)] = ("odd", t, avg, series.predicted_odd)
    for k in sorted(by_index):
        parity, t, avg, pred = by_index[k]
        rows.append((parity, k, t, avg, pred, abs(avg - pred)))
    emit_csv(rows, out / "birkhoff.csv",
             header=["parity", "index", "time", "average", "predicted", "abs_error"])
    cert = historic_certificate(series, tol=tol if tol is not None else 1e-3)
    log.info("wrote %s; certificate %s (gap %g)", out / "birkhoff.csv",
             cert.verdict, cert.gap)
    print(f"historic certificate: {cert.verdict} (predicted gap {cert.gap:.6g})")
    return 0 if cert.verdict else 2


def _run_adjusted(cfg: ExperimentConfig, seed: SectionPoint, out: Path, n: int) -> int:
    h = generate_hitting_sequence(seed, cfg.params, n)
    d = derive_constants(cfg.params)
    adj = adjusted_sequence(h, d)
    T = h.sojourns_V1[:n] + h.sojourns_V2
    rows = []
    for i in range(n):
        t_even = h.times[2 * i]
        t_odd = h.times[2 * i + 1]
        rows.append(
            (
                i,
                T[i],
                adj.T_seq[i],
                t_even,
                adj.t_even[i],
                t_odd,
                adj.t_odd[i],
                t_even - adj.t_even[i],
            )
        )
    emit_csv(rows, out / "adjusted.csv",
             header=["i", "T", "Ttil", "t_even", "t_til_even",
                     "t_odd", "t_til_odd", "diff"])
    log.info("wrote %s (T0=%s, tail bound %g)", out / "adjusted.csv",
             float(adj.T0), adj.residual_tail_bound)
    return 0


def _run_conjugacy(cfg: ExperimentConfig, seed: SectionPoint, out: Path, n: int,
                   tol: float | None) -> int:
    if cfg.params_g is None:
        raise ConstraintViolation(
            "the conjugacy subcommand needs a second system: add params_g "
            "to the config"
        )
    report = verify_conjugacy(
        seed, cfg.params, cfg.params_g,
        n_pairs=n, tol=tol if tol is not None else 1e-8, strict=False,
    )
    payload = {
        "verdict": report.verdict,
        "max_dev": report.max_dev,
        "deviations": [float(x) for x in report.time_deviations],
        "image": {
            "z0": float(np.exp(report.image_point.z0_log)),
            "rho1": float(np.exp(report.image_point.rho1_log)),
            "theta0": float(report.image_point.theta0),
        },
    }
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    _atomic_write(out / "conjugacy.json", lambda f: f.write(text))
    log.info("wrote %s (verdict %s)", out / "conjugacy.json", report.verdict)
    print(f"conjugacy verdict: {report.verdict} (max_dev {report.max_dev:.3g})")
    return 0 if report.verdict else 2


def _run_verify_all() -> int:
    from .acceptance import run_all

    results = run_all()
    for res in results:
        print(res.line())
    n_fail = sum(not r.passed for r in results)
    print(f"{len(results) - n_fail}/{len(results)} checks passed")
    return 0 if n_fail == 0 else 2


def run_experiment(
    cfg: ExperimentConfig | None,
    subcommand: str,
    out_dir="out",
    pairs: int | None = None,
    tol: float | None = None,
) -> int:
    """Dispatch one subcommand; returns the process exit code."""
    if subcommand == "verify-all":
        return _run_verify_all()
    if cfg is None:
        raise ConstraintViolation(f"subcommand {subcommand!r} needs a config file")
    out = Path(out_dir)
    n = pairs if pairs is not None else cfg.n_pairs
    if n < 1:
        raise ConstraintViolation(f"pair count must be at least 1, got {n}")
    tol = cfg.tol if tol is None else _check_tol(tol)
    seed = SectionPoint(
        chart="Out2", theta_lifted=cfg.theta0, log_coord=float(np.log(cfg.z0))
    )
    if subcommand == "simulate":
        return _run_simulate(cfg, seed, out, n)
    if subcommand == "diagnostics":
        return _run_diagnostics(cfg, seed, out, n)
    if subcommand == "birkhoff":
        return _run_birkhoff(cfg, seed, out, n, tol)
    if subcommand == "adjusted":
        return _run_adjusted(cfg, seed, out, n)
    if subcommand == "conjugacy":
        return _run_conjugacy(cfg, seed, out, n, tol)
    raise ConstraintViolation(f"unknown subcommand {subcommand!r}")


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="bykov",
        description="hitting-time experiments on the two-saddle-focus model",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, needs_config in [
        ("simulate", True),
        ("diagnostics", True),
        ("birkhoff", True),
        ("adjusted", True),
        ("conjugacy", True),
        ("verify-all", False),
    ]:
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=needs_config, help="JSON config path")
        sp.add_argument("--out", default="out", help="output directory")
        sp.add_argument("--pairs", type=int, default=None, help="override loop count")
        sp.add_argument("--tol", type=float, default=None, help="override tolerance")
    args = parser.parse_args(argv)

    logging.basicConfig(level=os.environ.get("BYKOV_LOG", "WARNING").upper())

    try:
        cfg = None
        if args.config is not None:
            cfg = parse_config(Path(args.config).read_bytes())
        return run_experiment(
            cfg, args.subcommand, out_dir=args.out, pairs=args.pairs, tol=args.tol
        )
    except BykovError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
