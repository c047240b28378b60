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

The first five take ``--config FILE`` (required), ``--out DIR`` and
``--pairs N``; ``birkhoff`` and ``conjugacy``, the two with a verdict,
also take ``--tol X``.  ``verify-all`` reads no config and writes no
files: it takes only ``--out``, and ignores it.

Exit codes: 0 success, 2 a verdict came back false, 1 any error, usage
errors included.  Output files are written atomically (temp file +
rename) with LF endings and 17 significant digits, so identical configs
produce identical bytes.  Set ``BYKOV_LOG=DEBUG`` (or any standard level
name) for progress logging.
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
from itertools import zip_longest
from pathlib import Path
from typing import Any, Iterable, Sequence

import numpy as np

from .adjusted import adjusted_sequence
from .birkhoff import Observable, birkhoff_average, historic_certificate
from .conjugacy import verify_conjugacy
from .diagnostics import corollary_ratios, lemma_diagnostics
from .errors import BykovError, ConstraintViolation, ParseError
from .flow import SectionPoint
from .hitting import _legs, generate_hitting_sequence
from .params import (
    PerturbationSpec, SystemParams, _check_tol, derive_constants, validate_params,
)

__all__ = ["ExperimentConfig", "parse_config", "emit_csv", "main"]

log = logging.getLogger("bykov")

_PARAMS = (("C1", "E1", "omega1", "C2", "E2", "omega2", "a"), (), ("perturbation",))

# Each JSON object of a config -> (required numbers, optional numbers, other
# keys it may hold); any further key is warned about and ignored.
_FIELDS = {
    "params": _PARAMS,
    "params_g": _PARAMS,
    "perturbation": (("c1", "c2", "eps"), (), ()),
    "seed": (("theta0", "z0"), (), ()),
    "observable": (("g_sigma1", "g_sigma2"), ("m", "g_boundary"), ("kind",)),
}
_TOP_LEVEL = ("params", "params_g", "seed", "n_pairs", "observable", "tol")

# What an absent key means; the defaults are parsed like any config.
_DEFAULTS = {
    "seed": {"theta0": 1.0, "z0": 0.1},
    "n_pairs": 12,
    "observable": {"kind": "piecewise_constant", "g_sigma1": 0.0, "g_sigma2": 1.0},
}


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


def _warn_unknown(obj: dict, path: str, known: Sequence[str]) -> None:
    for key in obj:
        if key not in known:
            log.warning("ignoring unknown config key %r", f"{path}.{key}")


def _fields(parent: dict, key: str, path: str) -> dict[str, float]:
    """The numeric fields of the object ``parent[key]``, by its row of ``_FIELDS``."""
    obj, path = parent[key], f"{path}.{key}"
    if not isinstance(obj, dict):
        raise ParseError("expected an object", path)
    required, optional, other = _FIELDS[key]
    _warn_unknown(obj, path, required + optional + other)
    present = required + tuple(k for k in optional if k in obj)
    return {k: _number(obj, k, path) for k in present}


def _system_params(doc: dict, key: str) -> SystemParams:
    fields = _fields(doc, key, "$")
    pert = None
    if "perturbation" in doc[key]:
        pert = PerturbationSpec(**_fields(doc[key], "perturbation", f"$.{key}"))
    return validate_params(SystemParams(**fields, perturbation=pert))


def parse_config(text: bytes | str) -> ExperimentConfig:
    """Parse and eagerly validate a JSON experiment config.

    Structural problems raise :class:`~bykov.errors.ParseError` carrying
    the JSON path of the first offending element (for example
    ``$.params.a``); admissibility problems (a parameter outside the
    model inequalities, a seed off the section) raise
    :class:`~bykov.errors.ConstraintViolation` immediately rather than
    at first use.  Unknown keys, at any level, are logged and ignored.
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
    _warn_unknown(doc, "$", _TOP_LEVEL)
    doc = {**_DEFAULTS, **doc}

    params = _system_params(doc, "params")
    params_g = _system_params(doc, "params_g") if "params_g" in doc else None

    seed = _fields(doc, "seed", "$")
    if not (0.0 < seed["z0"] < 1.0):
        raise ConstraintViolation(
            f"seed height z0 must lie strictly between 0 and 1, got {seed['z0']}"
        )

    n_pairs = doc["n_pairs"]
    if isinstance(n_pairs, bool) or not isinstance(n_pairs, int):
        raise ParseError("expected an integer", "$.n_pairs")
    if n_pairs < 1:
        raise ConstraintViolation(f"n_pairs must be at least 1, got {n_pairs}")

    obs = doc["observable"]
    if isinstance(obs, dict) and not isinstance(obs.get("kind"), str):
        raise ParseError("expected a string 'kind'", "$.observable.kind")
    numbers = _fields(doc, "observable", "$")
    observable = Observable(kind=obs["kind"], **numbers)

    tol = _check_tol(_number(doc, "tol", "$")) if "tol" in doc else None

    return ExperimentConfig(
        params=params,
        params_g=params_g,
        theta0=seed["theta0"],
        z0=seed["z0"],
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
        umask = os.umask(0)  # read it: mkstemp creates the file as 0600
        os.umask(umask)
        os.fchmod(fd, 0o666 & ~umask)
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


def _run_simulate(cfg: ExperimentConfig, seed: SectionPoint, out: Path, n: int,
                  tol: float | None) -> int:
    h = generate_hitting_sequence(seed, cfg.params, n)
    rows = [
        (k, t, "Out1" if k % 2 else "Out2", theta, log_coord)
        for k, (t, theta, log_coord) in enumerate(zip(h.times, h.theta, h.log_coord))
    ]
    emit_csv(rows, out / "hitting.csv",
             header=["index", "time", "chart", "theta_lifted", "log_coord"])
    log.info("wrote %s (%d crossings)", out / "hitting.csv", len(rows))
    return 0


def _run_diagnostics(cfg: ExperimentConfig, seed: SectionPoint, out: Path, n: int,
                     tol: float | None) -> int:
    h = generate_hitting_sequence(seed, cfg.params, n)
    lem = lemma_diagnostics(h, derive_constants(cfg.params))
    # n + 1 rows; a column with fewer entries is blank at its end
    rows = zip_longest(range(n + 1), lem.lemma1, lem.lemma2, lem.lemma3, lem.residuals,
                       *corollary_ratios(h, cfg.params).ratios)
    emit_csv(rows, out / "diagnostics.csv",
             header=["i", "lemma1", "lemma2", "lemma3", "residual",
                     "ratio1", "ratio2", "ratio3", "ratio4"])
    log.info("wrote %s", out / "diagnostics.csv")
    return 0


def _run_birkhoff(cfg: ExperimentConfig, seed: SectionPoint, out: Path, n: int,
                  tol: float) -> int:
    s = birkhoff_average(seed, cfg.params, cfg.observable, upto_index=2 * n)

    def parity_rows(parity, indices, times, averages, pred):
        return [(parity, k, t, avg, pred, abs(avg - pred))
                for k, t, avg in zip(indices, times, averages)]

    odd = parity_rows("odd", s.odd_indices, s.odd_times, s.odd_averages, s.predicted_odd)
    even = parity_rows("even", s.even_indices, s.even_times, s.even_averages,
                       s.predicted_even)
    # the indices run 1, 2, ..., 2n: odd and even rows alternate
    rows = [row for pair in zip(odd, even) for row in pair]
    emit_csv(rows, out / "birkhoff.csv",
             header=["parity", "index", "time", "average", "predicted", "abs_error"])
    cert = historic_certificate(s, tol=tol)
    log.info("wrote %s; certificate %s (gap %g)", out / "birkhoff.csv",
             cert.verdict, cert.gap)
    print(f"historic certificate: {cert.verdict} (predicted gap {cert.gap:.6g})")
    return 0 if cert.verdict else 2


def _run_adjusted(cfg: ExperimentConfig, seed: SectionPoint, out: Path, n: int,
                  tol: float | None) -> int:
    h = generate_hitting_sequence(seed, cfg.params, n)
    adj = adjusted_sequence(h, derive_constants(cfg.params))
    T = _legs(h)[2]
    columns = zip(T, adj.T_seq, h.times[0::2], adj.t_even, h.times[1::2], adj.t_odd)
    rows = [(i, Ti, Ttil, te, tte, to, tto, te - tte)
            for i, (Ti, Ttil, te, tte, to, tto) in enumerate(columns)]
    emit_csv(rows, out / "adjusted.csv",
             header=["i", "T", "Ttil", "t_even", "t_til_even",
                     "t_odd", "t_til_odd", "diff"])
    log.info("wrote %s (T0=%s, tail bound %g)", out / "adjusted.csv",
             float(adj.T0), adj.residual_tail_bound)
    return 0


def _run_conjugacy(cfg: ExperimentConfig, seed: SectionPoint, out: Path, n: int,
                   tol: float) -> int:
    if cfg.params_g is None:
        raise ConstraintViolation(
            "the conjugacy subcommand needs a second system: add params_g "
            "to the config"
        )
    report = verify_conjugacy(seed, cfg.params, cfg.params_g, n_pairs=n, tol=tol,
                              strict=False)
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


# name -> (runner, reads a config, default tolerance of its verdict).  A
# runner that reads a config is called as run(cfg, seed, out, n, tol); only
# a subcommand with a verdict has a default tolerance and takes --tol.
_SUBCOMMANDS = {
    "simulate": (_run_simulate, True, None),
    "diagnostics": (_run_diagnostics, True, None),
    "birkhoff": (_run_birkhoff, True, 1e-3),
    "adjusted": (_run_adjusted, True, None),
    "conjugacy": (_run_conjugacy, True, 1e-8),
    "verify-all": (_run_verify_all, False, None),
}


class _Parser(argparse.ArgumentParser):
    """Exits 1 on a usage error, as on any error: exit 2 is a false verdict."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="bykov",
        description="hitting-time experiments on the two-saddle-focus model",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (_, reads_config, tol) in _SUBCOMMANDS.items():
        sp = sub.add_parser(name)
        if not reads_config:
            sp.add_argument("--out", help="ignored: this subcommand writes no files")
            continue
        sp.add_argument("--config", required=True, help="JSON config path")
        sp.add_argument("--out", default="out", help="output directory")
        sp.add_argument("--pairs", type=int, help="override loop count")
        if tol is not None:
            sp.add_argument("--tol", type=float,
                            help=f"override the config's tol (default {tol:g})")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    logging.basicConfig(level=os.environ.get("BYKOV_LOG", "WARNING").upper())
    run, reads_config, default_tol = _SUBCOMMANDS[args.subcommand]
    try:
        if not reads_config:
            return run()
        cfg = parse_config(Path(args.config).read_bytes())
        n = cfg.n_pairs if args.pairs is None else args.pairs
        if n < 1:
            raise ConstraintViolation(f"pair count must be at least 1, got {n}")
        tol = getattr(args, "tol", None)
        tol = cfg.tol if tol is None else _check_tol(tol)
        seed = SectionPoint(
            chart="Out2", theta_lifted=cfg.theta0, log_coord=float(np.log(cfg.z0))
        )
        return run(cfg, seed, Path(args.out), n, default_tol if tol is None else tol)
    except (BykovError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
