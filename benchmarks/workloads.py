"""The four workloads: how their inputs are drawn, what a task runs, and its oracle.

Every workload draws its inputs from ``numpy.random.default_rng`` seeded
with the run's ``--seed``, before any task is timed; the package only
ever receives the drawn parameter sets, seeds and configs.  A task's
``run`` makes its calls through a :class:`spans.Caller`; its ``check``
runs afterwards, outside the timed region, and returns the oracle
misses as ``(layer, message)`` pairs.
"""

from __future__ import annotations

import csv
import json
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import bykov as B
from bykov.acceptance import ideal_closed_form_times

import oracles as O

SWEEP_LOOPS = 12
SWEEP_LEGS = 24
LONG_LOOPS = 1000
SMOOTH_LEGS = 24
CLI_LOOPS = 12
CLI_SUBCOMMANDS = ("simulate", "diagnostics", "birkhoff", "adjusted", "conjugacy", "verify-all")
# verify-all, the slowest call, runs twice per config: as 2 tasks in 7 it
# holds every cli_cold tail percentile from p75 up.
CLI_CYCLE = CLI_SUBCOMMANDS + ("verify-all",)
CLI_TIMEOUT_S = 120

POOL = {"sweep": 1024, "long_orbit": 64, "smooth_average": 512, "cli_cold": 32}


@dataclass(frozen=True)
class Orbit:
    """One drawn input: a system, an ``Out2`` seed and what the task needs with it."""

    p: B.SystemParams
    q: B.SectionPoint
    z0: float
    G: B.Observable
    partner: tuple[float, float, float] | None = None  # E1_bar, E2_bar, omega2_bar


class Stats:
    """Largest errors and outcome counts gathered by the oracles."""

    def __init__(self) -> None:
        self.maxima: dict[str, float] = {}
        self.counts: dict[str, int] = {}

    def peak(self, key: str, value: float) -> None:
        self.maxima[key] = max(self.maxima.get(key, value), float(value))

    def add(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n


# ---------------------------------------------------------------- inputs

def draw_params(rng, perturbed: bool) -> B.SystemParams:
    """An admissible parameter set: every rate ordering holds by construction."""
    E1, E2 = rng.uniform(0.5, 2.0, 2)
    d1, d2 = rng.uniform(1.2, 3.0, 2)
    w1, w2 = rng.uniform(0.5, 3.0, 2)
    pert = None
    if perturbed:
        c1, c2 = rng.uniform(0.0, 0.1, 2)
        pert = B.PerturbationSpec(c1=float(c1), c2=float(c2), eps=float(rng.uniform(0.3, 0.8)))
    return B.SystemParams(C1=float(E1 * d1), E1=float(E1), omega1=float(w1),
                          C2=float(E2 * d2), E2=float(E2), omega2=float(w2),
                          a=float(rng.uniform(0.1, 0.9)), perturbation=pert)


def draw_partner(rng, p: B.SystemParams) -> tuple[float, float, float]:
    """Free rates of a conjugate partner that ``matching_params`` must accept.

    Scaling both expansion rates by one factor keeps ``C1_bar > E1_bar``
    and ``C2_bar > E2_bar``, and ``omega2_bar`` below
    ``omega_combo / gamma1`` keeps ``omega1_bar`` positive.
    """
    k = rng.uniform(0.5, 2.0)
    gamma1 = p.C1 / p.E2
    combo = p.omega1 + gamma1 * p.omega2
    return float(k * p.E1), float(k * p.E2), float(rng.uniform(0.1, 0.9) * combo / gamma1)


def draw_orbit(rng, perturbed: bool, smooth: bool = False, partner: bool = False) -> Orbit:
    p = draw_params(rng, perturbed)
    z0 = float(rng.uniform(0.01, 0.5))
    q = B.SectionPoint("Out2", float(rng.uniform(0.0, 2 * np.pi)), float(np.log(z0)))
    g1, g2 = (float(v) for v in rng.uniform(-1.0, 1.0, 2))
    if smooth:
        G = B.Observable("smooth", g1, g2, m=float(rng.uniform(0.5, 4.0)),
                         g_boundary=g1 + float(rng.uniform(0.0, 1.0)) * (g2 - g1))
    else:
        G = B.Observable("piecewise_constant", g1, g2)
    return Orbit(p, q, z0, G, draw_partner(rng, p) if partner else None)


# ------------------------------------------------------------- shared checks

def _limits(p, G) -> tuple[float, float]:
    """Even and odd limits of the averages, longhand from the saddle indices."""
    g1, g2 = O.gammas(p)
    return ((G.g_sigma1 + g1 * G.g_sigma2) / (1 + g1),
            (g2 * G.g_sigma1 + G.g_sigma2) / (1 + g2))


def _check_average(x: Orbit, av, cert, upto: int, ref_times, miss: list) -> None:
    pe, po = _limits(x.p, x.G)
    lo, hi = sorted((x.G.g_sigma1, x.G.g_sigma2))
    got = O.by_index(av, upto)
    if O.rel_dev([av.predicted_even, av.predicted_odd], [pe, po]) > O.REL_EXACT:
        miss.append(("birkhoff", "predicted limits differ from the longhand formula"))
    if not (np.all(got >= lo - O.REL_EXACT) and np.all(got <= hi + O.REL_EXACT)):
        miss.append(("birkhoff", "an average left the value hull"))
    if ref_times is not None and O.rel_dev(
            got, O.piecewise_averages(ref_times, x.G.g_sigma1, x.G.g_sigma2, upto)) > O.REL_EXACT:
        miss.append(("birkhoff", "averages differ from the closed-form times"))
    if cert is not None and abs(cert.gap - (po - pe)) > O.REL_EXACT:
        miss.append(("birkhoff", "certificate gap differs from predicted_odd - predicted_even"))


def _loop_durations(h) -> np.ndarray:
    return h.sojourns_V1[: h.n_pairs] + h.sojourns_V2


def _check_adjusted(x: Orbit, h, adj, ref, miss: list) -> None:
    if ref is not None:
        bad = (O.rel_dev(adj.T0, ref[2]) > O.REL_EXACT
               or O.rel_dev(adj.t_even_zero, ref[0::2][: len(adj.t_even_zero)]) > O.REL_EXACT)
    else:
        # No closed form: the grid must follow the recursion with the
        # oracle's own constants from the last measured loop.
        T = _loop_durations(h)
        bad = O.rel_dev(adj.T_seq, O.adjusted_durations(T, x.p, len(adj.T_seq))) > O.REL_EXACT
    if bad:
        miss.append(("adjusted", "adjusted grid misses the exact recursion"))


def _idealized_lemma2(lem, st: Stats) -> float:
    """log10 of the worst ``|lemma2|`` of an idealized orbit, where it is 0 in theory."""
    log_err = O.log10_max_abs(lem.lemma2)
    st.peak("lemma2_err_log10", log_err)
    return log_err


# ------------------------------------------------------------------- sweep

class Sweep:
    """Each task runs one idealized orbit and one perturbed orbit.

    The two kinds cost about 3.6 and 2.2 ms here; pairing them keeps the
    task latency unimodal, so its median does not sit in the gap between
    two modes and jump with every small change of either.
    """

    name = "sweep"

    def build(self, rng) -> list:
        return [(draw_orbit(rng, perturbed=False, partner=True), draw_orbit(rng, perturbed=True))
                for _ in range(POOL[self.name])]

    def run(self, c, pair: tuple[Orbit, Orbit]) -> list:
        return [self._run_orbit(c, x) for x in pair]

    def check(self, pair: tuple[Orbit, Orbit], outs: list, st: Stats) -> list:
        return [m for x, o in zip(pair, outs) for m in self._check_orbit(x, o, st)]

    def _run_orbit(self, c, x: Orbit) -> dict:
        o = {"d": c.call(B.derive_constants, x.p),
             "h": c.call(B.generate_hitting_sequence, x.q, x.p, SWEEP_LOOPS, units=SWEEP_LOOPS)}
        h, d = o["h"], o["d"]
        if h is not None and d is not None:
            o["lemma"] = c.call(B.lemma_diagnostics, h, d)
            o["ratios"] = c.call(B.corollary_ratios, h, x.p)
            o["estimate"] = c.call(B.estimate_invariants, h)
            o["adjusted"] = c.call(B.adjusted_sequence, h, d, units=SWEEP_LOOPS)
        o["average"] = av = c.call(B.birkhoff_average, x.q, x.p, x.G, SWEEP_LEGS,
                                   name=f"birkhoff_average[{x.G.kind}]", units=SWEEP_LEGS)
        if av is not None:
            o["cert"] = c.call(B.historic_certificate, av)
        if x.partner is not None:
            g = c.call(B.matching_params, x.p, *x.partner)
            o["partner"] = g
            if g is not None:
                o["conj"] = c.call(B.verify_conjugacy, x.q, x.p, g, n_pairs=SWEEP_LOOPS)
        return o

    def _check_orbit(self, x: Orbit, o: dict, st: Stats) -> list:
        miss: list = []
        p, h = x.p, o.get("h")
        ideal = p.perturbation is None
        inv = B.invariant_tuple(p)
        ref = ideal_closed_form_times(p, x.z0, SWEEP_LOOPS) if ideal else None
        if h is not None and ideal and O.rel_dev(h.times, ref) > O.REL_EXACT:
            miss.append(("hitting", "times differ from the closed form"))
        if ideal and o.get("lemma") is not None:
            lem = o["lemma"]
            lim1 = -np.log(np.longdouble(p.a)) / np.longdouble(p.E1)
            worst = max(float(np.max(np.abs(lem.lemma1[1:] - lim1))),
                        10.0 ** _idealized_lemma2(lem, st),
                        float(np.max(np.abs(lem.lemma3[1:] + inv.tau_log_a))))
            if worst > O.ABS_IDENTITY:
                miss.append(("diagnostics", f"idealized identities off by {worst:.2e}"))
        if ideal and o.get("ratios") is not None:
            r1, _, _, r4 = o["ratios"].ratios
            if (O.rel_dev(r1, inv.gamma1) > O.REL_EXACT
                    or O.rel_dev(r4, inv.omega_combo / (inv.gamma1 + 1)) > O.REL_TWIST):
                miss.append(("diagnostics", "ratio identities broken"))
        if o.get("estimate") is not None:
            err = O.rel_dev(o["estimate"].as_array(), inv.as_array())
            st.peak("estimate_err", err)
            if err > O.REL_ESTIMATE:
                miss.append(("diagnostics", f"estimated invariants off by {err:.2e}"))
        if o.get("adjusted") is not None:
            _check_adjusted(x, h, o["adjusted"], ref, miss)
        if o.get("average") is not None:
            _check_average(x, o["average"], o.get("cert"), SWEEP_LEGS, ref, miss)
        if o.get("partner") is not None:
            if O.rel_dev(B.invariant_tuple(o["partner"]).as_array(), inv.as_array()) > O.REL_EXACT:
                miss.append(("params", "partner does not share the invariants"))
        if o.get("conj") is not None:
            st.add("verdicts")
            if o["conj"].verdict:
                st.add("verdict_true")
            else:
                miss.append(("conjugacy", f"matched replay refused: max_dev {o['conj'].max_dev:.2e}"))
        return miss


# -------------------------------------------------------------- long orbit

class LongOrbit:
    name = "long_orbit"

    def build(self, rng) -> list:
        return [draw_orbit(rng, perturbed=i % 2 == 1) for i in range(POOL[self.name])]

    def run(self, c, x: Orbit) -> dict:
        n = LONG_LOOPS
        o = {"d": c.call(B.derive_constants, x.p),
             "h": c.call(B.generate_hitting_sequence, x.q, x.p, n, units=n)}
        point = c.call(B.psi21, x.q, x.p)
        returns = []
        for _ in range(n if point is not None else 0):
            step = c.call(B.poincare, point, x.p)
            if step is None:
                break
            point, r = step
            returns.append(r)
        o["returns"] = returns
        h, d = o["h"], o["d"]
        if h is not None and d is not None:
            o["lemma"] = c.call(B.lemma_diagnostics, h, d)
            o["adjusted"] = c.call(B.adjusted_sequence, h, d, units=n)
        o["average"] = c.call(B.birkhoff_average, x.q, x.p, x.G, 2 * n,
                              name=f"birkhoff_average[{x.G.kind}]", units=2 * n)
        if h is not None:
            o["fractions"] = c.call(B.sojourn_fractions, h, 2 * n + 1)
        return o

    def check(self, x: Orbit, o: dict, st: Stats) -> list:
        miss: list = []
        n, p, h = LONG_LOOPS, x.p, o.get("h")
        ideal = p.perturbation is None
        ref = ideal_closed_form_times(p, x.z0, n) if ideal else None
        if h is not None and ideal and O.rel_dev(h.times, ref) > O.REL_EXACT:
            miss.append(("hitting", "times differ from the closed form"))
        returns = o["returns"]
        if len(returns) == n:
            # idealized: the closed form; perturbed: the generator's even times
            target = ref if ideal else (h.times if h is not None else None)
            if target is not None and O.rel_dev(
                    np.cumsum(np.array(returns, dtype=O.LD)), target[2::2]) > O.REL_EXACT:
                miss.append(("flow", "return times differ from the even hitting times"))
        if ideal and o.get("lemma") is not None:
            _idealized_lemma2(o["lemma"], st)  # reported, never gated: past the horizon
        if o.get("adjusted") is not None:
            _check_adjusted(x, h, o["adjusted"], ref, miss)
        av = o.get("average")
        if av is not None:
            _check_average(x, av, None, 2 * n, ref, miss)
            pe, po = _limits(p, x.G)
            if O.rel_dev([av.even_averages[-1], av.odd_averages[-1]], [pe, po]) > O.REL_EXACT:
                miss.append(("birkhoff", "tail averages miss predicted_limits"))
        if o.get("fractions") is not None:
            f1, f2 = o["fractions"]
            _, g2 = O.gammas(p)
            if abs(float(f1) - g2 / (1 + g2)) > O.REL_EXACT or abs(float(f1 + f2) - 1) > O.REL_EXACT:
                miss.append(("hitting", "sojourn fractions miss their limit"))
        return miss


# ----------------------------------------------------------- smooth average

class SmoothAverage:
    name = "smooth_average"

    def build(self, rng) -> list:
        return [draw_orbit(rng, perturbed=False, smooth=True) for _ in range(POOL[self.name])]

    def run(self, c, x: Orbit) -> dict:
        o = {"average": c.call(B.birkhoff_average, x.q, x.p, x.G, SMOOTH_LEGS,
                               name=f"birkhoff_average[{x.G.kind}]", units=SMOOTH_LEGS)}
        if o["average"] is not None:
            o["cert"] = c.call(B.historic_certificate, o["average"])
        return o

    def check(self, x: Orbit, o: dict, st: Stats) -> list:
        miss: list = []
        av = o.get("average")
        if av is not None:
            _check_average(x, av, o.get("cert"), SMOOTH_LEGS, None, miss)
            err = O.rel_dev(O.by_index(av, SMOOTH_LEGS), O.smooth_averages(x.p, x.G, x.z0, SMOOTH_LEGS))
            if err > O.REL_SMOOTH:
                miss.append(("birkhoff", f"smooth averages off the exact integrals by {err:.2e}"))
        return miss


# ---------------------------------------------------------------- cli cold

@dataclass(frozen=True)
class CliCall:
    sub: str
    orbit: Orbit | None
    config: Path | None


def config_doc(x: Orbit, partner_params: dict, n_pairs: int) -> dict:
    p = x.p
    keys = ("C1", "E1", "omega1", "C2", "E2", "omega2", "a")
    return {"params": {k: getattr(p, k) for k in keys}, "params_g": partner_params,
            "seed": {"theta0": float(x.q.theta_lifted), "z0": x.z0}, "n_pairs": n_pairs,
            "observable": {"kind": "piecewise_constant",
                           "g_sigma1": x.G.g_sigma1, "g_sigma2": x.G.g_sigma2}}


def partner_doc(p: B.SystemParams, partner: tuple[float, float, float]) -> dict:
    """The partner of :func:`draw_partner`, written out longhand for a config."""
    E1b, E2b, w2b = partner
    k = E1b / p.E1
    gamma1 = p.C1 / p.E2
    return {"C1": k * p.C1, "E1": E1b, "omega1": p.omega1 + gamma1 * p.omega2 - gamma1 * w2b,
            "C2": k * p.C2, "E2": E2b, "omega2": w2b, "a": p.a ** k}


def run_cli(root: Path, env: dict, args: list, out: Path) -> tuple[int, str, float, float]:
    """Run ``python -m bykov`` in a fresh process; return code, stdout and its span."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "bykov", *args, "--out", str(out)],
                          cwd=root, env=env, capture_output=True, text=True,
                          timeout=CLI_TIMEOUT_S)
    return proc.returncode, proc.stdout, start, time.perf_counter()


def _read_csv(path: Path) -> dict[str, list[str]]:
    with path.open(newline="") as f:
        rows = list(csv.reader(f))
    return {name: [r[i] for r in rows[1:]] for i, name in enumerate(rows[0])}


def _floats(cells) -> np.ndarray:
    return np.array([float(v) for v in cells if v != ""], dtype=O.LD)


class CliCold:
    name = "cli_cold"

    def __init__(self, root: Path, out: Path, env: dict) -> None:
        self.root, self.out, self.env = root, out, env

    def build(self, rng) -> list:
        docs = []
        for _ in range(POOL[self.name]):
            x = draw_orbit(rng, perturbed=False, partner=True)
            docs.append((x, config_doc(x, partner_doc(x.p, x.partner), CLI_LOOPS)))
        return docs

    def prepare(self, docs: list) -> list:
        """Write the configs; each task is one subcommand on one of them."""
        cfg_dir = self.out / "configs"
        cfg_dir.mkdir(parents=True, exist_ok=True)
        calls = []
        for i, (x, doc) in enumerate(docs):
            path = cfg_dir / f"cfg{i:03d}.json"
            path.write_text(json.dumps(doc, indent=2) + "\n")
            calls += [CliCall(sub, None if sub == "verify-all" else x,
                              None if sub == "verify-all" else path)
                      for sub in CLI_CYCLE]
        return calls

    def run(self, c, x: CliCall) -> dict:
        args = [x.sub] + (["--config", str(x.config)] if x.config is not None else [])
        run_dir = self.out / "run"
        try:
            code, stdout, start, end = run_cli(self.root, self.env, args, run_dir)
        except subprocess.TimeoutExpired:
            c.span(x.sub, layer_of_sub(x.sub), 0.0, 0.0, status="failed")
            return {"code": None}
        c.span(x.sub, layer_of_sub(x.sub), start, end)
        return {"code": code, "stdout": stdout, "dir": run_dir}

    def check(self, x: CliCall, o: dict, st: Stats) -> list:
        layer = layer_of_sub(x.sub)
        if o["code"] is None:
            return []  # the timed-out call is already counted as failed
        try:
            miss = check_cli_output(x, o["code"], o["stdout"], o["dir"], st)
        except (OSError, ValueError, KeyError, IndexError) as e:
            miss = [(layer, f"unreadable output: {e!r}")]
        for f in o["dir"].glob("*"):  # so the next task cannot pass on a stale file
            f.unlink()
        return miss


def layer_of_sub(sub: str) -> str:
    return "acceptance" if sub == "verify-all" else "cli"


CLI_FILES = {"simulate": "hitting.csv", "diagnostics": "diagnostics.csv",
             "birkhoff": "birkhoff.csv", "adjusted": "adjusted.csv",
             "conjugacy": "conjugacy.json"}


def check_cli_output(x: CliCall, code: int, stdout: str, run_dir: Path, st: Stats) -> list:
    if x.sub == "verify-all":
        last = stdout.strip().splitlines()[-1] if stdout.strip() else ""
        done, total = last.split()[0].split("/") if "checks passed" in last else ("0", "?")
        return [] if code == 0 and done == total else [("acceptance", f"verify-all: {last!r}")]
    if code not in ((0, 2) if x.sub == "birkhoff" else (0,)):
        return [("cli", f"{x.sub} exited {code}")]
    path = run_dir / CLI_FILES[x.sub]
    st.add("bytes_written", path.stat().st_size)
    st.add("files_written")
    p, n = x.orbit.p, CLI_LOOPS
    ref = ideal_closed_form_times(p, x.orbit.z0, n)
    inv = B.invariant_tuple(p)
    bad = False
    if x.sub == "simulate":
        col = _read_csv(path)
        bad = (O.rel_dev(_floats(col["time"]), ref) > O.REL_EXACT
               or col["chart"] != ["Out2", "Out1"] * (n + 1))
    elif x.sub == "diagnostics":
        col = _read_csv(path)
        lim = inv.omega_combo / (inv.gamma1 + 1)
        bad = (O.rel_dev(_floats(col["ratio1"]), inv.gamma1) > O.REL_EXACT
               or O.rel_dev(_floats(col["ratio4"]), lim) > O.REL_TWIST
               or float(np.max(np.abs(_floats(col["lemma2"])))) > O.ABS_IDENTITY)
    elif x.sub == "birkhoff":
        col = _read_csv(path)
        idx = np.array([int(k) for k in col["index"]])
        expected = O.piecewise_averages(ref, x.orbit.G.g_sigma1, x.orbit.G.g_sigma2, 2 * n)
        pe, po = _limits(p, x.orbit.G)
        predicted = np.where(idx % 2 == 0, pe, po)
        bad = (O.rel_dev(_floats(col["average"]), expected[idx - 1]) > O.REL_EXACT
               or O.rel_dev(_floats(col["predicted"]), predicted) > O.REL_EXACT
               or ("True" in stdout) != (code == 0))
    elif x.sub == "adjusted":
        col = _read_csv(path)
        T, t_til = _floats(col["T"]), _floats(col["t_til_even"])
        # the grid is shifted by the reported offset, zero up to the
        # rounding of summing n loop durations (Higham's n*eps*sum|T|)
        offset = t_til[0]
        bad = (O.rel_dev(_floats(col["Ttil"]), T) > O.REL_EXACT
               or O.rel_dev(t_til - offset, ref[0::2][:n]) > O.REL_EXACT
               or abs(offset) > 4 * n * O.EPS_LD * float(np.sum(np.abs(T))))
    elif x.sub == "conjugacy":
        bad = not json.loads(path.read_text())["verdict"]
    return [("cli", f"{x.sub} output misses its oracle")] if bad else []


def make(name: str, root: Path, out: Path, env: dict):
    if name == "cli_cold":
        return CliCold(root, out / "cli", env)
    return {"sweep": Sweep, "long_orbit": LongOrbit, "smooth_average": SmoothAverage}[name]()
