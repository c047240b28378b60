"""Self-contained acceptance checks for every advertised numerical claim.

Each criterion below re-derives its expected numbers from closed forms
written out longhand in this module (plain scalar recursions, no calls
into the map layer being tested) and, for the hitting times, from an
independent ODE integration with event detection, a fixed-step RK4 in
plain floats written out in this module.  The functions return
structured results so both the test suite and the ``verify-all`` CLI
subcommand can render one pass/fail line per criterion.

Everything runs on one canonical parameter set

    C1=2, E1=1, omega1=1, C2=3, E2=1.5, omega2=2, a=0.5,

seed ``theta0=1.0, z0=0.1``, with the perturbed variants using
amplitudes ``c1=c2=0.1`` at regularity ``eps=0.5``, and the matched
companion system ``C1=4, E1=2, omega1=7/3, C2=6, E2=3, omega2=1,
a=0.25``.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from ._num import LD, _limit, asld
from .adjusted import adjusted_sequence, shift_invariance_check
from .birkhoff import Observable, birkhoff_average, historic_certificate
from .conjugacy import verify_conjugacy
from .diagnostics import (
    corollary_ratios,
    estimate_invariants,
    lemma_diagnostics,
    perturbation_decay_slope,
)
from .flow import SectionPoint, poincare, psi21
from .hitting import generate_hitting_sequence
from .params import PerturbationSpec, SystemParams

__all__ = [
    "CriterionResult",
    "CANONICAL_PARAMS",
    "PERTURBED_PARAMS",
    "MATCHED_PARAMS",
    "MISMATCHED_PARAMS",
    "SEED",
    "ideal_closed_form_times",
    "ode_hitting_times",
    "run_all",
]

CANONICAL_PARAMS = SystemParams(C1=2, E1=1, omega1=1, C2=3, E2=1.5, omega2=2, a=0.5)
PERTURBED_PARAMS = SystemParams(
    C1=2, E1=1, omega1=1, C2=3, E2=1.5, omega2=2, a=0.5,
    perturbation=PerturbationSpec(c1=0.1, c2=0.1, eps=0.5),
)
MATCHED_PARAMS = SystemParams(C1=4, E1=2, omega1=7 / 3, C2=6, E2=3, omega2=1, a=0.25)
MISMATCHED_PARAMS = SystemParams(C1=4, E1=2, omega1=7 / 3, C2=6.6, E2=3, omega2=1, a=0.25)

SEED = SectionPoint(chart="Out2", theta_lifted=1.0, log_coord=float(np.log(0.1)))


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    seconds: float
    detail: str

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        label = f"criterion {self.number}" if self.number else "extra check"
        return f"[{status}] {label}: {self.name} — {self.detail}"


def ideal_closed_form_times(p: SystemParams, z0: float, n_pairs: int) -> np.ndarray:
    """Hitting times of the idealized model by direct scalar recursion.

    Deliberately bypasses the map layer: six lines of longhand log-space
    arithmetic, so agreement with the generator is a genuine cross-check
    rather than the same code run twice.
    """
    E1, E2 = asld(p.E1), asld(p.E2)
    d1 = asld(p.C1) / E1
    d2 = asld(p.C2) / E2
    log_a = np.log(asld(p.a))
    lnz = np.log(asld(z0))
    t = LD(0.0)
    times = [t]
    for _ in range(n_pairs):
        lnz_in = log_a + lnz
        s = -lnz_in / E1
        lnrho = d1 * lnz_in
        u = -lnrho / E2
        lnz = d2 * lnrho
        times.append(t + s)
        t = t + s + u
        times.append(t)
    times.append(t - (log_a + lnz) / E1)
    return np.array(times, dtype=LD)


_ODE_STEP = 2e-3  # halving it cuts the oracle's gap about 16-fold (criterion 1)


def ode_hitting_times(p: SystemParams, theta0: float, z0: float, n_pairs: int) -> np.ndarray:
    """Hitting times from numerical integration with event detection.

    Integrates each cylinder's linear vector field in plain float
    ``(rho, theta, z)`` coordinates by classical fixed-step RK4, which on
    a linear field is one growth factor per step, with the gluing and
    reinjection between legs; each exit bisects the crossing
    step 60 times, each an RK4 step from the step's start.  Raises
    ``ValueError`` for a perturbed parameter set (only the idealized model
    is one global vector field), for a leg entering off ``(0, 1]``, and for
    a leg with no exit within 1.5 times its exact duration plus 1.
    """
    return _rk4_hitting_times(p, theta0, z0, n_pairs, _ODE_STEP)


def _rk4_hitting_times(p: SystemParams, theta0: float, z0: float, n_pairs: int, h: float):
    if p.perturbation is not None and (p.perturbation.c1 or p.perturbation.c2):
        raise ValueError("the ODE oracle covers the idealized vector field only")

    def rk4(c, s):
        # one classical RK4 step of length s on the linear field (c0*rho, c1, c2*z): rho
        # and z times 1 + x + x**2/2 + x**3/6 + x**4/24 of x = c*s, the angle plus c1*s
        g0, g2 = (1.0 + x * (1.0 + x * (0.5 + x * (1.0 / 6.0 + x / 24.0)))
                  for x in (c[0] * s, c[2] * s))
        return lambda y: [y[0] * g0, y[1] + c[1] * s, y[2] * g2]

    def leg(c, y, axis):  # y[axis] grows like exp(c[axis]*t)
        if not 0.0 < y[axis] <= 1.0:
            raise ValueError(f"entry coordinate {y[axis]!r} is not a float64 in (0, 1]")
        span = 1.5 * -math.log(y[axis]) / c[axis] + 1.0
        step = rk4(c, h)
        for k in range(math.ceil(span / h)):
            nxt = step(y)
            if nxt[axis] >= 1.0:
                lo, hi = 0.0, h
                for _ in range(60):
                    mid = 0.5 * (lo + hi)
                    lo, hi = (lo, mid) if rk4(c, mid)(y)[axis] >= 1.0 else (mid, hi)
                return k * h + hi, rk4(c, hi)(y)
            y = nxt
        raise ValueError(f"no exit within the leg's span {span!r}")

    v1 = (-float(p.C1), float(p.omega1), float(p.E1))
    v2 = (float(p.E2), float(p.omega2), -float(p.C2))
    a, theta, z = float(p.a), float(theta0), float(z0)
    times = [0.0]
    for _ in range(n_pairs):
        s, (rho, theta, _) = leg(v1, [1.0, theta / a, a * z], 2)
        u, (_, theta, z) = leg(v2, [rho, theta, 1.0], 0)
        times += [times[-1] + s, times[-1] + s + u]
    return np.array(times)


def _criterion_hitting_times() -> CriterionResult:
    p = CANONICAL_PARAMS
    t0 = time.perf_counter()
    h = generate_hitting_sequence(SEED, p, 2)
    lib_seconds = time.perf_counter() - t0
    closed = ideal_closed_form_times(p, 0.1, 2)
    err_closed = float(np.max(np.abs(h.times[:5] - closed[:5])))
    ode = ode_hitting_times(p, 1.0, 0.1, 2)
    err_ode = float(np.max(np.abs(h.times[:5].astype(float) - ode[:5])))
    ode_2h = _rk4_hitting_times(p, 1.0, 0.1, 2, 2 * _ODE_STEP)
    ratio = float(np.max(np.abs(ode_2h - closed[:5])) / np.max(np.abs(ode - closed[:5])))
    passed = err_closed < 1e-9 and err_ode < 1e-6 and lib_seconds < 1.0
    detail = (
        f"t1..t4 = {[round(float(x), 6) for x in h.times[1:5]]}; "
        f"closed-form gap {err_closed:.2e} (tol 1e-9), ODE-oracle gap "
        f"{err_ode:.2e} (tol 1e-6; its closed-form gap shrinks {ratio:.1f}-fold "
        f"from step 2h to h = {_ODE_STEP:g}), generator time {lib_seconds * 1e3:.1f} ms"
    )
    return CriterionResult(1, "hitting times vs closed form and ODE oracle", passed, lib_seconds, detail)


def _criterion_idealized_identities() -> CriterionResult:
    p = CANONICAL_PARAMS
    h = generate_hitting_sequence(SEED, p, 11)
    series = lemma_diagnostics(h, p)
    lim1 = -np.log(asld(p.a)) / asld(p.E1)
    lim3 = -p.invariants.tau_log_a
    idx = slice(1, 11)
    e1 = float(np.max(np.abs(series.lemma1[idx] - lim1)))
    e2 = float(np.max(np.abs(series.lemma2[idx])))
    e3 = float(np.max(np.abs(series.lemma3[idx] - lim3)))
    worst = max(e1, e2, e3)
    passed = worst < 1e-10
    detail = (
        f"idealized combination errors over 1<=i<=10: {e1:.2e}, {e2:.2e}, "
        f"{e3:.2e} (tol 1e-10 abs; limits 0.693147, 0, 1.617343)"
    )
    return CriterionResult(2, "idealized time identities", passed, 0.0, detail)


def _criterion_perturbed_identities() -> CriterionResult:
    p = PERTURBED_PARAMS
    h = generate_hitting_sequence(SEED, p, 12)
    series = lemma_diagnostics(h, p)
    lim1 = -np.log(asld(p.a)) / asld(p.E1)
    lim3 = -p.invariants.tau_log_a
    e1 = float(abs(series.lemma1[10] - lim1))
    e2 = float(abs(series.lemma2[10]))
    e3 = float(abs(series.lemma3[10] - lim3))
    slope = perturbation_decay_slope(h, p)
    slope_floor = float(p.delta1) * p.perturbation.eps - 0.1
    R = series.residuals
    root_stats = [
        float((i * abs(R[i])) ** (1.0 / i)) for i in range(1, len(R)) if R[i] != 0
    ]
    root_sup = max(root_stats)
    passed = (
        max(e1, e2, e3) < 1e-6 and slope >= slope_floor and root_sup < 1.0
    )
    detail = (
        f"errors at i=10: {e1:.2e}, {e2:.2e}, {e3:.2e} (tol 1e-6); decay "
        f"slope {slope:.4f} >= {slope_floor}; root-test sup {root_sup:.4f} < 1"
    )
    return CriterionResult(3, "perturbed identities, decay slope, summability", passed, 0.0, detail)


def _criterion_ratio_limits() -> CriterionResult:
    p = CANONICAL_PARAMS
    h = generate_hitting_sequence(SEED, p, 9)
    r1, r2, r3, r4 = corollary_ratios(h, p).ratios
    rate = LD(1.0) / r3[8]
    # raw tails at i=8 still carry O(1/T) transients (about 1e-5 here); a Richardson
    # step at the rate 1/delta removes them, and _limit bounds the rest; i=0 is undefined
    g1_est = r1[8]
    g2_est, g2_bound = _limit(r2[1:9], rate)
    d_est, d_bound = _limit(r3[1:9], rate)
    e_g1 = float(abs(g1_est - p.gamma1))
    e_g2 = float(abs(g2_est - p.gamma2))
    e_d = float(abs(d_est - p.delta))
    twist = p.invariants.omega_combo / (p.gamma1 + LD(1.0))
    e_r4 = float(np.max(np.abs(r4 - twist)))
    raw_gap = float(abs(r2[8] - p.gamma2))
    passed = max(e_g1, e_g2, e_d) < 1e-6 and e_g2 <= g2_bound and e_d <= d_bound and e_r4 < 1e-10
    detail = (
        f"estimates at i=8 off by {e_g1:.2e}, {e_g2:.2e}, {e_d:.2e} "
        f"(tol 1e-6; accelerated bounds {g2_bound:.2e}, {d_bound:.2e}; raw ratio2 "
        f"transient {raw_gap:.2e}); twist ratio off by {e_r4:.2e} at every index (tol 1e-10)"
    )
    return CriterionResult(4, "ratio diagnostics reach the invariants", passed, 0.0, detail)


def _criterion_historic_averages() -> CriterionResult:
    p = CANONICAL_PARAMS
    G = Observable(kind="piecewise_constant", g_sigma1=0.0, g_sigma2=1.0)
    series = birkhoff_average(SEED, p, G, upto_index=16)
    even_err = float(np.max(np.abs(series.even_averages - series.predicted_even)))

    odd_err = np.abs(series.odd_averages - series.predicted_odd).astype(float)
    within = np.nonzero(odd_err < 1e-3)[0]
    first_reach = int(within[0]) if len(within) else 10**9
    stays = bool(len(within)) and bool(np.all(odd_err[first_reach:] < 1e-3))

    cert = historic_certificate(series, tol=1e-3)
    gap_expected = (LD(1.0) - p.delta) * LD(1.0) / ((LD(1.0) + p.gamma1) * (LD(1.0) + p.gamma2))
    gap_err = float(abs(asld(cert.gap) - gap_expected))
    passed = (
        even_err < 1e-10
        and first_reach <= 7
        and stays
        and cert.verdict
        and gap_err < 1e-9
    )
    detail = (
        f"even averages pinned at 4/7 to {even_err:.2e} (tol 1e-10); odd "
        f"averages enter the 1e-3 band at position {first_reach} (<=7; sequence "
        f"{[round(float(x), 6) for x in series.odd_averages[1:4]]}...); "
        f"certificate {cert.verdict} with gap {cert.gap:.6f} (err {gap_err:.2e})"
    )
    return CriterionResult(5, "two-limit Birkhoff averages certified", passed, 0.0, detail)


def _criterion_adjusted_times() -> CriterionResult:
    p = CANONICAL_PARAMS
    h = generate_hitting_sequence(SEED, p, 12)
    adj = adjusted_sequence(h, p)
    closed = ideal_closed_form_times(p, 0.1, 1)
    T0_err = float(abs(adj.T0 - closed[2]))
    tail_ok = adj.residual_tail_bound < 1e-12

    rec = adj.T_seq[1:] - (p.delta * adj.T_seq[:-1] - p.invariants.tau_log_a)
    rec_rel = float(np.max(np.abs(rec) / np.abs(adj.T_seq[1:])))
    w1, w2 = asld(p.omega1), asld(p.omega2)
    s_adj = adj.t_odd_zero - adj.t_even_zero[:-1]
    u_adj = adj.t_even_zero[1:] - adj.t_odd_zero
    omega_ratio = (w1 * s_adj + w2 * u_adj) / (s_adj + u_adj)
    twist = p.invariants.omega_combo / (p.gamma1 + LD(1.0))
    omega_rel = float(np.max(np.abs(omega_ratio - twist) / twist))

    shift_dev = shift_invariance_check(h, p, 2)

    hp = generate_hitting_sequence(SEED, PERTURBED_PARAMS, 12)
    adjp = adjusted_sequence(hp, PERTURBED_PARAMS)
    even_gap_10 = float(abs(hp.times[20] - adjp.t_even[10]))
    shift_dev_p = shift_invariance_check(hp, PERTURBED_PARAMS, 2)
    Rp = lemma_diagnostics(hp, PERTURBED_PARAMS).residuals
    shift_bound = sum(
        float(abs(Rp[2 + j])) / float(PERTURBED_PARAMS.delta) ** j for j in range(1, len(Rp) - 2)
    )

    passed = (
        T0_err < 1e-9
        and tail_ok
        and rec_rel < 1e-12
        and omega_rel < 1e-12
        and shift_dev < 1e-9
        and even_gap_10 < 1e-6
        and shift_dev_p <= shift_bound + 1e-12
    )
    detail = (
        f"T0 off closed form by {T0_err:.2e} (tol 1e-9, tail bound "
        f"{adj.residual_tail_bound:.1e}); recursion/twist identities to "
        f"{rec_rel:.1e}/{omega_rel:.1e} rel (tol 1e-12); shift deviation "
        f"{shift_dev:.1e} idealized, {shift_dev_p:.1e} perturbed (bound "
        f"{shift_bound:.1e}); |t20 - adjusted| = {even_gap_10:.1e} (tol 1e-6)"
    )
    return CriterionResult(6, "adjusted times and their identities", passed, 0.0, detail)


def _criterion_conjugacy() -> CriterionResult:
    p = CANONICAL_PARAMS
    g = MATCHED_PARAMS
    inv_gap = float(np.max(np.abs(p.invariants.as_array() - g.invariants.as_array())))
    report = verify_conjugacy(SEED, p, g, n_pairs=10, tol=1e-8)
    closed = ideal_closed_form_times(p, 0.1, 1)
    t1_err = float(report.time_deviations[1])
    t1_match = t1_err < 1e-9 and abs(float(closed[1]) - 2.995732) < 1e-5

    neg = verify_conjugacy(SEED, p, MISMATCHED_PARAMS, n_pairs=6, tol=1e-8, strict=False)
    dev = neg.time_deviations
    fails_early = bool(np.any(dev[:7] > 1e-3))
    growing = bool(dev[5] > 2 * dev[3] and dev[7] > 2 * dev[5]) if len(dev) > 7 else False

    passed = (
        inv_gap < 1e-12
        and report.verdict
        and report.max_dev < 1e-8
        and t1_match
        and not neg.verdict
        and fails_early
        and growing
    )
    detail = (
        f"invariants match to {inv_gap:.1e}; replay max_dev {report.max_dev:.2e} "
        f"over 10 pairs (tol 1e-8), first-crossing deviation {t1_err:.1e}; "
        f"mismatched control: verdict {neg.verdict}, deviation at index 3 = "
        f"{float(dev[3]):.3f} growing to {float(dev[-1]):.1f}"
    )
    return CriterionResult(7, "conjugacy replay and negative control", passed, 0.0, detail)


def _criterion_robustness() -> CriterionResult:
    p = CANONICAL_PARAMS
    q = psi21(SEED, p)
    logs = [q.log_coord]
    worst = 0.0
    ok = True
    for _ in range(30):
        q, _ = poincare(q, p)
        logs.append(q.log_coord)
        ok = ok and bool(np.isfinite(q.log_coord)) and bool(np.isfinite(q.theta_lifted))
        expected = p.log_a + p.delta * logs[-2]
        worst = max(worst, float(abs(q.log_coord - expected)))
    final = float(logs[-1])
    passed = ok and worst < 1e-10
    detail = (
        f"30 return-map iterates finite down to log-height {final:.3e}; "
        f"height recursion deviation {worst:.1e} (tol 1e-10)"
    )
    return CriterionResult(8, "30 log-space iterates without underflow", passed, 0.0, detail)


def _criterion_invariant_estimation() -> CriterionResult:
    # not numbered in the acceptance table, but exercised by its examples:
    # the from-times-only estimator must recover the tuple on all three runs
    p = CANONICAL_PARAMS
    truth = p.invariants.as_array()
    runs = {
        "idealized": (generate_hitting_sequence(SEED, p, 8), 1e-9),
        "perturbed": (generate_hitting_sequence(SEED, PERTURBED_PARAMS, 8), 1e-6),
        "matched": (
            generate_hitting_sequence(
                SectionPoint("Out2", 1.0, float(np.log(0.01))), MATCHED_PARAMS, 8
            ),
            1e-9,
        ),
    }
    gaps = {}
    passed = True
    for name, (h, tol) in runs.items():
        est = estimate_invariants(h).as_array()
        gap = float(np.max(np.abs(est - truth)))
        gaps[name] = gap
        passed = passed and gap < tol
    detail = "; ".join(f"{k} tuple gap {v:.2e}" for k, v in gaps.items())
    return CriterionResult(0, "invariant estimation from times alone", passed, 0.0, detail)


def run_all() -> list[CriterionResult]:
    """Run every acceptance criterion; total budget is part of criterion 7."""
    start = time.perf_counter()
    checks = [
        _criterion_hitting_times,
        _criterion_idealized_identities,
        _criterion_perturbed_identities,
        _criterion_ratio_limits,
        _criterion_historic_averages,
        _criterion_adjusted_times,
        _criterion_conjugacy,
        _criterion_robustness,
        _criterion_invariant_estimation,
    ]
    results = []
    for check in checks:
        t0 = time.perf_counter()
        res = check()
        res.seconds = time.perf_counter() - t0
        results.append(res)
    total = time.perf_counter() - start
    for res in results:
        if res.number == 7:
            res.passed = res.passed and total < 10.0
            res.detail += f"; full suite ran in {total:.2f}s (budget 10s)"
    return results
