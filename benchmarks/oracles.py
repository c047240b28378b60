"""Independent references the benchmark checks the package's outputs against.

The time oracle is ``bykov.acceptance.ideal_closed_form_times``, the
longhand recursion the acceptance suite already trusts.  The smooth
observable's leg integrals are re-derived here in closed form, so the
quadrature in ``bykov.birkhoff`` is checked against a formula it never
consumes.  Every tolerance below is either one the package documents or
one the acceptance suite already uses.
"""

from __future__ import annotations

import numpy as np

LD = np.longdouble
EPS_LD = float(np.finfo(LD).eps)

# Times, adjusted grids and exact identities, as relative error.  The
# generator reaches 5.7e-17 at n = 1000 on idealized orbits, so 1e-12
# leaves room for accumulated rounding without hiding a wrong leg.
REL_EXACT = 1e-12
# Twist-ratio identity: the acceptance suite's tolerance (criterion 4).
REL_TWIST = 1e-10
# Invariants estimated from times alone, relative: the acceptance
# suite's tolerance for perturbed runs (extra check).
REL_ESTIMATE = 1e-6
# Time identities on 12-loop idealized orbits, absolute: the acceptance
# suite's tolerance for the identities (criterion 3).
ABS_IDENTITY = 1e-6
# Smooth Birkhoff averages: the accuracy bykov.birkhoff documents.
REL_SMOOTH = 1e-8


def log10_max_abs(x) -> float:
    """log10 of the largest ``|x|``, in extended precision (it may pass 1e308)."""
    return float(np.log10(max(np.max(np.abs(np.asarray(x, dtype=LD))), np.finfo(LD).tiny)))


def rel_dev(x, ref) -> float:
    """Largest ``|x - ref| / max(1, |ref|)``, taken in extended precision."""
    x = np.asarray(x, dtype=LD)
    ref = np.asarray(ref, dtype=LD)
    return float(np.max(np.abs(x - ref) / np.maximum(LD(1.0), np.abs(ref))))


def gammas(p) -> tuple[float, float]:
    """Saddle indices ``C1/E2`` and ``C2/E1``, written out longhand."""
    return p.C1 / p.E2, p.C2 / p.E1


def loop_recursion(p) -> tuple[np.longdouble, np.longdouble]:
    """``delta`` and ``tau*ln(a)`` of the loop recursion ``T[i] = delta*T[i-1] - tau*ln(a)``.

    Written out longhand from the rates: ``delta = (C1/E1)*(C2/E2)`` and
    ``tau = (1 + C1/E2)/E1``.
    """
    C1, E1, C2, E2 = (LD(v) for v in (p.C1, p.E1, p.C2, p.E2))
    return (C1 / E1) * (C2 / E2), (1 + C1 / E2) / E1 * np.log(LD(p.a))


def adjusted_durations(durations, p, n: int) -> np.ndarray:
    """The exactly recursive durations that the last measured loop lies on.

    The last measured duration is carried back to loop 0 and forward
    again with :func:`loop_recursion`, so a program that used other
    recursion constants lands elsewhere.
    """
    delta, tau_log_a = loop_recursion(p)
    T0 = LD(durations[-1])
    for _ in range(len(durations) - 1):
        T0 = (T0 + tau_log_a) / delta
    out = np.empty(n, dtype=LD)
    out[0] = T0
    for i in range(1, n):
        out[i] = delta * out[i - 1] - tau_log_a
    return out


def ideal_entry_logs(p, z0: float, n_legs: int) -> list[tuple[str, np.longdouble]]:
    """Cylinder and entry log-coordinate of each leg of an idealized orbit.

    Leg 0 enters ``V1`` at height ``a * z0``; legs alternate ``V1``,
    ``V2``.  Only the log-space recursion of the model is used.
    """
    log_a = np.log(LD(p.a))
    d1, d2 = LD(p.C1) / LD(p.E1), LD(p.C2) / LD(p.E2)
    lnz = np.log(LD(z0))
    legs = []
    while len(legs) < n_legs:
        lnz_in = log_a + lnz
        legs.append(("V1", lnz_in))
        lnrho = d1 * lnz_in
        legs.append(("V2", lnrho))
        lnz = d2 * lnrho
    return legs[:n_legs]


def smooth_leg_integral(p, g_sigma: float, g_boundary: float, m: float,
                        cylinder: str, log_in) -> tuple[np.longdouble, np.longdouble]:
    """Length and exact integral of the smooth observable over one leg.

    In ``V1`` the profile ``exp(m * max(rho_log, z_log))`` is
    ``exp(-m*C1*t)`` up to the kink ``t_k = -ln z / (C1 + E1)`` and
    ``exp(m*(ln z + E1*t))`` after it; both pieces integrate to
    ``(1 - exp(-m*C1*t_k)) / (m*rate)``.  ``V2`` is the mirror image with
    ``C2``, ``E2`` and the entry radius.
    """
    contract, expand = (p.C1, p.E1) if cylinder == "V1" else (p.C2, p.E2)
    contract, expand, m = LD(contract), LD(expand), LD(m)
    length = -log_in / expand
    t_kink = -log_in / (contract + expand)
    layer = -np.expm1(-m * contract * t_kink) * (1 / (m * contract) + 1 / (m * expand))
    return length, LD(g_sigma) * length + (LD(g_boundary) - LD(g_sigma)) * layer


def smooth_averages(p, G, z0: float, upto: int) -> np.ndarray:
    """Exact time averages at hitting indices ``1..upto`` of an idealized orbit."""
    g_boundary = G.g_boundary if G.g_boundary is not None else 0.5 * (G.g_sigma1 + G.g_sigma2)
    t, total, out = LD(0.0), LD(0.0), []
    for cyl, log_in in ideal_entry_logs(p, z0, upto):
        g = G.g_sigma1 if cyl == "V1" else G.g_sigma2
        length, integral = smooth_leg_integral(p, g, g_boundary, G.m, cyl, log_in)
        t += length
        total += integral
        out.append(total / t)
    return np.array(out, dtype=LD)


def piecewise_averages(times: np.ndarray, g1: float, g2: float, upto: int) -> np.ndarray:
    """Time averages of a piecewise-constant observable from reference times.

    Legs alternate ``V1``, ``V2`` starting at the seed, so the average at
    index ``k`` weighs each leg of ``times[:k+1]`` by its cylinder value.
    """
    legs = np.diff(np.asarray(times[: upto + 1], dtype=LD))
    weights = np.where(np.arange(upto) % 2 == 0, LD(g1), LD(g2)).astype(LD)
    return np.cumsum(weights * legs) / times[1 : upto + 1]


def by_index(series, upto: int) -> np.ndarray:
    """Interleave an ``AverageSeries`` back into indices ``1..upto``."""
    out = np.empty(upto, dtype=LD)
    out[np.asarray(series.even_indices) - 1] = series.even_averages
    out[np.asarray(series.odd_indices) - 1] = series.odd_averages
    return out
