"""Convergent diagnostic sequences built from hitting times alone.

Three difference combinations of consecutive hitting times are constant
in the idealized model and converge geometrically under perturbation:

* ``lemma1[i] = (t[2i+1]-t[2i]) - gamma2*(t[2i]-t[2i-1])``  ->  ``-ln(a)/E1``
* ``lemma2[i] = (t[2i+2]-t[2i+1]) - gamma1*(t[2i+1]-t[2i])``  ->  ``0``
* ``lemma3[i] = (t[2i+2]-t[2i]) - delta*(t[2i]-t[2i-2])``  ->  ``-tau*ln(a)``

and four ratio sequences recover the saddle indices, their product, and
the normalized twist:

* ``ratio1[i] = u[i]/s[i]``            -> ``gamma1``
* ``ratio2[i] = s[i]/u[i-1]``          -> ``gamma2``
* ``ratio3[i] = T[i]/T[i-1]``          -> ``delta``
* ``ratio4[i] = (omega1*s[i'] + omega2*u[i])/T[i]`` -> ``(omega1+gamma1*omega2)/(gamma1+1)``

where ``s[i] = t[2i+1]-t[2i]`` and ``u[i] = t[2i+2]-t[2i+1]`` are the two
sojourn legs of loop ``i`` and ``T[i] = s[i]+u[i]`` the loop duration.

All series are stored aligned with the loop index ``i``; entries whose
defining formula reaches before the start of the data hold NaN.  That
keeps ``series[i]`` meaning "the combination at loop i" everywhere and
matches the one-row-per-index CSV layout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._num import LD, asld
from .errors import InsufficientData, NonConvergent
from .hitting import HittingSequence, _legs
from .params import DerivedConstants, InvariantTuple, SystemParams, derive_constants

__all__ = [
    "DiagnosticSeries",
    "lemma_diagnostics",
    "corollary_ratios",
    "estimate_invariants",
    "perturbation_decay_slope",
]

_NAN = LD(np.nan)


@dataclass(frozen=True)
class DiagnosticSeries:
    """Aligned diagnostic sequences; fields are None when not requested.

    ``residuals[i] = lemma3[i] + tau*ln(a)`` measures the distance of the
    loop-duration recursion from its idealized fixed identity; in the
    idealized model it vanishes, under perturbation ``sum(i*|R_i|)``
    converges (root test strictly below 1).
    """

    lemma1: np.ndarray | None = None
    lemma2: np.ndarray | None = None
    lemma3: np.ndarray | None = None
    residuals: np.ndarray | None = None
    ratios: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray] | None = None


def _after_nan(x: np.ndarray) -> np.ndarray:
    """``x`` behind one NaN: a series whose formula starts at loop 1."""
    return np.concatenate(([_NAN], x))


def _ratios(s: np.ndarray, u: np.ndarray, T: np.ndarray) -> tuple[np.ndarray, ...]:
    """``ratio1``, ``ratio2`` and ``ratio3``, aligned with the loop index."""
    return u / s[: len(u)], _after_nan(s[1:] / u), _after_nan(T[1:] / T[:-1])


def lemma_diagnostics(h: HittingSequence, d: DerivedConstants) -> DiagnosticSeries:
    """The three difference combinations and the recursion residuals."""
    if h.n_pairs < 3:
        raise InsufficientData(
            f"lemma diagnostics need at least 3 loops, got {h.n_pairs}"
        )
    s, u, T = _legs(h)
    lemma3 = T[1:] - d.delta * T[:-1]
    return DiagnosticSeries(
        lemma1=_after_nan(s[1:] - d.gamma2 * u),
        lemma2=u - d.gamma1 * s[: len(u)],
        lemma3=_after_nan(lemma3),
        residuals=_after_nan(lemma3 + d.invariants.tau_log_a),
    )


def corollary_ratios(h: HittingSequence, p: SystemParams) -> DiagnosticSeries:
    """The four ratio sequences converging to the conjugacy invariants."""
    if h.n_pairs < 2:
        raise InsufficientData(f"ratio diagnostics need at least 2 loops, got {h.n_pairs}")
    s, u, T = _legs(h)
    ratio4 = (asld(p.omega1) * s[: len(u)] + asld(p.omega2) * u) / T
    return DiagnosticSeries(ratios=(*_ratios(s, u, T), ratio4))


def _tail_spread_ok(seq: np.ndarray, k: int = 3, rel: float = 1e-3) -> bool:
    vals = seq[~np.isnan(seq)]
    if len(vals) < k:
        return False
    tail = vals[-k:].astype(float)
    return bool(np.std(tail) <= rel * abs(np.mean(tail)))


def estimate_invariants(h: HittingSequence) -> InvariantTuple:
    """Recover the invariant tuple from a hitting sequence alone.

    No model parameters are consulted: everything is read off the
    crossing times and lifted crossing angles.

    * ``gamma1``: last ratio of the two sojourn legs.
    * ``gamma2``: least squares on the exact relation
      ``s[i] = gamma2*u[i-1] + const`` over the last few loops (the
      constant soaks up the ``-ln(a)/E1`` offset, so the slope is exact
      once perturbations have decayed).
    * ``tau*ln(a)``: negative tail of the loop-duration combination,
      ``-(T[last] - gamma1*gamma2*T[last-1])``.
    * the twist combination: ``omega2`` from the winding of the final
      second-cylinder leg, ``omega1`` and the angle scaling from the
      two-unknown linear relation ``theta[2i+1] = x*theta[2i] + w*s[i]``
      solved on the last two loops, then assembled through the ratio
      ``(omega1*s + omega2*u)/T`` whose idealized value is the twist
      combination over ``gamma1 + 1``.

    Raises
    ------
    InsufficientData
        Fewer than 5 loops.
    NonConvergent
        The tails of the ratio diagnostics have not stabilized (relative
        spread above 1e-3 over the last three entries), or the angle
        relation is numerically degenerate.
    """
    if h.n_pairs < 5:
        raise InsufficientData(
            f"invariant estimation needs at least 5 loops, got {h.n_pairs}"
        )
    s, u, T = _legs(h)
    P = h.n_pairs

    ratio1, ratio2, ratio3 = _ratios(s, u, T)
    for name, seq in (("ratio1", ratio1), ("ratio2", ratio2), ("ratio3", ratio3)):
        if not _tail_spread_ok(seq):
            raise NonConvergent(
                f"{name} tail has not stabilized; the input series does not "
                "look like hitting times of this model"
            )

    gamma1_hat = ratio1[-1]

    # slope of s[i] against u[i-1] over the last (up to) five loops
    rows = min(5, P)
    x = u[P - rows :]
    y = s[P - rows + 1 : P + 1]
    xm, ym = x.mean(), y.mean()
    denom = ((x - xm) ** 2).sum()
    if not (denom > 0):
        raise NonConvergent("sojourn legs are constant; cannot estimate gamma2")
    gamma2_hat = ((x - xm) * (y - ym)).sum() / denom

    delta_hat = gamma1_hat * gamma2_hat
    tau_log_a_hat = -(T[-1] - delta_hat * T[-2])

    omega2_hat = (h.theta[2 * P] - h.theta[2 * P - 1]) / u[P - 1]

    # exact per-loop relation theta[2i+1] = x*theta[2i] + w*s[i]; two rows
    # from the final loops pin (x, w) = (1/a, omega1)
    q1, q2 = h.theta[2 * (P - 1)], h.theta[2 * P]
    y1, y2 = h.theta[2 * (P - 1) + 1], h.theta[2 * P + 1]
    s1, s2 = s[P - 1], s[P]
    det = q1 * s2 - q2 * s1
    scale = max(abs(q1 * s2), abs(q2 * s1), LD(1.0))
    if not (abs(det) > LD(1e-13) * scale):
        raise NonConvergent(
            "angle relation is degenerate for this seed; cannot separate "
            "the twist rate from the angle scaling"
        )
    omega1_hat = (q1 * y2 - q2 * y1) / det

    ratio4_tail = (omega1_hat * s[P - 1] + omega2_hat * u[P - 1]) / T[P - 1]
    combo_hat = (gamma1_hat + LD(1.0)) * ratio4_tail

    return InvariantTuple(
        gamma1=gamma1_hat,
        gamma2=gamma2_hat,
        omega_combo=combo_hat,
        tau_log_a=tau_log_a_hat,
    )


def perturbation_decay_slope(h: HittingSequence, p: SystemParams) -> float:
    """Log-log decay rate of ``lemma2`` against the reinjected height.

    Fits ``ln|lemma2[i]|`` against ``ln(a * z[2i])`` — the height at
    which loop ``i`` re-enters the first cylinder — over the entries that
    sit above the extended-precision noise floor, and returns the slope.
    The perturbation bound predicts a slope of at least ``delta1 * eps``.
    Only the first couple of loops carry measurable signal (the decay is
    double-exponential in ``i``), so the fit is deliberately restricted
    to honest data instead of regressing on rounding noise.

    Raises
    ------
    InsufficientData
        Fewer than two loops above the noise floor — in particular, for
        idealized runs, where the combination is identically zero.
    """
    d = derive_constants(p)
    lemma2 = lemma_diagnostics(h, d).lemma2
    s, u, _ = _legs(h)
    scale = np.maximum(np.maximum(abs(u), abs(d.gamma1 * s[: len(u)])), LD(1.0))
    val = abs(lemma2)
    above = val > LD(1e3) * np.finfo(LD).eps * scale
    if np.count_nonzero(above) < 2:
        raise InsufficientData(
            "no perturbation signal above the noise floor; "
            "the decay slope is only defined for perturbed runs"
        )
    # ln of the height at which loop i re-enters the first cylinder
    xs = (d.log_a + h.log_coord[0:-2:2])[above]
    return float(np.polyfit(xs.astype(float), np.log(val[above]).astype(float), 1)[0])
