"""Exact hitting-time sequences of the section-to-section dynamics."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._num import LD
from .errors import DegenerateInput, InsufficientData
from .flow import SectionPoint, _check_crossing, _half_transition, _leg_constants
from .params import SystemParams, _check_count

__all__ = ["HittingSequence", "generate_hitting_sequence", "sojourn_fractions"]


@dataclass(frozen=True)
class HittingSequence:
    """Crossing times, lifted angles and log-coordinates of one orbit.

    Index convention: ``times[0] = 0`` is the seed crossing of ``Out2``;
    ``times[2i]`` is the ``i``-th ``Out2`` crossing and ``times[2i+1]``
    the following ``Out1`` crossing.  A run of ``n_pairs`` loops records
    ``2*n_pairs + 1`` times beyond the seed, so ``times`` has length
    ``2*n_pairs + 2`` and ends on an ``Out1`` crossing.

    ``theta[k]`` and ``log_coord[k]`` are the lifted angle and the log of
    the non-unit coordinate of crossing ``k``, in the chart given by the
    parity of ``k``: even indices lie on ``Out2`` (log height), odd ones
    on ``Out1`` (log radius).

    ``sojourns_V1`` holds the ``n_pairs + 1`` passage times through the
    first cylinder, ``sojourns_V2`` the ``n_pairs`` passages through the
    second; ``times`` is exactly the cumulative sum of the interleaved
    sojourns (the gluing and the reinjection take no time).
    """

    times: np.ndarray
    theta: np.ndarray
    log_coord: np.ndarray
    sojourns_V1: np.ndarray
    sojourns_V2: np.ndarray
    n_pairs: int


def generate_hitting_sequence(
    q0: SectionPoint, p: SystemParams, n_pairs: int
) -> HittingSequence:
    """Run ``n_pairs`` full loops from an ``Out2`` seed, recording crossings.

    The seed is taken at time zero.  Each loop contributes one ``V1``
    sojourn (ending on ``Out1``) and one ``V2`` sojourn (ending on
    ``Out2``); a final ``V1`` sojourn is appended so the sequence closes
    on an odd-indexed crossing, which several diagnostics need.
    """
    if q0.chart != "Out2":
        raise DegenerateInput(
            f"seed must lie on Out2 (exit of the second cylinder), got {q0.chart}"
        )
    if _check_count(n_pairs, "n_pairs") < 1:
        raise InsufficientData(f"n_pairs must be at least 1, got {n_pairs}")
    leg1, leg2, a, log_a = _leg_constants(p)

    n = 2 * n_pairs + 2
    theta = np.empty(n, dtype=LD)
    log_coord = np.empty(n, dtype=LD)
    legs = np.empty(n - 1, dtype=LD)
    th, lc = q0.theta_lifted, q0.log_coord
    theta[0], log_coord[0] = th, lc
    times = np.zeros(n, dtype=LD)
    # a value that overflows is refused by the checks below as DegenerateInput,
    # not by NumPy's warning, which a caller's filter may turn into an error
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, n):
            if k % 2:  # reinjection psi21 onto In1, then the V1 sojourn to Out1
                legs[k - 1], lc, th = _half_transition(log_a + lc, th / a, *leg1)
            else:  # Out1 is glued to In2; the V2 sojourn to Out2
                legs[k - 1], lc, th = _half_transition(lc, th, *leg2)
            # the In1 point in between needs no check of its own: its log height
            # is log_coord[k-1] + ln(a) < 0, and a non-finite angle shows at k
            _check_crossing(th, lc)
            theta[k], log_coord[k] = th, lc
        np.cumsum(legs, out=times[1:])
        increasing = np.all(np.diff(times) > 0)
    if not increasing:
        raise DegenerateInput("hitting times failed to increase strictly")
    return HittingSequence(
        times=times,
        theta=theta,
        log_coord=log_coord,
        sojourns_V1=legs[0::2].copy(),
        sojourns_V2=legs[1::2].copy(),
        n_pairs=n_pairs,
    )


def _legs(h: HittingSequence) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The sojourn legs ``s``, ``u`` and the loop durations ``T = s + u``."""
    s, u = h.sojourns_V1, h.sojourns_V2
    return s, u, s[: len(u)] + u


def sojourn_fractions(h: HittingSequence, upto_index: int) -> tuple[np.longdouble, np.longdouble]:
    """Fractions of ``[0, times[upto_index]]`` spent in each cylinder.

    The two fractions partition the window exactly: the second is
    computed as one minus the first, and the elapsed time is itself a sum
    of sojourns.  ``upto_index`` must point at a crossing after the seed.
    """
    if not 1 <= _check_count(upto_index, "upto_index") < len(h.times):
        raise InsufficientData(
            f"upto_index must lie in [1, {len(h.times) - 1}], got {upto_index}"
        )
    frac1 = h.sojourns_V1[: (upto_index + 1) // 2].sum() / h.times[upto_index]
    return frac1, LD(1.0) - frac1
