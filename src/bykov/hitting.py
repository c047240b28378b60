"""Exact hitting-time sequences of the section-to-section dynamics."""

from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np

from ._num import LD
from .errors import DegenerateInput, InsufficientData
from .flow import (
    _INF,
    _NEG_INF,
    _ZERO,
    SectionPoint,
    _check_crossing,
    _half_transition,
    _leg_constants,
)
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

    The five arrays of a generated sequence are read-only: writing into
    one raises ``ValueError``.  :func:`generate_hitting_sequence` hands
    one sequence to every equal request while it is alive, so no caller
    may change it for the others.
    """

    times: np.ndarray
    theta: np.ndarray
    log_coord: np.ndarray
    sojourns_V1: np.ndarray
    sojourns_V2: np.ndarray
    n_pairs: int


# the orbits alive somewhere in the process, by request; an orbit every caller
# has dropped leaves, so nothing here keeps one alive
_LIVE: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


def generate_hitting_sequence(
    q0: SectionPoint, p: SystemParams, n_pairs: int
) -> HittingSequence:
    """Run ``n_pairs`` full loops from an ``Out2`` seed, recording crossings.

    The seed is taken at time zero.  Each loop contributes one ``V1``
    sojourn (ending on ``Out1``) and one ``V2`` sojourn (ending on
    ``Out2``); a final ``V1`` sojourn is appended so the sequence closes
    on an odd-indexed crossing, which several diagnostics need.

    Equal requests share one orbit while it is alive: a seed with the same
    angle (sign bit included, so ``-0.0`` is not ``+0.0``) and log
    coordinate, equal parameters and the same loop count get the sequence
    already generated, not a copy, which is why its arrays are read-only.
    A refused request is not remembered and raises again.

    Each crossing after the seed must pass the checks of ``SectionPoint``,
    and the first one that fails is refused with its message.  The orbit
    is stepped unchecked and then tested once: every log-coordinate after
    the seed is negative (NaN fails the comparison too), and the last
    crossing has a finite angle and a log above ``-inf``.  A non-finite
    angle or a ``-inf`` log never turns finite again on the way to the
    last crossing, through ``th / a``, ``+ ln a``, ``+ twist*transit`` or
    a correction, which a non-finite angle makes NaN and the kernel
    refuses.  So the test passes exactly when every crossing passes its
    check.  When it fails, or the kernel refuses a leg, the stored
    crossings are checked in order, which raises the refusal that a check
    of each crossing as it was produced would have raised.
    """
    if q0.chart != "Out2":
        raise DegenerateInput(
            f"seed must lie on Out2 (exit of the second cylinder), got {q0.chart}"
        )
    n_pairs = _check_count(n_pairs, "n_pairs")
    if n_pairs < 1:
        raise InsufficientData(f"n_pairs must be at least 1, got {n_pairs}")
    th = q0.theta_lifted
    key = (th, np.signbit(th), q0.log_coord, p, n_pairs)
    h = _LIVE.get(key)
    if h is None:
        h = _LIVE[key] = _generate(q0, p, n_pairs)
    return h


def _generate(q0: SectionPoint, p: SystemParams, n_pairs: int) -> HittingSequence:
    """The generator's body: the orbit of a checked request, its arrays read-only."""
    leg1, leg2, a, log_a, _ = _leg_constants(p)
    th, lc = q0.theta_lifted, q0.log_coord
    thetas, logs, legs = [th], [lc], []
    # a value that overflows is refused by the checks below as DegenerateInput,
    # not by NumPy's warning, which a caller's filter may turn into an error
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            # each loop reinjects the last Out2 crossing onto In1, as psi21
            # does, and returns through Out1 to Out2; the In1 point needs no
            # check of its own: its log height is ln(a) plus the Out2 one,
            # and its angle, if not finite, stays so at every later crossing
            for _ in range(n_pairs):
                s, lc, th = _half_transition(log_a + lc, th / a, *leg1)
                thetas.append(th)
                logs.append(lc)
                u, lc, th = _half_transition(lc, th, *leg2)
                thetas.append(th)
                logs.append(lc)
                legs += s, u
            # the closing V1 sojourn
            s, lc, th = _half_transition(log_a + lc, th / a, *leg1)
        except DegenerateInput:
            _check_crossings(thetas, logs)  # a crossing before the refused leg comes first
            raise
        thetas.append(th)
        logs.append(lc)
        legs.append(s)
        log_coord = np.array(logs, dtype=LD)
        if not ((log_coord[1:] < _ZERO).all() and _NEG_INF < th < _INF and _NEG_INF < lc):
            _check_crossings(thetas, logs)
        n = 2 * n_pairs + 2
        times = np.zeros(n, dtype=LD)
        legs = np.array(legs, dtype=LD)
        np.cumsum(legs, out=times[1:])
        increasing = np.all(np.diff(times) > 0)
    if not increasing:
        raise DegenerateInput("hitting times failed to increase strictly")
    # an infinite time before the last makes a difference NaN, refused above;
    # the last one can overflow alone, when the closing sojourn is added
    if not times[-1] < np.inf:
        raise DegenerateInput(f"the hitting time of crossing {n - 1} is not finite: {times[-1]}")
    h = HittingSequence(
        times=times,
        theta=np.array(thetas, dtype=LD),
        log_coord=log_coord,
        sojourns_V1=legs[0::2].copy(),
        sojourns_V2=legs[1::2].copy(),
        n_pairs=n_pairs,
    )
    for arr in (h.times, h.theta, h.log_coord, h.sojourns_V1, h.sojourns_V2):
        arr.setflags(write=False)
    return h


def _check_crossings(thetas: list, logs: list) -> None:
    """:func:`_check_crossing` on each stored crossing in turn: the first one off raises."""
    for th, lc in zip(thetas, logs):
        _check_crossing(th, lc)


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
