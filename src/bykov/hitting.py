"""Exact hitting-time sequences of the section-to-section dynamics."""

from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np

from ._num import _INF, _NEG_INF, _ZERO, LD, _affine_iterates
from .errors import DegenerateInput, InsufficientData
from .flow import SectionPoint, _check_crossing, _half_transition
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
    sojourns (the gluing and the reinjection take no time).  In a
    generated sequence the two ledgers are the strided views ``legs[0::2]``
    and ``legs[1::2]`` of one array of the ``2*n_pairs + 1`` sojourns in
    crossing order, not copies.

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
    A refused request is not remembered and raises again.  An inadmissible
    parameter set is refused with
    :class:`~bykov.errors.ConstraintViolation` before the request is
    looked up, as an unhashable field would otherwise fail the lookup.

    Each crossing is written once, into arrays of their final length; the
    two ledgers are read-only views of one array of sojourns.

    The orbit has a head and a tail.  The head runs the shared kernel
    (``flow._half_transition``) loop by loop while a loop's ``V1`` entry
    ``y = ln a + log`` or its ``V2`` entry ``S1*y`` lies at or above its
    leg's cut-off, or is NaN.  From the first loop with both entries below
    their cut-offs to the closing ``V1`` leg, the kernel would take its
    idealized branch on every leg, and the tail computes that branch: the
    ``V1`` entries ``y' = ln a + S2*(S1*y)`` are stepped as long-double
    scalars until ``ln a`` no longer changes a sum, and from there on are
    one ``np.multiply.accumulate`` over the saddle indices, bit for bit
    (``bykov._num._affine_iterates``); the ``Out2`` angles
    ``th' = (th/a + w1*s) + w2*u`` are stepped as long-double scalars, as
    their two terms have the same size and neither is absorbed;
    the exits ``S1*y`` and ``S2*(S1*y)``, the transits ``s = -y/E1`` and
    ``u = -(S1*y)/E2``, the terms ``w1*s`` and ``w2*u`` and the ``Out1``
    angles ``th/a + w1*s`` are array operations.  No later entry lies at
    or above its cut-off again.  The first tail entry ``y`` is negative:
    it lies below a finite cut-off, which is negative, or, when both are
    ``+inf``, it is ``ln a`` plus the seed's log.  With ``ln a < 0`` and
    saddle indices ``S1, S2 > 1``, each exact product and sum in
    ``ln a + S2*(S1*y)`` lies below its operand, and rounding is monotone,
    so neither entry ever increases, and neither turns NaN (``-inf`` stays
    ``-inf``).  The array operations are the kernel's IEEE long-double
    operations on the same operands in the same order, so every value,
    ``inf`` and NaN included, has the bits the kernel would give it; the
    transits divide ``y`` by ``-E1``, which rounds the same magnitude as
    ``-y/E1`` and gives it the same sign.

    Each crossing after the seed must pass the checks of ``SectionPoint``,
    and the first one that fails is refused with its message.  The orbit
    is stepped unchecked and then tested once: the largest log-coordinate
    after the seed is negative (a NaN makes it NaN, which fails), and the
    last crossing has a finite angle and a log above ``-inf``.  A non-finite
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
    p._kernel  # validates the set, which is hashed only once admissible
    th = q0.theta_lifted
    key = (th, np.signbit(th), q0.log_coord, p, n_pairs)
    h = _LIVE.get(key)
    if h is None:
        h = _LIVE[key] = _generate(q0, p, n_pairs)
    return h


def _generate(q0: SectionPoint, p: SystemParams, n_pairs: int) -> HittingSequence:
    """The generator's body: the orbit of a checked request, its arrays read-only."""
    leg1, leg2, a, log_a, _ = p._kernel
    E1, S1, w1, _, _, cut1 = leg1
    E2, S2, w2, _, _, cut2 = leg2
    n = 2 * n_pairs + 2
    theta, log_coord, legs = np.empty(n, LD), np.empty(n, LD), np.empty(n - 1, LD)
    th = theta[0] = q0.theta_lifted
    lc = log_coord[0] = q0.log_coord
    j = 0  # the last crossing written
    # a value that overflows is refused by the checks below as DegenerateInput,
    # not by NumPy's warning, which a caller's filter may turn into an error
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            # the head: each loop reinjects the last Out2 crossing onto In1, as
            # psi21 does, and returns through Out1 to Out2, until both entries
            # of a loop lie below their cut-offs; the In1 point needs no check
            # of its own: its log height is ln(a) plus the Out2 one, and its
            # angle, if not finite, stays so at every later crossing
            for k in range(n_pairs + 1):
                y = log_a + lc
                if y < cut1 and S1 * y < cut2:
                    break
                legs[j], lc, th = _half_transition(y, th / a, *leg1)
                j += 1
                theta[j], log_coord[j] = th, lc
                if k == n_pairs:  # the closing V1 sojourn
                    break
                legs[j], lc, th = _half_transition(lc, th, *leg2)
                j += 1
                theta[j], log_coord[j] = th, lc
        except DegenerateInput:
            # a crossing before the refused leg comes first
            _check_crossings(theta[: j + 1], log_coord[: j + 1])
            raise
        # the tail, from Out2 crossing j, whose V1 entry is y, to the closing
        # leg; it has m V1 legs, none when the closing leg ran in the head
        m = (n - j) // 2
        if m:
            Y, X = _affine_iterates(y, log_a, (S1, S2), m), log_coord[j + 1 :: 2]
            np.multiply(S1, Y, out=X)  # the Out1 logs, V2 entries but the last
            np.multiply(S2, X[:-1], out=log_coord[j + 2 :: 2])
            s, u = legs[j::2], legs[j + 1 :: 2]
            np.divide(Y, -E1, out=s)  # -y/E1, negated in the divisor
            np.divide(X[:-1], -E2, out=u)
            W1, W2 = w1 * s, w2 * u
            theta[j + 2 :: 2] = np.fromiter(_out2_angles(th, a, W1, W2), LD, m - 1)
            np.add(theta[j:-1:2] / a, W1, out=theta[j + 1 :: 2])
        if not (np.maximum.reduce(log_coord[1:]) < _ZERO and _NEG_INF < theta[-1] < _INF
                and _NEG_INF < log_coord[-1]):
            _check_crossings(theta, log_coord)
        times = np.zeros(n, dtype=LD)
        np.add.accumulate(legs, out=times[1:])
        increasing = (times[1:] > times[:-1]).all()
    if not increasing:
        raise DegenerateInput("hitting times failed to increase strictly")
    # an infinite time before the last is no greater than the next, refused
    # above; the last one can overflow alone, when the closing sojourn is added
    if not times[-1] < np.inf:
        raise DegenerateInput(f"the hitting time of crossing {n - 1} is not finite: {times[-1]}")
    for arr in (times, theta, log_coord, legs):
        arr.setflags(write=False)
    # the ledgers are views of the read-only legs, so read-only too
    return HittingSequence(times=times, theta=theta, log_coord=log_coord,
                           sojourns_V1=legs[0::2], sojourns_V2=legs[1::2], n_pairs=n_pairs)


def _out2_angles(th, a, W1, W2):
    """The tail's ``Out2`` angles after ``th``: ``th' = (th/a + w1*s) + w2*u``."""
    for w1s, w2u in zip(W1, W2):
        th = th / a + w1s + w2u
        yield th


def _check_crossings(thetas, logs) -> None:
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
