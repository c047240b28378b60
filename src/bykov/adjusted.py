"""Idealized ("adjusted") hitting times extracted from a measured orbit.

The loop durations ``T[i] = t[2i+2] - t[2i]`` of a perturbed orbit obey
the idealized recursion ``T[i] = delta*T[i-1] - tau*ln(a)`` only up to a
summable residual.  Chaining each measured ``T[i]`` backward ``i`` times
through the exact recursion,

    chain step:  previous = (value + tau*ln(a)) / delta,

produces a family of candidate zeroth durations whose successive
differences shrink geometrically; its limit ``T0`` seeds an exactly
recursive duration sequence ``T_seq`` and from it two adjusted time
grids:

* zero-anchored (``t_even_zero[0] = 0``): the normalized representative
  that coordinate recovery consumes;
* offset-anchored: shifted by ``offset = sum(T[k] - T_seq[k])`` so the
  *measured* even times converge to the adjusted ones.

Both are exposed because no single anchoring satisfies "starts at zero"
and "is the asymptotic shadow of the measured times" at once; the two
grids differ by the reported constant ``offset`` (zero for idealized
input, up to rounding).

Odd adjusted times interpolate each even gap in the ratio set by the
first saddle index: ``t_odd[i] = (t_even[i+1] + gamma1*t_even[i]) /
(1 + gamma1)``, making every adjusted-leg identity exact by
construction.

The ``i`` chain steps have a closed form: with the step's fixed point
``x* = tau*ln(a) / (delta - 1)``, element ``i`` of the family is
``x* + (T[i] - x*) * delta**-i``, evaluated as
``T[i]*delta**-i - x* * expm1(-i*log1p(delta - 1))``.  As ``delta``
approaches 1, ``x*`` grows like ``1/(delta - 1)`` and the shorter form
loses the digits of ``T[i]`` to cancellation, while ``expm1`` and
``log1p`` keep ``1 - delta**-i`` to a few ulps however small it is.
The powers ``delta**-i`` are constants of the parameter set: the
``SystemParams`` object keeps them, and computes each once; the
``expm1`` term is computed on every call.

The forward recursion that builds ``T_seq`` from ``T0`` is
``bykov._num._affine_iterates``: long-double scalar steps until
``delta*T`` is so large that subtracting ``tau*ln(a)`` no longer changes
it, then one ``np.multiply.accumulate`` over ``delta``, bit for bit the
scalar loop.  It is not the closed form of the backward chain: forward,
``expm1`` would amplify the rounding of its argument ``i*ln(delta)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._num import _INF, _NEG_INF, LD, _affine_iterates, _limit
from .errors import InsufficientData, InvalidTimes
from .hitting import HittingSequence, _legs
from .params import SystemParams, _check_count

__all__ = ["AdjustedTimes", "adjusted_sequence", "shift_invariance_check"]


@dataclass(frozen=True)
class AdjustedTimes:
    """Adjusted durations and hitting-time grids (all ``np.longdouble``).

    ``T0_family`` is the backward family the limit was extracted from,
    one candidate zeroth duration per measured loop: element ``i``
    carries ``T[i]`` back ``i`` chain steps to index 0.  In the idealized
    model the family is constant up to rounding; in general successive
    differences equal the recursion residuals scaled by ``delta**-(i+1)``.
    ``residual_tail_bound`` bounds how far the true limit can sit beyond
    its last element.  ``t_even``/``t_odd`` are offset-anchored,
    ``t_even_zero``/``t_odd_zero`` are the zero-anchored representative.
    """

    T0_family: np.ndarray
    T0: np.longdouble
    T_seq: np.ndarray
    t_even: np.ndarray
    t_odd: np.ndarray
    t_even_zero: np.ndarray
    t_odd_zero: np.ndarray
    offset: np.longdouble
    residual_tail_bound: float


def _carry_back(T: np.ndarray, p: SystemParams) -> np.ndarray:
    """Carry each ``T[i]`` back ``i`` chain steps, in the module docstring's closed form.

    An infinite ``T[i]`` whose ``delta**-i`` underflowed to 0 gives NaN,
    unwarned; the caller refuses it as a loop that is not finite.
    """
    i = np.arange(len(T), dtype=LD)
    step = p.delta - LD(1.0)
    with np.errstate(invalid="ignore"):
        return (T * p._inverse_powers(len(T))
                - p.invariants.tau_log_a / step * np.expm1(-i * np.log1p(step)))


def adjusted_sequence(
    h: HittingSequence, p: SystemParams, n: int | None = None
) -> AdjustedTimes:
    """Build the adjusted duration and time grids from a measured orbit.

    ``n`` is the number of adjusted loops wanted (default: every measured
    loop); the exact recursion extrapolates cleanly, so ``n`` may exceed
    the measured horizon, up to the loop whose durations or times leave
    the long-double range: that one raises
    :class:`~bykov.errors.InvalidTimes`.
    """
    if n is None:
        n = h.n_pairs
    if _check_count(n, "n") < 1:
        raise InsufficientData(f"need at least one adjusted loop, got n={n}")
    if h.n_pairs < 2:
        raise InsufficientData(
            f"the backward family needs at least 2 loops, got {h.n_pairs}"
        )
    T = _legs(h)[2]
    family = _carry_back(T, p)
    T0, tail_bound = _limit(family)

    c, factors = -p.invariants.tau_log_a, (p.delta,)  # T' = c + delta*T
    with np.errstate(over="ignore", invalid="ignore"):  # refused below instead
        # the measured loops, untested; past them, runs of doubling length, up
        # to n or to the first run that ends on a duration that is not finite:
        # no later one is finite again, and the first such loop is refused
        runs, done = [_affine_iterates(T0, c, factors, len(T))], len(T)
        while done < n and _NEG_INF < runs[-1][-1] < _INF:
            more = min(n - done, done)
            runs.append(_affine_iterates(runs[-1][-1], c, factors, more + 1)[1:])
            done += more
        T_seq_full = np.concatenate(runs)
        offset = np.add.reduce(T - T_seq_full[: len(T)])

        m = min(n, done)
        t_even_zero = np.zeros(m + 1, dtype=LD)
        np.add.accumulate(T_seq_full[:m], out=t_even_zero[1:])
        t_odd_zero = (t_even_zero[1:] + p.gamma1 * t_even_zero[:-1]) / (LD(1.0) + p.gamma1)
        t_even, t_odd = t_even_zero + offset, t_odd_zero + offset
    # loop k ends at t_even[k+1]; a duration or zero-anchored time of loop
    # k that is not finite makes t_even[k+1] or t_odd[k] not finite too
    finite = np.isfinite(t_even[1:]) & np.isfinite(t_odd)
    if not finite.all():
        raise InvalidTimes(
            f"adjusted loop {np.argmin(finite)} is not finite: the exact recursion "
            f"leaves the long-double range before n={n}"
        )

    return AdjustedTimes(
        T0_family=family,
        T0=T0,
        T_seq=T_seq_full[:n],
        t_even=t_even,
        t_odd=t_odd,
        t_even_zero=t_even_zero,
        t_odd_zero=t_odd_zero,
        offset=offset,
        residual_tail_bound=tail_bound,
    )


def shift_invariance_check(h: HittingSequence, p: SystemParams, N: int) -> float:
    """Rebuild the backward family anchored at loop ``N`` and compare.

    Carrying each ``T[i]``, ``i >= N``, back ``i - N`` steps (instead of
    ``i``) must land on the forward iterate of the same limit,
    ``T_seq[N]`` of :func:`adjusted_sequence`.  Returns the largest
    absolute deviation of the re-anchored family from that value; for
    idealized input it is rounding-level, and in general it is controlled
    by the residual tail beyond loop ``N``.
    """
    if not 0 <= _check_count(N, "N") < h.n_pairs - 2:
        raise InsufficientData(
            f"shift check needs 0 <= N < n_pairs - 2 = {h.n_pairs - 2}, got {N}"
        )
    family_N = _carry_back(_legs(h)[2][N:], p)
    target = adjusted_sequence(h, p).T_seq[N]
    return float(np.max(np.abs(family_N - target)))
