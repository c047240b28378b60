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

The family is that of ``i`` scalar chain steps from ``T[i]``, bit for
bit.  Carrying every chain is ``n**2/2`` steps, but the chains merge:
the step is one fixed function of one long double, so once chain ``i``
lands on the value chain ``i-1`` holds at the same distance from index
0, the two stay equal and element ``i`` is a copy of element ``i-1``.
Equality, not closeness, decides a merge, so copying keeps every bit.
On 1000-loop orbits about 70% of the chains have merged within 17
steps, and the carry takes about 0.3 of the ``n**2/2`` steps (see
:func:`_carry_back`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._num import LD
from .errors import InsufficientData
from .hitting import HittingSequence, _legs
from .params import DerivedConstants, _check_count

__all__ = [
    "AdjustedTimes",
    "adjusted_sequence",
    "shift_invariance_check",
]


@dataclass(frozen=True)
class AdjustedTimes:
    """Adjusted durations and hitting-time grids (all ``np.longdouble``).

    ``T0_family`` is the backward family the limit was extracted from,
    one candidate zeroth duration per measured loop: element ``i``
    carries ``T[i]`` back ``i`` chain steps to index 0.  In the idealized
    model the family is constant; in general successive differences equal
    the recursion residuals scaled by ``delta**-(i+1)``.
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


# passes over every chain before the merge test (see _carry_back)
_HEAD_PASSES = 16


def _carry_back(T: np.ndarray, d: DerivedConstants) -> np.ndarray:
    """Carry each ``T[i]`` back ``i`` chain steps, copying chains that merge.

    Pass ``j`` applies the chain step ``B(x) = (x + tau*ln a) / delta``
    to every chain ``i >= j``, in place, so element ``i`` takes exactly
    ``i`` steps in the order a scalar chain takes them.  After pass ``j``
    chain ``i`` sits ``i - j`` steps from index 0 and chain ``i-1`` one
    step closer.  If pass ``j+1`` takes chain ``i`` to the value chain
    ``i-1`` holds after pass ``j``, the two meet at the same distance and
    take the same rounded steps from there: ``family[i] == family[i-1]``.

    The first ``_HEAD_PASSES`` passes run over every chain and finish the
    chains up to that index.  The next pass is compared with the last of
    them, which finds every merge made by then.  Later passes run over the
    chains that own their value, and one gather copies each owner's value
    to the chains that merged into it.  On the 64 ``long_orbit`` orbits of the benchmark a
    test at pass 1 leaves about half of the chains to carry, and the test
    at pass 17 about 0.3.  The constants are 0-d arrays, which NumPy
    takes faster than long-double scalars.
    """
    c, delta = np.array(d.invariants.tau_log_a), np.array(d.delta)
    family = np.array(T, dtype=LD)
    for j in range(1, min(_HEAD_PASSES + 1, len(family))):
        tail = family[j:]
        tail += c
        tail /= delta
    if len(family) <= _HEAD_PASSES + 1:  # every chain is finished
        return family
    rest = family[_HEAD_PASSES:]  # chain _HEAD_PASSES + r is r steps from index 0
    step = rest[1:] + c
    step /= delta
    own = np.ones(len(rest), dtype=bool)
    own[1:] = step != rest[:-1]
    rest[1:] = step
    owners = own.nonzero()[0]
    v = rest[owners]
    done = 1
    for m, r in enumerate(owners[1:].tolist(), 1):
        tail = v[m:]  # every owner from r on takes r - done more steps
        for _ in range(r - done):
            tail += c
            tail /= delta
        done = r
    rest[1:] = v[own[1:].cumsum()]
    return family


def _extract_limit(family: np.ndarray) -> tuple[np.longdouble, float]:
    """Tail element of the family plus a geometric bound on what remains."""
    diffs = np.abs(np.diff(family))
    floor = LD(16.0) * np.finfo(LD).eps * np.max(np.abs(family))
    significant = np.nonzero(diffs > floor)[0]
    if len(significant) == 0:
        bound = float(diffs.max()) if len(diffs) else 0.0
        return family[-1], bound
    k = significant[-1]
    d_last = diffs[k]
    if k >= 1 and diffs[k - 1] > floor and diffs[k - 1] > d_last:
        ratio = min(float(d_last / diffs[k - 1]), 0.9)
    else:
        ratio = 0.5
    bound = float(d_last) * ratio / (1.0 - ratio)
    return family[-1], bound


def adjusted_sequence(
    h: HittingSequence, d: DerivedConstants, n: int | None = None
) -> AdjustedTimes:
    """Build the adjusted duration and time grids from a measured orbit.

    ``n`` is the number of adjusted loops wanted (default: every measured
    loop); the exact recursion extrapolates cleanly, so ``n`` may exceed
    the measured horizon.
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
    family = _carry_back(T, d)
    T0, tail_bound = _extract_limit(family)

    delta, tau_log_a = d.delta, d.invariants.tau_log_a
    seq = [T0]
    for _ in range(1, max(n, len(T))):
        seq.append(delta * seq[-1] - tau_log_a)
    T_seq_full = np.array(seq, dtype=LD)
    offset = np.sum(T - T_seq_full[: len(T)], dtype=LD)

    t_even_zero = np.empty(n + 1, dtype=LD)
    t_even_zero[0] = LD(0.0)
    np.cumsum(T_seq_full[:n], out=t_even_zero[1:])
    t_odd_zero = (t_even_zero[1:] + d.gamma1 * t_even_zero[:-1]) / (LD(1.0) + d.gamma1)

    return AdjustedTimes(
        T0_family=family,
        T0=T0,
        T_seq=T_seq_full[:n],
        t_even=t_even_zero + offset,
        t_odd=t_odd_zero + offset,
        t_even_zero=t_even_zero,
        t_odd_zero=t_odd_zero,
        offset=offset,
        residual_tail_bound=tail_bound,
    )


def shift_invariance_check(h: HittingSequence, d: DerivedConstants, N: int) -> float:
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
    family_N = _carry_back(_legs(h)[2][N:], d)
    target = adjusted_sequence(h, d).T_seq[N]
    return float(np.max(np.abs(family_N - target)))
