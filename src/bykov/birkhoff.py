"""Birkhoff time-averages along orbits, and their two-limit certificate.

The time average ``(1/t) * integral_0^t G(orbit(s)) ds`` of a continuous
observable ``G`` does not converge on these orbits: sampled at the
odd-indexed hitting times it tends to one weighted mean of the two
equilibrium values, sampled at the even-indexed ones to another.  The
weights are set by the asymptotic fraction of time spent in each
cylinder, which alternates because consecutive sojourns stretch by the
saddle indices ``gamma1`` and ``gamma2`` in turn:

    even limit = (G1 + gamma1*G2) / (1 + gamma1)
    odd  limit = (gamma2*G1 + G2) / (1 + gamma2)

Two observable kinds are supported.  The piecewise-constant kind takes
the value ``g_sigma1`` everywhere in the first cylinder and ``g_sigma2``
in the second; orbit integrals are then exact sojourn sums, carried in
extended precision (stronger than the compensated double accumulation
the tolerances were budgeted for).  The smooth kind interpolates from
the equilibrium value to a common boundary value with profile
``max(rho, |z|)**m``.  It is integrated numerically, by composite
Gauss-Legendre on the composed function ``G(flow(t))`` (never on the
closed-form leg integrals the tests check it against), with one array
pass per orbit: the linear flow of a cylinder, evaluated at every node
of every leg at once.  The bitwise reference for that pass is the
longhand scalar flow, node by node, in ``tests/test_birkhoff.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ._num import LD, asld
from .errors import ConstraintViolation, DegenerateInput, InsufficientData
from .flow import SectionPoint
from .hitting import generate_hitting_sequence
from .params import SystemParams, _check_count, _check_tol, _is_real

__all__ = [
    "Observable",
    "AverageSeries",
    "Certificate",
    "predicted_limits",
    "birkhoff_average",
    "historic_certificate",
]


@dataclass(frozen=True)
class Observable:
    """A continuous scalar function of phase-space position.

    ``g_sigma1`` and ``g_sigma2`` are the (finite) values at the two
    equilibria.  For the smooth kind, a finite ``m > 0`` is the
    interpolation exponent and ``g_boundary`` the shared value on the
    cylinder boundaries (default: midpoint of the equilibrium values).
    Every number given must be a real number, not a bool.
    ``g_boundary`` must lie in the closed interval spanned by the
    equilibrium values so that every time average provably stays inside
    that interval too.
    """

    kind: str
    g_sigma1: float
    g_sigma2: float
    m: float | None = None
    g_boundary: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("piecewise_constant", "smooth"):
            raise ConstraintViolation(
                f"observable kind must be 'piecewise_constant' or 'smooth', got {self.kind!r}"
            )
        for name in ("g_sigma1", "g_sigma2", "m", "g_boundary"):
            value = getattr(self, name)
            if not (_is_real(value) or value is None and name in ("m", "g_boundary")):
                raise ConstraintViolation(f"{name} must be a real number, got {value!r}")
            if name.startswith("g_sigma") and not np.isfinite(value):
                raise ConstraintViolation(f"{name} must be finite, got {value}")
        if self.kind == "smooth":
            if self.m is None or not (0 < self.m < np.inf):
                raise ConstraintViolation(
                    f"smooth observables need a finite exponent m > 0, got {self.m}"
                )
            lo = min(self.g_sigma1, self.g_sigma2)
            hi = max(self.g_sigma1, self.g_sigma2)
            if self.g_boundary is not None and not (lo <= self.g_boundary <= hi):
                raise ConstraintViolation(
                    f"g_boundary must lie within [{lo}, {hi}], got {self.g_boundary}"
                )

    @property
    def boundary_value(self) -> float:
        if self.g_boundary is not None:
            return self.g_boundary
        return 0.5 * (self.g_sigma1 + self.g_sigma2)


@dataclass(frozen=True)
class AverageSeries:
    """Time averages sampled at hitting times, split by index parity.

    ``even_averages[k]`` is the average over ``[0, even_times[k]]`` and
    likewise for the odd arrays; ``*_indices`` hold the hitting indices
    for traceability.  The first even sample is at index 2 (the seed time
    is zero and admits no average).
    """

    even_averages: np.ndarray
    odd_averages: np.ndarray
    even_times: np.ndarray
    odd_times: np.ndarray
    even_indices: np.ndarray
    odd_indices: np.ndarray
    predicted_even: np.longdouble
    predicted_odd: np.longdouble


class Certificate(NamedTuple):
    verdict: bool
    gap: float


def _profile_value(G: Observable, g_sigma, rho_log, z_log):
    """The smooth observable ``g_sigma + (g_boundary - g_sigma) * max(rho, z)**m``.

    Takes log-coordinates, as scalars or arrays, and evaluates in float64.
    """
    profile = np.exp(float(G.m) * np.maximum(rho_log, z_log).astype(float))
    return float(g_sigma) + (G.boundary_value - float(g_sigma)) * profile


def predicted_limits(
    p: SystemParams, G: Observable
) -> tuple[np.longdouble, np.longdouble]:
    """The two subsequence limits of the time averages."""
    g1, g2 = asld(G.g_sigma1), asld(G.g_sigma2)
    even = (g1 + p.gamma1 * g2) / (LD(1.0) + p.gamma1)
    odd = (p.gamma2 * g1 + g2) / (LD(1.0) + p.gamma2)
    return even, odd


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(32)

# Exponent window kept by the boundary-layer clipping: contributions
# beyond exp(-_CLIP) of the peak are dropped (bounded far below the 1e-8
# relative target), and segments are capped at _SEG_SPAN e-foldings so
# the 32-node rule stays in its spectral-accuracy regime.
_CLIP = 60.0
_SEG_SPAN = 10.0

# a smooth leg of length L, expansion rate E and value g fits the float64
# arithmetic of the quadrature while L*max(2, E, |g| + |g_boundary - g|) stays
# below this: its node sums a + b, its entry log -E*L and its integral, below
# (|g| + |g_boundary - g|)*L, are all finite, with a hundredth for rounding
_FLOAT64_HOLD = LD(0.99) * LD(np.finfo(np.float64).max)


def _segments(lo: np.ndarray, hi: np.ndarray, n_seg: np.ndarray):
    """The segments of ``np.linspace(lo[i], hi[i], n_seg[i] + 1)`` for all ``i``, flat.

    Returns each segment's piece ``i``, midpoint and half-width.  The
    edges are rounded as ``linspace`` rounds them: ``k*step + lo`` with
    ``step = (hi - lo) / n_seg``, and exactly ``hi`` for the last one.
    """
    piece = np.repeat(np.arange(lo.size), n_seg)
    k = np.arange(piece.size) - np.repeat(np.cumsum(n_seg) - n_seg, n_seg)
    step = ((hi - lo) / n_seg)[piece]
    lo, hi = lo[piece], hi[piece]
    a = k * step + lo
    b = np.where(k + 1 < n_seg[piece], (k + 1) * step + lo, hi)
    return piece, 0.5 * (a + b), 0.5 * (b - a)


def _smooth_leg_integrals(
    G: Observable, g_sigma: float, log_in: np.ndarray, leg_len: np.ndarray,
    expand: float, contract: float,
) -> np.ndarray:
    """Integrate the smooth observable along the sojourn legs of one cylinder.

    ``g_sigma`` is the value at the cylinder's equilibrium, ``log_in``
    the log of each leg's entry coordinate (height on ``In1``, radius on
    ``In2``), which grows at rate ``expand`` while the other fades at rate
    ``contract``, and ``leg_len`` each leg's length.  The profile decays
    like ``exp(-m*contract*t)`` away from the entry wall and climbs back
    as ``exp(-m*expand*(T-t))`` toward the exit wall, with a kink where
    the two log-coordinates cross.  Each monotone piece is clipped to its
    contributing window and integrated by composite Gauss-Legendre on the
    *actual* composed function ``G(flow(t))``, the linear flow evaluated
    here in long double at every node of every leg in one array pass.  No
    closed forms are consumed here, so tests can check this route against
    them independently.  The nodes lie in ``[0, leg_len]``, and each
    ``leg_len`` is the sojourn ``-log_in/expand`` rounded to float64, so a
    node passes the exit by half a float64 ulp at most and is clamped onto it;
    within the float64 hold of :func:`birkhoff_average` no state leaves
    the unit cylinder or the float range.  Each segment's 32-node
    weighted sum is taken left to right (``cumsum``, not a pairwise
    ``sum``) and ``bincount`` adds each piece's segments in order, so
    every leg integral equals, bit for bit, a node-by-node loop that
    evaluates the linear flow longhand in scalar long double;
    ``tests/test_birkhoff.py`` keeps that loop as the reference.
    """
    m = float(G.m)
    contr, expd = float(contract), float(expand)
    fold1, fold2 = m * contr, m * expd  # e-foldings of the profile per unit time
    if not (0.0 < fold1 < np.inf and 0.0 < fold2 < np.inf):
        raise ConstraintViolation(f"m={m} leaves the float range in the e-folding rates")
    t_kink = (-log_in).astype(float) / (contr + expd)

    # decaying pieces [0, w1], profile exp(-m*contr*t); rising pieces
    # [leg_len - w2, leg_len], profile exp(-m*expand*(leg_len-t))
    w1 = np.minimum(t_kink, _CLIP / fold1)
    w2 = np.minimum(leg_len - t_kink, _CLIP / fold2)
    lo = np.concatenate([np.zeros_like(w1), leg_len - w2])
    hi = np.concatenate([w1, leg_len])
    e_folds = np.concatenate([fold1 * w1, fold2 * w2])
    n_seg = np.maximum(1, np.ceil(e_folds / _SEG_SPAN).astype(int))
    piece, mid, half = _segments(lo, hi, n_seg)

    # an expanding log-coordinate that the rounded multiply-add lands within
    # 64 ulps of |entry| above the boundary is on it
    entry, E = log_in[piece % leg_len.size, None], asld(expand)
    t = np.minimum((mid[:, None] + half[:, None] * _GL_NODES).astype(LD), -entry / E)
    growing = entry + E * t
    growing[(0 < growing) & (growing < 64 * np.finfo(LD).eps * np.maximum(1, abs(entry)))] = 0
    fading = 0 - asld(contract) * t
    f = _profile_value(G, g_sigma, growing, fading) - g_sigma
    sums = np.cumsum(f * _GL_WEIGHTS, axis=1)[:, -1]
    pieces = np.bincount(piece, weights=half * sums, minlength=lo.size)
    return g_sigma * leg_len + pieces[: leg_len.size] + pieces[leg_len.size :]


def birkhoff_average(
    q0: SectionPoint, p: SystemParams, G: Observable, upto_index: int
) -> AverageSeries:
    """Time averages of ``G`` at every hitting time through ``upto_index``.

    The orbit starts at the ``Out2`` seed ``q0`` at time zero; it is
    ``generate_hitting_sequence(q0, p, max(1, upto_index // 2))``, the
    very sequence the caller holds if it holds one.  For the
    piecewise-constant kind the running integral is an exact interleaved
    sojourn sum; for the smooth kind each leg is integrated to a relative
    accuracy far beyond 1e-8, all legs of a cylinder in one array pass,
    and accumulated the same way.  The smooth quadrature runs in float64:
    a leg too long for it (see ``_FLOAT64_HOLD``) is refused, before any
    leg is integrated, as :class:`~bykov.errors.DegenerateInput` naming
    the first such leg.
    """
    if _check_count(upto_index, "upto_index") < 1:
        raise InsufficientData(f"upto_index must be at least 1, got {upto_index}")
    n_pairs = max(1, upto_index // 2)
    h = generate_hitting_sequence(q0, p, n_pairs)

    # one row per cylinder: value, entry logs, sojourns, rates E and C; V1 legs
    # enter from the Out2 crossings 0, 2, ..., reinjected by psi21, V2 legs
    # from the Out1 crossings 1, 3, ..., glued to In2
    rows = (
        (G.g_sigma1, p.log_a + h.log_coord[0:upto_index:2],
         h.sojourns_V1[: (upto_index + 1) // 2], p.E1, p.C1),
        (G.g_sigma2, h.log_coord[1:upto_index:2], h.sojourns_V2[: upto_index // 2], p.E2, p.C2),
    )
    if G.kind == "smooth":  # refuse the first leg, in time, that float64 cannot hold
        past = []
        for k, (g_sigma, _, sojourns, expand, _) in enumerate(rows):
            scale = max(2.0, expand, abs(g_sigma) + abs(G.boundary_value - g_sigma))
            # V1 legs end on the odd crossings, V2 legs on the even ones
            past += [(2 * j + k + 1, sojourns[j])
                     for j in np.flatnonzero(sojourns > _FLOAT64_HOLD / scale)[:1]]
        if past:
            end, length = min(past)
            raise DegenerateInput(
                f"the leg ending at crossing {end} lasts "
                f"{np.format_float_scientific(length, precision=3)}, more than the float64 "
                "nodes of the smooth quadrature can hold"
            )
    increments = np.empty(upto_index, dtype=LD)
    for k, (g_sigma, log_in, sojourns, expand, contract) in enumerate(rows):
        if G.kind == "piecewise_constant":
            increments[k::2] = asld(g_sigma) * sojourns
        else:
            increments[k::2] = _smooth_leg_integrals(
                G, g_sigma, log_in, sojourns.astype(float), expand, contract
            )
    # averages[k-1] is the average over [0, times[k]]
    averages = np.cumsum(increments) / h.times[1 : upto_index + 1]

    pe, po = predicted_limits(p, G)
    return AverageSeries(
        even_averages=averages[1::2],
        odd_averages=averages[0::2],
        even_times=h.times[2 : upto_index + 1 : 2],
        odd_times=h.times[1 : upto_index + 1 : 2],
        even_indices=np.arange(2, upto_index + 1, 2),
        odd_indices=np.arange(1, upto_index + 1, 2),
        predicted_even=pe,
        predicted_odd=po,
    )


def historic_certificate(s: AverageSeries, tol: float = 1e-3) -> Certificate:
    """Decide whether the sampled averages certify two distinct limits.

    True iff the two parity tails are each within ``tol`` of their
    predicted limit while sitting further than ``tol`` apart.  ``gap``
    is the predicted separation,
    ``(1 - gamma1*gamma2)(G2 - G1) / ((1+gamma1)(1+gamma2))``,
    which equals ``predicted_odd - predicted_even``; it is nonzero for
    every admissible parameter set and non-constant observable because
    the saddle-index product strictly exceeds 1.  ``tol`` must be
    positive and finite.
    """
    _check_tol(tol)
    if len(s.even_averages) < 4 or len(s.odd_averages) < 4:
        raise InsufficientData(
            "certification needs at least 4 sampled averages per parity, got "
            f"{len(s.even_averages)} even / {len(s.odd_averages)} odd"
        )
    gap = s.predicted_odd - s.predicted_even
    even_tail = s.even_averages[-1]
    odd_tail = s.odd_averages[-1]
    verdict = (
        abs(even_tail - odd_tail) > tol
        and abs(even_tail - s.predicted_even) <= tol
        and abs(odd_tail - s.predicted_odd) <= tol
    )
    return Certificate(verdict=bool(verdict), gap=float(gap))
