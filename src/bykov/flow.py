"""Local transition maps between cross-sections of the two cylinders.

The phase space is covered by two solid cylinders, ``V1`` around the first
equilibrium and ``V2`` around the second, each carrying coordinates
``(rho, theta, z)`` with ``rho`` the cylindrical radius and ``z`` the
height.  Inside ``V1`` the flow is linear: the radius contracts at rate
``C1``, the angle advances at ``omega1``, the height expands at ``E1``.
Inside ``V2`` the radius expands at ``E2``, the angle advances at
``omega2``, the height contracts at ``C2``.

Four cross-sections bound the sojourns:

* ``In1``  (``rho = 1`` wall of ``V1``): entry, coordinate ``ln z < 0``;
* ``Out1`` (``z = 1`` lid of ``V1``): exit, coordinate ``ln rho < 0``;
* ``In2``  (``z = 1`` lid of ``V2``): entry, coordinate ``ln rho < 0``;
* ``Out2`` (``rho = 1`` wall of ``V2``): exit, coordinate ``ln z < 0``.

``Out1`` and ``In2`` are glued by the identity, so points move through

    In1 --phi1--> Out1 == In2 --phi2--> Out2 --psi21--> In1 --> ...

``psi21`` models the global reinjection: heights shrink by the factor
``a`` and angles are scaled by ``1/a``.  All coordinates are kept in log
space; the heights involved decay like ``exp(-delta^n)`` and would leave
double precision (let alone linear coordinates) within a handful of
loops.

Angles are tracked as *lifted* reals, never reduced mid-computation: the
winding over one sojourn grows with the sojourn length, and the reduced
angle is a quotient that downstream diagnostics cannot un-wrap.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from ._num import LD, TWO_PI, asld
from .errors import DegenerateInput, OutOfSojourn
from .params import PerturbationSpec, SystemParams, derive_constants

__all__ = [
    "SectionPoint",
    "phi1",
    "phi2",
    "psi21",
    "poincare",
]

_CHARTS = ("In1", "Out1", "In2", "Out2")


@dataclass(frozen=True)
class SectionPoint:
    """A point on one of the four cross-sections.

    ``log_coord`` is the logarithm of the non-unit coordinate (height on
    the radius-one sections, radius on the height-one sections) and must
    be strictly negative: zero would sit on the connection itself and the
    transit time diverges logarithmically as it is approached.
    """

    chart: str
    theta_lifted: np.longdouble
    log_coord: np.longdouble

    def __post_init__(self) -> None:
        if self.chart not in _CHARTS:
            raise DegenerateInput(
                f"unknown chart {self.chart!r}; expected one of {_CHARTS}"
            )
        # poincare builds one point per step from long doubles, kept as they are
        if not isinstance(self.theta_lifted, LD):
            object.__setattr__(self, "theta_lifted", asld(self.theta_lifted))
        if not isinstance(self.log_coord, LD):
            object.__setattr__(self, "log_coord", asld(self.log_coord))
        _check_crossing(self.theta_lifted, self.log_coord)

    @property
    def theta(self) -> np.longdouble:
        """Angle reduced to ``[0, 2*pi)``."""
        return np.mod(self.theta_lifted, TWO_PI)


def _check_state(rho_log, z_log) -> None:
    """Flow states, as log-coordinate values or arrays, are finite and ``<= 0``."""
    if ((-np.inf < rho_log) & (rho_log <= 0.0) & (-np.inf < z_log) & (z_log <= 0.0)).all():
        return
    for name, v in (("rho_log", rho_log), ("z_log", z_log)):
        if not np.isfinite(v).all():
            raise DegenerateInput(f"{name} is not finite")
    raise DegenerateInput(
        "state lies outside the unit cylinder: "
        f"rho_log={np.max(rho_log)}, z_log={np.max(z_log)}"
    )


# long-double bounds for the per-crossing checks: a comparison with a
# long double of its own type takes half the time of one with ``-np.inf``
# (a global lookup, a negation and a mixed-type comparison) or ``0.0``
_NEG_INF, _INF, _ZERO, _ONE = LD(-np.inf), LD(np.inf), LD(0.0), LD(1.0)


def _check_crossing(theta_lifted: np.longdouble, log_coord: np.longdouble) -> None:
    """The section-point checks, on raw values (see :class:`SectionPoint`).

    Comparisons, not ``np.isfinite``, which costs far more on a long-double
    scalar: they run once per crossing, and three times per ``poincare`` step.
    """
    if not (_NEG_INF < theta_lifted < _INF):
        raise DegenerateInput(f"theta_lifted is not finite: {theta_lifted}")
    if not (_NEG_INF < log_coord < _ZERO):
        note = "; the log-coordinate left the long-double range" if log_coord == _NEG_INF else ""
        raise DegenerateInput(
            "log_coord must be finite and strictly negative "
            f"(point off the connection), got {log_coord}{note}"
        )


def _require_chart(q: SectionPoint, chart: str, op: str) -> None:
    if q.chart != chart:
        raise DegenerateInput(f"{op} expects a point on {chart}, got {q.chart}")


# exp(x) rounds to +0 for every x below this: ln of the smallest subnormal,
# less a margin of 2 (ln 2 would do) that absorbs the rounding of the cut-offs
_LN_UNDERFLOW = np.log(np.finfo(LD).smallest_subnormal) - LD(2.0)


@functools.lru_cache(maxsize=128)
def _leg_constants(p: SystemParams) -> tuple[tuple, tuple, np.longdouble, np.longdouble]:
    """Kernel constants ``(expand, saddle, twist, c, eps, cut)`` of both legs, ``a``, ``ln a``.

    Derived once per parameter set and memoized; ``derive_constants``
    validates ``p`` first, so an invalid set is never stored.  No
    perturbation is the zero one.  ``saddle`` is the leg's saddle index
    ``delta1 = C1/E1`` or ``delta2 = C2/E2``.  ``cut`` is the entry
    log-coordinate below which the leg's perturbation has underflowed:
    ``(ln(smallest subnormal) - 2) / (saddle*eps)``, or ``+inf`` when
    ``c`` is 0, so that every entry lies below it (see
    :func:`_half_transition`).
    """
    d = derive_constants(p)
    pert = p.perturbation or PerturbationSpec()
    eps = asld(pert.eps)

    def leg(E, saddle, omega, c):
        c = asld(c)
        cut = _LN_UNDERFLOW / (saddle * eps) if c != 0.0 else LD(np.inf)
        return asld(E), saddle, asld(omega), c, eps, cut

    return (
        leg(p.E1, d.delta1, p.omega1, pert.c1),
        leg(p.E2, d.delta2, p.omega2, pert.c2),
        asld(p.a), d.log_a,
    )


def _half_transition(
    log_in: np.longdouble,
    theta_in: np.longdouble,
    expand: np.longdouble,
    saddle: np.longdouble,
    twist: np.longdouble,
    c: np.longdouble,
    eps: np.longdouble,
    cut: np.longdouble,
) -> tuple[np.longdouble, np.longdouble, np.longdouble]:
    """Shared kernel of both half-transition maps.

    Returns ``(transit, log_out, theta_out)`` for a sojourn whose entry
    coordinate has log ``log_in``, expansion rate ``expand``, saddle index
    ``saddle`` (ratio of contraction to expansion), and winding speed
    ``twist`` (angle advanced per unit time).

    Below the leg's cut-off (see :func:`_leg_constants`), a few loops in,
    the corrections are skipped without calling ``exp``.  There the
    rounded exponent ``saddle*eps*log_in`` lies under ``ln(tiny) - 2``,
    up to a few ulps of rounding in the cut-off and the product, so
    ``exp`` rounds to +0 and the amplitude ``c*exp(saddle*eps*log_in)``
    is 0 for the finite ``c``.  Corrections of amplitude 0 change no bit,
    whether skipped or, just above the cut-off, evaluated: ``log1p`` of
    the radial ``±0`` is ``±0``, and the angle term, whose exponent is no
    larger, is ``±0`` too (rounding is monotone); ``theta_out`` is never
    ``-0``, so adding either leaves it as it is.  With ``c == 0`` the
    cut-off is ``+inf`` and the idealized transit is all there is.
    """
    transit = -log_in / expand
    log_out = saddle * log_in
    theta_out = theta_in + twist * transit
    if log_in < cut:
        return transit, log_out, theta_out
    radial = c * np.exp(saddle * eps * log_in) * np.cos(theta_in)
    if not (_ONE + radial > _ZERO):
        # an angle that overflowed on reinjection makes radial NaN: say so
        _check_crossing(theta_in, log_in)
        raise DegenerateInput(
            "radius correction reaches the spiral axis; "
            f"1 + {float(radial)} <= 0"
        )
    log_out = log_out + np.log1p(radial)
    theta_out = theta_out + c * np.exp(saddle * (_ONE + eps) * log_in) * np.sin(theta_in)
    return transit, log_out, theta_out


def phi1(q: SectionPoint, p: SystemParams) -> tuple[SectionPoint, np.longdouble]:
    """Carry an ``In1`` point through ``V1`` to ``Out1``.

    Returns the exit point and the transit time ``-ln(z) / E1``.  In the
    idealized model the exit radius satisfies ``ln rho' = delta1 * ln z``
    and the angle advances by ``omega1`` times the transit; with a
    perturbation attached to ``p`` the exit coordinates pick up
    angle-dependent corrections that vanish with the entry height.
    """
    _require_chart(q, "In1", "phi1")
    transit, log_out, theta_out = _half_transition(
        q.log_coord, q.theta_lifted, *_leg_constants(p)[0]
    )
    return SectionPoint("Out1", theta_out, log_out), transit


def phi2(q: SectionPoint, p: SystemParams) -> tuple[SectionPoint, np.longdouble]:
    """Carry an ``In2`` point through ``V2`` to ``Out2``.

    Mirror image of :func:`phi1` with the roles of radius and height
    exchanged: transit ``-ln(rho) / E2``, exit height
    ``ln z' = delta2 * ln rho`` plus the analogous corrections.
    """
    _require_chart(q, "In2", "phi2")
    transit, log_out, theta_out = _half_transition(
        q.log_coord, q.theta_lifted, *_leg_constants(p)[1]
    )
    return SectionPoint("Out2", theta_out, log_out), transit


def psi21(q: SectionPoint, p: SystemParams) -> SectionPoint:
    """Reinject an ``Out2`` point onto ``In1`` along the global connection.

    Heights contract by the factor ``a``; lifted angles are scaled by
    ``1/a``.  (On the reduced circle the scaling is single-valued exactly
    when ``1/a`` is an integer, which holds for every parameter set used
    in the shipped experiments; the lifted convention keeps the map
    well-defined regardless.)  Instantaneous: no time elapses.
    """
    _require_chart(q, "Out2", "psi21")
    _, _, a, log_a = _leg_constants(p)
    return SectionPoint("In1", q.theta_lifted / a, log_a + q.log_coord)


def poincare(q: SectionPoint, p: SystemParams) -> tuple[SectionPoint, np.longdouble]:
    """The full return map on ``In1``: phi1, lid gluing, phi2, reinjection.

    Returns the next ``In1`` point and the return time (sum of the two
    transits; the gluing and the reinjection are instantaneous).  In the
    idealized model the heights obey ``ln z' = ln a + delta * ln z``
    exactly.
    """
    _require_chart(q, "In1", "poincare")
    leg1, leg2, a, log_a = _leg_constants(p)
    s, log1, theta1 = _half_transition(q.log_coord, q.theta_lifted, *leg1)
    _check_crossing(theta1, log1)  # the Out1 crossing, glued to In2 unchanged
    u, log2, theta2 = _half_transition(log1, theta1, *leg2)
    _check_crossing(theta2, log2)  # the Out2 crossing, reinjected as psi21 does
    return SectionPoint("In1", theta2 / a, log_a + log2), s + u


_SNAP_ULPS = LD(64.0) * np.finfo(LD).eps


def _snap_boundary(log_val: np.ndarray, scale) -> np.ndarray:
    """Collapse ulp-sized positive overshoots of a log-coordinate to 0, in place.

    At ``t = t_exit`` the expanding coordinate reaches the unit boundary
    by definition; the rounded multiply-add may land a few ulps above it
    (relative to the magnitudes cancelled, hence the ``scale`` argument),
    which would wrongly fail state validation.  Genuine excursions are
    never this small because ``t`` is range-checked first.
    """
    tol = _SNAP_ULPS * np.maximum(LD(1.0), abs(scale))
    log_val[(0.0 < log_val) & (log_val < tol)] = 0.0
    return log_val


def _sojourn_logs(t, cylinder: str, rho_log, z_log, expand, contract):
    """The linear flow's ``(t, rho_log, z_log)`` at times ``t`` into a sojourn.

    The one evaluator of the flow inside a cylinder: ``t`` (any shape, at
    least 1-d on return) is broadcast against the entry log-coordinates
    ``rho_log`` and ``z_log`` in cylinder ``"V1"`` or ``"V2"``, which
    expands at ``expand`` and contracts at ``contract``.  The linear field
    governs the orbit until the exit time ``t_exit``; a time past it by at
    most one float64 ulp of ``t_exit`` is that exit time (a float64 time
    rounded from a long-double sojourn may land there).  Any other time
    outside ``[0, t_exit]`` raises :class:`~bykov.errors.OutOfSojourn`,
    and the states reached must pass :func:`_check_state`.
    """
    t = np.array(t, dtype=LD, ndmin=1)
    t_exit = -(z_log if cylinder == "V1" else rho_log) / expand
    if not ((0.0 <= t) & (t <= t_exit)).all():
        t_exit = np.broadcast_to(t_exit, t.shape)
        over = (t > t_exit) & (t - t_exit <= np.spacing(t_exit.astype(float)))
        np.copyto(t, t_exit, where=over)
        outside = ~((0.0 <= t) & (t <= t_exit))
        if outside.any():
            i = np.flatnonzero(outside)[0]
            raise OutOfSojourn(
                f"t={float(t.flat[i])} outside the sojourn window [0, {float(t_exit.flat[i])}] "
                f"of cylinder {cylinder}"
            )
    if cylinder == "V1":
        rho = rho_log - contract * t
        z = _snap_boundary(z_log + expand * t, z_log)
    else:
        rho = _snap_boundary(rho_log + expand * t, rho_log)
        z = z_log - contract * t
    _check_state(rho, z)
    return t, rho, z
