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

    In1 --Phi1--> Out1 == In2 --Phi2--> Out2 --psi21--> In1 --> ...

The local transition maps ``Phi1`` and ``Phi2`` are written once, as one
kernel for both legs of a return step.  It serves the hitting-time
generator's head, the guarded step and every step with a leg at or above
its cut-off.  :func:`poincare` takes an in-reach step with both legs
below their cut-offs, every step of the idealized model among them, as
one straight line: the kernel's idealized branch for both legs and the
reinjection, operation for operation, with no crossing check, as each is
implied there.  ``psi21`` models the global reinjection: heights shrink
by the factor ``a`` and angles are scaled by ``1/a``.  All coordinates
are kept in log space; the heights involved decay like ``exp(-delta^n)``
and would leave double precision (let alone linear coordinates) within a
handful of loops.

Angles are tracked as *lifted* reals, never reduced mid-computation: the
winding over one sojourn grows with the sojourn length, and the reduced
angle is a quotient that downstream diagnostics cannot un-wrap.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._num import _INF, _NEG_INF, _ONE, _ZERO, LD, asld
from .errors import DegenerateInput
from .params import SystemParams

__all__ = [
    "SectionPoint",
    "psi21",
    "poincare",
]

_CHARTS = ("In1", "Out1", "In2", "Out2")


@dataclass(frozen=True, slots=True)
class SectionPoint:
    """A point on one of the four cross-sections.

    ``log_coord`` is the logarithm of the non-unit coordinate (height on
    the radius-one sections, radius on the height-one sections) and must
    be strictly negative: zero would sit on the connection itself and the
    transit time diverges logarithmically as it is approached.  Both
    numbers are long doubles: a long double is kept as it is, any other
    real number or a numeric string is read by ``asld``, and anything
    else, a bool, ``None`` or a non-scalar among them, is refused.
    """

    chart: str
    theta_lifted: np.longdouble
    log_coord: np.longdouble

    def __post_init__(self) -> None:
        if self.chart not in _CHARTS:
            raise DegenerateInput(
                f"unknown chart {self.chart!r}; expected one of {_CHARTS}"
            )
        if not isinstance(self.theta_lifted, LD):
            object.__setattr__(self, "theta_lifted", _coerce(self.theta_lifted, "theta_lifted"))
        if not isinstance(self.log_coord, LD):
            object.__setattr__(self, "log_coord", _coerce(self.log_coord, "log_coord"))
        _check_crossing(self.theta_lifted, self.log_coord)


def _coerce(value, field: str) -> np.longdouble:
    """A field given as a real number or a numeric string, as a long double; else refused."""
    try:
        x = None if value is None or isinstance(value, (bool, np.bool_)) else asld(value)
    except (TypeError, ValueError):  # no number, or a string that spells none
        x = None
    if type(x) is not LD:  # asld reads None as NaN, a bool as 0 or 1, a sequence as an array
        raise DegenerateInput(f"{field} must be a real number or a numeric string, got {value!r}")
    return x


def _check_crossing(theta_lifted: np.longdouble, log_coord: np.longdouble) -> None:
    """The section-point checks, on raw values (see :class:`SectionPoint`).

    Comparisons, not ``np.isfinite``, which costs far more on a long-double
    scalar.  Every ``SectionPoint`` runs them.  The hitting-time generator
    and :func:`poincare` run one test per orbit or per step instead, and
    these checks only to name the crossing they refuse.
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


# the slot setters of SectionPoint's fields, which write past its frozen __setattr__
_SET_CHART, _SET_THETA, _SET_LOG = (
    SectionPoint.__dict__[name].__set__ for name in ("chart", "theta_lifted", "log_coord")
)


def _in1_point(theta_lifted: np.longdouble, log_coord: np.longdouble) -> SectionPoint:
    """The ``In1`` point of two long doubles, as ``SectionPoint("In1", ...)`` builds it.

    It runs the constructor's :func:`_check_crossing`, with the same
    messages, and sets the three fields without the chart scan and the
    coercions, which values that are already ``np.longdouble`` do not need.
    """
    _check_crossing(theta_lifted, log_coord)
    return _unchecked_in1_point(theta_lifted, log_coord)


def _unchecked_in1_point(theta_lifted: np.longdouble, log_coord: np.longdouble) -> SectionPoint:
    """:func:`_in1_point` without the check, for two long doubles that pass it."""
    q = object.__new__(SectionPoint)
    _SET_CHART(q, "In1")
    _SET_THETA(q, theta_lifted)
    _SET_LOG(q, log_coord)
    return q


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
    """Shared kernel of both half-transition maps, ``Phi1`` and ``Phi2``.

    Returns ``(transit, log_out, theta_out)`` for a sojourn whose entry
    coordinate has log ``log_in``, expansion rate ``expand``, saddle index
    ``saddle`` (ratio of contraction to expansion), and winding speed
    ``twist`` (angle advanced per unit time).

    Below the leg's cut-off (see ``SystemParams._kernel``), a few loops in,
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

    :func:`poincare` calls it for both legs of a step with a leg at or
    above its cut-off, or from outside the reach; a step with both legs
    below their cut-offs it takes as one straight line, this idealized
    branch twice, operation for operation.  The hitting-time generator
    calls it for an orbit's head only.  From the first loop whose two
    entries lie below their cut-offs the generator computes the idealized
    leg above, operation for operation, two recurrences as scalars and
    the rest as arrays: no later entry lies above its cut-off again (see
    :func:`~bykov.hitting.generate_hitting_sequence`).
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


def psi21(q: SectionPoint, p: SystemParams) -> SectionPoint:
    """Reinject an ``Out2`` point onto ``In1`` along the global connection.

    Heights contract by the factor ``a``; lifted angles are scaled by
    ``1/a``.  (On the reduced circle the scaling is single-valued exactly
    when ``1/a`` is an integer, which holds for every parameter set used
    in the shipped experiments; the lifted convention keeps the map
    well-defined regardless.)  Instantaneous: no time elapses.

    The ``In1`` point is built from the two long doubles as they are: the
    checks of ``SectionPoint``, with its messages, and no coercion.
    """
    _require_chart(q, "Out2", "psi21")
    _, _, a, log_a, _ = p._kernel
    with np.errstate(over="ignore"):  # an overflow is refused by the point's check
        theta, log = q.theta_lifted / a, log_a + q.log_coord
    return _in1_point(theta, log)


def poincare(q: SectionPoint, p: SystemParams) -> tuple[SectionPoint, np.longdouble]:
    """The full return map on ``In1``: Phi1, lid gluing, Phi2, reinjection.

    Returns the next ``In1`` point and the return time (sum of the two
    transits; the gluing and the reinjection are instantaneous).  In the
    idealized model the heights obey ``ln z' = ln a + delta * ln z``
    exactly.

    An in-reach step whose ``V1`` entry ``ln z`` lies below ``cut1`` and
    whose ``Out1`` log ``S1*ln z`` lies below ``cut2`` is one straight line:
    the kernel's idealized branch for both legs and the reinjection,
    operation for operation, as in ``(theta + w1*s + w2*u)/a`` with
    ``s = -ln z/E1`` and ``u = -S1*ln z/E2``, and ``ln a + S2*(S1*ln z)``.
    Both cut-offs of the idealized model are ``+inf``, so this is every
    one of its in-reach steps.  The step makes no crossing check, as each
    is implied.  The entry is a checked ``In1`` point: its log is negative
    and finite, its angle finite.  Both saddle indices exceed 1 (``C > E``
    for each leg), so each exact product ``S*log`` lies below its negative
    operand, and with rounding monotone the ``Out1`` and ``Out2`` logs are
    negative, never ``-0``; the ``In1`` log adds ``ln a < 0`` to the
    ``Out2`` one.  The reach bounds every value of the step, so none
    overflows: the transits and their sum are positive and finite, and
    the angles, sums of finite terms, are finite.  The next point is
    built in place, as :func:`psi21` builds it, from the two long doubles
    as they are.

    A value that leaves the long-double range is refused as
    :class:`~bykov.errors.DegenerateInput`, without NumPy's overflow
    warning, which a caller's filter may turn into an error: an entry
    inside the parameter set's reach (see ``SystemParams._kernel``) cannot
    overflow, and a step from outside it runs under ``np.errstate``.

    Every other in-reach step runs both legs through the kernel and builds
    the next point in the same way.  One test stands for the
    ``SectionPoint`` checks of the step's three crossings, ``Out1``,
    ``Out2`` and ``In1``: the ``Out2`` log is negative, and the ``In1``
    point has a finite angle and a log above ``-inf``.  The ``In1`` log is
    ``ln a`` plus the ``Out2`` one, so it is negative with it.  A
    non-finite angle or a ``-inf`` log at ``Out1`` or ``Out2`` stays so
    through the ``V2`` leg and the reinjection (a non-finite angle makes a
    correction NaN, which the kernel refuses).  So the test passes exactly
    when all three checks pass.  The ``Out1`` log is compared with 0
    between the legs, so that the ``V2`` leg never takes ``exp`` of a
    positive log outside ``np.errstate``.  When the test fails, the step
    runs again guarded and checks each crossing as it is produced: the
    first crossing off the connection is refused, with its message.
    """
    if q.chart != "In1":
        _require_chart(q, "In1", "poincare")
    leg1, leg2, a, log_a, (lo, hi) = p._kernel
    log_in, theta_in = q.log_coord, q.theta_lifted
    if lo < log_in and lo < theta_in < hi:
        E1, S1, w1, _, _, cut1 = leg1
        E2, S2, w2, _, _, cut2 = leg2
        if log_in < cut1 and (log1 := S1 * log_in) < cut2:
            # both legs idealized, and every crossing check implied
            s, u = -log_in / E1, -log1 / E2
            nxt = object.__new__(SectionPoint)
            _SET_CHART(nxt, "In1")
            _SET_THETA(nxt, (theta_in + w1 * s + w2 * u) / a)
            _SET_LOG(nxt, log_a + S2 * log1)
            return nxt, s + u
        s, log1, theta1 = _half_transition(log_in, theta_in, *leg1)
        if log1 < _ZERO:  # else the V2 leg would take exp of a positive log
            u, log2, theta2 = _half_transition(log1, theta1, *leg2)
            # the Out2 point reinjected as psi21 does
            theta, log = theta2 / a, log_a + log2
            if log2 < _ZERO and _NEG_INF < log and _NEG_INF < theta < _INF:
                return _unchecked_in1_point(theta, log), s + u
    # outside the reach, or a crossing is off: the step again, guarded, and
    # each crossing checked as it is produced
    with np.errstate(over="ignore", invalid="ignore"):
        s, log1, theta1 = _half_transition(log_in, theta_in, *leg1)
        _check_crossing(theta1, log1)
        u, log2, theta2 = _half_transition(log1, theta1, *leg2)
        _check_crossing(theta2, log2)
        out, t = _in1_point(theta2 / a, log_a + log2), s + u
    if not t < _INF:
        raise DegenerateInput(f"return time is not finite: {t}")
    return out, t
