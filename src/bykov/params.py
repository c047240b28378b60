"""Model parameters, derived constants, and the conjugacy invariants.

The vector field has two saddle-foci joined by a pair of heteroclinic
connections.  Near the first equilibrium the linearization contracts a
plane with rate ``C1`` while spiralling at angular speed ``omega1`` and
expands the transverse axis with rate ``E1``; near the second the roles of
plane and axis swap (``E2`` expands the plane, ``C2`` contracts the axis,
``omega2`` is the spiral speed).  The one-dimensional connection is broken
by a rigid rotation composed with the angle scaling ``theta -> theta / a``.

Four combinations of these seven numbers are invariant under topological
conjugacy of the section-to-section dynamics:

* ``gamma1 = C1 / E2`` and ``gamma2 = C2 / E1``, the saddle indices of the
  two half-transitions,
* ``omega1 + gamma1 * omega2``, the twist accumulated per full loop,
* ``tau * ln(a)`` with ``tau = (1 + gamma1) / E1``, the timing offset of
  the loop-return recursion.

They are read-only attributes of a ``SystemParams``, beside the other
derived constants; ``p.invariants`` holds all four.  Everything here is
computed in extended precision (see ``bykov._num``).
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from ._num import LD, asld
from .errors import ConstraintViolation

__all__ = [
    "PerturbationSpec",
    "SystemParams",
    "InvariantTuple",
    "validate_params",
    "derive_constants",
    "invariant_tuple",
    "matching_params",
]

# exp(x) rounds to +0 for every x below this: ln of the smallest subnormal,
# less a margin of 2 (ln 2 would do) that absorbs the rounding of the cut-offs
_LN_UNDERFLOW = np.log(np.finfo(LD).smallest_subnormal) - LD(2.0)
_LD_MAX = np.finfo(LD).max


@dataclass(frozen=True)
class PerturbationSpec:
    """Strength and regularity of the section-map perturbation.

    ``c1`` and ``c2`` scale the correction applied after each half
    transition; ``eps`` controls how fast the correction decays relative
    to the leading term (larger ``eps`` means flatter perturbations).
    Setting both amplitudes to zero recovers the idealized model exactly.
    """

    c1: float = 0.0
    c2: float = 0.0
    eps: float = 0.5


@dataclass(frozen=True)
class SystemParams:
    """Parameters of the piecewise-linear two-saddle-focus model.

    The eight derived constants below are read-only attributes, in
    ``np.longdouble`` (``invariants`` holds four).  Each object derives
    them once, on first use, and keeps them in its own ``__dict__``, past
    the frozen ``__setattr__``, with the powers ``delta**-i`` of the
    adjusted times' backward carry (``_inverse_powers``).  A set that
    fails validation raises on every use and keeps nothing.  Equality,
    hashing and ``repr`` see the eight fields alone.  From Python 3.12,
    threads that first use one object together may each derive; they
    derive equal constants.
    """

    C1: float
    E1: float
    omega1: float
    C2: float
    E2: float
    omega2: float
    a: float
    perturbation: PerturbationSpec | None = None

    @functools.cached_property
    def _constants(self) -> tuple:
        """The eight derived constants, in the order of the attributes below; validates first."""
        validate_params(self)
        C1, E1 = asld(self.C1), asld(self.E1)
        C2, E2 = asld(self.C2), asld(self.E2)
        w1, w2, a = asld(self.omega1), asld(self.omega2), asld(self.a)
        gamma1 = C1 / E2
        gamma2 = C2 / E1
        delta1 = C1 / E1
        delta2 = C2 / E2
        tau = (LD(1.0) + gamma1) / E1
        log_a = np.log(a)
        inv = InvariantTuple(
            gamma1=gamma1,
            gamma2=gamma2,
            omega_combo=w1 + gamma1 * w2,
            tau_log_a=tau * log_a,
        )
        return gamma1, gamma2, delta1, delta2, delta1 * delta2, tau, log_a, inv

    # kept on first read, so every later read is a plain attribute of the object
    gamma1 = functools.cached_property(lambda p: p._constants[0])  # C1/E2, an invariant
    gamma2 = functools.cached_property(lambda p: p._constants[1])  # C2/E1, an invariant
    delta1 = functools.cached_property(lambda p: p._constants[2])  # C1/E1, leg 1's saddle index
    delta2 = functools.cached_property(lambda p: p._constants[3])  # C2/E2, leg 2's saddle index
    delta = functools.cached_property(lambda p: p._constants[4])  # delta1*delta2 > 1: attracting
    tau = functools.cached_property(lambda p: p._constants[5])  # (1 + gamma1)/E1
    log_a = functools.cached_property(lambda p: p._constants[6])  # ln a, the reinjection's shift
    invariants = functools.cached_property(lambda p: p._constants[7])  # all four invariants

    def _inverse_powers(self, n: int) -> np.ndarray:
        """``delta**-i`` for ``i < n``, read-only, as the backward carry takes them.

        The table is kept in the object's ``__dict__``, not as a field, so
        equality, hashing and ``repr`` never see it and it goes with the
        object.  It grows to the longest ``n`` asked for, each new element
        the same ``delta**-i`` as before, so every prefix keeps its bits.
        Threads that grow it together each compute equal elements.
        """
        table = self.__dict__.get("_inverse_powers_table")
        if table is None or len(table) < n:
            have = 0 if table is None else len(table)
            grown = self.delta ** -np.arange(have, n, dtype=LD)
            table = grown if table is None else np.concatenate((table, grown))
            table.setflags(write=False)
            self.__dict__["_inverse_powers_table"] = table
        return table[:n]

    @functools.cached_property
    def _kernel(self) -> tuple[tuple, tuple, np.longdouble, np.longdouble, tuple]:
        """``(leg1, leg2, a, ln a, reach)``: the return-map kernel's constants.

        Each leg is ``(expand, saddle, twist, c, eps, cut)``.  It reads
        ``_constants``, which validates the set first.  No perturbation is
        the zero one.  ``saddle`` is the leg's saddle index
        ``delta1 = C1/E1`` or ``delta2 = C2/E2``.  ``cut`` is the entry
        log-coordinate below which the leg's perturbation has underflowed:
        ``(ln(smallest subnormal) - 2) / (saddle*eps)``, or ``+inf`` when
        ``c`` is 0, so that every entry lies below it (see
        :func:`bykov.flow._half_transition`).

        The reach ``(-X, X)`` bounds the entries of a return step, ``ln z``
        and the angle, inside which no value of the step overflows, the
        reinjection included (see :func:`bykov.flow.poincare`).  A leg
        takes entries of size up to ``X`` to values below ``g*X + b``, with
        ``g = 1 + 2*saddle + (1 + twist)/expand`` and ``b = 45 + c``: the
        radial term ``log1p`` lies between ``ln(2**-64)`` and
        ``ln(1 + c) <= c``.  So every value of the step stays below
        ``2*(g2*(g1*X + b1) + b2 + |ln a|)/a``, which ``X`` keeps below
        half the long-double maximum.  Where that leaves no positive ``X``,
        ``X`` is 0 and every step is guarded.
        """
        _, _, delta1, delta2, _, _, log_a, _ = self._constants
        pert = self.perturbation or PerturbationSpec()
        eps = asld(pert.eps)

        def leg(E, saddle, omega, c):
            c = asld(c)
            cut = _LN_UNDERFLOW / (saddle * eps) if c != 0.0 else LD(np.inf)
            return asld(E), saddle, asld(omega), c, eps, cut

        legs = (leg(self.E1, delta1, self.omega1, pert.c1),
                leg(self.E2, delta2, self.omega2, pert.c2))
        a = asld(self.a)
        with np.errstate(over="ignore", invalid="ignore"):  # a bound that overflows is no reach
            (g1, b1), (g2, b2) = ((1 + 2 * S + (1 + w) / E, 45 + c) for E, S, w, c, _, _ in legs)
            X = ((_LD_MAX * a / 4 - b2 - abs(log_a)) / g2 - b1) / g1
        X = X if X > 0.0 else LD(0.0)
        return (*legs, a, log_a, (-X, X))


@dataclass(frozen=True)
class InvariantTuple:
    """The four conjugacy invariants, in extended precision.

    ``tau_log_a`` uses the natural logarithm and is always negative.
    """

    gamma1: np.longdouble
    gamma2: np.longdouble
    omega_combo: np.longdouble
    tau_log_a: np.longdouble

    def as_array(self) -> np.ndarray:
        return np.array(
            [self.gamma1, self.gamma2, self.omega_combo, self.tau_log_a],
            dtype=LD,
        )


# the numbers validate_params reads, in order, and the types that need no closer look
_FIELDS = ("C1", "E1", "omega1", "C2", "E2", "omega2", "a",
           "perturbation.c1", "perturbation.c2", "perturbation.eps")
_PLAIN = frozenset({int, float})


def validate_params(p: SystemParams) -> SystemParams:
    """Check every model inequality, reporting all failures at once.

    Returns ``p`` unchanged when it is admissible, so the call can be
    chained.

    Raises
    ------
    ConstraintViolation
        If a field is not a real number (a bool is not one; a Python or
        NumPy integer or float is), naming every such field before any is
        compared.  Else if any of the rate orderings, positivity
        conditions, the angle scaling range ``0 < a < 1``, or the
        perturbation ranges fail, or a rate or perturbation amplitude is
        infinite.  The message lists every violated condition.
    """
    q = p.perturbation
    values = (p.C1, p.E1, p.omega1, p.C2, p.E2, p.omega2, p.a)
    if q is not None:
        values += (q.c1, q.c2, q.eps)
    if not _PLAIN.issuperset(map(type, values)):  # a NumPy number, a bool, or no number
        wrong = [f"{name} must be a real number, got {v!r}"
                 for name, v in zip(_FIELDS, values) if not _is_real(v)]
        if wrong:
            raise ConstraintViolation("; ".join(wrong))
    problems: list[str] = []
    if not (p.E1 > 0):
        problems.append(f"E1 must be positive, got {p.E1}")
    if not (p.C1 > p.E1):
        problems.append(f"C1 must exceed E1, got C1={p.C1}, E1={p.E1}")
    if not (p.E2 > 0):
        problems.append(f"E2 must be positive, got {p.E2}")
    if not (p.C2 > p.E2):
        problems.append(f"C2 must exceed E2, got C2={p.C2}, E2={p.E2}")
    if not (p.omega1 > 0):
        problems.append(f"omega1 must be positive, got {p.omega1}")
    if not (p.omega2 > 0):
        problems.append(f"omega2 must be positive, got {p.omega2}")
    if not (0.0 < p.a < 1.0):
        problems.append(f"a must lie strictly between 0 and 1, got {p.a}")
    if q is not None:
        if not (q.c1 >= 0.0):
            problems.append(f"perturbation.c1 must be >= 0, got {q.c1}")
        if not (q.c2 >= 0.0):
            problems.append(f"perturbation.c2 must be >= 0, got {q.c2}")
        if not (0.0 < q.eps < 1.0):
            problems.append(
                f"perturbation.eps must lie strictly between 0 and 1, got {q.eps}"
            )
    # +inf passes the comparisons above for these; E1, E2, a and eps cannot be inf
    problems += [f"{name} must be finite, got {v}" for name, v in zip(_FIELDS, values)
                 if v == math.inf and name not in ("E1", "E2", "a", "perturbation.eps")]
    if problems:
        raise ConstraintViolation("; ".join(problems))
    return p


def _is_real(x) -> bool:
    """A real number: a Python or NumPy integer or float, long doubles included, not a bool."""
    return isinstance(x, (int, float, np.integer, np.floating)) and not isinstance(x, bool)


def _check_tol(tol) -> float:
    """The tolerance of a verdict: a positive and finite number, not a bool."""
    if _is_real(tol) and math.isfinite(tol) and tol > 0:
        return tol
    raise ConstraintViolation(f"tol must be positive and finite, got {tol!r}")


def _check_count(n, name: str) -> int:
    """A count or index argument: a Python or NumPy integer, not a bool."""
    try:
        if not isinstance(n, bool):  # operator.index(True) is 1
            return operator.index(n)
    except TypeError:
        pass
    raise ConstraintViolation(f"{name} must be an integer, got {n!r}")


def derive_constants(p: SystemParams) -> SystemParams:
    """``p``, once its constants are derived: they are attributes of ``p``.

    Derived once per parameter object and kept on it; an invalid set
    raises on every call.
    """
    p._constants  # validates the set, then derives and keeps the constants
    return p


def invariant_tuple(p: SystemParams) -> InvariantTuple:
    """The four-number conjugacy class of a parameter set, ``p.invariants``.

    Natural logarithms throughout: ``tau_log_a = tau * ln(a)``.
    """
    return p.invariants


def matching_params(
    p: SystemParams,
    E1_bar: float,
    E2_bar: float,
    omega2_bar: float,
) -> SystemParams:
    """Build a second system sharing the invariant tuple of ``p``.

    The three expansion/twist rates of the new system may be chosen
    freely; everything else is pinned by the invariants:

    * ``C1_bar = gamma1 * E2_bar`` and ``C2_bar = gamma2 * E1_bar`` keep
      both saddle indices,
    * ``omega1_bar = (omega1 + gamma1*omega2) - gamma1 * omega2_bar``
      keeps the twist combination,
    * ``a_bar = exp(tau_log_a / tau_bar)`` keeps the timing offset, so the
      angle scaling is *determined*, not a free knob.

    The result carries no perturbation: the invariants classify the
    idealized section dynamics, and the conjugacy construction consumes
    the idealized return recursion.

    Raises
    ------
    ConstraintViolation
        If the forced values land outside the admissible region (for
        example a non-positive ``omega1_bar``, or ``C1_bar <= E1_bar``).
    """
    E1b, E2b, w2b = asld(E1_bar), asld(E2_bar), asld(omega2_bar)
    if not all(0 < x < np.inf for x in (E1b, E2b, w2b)):
        raise ConstraintViolation(
            "target rates must be positive and finite, got "
            f"E1_bar={E1_bar}, E2_bar={E2_bar}, omega2_bar={omega2_bar}"
        )
    C1b = p.gamma1 * E2b
    C2b = p.gamma2 * E1b
    w1b = p.invariants.omega_combo - p.gamma1 * w2b
    if not (w1b > 0):
        raise ConstraintViolation(
            f"omega1_bar = {float(w1b)} is not positive; "
            "decrease omega2_bar to keep the twist combination attainable"
        )
    tau_bar = (LD(1.0) + p.gamma1) / E1b
    a_bar = np.exp(p.invariants.tau_log_a / tau_bar)
    candidate = SystemParams(
        C1=float(C1b),
        E1=float(E1b),
        omega1=float(w1b),
        C2=float(C2b),
        E2=float(E2b),
        omega2=float(w2b),
        a=float(a_bar),
        perturbation=None,
    )
    validate_params(candidate)
    return candidate
