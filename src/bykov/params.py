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

Everything here is computed in extended precision (see ``bykov._num``).
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
    "DerivedConstants",
    "InvariantTuple",
    "validate_params",
    "derive_constants",
    "invariant_tuple",
    "matching_params",
]


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
    """Parameters of the piecewise-linear two-saddle-focus model."""

    C1: float
    E1: float
    omega1: float
    C2: float
    E2: float
    omega2: float
    a: float
    perturbation: PerturbationSpec | None = None


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


@dataclass(frozen=True)
class DerivedConstants:
    """Ratios and rates derived from a :class:`SystemParams`.

    All numeric fields are ``np.longdouble``.  ``delta = gamma1 * gamma2
    = delta1 * delta2`` must exceed 1 for the cycle to attract.
    ``log_a = ln(a)`` is the log-height shift of the reinjection.  The
    conjugacy invariants ride along so that time-series diagnostics can
    take a single argument.
    """

    gamma1: np.longdouble
    gamma2: np.longdouble
    delta1: np.longdouble
    delta2: np.longdouble
    delta: np.longdouble
    K: np.longdouble
    tau: np.longdouble
    log_a: np.longdouble
    invariants: InvariantTuple


def validate_params(p: SystemParams) -> SystemParams:
    """Check every model inequality, reporting all failures at once.

    Returns ``p`` unchanged when it is admissible, so the call can be
    chained.

    Raises
    ------
    ConstraintViolation
        If any of the rate orderings, positivity conditions, the angle
        scaling range ``0 < a < 1``, or the perturbation ranges fail, or
        a rate or perturbation amplitude is infinite.
        The message lists every violated condition.
    """
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
    rates = [("C1", p.C1), ("C2", p.C2), ("omega1", p.omega1), ("omega2", p.omega2)]
    if p.perturbation is not None:
        q = p.perturbation
        if not (q.c1 >= 0.0):
            problems.append(f"perturbation.c1 must be >= 0, got {q.c1}")
        if not (q.c2 >= 0.0):
            problems.append(f"perturbation.c2 must be >= 0, got {q.c2}")
        if not (0.0 < q.eps < 1.0):
            problems.append(
                f"perturbation.eps must lie strictly between 0 and 1, got {q.eps}"
            )
        rates += [("perturbation.c1", q.c1), ("perturbation.c2", q.c2)]
    # +inf passes the comparisons above for these; E1, E2, a and eps cannot be inf
    problems += [f"{name} must be finite, got {v}" for name, v in rates if v == math.inf]
    if problems:
        raise ConstraintViolation("; ".join(problems))
    return p


def _check_tol(tol: float) -> float:
    """The tolerance of a verdict: positive and finite."""
    if not (math.isfinite(tol) and tol > 0):
        raise ConstraintViolation(f"tol must be positive and finite, got {tol}")
    return tol


def _check_count(n, name: str) -> int:
    """A count or index argument: a Python or NumPy integer."""
    try:
        return operator.index(n)
    except TypeError:
        raise ConstraintViolation(f"{name} must be an integer, got {n!r}") from None


@functools.lru_cache(maxsize=128)
def derive_constants(p: SystemParams) -> DerivedConstants:
    """Compute the saddle indices and loop rates for a valid parameter set.

    Memoized: equal sets share one result; an invalid set is never stored.
    """
    validate_params(p)
    C1, E1 = asld(p.C1), asld(p.E1)
    C2, E2 = asld(p.C2), asld(p.E2)
    w1, w2, a = asld(p.omega1), asld(p.omega2), asld(p.a)
    gamma1 = C1 / E2
    gamma2 = C2 / E1
    delta1 = C1 / E1
    delta2 = C2 / E2
    delta = delta1 * delta2
    K = (w1 + gamma1 * w2) / E1
    tau = (LD(1.0) + gamma1) / E1
    log_a = np.log(a)
    inv = InvariantTuple(
        gamma1=gamma1,
        gamma2=gamma2,
        omega_combo=w1 + gamma1 * w2,
        tau_log_a=tau * log_a,
    )
    return DerivedConstants(
        gamma1=gamma1,
        gamma2=gamma2,
        delta1=delta1,
        delta2=delta2,
        delta=delta,
        K=K,
        tau=tau,
        log_a=log_a,
        invariants=inv,
    )


def invariant_tuple(p: SystemParams) -> InvariantTuple:
    """The four-number conjugacy class of a parameter set.

    Natural logarithms throughout: ``tau_log_a = tau * ln(a)``.
    """
    return derive_constants(p).invariants


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
    inv = invariant_tuple(p)
    E1b, E2b, w2b = asld(E1_bar), asld(E2_bar), asld(omega2_bar)
    if not (E1b > 0 and E2b > 0 and w2b > 0):
        raise ConstraintViolation(
            "target rates must be positive, got "
            f"E1_bar={E1_bar}, E2_bar={E2_bar}, omega2_bar={omega2_bar}"
        )
    C1b = inv.gamma1 * E2b
    C2b = inv.gamma2 * E1b
    w1b = inv.omega_combo - inv.gamma1 * w2b
    if not (w1b > 0):
        raise ConstraintViolation(
            f"omega1_bar = {float(w1b)} is not positive; "
            "decrease omega2_bar to keep the twist combination attainable"
        )
    tau_bar = (LD(1.0) + inv.gamma1) / E1b
    a_bar = np.exp(inv.tau_log_a / tau_bar)
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
