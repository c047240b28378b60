"""Section-coordinate recovery and numerical conjugacy verification.

The adjusted times of an orbit pin down where the orbit crossed the
sections: the first adjusted leg gives the seed height through
``z0 = exp(-E1*t1)/a``, the second gives the first exit radius through
``rho1 = exp(-E2*(t2-t1))``, and the twist combination recovers the
angle representative.  Applying the *same* adjusted times with the
constants of a second system that shares all four invariants produces a
point of that system whose orbit crosses its sections at exactly the
same adjusted schedule — the two flows are conjugate, and the map that
sends one seed to the other realizes the conjugacy on the sections.

Verification is by direct replay: seed the second system at the image
point, generate its hitting sequence, and compare every crossing time
against the adjusted schedule.  Deviations are normalized by
``max(1, |t|)`` since the schedule grows geometrically and absolute
comparison at late crossings would only measure accumulated magnitude.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._num import LD, TWO_PI, asld
from .adjusted import AdjustedTimes, adjusted_sequence
from .errors import InvalidTimes, InvariantMismatch
from .flow import SectionPoint
from .hitting import generate_hitting_sequence
from .params import (
    SystemParams, _check_count, _check_tol, derive_constants, invariant_tuple,
)

__all__ = [
    "RecoveredPoint",
    "ConjugacyReport",
    "recover_point",
    "verify_conjugacy",
]

_INVARIANT_TOL = 1e-9


@dataclass(frozen=True)
class RecoveredPoint:
    """Section coordinates reconstructed from adjusted times.

    ``theta0`` is the angle representative produced by the twist
    formula; it vanishes identically whenever the adjusted-leg relations
    hold exactly, so it is reported but never round-tripped against the
    seed angle (the crossing times of this model do not encode the seed
    angle).
    """

    z0_log: np.longdouble
    rho1_log: np.longdouble
    theta0: np.longdouble
    theta0_reduced: np.longdouble


@dataclass(frozen=True)
class ConjugacyReport:
    """Outcome of replaying an adjusted schedule on a target system.

    ``time_deviations[i] = |t_bar[i] - t_tilde[i]|`` are raw absolute
    gaps; ``max_dev`` is the largest *normalized* gap (divided by
    ``max(1, |t_tilde[i]|)``), which is what the verdict thresholds.
    """

    target_params: SystemParams
    image_point: RecoveredPoint
    time_deviations: np.ndarray
    max_dev: float
    verdict: bool


def recover_point(t_adj: AdjustedTimes, p: SystemParams) -> RecoveredPoint:
    """Reconstruct the seed section coordinates from adjusted times.

    Uses the zero-anchored grid (the normalized representative with
    ``t_tilde[0] = 0``).  For an idealized orbit the reconstruction
    round-trips the true seed height and first exit radius.
    """
    t1, t2 = t_adj.t_odd_zero[0], t_adj.t_even_zero[1]
    if not (t1 > 0.0 and t2 > t1):
        raise InvalidTimes(
            f"need 0 < t1 < t2 in the adjusted schedule, got t1={float(t1)}, "
            f"t2={float(t2)}"
        )
    d = derive_constants(p)
    z0_log = -asld(p.E1) * t1 - d.log_a
    if not (z0_log < 0.0):
        raise InvalidTimes(
            "adjusted first leg is too short to correspond to an interior "
            f"seed height (recovered log height {float(z0_log)} >= 0)"
        )
    rho1_log = -asld(p.E2) * (t2 - t1)
    combo = d.invariants.omega_combo
    theta0 = combo * (t2 / (d.gamma1 + LD(1.0)) - (t2 - t1) / d.gamma1)
    return RecoveredPoint(
        z0_log=z0_log,
        rho1_log=rho1_log,
        theta0=theta0,
        theta0_reduced=np.mod(theta0, TWO_PI),
    )


def verify_conjugacy(
    q0: SectionPoint,
    p: SystemParams,
    g: SystemParams,
    n_pairs: int = 10,
    tol: float = 1e-8,
    strict: bool = True,
) -> ConjugacyReport:
    """Replay the adjusted schedule of ``q0`` on system ``g`` and compare.

    The report's ``image_point`` is the seed of ``g`` that the conjugacy
    assigns to ``q0``: the recovery equations, with the constants of
    ``g``, solved on the adjusted times of ``q0``'s orbit under ``p``.
    Generates ``g``'s orbit from the image point and measures every
    hitting time against the adjusted schedule of the source orbit; the
    schedule equality at all crossings *is* the conjugacy relation
    restricted to the sections, and its flow extension holds by
    construction between crossings.

    With ``strict=True`` (default) any of the four invariants of ``p``
    and ``g`` differing by more than 1e-9 raises
    :class:`~bykov.errors.InvariantMismatch`: the construction is only
    meaningful inside one conjugacy class.  ``strict=False`` runs the
    replay anyway, which is how one observes the geometric divergence
    separating non-conjugate systems; the verdict then simply comes back
    false.  ``n_pairs`` must be an integer and ``tol`` positive and finite.
    """
    _check_count(n_pairs, "n_pairs")
    _check_tol(tol)
    devs = np.abs(invariant_tuple(p).as_array() - invariant_tuple(g).as_array())
    if strict and np.any(devs > _INVARIANT_TOL):
        raise InvariantMismatch(
            "systems do not share the invariant tuple; componentwise "
            f"deviations {[float(x) for x in devs]} exceed {_INVARIANT_TOL}; "
            "pass strict=False to observe the divergence anyway"
        )
    # one adjusted loop beyond the measured ones gives the closing odd
    # crossing a partner; the image reads only T0, not the loop count
    h = generate_hitting_sequence(q0, p, n_pairs)
    adj = adjusted_sequence(h, derive_constants(p), n_pairs + 1)
    image = recover_point(adj, g)

    seed_bar = SectionPoint(
        chart="Out2", theta_lifted=image.theta0, log_coord=image.z0_log
    )
    h_bar = generate_hitting_sequence(seed_bar, g, n_pairs)

    schedule = np.empty(2 * n_pairs + 2, dtype=LD)
    schedule[0::2] = adj.t_even_zero[: n_pairs + 1]
    schedule[1::2] = adj.t_odd_zero[: n_pairs + 1]

    raw = np.abs(h_bar.times - schedule)
    scaled = raw / np.maximum(LD(1.0), np.abs(schedule))
    max_dev = float(np.max(scaled))
    return ConjugacyReport(
        target_params=g,
        image_point=image,
        time_deviations=raw.astype(float),
        max_dev=max_dev,
        verdict=bool(max_dev < tol),
    )
