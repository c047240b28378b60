"""What the test modules share, and an equality digest of every public output.

The canonical systems and seed are those of ``bykov.acceptance``.
``same_bits`` compares value bytes, ``spy_derivations`` records the
constants each parameter object derives, ``draw_orbit`` draws the random
orbits of the bitwise tests, and ``half_transition``, ``longhand_orbit``,
``longhand_chain`` and ``iterated_poincare`` write the model out longhand.
``exact`` and ``exact_chain`` carry long doubles into mpmath.  ``python
tests/reference.py`` prints ``digest()``, one line per output, for the
``bykov`` on ``PYTHONPATH`` (this repo's ``src`` when none is given).
"""

from __future__ import annotations

import collections
import dataclasses
import hashlib
import sys
import warnings
from pathlib import Path

if __name__ == "__main__":
    sys.path.append(str(Path(__file__).resolve().parents[1] / "src"))

import mpmath
import numpy as np

import bykov
from bykov import (
    DegenerateInput,
    Observable,
    PerturbationSpec,
    SectionPoint,
    SystemParams,
    poincare,
    psi21,
)
from bykov.acceptance import CANONICAL_PARAMS as P
from bykov.acceptance import PERTURBED_PARAMS as PP  # noqa: F401
from bykov.acceptance import SEED

LD = np.longdouble

# an x87 long double holds its value in 10 bytes; the rest of its 12 or
# 16 are padding, which NumPy leaves uninitialized
_LD_BYTES = 10 if np.finfo(LD).nmant == 63 else LD().itemsize


def payload(x) -> bytes:
    """The value bytes of ``x``, element by element, without padding."""
    x = np.ascontiguousarray(np.asarray(x).reshape(-1))
    width = _LD_BYTES if x.dtype == np.longdouble else x.itemsize
    return x.view(np.uint8).reshape(-1, x.itemsize)[:, :width].tobytes()


def same_bits(got, want, equal_nan: bool = False) -> bool:
    """Equal dtype, shape and value bytes, so ``-0.0`` is not ``0.0``.

    A NaN fails, as in ``np.array_equal``, unless ``equal_nan``; then it
    has to carry the payload of the NaN it is compared with.
    """
    got, want = np.asarray(got), np.asarray(want)
    return (got.dtype == want.dtype and got.shape == want.shape
            and (equal_nan or not np.isnan(got).any())
            and payload(got) == payload(want))


def spy_derivations(monkeypatch) -> list[tuple[str, int]]:
    """``(table, id(params))`` for each table a ``SystemParams`` derives, in order.

    The two tables are ``_constants`` and ``_kernel``, each a
    ``functools.cached_property``, whose builder the spy wraps while the
    test runs.  A builder that raises is recorded too.
    """
    built = []
    for name in ("_constants", "_kernel"):
        prop = SystemParams.__dict__[name]

        def spy(p, name=name, build=prop.func):
            built.append((name, id(p)))
            return build(p)

        monkeypatch.setattr(prop, "func", spy)
    return built


def draw_orbit(rng: np.random.Generator, perturbed: bool, smooth: bool = False):
    """A seed on ``Out2`` and an admissible system ``(q0, p)``; with ``smooth``, ``(q0, p, G)``.

    ``E`` in [0.5, 2], ``C/E`` in [1.2, 3], twists in [0.5, 3], ``a`` in
    [0.1, 0.9], seed height in [0.01, 0.5]; perturbed: ``c1``, ``c2`` up
    to 0.1, ``eps`` in [0.3, 0.8].  ``G`` is drawn last, so both forms
    take the same stream up to it.
    """
    E1, E2 = rng.uniform(0.5, 2.0, size=2)
    pert = None
    if perturbed:
        c1, c2 = rng.uniform(0.0, 0.1, size=2)
        pert = PerturbationSpec(c1=c1, c2=c2, eps=rng.uniform(0.3, 0.8))
    p = SystemParams(
        C1=E1 * rng.uniform(1.2, 3.0), E1=E1, omega1=rng.uniform(0.5, 3.0),
        C2=E2 * rng.uniform(1.2, 3.0), E2=E2, omega2=rng.uniform(0.5, 3.0),
        a=rng.uniform(0.1, 0.9), perturbation=pert,
    )
    q0 = SectionPoint("Out2", rng.uniform(0.0, 2 * np.pi), np.log(rng.uniform(0.01, 0.5)))
    if not smooth:
        return q0, p
    g1, g2 = rng.uniform(-1.0, 1.0, size=2)
    G = Observable("smooth", g1, g2, m=rng.uniform(0.5, 4.0),
                   g_boundary=g1 + rng.uniform(0.0, 1.0) * (g2 - g1))
    return q0, p, G


def half_transition(log_in, theta_in, expand, saddle, twist, c, eps):
    """``(transit, log_out, theta_out)`` of one half transition, written out longhand.

    The kernel's IEEE operations in the kernel's order, with each
    correction evaluated also once its amplitude has underflowed to 0.
    """
    transit = -log_in / expand
    log_out = saddle * log_in + np.log1p(c * np.exp(saddle * eps * log_in) * np.cos(theta_in))
    theta_out = (theta_in + twist * transit
                 + c * np.exp(saddle * (LD(1.0) + eps) * log_in) * np.sin(theta_in))
    return transit, log_out, theta_out


def longhand_orbit(q0: SectionPoint, p: SystemParams, n_pairs: int):
    """``(times, theta, log_coord)`` of the hitting-time generator, written out longhand.

    Each crossing is built through the public ``SectionPoint`` constructor
    as it is produced, so the first crossing off the connection raises
    with its message.  A radius correction that reaches the spiral axis
    raises as the kernel does, after the check of the leg's entry: a
    non-finite entry angle, which only the reinjection can make, turns the
    correction NaN, and the check names the angle.  The ``In1`` entry is
    checked only there.  Then the times must increase and the last one be
    finite.
    """
    pert = p.perturbation or PerturbationSpec()
    a, eps = LD(p.a), LD(pert.eps)
    log_a = np.log(a)
    v1 = (LD(p.E1), LD(p.C1) / LD(p.E1), LD(p.omega1), LD(pert.c1))
    v2 = (LD(p.E2), LD(p.C2) / LD(p.E2), LD(p.omega2), LD(pert.c2))
    q, t = q0, LD(0.0)
    times, theta, log_coord = [t], [q.theta_lifted], [q.log_coord]
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, 2 * n_pairs + 2):
            if k % 2:  # reinjected onto In1, then through V1 to Out1
                chart, (E, saddle, omega, c) = "Out1", v1
                theta_in, log_in = q.theta_lifted / a, log_a + q.log_coord
            else:  # glued onto In2, then through V2 to Out2
                chart, (E, saddle, omega, c) = "Out2", v2
                theta_in, log_in = q.theta_lifted, q.log_coord
            radial = c * np.exp(saddle * eps * log_in) * np.cos(theta_in)
            if not LD(1.0) + radial > 0.0:
                SectionPoint("In1", theta_in, log_in)
                raise DegenerateInput(
                    f"radius correction reaches the spiral axis; 1 + {float(radial)} <= 0")
            transit, log_out, theta_out = half_transition(log_in, theta_in, E, saddle, omega, c, eps)
            q, t = SectionPoint(chart, theta_out, log_out), t + transit
            times.append(t), theta.append(q.theta_lifted), log_coord.append(q.log_coord)
    times = np.array(times, dtype=LD)
    if not np.all(np.diff(times) > 0):
        raise DegenerateInput("hitting times failed to increase strictly")
    if not times[-1] < np.inf:
        raise DegenerateInput(
            f"the hitting time of crossing {len(times) - 1} is not finite: {times[-1]}")
    return times, np.array(theta, dtype=LD), np.array(log_coord, dtype=LD)


def exits_from_defects(h, p: SystemParams):
    """The ``Out1`` and ``Out2`` log-coordinates of ``h`` as ``saddle*log_in + D``.

    ``D`` is ``diagnostics._defects``, on the entries of each leg that
    ``h`` stores; the saddle indices and ``ln a`` are those of
    ``derive_constants``.
    """
    d = bykov.derive_constants(p)
    D1, D2 = bykov.diagnostics._defects(h, p)
    return (d.delta1 * (d.log_a + h.log_coord[0:-1:2]) + D1,
            d.delta2 * h.log_coord[1:-1:2] + D2)


def longhand_chain(value, steps: int, d):
    """``value`` carried back ``steps`` adjusted-time chain steps, one scalar at a time."""
    for _ in range(steps):
        value = (value + d.invariants.tau_log_a) / d.delta
    return value


def exact(x) -> mpmath.mpf:
    """A long double or float as an mpmath number, exactly, through ``as_integer_ratio()``.

    The power of 2 in the numerator is moved to the exponent first:
    mpmath normalizes an integer with many trailing zero bits slowly, and
    durations near the long-double maximum have 16,000-bit numerators.
    """
    num, den = x.as_integer_ratio()  # den is a power of 2
    zeros = max((num & -num).bit_length() - 1, 0)
    return mpmath.ldexp(num >> zeros, zeros - den.bit_length() + 1)


def exact_chain(T, d) -> tuple[list, list]:
    """``(chain, floor)``: each ``T[i]`` carried back ``i`` chain steps, at 60 digits.

    ``i`` steps of ``(x + tau*ln a) / delta`` take ``T[i]`` to
    ``x* + (T[i] - x*) * delta**-i``, with ``x* = tau*ln a / (delta - 1)``,
    on the exact values of the long doubles ``T``, ``delta`` and
    ``tau*ln a``.  The floor of element ``i`` is ``eps`` times the sum of
    the magnitudes of the two terms of ``T[i]*delta**-i - x* *
    expm1(-i*ln delta)``: ``eps * (|T[i]|*delta**-i + |x*|*|expm1(-i*ln delta)|)``.
    Both lists hold ``mpmath.mpf`` values, to be compared at 60 digits.
    """
    with mpmath.workdps(60):
        delta = exact(d.delta)
        fixed = exact(d.invariants.tau_log_a) / (delta - 1)
        ln_delta, eps = mpmath.log(delta), exact(np.finfo(LD).eps)
        chain, floor = [], []
        for i, t in enumerate(map(exact, T)):
            shrink = delta**-i
            chain.append(fixed + (t - fixed) * shrink)
            floor.append(eps * (abs(t) * shrink + abs(fixed * mpmath.expm1(-i * ln_delta))))
    return chain, floor


def extract_limit(family):
    """``(T0, residual_tail_bound)`` of a backward family, in ``np.diff`` and ``np.max``."""
    diffs = np.abs(np.diff(family))
    floor = LD(16.0) * np.finfo(LD).eps * np.max(np.abs(family))
    significant = np.nonzero(diffs > floor)[0]
    if len(significant) == 0:
        return family[-1], float(np.max(diffs))
    k = significant[-1]
    if k >= 1 and diffs[k - 1] > floor and diffs[k - 1] > diffs[k]:
        ratio = min(float(diffs[k] / diffs[k - 1]), 0.9)
    else:
        ratio = 0.5
    return family[-1], float(diffs[k]) * ratio / (1.0 - ratio)


def iterated_poincare(q0: SectionPoint, p: SystemParams, n_pairs: int):
    """``n_pairs`` return steps ``(theta, log, time)`` from the reinjected seed, then a ``V1`` leg.

    The closing leg is the longhand ``half_transition``, on the ``V1``
    constants written out from ``p``.  It runs under ``np.errstate``, as
    the generator's legs do, so a value that overflows there is refused by
    the check of the ``Out1`` point, not by NumPy's warning.
    """
    q, steps = psi21(q0, p), []
    for _ in range(n_pairs):
        q, t = poincare(q, p)
        steps.append((q.theta_lifted, q.log_coord, t))
    pert = p.perturbation or PerturbationSpec()
    E1 = LD(p.E1)
    with np.errstate(over="ignore", invalid="ignore"):
        s, log1, theta1 = half_transition(q.log_coord, q.theta_lifted, E1, LD(p.C1) / E1,
                                          LD(p.omega1), LD(pert.c1), LD(pert.eps))
    SectionPoint("Out1", theta1, log1)  # checked, as the generator checks it
    return np.array(steps, dtype=LD), np.array([theta1, log1, s])


def _near_one_estimate():
    near_one = dataclasses.replace(P, C1=1.05, E1=1, C2=1.05, E2=1)  # delta = 1.1025
    return bykov.estimate_invariants(bykov.generate_hitting_sequence(SEED, near_one, 12))


# (seed, system, loops) of orbits that leave the model's range: the
# reinjected angle overflows; the log height overflows at return 2585;
# the orbit enters V1 at angle pi, where the radius correction is -22.5
_ORBITS = {
    "tiny_a": (SEED, dataclasses.replace(P, a=1e-300), 40),
    "delta81": (SectionPoint("Out2", 0.0, -1.0),
                SystemParams(C1=9, E1=1, omega1=1, C2=9, E2=1, omega2=2, a=0.5), 2600),
    "axis": (SectionPoint("Out2", np.pi / 2, np.log(0.9)),
             dataclasses.replace(P, perturbation=PerturbationSpec(c1=50.0, c2=0.0, eps=0.5)), 4),
}

# (name, call, arguments) of inputs that the random draws never reach
EDGE_CASES = (
    *((f"edge.poincare.{case}", iterated_poincare, orbit) for case, orbit in _ORBITS.items()),
    *((f"edge.generate_hitting_sequence.{case}", bykov.generate_hitting_sequence, orbit)
      for case, orbit in _ORBITS.items()),
    ("edge.estimate_invariants.near_one", _near_one_estimate, ()),
    # leg 1023 lasts 1.45e308, past half the float64 range
    ("edge.birkhoff_average.smooth", bykov.birkhoff_average,
     (SEED, P, Observable("smooth", 0.0, 1.0, m=2), 1023)),
)


def _encode(x) -> bytes:
    """Type-tagged bytes of ``x``, with the value bytes of each floating value."""
    if isinstance(x, (np.ndarray, np.generic, float)):
        x = np.asarray(x)
        return f"{x.dtype.str}{x.shape}:".encode() + payload(x)
    if isinstance(x, (tuple, list)):
        return b"(" + b"".join(map(_encode, x)) + b")"
    if dataclasses.is_dataclass(x):
        return b"".join(f.name.encode() + b"=" + _encode(getattr(x, f.name))
                        for f in dataclasses.fields(x))
    return f"{type(x).__name__}:{x!r};".encode()


def digest() -> dict[str, str]:
    """One sha256 per public output over 400 fixed random orbits.

    The orbits are ``draw_orbit(rng, perturbed, smooth=True)`` from seed
    5, every second one perturbed, 16 loops each, so that every perturbed
    orbit passes the kernel's cut-off; ``verify_conjugacy`` replays each on
    the matched system with both expansion rates doubled.  A refusal
    hashes its type and message, a warning its category and message,
    under the name of the call.  Then 16 orbits from seed 6, drawn the
    same way, run 64 loops (128 smooth legs) under names ending in
    ``.n64``: four times the loops, so that the adjusted times carry
    durations back through ``delta**-63`` and the re-anchored families of
    ``shift_invariance_check`` start as late as loop 40.  Last, the
    ``EDGE_CASES``, each under its own ``edge.*`` name.
    Holds for the 80-bit x87 long double only.
    """
    if np.finfo(LD).nmant != 63:
        raise SystemExit(
            "the equality digest holds for the 80-bit x87 long double only; "
            f"np.longdouble here has {np.finfo(LD).nmant} fraction bits, not 63"
        )
    sha = collections.defaultdict(hashlib.sha256)

    def record(f, *args, name=None):
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            try:
                value = outcome = f(*args)
            except bykov.BykovError as err:
                value, outcome = None, ("refused", type(err).__name__, str(err))
        warned = [("warned", w.category.__name__, str(w.message)) for w in seen]
        sha[name or f.__name__].update(_encode([outcome, *warned]))
        return value

    rng = np.random.default_rng(5)
    for k in range(400):
        q0, p, G = draw_orbit(rng, perturbed=k % 2 == 1, smooth=True)
        record(iterated_poincare, q0, p, 16, name="poincare")
        h = record(bykov.generate_hitting_sequence, q0, p, 16)
        if h is None:
            continue
        d = bykov.derive_constants(p)
        record(bykov.lemma_diagnostics, h, d)
        record(bykov.corollary_ratios, h, p)
        record(bykov.estimate_invariants, h)
        record(bykov.perturbation_decay_slope, h, p)
        record(bykov.adjusted_sequence, h, d)
        record(lambda: np.array([bykov.shift_invariance_check(h, d, N) for N in (0, 2)]),
               name="shift_invariance_check")
        record(lambda: np.array([bykov.sojourn_fractions(h, i) for i in range(1, len(h.times))]),
               name="sojourn_fractions")
        piecewise = Observable("piecewise_constant", G.g_sigma1, G.g_sigma2)
        for kind, obs, legs in (("piecewise", piecewise, 24), ("smooth", G, 8)):
            s = record(bykov.birkhoff_average, q0, p, obs, legs, name=f"birkhoff_average.{kind}")
            if s is not None:
                record(bykov.historic_certificate, s, name=f"historic_certificate.{kind}")
        g = bykov.matching_params(p, E1_bar=2 * p.E1, E2_bar=2 * p.E2, omega2_bar=p.omega2)
        record(bykov.verify_conjugacy, q0, p, g, 6)
    rng = np.random.default_rng(6)
    for k in range(16):
        q0, p, G = draw_orbit(rng, perturbed=k % 2 == 1, smooth=True)
        record(iterated_poincare, q0, p, 64, name="poincare.n64")
        h = record(bykov.generate_hitting_sequence, q0, p, 64, name="generate_hitting_sequence.n64")
        if h is None:
            continue
        d = bykov.derive_constants(p)
        record(bykov.adjusted_sequence, h, d, name="adjusted_sequence.n64")
        record(lambda: np.array([bykov.shift_invariance_check(h, d, N) for N in (0, 2, 17, 40)]),
               name="shift_invariance_check.n64")
        s = record(bykov.birkhoff_average, q0, p, G, 128, name="birkhoff_average.smooth.n64")
        if s is not None:
            record(bykov.historic_certificate, s, name="historic_certificate.smooth.n64")
    for name, f, args in EDGE_CASES:
        record(f, *args, name=name)
    return {name: running.hexdigest() for name, running in sorted(sha.items())}


if __name__ == "__main__":
    for name, hexdigest in digest().items():
        print(f"{hexdigest}  {name}")
