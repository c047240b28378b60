"""What the test modules share, and an equality digest of every public output.

The canonical systems and seed are those of ``bykov.acceptance``.
``same_bits`` compares value bytes, ``draw_orbit`` draws the random
orbits of the bitwise tests, and ``half_transition``, ``longhand_chain``
and ``iterated_poincare`` write the model out longhand.  ``python
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

import numpy as np

import bykov
from bykov import Observable, PerturbationSpec, SectionPoint, SystemParams, phi1, poincare, psi21
from bykov.acceptance import CANONICAL_PARAMS as P  # noqa: F401
from bykov.acceptance import PERTURBED_PARAMS as PP  # noqa: F401
from bykov.acceptance import SEED  # noqa: F401

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


def longhand_chain(value, steps: int, d):
    """``value`` carried back ``steps`` adjusted-time chain steps, one scalar at a time."""
    for _ in range(steps):
        value = (value + d.invariants.tau_log_a) / d.delta
    return value


def iterated_poincare(q0: SectionPoint, p: SystemParams, n_pairs: int):
    """``n_pairs`` return steps ``(theta, log, time)`` from the reinjected seed, then ``phi1``."""
    q, steps = psi21(q0, p), []
    for _ in range(n_pairs):
        q, t = poincare(q, p)
        steps.append((q.theta_lifted, q.log_coord, t))
    out1, s = phi1(q, p)
    return np.array(steps, dtype=LD), np.array([out1.theta_lifted, out1.log_coord, s])


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
    under the name of the call.  Holds for the 80-bit x87 long double only.
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
    return {name: running.hexdigest() for name, running in sorted(sha.items())}


if __name__ == "__main__":
    for name, hexdigest in digest().items():
        print(f"{hexdigest}  {name}")
