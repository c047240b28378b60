"""Hitting-time sequences against independently tabulated references."""

from __future__ import annotations

import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from bykov import (
    BykovError,
    DegenerateInput,
    InsufficientData,
    Observable,
    PerturbationSpec,
    SectionPoint,
    SystemParams,
    birkhoff_average,
    generate_hitting_sequence,
    sojourn_fractions,
    verify_conjugacy,
)
import bykov.flow
import bykov.hitting
import bykov.params
from bykov.acceptance import ideal_closed_form_times
from reference import LD, P, PP, half_transition, iterated_poincare, same_bits

# not the canonical seed: ln 0.1 taken in long double and rounded to
# float64 is -0x1.26bb1bbb55516p+1, one float64 ulp below the canonical
# -0x1.26bb1bbb55515p+1, and REFERENCE_TIMES were computed from it
SEED = SectionPoint(chart="Out2", theta_lifted=1.0, log_coord=float(np.log(LD("0.1"))))

# 50-digit arbitrary-precision recursion, truncated to longdouble width.
REFERENCE_TIMES = [
    "0",
    "2.995732273553990993435",
    "6.990041971625978984682",
    "19.66611824640188826784",
    "36.56755327943643397872",
    "87.96500555910001642077",
    "156.4949419319847930102",
    "362.7778982311990680878",
    "637.8218399634847681913",
    "1463.646812340901813811",
    "2564.746775510791207971",
    "5868.73981220101933576",
]


def test_times_match_high_precision_reference():
    h = generate_hitting_sequence(SEED, P, 5)
    ref = np.array([LD(x) for x in REFERENCE_TIMES])
    np.testing.assert_allclose(h.times, ref, rtol=1e-15, atol=0)
    assert h.times.dtype == np.dtype(np.longdouble)


def test_sequence_layout():
    n = 6
    h = generate_hitting_sequence(SEED, P, n)
    assert len(h.times) == 2 * n + 2
    assert len(h.theta) == 2 * n + 2
    assert len(h.log_coord) == 2 * n + 2
    assert len(h.sojourns_V1) == n + 1
    assert len(h.sojourns_V2) == n
    assert h.n_pairs == n
    assert h.times[0] == 0.0
    assert all(b > a for a, b in zip(h.times, h.times[1:]))
    assert h.theta[0] == SEED.theta_lifted
    assert h.log_coord[0] == SEED.log_coord
    assert np.all(h.log_coord < 0)
    for arr in (h.theta, h.log_coord):
        assert arr.dtype == np.dtype(np.longdouble)


def test_times_are_cumulative_sojourns():
    h = generate_hitting_sequence(SEED, P, 5)
    legs = np.empty(2 * 5 + 1, dtype=LD)
    legs[0::2] = h.sojourns_V1
    legs[1::2] = h.sojourns_V2
    np.testing.assert_allclose(np.cumsum(legs), h.times[1:], rtol=1e-18)


def test_seed_must_be_out2():
    q = SectionPoint(chart="In1", theta_lifted=0.0, log_coord=-1.0)
    with pytest.raises(DegenerateInput, match="Out2"):
        generate_hitting_sequence(q, P, 3)


def test_at_least_one_pair():
    with pytest.raises(InsufficientData):
        generate_hitting_sequence(SEED, P, 0)


def test_matches_closed_form_for_random_parameters():
    """Generator vs a six-line scalar recursion that bypasses the map layer."""
    rng = np.random.default_rng(2026)
    for _ in range(10):
        E1, E2 = rng.uniform(0.5, 2.0, size=2)
        p = SystemParams(
            C1=E1 * rng.uniform(1.2, 3.0),
            E1=E1,
            omega1=rng.uniform(0.3, 3.0),
            C2=E2 * rng.uniform(1.2, 3.0),
            E2=E2,
            omega2=rng.uniform(0.3, 3.0),
            a=rng.uniform(0.1, 0.9),
        )
        z0 = rng.uniform(0.01, 0.5)
        seed = SectionPoint(chart="Out2", theta_lifted=0.0, log_coord=float(np.log(z0)))
        h = generate_hitting_sequence(seed, p, 3)
        np.testing.assert_allclose(
            h.times, ideal_closed_form_times(p, z0, 3), rtol=1e-15, atol=1e-18
        )


def test_sojourn_fractions_partition_and_limit():
    h = generate_hitting_sequence(SEED, P, 8)
    f1, f2 = sojourn_fractions(h, 16)
    assert float(f1 + f2) == 1.0
    # idealized loops split 1 : gamma1 between the cylinders at even cuts
    np.testing.assert_allclose(float(f1), 3 / 7, rtol=1e-17)
    np.testing.assert_allclose(float(f2), 4 / 7, rtol=1e-17)
    with pytest.raises(InsufficientData):
        sojourn_fractions(h, 0)
    with pytest.raises(InsufficientData):
        sojourn_fractions(h, len(h.times))


def test_perturbed_times_reference():
    h = generate_hitting_sequence(SEED, PP, 2)
    ref = [
        LD("2.995732273553990993435"),   # first crossing is perturbation-free
        LD("6.991430572904388315115"),
        LD("19.67160290485452120699"),
        LD("36.57849920920634577254"),
    ]
    np.testing.assert_allclose(h.times[1:5], ref, rtol=1e-15)
    np.testing.assert_allclose(
        float(h.theta[1]), 4.995743639771826314, rtol=1e-16
    )
    np.testing.assert_allclose(
        float(h.log_coord[2]), -11.98702515139018758, rtol=1e-16
    )


def test_perturbed_first_crossing_equals_idealized():
    # the radial kick acts on the exit data, never on the first passage time
    pp = dataclasses.replace(P, perturbation=PerturbationSpec(c1=0.4, c2=0.4, eps=0.3))
    hi = generate_hitting_sequence(SEED, P, 1)
    hp = generate_hitting_sequence(SEED, pp, 1)
    assert float(hi.times[1]) == float(hp.times[1])


def test_constants_derived_once_per_orbit(monkeypatch):
    calls = []

    def counting(p):
        calls.append(p)
        return bykov.params.derive_constants(p)

    for module in (bykov.flow, bykov.hitting):
        monkeypatch.setattr(module, "derive_constants", counting, raising=False)
    bykov.flow._leg_constants.cache_clear()
    generate_hitting_sequence(SEED, P, 6)
    assert calls == [P]


def test_each_crossing_is_checked_as_it_is_produced():
    # the first radial kick throws the Out1 crossing off the connection
    # (log radius +0.108); stepping on from it would hide that
    pp = dataclasses.replace(P, perturbation=PerturbationSpec(c1=10, c2=0, eps=0.5))
    seed = SectionPoint(chart="Out2", theta_lifted=0.0, log_coord=float(np.log(0.9)))
    with pytest.raises(DegenerateInput, match="strictly negative"):
        generate_hitting_sequence(seed, pp, 3)


def _longhand_perturbed_orbit(q0, p, n_pairs):
    """The perturbed generator written out longhand, one crossing at a time.

    Each crossing is the longhand ``half_transition``, which always
    evaluates the corrections; the crossings whose amplitude has
    underflowed to 0 are counted.
    """
    q = p.perturbation
    a, eps = LD(p.a), LD(q.eps)
    log_a = np.log(a)
    v1 = (LD(p.E1), LD(p.C1) / LD(p.E1), LD(p.omega1), LD(q.c1))
    v2 = (LD(p.E2), LD(p.C2) / LD(p.E2), LD(p.omega2), LD(q.c2))
    th, lc, t = q0.theta_lifted, q0.log_coord, LD(0.0)
    times, theta, log_coord, underflowed = [t], [th], [lc], 0
    for k in range(1, 2 * n_pairs + 2):
        if k % 2:
            (E, saddle, omega, c), ln_in, th_in = v1, log_a + lc, th / a
        else:
            (E, saddle, omega, c), ln_in, th_in = v2, lc, th
        underflowed += c * np.exp(saddle * eps * ln_in) == 0.0
        transit, lc, th = half_transition(ln_in, th_in, E, saddle, omega, c, eps)
        t = t + transit
        times.append(t), theta.append(th), log_coord.append(lc)
    return [np.array(x, dtype=LD) for x in (times, theta, log_coord)], underflowed


def test_underflowed_corrections_are_skipped_bitwise():
    # the generator stops evaluating a correction once its amplitude is 0;
    # the longhand orbit never does, and every output keeps its bits
    rng = np.random.default_rng(6)
    for _ in range(24):
        E1, E2 = rng.uniform(0.5, 2, 2)
        d1, d2 = rng.uniform(1.2, 3, 2)
        c1, c2, eps = rng.uniform(0.01, 0.1, 2).tolist() + [rng.uniform(0.1, 0.9)]
        p = SystemParams(
            C1=float(d1 * E1), E1=float(E1), omega1=float(rng.uniform(0.5, 3)),
            C2=float(d2 * E2), E2=float(E2), omega2=float(rng.uniform(0.5, 3)),
            a=float(rng.uniform(0.1, 0.9)),
            perturbation=PerturbationSpec(c1=c1, c2=c2, eps=float(eps)),
        )
        theta0, z0 = rng.uniform(0, 2 * np.pi), rng.uniform(0.01, 0.5)
        seed = SectionPoint("Out2", float(theta0), float(np.log(z0)))
        h = generate_hitting_sequence(seed, p, 60)
        expected, underflowed = _longhand_perturbed_orbit(seed, p, 60)
        # both branches of the kernel are taken on every orbit
        assert 0 < underflowed < 2 * 60 + 1
        for got, want in zip((h.times, h.theta, h.log_coord), expected):
            assert same_bits(got, want)


def _outcome(run):
    """``("ok", value)``, or ``("refused", type name, message)`` for a BykovError.

    NumPy's overflow warnings are recorded rather than raised here, so that
    a refusal is seen as the caller sees it; a result must come without any.
    """
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        try:
            value = run()
        except BykovError as e:
            return "refused", type(e).__name__, str(e)
    assert not seen, [str(w.message) for w in seen]
    return "ok", value


_delta = st.floats(1.0, 4.0, exclude_min=True)
_rate = st.floats(0.25, 4.0)
_ORBITS = dict(
    E1=_rate, E2=_rate, d1=_delta, d2=_delta,
    w1=st.floats(0.1, 5.0), w2=st.floats(0.1, 5.0),
    a=st.one_of(st.floats(1e-300, 1e-3), st.floats(1e-3, 1.0, exclude_max=True)),
    c1=st.floats(0.0, 20.0), c2=st.floats(0.0, 20.0),
    eps=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    theta0=st.floats(-10.0, 10.0), z0=st.floats(1e-300, 0.5),
)


def _drawn_orbit(E1, E2, d1, d2, w1, w2, a, c1, c2, eps, theta0, z0):
    """The perturbed system and ``Out2`` seed of one draw from ``_ORBITS``."""
    C1, C2 = E1 * d1, E2 * d2
    assume(C1 > E1 and C2 > E2)
    p = SystemParams(
        C1=C1, E1=E1, omega1=w1, C2=C2, E2=E2, omega2=w2, a=a,
        perturbation=PerturbationSpec(c1=c1, c2=c2, eps=eps),
    )
    return SectionPoint("Out2", theta0, float(np.log(z0))), p


# the reinjected angle overflows while the perturbation is still awake
_OVERFLOWING = dict(E1=1.0, E2=1.0, d1=1.5, d2=1.5, w1=1.0, w2=1.0, a=1e-300,
                    c1=0.1, c2=0.1, eps=1e-9, theta0=1.0, z0=float(np.exp(-1.0)))


@given(**_ORBITS)
# the generator used to call the overflowed angle a radius correction
# reaching the axis
@example(**_OVERFLOWING)
def test_perturbed_orbits_match_the_longhand_or_refuse_alike(
    E1, E2, d1, d2, w1, w2, a, c1, c2, eps, theta0, z0
):
    seed, p = _drawn_orbit(E1, E2, d1, d2, w1, w2, a, c1, c2, eps, theta0, z0)
    n = 60
    gen = _outcome(lambda: generate_hitting_sequence(seed, p, n))
    ret = _outcome(lambda: iterated_poincare(seed, p, n))
    if gen[0] == "refused" or ret[0] == "refused":
        assert gen == ret
        return
    (times, theta, log_coord), _ = _longhand_perturbed_orbit(seed, p, n)
    h = gen[1]
    for got, want in zip((h.times, h.theta, h.log_coord), (times, theta, log_coord)):
        assert same_bits(got, want)
    # the return map: In1 points and return times, from the longhand crossings
    a_ld = LD(a)
    log_a = np.log(a_ld)
    got, closing = ret[1]
    k = np.arange(1, n + 1)
    s = -(log_a + log_coord[2 * k - 2]) / LD(E1)
    u = -log_coord[2 * k - 1] / LD(E2)
    assert same_bits(got[:, 0], theta[2 * k] / a_ld)
    assert same_bits(got[:, 1], log_a + log_coord[2 * k])
    assert same_bits(got[:, 2], s + u)
    last = -(log_a + log_coord[2 * n]) / LD(E1)
    assert same_bits(closing, [theta[2 * n + 1], log_coord[2 * n + 1], last])


@given(**_ORBITS)
@example(**_OVERFLOWING)
def test_the_generator_refuses_without_a_warning(**draw):
    # with warnings as errors, a refusal is still a BykovError, and a
    # result comes without a warning
    seed, p = _drawn_orbit(**draw)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            generate_hitting_sequence(seed, p, 60)
        except BykovError:
            pass


def test_an_overflowing_orbit_is_refused_under_warnings_as_errors():
    # a = 1e-300: the reinjected angle overflows in th / a within 40 loops;
    # the generators of birkhoff_average and verify_conjugacy refuse alike
    p = dataclasses.replace(P, a=1e-300)
    message = "theta_lifted is not finite: inf"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for run in (lambda: generate_hitting_sequence(SEED, p, 40),
                    lambda: birkhoff_average(SEED, p, Observable("piecewise_constant", 0.0, 1.0), 80),
                    lambda: verify_conjugacy(SEED, p, p, 40)):
            with pytest.raises(DegenerateInput, match=message):
                run()
