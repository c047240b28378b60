"""Time averages along the cycle: exact parity split and smooth observables."""

from __future__ import annotations

import collections
import hashlib
import re
import warnings

import mpmath
import numpy as np
import pytest

from bykov import (
    ConstraintViolation,
    DegenerateInput,
    InsufficientData,
    Observable,
    SystemParams,
    birkhoff_average,
    derive_constants,
    generate_hitting_sequence,
    historic_certificate,
    predicted_limits,
)
import bykov.params
from bykov.birkhoff import _CLIP, _SEG_SPAN, _profile_value, _smooth_leg_integrals
from reference import LD, P, PP, SEED, _encode, draw_orbit
INDICATOR = Observable(kind="piecewise_constant", g_sigma1=0.0, g_sigma2=1.0)

# arbitrary-precision references for the running average sampled at the
# odd crossings t_3, t_5, t_7, t_9 of the indicator observable
ODD_REFERENCE = [
    0.2031061568951354514125,
    0.2375461082312733420447,
    0.2465025613192128585333,
    0.2490147348138981466461,
]


def test_observable_validation():
    with pytest.raises(ConstraintViolation, match="kind"):
        Observable(kind="spiky", g_sigma1=0.0, g_sigma2=1.0)
    with pytest.raises(ConstraintViolation, match="m"):
        Observable(kind="smooth", g_sigma1=0.0, g_sigma2=1.0)
    with pytest.raises(ConstraintViolation, match="g_boundary"):
        Observable(kind="smooth", g_sigma1=0.0, g_sigma2=1.0, m=2.0, g_boundary=3.0)
    for bad in (np.inf, np.nan):
        with pytest.raises(ConstraintViolation, match="exponent"):
            Observable(kind="smooth", g_sigma1=0.0, g_sigma2=1.0, m=bad)
        with pytest.raises(ConstraintViolation, match="g_sigma1"):
            Observable(kind="piecewise_constant", g_sigma1=bad, g_sigma2=1.0)
        with pytest.raises(ConstraintViolation, match="g_sigma2"):
            Observable(kind="smooth", g_sigma1=0.0, g_sigma2=-bad, m=2.0)
    assert Observable(kind="smooth", g_sigma1=0.0, g_sigma2=1.0, m=2.0).boundary_value == 0.5
    # a bool or a non-number in a numeric field is refused by name, not read as a number
    for field, bad in (("g_sigma1", "0"), ("g_sigma2", None), ("m", True), ("g_boundary", "0.5"),
                       ("g_sigma1", np.True_)):
        fields = {**dict(kind="smooth", g_sigma1=0.0, g_sigma2=1.0, m=2.0), field: bad}
        with pytest.raises(ConstraintViolation, match=f"^{field} must be a real number, got "):
            Observable(**fields)
    with pytest.raises(ConstraintViolation, match="^g_sigma1 must be a real number, got '0'$"):
        Observable("piecewise_constant", "0", 1)
    # ints, NumPy numbers and long doubles are numbers
    Observable("smooth", 0, np.float32(1.0), m=LD(2.0), g_boundary=np.int64(1))


def test_smooth_profile_interpolates_inside_a_cylinder():
    G = Observable(kind="smooth", g_sigma1=2.0, g_sigma2=6.0, m=3.0, g_boundary=5.0)
    # inside V1: max(rho, z) = 0.5, weight 0.5**3
    value = _profile_value(G, G.g_sigma1, LD(np.log(0.5)), LD(np.log(0.25)))
    np.testing.assert_allclose(value, 2.0 + 3.0 * 0.125, rtol=1e-15)


def test_predicted_limits_canonical():
    d = derive_constants(P)
    even, odd = predicted_limits(d, INDICATOR)
    np.testing.assert_allclose(float(even), 4 / 7, rtol=1e-15)
    np.testing.assert_allclose(float(odd), 1 / 4, rtol=1e-15)


def test_gap_formula_random_sweep():
    """Predicted odd-even gap vs its displayed closed form, 100 draws."""
    rng = np.random.default_rng(42)
    for _ in range(100):
        E1, E2 = rng.uniform(0.5, 2.0, size=2)
        p = SystemParams(
            C1=E1 * rng.uniform(1.2, 3.0), E1=E1, omega1=rng.uniform(0.3, 3.0),
            C2=E2 * rng.uniform(1.2, 3.0), E2=E2, omega2=rng.uniform(0.3, 3.0),
            a=rng.uniform(0.1, 0.9),
        )
        g1, g2 = rng.uniform(-5, 5, size=2)
        G = Observable(kind="piecewise_constant", g_sigma1=g1, g_sigma2=g2)
        d = derive_constants(p)
        even, odd = predicted_limits(d, G)
        gam1, gam2 = float(d.gamma1), float(d.gamma2)
        closed = (1 - gam1 * gam2) * (g2 - g1) / ((1 + gam1) * (1 + gam2))
        np.testing.assert_allclose(float(odd - even), closed, rtol=1e-12, atol=1e-12)


def test_even_averages_exact():
    s = birkhoff_average(SEED, P, INDICATOR, upto_index=16)
    np.testing.assert_allclose(np.asarray(s.even_averages, float), 4 / 7, atol=1e-10)


def test_odd_averages_reference_values():
    s = birkhoff_average(SEED, P, INDICATOR, upto_index=16)
    np.testing.assert_allclose(
        np.asarray(s.odd_averages[1:5], float), ODD_REFERENCE, rtol=1e-12
    )
    errors = np.abs(np.asarray(s.odd_averages, float) - 0.25)
    # within 1e-3 of the odd limit from the fifth odd sample onward
    assert errors[4] < 1e-3
    assert (errors[4:] < 1e-3).all()
    assert errors[3] > 1e-3  # and genuinely not any earlier


def test_two_limit_certificate():
    s = birkhoff_average(SEED, P, INDICATOR, upto_index=16)
    cert = historic_certificate(s)
    assert cert.verdict is True
    np.testing.assert_allclose(cert.gap, -9 / 28, rtol=1e-12)


def test_certificate_fails_for_constant_observable():
    G = Observable(kind="piecewise_constant", g_sigma1=0.7, g_sigma2=0.7)
    s = birkhoff_average(SEED, P, G, upto_index=16)
    cert = historic_certificate(s)
    assert cert.verdict is False
    np.testing.assert_allclose(cert.gap, 0.0, atol=1e-15)


def test_certificate_needs_samples():
    s = birkhoff_average(SEED, P, INDICATOR, upto_index=4)
    with pytest.raises(InsufficientData):
        historic_certificate(s)
    with pytest.raises(InsufficientData, match="^upto_index must be at least 1, got 0$"):
        birkhoff_average(SEED, P, INDICATOR, upto_index=0)


def _leg_integral_closed_form(g_s, g_b, m, contr, expand, depth, length):
    """Exact integral of g_s + (g_b - g_s) * max-coordinate**m over a leg."""
    t_kink = depth / (contr + expand)
    x = np.exp(-m * contr * t_kink)
    return g_s * length + (g_b - g_s) * (1 - x) * (1 / (m * contr) + 1 / (m * expand))


def test_smooth_averages_match_exponential_integrals():
    """Quadrature route vs closed-form exponential integrals per leg."""
    G = Observable(kind="smooth", g_sigma1=1.0, g_sigma2=4.0, m=2.0, g_boundary=2.5)
    s = birkhoff_average(SEED, P, G, upto_index=4)
    h = generate_hitting_sequence(SEED, P, 2)

    # leg 0 crosses V1 from height a*z0, leg 1 crosses V2 from radius rho1
    depth1 = -float(np.log(P.a * 0.1))
    L1 = float(h.sojourns_V1[0])
    int1 = _leg_integral_closed_form(1.0, 2.5, 2.0, P.C1, P.E1, depth1, L1)
    depth2 = -2.0 * float(np.log(P.a * 0.1))  # |log rho1| = delta1 * depth1
    L2 = float(h.sojourns_V2[0])
    int2 = _leg_integral_closed_form(4.0, 2.5, 2.0, P.C2, P.E2, depth2, L2)

    np.testing.assert_allclose(float(s.odd_averages[0]), int1 / L1, rtol=1e-13)
    np.testing.assert_allclose(
        float(s.even_averages[0]), (int1 + int2) / (L1 + L2), rtol=1e-13
    )


def test_smooth_long_orbit_matches_exponential_integrals():
    """64 legs: sojourns long enough that float64 node times round onto the exit."""
    G = Observable(kind="smooth", g_sigma1=1.0, g_sigma2=4.0, m=2.0, g_boundary=2.5)
    n = 64
    s = birkhoff_average(SEED, P, G, upto_index=n)
    h = generate_hitting_sequence(SEED, P, n // 2)
    depth1 = np.asarray(-(np.log(LD(P.a)) + h.log_coord[0:n:2]), float)
    depth2 = np.asarray(-h.log_coord[1:n:2], float)
    integrals = np.empty(n)
    integrals[0::2] = _leg_integral_closed_form(
        1.0, 2.5, 2.0, P.C1, P.E1, depth1, np.asarray(h.sojourns_V1[: n // 2], float)
    )
    integrals[1::2] = _leg_integral_closed_form(
        4.0, 2.5, 2.0, P.C2, P.E2, depth2, np.asarray(h.sojourns_V2[: n // 2], float)
    )
    exact = np.cumsum(integrals) / np.asarray(h.times[1 : n + 1], float)
    np.testing.assert_allclose(np.asarray(s.odd_averages, float), exact[0::2], rtol=1e-13)
    np.testing.assert_allclose(np.asarray(s.even_averages, float), exact[1::2], rtol=1e-13)


def _mpf(x):
    """A long double as an mpmath number, exactly: its two float64 halves."""
    hi = float(x)
    return mpmath.mpf(hi) + mpmath.mpf(float(LD(x) - LD(hi)))


def _leg_integral_50_digits(g_s, g_b, m, contr, expand, entry):
    """``(integral, scale)`` of the smooth observable over one leg, at 50 digits.

    The closed form of the linear flow entered at log-coordinate ``entry``:
    the leg lasts ``L = -entry/E`` and the two log-coordinates cross at
    ``t_k = -entry/(C + E)``.  The scale ``|g|*L + |g_b - g|*(1/(m*C) +
    1/(m*E))`` bounds the integral's terms, so an error divided by it is
    relative to the work the integral does.
    """
    with mpmath.workdps(50):
        g_s, g_b, m, C, E, entry = (mpmath.mpf(g_s), mpmath.mpf(g_b), mpmath.mpf(m),
                                    mpmath.mpf(contr), mpmath.mpf(expand), _mpf(entry))
        L, t_k, tails = -entry / E, -entry / (C + E), 1 / (m * C) + 1 / (m * E)
        exact = g_s * L + (g_b - g_s) * -mpmath.expm1(-m * C * t_k) * tails
        return exact, abs(g_s) * L + abs(g_b - g_s) * tails


def test_smooth_leg_integrals_match_the_50_digit_closed_form():
    rng = np.random.default_rng(9)
    canonical = Observable(kind="smooth", g_sigma1=1.0, g_sigma2=4.0, m=2.0, g_boundary=2.5)
    orbits = [(SEED, P, canonical, 64)]
    orbits += [(*draw_orbit(rng, perturbed=k % 2 == 1, smooth=True), 24) for k in range(12)]
    worst = 0.0
    for q0, p, G, n in orbits:
        h = generate_hitting_sequence(q0, p, n // 2)
        # the legs of each cylinder as birkhoff_average hands them over
        cylinders = ((G.g_sigma1, np.log(LD(p.a)) + h.log_coord[0:n:2], h.sojourns_V1, p.E1, p.C1),
                     (G.g_sigma2, h.log_coord[1:n:2], h.sojourns_V2, p.E2, p.C2))
        for g_s, log_in, sojourns, E, C in cylinders:
            got = _smooth_leg_integrals(G, g_s, log_in, sojourns[: n // 2].astype(float), E, C)
            for value, entry in zip(got, log_in):
                exact, scale = _leg_integral_50_digits(g_s, G.boundary_value, G.m, C, E, entry)
                worst = max(worst, float(abs(mpmath.mpf(float(value)) - exact) / scale))
    assert worst <= 1e-13, worst


_GL_X, _GL_W = np.polynomial.legendre.leggauss(32)


def _longhand_flow_value(G, g, cylinder, entry, t, p, counts):
    """``G`` at float64 time ``t`` into a sojourn entered at log-coordinate ``entry``.

    The linear flow written out in scalar long double: the contracting
    log-coordinate is ``-C*t``, the expanding one ``entry + E*t``.  A time
    at most one float64 ulp past the exit time is the exit time, and an
    expanding coordinate that lands within ``64*eps*max(1, |entry|)`` above
    the boundary is on it; ``counts`` tallies these ``"clamp"`` and
    ``"snap"`` edits.  The profile is evaluated in float64.
    """
    if cylinder == "V1":
        contract, expand = LD(p.C1), LD(p.E1)
    else:
        contract, expand = LD(p.C2), LD(p.E2)
    t = LD(t)
    t_exit = -entry / expand
    if t > t_exit and t - t_exit <= np.spacing(float(t_exit)):
        t = t_exit
        counts["clamp"] += 1
    fading = LD(0.0) - contract * t
    growing = entry + expand * t
    if 0.0 < growing < LD(64.0) * np.finfo(LD).eps * max(LD(1.0), abs(entry)):
        growing = LD(0.0)
        counts["snap"] += 1
    rho, z = (fading, growing) if cylinder == "V1" else (growing, fading)
    return g + (G.boundary_value - g) * np.exp(float(G.m) * float(max(rho, z)))


def _longhand_leg_integral(G, cylinder, entry, leg_len, p, counts):
    """One smooth leg integral, node by node with the longhand scalar flow.

    Composite Gauss-Legendre over ``G(flow(t))`` on the clipped decaying
    and rising pieces, each weighted sum taken left to right and each
    piece summed segment by segment.
    """
    m = float(G.m)
    if cylinder == "V1":
        contr, expand, g = float(p.C1), float(p.E1), G.g_sigma1
    else:
        contr, expand, g = float(p.C2), float(p.E2), G.g_sigma2
    t_kink = float(-entry) / (contr + expand)
    w1 = min(t_kink, _CLIP / (m * contr))
    w2 = min(leg_len - t_kink, _CLIP / (m * expand))
    total = g * leg_len
    for lo, hi, rate, width in ((0.0, w1, contr, w1), (leg_len - w2, leg_len, expand, w2)):
        n_seg = max(1, int(np.ceil(m * rate * width / _SEG_SPAN)))
        edges = np.linspace(lo, hi, n_seg + 1)
        piece = 0.0
        for a, b in zip(edges[:-1], edges[1:]):
            mid, half = 0.5 * (a + b), 0.5 * (b - a)
            piece += half * sum(
                w * (_longhand_flow_value(G, g, cylinder, entry, mid + half * x, p, counts) - g)
                for x, w in zip(_GL_X, _GL_W)
            )
        total += piece
    return total


@pytest.mark.parametrize("perturbed", [False, True], ids=["idealized", "perturbed"])
def test_smooth_averages_match_longhand_quadrature_bitwise(perturbed):
    rng = np.random.default_rng(21 + perturbed)
    orbits = [(*draw_orbit(rng, perturbed, smooth=True), 24) for _ in range(10)]
    # 64 legs: sojourns long enough that float64 node times round onto the exit
    canonical = Observable(kind="smooth", g_sigma1=1.0, g_sigma2=4.0, m=2.0, g_boundary=2.5)
    orbits += [(SEED, PP if perturbed else P, canonical, 64),
               (*draw_orbit(rng, perturbed, smooth=True), 64)]
    counts = collections.Counter()
    for q0, p, G, n in orbits:
        h = generate_hitting_sequence(q0, p, n // 2)
        increments = np.empty(n, dtype=LD)
        for j in range(n):
            if j % 2 == 0:  # V1 leg, height reinjected as ln a + ln z
                cylinder, entry = "V1", np.log(LD(p.a)) + h.log_coord[j]
                leg = h.sojourns_V1[j // 2]
            else:  # V2 leg, radius glued unchanged from Out1 to In2
                cylinder, entry = "V2", h.log_coord[j]
                leg = h.sojourns_V2[j // 2]
            increments[j] = _longhand_leg_integral(G, cylinder, entry, float(leg), p, counts)
        reference = np.cumsum(increments) / h.times[1 : n + 1]
        s = birkhoff_average(q0, p, G, upto_index=n)
        assert np.array_equal(s.odd_averages, reference[0::2])
        assert np.array_equal(s.even_averages, reference[1::2])
    # both edits of the longhand flow are exercised, so the bitwise match
    # covers the quadrature's clamp onto the exit and its snap onto the wall
    assert counts["clamp"] > 0 and counts["snap"] > 0, counts


def test_smooth_average_validates_params_a_fixed_number_of_times(monkeypatch):
    validate = bykov.params.validate_params
    calls = []

    def counting(p):
        calls.append(p)
        return validate(p)

    monkeypatch.setattr(bykov.params, "validate_params", counting)
    G = Observable(kind="smooth", g_sigma1=0.0, g_sigma2=1.0, m=2.0)
    counts = []
    for upto in (8, 24):
        calls.clear()
        birkhoff_average(SEED, P, G, upto_index=upto)
        counts.append(len(calls))
    assert counts[0] == counts[1]


def test_smooth_certificate_still_historic():
    G = Observable(kind="smooth", g_sigma1=0.0, g_sigma2=1.0, m=2.0)
    s = birkhoff_average(SEED, P, G, upto_index=16)
    cert = historic_certificate(s)
    assert cert.verdict is True
    # the boundary layer is transient: limits equal the piecewise ones
    np.testing.assert_allclose(cert.gap, -9 / 28, rtol=1e-12)


def test_averages_stay_in_value_hull():
    rng = np.random.default_rng(5)
    for _ in range(10):
        g1, g2 = sorted(rng.uniform(-3, 3, size=2))
        if g2 - g1 < 1e-3:
            continue
        gb = rng.uniform(g1, g2)
        G = Observable(kind="smooth", g_sigma1=g1, g_sigma2=g2, m=rng.uniform(0.5, 4), g_boundary=gb)
        s = birkhoff_average(SEED, P, G, upto_index=10)
        allv = np.concatenate([s.even_averages, s.odd_averages]).astype(float)
        assert allv.min() >= g1 - 1e-12
        assert allv.max() <= g2 + 1e-12


def test_smooth_average_refuses_an_exponent_whose_rates_leave_the_float_range():
    # m*rate overflows to inf (or, for a tiny m and a rate below 1,
    # rounds to 0); the quadrature must refuse before forming NaN or
    # infinite segment counts, and without a RuntimeWarning on the way
    slow = SystemParams(C1=0.8, E1=0.5, omega1=1, C2=1.2, E2=0.6, omega2=2, a=0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for m, p in ((1e308, P), (5e-324, slow)):
            with pytest.raises(ConstraintViolation, match="e-folding rates"):
                birkhoff_average(SEED, p, Observable("smooth", 0.0, 1.0, m=m), 8)


def test_a_smooth_leg_past_the_float64_range_is_refused():
    # on the canonical orbit leg 1023 (a V1 leg) lasts 1.45e308, below the
    # float64 maximum but above half of it, where the node sums overflow
    G = Observable("smooth", 0.0, 1.0, m=2.0)
    s = birkhoff_average(SEED, P, G, 1022)
    # the sha256 of its value bytes before the refusal was added
    assert hashlib.sha256(_encode(s)).hexdigest() == (
        "237d1433f47889a3f9ef7d78d1abcb83581893ce6c4e6f29d2f405d347262753"
    )
    message = ("the leg ending at crossing {} lasts {}, more than the float64 nodes "
               "of the smooth quadrature can hold")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for upto in (1023, 1024, 2000):  # the first such leg is named
            with pytest.raises(DegenerateInput, match=re.escape(message.format(1023, "1.450e+308"))):
                birkhoff_average(SEED, P, G, upto)
        # a larger value reaches its float64 limit first in leg 1022, of V2
        with pytest.raises(DegenerateInput, match=re.escape(message.format(1022, "4.834e+307"))):
            birkhoff_average(SEED, P, Observable("smooth", 0.0, 4.0, m=2.0), 1023)
        # the piecewise averages are sums of long doubles and go on
        s = birkhoff_average(SEED, P, INDICATOR, 1023)
    assert np.isfinite(s.odd_averages[-1]) and s.odd_times[-1] > 1.4e308


@pytest.mark.parametrize("tol", [0.0, -1.0, float("nan"), float("inf"), True, "1e-3", None])
def test_certificate_tolerance_must_be_positive_and_finite(tol):
    s = birkhoff_average(SEED, P, INDICATOR, upto_index=16)
    with pytest.raises(ConstraintViolation, match="tol must be positive and finite"):
        historic_certificate(s, tol=tol)
