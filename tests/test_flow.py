"""Section charts, half transitions, the return map, and interior flow."""

from __future__ import annotations

import dataclasses
import re
import warnings

import numpy as np
import pytest

from bykov import (
    ConstraintViolation,
    DegenerateInput,
    OutOfSojourn,
    PerturbationSpec,
    SectionPoint,
    SystemParams,
    generate_hitting_sequence,
    phi1,
    phi2,
    poincare,
    psi21,
)
from bykov._num import asld
from bykov.flow import _half_transition, _leg_constants, _sojourn_logs
from reference import LD, P, PP, half_transition, same_bits


def test_section_point_rejects_bad_input():
    with pytest.raises(DegenerateInput, match="chart"):
        SectionPoint(chart="Nope", theta_lifted=0.0, log_coord=-1.0)
    with pytest.raises(DegenerateInput):
        SectionPoint(chart="In1", theta_lifted=0.0, log_coord=0.5)
    with pytest.raises(DegenerateInput):
        SectionPoint(chart="In1", theta_lifted=np.nan, log_coord=-1.0)
    # each with its message
    for bad in (np.nan, np.inf, -np.inf):
        message = f"theta_lifted is not finite: {LD(bad)}"
        with pytest.raises(DegenerateInput, match=re.escape(message)):
            SectionPoint(chart="In1", theta_lifted=bad, log_coord=-1.0)
    for bad in (np.nan, np.inf, -np.inf, 0.0, -0.0, 0.5):
        message = (
            "log_coord must be finite and strictly negative "
            f"(point off the connection), got {LD(bad)}"
        )
        with pytest.raises(DegenerateInput, match=re.escape(message)):
            SectionPoint(chart="Out2", theta_lifted=0.0, log_coord=bad)


@pytest.mark.parametrize(
    "theta, log",
    [(3, -2), (0.1, -0.1), (np.float64(0.1), np.float64(-0.1)),
     (np.float32(0.1), np.float32(-0.1)), ("0.1", "-0.1"), (LD("0.1"), LD("-0.1"))],
    ids=["int", "float", "float64", "float32", "str", "longdouble"],
)
def test_section_point_fields_are_long_doubles(theta, log):
    # a long double is kept as it is, anything else goes through asld
    q = SectionPoint(chart="In1", theta_lifted=theta, log_coord=log)
    for got, given in ((q.theta_lifted, theta), (q.log_coord, log)):
        assert type(got) is np.longdouble
        assert same_bits(got, asld(given))
        assert (got is given) == isinstance(given, LD)


def test_theta_reduction():
    q = SectionPoint(chart="In1", theta_lifted=7.5 + 4 * np.pi, log_coord=-1.0)
    np.testing.assert_allclose(float(q.theta), 7.5 - 2 * np.pi, atol=1e-17)


def test_phi1_first_cylinder_passage():
    """Entry height 0.05 on the wall of the expanding-height cylinder."""
    q = SectionPoint(chart="In1", theta_lifted=1.0, log_coord=np.log(LD("0.05")))
    out, transit = phi1(q, P)
    assert out.chart == "Out1"
    np.testing.assert_allclose(transit, LD("2.995732273553990993435"), rtol=1e-17)
    np.testing.assert_allclose(out.log_coord, LD("-5.99146454710798198687"), rtol=1e-17)
    np.testing.assert_allclose(out.theta_lifted, LD("3.995732273553990993435"), rtol=1e-17)


def test_phi2_second_cylinder_passage():
    q = SectionPoint(chart="In2", theta_lifted=0.0, log_coord=np.log(LD("0.0025")))
    out, transit = phi2(q, P)
    assert out.chart == "Out2"
    np.testing.assert_allclose(transit, LD("3.994309698071987991247"), rtol=1e-17)
    np.testing.assert_allclose(out.log_coord, LD("-11.98292909421596397374"), rtol=1e-17)
    np.testing.assert_allclose(out.theta_lifted, LD("7.988619396143975982494"), rtol=1e-17)


def test_phi_requires_matching_chart():
    q = SectionPoint(chart="Out2", theta_lifted=0.0, log_coord=-1.0)
    with pytest.raises(DegenerateInput):
        phi1(q, P)
    with pytest.raises(DegenerateInput):
        phi2(q, P)


def test_psi21_reinjection_algebra():
    rng = np.random.default_rng(11)
    for _ in range(25):
        theta = float(rng.uniform(-20, 20))
        logz = float(-rng.uniform(0.01, 10))
        q = SectionPoint(chart="Out2", theta_lifted=theta, log_coord=logz)
        r = psi21(q, P)
        assert r.chart == "In1"
        np.testing.assert_allclose(float(r.theta_lifted), theta / P.a, rtol=1e-18)
        np.testing.assert_allclose(float(r.log_coord), np.log(0.5) + logz, rtol=1e-15)
        assert r.theta_lifted == q.theta_lifted / LD(P.a)
        assert r.log_coord == np.log(LD(P.a)) + q.log_coord
    # a outside (0, 1) is refused up front, before any log is taken
    q = SectionPoint(chart="Out2", theta_lifted=1.0, log_coord=-1.0)
    for a in (1.5, -0.5):
        bad = dataclasses.replace(P, a=a)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConstraintViolation, match="a must lie strictly between 0 and 1"):
                psi21(q, bad)


def test_poincare_height_recursion_one_step():
    """One return iterates log-height by z -> a * z**delta."""
    q = SectionPoint(chart="In1", theta_lifted=2.0, log_coord=np.log(LD("0.05")))
    nxt, sojourn = poincare(q, P)
    assert nxt.chart == "In1"
    np.testing.assert_allclose(nxt.log_coord, LD("-12.67607627477590928316"), rtol=1e-17)
    np.testing.assert_allclose(sojourn, LD("6.990041971625978984682"), rtol=1e-17)
    # same thing, spelled through the derived saddle index
    expected = np.log(LD(P.a)) + LD(4.0) * q.log_coord
    np.testing.assert_allclose(float(nxt.log_coord), float(expected), rtol=1e-17)


def test_transit_times_positive_and_monotone():
    rng = np.random.default_rng(3)
    heights = np.sort(rng.uniform(1e-8, 0.999, size=40))
    transits = []
    for z in heights:
        q = SectionPoint(chart="In1", theta_lifted=0.0, log_coord=float(np.log(z)))
        _, s = phi1(q, P)
        assert s > 0
        transits.append(float(s))
    # deeper entry (smaller z) means longer passage
    assert all(a > b for a, b in zip(transits, transits[1:]))


def test_perturbed_phi1_matches_direct_formula():
    lnz = LD(np.log(LD("0.05")))
    theta = LD(0.7)
    q = SectionPoint(chart="In1", theta_lifted=float(theta), log_coord=lnz)
    out, transit = phi1(q, PP)
    # E1 = 1, C1/E1 = 2, omega1 = 1, c1 = 0.1, eps = 0.5
    _, ln_rho, theta_out = half_transition(lnz, theta, LD(1), LD(2), LD(1), LD("0.1"), LD("0.5"))
    np.testing.assert_allclose(float(transit), float(-lnz), rtol=1e-18)
    np.testing.assert_allclose(float(out.log_coord), float(ln_rho), rtol=1e-17)
    np.testing.assert_allclose(float(out.theta_lifted), float(theta_out), rtol=1e-17)


def test_poincare_is_the_composition_of_its_legs():
    """poincare = psi21 . phi2 . (Out1 == In2) . phi1, bit for bit."""
    q = SectionPoint(chart="In1", theta_lifted=0.7, log_coord=float(np.log(0.05)))
    for _ in range(6):
        out1, s = phi1(q, PP)
        out2, u = phi2(SectionPoint("In2", out1.theta_lifted, out1.log_coord), PP)
        expected = psi21(out2, PP)
        q, sojourn = poincare(q, PP)
        assert q == expected
        assert sojourn == s + u


@pytest.mark.parametrize("params", [P, PP], ids=["idealized", "perturbed"])
def test_iterated_poincare_matches_the_generator_bitwise(params):
    seed = SectionPoint(chart="Out2", theta_lifted=0.7, log_coord=float(np.log(0.05)))
    h = generate_hitting_sequence(seed, params, 100)
    a = LD(params.a)
    q = psi21(seed, params)
    for k in range(1, 101):
        q, sojourn = poincare(q, params)
        assert q.chart == "In1"
        for got, want in (
            (q.theta_lifted, h.theta[2 * k] / a),
            (q.log_coord, np.log(a) + h.log_coord[2 * k]),
            (sojourn, h.sojourns_V1[k - 1] + h.sojourns_V2[k - 1]),
        ):
            assert same_bits(got, want)


@pytest.mark.parametrize(
    "c1, c2, got", [(10, 0, "0.1077"), (0, 200, "0.1821")], ids=["Out1", "Out2"]
)
def test_poincare_checks_each_exit_crossing(c1, c2, got):
    # the kick throws the named exit crossing off the connection; from
    # Out2 the reinjection would hide it (ln a + 0.18 < 0 on In1)
    pp = dataclasses.replace(P, perturbation=PerturbationSpec(c1=c1, c2=c2, eps=0.5))
    q = psi21(SectionPoint(chart="Out2", theta_lifted=0.0, log_coord=float(np.log(0.9))), pp)
    message = "log_coord must be finite and strictly negative (point off the connection), got "
    with pytest.raises(DegenerateInput, match=re.escape(message + got)):
        poincare(q, pp)


def test_a_log_coordinate_past_the_long_double_range_says_so():
    # delta = 81: the log height overflows to -inf at the 2585th return,
    # with a finite angle; the point is not off the connection
    p = SystemParams(C1=9, E1=1, omega1=1, C2=9, E2=1, omega2=2, a=0.5)
    seed = SectionPoint(chart="Out2", theta_lifted=0.0, log_coord=-1.0)
    message = re.escape("got -inf; the log-coordinate left the long-double range")
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the generator refuses without a warning
        with pytest.raises(DegenerateInput, match=message):
            generate_hitting_sequence(seed, p, 3000)
    q = psi21(seed, p)
    for _ in range(2584):
        q, _ = poincare(q, p)
    with pytest.warns(RuntimeWarning, match="overflow"):
        with pytest.raises(DegenerateInput, match=message):
            poincare(q, p)
    # a finite bad value gets no such note
    with pytest.raises(DegenerateInput, match=r"got 0\.5$"):
        SectionPoint(chart="In1", theta_lifted=0.0, log_coord=0.5)


@pytest.mark.parametrize("c", [5e-324, 0.1, 20, 1e300])
def test_cut_off_lies_where_the_perturbation_has_underflowed(c):
    # at the cut-off the kernel still evaluates exp; one long double below
    # it, it does not; above it, up to the last entry whose amplitude is
    # still exactly 0, it evaluates corrections that are ±0; all agree
    # bitwise with the always-evaluating longhand
    tiny64 = np.finfo(np.float64).smallest_subnormal
    for eps in (1e-300, 1e-3, 0.5, 1 - 2**-52):
        for saddle in (1 + 2**-40, 1.44, 9, 1e6):
            p = SystemParams(
                C1=saddle, E1=1, omega1=1, C2=saddle, E2=1, omega2=2, a=0.5,
                perturbation=PerturbationSpec(c1=c, c2=c, eps=eps),
            )
            for leg in _leg_constants(p)[:2]:
                _, sad, _, c_ld, eps_ld, cut = leg
                assert sad == LD(saddle) and -np.inf < cut < 0.0

                def amplitude(log_in):
                    return c_ld * np.exp(sad * eps_ld * log_in)

                lo, hi = cut, LD(0.0)  # bisect for the last entry with amplitude 0
                while (mid := (lo + hi) / 2) not in (lo, hi):
                    lo, hi = (mid, hi) if amplitude(mid) == 0.0 else (lo, mid)
                assert cut < lo
                above = (np.nextafter(cut, LD(np.inf)), (cut + lo) / 2, lo)
                for log_in in (cut, np.nextafter(cut, LD(-np.inf))) + above:
                    assert amplitude(log_in) == 0.0
                    for theta_in in (LD(0.7), LD(2.5), LD(-0.0), LD(-4.0)):
                        want = half_transition(log_in, theta_in, *leg[:5])
                        got = _half_transition(log_in, theta_in, *leg)
                        assert same_bits(got, want)
            # the same cut-off where longdouble is float64 is conservative too
            cut64 = (np.log(tiny64) - 2.0) / (saddle * eps)
            for log_in in (cut64, np.nextafter(cut64, -np.inf)):
                assert c * np.exp(saddle * eps * log_in) == 0.0


def test_an_unperturbed_leg_has_no_cut_off():
    half = dataclasses.replace(PP, perturbation=PerturbationSpec(c1=0.0, c2=0.1))
    assert [leg[-1] for leg in _leg_constants(P)[:2]] == [np.inf, np.inf]
    cut1, cut2 = (leg[-1] for leg in _leg_constants(half)[:2])
    assert cut1 == np.inf and -np.inf < cut2 < 0.0


def test_perturbation_cannot_push_through_axis():
    # a correction of relative size < -1 would mean a negative radius
    pp = dataclasses.replace(P, perturbation=PerturbationSpec(c1=50.0, c2=0.0, eps=0.5))
    q = SectionPoint(chart="In1", theta_lifted=float(np.pi), log_coord=float(np.log(0.45)))
    with pytest.raises(DegenerateInput, match="radius"):
        phi1(q, pp)


# the linear flow inside V1, entered from In1 (rho_log = 0, z_log < 0)
V1_RATES = (LD(P.E1), LD(P.C1))


def test_sojourn_logs_start_on_the_wall_and_end_on_the_lid():
    z_log = LD(np.log(0.05))
    _, rho, z = _sojourn_logs(0.0, "V1", LD(0.0), z_log, *V1_RATES)
    np.testing.assert_array_equal([float(rho[0]), float(z[0])], [0.0, float(z_log)])
    t_exit = -z_log / LD(P.E1)
    _, rho, z = _sojourn_logs(t_exit, "V1", LD(0.0), z_log, *V1_RATES)
    assert float(z[0]) == 0.0  # exactly on the lid
    with pytest.raises(OutOfSojourn):
        _sojourn_logs(float(t_exit) * 1.01, "V1", LD(0.0), z_log, *V1_RATES)
    with pytest.raises(OutOfSojourn):
        _sojourn_logs(-0.1, "V1", LD(0.0), z_log, *V1_RATES)
    # in V2, entered from In2, the rounded multiply-add overshoots the wall
    rho_log, rates = LD(-15.518991359192194), (LD(1.71845667068446), LD(3.0))
    t_exit2 = -rho_log / rates[0]
    assert rho_log + rates[0] * t_exit2 > 0.0
    assert _sojourn_logs(t_exit2, "V2", rho_log, LD(0.0), *rates)[1][0] == 0.0  # snapped


def test_sojourn_logs_take_a_float64_exit_time_rounded_up():
    # a long sojourn: its float64 exit time may lie above the long-double one
    z_log = LD("-18922045849271.07")
    t_exit = -z_log / LD(P.E1)
    t_up = float(t_exit)
    if LD(t_up) <= t_exit:
        t_up = np.nextafter(t_up, np.inf)
    assert LD(t_up) > t_exit
    t, rho, z = _sojourn_logs(t_up, "V1", LD(0.0), z_log, *V1_RATES)
    assert float(z[0]) == 0.0
    assert t[0] == t_exit
    assert rho[0] == _sojourn_logs(t_exit, "V1", LD(0.0), z_log, *V1_RATES)[1][0]
    two_ulps_up = np.nextafter(np.nextafter(t_up, np.inf), np.inf)
    with pytest.raises(OutOfSojourn):
        _sojourn_logs(two_ulps_up, "V1", LD(0.0), z_log, *V1_RATES)


def test_flow_interior_is_linear_in_log():
    rng = np.random.default_rng(8)
    for _ in range(20):
        z0 = float(rng.uniform(1e-6, 0.9))
        z_log = LD(float(np.log(z0)))
        t_exit = float(-z_log / LD(P.E1))
        t = rng.uniform(0, t_exit)
        _, rho, z = _sojourn_logs(t, "V1", LD(0.0), z_log, *V1_RATES)
        np.testing.assert_allclose(float(rho[0]), -P.C1 * t, rtol=1e-14, atol=1e-16)
        np.testing.assert_allclose(float(z[0]), float(z_log) + P.E1 * t, rtol=1e-14, atol=1e-16)


def test_flow_state_validation():
    with pytest.raises(DegenerateInput, match="outside the unit cylinder"):
        _sojourn_logs(0.0, "V1", LD(0.5), LD(-1.0), *V1_RATES)
