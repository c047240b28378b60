"""Section charts, half transitions and the return map."""

from __future__ import annotations

import copy
import dataclasses
import pickle
import re
import warnings

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from bykov import (
    ConstraintViolation,
    DegenerateInput,
    PerturbationSpec,
    SectionPoint,
    SystemParams,
    generate_hitting_sequence,
    poincare,
    psi21,
)
import bykov.flow
from bykov._num import asld
from bykov.flow import _half_transition
from reference import LD, P, PP, SEED, draw_orbit, half_transition, same_bits, spy_derivations


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


@pytest.mark.parametrize(
    "bad", [None, True, False, np.True_, [1.0], (-1.0,), np.array([0.5, -0.5]), "abc", 1 - 1j],
    ids=["None", "True", "False", "numpy_bool", "list", "tuple", "array", "word", "complex"],
)
def test_section_point_refuses_a_field_that_is_no_number(bad):
    # asld read None as NaN, a bool as 0 or 1 and a sequence as an array;
    # a word or a complex number ended in a bare ValueError or TypeError
    for field, fields in (("theta_lifted", (bad, -1.0)), ("log_coord", (0.0, bad))):
        message = f"{field} must be a real number or a numeric string, got {bad!r}"
        with pytest.raises(DegenerateInput, match=f"^{re.escape(message)}$"):
            SectionPoint("Out2", *fields)


def test_section_point_is_a_frozen_value():
    q = SectionPoint("In1", LD("0.7"), LD("-2.5"))
    for name, value in (("chart", "Out2"), ("theta_lifted", LD(1.0)), ("log_coord", LD(-1.0))):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(q, name, value)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(q, name)
    # a new name is refused too; Python 3.11's slotted frozen __setattr__
    # says so with a TypeError, not FrozenInstanceError (an AttributeError)
    with pytest.raises((AttributeError, TypeError)):
        q.extra = 1
    assert not hasattr(q, "extra")
    twin = SectionPoint("In1", "0.7", -2.5)
    assert twin == q and hash(twin) == hash(q)
    assert q != SectionPoint("Out2", q.theta_lifted, q.log_coord)
    moved = dataclasses.replace(q, chart="Out2", log_coord=-1.0)
    assert moved == SectionPoint("Out2", q.theta_lifted, LD(-1.0))
    with pytest.raises(DegenerateInput, match="strictly negative"):
        dataclasses.replace(q, log_coord=0.5)  # checked as the constructor checks
    copies = [pickle.loads(pickle.dumps(q, protocol))
              for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for got in (*copies, copy.deepcopy(q)):
        assert type(got) is SectionPoint and got == q and hash(got) == hash(q)
        assert same_bits(got.theta_lifted, q.theta_lifted)
        assert same_bits(got.log_coord, q.log_coord)


def test_phi1_first_cylinder_passage():
    """Entry height 0.05 on the wall of the expanding-height cylinder."""
    transit, log_out, theta_out = _half_transition(
        np.log(LD("0.05")), LD(1.0), *P._kernel[0]
    )
    np.testing.assert_allclose(transit, LD("2.995732273553990993435"), rtol=1e-17)
    np.testing.assert_allclose(log_out, LD("-5.99146454710798198687"), rtol=1e-17)
    np.testing.assert_allclose(theta_out, LD("3.995732273553990993435"), rtol=1e-17)


def test_phi2_second_cylinder_passage():
    transit, log_out, theta_out = _half_transition(
        np.log(LD("0.0025")), LD(0.0), *P._kernel[1]
    )
    np.testing.assert_allclose(transit, LD("3.994309698071987991247"), rtol=1e-17)
    np.testing.assert_allclose(log_out, LD("-11.98292909421596397374"), rtol=1e-17)
    np.testing.assert_allclose(theta_out, LD("7.988619396143975982494"), rtol=1e-17)


def test_phi_requires_matching_chart():
    # the return map starts on In1, the reinjection on Out2
    for chart in ("Out1", "In2", "Out2"):
        q = SectionPoint(chart=chart, theta_lifted=0.0, log_coord=-1.0)
        with pytest.raises(DegenerateInput, match=f"poincare expects a point on In1, got {chart}"):
            poincare(q, P)
    for chart in ("In1", "Out1", "In2"):
        q = SectionPoint(chart=chart, theta_lifted=0.0, log_coord=-1.0)
        with pytest.raises(DegenerateInput, match=f"psi21 expects a point on Out2, got {chart}"):
            psi21(q, P)


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
        s, _, _ = _half_transition(LD(float(np.log(z))), LD(0.0), *P._kernel[0])
        assert s > 0
        transits.append(float(s))
    # deeper entry (smaller z) means longer passage
    assert all(a > b for a, b in zip(transits, transits[1:]))


def test_perturbed_phi1_matches_direct_formula():
    # the generator's first odd crossing is the V1 leg from the reinjected seed
    seed = SectionPoint(chart="Out2", theta_lifted=1.4, log_coord=np.log(LD("0.1")))
    h = generate_hitting_sequence(seed, PP, 1)
    lnz, theta = np.log(LD(PP.a)) + seed.log_coord, seed.theta_lifted / LD(PP.a)
    # E1 = 1, C1/E1 = 2, omega1 = 1, c1 = 0.1 (the float64 given), eps = 0.5
    transit, ln_rho, theta_out = half_transition(
        lnz, theta, LD(1), LD(2), LD(1), LD(0.1), LD(0.5)
    )
    assert same_bits(h.sojourns_V1[0], -lnz)
    assert same_bits(h.log_coord[1], ln_rho)
    assert same_bits(h.theta[1], theta_out)


def _composed_step(q: SectionPoint, p: SystemParams):
    """``psi21 . Phi2 . (Out1 == In2) . Phi1`` through the kernel, and the return time.

    Each crossing is a checked ``SectionPoint``, so the first one off the
    connection is refused with its message.
    """
    leg1, leg2 = p._kernel[:2]
    s, log1, theta1 = _half_transition(q.log_coord, q.theta_lifted, *leg1)
    SectionPoint("Out1", theta1, log1)
    u, log2, theta2 = _half_transition(log1, theta1, *leg2)
    return psi21(SectionPoint("Out2", theta2, log2), p), s + u


def test_poincare_is_the_composition_of_its_legs():
    """poincare = psi21 . Phi2 . (Out1 == In2) . Phi1, bit for bit."""
    q = SectionPoint(chart="In1", theta_lifted=0.7, log_coord=float(np.log(0.05)))
    for _ in range(6):
        expected, t = _composed_step(q, PP)
        q, sojourn = poincare(q, PP)
        assert same_bits(q.theta_lifted, expected.theta_lifted)
        assert same_bits(q.log_coord, expected.log_coord)
        assert same_bits(sojourn, t)


# a drawn perturbed system
_DRAWN = draw_orbit(np.random.default_rng(4), perturbed=True)[1]
_SEED_07 = SectionPoint(chart="Out2", theta_lifted=0.7, log_coord=float(np.log(0.05)))


@pytest.mark.parametrize(
    "seed, params, n",
    [(_SEED_07, P, 100), (_SEED_07, PP, 100),
     # the 1000-loop drawn orbits that the long_orbit benchmark runs
     (*draw_orbit(np.random.default_rng(27), perturbed=False), 1000),
     (*draw_orbit(np.random.default_rng(27), perturbed=True), 1000)],
    ids=["idealized", "perturbed", "drawn_idealized_1000", "drawn_perturbed_1000"],
)
def test_iterated_poincare_matches_the_generator_bitwise(seed, params, n):
    h = generate_hitting_sequence(seed, params, n)
    a = LD(params.a)
    q = psi21(seed, params)
    for k in range(1, n + 1):
        q, sojourn = poincare(q, params)
        assert q.chart == "In1"
        for got, want in (
            (q.theta_lifted, h.theta[2 * k] / a),
            (q.log_coord, np.log(a) + h.log_coord[2 * k]),
            (sojourn, h.sojourns_V1[k - 1] + h.sojourns_V2[k - 1]),
        ):
            assert same_bits(got, want)


_ONE_SIDED = [dataclasses.replace(PP, perturbation=PerturbationSpec(c1=c1, c2=c2, eps=0.5))
              for c1, c2 in ((0.1, 0.0), (0.0, 0.1))]


@pytest.mark.parametrize("p", [PP, _DRAWN, *_ONE_SIDED],
                         ids=["perturbed", "drawn", "c1_only", "c2_only"])
def test_a_step_at_each_cut_off_is_the_composition_of_its_legs(p):
    # poincare takes a step with both legs below their cut-offs as one
    # straight line and runs both legs through the kernel otherwise;
    # entries on either side of each cut-off, and on it
    leg1, leg2 = p._kernel[:2]
    (_, S1, *_, cut1), cut2 = leg1, leg2[-1]
    entries = []
    if cut1 < np.inf:
        entries += [np.nextafter(cut1, LD(-np.inf)), cut1, np.nextafter(cut1, LD(0.0))]
    if cut2 < np.inf:
        # the V2 leg enters near S1*log_in: a V1 correction there, if any,
        # is far below the ulp
        near = [cut2 / S1]
        for _ in range(4):
            near = [np.nextafter(near[0], LD(-np.inf)), *near, np.nextafter(near[-1], LD(0.0))]
        sides = {int(np.sign(_half_transition(x, LD(0.7), *leg1)[1] - cut2)) for x in near}
        assert {-1, 1} <= sides and (0 in sides or S1 != 2)  # S1 = 2 lands on cut2 exactly
        entries += near
    assert entries
    for log_in in entries:
        for theta_in in (LD(0.7), LD(2.5), LD(-4.0)):
            q = SectionPoint("In1", theta_in, log_in)
            got, t = poincare(q, p)
            want, want_t = _composed_step(q, p)
            assert same_bits([got.theta_lifted, got.log_coord, t],
                             [want.theta_lifted, want.log_coord, want_t])


@pytest.mark.parametrize("p", [P, PP, _DRAWN], ids=["idealized", "perturbed", "drawn"])
def test_a_step_with_both_legs_below_their_cut_offs_never_calls_the_kernel(p, monkeypatch):
    leg1, leg2 = p._kernel[:2]
    S1, cut1, cut2 = leg1[1], leg1[-1], leg2[-1]
    q, entries = psi21(SEED, p), []
    for _ in range(40):
        entries.append(q)
        q, _ = poincare(q, p)
    # the last long double below the V1 cut-off, and one whose Out1 log
    # lies just below the V2 cut-off
    down = LD(-np.inf)
    for cut in (cut1, cut2 / S1):
        if cut < np.inf:
            log_in = np.nextafter(cut, down)
            while not S1 * log_in < cut2:
                log_in = np.nextafter(log_in, down)
            entries.append(SectionPoint("In1", LD(0.7), log_in))
    straight = [q for q in entries if q.log_coord < cut1 and S1 * q.log_coord < cut2]
    assert len(straight) >= 30
    want = [_composed_step(q, p) for q in straight]

    def refuse(*args):
        raise AssertionError("the kernel was called")

    monkeypatch.setattr(bykov.flow, "_half_transition", refuse)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for q, (nxt, t) in zip(straight, want):
            got, got_t = poincare(q, p)
            assert type(got) is SectionPoint and got.chart == "In1"
            assert same_bits([got.theta_lifted, got.log_coord, got_t],
                             [nxt.theta_lifted, nxt.log_coord, t])


def _step_or_refusal(step, q: SectionPoint, p: SystemParams):
    """``(None, [angle, log, time])`` of a step, or ``(message, None)`` of its refusal."""
    try:
        nxt, t = step(q, p)
    except DegenerateInput as err:
        return str(err), None
    assert type(nxt) is SectionPoint and nxt.chart == "In1"
    return None, [nxt.theta_lifted, nxt.log_coord, t]


_saddle = st.one_of(st.floats(1.0, 1.0 + 1e-6, exclude_min=True),
                    st.floats(1.0, 1e3, exclude_min=True))
_rate = st.floats(1e-3, 1e3)
_open_unit = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
_amplitude = st.one_of(st.just(0.0), st.floats(0.0, 0.1), st.floats(0.0, 100.0))


@given(E1=_rate, E2=_rate, d1=_saddle, d2=_saddle, w1=_rate, w2=_rate, a=_open_unit,
       perturbed=st.booleans(), c1=_amplitude, c2=_amplitude, eps=_open_unit,
       depth=st.floats(-3.0, 4.0), theta_in=st.floats(-1e4, 1e4))
def test_a_step_inside_the_reach_is_the_kernel_composition(E1, E2, d1, d2, w1, w2, a, perturbed,
                                                          c1, c2, eps, depth, theta_in):
    C1, C2 = E1 * d1, E2 * d2
    assume(C1 > E1 and C2 > E2)
    pert = PerturbationSpec(c1=c1, c2=c2, eps=eps) if perturbed else None
    p = SystemParams(C1=C1, E1=E1, omega1=w1, C2=C2, E2=E2, omega2=w2, a=a, perturbation=pert)
    leg1, leg2, _, _, (lo, hi) = p._kernel
    S1, cut1, cut2 = leg1[1], leg1[-1], leg2[-1]
    down, up = LD(-np.inf), LD(np.inf)
    # the reach's edges, each cut-off and the V1 entry whose Out1 log meets
    # the V2 one, with the long doubles on either side
    logs = [-LD(10.0) ** LD(depth), np.nextafter(lo, up)]
    thetas = [LD(theta_in), np.nextafter(lo, up), np.nextafter(hi, down)]
    for cut in (cut1, cut2 / S1):
        if cut < up:
            logs += [np.nextafter(np.nextafter(cut, down), down), np.nextafter(cut, down),
                     cut, np.nextafter(cut, up), np.nextafter(np.nextafter(cut, up), up)]
    seen = 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for x in logs:
            if not lo < x < 0.0:
                continue
            for theta in thetas:
                q = SectionPoint("In1", theta, x)
                (got_err, got), (want_err, want) = (_step_or_refusal(step, q, p)
                                                    for step in (poincare, _composed_step))
                assert got_err == want_err
                assert got_err is not None or same_bits(got, want)
                seen += 1
    assert seen


def test_poincare_points_are_those_of_the_public_constructor():
    # the 64-loop orbits of the reference digest, every second one perturbed
    rng = np.random.default_rng(6)
    for k in range(16):
        q0, p, _ = draw_orbit(rng, perturbed=k % 2 == 1, smooth=True)
        h = generate_hitting_sequence(q0, p, 64)
        a = LD(p.a)
        q = psi21(q0, p)
        for i in range(65):
            if i:
                q, _ = poincare(q, p)
            want = SectionPoint("In1", h.theta[2 * i] / a, np.log(a) + h.log_coord[2 * i])
            assert type(q) is SectionPoint and q == want and hash(q) == hash(want)
            assert same_bits(q.theta_lifted, want.theta_lifted)
            assert same_bits(q.log_coord, want.log_coord)


@pytest.mark.parametrize(
    "p, p_bar",
    [(P, dataclasses.replace(P)), (P, PP), (_DRAWN, dataclasses.replace(_DRAWN, perturbation=None))],
    ids=["equal_copy", "P_and_PP", "perturbed_twin"],
)
def test_two_systems_stepped_in_turn_keep_the_bits_of_each_alone(p, p_bar, monkeypatch):
    # poincare and psi21 read the constants each parameter object derived
    # once and keeps; stepping two in turn reads each object's own
    n = 40

    def orbit(r):
        q, t = psi21(SEED, r), LD(0.0)
        yield q, t
        for _ in range(n):
            q, t = poincare(q, r)
            yield q, t

    alone = [list(orbit(r)) for r in (p, p_bar)]
    built = spy_derivations(monkeypatch)
    p, p_bar = dataclasses.replace(p), dataclasses.replace(p_bar)  # new objects, no constants yet
    in_turn = list(zip(*(orbit(r) for r in (p, p_bar))))
    # each object derived its own constants, once, on its first call
    assert built == [(table, id(r)) for r in (p, p_bar) for table in ("_kernel", "_constants")]
    for k, steps in enumerate(alone):
        for (q, t), (want, want_t) in zip((pair[k] for pair in in_turn), steps, strict=True):
            assert same_bits([q.theta_lifted, q.log_coord, t],
                             [want.theta_lifted, want.log_coord, want_t])


def test_an_invalid_system_is_refused_on_every_step():
    bad = dataclasses.replace(P, a=1.5)
    for _ in range(2):
        with pytest.raises(ConstraintViolation, match="a must lie strictly between 0 and 1"):
            poincare(SectionPoint("In1", 0.7, -1.0), bad)
        with pytest.raises(ConstraintViolation, match="a must lie strictly between 0 and 1"):
            psi21(SEED, bad)


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
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # poincare refuses without a warning too
        with pytest.raises(DegenerateInput, match=message):
            poincare(q, p)
    # a finite bad value gets no such note
    with pytest.raises(DegenerateInput, match=r"got 0\.5$"):
        SectionPoint(chart="In1", theta_lifted=0.0, log_coord=0.5)


_FAR = [
    P, PP,
    SystemParams(C1=1e6, E1=1e-300, omega1=1e300, C2=1e300, E2=1e-300, omega2=3, a=0.5,
                 perturbation=PerturbationSpec(c1=1e300, c2=1e300, eps=0.99)),
    SystemParams(C1=9, E1=1, omega1=1, C2=9, E2=1, omega2=2, a=5e-324),
]


@pytest.mark.parametrize("p", _FAR, ids=["idealized", "perturbed", "extreme_rates", "tiny_a"])
def test_a_step_inside_the_reach_cannot_overflow(p):
    # poincare runs a step from inside the reach without np.errstate, so a
    # value that overflowed there would warn; entries on the reach's edge
    lo, hi = p._kernel[-1]
    assert -lo == hi > 0.0
    inside = (np.nextafter(lo, LD(0.0)), np.nextafter(hi, LD(0.0)))
    seen = 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for log_in in (inside[0], lo / 2, LD(-1.0)):
            for theta_in in inside + (LD(0.0),):
                try:
                    q, t = poincare(SectionPoint("In1", theta_in, log_in), p)
                except DegenerateInput as err:  # a crossing off the connection
                    assert "not finite" not in str(err) and "long-double range" not in str(err)
                else:
                    assert np.isfinite([q.theta_lifted, q.log_coord, t]).all()
                    seen += 1
    assert seen


def test_an_exit_far_off_inside_the_reach_is_refused_without_a_warning():
    # the V1 kick throws Out1 to log radius +687; the V2 leg from there would
    # overflow exp(delta2*eps*687), and poincare runs it without np.errstate
    p = SystemParams(C1=2, E1=1, omega1=1, C2=1e6, E2=1, omega2=1, a=0.5,
                     perturbation=PerturbationSpec(c1=1e300, c2=1, eps=0.99))
    q = SectionPoint("In1", 0.0, -1.0)
    lo, _ = p._kernel[-1]
    assert lo < q.log_coord
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DegenerateInput, match=re.escape("(point off the connection), got 686.79")):
            poincare(q, p)


def test_a_step_outside_the_reach_is_refused_without_a_warning():
    # delta = 81, with slow twists so that the angle stays in range
    delta81 = SystemParams(C1=9, E1=1, omega1=1e-300, C2=9, E2=1, omega2=1e-300, a=0.5)
    tiny_a = _FAR[3]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DegenerateInput, match=re.escape("got -inf; the log-coordinate left")):
            poincare(SectionPoint("In1", 0.0, LD("-1e4931")), delta81)
        with pytest.raises(DegenerateInput, match="theta_lifted is not finite: inf"):
            poincare(SectionPoint("In1", LD("1e4610"), -1.0), tiny_a)
        # as in psi21, whose one step is always guarded
        with pytest.raises(DegenerateInput, match="theta_lifted is not finite: inf"):
            psi21(SectionPoint("Out2", LD("1e4610"), -1.0), tiny_a)
        # each transit is finite, their sum is not
        p = SystemParams(C1=1.01e-300, E1=1e-300, omega1=5e-324,
                         C2=1.01e-300, E2=1e-300, omega2=5e-324, a=0.5)
        with pytest.raises(DegenerateInput, match="return time is not finite: inf"):
            poincare(SectionPoint("In1", 0.0, LD("-6e4631")), p)
        # past the reach, a step that stays in range is the composition of its legs
        lo, _ = tiny_a._kernel[-1]
        q = SectionPoint("In1", 1.0, lo * 2)
        nxt, t = poincare(q, tiny_a)
    leg1, leg2, a, log_a, _ = tiny_a._kernel
    s, log1, theta1 = _half_transition(q.log_coord, q.theta_lifted, *leg1)
    u, log2, theta2 = _half_transition(log1, theta1, *leg2)
    assert same_bits(t, s + u)
    assert same_bits(nxt.theta_lifted, theta2 / a) and same_bits(nxt.log_coord, log_a + log2)


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
            for leg in p._kernel[:2]:
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
    assert [leg[-1] for leg in P._kernel[:2]] == [np.inf, np.inf]
    cut1, cut2 = (leg[-1] for leg in half._kernel[:2])
    assert cut1 == np.inf and -np.inf < cut2 < 0.0


def test_perturbation_cannot_push_through_axis():
    # a correction of relative size < -1 would mean a negative radius
    pp = dataclasses.replace(P, perturbation=PerturbationSpec(c1=50.0, c2=0.0, eps=0.5))
    q = SectionPoint(chart="In1", theta_lifted=float(np.pi), log_coord=float(np.log(0.45)))
    message = "radius correction reaches the spiral axis; 1 + -22.5 <= 0"
    with pytest.raises(DegenerateInput, match=re.escape(message)):
        poincare(q, pp)
