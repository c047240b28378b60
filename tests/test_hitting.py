"""Hitting-time sequences against independently tabulated references."""

from __future__ import annotations

import dataclasses
import gc
import warnings
import weakref

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
import bykov.hitting
from bykov.acceptance import MATCHED_PARAMS, ideal_closed_form_times
from reference import (
    LD,
    P,
    PP,
    draw_orbit,
    exits_from_defects,
    half_transition,
    iterated_poincare,
    longhand_orbit,
    same_bits,
    spy_derivations,
)

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
    built = spy_derivations(monkeypatch)
    p = dataclasses.replace(P)  # a new object: no constants derived yet
    generate_hitting_sequence(SEED, p, 6)
    generate_hitting_sequence(SEED, p, 7)
    assert built == [("_kernel", id(p)), ("_constants", id(p))]


def _counting_generator(monkeypatch):
    """The requests that reach the generator's body, in order, while the test runs."""
    body, runs = bykov.hitting._generate, []

    def counting(q0, p, n_pairs):
        runs.append((q0, p, n_pairs))
        return body(q0, p, n_pairs)

    monkeypatch.setattr(bykov.hitting, "_generate", counting)
    return runs


def test_equal_requests_share_one_orbit_while_it_is_alive(monkeypatch):
    runs = _counting_generator(monkeypatch)
    h = generate_hitting_sequence(SEED, P, 7)
    twin = SectionPoint("Out2", SEED.theta_lifted, SEED.log_coord)
    assert generate_hitting_sequence(twin, dataclasses.replace(P), np.int64(7)) is h
    assert len(runs) == 1
    # another loop count or parameter set is another orbit
    assert generate_hitting_sequence(SEED, P, 6) is not h
    assert generate_hitting_sequence(SEED, PP, 7) is not h
    assert len(runs) == 3
    times, gone = h.times.copy(), weakref.ref(h)
    del h
    gc.collect()
    assert gone() is None
    again = generate_hitting_sequence(SEED, P, 7)
    assert len(runs) == 4
    assert same_bits(again.times, times)


def test_signed_zero_angles_get_their_own_orbits():
    # +0.0 == -0.0, but the seed angle is recorded bit for bit
    lc = SEED.log_coord
    pos = generate_hitting_sequence(SectionPoint("Out2", 0.0, lc), P, 3)
    neg = generate_hitting_sequence(SectionPoint("Out2", -0.0, lc), P, 3)
    assert neg is not pos
    assert not np.signbit(pos.theta[0]) and np.signbit(neg.theta[0])
    assert generate_hitting_sequence(SectionPoint("Out2", LD(-0.0), lc), P, 3) is neg


def test_a_refused_request_raises_again(monkeypatch):
    runs = _counting_generator(monkeypatch)
    p = dataclasses.replace(P, a=1e-300)  # the reinjected angle overflows
    for _ in range(2):
        with pytest.raises(DegenerateInput, match="theta_lifted is not finite"):
            generate_hitting_sequence(SEED, p, 40)
    assert len(runs) == 2


def test_the_arrays_are_read_only():
    h = generate_hitting_sequence(SEED, P, 3)
    for arr in (h.times, h.theta, h.log_coord, h.sojourns_V1, h.sojourns_V2):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 1.0


def test_averages_and_replays_reuse_a_live_orbit(monkeypatch):
    runs = _counting_generator(monkeypatch)
    h = generate_hitting_sequence(SEED, P, 12)
    s = birkhoff_average(SEED, P, Observable("piecewise_constant", 0.0, 1.0), 24)
    assert len(runs) == 1
    assert same_bits(s.odd_times, h.times[1::2][:12])
    report = verify_conjugacy(SEED, P, MATCHED_PARAMS, n_pairs=12)
    # only the partner's orbit is generated, from the image seed
    assert report.verdict is True
    assert [(p, n) for _, p, n in runs[1:]] == [(MATCHED_PARAMS, 12)]
    assert runs[1][0].log_coord == report.image_point.z0_log


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


def _tail_start(h, p):
    """The first loop whose two entries lie below their cut-offs, as the generator tests them.

    ``n_pairs + 1`` when no loop's entries do, the closing leg's included.
    """
    (_, S1, _, _, _, cut1), (*_, cut2), _, log_a, _ = p._kernel
    y = log_a + h.log_coord[0::2]
    below = (y < cut1) & (S1 * y < cut2)
    return int(np.argmax(below)) if below.any() else h.n_pairs + 1


def _saddles(S, eps, c1=0.1):
    """Both saddle indices ``S``, perturbed with ``c1``, ``c2 = 0.1`` and ``eps``."""
    pert = PerturbationSpec(c1=c1, c2=0.1, eps=eps)
    return SystemParams(C1=S, E1=1, omega1=1, C2=S, E2=1, omega2=2, a=0.5, perturbation=pert)


_HALF = SectionPoint("Out2", 1.0, float(np.log(0.5)))


@pytest.mark.parametrize("seed, p, n_pairs, start", [
    (SEED, P, 12, 0),
    (_HALF, _saddles(32, 0.5), 6, 1),
    (_HALF, _saddles(8, 0.9), 6, 2),
    (_HALF, _saddles(4, 0.9), 6, 3),
    # the tail is the closing leg alone
    (_HALF, _saddles(4, 0.9), 3, 3),
    # no V1 cut-off: the V2 entry alone decides
    (_HALF, _saddles(8, 0.1, c1=0.0), 6, 2),
    # the closing leg is still above its cut-off, so no loop runs as the tail
    (_HALF, _saddles(4, 0.001), 3, 4),
    (SEED, P, 1000, 0),
    (SEED, PP, 1000, 6),
    # delta 1.91, 6.78, 2.27 and 8.12, in the drawn range 1.44 to 9
    (*draw_orbit(np.random.default_rng(25), perturbed=False), 200, 0),
    (*draw_orbit(np.random.default_rng(4), perturbed=False), 200, 0),
    (*draw_orbit(np.random.default_rng(12), perturbed=True), 200, 12),
    (*draw_orbit(np.random.default_rng(9), perturbed=True), 200, 4),
    # delta - 1 = 1e-6: ln(a) is never absorbed, every V1 entry is a scalar step
    (SEED, dataclasses.replace(P, C1=P.E1 * (1 + 5e-7), C2=P.E2 * (1 + 5e-7)), 200, 0),
], ids=["idealized", "from_loop_1", "from_loop_2", "from_loop_3", "closing_leg_only",
        "v2_cut_only", "never", "idealized_1000", "perturbed_1000", "drawn_idealized_200",
        "drawn_idealized_200_steep", "drawn_perturbed_200", "drawn_perturbed_200_steep",
        "near_one_200"])
def test_the_idealized_tail_joins_the_kernel_bitwise(seed, p, n_pairs, start):
    # from the first loop below both cut-offs the generator steps the Out2
    # angles as scalars, and the V1 entries as scalars until S2*(S1*y)
    # absorbs ln(a), from a loop between 22 and 66 on every orbit here of
    # 200 loops or more but the one near delta = 1, and then as products;
    # it computes the rest as arrays; the longhand runs the kernel's
    # operations crossing by crossing, corrections included
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        h = generate_hitting_sequence(seed, p, n_pairs)
        times, theta, log_coord = longhand_orbit(seed, p, n_pairs)
    assert _tail_start(h, p) == start
    assert same_bits(h.times, times)
    assert same_bits(h.theta, theta)
    assert same_bits(h.log_coord, log_coord)
    log_a = np.log(LD(p.a))
    assert same_bits(h.sojourns_V1, -(log_a + log_coord[0::2]) / LD(p.E1))
    assert same_bits(h.sojourns_V2, -log_coord[1:-1:2] / LD(p.E2))
    if p.perturbation is not None:
        # the head's corrections moved the orbit off its idealized twin
        twin = generate_hitting_sequence(seed, dataclasses.replace(p, perturbation=None), n_pairs)
        assert not same_bits(h.log_coord[: 2 * start], twin.log_coord[: 2 * start])


def _outcome(run):
    """``("ok", value)``, or ``("refused", type name, message)`` for a BykovError.

    NumPy's overflow warnings are recorded rather than raised here, so that
    a refusal is seen as the caller sees it; a result and a refusal alike
    must come without any.
    """
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        try:
            outcome = "ok", run()
        except BykovError as e:
            outcome = "refused", type(e).__name__, str(e)
    assert not seen, [str(w.message) for w in seen]
    return outcome


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


def _refusal(run):
    """``(type name, message)`` of the BykovError ``run`` raises, or None; a warning raises."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            run()
        except BykovError as e:
            return type(e).__name__, str(e)
    return None


# the first radial kick throws the Out1 crossing off the connection
_OFF_OUT1 = dict(E1=1.0, E2=1.5, d1=2.0, d2=2.0, w1=1.0, w2=2.0, a=0.5,
                 c1=10.0, c2=0.0, eps=0.5, theta0=0.0, z0=0.9)
# the Out2 crossing is thrown off (log height +0.135), its In1 point is not,
# and the next V1 leg reaches the spiral axis
_OFF_OUT2_THEN_AXIS = dict(_OFF_OUT1, c2=10.0, theta0=2.8, z0=0.7)


@given(**_ORBITS)
@example(**_OVERFLOWING)
@example(**_OFF_OUT1)
@example(**_OFF_OUT2_THEN_AXIS)
def test_refusals_are_those_of_a_check_per_crossing(**draw):
    # the longhand builds each crossing as a SectionPoint as it is produced;
    # the generator and the return map refuse with its type and message
    seed, p = _drawn_orbit(**draw)
    n = 60
    want = _refusal(lambda: longhand_orbit(seed, p, n))
    assert _refusal(lambda: generate_hitting_sequence(seed, p, n)) == want
    assert _refusal(lambda: iterated_poincare(seed, p, n)) == want


@pytest.mark.parametrize("seed, p, n_pairs", [
    # the three crossings are off the connection, and no leg reaches the axis
    (SectionPoint("Out2", 0.0, float(np.log(0.9))),
     dataclasses.replace(P, perturbation=PerturbationSpec(c1=10, c2=0, eps=0.5)), 1),
    # delta = 81: the log height leaves the long-double range first at the
    # closing crossing, whose angle is still finite
    (SectionPoint("Out2", 0.0, -1.0),
     SystemParams(C1=9, E1=1, omega1=1, C2=9, E2=1, omega2=2, a=0.5), 2584),
    # the Out2 crossing alone is off (log height +2.96): the Out1 crossings
    # before and after it are on the connection, and no leg refuses
    (SectionPoint("Out2", 0.0, -1.0),
     dataclasses.replace(P, a=0.01, perturbation=PerturbationSpec(c1=0, c2=1e16, eps=0.5)), 1),
], ids=["every_crossing_off", "closing_log_overflows", "one_crossing_off_between_two_on"])
def test_a_crossing_off_is_refused_where_no_leg_refuses(seed, p, n_pairs):
    want = _refusal(lambda: longhand_orbit(seed, p, n_pairs))
    assert want is not None
    assert _refusal(lambda: generate_hitting_sequence(seed, p, n_pairs)) == want


def test_an_absorbed_transit_is_refused():
    # C2 and E2 near 1e300: the first V2 transit, about 1e-300, vanishes in
    # the time it is added to, so two crossings share a hitting time
    p = SystemParams(C1=2, E1=1, omega1=1, C2=3e300, E2=1.5e300, omega2=2, a=0.5)
    want = ("DegenerateInput", "hitting times failed to increase strictly")
    assert _refusal(lambda: longhand_orbit(SEED, p, 3)) == want
    assert _refusal(lambda: generate_hitting_sequence(SEED, p, 3)) == want


def test_a_closing_log_past_the_range_is_refused_alike_by_the_return_map():
    # delta = 81: 2584 return steps stay in range, and the closing V1 leg's
    # log radius overflows to -inf; the return map's closing leg runs under
    # np.errstate as the generator's does, so it refuses without a warning
    seed = SectionPoint("Out2", 0.0, -1.0)
    p = SystemParams(C1=9, E1=1, omega1=1, C2=9, E2=1, omega2=2, a=0.5)
    want = _refusal(lambda: longhand_orbit(seed, p, 2584))
    assert want == ("DegenerateInput", "log_coord must be finite and strictly negative "
                    "(point off the connection), got -inf; the log-coordinate left the "
                    "long-double range")
    assert _refusal(lambda: generate_hitting_sequence(seed, p, 2584)) == want
    assert _refusal(lambda: iterated_poincare(seed, p, 2584)) == want


@given(**_ORBITS)
def test_each_exit_is_the_saddle_map_plus_its_defect(**draw):
    # the defects recomputed from the stored entries give back the stored exits
    seed, p = _drawn_orbit(**draw)
    try:
        h = generate_hitting_sequence(seed, p, 60)
    except BykovError:
        return
    exit1, exit2 = exits_from_defects(h, p)
    assert same_bits(exit1, h.log_coord[1::2]) and same_bits(exit2, h.log_coord[2::2])


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


def test_an_infinite_last_time_is_refused():
    # every sojourn is finite, but the closing one takes the sum of them past
    # the long-double range; an earlier infinite time would make a difference NaN
    p = SystemParams(C1=1.01e-300, E1=1e-300, omega1=5e-324,
                     C2=1.01e-300, E2=1e-300, omega2=5e-324, a=0.5)
    seed = SectionPoint("Out2", 0.0, LD("-4.5e4631"))
    message = "the hitting time of crossing 3 is not finite: inf"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for run in (lambda: generate_hitting_sequence(seed, p, 1),
                    lambda: birkhoff_average(seed, p, Observable("piecewise_constant", 0.0, 1.0), 3)):
            with pytest.raises(DegenerateInput, match=message):
                run()


_g = st.floats(-1e300, 1e300)


@given(**_ORBITS, g1=_g, g2=_g, m=st.floats(1e-3, 1e3), upto_index=st.integers(1, 200))
def test_smooth_averages_return_or_refuse_without_a_warning(g1, g2, m, upto_index, **draw):
    # the quadrature evaluates the flow unchecked: within the float64 hold no
    # node state leaves the cylinder or the float range, so a result is finite
    seed, p = _drawn_orbit(**draw)
    G = Observable("smooth", g1, g2, m=m)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            s = birkhoff_average(seed, p, G, upto_index)
        except BykovError:
            return
    assert np.isfinite(s.even_averages).all() and np.isfinite(s.odd_averages).all()
