"""Asymptotic identities, convergence ratios, and invariant recovery."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bykov import (
    HittingSequence,
    InsufficientData,
    NonConvergent,
    SectionPoint,
    corollary_ratios,
    derive_constants,
    estimate_invariants,
    generate_hitting_sequence,
    lemma_diagnostics,
    perturbation_decay_slope,
)
from bykov.acceptance import _richardson_tail
from bykov.diagnostics import _defects, _spread
from reference import LD, P, PP, SEED, draw_orbit, exits_from_defects, same_bits

LOG2 = 0.6931471805599453094172  # -log(a)/E1 for these parameters
TAU_LOG_A = -1.6173434213065390553


@pytest.fixture(scope="module")
def ideal():
    h = generate_hitting_sequence(SEED, P, 12)
    return h, lemma_diagnostics(h, derive_constants(P)), corollary_ratios(h, P)


@pytest.fixture(scope="module")
def perturbed():
    h = generate_hitting_sequence(SEED, PP, 12)
    return h, lemma_diagnostics(h, derive_constants(PP))


def test_idealized_identities_are_constant(ideal):
    _, lem, _ = ideal
    assert np.isnan(lem.lemma1[0]) and np.isnan(lem.lemma3[0])
    np.testing.assert_allclose(lem.lemma1[1:11], LOG2, atol=1e-10)
    np.testing.assert_allclose(lem.lemma2[:11], 0.0, atol=1e-10)
    np.testing.assert_allclose(lem.lemma3[1:11], -TAU_LOG_A, atol=1e-10)
    np.testing.assert_allclose(lem.residuals[1:], 0.0, atol=1e-12)


def test_ratio_limits_and_exactness(ideal):
    _, _, rat = ideal
    r1, r2, r3, r4 = rat.ratios
    # r1 and r4 hold at every index for the idealized model
    np.testing.assert_allclose(r1, 4 / 3, atol=1e-15)
    np.testing.assert_allclose(r4, 11 / 7, atol=1e-10)
    assert np.isnan(r2[0]) and np.isnan(r3[0])
    np.testing.assert_allclose(r2[-1], 3.0, atol=1e-7)
    np.testing.assert_allclose(r3[-1], 4.0, atol=1e-6)


def test_ratio_transients_decay_at_the_predicted_rate(ideal):
    """|r2 - gamma2| should be (-log a / E1) / u_{i-1} to leading order."""
    h, _, rat = ideal
    r2 = rat.ratios[1]
    u = h.sojourns_V2
    for i in (4, 6, 8):
        predicted = LOG2 / float(u[i - 1])
        np.testing.assert_allclose(float(r2[i] - 3.0), predicted, rtol=1e-3)


def test_richardson_tail_kills_geometric_transients():
    rho = 0.25
    seq = 5.0 + 3.0 * rho ** np.arange(6, dtype=LD)
    np.testing.assert_allclose(float(_richardson_tail(seq, LD(rho))), 5.0, rtol=1e-18)
    with pytest.raises(InsufficientData):
        _richardson_tail(seq[:1], LD(rho))


def test_richardson_skips_undefined_leading_entries():
    seq = np.array([np.nan, 4.0, 3.5, 3.25], dtype=LD)
    out = float(_richardson_tail(seq, LD(0.5)))
    np.testing.assert_allclose(out, 3.0, rtol=1e-15)


def test_estimate_invariants_idealized():
    h = generate_hitting_sequence(SEED, P, 8)
    est = estimate_invariants(h)
    truth = derive_constants(P).invariants
    dev = np.abs(est.as_array() - truth.as_array())
    assert dev.max() < 1e-9


def test_estimate_invariants_perturbed():
    h = generate_hitting_sequence(SEED, PP, 8)
    est = estimate_invariants(h)
    truth = derive_constants(PP).invariants
    dev = np.abs(est.as_array() - truth.as_array())
    assert dev.max() < 1e-6


def test_estimates_agree_across_matched_systems():
    from bykov import matching_params

    g = matching_params(P, E1_bar=2.0, E2_bar=3.0, omega2_bar=1.0)
    seed_g = SectionPoint(chart="Out2", theta_lifted=1.0, log_coord=float(np.log(0.01)))
    est_p = estimate_invariants(generate_hitting_sequence(SEED, P, 10)).as_array()
    est_g = estimate_invariants(generate_hitting_sequence(seed_g, g, 10)).as_array()
    assert np.abs(est_p - est_g).max() < 1e-9


def test_estimate_rejects_incoherent_times():
    """Times that follow no geometric law must not yield an estimate."""
    rng = np.random.default_rng(99)
    n = 6
    s = rng.uniform(1.0, 9.0, size=n + 1).astype(LD)
    u = rng.uniform(1.0, 9.0, size=n).astype(LD)
    legs = np.empty(2 * n + 1, dtype=LD)
    legs[0::2], legs[1::2] = s, u
    times = np.concatenate(([LD(0.0)], np.cumsum(legs)))
    theta = np.array([rng.uniform(0, 50) for _ in range(2 * n + 2)], dtype=LD)
    log_coord = np.full(2 * n + 2, -1.0, dtype=LD)
    fake = HittingSequence(
        times=times, theta=theta, log_coord=log_coord,
        sojourns_V1=s, sojourns_V2=u, n_pairs=n,
    )
    with pytest.raises(NonConvergent):
        estimate_invariants(fake)


# float64 entries: any double, magnitudes from 1e-300 to 1e300 of either
# sign, and the special values; a triple is three draws or one draw thrice
_ENTRY = st.one_of(
    st.floats(),
    st.builds(lambda m, sign: sign * m, st.floats(1e-300, 1e300), st.sampled_from([1.0, -1.0])),
    st.sampled_from([0.0, -0.0, np.nan, np.inf, -np.inf, 1e-300, -1e300]),
)
_TRIPLE = st.one_of(st.tuples(_ENTRY, _ENTRY, _ENTRY), _ENTRY.map(lambda v: (v, v, v)))


@settings(max_examples=300)
@given(st.tuples(_TRIPLE, _TRIPLE, _TRIPLE))
def test_row_wise_spread_is_the_per_series_one_bitwise(rows):
    tails = np.array(rows, dtype=np.float64)
    with np.errstate(all="ignore"):
        std, mean = _spread(tails)
        settled = std <= 1e-3 * abs(mean)
        for r, tail in enumerate(tails):
            want_std, want_mean = np.std(tail), np.mean(tail)
            assert same_bits(std[r], want_std, equal_nan=True)
            assert same_bits(mean[r], want_mean, equal_nan=True)
            assert settled[r] == bool(want_std <= 1e-3 * abs(want_mean))


def _from_legs(s, u):
    """A hand-built sequence with sojourn legs ``s`` (``n + 1``) and ``u`` (``n``)."""
    s, u = np.array(s, dtype=LD), np.array(u, dtype=LD)
    legs = np.empty(len(s) + len(u), dtype=LD)
    legs[0::2], legs[1::2] = s, u
    times = np.concatenate(([LD(0.0)], np.cumsum(legs)))
    return HittingSequence(times=times, theta=np.arange(len(times), dtype=LD),
                           log_coord=np.full(len(times), LD(-1.0)),
                           sojourns_V1=s, sojourns_V2=u, n_pairs=len(u))


def _from_ratios(r1, r2):
    """Legs whose ``u[i]/s[i]`` is ``r1[i]`` and ``s[i]/u[i-1]`` is ``r2[i-1]``."""
    s, u = [LD(1.0)], []
    for a, b in zip(r1, r2):
        u.append(LD(a) * s[-1])
        s.append(LD(b) * u[-1])
    return _from_legs(s, u)


def _tails_settle(h):
    """The per-series spread test of each of ``ratio1..ratio3``, one at a time."""
    out = []
    for seq in corollary_ratios(h, P).ratios[:3]:
        vals = seq[~np.isnan(seq)]
        tail = vals[-3:].astype(float)
        out.append(len(vals) >= 3 and bool(np.std(tail) <= 1e-3 * abs(np.mean(tail))))
    return out


_D = 1e-3
# (legs, which ratio tails settle, the ratio the refusal names)
_FAILS_FIRST = {
    "all_fail": (_from_legs(np.linspace(1, 7, 7) ** 2, np.linspace(9, 2, 6)),
                 [False, False, False], "ratio1"),
    # ratio3 follows ratio2 one loop back, and both swing
    "ratio2_and_ratio3": (_from_ratios([2.0] * 6, [2.0, 2.0, 2.0, 3.0, 4.0, 5.0]),
                          [True, False, False], "ratio2"),
    # the closing leg alone is off, and only ratio2 reaches it
    "ratio2_only": (_from_ratios([2.0] * 6, [2.0] * 5 + [6.0]), [True, False, True], "ratio2"),
    # ratio1 and ratio2 swing in step, each by less than 1e-3: their
    # product, which ratio3 follows, swings by about twice that
    "ratio3_only": (_from_ratios([100 * (1 + e) for e in (0, 0, 0, _D, -_D, _D)],
                                 [3 * (1 + e) for e in (0, 0, _D, -_D, _D, -_D)]),
                    [True, True, False], "ratio3"),
}


@pytest.mark.parametrize("case", _FAILS_FIRST)
def test_the_refusal_names_the_first_ratio_that_fails(case):
    h, settle, name = _FAILS_FIRST[case]
    assert _tails_settle(h) == settle
    with pytest.raises(NonConvergent, match=f"^{name} tail has not stabilized"):
        estimate_invariants(h)


def test_a_ratio_tail_that_is_not_finite_is_refused_without_a_warning():
    # an infinite closing leg reaches ratio2 alone; warnings are errors here
    s = LD(4.0) ** np.arange(6, dtype=LD)
    s[5] = np.inf
    with pytest.raises(NonConvergent, match="^ratio2 tail has not stabilized"):
        estimate_invariants(_from_legs(s, 2 * s[:5]))


def test_two_infinite_loop_durations_are_refused_without_a_warning():
    # inf/inf in ratio3 and ratio4; warnings are errors here
    s = LD(4.0) ** np.arange(6, dtype=LD)
    u = 2 * s[:5]
    u[3] = u[4] = np.inf
    h = _from_legs(s, u)
    ratios = corollary_ratios(h, P).ratios
    assert np.isnan(ratios[2][-1]) and np.isnan(ratios[3][-1])
    with pytest.raises(NonConvergent, match="^ratio1 tail has not stabilized"):
        estimate_invariants(h)


def test_a_ratio_with_fewer_than_three_entries_is_refused():
    # a NaN first leg of loop 2 leaves ratio3 two entries; ratio1 and
    # ratio2 drop their NaN and settle on their other entries
    s = LD(4.0) ** np.arange(6, dtype=LD)
    u = 2 * s[:5]
    s[2] = np.nan
    h = _from_legs(s, u)
    assert [np.count_nonzero(~np.isnan(r)) for r in corollary_ratios(h, P).ratios[:3]] == [4, 4, 2]
    assert _tails_settle(h) == [True, True, False]
    with pytest.raises(NonConvergent, match="^ratio3 tail has not stabilized"):
        estimate_invariants(h)


def test_constant_legs_are_refused():
    # every ratio settles, but the least-squares slope for gamma2 has no spread
    with pytest.raises(NonConvergent, match="^sojourn legs are constant; cannot estimate gamma2$"):
        estimate_invariants(_from_legs([2.0] * 7, [3.0] * 6))


def test_a_degenerate_angle_relation_is_refused():
    # every angle 0: the two-row system for (1/a, omega1) is singular
    s = LD(4.0) ** np.arange(7, dtype=LD)
    h = _from_legs(s, 2 * s[:6])
    h = dataclasses.replace(h, theta=np.zeros_like(h.times))
    with pytest.raises(NonConvergent, match="^angle relation is degenerate for this seed"):
        estimate_invariants(h)


def test_lemma2_decays_like_the_perturbation(perturbed):
    _, lem = perturbed
    np.testing.assert_allclose(float(lem.lemma2[0]), 1.3886013e-3, rtol=1e-6)
    np.testing.assert_allclose(float(lem.lemma2[1]), -1.3824835e-7, atol=2e-13)
    # everything later drowns in rounding noise; it must stay tiny
    assert np.abs(lem.lemma2[2:]).max() < 1e-11


def test_perturbation_decay_slope(perturbed):
    h, _ = perturbed
    slope = perturbation_decay_slope(h, PP)
    np.testing.assert_allclose(slope, 0.951501144514, rtol=1e-9)
    assert slope >= 2.0 * 0.5 - 0.1  # delta1 * eps minus the stated margin


def test_decay_slope_needs_perturbation_signal():
    h = generate_hitting_sequence(SEED, P, 8)
    with pytest.raises(InsufficientData):
        perturbation_decay_slope(h, P)


def test_residual_root_statistic_and_summability(perturbed):
    h, lem = perturbed
    i = np.arange(len(lem.residuals), dtype=float)
    r = np.abs(np.asarray(lem.residuals, dtype=float))
    defined = ~np.isnan(r) & (i >= 1)
    roots = (i[defined] * r[defined]) ** (1.0 / i[defined])
    assert roots.max() < 1.0
    np.testing.assert_allclose(roots[0], 0.0040029234, rtol=1e-6)
    np.testing.assert_allclose(roots[1], 0.00091076491, rtol=1e-6)
    total = float(np.sum(i[defined] * r[defined]))
    np.testing.assert_allclose(total, 0.004003752871, rtol=1e-6)
    tail = i[defined][9:] * r[defined][9:]
    assert tail.sum() < 1e-8


def test_diagnostics_need_enough_pairs():
    h = generate_hitting_sequence(SEED, P, 2)
    with pytest.raises(InsufficientData):
        lemma_diagnostics(h, derive_constants(P))
    with pytest.raises(InsufficientData, match="^ratio diagnostics need at least 2 loops, got 1$"):
        corollary_ratios(generate_hitting_sequence(SEED, P, 1), P)
    with pytest.raises(InsufficientData,
                       match="^invariant estimation needs at least 5 loops, got 4$"):
        estimate_invariants(generate_hitting_sequence(SEED, P, 4))


def _longhand_ratios(h, p):
    """The four ratio series, one loop at a time."""
    s, u, P = h.sojourns_V1, h.sojourns_V2, h.n_pairs
    T = [s[i] + u[i] for i in range(P)]
    nan = LD(np.nan)
    return (
        np.array([u[i] / s[i] for i in range(P)], dtype=LD),
        np.array([nan] + [s[i] / u[i - 1] for i in range(1, P + 1)], dtype=LD),
        np.array([nan] + [T[i] / T[i - 1] for i in range(1, P)], dtype=LD),
        np.array([(LD(p.omega1) * s[i] + LD(p.omega2) * u[i]) / T[i] for i in range(P)],
                 dtype=LD),
    )


def _longhand_estimate(h, p):
    s, u, P = h.sojourns_V1, h.sojourns_V2, h.n_pairs
    T = [s[i] + u[i] for i in range(P)]
    r1, r2, r3, _ = _longhand_ratios(h, p)
    for name, seq in (("ratio1", r1), ("ratio2", r2[1:]), ("ratio3", r3[1:])):
        tail = seq[-3:].astype(float)
        if not np.std(tail) <= 1e-3 * abs(np.mean(tail)):
            raise NonConvergent(f"{name} tail has not stabilized")
    gamma1 = u[P - 1] / s[P - 1]
    x, y = u[P - 5 : P], s[P - 4 : P + 1]
    xm, ym = x.mean(), y.mean()
    gamma2 = ((x - xm) * (y - ym)).sum() / ((x - xm) ** 2).sum()
    tau_log_a = -(T[P - 1] - (gamma1 * gamma2) * T[P - 2])
    th = h.theta
    omega2 = (th[2 * P] - th[2 * P - 1]) / u[P - 1]
    q1, q2, y1, y2 = th[2 * P - 2], th[2 * P], th[2 * P - 1], th[2 * P + 1]
    det = q1 * s[P] - q2 * s[P - 1]
    if not abs(det) > LD(1e-13) * max(abs(q1 * s[P]), abs(q2 * s[P - 1]), LD(1.0)):
        raise NonConvergent("angle relation is degenerate")
    omega1 = (q1 * y2 - q2 * y1) / det
    combo = (gamma1 + LD(1.0)) * ((omega1 * s[P - 1] + omega2 * u[P - 1]) / T[P - 1])
    return np.array([gamma1, gamma2, combo, tau_log_a], dtype=LD)


def _longhand_decay_slope(h, p):
    s, u = h.sojourns_V1, h.sojourns_V2
    gamma1 = LD(p.C1) / LD(p.E2)
    xs, ys = [], []
    for i in range(h.n_pairs):
        floor = LD(1e3) * np.finfo(LD).eps * max(abs(u[i]), abs(gamma1 * s[i]), LD(1.0))
        val = abs(u[i] - gamma1 * s[i])
        if val > floor:
            xs.append(float(np.log(LD(p.a)) + h.log_coord[2 * i]))
            ys.append(float(np.log(val)))
    if len(xs) < 2:
        raise InsufficientData("no perturbation signal above the noise floor")
    return np.polyfit(xs, ys, 1)[0]


def _outcome(f, *args):
    try:
        return f(*args)
    except (InsufficientData, NonConvergent) as err:
        return type(err)


@pytest.mark.parametrize("perturbed", [False, True], ids=["idealized", "perturbed"])
def test_diagnostics_match_longhand_formulas_bitwise(perturbed):
    rng = np.random.default_rng(31 + perturbed)
    for _ in range(100):
        q0, p = draw_orbit(rng, perturbed)
        h = generate_hitting_sequence(q0, p, 12)
        ratios = corollary_ratios(h, p).ratios
        assert all(same_bits(a, b, equal_nan=True) for a, b in zip(ratios, _longhand_ratios(h, p)))
        est = _outcome(estimate_invariants, h)
        want = _outcome(_longhand_estimate, h, p)
        assert est is want if isinstance(want, type) else same_bits(est.as_array(), want)
        slope = _outcome(perturbation_decay_slope, h, p)
        want = _outcome(_longhand_decay_slope, h, p)
        assert slope is want if isinstance(want, type) else same_bits(np.float64(slope), want)


@pytest.mark.parametrize("p", [P, PP], ids=["idealized", "perturbed"])
def test_defects_give_back_every_exit_bitwise(p):
    h = generate_hitting_sequence(SEED, p, 32)
    D1, D2 = _defects(h, p)
    assert len(D1) == 33 and len(D2) == 32
    exit1, exit2 = exits_from_defects(h, p)
    assert same_bits(exit1, h.log_coord[1::2]) and same_bits(exit2, h.log_coord[2::2])
    if p is P:
        assert not D1.any() and not D2.any()
    else:
        # the perturbation has underflowed after six legs of each cylinder;
        # every defect past the cut-off is exactly 0
        assert np.count_nonzero(D1) == np.count_nonzero(D2) == 6
        assert not D1[6:].any() and not D2[6:].any()
