"""Asymptotic identities, convergence ratios, and invariant recovery."""

from __future__ import annotations

import numpy as np
import pytest

from bykov import (
    HittingSequence,
    InsufficientData,
    NonConvergent,
    PerturbationSpec,
    SectionPoint,
    SystemParams,
    corollary_ratios,
    derive_constants,
    estimate_invariants,
    generate_hitting_sequence,
    lemma_diagnostics,
    perturbation_decay_slope,
)
from bykov.acceptance import _richardson_tail

LD = np.longdouble
P = SystemParams(C1=2, E1=1, omega1=1, C2=3, E2=1.5, omega2=2, a=0.5)
PP = SystemParams(
    C1=2, E1=1, omega1=1, C2=3, E2=1.5, omega2=2, a=0.5,
    perturbation=PerturbationSpec(c1=0.1, c2=0.1, eps=0.5),
)
SEED = SectionPoint(chart="Out2", theta_lifted=1.0, log_coord=float(np.log(0.1)))

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


def _random_orbit(rng, perturbed):
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
    return generate_hitting_sequence(q0, p, 12), p


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


def _same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return (got.dtype == want.dtype and np.array_equal(got, want, equal_nan=True)
            and np.array_equal(np.signbit(got), np.signbit(want)))


def _outcome(f, *args):
    try:
        return f(*args)
    except (InsufficientData, NonConvergent) as err:
        return type(err)


@pytest.mark.parametrize("perturbed", [False, True], ids=["idealized", "perturbed"])
def test_diagnostics_match_longhand_formulas_bitwise(perturbed):
    rng = np.random.default_rng(31 + perturbed)
    for _ in range(100):
        h, p = _random_orbit(rng, perturbed)
        ratios = corollary_ratios(h, p).ratios
        assert all(_same_bits(a, b) for a, b in zip(ratios, _longhand_ratios(h, p)))
        est = _outcome(estimate_invariants, h)
        want = _outcome(_longhand_estimate, h, p)
        assert est is want if isinstance(want, type) else _same_bits(est.as_array(), want)
        slope = _outcome(perturbation_decay_slope, h, p)
        want = _outcome(_longhand_decay_slope, h, p)
        assert slope is want if isinstance(want, type) else _same_bits(np.float64(slope), want)
