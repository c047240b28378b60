"""Recovering seeds from times and replaying them on matched systems."""

from __future__ import annotations

import dataclasses
import itertools

import numpy as np
import pytest

from bykov import (
    ConstraintViolation,
    InsufficientData,
    InvalidTimes,
    InvariantMismatch,
    SectionPoint,
    adjusted_sequence,
    derive_constants,
    generate_hitting_sequence,
    matching_params,
    recover_point,
    verify_conjugacy,
)
from bykov.acceptance import MATCHED_PARAMS as G
from bykov.acceptance import MISMATCHED_PARAMS as MISMATCHED
from bykov.adjusted import AdjustedTimes
from reference import LD, P, SEED


def _adjusted(p, seed=SEED, n=10):
    h = generate_hitting_sequence(seed, p, n)
    return adjusted_sequence(h, derive_constants(p))


def test_recover_point_roundtrips_the_seed():
    """Recovery with the generating system returns the seed data itself."""
    rec = recover_point(_adjusted(P), P)
    np.testing.assert_allclose(float(rec.z0_log), np.log(0.1), rtol=1e-10)
    # first-wall radius (a*z0)**delta1
    np.testing.assert_allclose(float(rec.rho1_log), 2 * np.log(0.05), rtol=1e-10)
    np.testing.assert_allclose(float(np.mod(rec.theta0, 2 * np.pi)),
                               float(rec.theta0_reduced), atol=1e-15)


def _image(seed, n_pairs):
    """The image of ``seed`` in ``G`` under the conjugacy built from ``P``."""
    return verify_conjugacy(seed, P, G, n_pairs=n_pairs).image_point


def test_matched_image_has_the_predicted_height_and_radius():
    rec = _image(SEED, 10)
    np.testing.assert_allclose(float(np.exp(rec.z0_log)), 0.01, rtol=1e-10)
    np.testing.assert_allclose(float(np.exp(rec.rho1_log)), 6.25e-6, rtol=1e-10)


def test_verify_identity_system():
    report = verify_conjugacy(SEED, P, P, n_pairs=10)
    assert report.verdict is True
    assert float(np.abs(report.time_deviations).max()) < 1e-12


def test_verify_matched_system():
    report = verify_conjugacy(SEED, P, G, n_pairs=10)
    assert report.verdict is True
    assert report.max_dev < 1e-8
    assert float(report.time_deviations[1]) < 1e-9
    assert report.target_params is G


def test_negative_control_strict_raises():
    with pytest.raises(InvariantMismatch, match="strict=False"):
        verify_conjugacy(SEED, P, MISMATCHED, n_pairs=10)


def test_negative_control_diverges_geometrically():
    report = verify_conjugacy(SEED, P, MISMATCHED, n_pairs=10, strict=False)
    assert report.verdict is False
    dev = np.abs(report.time_deviations)
    assert dev[:7].max() > 1e-3  # visibly wrong within three pairs
    assert float(dev[3]) > 0.5
    assert float(dev[5]) > 2 * float(dev[3])
    assert float(dev[7]) > 2 * float(dev[5])


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "the replay compares hitting times only, and an idealized partner's times do not "
    "depend on its angles, so a partner off in the twist combination alone passes "
    "(verdict True, max_dev 9.5e-20); an angle-side reading of the replay is the fix"))
@pytest.mark.parametrize("twist", ["omega1", "omega2"])
def test_a_partner_off_in_the_twist_alone_fails_the_replay(twist):
    partner = dataclasses.replace(G, **{twist: getattr(G, twist) * 1.001})
    assert verify_conjugacy(SEED, P, partner, n_pairs=12, strict=False).verdict is False


def test_a_partner_off_in_tau_ln_a_alone_fails_the_replay():
    # the control of the twist case above: the same nudge to a moves the times
    partner = dataclasses.replace(G, a=G.a * 1.001)
    report = verify_conjugacy(SEED, P, partner, n_pairs=12, strict=False)
    assert report.verdict is False
    assert report.max_dev > 1e-5


# a partner of P with a_bar = a = 0.5: the angle degree 1/a of the return
# map matches, so the identity can be the angle half of the section map
SAME_A = matching_params(P, E1_bar=P.E1, E2_bar=2, omega2_bar=1)


def _rel_gap(x, y) -> float:
    return float(np.max(np.abs(x - y) / np.maximum(1, np.abs(y))))


@pytest.mark.parametrize("twist", [None, "omega1", "omega2"])
def test_the_conjugacy_holds_on_both_section_coordinates(twist):
    """``(theta, z) -> (theta, H_z(z))`` takes P's Out2 returns to SAME_A's, times and angles.

    With one rate of the partner scaled by 1.001 the twist combination is
    off: the times still agree, since they carry no angle, and the angles
    part.
    """
    g = SAME_A if twist is None else dataclasses.replace(
        SAME_A, **{twist: getattr(SAME_A, twist) * 1.001})
    assert g.a == P.a
    for theta0, z0 in itertools.product((0.0, 1.0, 2.5, 5.0), (0.03, 0.1, 0.3)):
        h = generate_hitting_sequence(SectionPoint("Out2", theta0, float(np.log(z0))), P, 12)
        z0_log = recover_point(adjusted_sequence(h, P, 13), g).z0_log
        h_bar = generate_hitting_sequence(SectionPoint("Out2", theta0, z0_log), g, 12)
        assert _rel_gap(h_bar.times, h.times) < 1e-12
        angle_gap = _rel_gap(h_bar.theta[0::2], h.theta[0::2])
        assert angle_gap < 1e-12 if twist is None else angle_gap > 1e-4


def test_injectivity_on_seed_heights():
    """Distinct seeds stay distinct: relative gaps shrink boundedly."""
    z0 = 0.1
    z1 = z0 * (1 + 1e-6)
    seed1 = SectionPoint(chart="Out2", theta_lifted=1.0, log_coord=float(np.log(z1)))
    r0 = _image(SEED, 8)
    r1 = _image(seed1, 8)
    rel_gap = abs(float(np.exp(r1.z0_log) / np.exp(r0.z0_log)) - 1.0)
    assert rel_gap >= 1e-7


def test_continuity_modulus_of_the_conjugacy():
    # log-heights map linearly with slope E1_bar/E1, so relative changes
    # scale by exactly that factor to first order
    dz = 1e-9
    seed1 = SectionPoint(
        chart="Out2", theta_lifted=1.0, log_coord=float(np.log(0.1 * (1 + dz)))
    )
    r0 = _image(SEED, 8)
    r1 = _image(seed1, 8)
    in_rel = abs(float(seed1.log_coord) - float(SEED.log_coord))
    out_rel = abs(float(r1.z0_log) - float(r0.z0_log))
    ratio = out_rel / in_rel
    assert ratio <= (G.E1 / P.E1) * (1 + 1e-6)
    assert ratio >= (G.E1 / P.E1) * (1 - 1e-6)


def test_index_shift_recovers_later_heights():
    """Dropping 2N head crossings recovers the height at crossing 2N."""
    n, N = 10, 3
    h = generate_hitting_sequence(SEED, P, n)
    for N in (1, 2, 3):
        shifted_seed = SectionPoint("Out2", h.theta[2 * N], h.log_coord[2 * N])
        rec = recover_point(_adjusted(P, seed=shifted_seed, n=n - N), P)
        np.testing.assert_allclose(
            float(rec.z0_log), float(shifted_seed.log_coord), rtol=1e-9
        )


def test_recover_rejects_disordered_times():
    bad = AdjustedTimes(
        T0_family=np.array([1.0], dtype=LD),
        T0=LD(1.0),
        T_seq=np.array([1.0], dtype=LD),
        t_even=np.array([0.0, 3.0], dtype=LD),
        t_odd=np.array([5.0], dtype=LD),
        t_even_zero=np.array([0.0, 3.0], dtype=LD),
        t_odd_zero=np.array([5.0], dtype=LD),
        offset=LD(0.0),
        residual_tail_bound=0.0,
    )
    with pytest.raises(InvalidTimes):
        recover_point(bad, P)
    # a first leg shorter than -ln(a)/E1 = ln 2 would start above the section
    adj = _adjusted(P)
    short = dataclasses.replace(adj, t_odd_zero=np.concatenate(([LD(0.5)], adj.t_odd_zero[1:])))
    with pytest.raises(InvalidTimes, match="too short"):
        recover_point(short, P)


def test_verify_needs_enough_pairs():
    with pytest.raises(InsufficientData):
        verify_conjugacy(SEED, P, G, n_pairs=1)


@pytest.mark.parametrize("tol", [0.0, -1.0, float("nan"), float("inf"), True, "1e-3", None])
def test_verdict_tolerance_must_be_positive_and_finite(tol):
    # with tol=inf a replay that misses by 0.67 would read as conjugate
    with pytest.raises(ConstraintViolation, match="tol must be positive and finite"):
        verify_conjugacy(SEED, P, MISMATCHED, n_pairs=6, tol=tol, strict=False)
