"""Backward extraction of the adjusted time sequence and its identities."""

from __future__ import annotations

import numpy as np
import pytest

from bykov import (
    HittingSequence,
    InsufficientData,
    adjusted_sequence,
    derive_constants,
    generate_hitting_sequence,
    shift_invariance_check,
)
from bykov.adjusted import _carry_back
from reference import LD, P, PP, SEED

D = derive_constants(P)


@pytest.fixture(scope="module")
def ideal():
    h = generate_hitting_sequence(SEED, P, 12)
    return h, adjusted_sequence(h, D)


@pytest.fixture(scope="module")
def perturbed():
    h = generate_hitting_sequence(SEED, PP, 12)
    return h, adjusted_sequence(h, derive_constants(PP))


def _scalar_chain(value, steps, d):
    """The chain step written out longhand, one scalar at a time."""
    for _ in range(steps):
        value = (value + d.invariants.tau_log_a) / d.delta
    return value


def test_backward_chain_step():
    # one pull-back of the second loop duration lands on the first
    T1 = LD("29.57751130781045499404")  # t4 - t2
    family = _carry_back(np.array([T1, T1], dtype=LD), D)
    assert family.shape == (2,)
    assert family[0] == T1  # element 0 takes no step
    np.testing.assert_allclose(family[1], LD("6.990041971625978984682"), rtol=1e-17)


@pytest.mark.parametrize("params", [P, PP], ids=["idealized", "perturbed"])
def test_family_matches_longhand_chain_bitwise(params):
    d = derive_constants(params)
    h = generate_hitting_sequence(SEED, params, 200)
    T = h.sojourns_V1[: h.n_pairs] + h.sojourns_V2
    reference = np.array([_scalar_chain(T[i], i, d) for i in range(len(T))], dtype=LD)
    adj = adjusted_sequence(h, d)
    assert np.array_equal(adj.T0_family, reference)
    for N in range(4):
        target = adj.T0
        for _ in range(N):
            target = d.delta * target - d.invariants.tau_log_a
        family_N = np.array(
            [_scalar_chain(T[i], i - N, d) for i in range(N, len(T))], dtype=LD
        )
        expected = float(np.max(np.abs(family_N - target)))
        assert shift_invariance_check(h, d, N) == expected


def test_family_is_constant_without_perturbation(ideal):
    h, adj = ideal
    fam = adjusted_sequence(h, D).T0_family
    assert len(fam) == h.n_pairs
    spread = float(fam.max() - fam.min())
    assert spread < 1e-15
    np.testing.assert_allclose(adj.T0, LD("6.990041971625978984682"), rtol=1e-15)
    assert adj.residual_tail_bound < 1e-12


def test_perturbed_family_reference(perturbed):
    _, adj = perturbed
    np.testing.assert_allclose(float(adj.T0_family[0]), 6.99143057290438832, rtol=1e-12)
    np.testing.assert_allclose(float(adj.T0_family[1]), 6.9924313037488546, rtol=1e-12)
    np.testing.assert_allclose(float(adj.T0), 6.99243127782720693, rtol=1e-12)
    np.testing.assert_allclose(float(adj.offset), -0.00100060123622795, rtol=1e-9)
    # the family has converged by its third member
    tail = np.asarray(adj.T0_family[2:], float)
    assert np.abs(tail - float(adj.T0)).max() < 1e-13


def test_forward_recursion_identity(ideal):
    _, adj = ideal
    T = adj.T_seq
    resid = T[1:] - 4.0 * T[:-1] - (-D.invariants.tau_log_a)
    rel = np.abs(np.asarray(resid / T[1:], float))
    assert rel.max() < 1e-12


def test_interpolated_legs_keep_the_twist_ratio(ideal):
    """Adjusted odd times split each loop exactly 1 : gamma1."""
    _, adj = ideal
    s = adj.t_odd_zero - adj.t_even_zero[: len(adj.t_odd_zero)]
    u = adj.t_even_zero[1:] - adj.t_odd_zero
    rel = np.abs(np.asarray((u - (4 / 3) * s) / u, float))
    assert rel.max() < 1e-12


def test_adjusted_leg_identity_every_index(ideal):
    # the height-jump identity holds exactly on the adjusted grid, at all i
    _, adj = ideal
    s_legs = adj.t_odd_zero[1:] - adj.t_even_zero[1:-1]
    u_legs = adj.t_even_zero[1:-1] - adj.t_odd_zero[:-1]
    combo = s_legs - 3.0 * u_legs
    # algebraically exact on the adjusted grid; numerically limited by the
    # ulp of the latest times (~1e7), not by the size of the limit itself
    np.testing.assert_allclose(
        np.asarray(combo, float), 0.6931471805599453, atol=1e-10
    )


def test_idealized_grid_reproduces_measured_times(ideal):
    h, adj = ideal
    np.testing.assert_allclose(adj.t_even, h.times[0:-1:2], rtol=1e-13, atol=1e-9)
    np.testing.assert_allclose(
        adj.t_odd, h.times[1::2][: len(adj.t_odd)], rtol=1e-13, atol=1e-9
    )


def test_perturbed_grid_converges_to_measured(perturbed):
    h, adj = perturbed
    diffs = np.abs(h.times[0:-1:2] - adj.t_even)
    np.testing.assert_allclose(float(diffs[1]), 1.04e-7, rtol=0.05)
    assert float(diffs[2]) < 1e-12
    assert diffs[2:].max() < 1e-6  # settled well before i = 10
    # late entries agree to a few ulp of the time magnitude
    floor = 32 * float(np.finfo(LD).eps) * float(h.times[-1])
    assert float(diffs[-1]) < floor


def test_shift_invariance(ideal, perturbed):
    h, adj = ideal
    assert shift_invariance_check(h, D, 0) < 1e-9
    assert shift_invariance_check(h, D, 2) < 1e-9
    hp, adjp = perturbed
    dp = derive_constants(PP)
    # anchoring past the perturbed head, the deviation is residual-sized
    assert shift_invariance_check(hp, dp, 2) < 1e-11
    with pytest.raises(InsufficientData):
        shift_invariance_check(h, D, h.n_pairs - 1)


def test_single_time_perturbation_leaves_late_family_alone(perturbed):
    """Moving one crossing only touches the two loops that straddle it."""
    h, _ = perturbed
    eta = LD("0.31622776601683793")
    times = h.times.copy()
    times[2] = times[2] + eta
    s = h.sojourns_V1.copy()
    u = h.sojourns_V2.copy()
    u[0] = u[0] + eta
    s[1] = s[1] - eta
    bumped = HittingSequence(
        times=times, theta=h.theta, log_coord=h.log_coord,
        sojourns_V1=s, sojourns_V2=u, n_pairs=h.n_pairs,
    )
    d = derive_constants(PP)
    adj0 = adjusted_sequence(h, d)
    adj1 = adjusted_sequence(bumped, d)
    fam0, fam1 = adj0.T0_family, adj1.T0_family
    # loop durations T_i for i >= 2 are untouched, hence bitwise equality
    assert all(a == b for a, b in zip(fam0[2:], fam1[2:]))
    assert abs(float(adj1.T0 - adj0.T0)) <= adj0.residual_tail_bound + adj1.residual_tail_bound


def test_requires_two_pairs():
    h = generate_hitting_sequence(SEED, P, 1)
    with pytest.raises(InsufficientData, match="the backward family needs at least 2 loops, got 1"):
        adjusted_sequence(h, D)


def test_zero_anchored_grid_starts_at_zero(ideal):
    _, adj = ideal
    assert float(adj.t_even_zero[0]) == 0.0
    # the offset is representable only down to the ulp of the largest time
    floor = 4 * float(np.finfo(LD).eps) * float(adj.t_even[-1])
    np.testing.assert_allclose(
        np.asarray(adj.t_even - adj.t_even_zero, float),
        float(adj.offset),
        atol=max(1e-15, floor),
    )
