"""Backward extraction of the adjusted time sequence and its identities."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from bykov import (
    HittingSequence,
    InsufficientData,
    PerturbationSpec,
    SectionPoint,
    SystemParams,
    adjusted_sequence,
    derive_constants,
    generate_hitting_sequence,
    shift_invariance_check,
)
from bykov.adjusted import _carry_back
from reference import LD, P, PP, SEED, longhand_chain, same_bits

D = derive_constants(P)


@pytest.fixture(scope="module")
def ideal():
    h = generate_hitting_sequence(SEED, P, 12)
    return h, adjusted_sequence(h, D)


@pytest.fixture(scope="module")
def perturbed():
    h = generate_hitting_sequence(SEED, PP, 12)
    return h, adjusted_sequence(h, derive_constants(PP))


def test_backward_chain_step():
    # one pull-back of the second loop duration lands on the first
    T1 = LD("29.57751130781045499404")  # t4 - t2
    family = _carry_back(np.array([T1, T1], dtype=LD), D)
    assert family.shape == (2,)
    assert family[0] == T1  # element 0 takes no step
    np.testing.assert_allclose(family[1], LD("6.990041971625978984682"), rtol=1e-17)


def _assert_carry_is_longhand(h, d, N):
    """``T0_family``, ``T_seq`` and ``shift_invariance_check(h, d, N)`` bitwise against longhand.

    Chain ``i`` is carried ``i - N`` steps for the check at ``N``, then
    ``N`` more for the family: the same steps as in one chain.
    """
    T = h.sojourns_V1[: h.n_pairs] + h.sojourns_V2
    family_N = [longhand_chain(T[i], i - N, d) for i in range(N, len(T))]
    family = [longhand_chain(T[i], i, d) for i in range(N)]
    family += [longhand_chain(x, N, d) for x in family_N]
    adj = adjusted_sequence(h, d)
    assert same_bits(adj.T0_family, np.array(family, dtype=LD))
    T_seq = [family[-1]]  # T0 is the family's last element
    for _ in range(1, len(T)):
        T_seq.append(d.delta * T_seq[-1] - d.invariants.tau_log_a)
    assert same_bits(adj.T_seq, np.array(T_seq, dtype=LD))
    if N < h.n_pairs - 2:
        expected = float(np.max(np.abs(np.array(family_N, dtype=LD) - T_seq[N])))
        assert same_bits(shift_invariance_check(h, d, N), expected)


@pytest.mark.parametrize("params", [P, PP], ids=["idealized", "perturbed"])
def test_family_matches_longhand_chain_bitwise(params):
    h = generate_hitting_sequence(SEED, params, 200)
    for N in range(4):
        _assert_carry_is_longhand(h, derive_constants(params), N)


# saddle indices near 1 keep chains apart for many steps; larger ones merge them early
_index = st.one_of(st.floats(1.0, 1.0 + 1e-6, exclude_min=True), st.floats(1.0, 4.0, exclude_min=True))
_rate = st.floats(0.25, 4.0)


@given(
    E1=_rate, E2=_rate, d1=_index, d2=_index, w1=st.floats(0.1, 5.0), w2=st.floats(0.1, 5.0),
    a=st.floats(0.01, 0.99), perturbed=st.booleans(), c1=st.floats(0.0, 0.1),
    c2=st.floats(0.0, 0.1), eps=st.floats(0.3, 0.8), theta0=st.floats(0.0, 6.3),
    z0=st.floats(0.01, 0.5), n=st.integers(2, 300), N=st.integers(0, 300),
)
def test_merged_carry_is_the_longhand_chain(E1, E2, d1, d2, w1, w2, a, perturbed, c1, c2, eps,
                                            theta0, z0, n, N):
    C1, C2 = E1 * d1, E2 * d2
    assume(C1 > E1 and C2 > E2)
    pert = PerturbationSpec(c1=c1, c2=c2, eps=eps) if perturbed else None
    p = SystemParams(C1=C1, E1=E1, omega1=w1, C2=C2, E2=E2, omega2=w2, a=a, perturbation=pert)
    h = generate_hitting_sequence(SectionPoint("Out2", theta0, float(np.log(z0))), p, n)
    _assert_carry_is_longhand(h, derive_constants(p), min(N, n - 1))


def _with_durations(T):
    """A sequence whose loop durations are ``T``: ``s = T``, ``u = 0``."""
    s = np.append(T, LD(1.0))
    zeros = np.zeros(len(T), dtype=LD)
    times = np.zeros(2 * len(T) + 2, dtype=LD)
    return HittingSequence(times=times, theta=times, log_coord=times,
                           sojourns_V1=s, sojourns_V2=zeros, n_pairs=len(T))


def test_a_family_in_which_every_chain_merges():
    # T[i-1] = B(T[i]), built backwards: each chain lands on its neighbour
    # at the first step, and the family is T[0] throughout
    T = [LD("1e40")]
    for _ in range(299):
        T.append(longhand_chain(T[-1], 1, D))
    T = np.array(T[::-1], dtype=LD)
    h = _with_durations(T)
    assert same_bits(adjusted_sequence(h, D).T0_family, np.full(300, T[0]))
    _assert_carry_is_longhand(h, D, 20)


def test_a_family_in_which_no_chain_merges():
    # random durations and a saddle index near 1: every chain keeps its value
    d = derive_constants(dataclasses.replace(P, C1=P.E1 * (1 + 2**-20), C2=P.E2 * (1 + 2**-20)))
    h = _with_durations(np.random.default_rng(12).uniform(1.0, 2.0, 300).astype(LD))
    assert len(np.unique(adjusted_sequence(h, d).T0_family)) == 300
    _assert_carry_is_longhand(h, d, 20)


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
