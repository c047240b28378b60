"""Backward extraction of the adjusted time sequence and its identities."""

from __future__ import annotations

import dataclasses
import gc
import re
import warnings
import weakref

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from bykov import (
    HittingSequence,
    InsufficientData,
    InvalidTimes,
    PerturbationSpec,
    SectionPoint,
    SystemParams,
    adjusted_sequence,
    derive_constants,
    generate_hitting_sequence,
    shift_invariance_check,
)
from bykov._num import _affine_iterates
from bykov.adjusted import _carry_back, _extract_limit
from reference import (
    LD, P, PP, SEED, draw_orbit, exact, exact_chain, extract_limit, longhand_chain, same_bits,
)

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


def _floors_off(family, T, d) -> float:
    """The largest distance of ``family[i]`` from ``exact_chain(T, d)``, in floors of element ``i``."""
    chain, floor = exact_chain(T, d)
    with mpmath.workdps(60):
        return max(float(abs(exact(x) - y) / f) for x, y, f in zip(family, chain, floor))


def _assert_family_is_the_exact_chain(h, d, N):
    """``T0_family`` and the family re-anchored at ``N`` lie within 2 floors of the exact chain.

    ``T_seq`` is the forward recursion from the family's last element, and
    ``shift_invariance_check(h, d, N)`` the largest deviation of the
    re-anchored family from ``T_seq[N]``, both bit for bit.  Returns how
    many floors ``T0_family`` lies off.
    """
    T = h.sojourns_V1[: h.n_pairs] + h.sojourns_V2
    adj = adjusted_sequence(h, d)
    off = _floors_off(adj.T0_family, T, d)
    assert off <= 2
    family_N = _carry_back(T[N:], d)
    assert _floors_off(family_N, T[N:], d) <= 2
    T_seq = [adj.T0_family[-1]]
    for _ in range(1, len(T)):
        T_seq.append(d.delta * T_seq[-1] - d.invariants.tau_log_a)
    assert same_bits(adj.T_seq, np.array(T_seq, dtype=LD))
    if N < h.n_pairs - 2:
        expected = float(np.max(np.abs(family_N - T_seq[N])))
        assert same_bits(shift_invariance_check(h, d, N), expected)
    return off


@pytest.mark.parametrize("params", [P, PP], ids=["idealized", "perturbed"])
def test_family_is_within_two_floors_of_the_exact_chain(params):
    h = generate_hitting_sequence(SEED, params, 200)
    d = derive_constants(params)
    off = max(_assert_family_is_the_exact_chain(h, d, N) for N in range(4))
    # the scalar chain, rounded at every step, is the baseline to beat
    T = h.sojourns_V1[: h.n_pairs] + h.sojourns_V2
    longhand = np.array([longhand_chain(T[i], i, d) for i in range(len(T))], dtype=LD)
    assert off <= _floors_off(longhand, T, d)


# saddle indices near 1 put the fixed point of the chain far from the durations
_index = st.one_of(st.floats(1.0, 1.0 + 1e-6, exclude_min=True), st.floats(1.0, 4.0, exclude_min=True))
_rate = st.floats(0.25, 4.0)


@given(
    E1=_rate, E2=_rate, d1=_index, d2=_index, w1=st.floats(0.1, 5.0), w2=st.floats(0.1, 5.0),
    a=st.floats(0.01, 0.99), perturbed=st.booleans(), c1=st.floats(0.0, 0.1),
    c2=st.floats(0.0, 0.1), eps=st.floats(0.3, 0.8), theta0=st.floats(0.0, 6.3),
    z0=st.floats(0.01, 0.5), n=st.integers(2, 300), N=st.integers(0, 300),
)
def test_carry_is_within_two_floors_of_the_exact_chain(E1, E2, d1, d2, w1, w2, a, perturbed, c1,
                                                       c2, eps, theta0, z0, n, N):
    C1, C2 = E1 * d1, E2 * d2
    assume(C1 > E1 and C2 > E2)
    pert = PerturbationSpec(c1=c1, c2=c2, eps=eps) if perturbed else None
    p = SystemParams(C1=C1, E1=E1, omega1=w1, C2=C2, E2=E2, omega2=w2, a=a, perturbation=pert)
    h = generate_hitting_sequence(SectionPoint("Out2", theta0, float(np.log(z0))), p, n)
    _assert_family_is_the_exact_chain(h, derive_constants(p), min(N, n - 1))


def test_the_family_at_the_edge_of_the_long_double_range():
    # delta = 81 and the last loop count the generator accepts: the late
    # durations near the largest long double, delta**-i near the smallest
    p = SystemParams(C1=9, E1=1, omega1=1, C2=9, E2=1, omega2=2, a=0.999)
    h = generate_hitting_sequence(SectionPoint("Out2", 0.0, -1e-3), p, 2585)
    _assert_family_is_the_exact_chain(h, derive_constants(p), 1000)


def _with_durations(T):
    """A sequence whose loop durations are ``T``: ``s = T``, ``u = 0``."""
    s = np.append(T, LD(1.0))
    zeros = np.zeros(len(T), dtype=LD)
    times = np.zeros(2 * len(T) + 2, dtype=LD)
    return HittingSequence(times=times, theta=times, log_coord=times,
                           sojourns_V1=s, sojourns_V2=zeros, n_pairs=len(T))


def test_a_family_in_which_every_chain_merges():
    # T[i-1] = B(T[i]), built backwards with the scalar chain: each rounded
    # chain lands on its neighbour at its first step
    T = [LD("1e40")]
    for _ in range(299):
        T.append(longhand_chain(T[-1], 1, D))
    T = np.array(T[::-1], dtype=LD)
    _assert_family_is_the_exact_chain(_with_durations(T), D, 20)


def test_a_family_in_which_no_chain_merges():
    # random durations and a saddle index near 1: no two rounded chains meet
    d = derive_constants(dataclasses.replace(P, C1=P.E1 * (1 + 2**-20), C2=P.E2 * (1 + 2**-20)))
    h = _with_durations(np.random.default_rng(12).uniform(1.0, 2.0, 300).astype(LD))
    assert len(np.unique(adjusted_sequence(h, d).T0_family)) == 300
    _assert_family_is_the_exact_chain(h, d, 20)


@pytest.mark.parametrize("n, k", [(3000, -1), (3000, 5), (20, -1)])
def test_an_infinite_duration_is_refused_without_a_warning(n, k):
    # at delta = 81, delta**-2999 is 0, and the carry of an infinite last
    # duration is inf * 0; warnings are errors here
    d = derive_constants(SystemParams(C1=9, E1=1, omega1=1, C2=9, E2=1, omega2=2, a=0.5))
    T = np.ones(n, dtype=LD)
    T[k] = np.inf
    with pytest.raises(InvalidTimes, match=rf"^adjusted loop 0 is not finite: .* n={n}$"):
        adjusted_sequence(_with_durations(T), d)


_EPS = np.finfo(LD).eps  # the floor is 16 eps times the largest |family|
_LIMIT_FAMILIES = {
    "length_2": [LD(1.0), LD(1.5)],
    "constant": [LD(3.5)] * 5,
    "below_the_floor": [LD(1.0), 1 + 8 * _EPS, 1 + 12 * _EPS],
    "first_difference_only": [LD(1.0)] + [LD(2.0)] * 4,
    "geometric": 5 + 3 * LD(0.25) ** np.arange(12, dtype=LD),
    "slow_geometric": 5 + 3 * LD(0.95) ** np.arange(12, dtype=LD),
}


@pytest.mark.parametrize("family", _LIMIT_FAMILIES.values(), ids=_LIMIT_FAMILIES.keys())
def test_extract_limit_matches_longhand_bitwise(family):
    family = np.array(family, dtype=LD)
    T0, bound = _extract_limit(family)
    want_T0, want_bound = extract_limit(family)
    assert same_bits(T0, want_T0) and same_bits(np.float64(bound), np.float64(want_bound))


def test_extract_limit_edges():
    families = {k: np.array(v, dtype=LD) for k, v in _LIMIT_FAMILIES.items()}
    assert _extract_limit(families["length_2"])[1] == 0.5  # one difference: ratio 0.5
    assert same_bits(np.float64(_extract_limit(families["constant"])[1]), np.float64(0.0))
    assert _extract_limit(families["below_the_floor"])[1] == float(8 * _EPS)  # the largest
    assert _extract_limit(families["first_difference_only"])[1] == 1.0  # ratio 0.5
    d = np.diff(families["geometric"])
    assert _extract_limit(families["geometric"])[1] == float(-d[-1]) * 0.25 / 0.75
    d = np.diff(families["slow_geometric"])
    assert _extract_limit(families["slow_geometric"])[1] == float(-d[-1]) * 0.9 / (1 - 0.9)


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


def test_the_powers_of_delta_live_and_die_with_their_constants():
    # delta**-i is kept on the constants object and grown to the longest
    # family asked for; each family and shift check has the bits of one
    # computed on a fresh object, whose table is exactly its own length
    p = dataclasses.replace(PP)
    d = derive_constants(p)
    for n_pairs in (1000, 12, 2000):
        h = generate_hitting_sequence(SEED, p, n_pairs)
        fresh = derive_constants(dataclasses.replace(p))
        assert same_bits(adjusted_sequence(h, d).T0_family,
                         adjusted_sequence(h, fresh).T0_family)
    for N in (0, 7, 1500):
        fresh = derive_constants(dataclasses.replace(p))
        assert same_bits(np.float64(shift_invariance_check(h, d, N)),
                         np.float64(shift_invariance_check(h, fresh, N)))
    table = vars(d)["_inverse_powers_table"]
    assert len(table) == 2000 and not table.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        table[0] = 2.0
    # the table is no field: equality, hashing and repr see the eight alone
    bare = dataclasses.replace(d)
    assert "_inverse_powers_table" not in vars(bare)
    assert d == bare and hash(d) == hash(bare) and repr(d) == repr(bare)
    assert "_inverse_powers_table" not in {f.name for f in dataclasses.fields(d)}
    # and it goes with the object
    gone = weakref.ref(table)
    del p, d, table, h
    gc.collect()
    assert gone() is None


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
    with pytest.raises(InsufficientData, match="^need at least one adjusted loop, got n=0$"):
        adjusted_sequence(generate_hitting_sequence(SEED, P, 2), P, 0)


def test_a_grid_past_the_long_double_range_is_refused():
    # with delta = 4 the durations pass the long-double range at loop 8191
    h = generate_hitting_sequence(SEED, P, 3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for n in (10000, 10**6):
            with pytest.raises(InvalidTimes, match=rf"adjusted loop 8191 is not finite: .* n={n}$"):
                adjusted_sequence(h, D, n)
        assert np.isfinite(adjusted_sequence(h, D, 8191).t_even[-1])


def _longhand_forward(T0, T, d, n: int):
    """``T_seq`` from ``T0`` and the offset grids, the recursion and sums one scalar at a time.

    Also the first loop whose end time ``t_even[k+1]`` or odd time
    ``t_odd[k]`` is not finite, or ``None``.
    """
    x, T_seq = T0, [T0]
    for _ in range(1, max(n, len(T))):
        x = d.delta * x - d.invariants.tau_log_a
        T_seq.append(x)
    offset = np.add.reduce(T - np.array(T_seq[: len(T)], dtype=LD))
    t_even, t_odd, first = [LD(0.0) + offset], [], None
    t = LD(0.0)  # zero-anchored
    for k in range(n):
        nxt = t + T_seq[k]
        t_odd.append((nxt + d.gamma1 * t) / (LD(1.0) + d.gamma1) + offset)
        t_even.append(nxt + offset)
        t = nxt
        if first is None and not np.isfinite([t_even[-1], t_odd[-1]]).all():
            first = k
    return T_seq[:n], t_even, t_odd, first


# delta - 1 = 1e-6: tau*ln(a) is never absorbed into delta*T, so every loop
# is a scalar step, and the recursion stays finite for about 1e10 loops
_NEAR_ONE = dataclasses.replace(P, C1=P.E1 * (1 + 5e-7), C2=P.E2 * (1 + 5e-7))
_FORWARD = {
    "idealized": (SEED, P, 12),
    "perturbed": (SEED, PP, 12),
    "idealized_200": (SEED, P, 200),
    "perturbed_200": (SEED, PP, 200),
    # delta 1.91, 6.78, 2.27 and 8.12, in the drawn range 1.44 to 9
    "drawn_idealized_200": (*draw_orbit(np.random.default_rng(25), perturbed=False), 200),
    "drawn_idealized_200_steep": (*draw_orbit(np.random.default_rng(4), perturbed=False), 200),
    "drawn_perturbed_200": (*draw_orbit(np.random.default_rng(12), perturbed=True), 200),
    "drawn_perturbed_200_steep": (*draw_orbit(np.random.default_rng(9), perturbed=True), 200),
    "near_one_200": (SEED, _NEAR_ONE, 200),
}


@pytest.mark.parametrize("seed, params, n_pairs", _FORWARD.values(), ids=_FORWARD.keys())
def test_the_forward_recursion_matches_longhand_bitwise(seed, params, n_pairs):
    # n inside, at and past the measured loops, and up to the first loop the
    # recursion carries out of the long-double range, which is refused; away
    # from delta = 1, delta*T absorbs tau*ln(a) from a loop between 22 and
    # 66 here, so those durations reach the accumulate
    h, d = generate_hitting_sequence(seed, params, n_pairs), derive_constants(params)
    T = h.sojourns_V1[: h.n_pairs] + h.sojourns_V2
    T0 = adjusted_sequence(h, d).T0
    with np.errstate(over="ignore", invalid="ignore"):
        *_, first = _longhand_forward(T0, T, d, 40000)
    assert (first is None) == (params is _NEAR_ONE)
    last = 40000 if first is None else first
    assert last > n_pairs
    for n in (1, len(T) - 1, len(T), len(T) + 1, last):
        got = adjusted_sequence(h, d, n)
        T_seq, t_even, t_odd, _ = _longhand_forward(T0, T, d, n)
        assert same_bits(got.T_seq, np.array(T_seq, dtype=LD))
        assert same_bits(got.t_even, np.array(t_even, dtype=LD))
        assert same_bits(got.t_odd, np.array(t_odd, dtype=LD))
    if first is None:
        return
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        message = (f"adjusted loop {first} is not finite: the exact recursion leaves the "
                   f"long-double range before n={first + 1}")
        with pytest.raises(InvalidTimes, match=f"^{re.escape(message)}$"):
            adjusted_sequence(h, d, first + 1)


def test_the_absorption_bound_is_where_the_constant_rounds_away():
    # just above 2**64 the product's ulp is 2, so c = 1 is half an ulp and
    # still rounds some sums up (ties to even): a bound of 2**64 would take
    # these iterates to the accumulate and lose those roundings
    x, c, f = LD(2.0) ** 64 + LD(2.0), LD(1.0), LD(1.0 + 2.0**-40)
    want = [x]
    for _ in range(39):
        want.append(c + f * want[-1])
    assert same_bits(_affine_iterates(x, c, (f,), 40), np.array(want, dtype=LD))


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
