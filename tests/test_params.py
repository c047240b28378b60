"""Parameter validation, derived constants, and invariant-matched systems."""

from __future__ import annotations

import math

import numpy as np
import pytest

from bykov import (
    ConstraintViolation,
    Observable,
    PerturbationSpec,
    SectionPoint,
    SystemParams,
    adjusted_sequence,
    birkhoff_average,
    derive_constants,
    generate_hitting_sequence,
    invariant_tuple,
    matching_params,
    poincare,
    shift_invariance_check,
    sojourn_fractions,
    validate_params,
    verify_conjugacy,
)
import bykov.flow
from bykov._num import LD
from bykov.acceptance import MATCHED_PARAMS, SEED

CANONICAL = SystemParams(C1=2, E1=1, omega1=1, C2=3, E2=1.5, omega2=2, a=0.5)


def test_derived_constants_canonical():
    d = derive_constants(CANONICAL)
    np.testing.assert_allclose(float(d.gamma1), 4 / 3, rtol=1e-18)
    np.testing.assert_allclose(float(d.gamma2), 3.0, rtol=1e-18)
    np.testing.assert_allclose(float(d.delta1), 2.0, rtol=1e-18)
    np.testing.assert_allclose(float(d.delta2), 2.0, rtol=1e-18)
    np.testing.assert_allclose(float(d.delta), 4.0, rtol=1e-18)
    np.testing.assert_allclose(float(d.K), 11 / 3, rtol=1e-15)
    np.testing.assert_allclose(float(d.tau), 7 / 3, rtol=1e-15)
    np.testing.assert_allclose(
        float(d.invariants.tau_log_a), -1.6173434213065390553, rtol=1e-15
    )
    # nonzero and finite, so equal long doubles are equal bit for bit
    assert d.log_a == np.log(LD(0.5))
    assert d.invariants.tau_log_a == d.tau * d.log_a


def test_invariant_tuple_components():
    inv = invariant_tuple(CANONICAL)
    d = derive_constants(CANONICAL)
    np.testing.assert_array_equal(inv.as_array(), d.invariants.as_array())
    np.testing.assert_allclose(float(inv.omega_combo), 1 + (4 / 3) * 2, rtol=1e-15)


def test_symmetric_parameters():
    """With both cylinders identical every saddle index collapses to 2."""
    p = SystemParams(C1=2, E1=1, omega1=1, C2=2, E2=1, omega2=1, a=0.3)
    d = derive_constants(p)
    for val in (d.gamma1, d.gamma2, d.delta1, d.delta2):
        assert float(val) == 2.0
    assert float(d.delta) == 4.0


def test_weak_reinjection_offset():
    # a close to 1 makes the timing offset nearly vanish but stay negative
    p = SystemParams(C1=2, E1=1, omega1=1, C2=3, E2=1.5, omega2=2, a=0.999)
    inv = invariant_tuple(p)
    np.testing.assert_allclose(float(inv.tau_log_a), (7 / 3) * math.log(0.999), rtol=1e-15)
    np.testing.assert_allclose(float(inv.tau_log_a), -0.002334, atol=1e-6)


def test_validate_returns_the_params():
    assert validate_params(CANONICAL) is CANONICAL


def test_validate_rejects_each_inequality():
    bad = [
        dict(C1=1, E1=2),          # contraction must dominate in V1
        dict(C2=1, E2=2),          # and in V2
        dict(E1=0),                # rates strictly positive
        dict(omega1=-1),
        dict(omega2=0),
        dict(a=0.0),
        dict(a=1.0),
        dict(a=1.2),
    ]
    base = dict(C1=2, E1=1, omega1=1, C2=3, E2=1.5, omega2=2, a=0.5)
    for override in bad:
        with pytest.raises(ConstraintViolation):
            validate_params(SystemParams(**{**base, **override}))


def test_validate_collects_all_problems_at_once():
    p = SystemParams(C1=0.5, E1=1, omega1=1, C2=3, E2=1.5, omega2=2, a=1.2)
    with pytest.raises(ConstraintViolation) as err:
        validate_params(p)
    msg = str(err.value)
    assert "C1" in msg and "a" in msg


def test_validate_perturbation_fields():
    base = dict(C1=2, E1=1, omega1=1, C2=3, E2=1.5, omega2=2, a=0.5)
    with pytest.raises(ConstraintViolation, match="eps"):
        validate_params(SystemParams(**base, perturbation=PerturbationSpec(0.1, 0.1, 1.5)))
    with pytest.raises(ConstraintViolation, match="c1"):
        validate_params(SystemParams(**base, perturbation=PerturbationSpec(-0.1, 0.1, 0.5)))
    # zero strengths are the idealized model and are fine
    validate_params(SystemParams(**base, perturbation=PerturbationSpec(0.0, 0.0, 0.5)))


def test_rate_scaling_covariance():
    """Uniform time reparameterization: angles per unit height are kept."""
    rng = np.random.default_rng(20260819)
    for _ in range(20):
        lam = float(rng.uniform(0.2, 5.0))
        p = _random_valid_params(rng)
        q = SystemParams(
            C1=p.C1 * lam, E1=p.E1 * lam, omega1=p.omega1 * lam,
            C2=p.C2 * lam, E2=p.E2 * lam, omega2=p.omega2 * lam, a=p.a,
        )
        dp, dq = derive_constants(p), derive_constants(q)
        np.testing.assert_allclose(float(dq.gamma1), float(dp.gamma1), rtol=1e-15)
        np.testing.assert_allclose(float(dq.gamma2), float(dp.gamma2), rtol=1e-15)
        np.testing.assert_allclose(float(dq.K), float(dp.K), rtol=1e-14)
        np.testing.assert_allclose(
            float(dq.invariants.tau_log_a), float(dp.invariants.tau_log_a) / lam, rtol=1e-14
        )


def _random_valid_params(rng: np.random.Generator) -> SystemParams:
    E1 = float(rng.uniform(0.5, 2.0))
    E2 = float(rng.uniform(0.5, 2.0))
    return SystemParams(
        C1=E1 * float(rng.uniform(1.1, 3.0)),
        E1=E1,
        omega1=float(rng.uniform(0.3, 3.0)),
        C2=E2 * float(rng.uniform(1.1, 3.0)),
        E2=E2,
        omega2=float(rng.uniform(0.3, 3.0)),
        a=float(rng.uniform(0.05, 0.95)),
    )


def test_matching_params_canonical():
    g = matching_params(CANONICAL, E1_bar=2.0, E2_bar=3.0, omega2_bar=1.0)
    assert (g.C1, g.E1, g.C2, g.E2, g.omega2) == (4.0, 2.0, 6.0, 3.0, 1.0)
    np.testing.assert_allclose(g.omega1, 7 / 3, rtol=1e-15)
    np.testing.assert_allclose(g.a, 0.25, rtol=1e-15)
    assert g.perturbation is None


def test_matching_params_shares_invariants_randomized():
    rng = np.random.default_rng(7)
    for _ in range(50):
        p = _random_valid_params(rng)
        inv = invariant_tuple(p)
        # the free rates must keep both matched saddle indices > 1:
        # 1/gamma1 < E2_bar/E1_bar < gamma2, and the free twist small
        # enough that omega1_bar stays positive
        g1, g2 = float(inv.gamma1), float(inv.gamma2)
        E1_bar = float(rng.uniform(0.5, 2.5))
        ratio = np.exp(rng.uniform(np.log(1 / g1) + 0.05, np.log(g2) - 0.05))
        w2_cap = float(inv.omega_combo) / g1
        g = matching_params(
            p,
            E1_bar=E1_bar,
            E2_bar=E1_bar * float(ratio),
            omega2_bar=float(rng.uniform(0.05, 0.9)) * w2_cap,
        )
        gap = np.abs(invariant_tuple(g).as_array() - inv.as_array())
        assert gap.max() < 1e-12


def test_matching_params_rejects_out_of_domain_rates():
    # E2_bar/E1_bar above gamma2 would need C2_bar <= E2_bar
    with pytest.raises(ConstraintViolation, match="C2"):
        matching_params(CANONICAL, E1_bar=1.0, E2_bar=4.0, omega2_bar=0.5)


def test_matching_params_rejects_overspent_twist():
    with pytest.raises(ConstraintViolation, match="omega1"):
        matching_params(CANONICAL, E1_bar=1.0, E2_bar=1.0, omega2_bar=50.0)


def test_matching_params_drops_perturbation():
    p = SystemParams(
        C1=2, E1=1, omega1=1, C2=3, E2=1.5, omega2=2, a=0.5,
        perturbation=PerturbationSpec(0.1, 0.1, 0.5),
    )
    g = matching_params(p, E1_bar=2.0, E2_bar=3.0, omega2_bar=1.0)
    assert g.perturbation is None


def test_derived_constants_are_memoized_per_parameter_set():
    info = derive_constants.cache_info
    assert info().maxsize is not None
    assert bykov.flow._leg_constants.cache_info().maxsize is not None
    derive_constants.cache_clear()
    twin = SystemParams(C1=2.0, E1=1.0, omega1=1.0, C2=3.0, E2=1.5, omega2=2.0, a=0.5)
    assert derive_constants(twin) is derive_constants(CANONICAL)
    assert info().currsize == 1
    bad = SystemParams(C1=0.5, E1=1, omega1=1, C2=3, E2=1.5, omega2=2, a=0.5)
    rates = bykov.flow._leg_constants.cache_info().currsize
    q = SectionPoint(chart="In1", theta_lifted=0.0, log_coord=-1.0)
    for _ in range(2):
        with pytest.raises(ConstraintViolation, match="C1 must exceed E1"):
            derive_constants(bad)
        with pytest.raises(ConstraintViolation, match="C1 must exceed E1"):
            poincare(q, bad)
    assert info().currsize == 1
    assert bykov.flow._leg_constants.cache_info().currsize == rates


@pytest.mark.parametrize("field", ["C1", "C2", "omega1", "omega2", "c1", "c2"])
def test_validate_rejects_infinite_rates(field):
    base = dict(C1=2, E1=1, omega1=1, C2=3, E2=1.5, omega2=2, a=0.5)
    pert = dict(c1=0.1, c2=0.1, eps=0.5)
    (pert if field in pert else base)[field] = math.inf
    p = SystemParams(**base, perturbation=PerturbationSpec(**pert))
    # an infinite rate passes every ordering check; unchecked it gives
    # gamma1 = inf, or a misleading "radius correction" error in the generator
    message = rf"^(perturbation\.)?{field} must be finite, got inf$"
    for check in (validate_params, invariant_tuple):
        with pytest.raises(ConstraintViolation, match=message):
            check(p)


H8 = generate_hitting_sequence(SEED, CANONICAL, 8)


@pytest.mark.parametrize(
    "name, value, call",
    [
        ("n_pairs", 2.0, lambda v: generate_hitting_sequence(SEED, CANONICAL, v)),
        ("upto_index", 4.0, lambda v: birkhoff_average(
            SEED, CANONICAL, Observable("piecewise_constant", 0.0, 1.0), v)),
        ("n", 2.5, lambda v: adjusted_sequence(H8, derive_constants(CANONICAL), v)),
        ("N", 1.5, lambda v: shift_invariance_check(H8, derive_constants(CANONICAL), v)),
        ("upto_index", 2.0, lambda v: sojourn_fractions(H8, v)),
        ("n_pairs", 12.0, lambda v: verify_conjugacy(SEED, CANONICAL, MATCHED_PARAMS, n_pairs=v)),
    ],
    ids=["generate_hitting_sequence", "birkhoff_average", "adjusted_sequence",
         "shift_invariance_check", "sojourn_fractions", "verify_conjugacy"],
)
def test_non_integral_counts_are_refused(name, value, call):
    # a float count used to end in numpy's bare TypeError from np.empty or a slice
    for bad in (value, np.float64(value), "3"):
        with pytest.raises(ConstraintViolation, match=rf"^{name} must be an integer, got "):
            call(bad)
    # Python and NumPy integers are counts
    for good in (2, np.int64(2), np.uint8(2)):
        call(good)
