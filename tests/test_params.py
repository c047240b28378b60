"""Parameter validation, derived constants, and invariant-matched systems."""

from __future__ import annotations

import copy
import dataclasses
import gc
import math
import pickle
import sys
import threading
import warnings
import weakref
from concurrent.futures import ThreadPoolExecutor

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
    corollary_ratios,
    derive_constants,
    generate_hitting_sequence,
    invariant_tuple,
    lemma_diagnostics,
    matching_params,
    poincare,
    psi21,
    shift_invariance_check,
    sojourn_fractions,
    validate_params,
    verify_conjugacy,
)
from bykov.acceptance import MATCHED_PARAMS
from reference import LD, P, PP, SEED, same_bits, spy_derivations


def test_derived_constants_canonical():
    d = derive_constants(P)
    np.testing.assert_allclose(float(d.gamma1), 4 / 3, rtol=1e-18)
    np.testing.assert_allclose(float(d.gamma2), 3.0, rtol=1e-18)
    np.testing.assert_allclose(float(d.delta1), 2.0, rtol=1e-18)
    np.testing.assert_allclose(float(d.delta2), 2.0, rtol=1e-18)
    np.testing.assert_allclose(float(d.delta), 4.0, rtol=1e-18)
    np.testing.assert_allclose(float(d.invariants.omega_combo / LD(P.E1)), 11 / 3, rtol=1e-15)
    np.testing.assert_allclose(float(d.tau), 7 / 3, rtol=1e-15)
    np.testing.assert_allclose(
        float(d.invariants.tau_log_a), -1.6173434213065390553, rtol=1e-15
    )
    # nonzero and finite, so equal long doubles are equal bit for bit
    assert d.log_a == np.log(LD(0.5))
    assert d.invariants.tau_log_a == d.tau * d.log_a


def test_invariant_tuple_components():
    inv = invariant_tuple(P)
    d = derive_constants(P)
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
    p = dataclasses.replace(P, a=0.999)
    inv = invariant_tuple(p)
    np.testing.assert_allclose(float(inv.tau_log_a), (7 / 3) * math.log(0.999), rtol=1e-15)
    np.testing.assert_allclose(float(inv.tau_log_a), -0.002334, atol=1e-6)


def test_validate_returns_the_params():
    assert validate_params(P) is P


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
        dict(a="0.5"),             # every field a real number
        dict(E1=None),
        dict(C2=True),             # a bool is no number
        dict(omega2=np.bool_(True)),
    ]
    for override in bad:
        with pytest.raises(ConstraintViolation):
            validate_params(dataclasses.replace(P, **override))


def test_validate_collects_all_problems_at_once():
    p = dataclasses.replace(P, C1=0.5, a=1.2)
    with pytest.raises(ConstraintViolation) as err:
        validate_params(p)
    msg = str(err.value)
    assert "C1" in msg and "a" in msg
    # every field that is not a real number is named in one message, before any is compared
    with pytest.raises(ConstraintViolation) as err:
        validate_params(dataclasses.replace(P, C1=0.5, a="0.5", omega1=None))
    assert str(err.value) == (
        "omega1 must be a real number, got None; a must be a real number, got '0.5'")
    # ints, NumPy numbers and long doubles are numbers
    exotic = SystemParams(C1=2, E1=np.int64(1), omega1=LD(1), C2=np.float32(3), E2=1.5,
                          omega2=np.float64(2), a=0.5)
    assert validate_params(exotic) is exotic


def test_validate_perturbation_fields():
    with pytest.raises(ConstraintViolation, match="eps"):
        validate_params(dataclasses.replace(P, perturbation=PerturbationSpec(0.1, 0.1, 1.5)))
    with pytest.raises(ConstraintViolation, match="c1"):
        validate_params(dataclasses.replace(P, perturbation=PerturbationSpec(-0.1, 0.1, 0.5)))
    for spec, name in ((PerturbationSpec(True, 0.1, 0.5), "c1"),
                       (PerturbationSpec(0.1, "0.1", 0.5), "c2"),
                       (PerturbationSpec(0.1, 0.1, None), "eps")):
        with pytest.raises(ConstraintViolation,
                           match=rf"^perturbation\.{name} must be a real number, got \S+$"):
            validate_params(dataclasses.replace(P, perturbation=spec))
    # zero strengths are the idealized model and are fine
    validate_params(dataclasses.replace(P, perturbation=PerturbationSpec(0.0, 0.0, 0.5)))


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
        np.testing.assert_allclose(
            float(dq.invariants.omega_combo / LD(q.E1)),
            float(dp.invariants.omega_combo / LD(p.E1)), rtol=1e-14,
        )
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
    g = matching_params(P, E1_bar=2.0, E2_bar=3.0, omega2_bar=1.0)
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
        matching_params(P, E1_bar=1.0, E2_bar=4.0, omega2_bar=0.5)


@pytest.mark.parametrize("rates", [(math.inf, 1.0, 1.0), (1.0, math.inf, 1.0),
                                   (1.0, 1.0, math.inf), (0.0, 1.0, 1.0), (1.0, 1.0, math.nan)],
                         ids=["E1_bar=inf", "E2_bar=inf", "omega2_bar=inf", "E1_bar=0",
                              "omega2_bar=nan"])
def test_matching_params_target_rates_must_be_positive_and_finite(rates):
    # an infinite E1_bar used to divide by zero in ln(a_bar) before refusing
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConstraintViolation, match="target rates must be positive and finite"):
            matching_params(P, *rates)


def test_matching_params_rejects_overspent_twist():
    with pytest.raises(ConstraintViolation, match="omega1"):
        matching_params(P, E1_bar=1.0, E2_bar=1.0, omega2_bar=50.0)


def test_matching_params_drops_perturbation():
    g = matching_params(PP, E1_bar=2.0, E2_bar=3.0, omega2_bar=1.0)
    assert g.perturbation is None


def test_derived_constants_are_memoized_per_parameter_set(monkeypatch):
    built = spy_derivations(monkeypatch)
    twin = SystemParams(C1=2.0, E1=1.0, omega1=1.0, C2=3.0, E2=1.5, omega2=2.0, a=0.5)
    assert derive_constants(twin) is derive_constants(twin)
    assert same_bits(_constant_bits(twin), _constant_bits(P))
    assert built == [("_constants", id(twin)), ("_kernel", id(twin))]
    bad = dataclasses.replace(P, C1=0.5)
    q = SectionPoint(chart="In1", theta_lifted=0.0, log_coord=-1.0)
    for _ in range(2):
        with pytest.raises(ConstraintViolation, match="C1 must exceed E1"):
            derive_constants(bad)
        with pytest.raises(ConstraintViolation, match="C1 must exceed E1"):
            poincare(q, bad)
    # an invalid set is validated again on every call, and keeps nothing
    tries = [("_constants", id(bad)), ("_kernel", id(bad)), ("_constants", id(bad))]
    assert built[2:] == tries * 2
    assert "_constants" not in vars(bad) and "_kernel" not in vars(bad)


def _constant_bits(p: SystemParams) -> np.ndarray:
    """Every number ``p`` derives, in one long-double array."""
    d, inv = derive_constants(p), invariant_tuple(p)
    leg1, leg2, a, log_a, reach = p._kernel
    return np.array([d.gamma1, d.gamma2, d.delta1, d.delta2, d.delta, d.tau, d.log_a,
                     inv.gamma1, inv.gamma2, inv.omega_combo, inv.tau_log_a,
                     *leg1, *leg2, a, log_a, *reach], dtype=LD)


def test_the_constants_live_and_die_with_their_object():
    p, twin = dataclasses.replace(PP), dataclasses.replace(PP)
    bits = _constant_bits(p)
    # the constants are no field: equality, hashing and repr see the eight alone
    assert "_kernel" in vars(p) and "_kernel" not in vars(twin)
    assert p == twin and hash(p) == hash(twin) and repr(p) == repr(twin)
    assert len(dataclasses.fields(p)) == 8
    # a replaced set derives its own constants, not those of the original
    moved = dataclasses.replace(p, a=0.25)
    assert "_constants" not in vars(moved) and "_kernel" not in vars(moved)
    assert derive_constants(moved).log_a == np.log(LD(0.25)) and moved._kernel[2] == LD(0.25)
    # a copy is equal and keeps the bits
    copies = [pickle.loads(pickle.dumps(p, protocol))
              for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for got in (*copies, copy.deepcopy(p)):
        assert got == p and hash(got) == hash(p)
        assert same_bits(_constant_bits(got), bits)
    # and the constants go with the object
    gone = weakref.ref(derive_constants(p))
    del p, copies, got
    gc.collect()
    assert gone() is None


_DERIVED = ("gamma1", "gamma2", "delta1", "delta2", "delta", "tau", "log_a")


def _derived_bits(p: SystemParams) -> tuple[np.ndarray, np.ndarray]:
    """The eight constants of ``p`` in one long-double array, and ``delta**-i`` for ``i < 64``."""
    values = [getattr(p, name) for name in _DERIVED] + list(p.invariants.as_array())
    return np.array(values, dtype=LD), p._inverse_powers(64)


def test_threads_that_first_touch_one_object_read_the_same_bits():
    # 4 threads, more than the cores of a small machine, start together on
    # each fresh object, switching every microsecond: each reads what one
    # thread alone reads, whichever derives the constants or grows the powers
    want = _derived_bits(dataclasses.replace(PP))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(4) as pool:
            for _ in range(25):
                p, start = dataclasses.replace(PP), threading.Barrier(4)

                def first_touch(p=p, start=start):
                    start.wait(timeout=10)
                    return _derived_bits(p)

                futures = [pool.submit(first_touch) for _ in range(4)]
                for got in (f.result(timeout=30) for f in futures):
                    assert same_bits(got[0], want[0]) and same_bits(got[1], want[1])
    finally:
        sys.setswitchinterval(interval)


def test_one_analysis_derives_the_constants_once(monkeypatch):
    built = spy_derivations(monkeypatch)
    p = dataclasses.replace(PP, a=0.4)  # a new object, and no orbit of it alive
    h = generate_hitting_sequence(SEED, p, 9)
    poincare(psi21(SEED, p), p)
    lemma_diagnostics(h, derive_constants(p))
    corollary_ratios(h, p)
    assert built == [("_kernel", id(p)), ("_constants", id(p))]


@pytest.mark.parametrize("field", ["C1", "C2", "omega1", "omega2", "c1", "c2"])
def test_validate_rejects_infinite_rates(field):
    base, pert = dataclasses.asdict(PP), dataclasses.asdict(PP.perturbation)
    (pert if field in pert else base)[field] = math.inf
    p = SystemParams(**{**base, "perturbation": PerturbationSpec(**pert)})
    # an infinite rate passes every ordering check; unchecked it gives
    # gamma1 = inf, or a misleading "radius correction" error in the generator
    message = rf"^(perturbation\.)?{field} must be finite, got inf$"
    for check in (validate_params, invariant_tuple):
        with pytest.raises(ConstraintViolation, match=message):
            check(p)


H8 = generate_hitting_sequence(SEED, P, 8)


@pytest.mark.parametrize(
    "name, value, call",
    [
        ("n_pairs", 2.0, lambda v: generate_hitting_sequence(SEED, P, v)),
        ("upto_index", 4.0, lambda v: birkhoff_average(
            SEED, P, Observable("piecewise_constant", 0.0, 1.0), v)),
        ("n", 2.5, lambda v: adjusted_sequence(H8, derive_constants(P), v)),
        ("N", 1.5, lambda v: shift_invariance_check(H8, derive_constants(P), v)),
        ("upto_index", 2.0, lambda v: sojourn_fractions(H8, v)),
        ("n_pairs", 12.0, lambda v: verify_conjugacy(SEED, P, MATCHED_PARAMS, n_pairs=v)),
    ],
    ids=["generate_hitting_sequence", "birkhoff_average", "adjusted_sequence",
         "shift_invariance_check", "sojourn_fractions", "verify_conjugacy"],
)
def test_non_integral_counts_are_refused(name, value, call):
    # a float count used to end in numpy's bare TypeError from np.empty or a
    # slice; a bool passed operator.index, and sojourn_fractions read it as a mask
    for bad in (value, np.float64(value), "3", True):
        with pytest.raises(ConstraintViolation, match=rf"^{name} must be an integer, got "):
            call(bad)
    # Python and NumPy integers are counts
    for good in (2, np.int64(2), np.uint8(2)):
        call(good)
