"""Every acceptance criterion at its stated tolerance, one line each.

The heavy lifting lives in :mod:`bykov.acceptance`; each test here runs
one numbered criterion, prints its PASS/FAIL line, and asserts it.  The
suite is computed once per module.  The tests after them pin the RK4 ODE
oracle of criterion 1: to the closed form, to SciPy's DOP853 where SciPy
is installed, and to its refusals; and they run ``verify-all`` in a
process that cannot import SciPy.
"""

from __future__ import annotations

import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from bykov.acceptance import (
    CANONICAL_PARAMS,
    PERTURBED_PARAMS,
    ideal_closed_form_times,
    ode_hitting_times,
    run_all,
)

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture(scope="module")
def results():
    table = {r.number: r for r in run_all()}
    for number in sorted(table):
        print(table[number].line())
    return table


def _check(results, number):
    res = results[number]
    print(res.line())
    assert res.passed, res.line()


def test_criterion_1_hitting_times_vs_closed_form_and_ode(results):
    _check(results, 1)


def test_criterion_2_idealized_time_identities(results):
    _check(results, 2)


def test_criterion_3_perturbed_identities_decay_and_summability(results):
    _check(results, 3)


def test_criterion_4_ratio_diagnostics_reach_invariants(results):
    _check(results, 4)


def test_criterion_5_two_limit_birkhoff_certificate(results):
    _check(results, 5)


def test_criterion_6_adjusted_times_and_identities(results):
    _check(results, 6)


def test_criterion_7_conjugacy_replay_and_negative_control(results):
    _check(results, 7)


def test_criterion_8_long_iteration_stays_stable(results):
    _check(results, 8)


def test_extra_invariant_estimation_from_times_alone(results):
    _check(results, 0)


def dop853_hitting_times(p, theta0, z0, n_pairs):
    """The ODE oracle as SciPy's adaptive DOP853 with terminal events.

    The reference the RK4 oracle is pinned to.  Its ``atol=1e-14`` is
    above the ``Out1`` radius after two loops, so it is accurate up to two
    loops only.
    """
    solve_ivp = pytest.importorskip("scipy.integrate").solve_ivp
    C1, E1, w1 = float(p.C1), float(p.E1), float(p.omega1)
    C2, E2, w2 = float(p.C2), float(p.E2), float(p.omega2)
    a = float(p.a)

    def v1(t, y):
        return [-C1 * y[0], w1, E1 * y[2]]

    def v2(t, y):
        return [E2 * y[0], w2, -C2 * y[2]]

    def hit_lid(t, y):
        return y[2] - 1.0

    def hit_wall(t, y):
        return y[0] - 1.0

    hit_lid.terminal = True
    hit_lid.direction = 1.0
    hit_wall.terminal = True
    hit_wall.direction = 1.0

    theta, z = theta0, z0
    t_abs = 0.0
    times = [0.0]
    for _ in range(n_pairs):
        theta, z = theta / a, a * z
        span = 1.5 * (-np.log(z) / E1) + 1.0
        sol = solve_ivp(
            v1, (0.0, span), [1.0, theta, z], events=hit_lid,
            method="DOP853", rtol=1e-12, atol=1e-14,
        )
        (te,), (ye,) = sol.t_events, sol.y_events
        t_abs += te[0]
        times.append(t_abs)
        rho, theta = ye[0][0], ye[0][1]
        span = 1.5 * (-np.log(rho) / E2) + 1.0
        sol = solve_ivp(
            v2, (0.0, span), [rho, theta, 1.0], events=hit_wall,
            method="DOP853", rtol=1e-12, atol=1e-14,
        )
        (te,), (ye,) = sol.t_events, sol.y_events
        t_abs += te[0]
        times.append(t_abs)
        theta, z = ye[0][1], ye[0][2]
    return np.array(times)


def test_ode_oracle_agrees_with_dop853_on_criterion_1_input():
    rk4 = ode_hitting_times(CANONICAL_PARAMS, 1.0, 0.1, 2)
    dop = dop853_hitting_times(CANONICAL_PARAMS, 1.0, 0.1, 2)
    assert rk4.shape == dop.shape == (5,)
    assert np.max(np.abs(rk4 - dop)) < 1e-8


def test_ode_oracle_stays_on_the_closed_form_past_two_loops():
    # the Out1 radius falls to about e^-103 on the third loop, far below
    # any absolute tolerance an adaptive scheme would be run with
    n = 3
    ode = ode_hitting_times(CANONICAL_PARAMS, 1.0, 0.1, n)
    closed = ideal_closed_form_times(CANONICAL_PARAMS, 0.1, n)[: 2 * n + 1].astype(float)
    assert ode.shape == (2 * n + 1,) and ode[0] == 0.0
    assert np.max(np.abs(ode[1:] - closed[1:]) / closed[1:]) < 1e-8


@pytest.mark.parametrize("z0", [5e-324, 0.0, -0.1, float("nan"), float("inf"), 3.0])
def test_ode_oracle_refuses_an_entry_off_the_unit_interval(z0):
    # a * 5e-324 rounds to 0.0: the first leg has no finite duration
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="entry coordinate"):
            ode_hitting_times(CANONICAL_PARAMS, 1.0, z0, 1)


def test_ode_oracle_refuses_a_perturbed_set():
    with pytest.raises(ValueError, match="idealized"):
        ode_hitting_times(PERTURBED_PARAMS, 1.0, 0.1, 1)


def test_verify_all_passes_where_scipy_cannot_be_imported():
    code = (
        "import sys; sys.modules['scipy'] = None\n"
        "from bykov.cli import main\n"
        "sys.exit(main(['verify-all']))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1] == "9/9 checks passed"
