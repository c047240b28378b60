"""Pulling an exact geometric skeleton out of perturbed crossing times.

Measured loop durations of the perturbed system only satisfy the ideal
recursion T' = delta * T + const up to a decaying residual.  Running the
recursion backward from later and later loops filters the residuals out
and converges to an adjusted duration T~_0; iterating forward again
yields a fully rigid time grid that the measured times approach at the
perturbation's own decay rate.
"""

from __future__ import annotations

import numpy as np

from bykov import (
    PerturbationSpec,
    SectionPoint,
    SystemParams,
    adjusted_sequence,
    generate_hitting_sequence,
    shift_invariance_check,
)

params = SystemParams(
    C1=2, E1=1, omega1=1, C2=3, E2=1.5, omega2=2, a=0.5,
    perturbation=PerturbationSpec(c1=0.1, c2=0.1, eps=0.5),
)
seed = SectionPoint(chart="Out2", theta_lifted=1.0, log_coord=float(np.log(0.1)))


def main() -> None:
    h = generate_hitting_sequence(seed, params, n_pairs=12)
    adj = adjusted_sequence(h, params)

    print("backward family: pulling T_i back i times toward index 0")
    for i, val in enumerate(adj.T0_family[:6]):
        print(f"  from loop {i}:  {float(val):.15f}")
    print(f"adjusted T~_0 = {float(adj.T0):.15f}"
          f"  (remaining tail < {adj.residual_tail_bound:.1e})")

    print("\nmeasured even crossing times vs the adjusted grid:")
    print(f"{'i':>3} {'measured t_2i':>20} {'adjusted':>20} {'difference':>12}")
    for i in range(0, 9):
        t, ta = float(h.times[2 * i]), float(adj.t_even[i])
        print(f"{i:>3} {t:>20.9f} {ta:>20.9f} {t - ta:>12.2e}")

    print(f"\ntotal anchoring offset sum(T_i - T~_i) = {float(adj.offset):+.12f}")
    dev = shift_invariance_check(h, params, 2)
    print(f"re-anchoring at loop 2 moves the grid by {dev:.2e} "
          "(construction is shift invariant)")


if __name__ == "__main__":
    main()
