"""Exact hitting times of the two sections, and how fast they grow.

A trajectory seeded just off the cycle alternates between the two
cylinders, and each loop takes roughly ``delta`` times longer than the
one before.  This script prints the full crossing table for a handful of
loops plus the loop-duration ratios that make the geometric slowdown
visible.
"""

from __future__ import annotations

import numpy as np

from bykov import SectionPoint, SystemParams, generate_hitting_sequence, sojourn_fractions

params = SystemParams(C1=2, E1=1, omega1=1, C2=3, E2=1.5, omega2=2, a=0.5)
seed = SectionPoint(chart="Out2", theta_lifted=1.0, log_coord=float(np.log(0.1)))


def main() -> None:
    h = generate_hitting_sequence(seed, params, n_pairs=6)

    print(f"{'k':>3} {'time':>18} {'chart':>6} {'log coord':>14}")
    for k, (t, log_coord) in enumerate(zip(h.times, h.log_coord)):
        chart = "Out1" if k % 2 else "Out2"
        print(f"{k:>3} {float(t):>18.9f} {chart:>6} {float(log_coord):>14.6f}")

    T = h.sojourns_V1[: h.n_pairs] + h.sojourns_V2
    print("\nloop durations and their ratios:")
    for i, dur in enumerate(T):
        ratio = f"{float(T[i] / T[i - 1]):.9f}" if i else "     --"
        print(f"  T_{i} = {float(dur):>16.6f}   T_i/T_(i-1) = {ratio}")
    print("\nthe ratio settles at delta = (C1*C2)/(E1*E2) =",
          params.C1 * params.C2 / (params.E1 * params.E2))

    f1, f2 = sojourn_fractions(h, 2 * h.n_pairs)
    print(f"\ntime share: {float(f1):.6f} in V1, {float(f2):.6f} in V2"
          "  (limits 3/7 and 4/7)")


if __name__ == "__main__":
    main()
