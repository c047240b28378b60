"""Building a conjugacy between two systems from times alone - and
watching it fail when one invariant is off.

Two idealized systems whose invariant 4-tuples agree are topologically
conjugate on the cycle's attracting set.  The construction is entirely
concrete: read the adjusted times of the first system, solve for the
seed of the second whose crossings land on the same schedule, and replay.
A mismatched fourth parameter breaks the replay at a geometric rate.
"""

from __future__ import annotations

import numpy as np

from bykov import (
    SectionPoint,
    SystemParams,
    matching_params,
    verify_conjugacy,
)

params = SystemParams(C1=2, E1=1, omega1=1, C2=3, E2=1.5, omega2=2, a=0.5)
seed = SectionPoint(chart="Out2", theta_lifted=1.0, log_coord=float(np.log(0.1)))


def main() -> None:
    partner = matching_params(params, E1_bar=2.0, E2_bar=3.0, omega2_bar=1.0)
    print("partner system with the same invariants:")
    print(f"  C1={partner.C1}, E1={partner.E1}, omega1={partner.omega1:.6f}, "
          f"C2={partner.C2}, E2={partner.E2}, omega2={partner.omega2}, a={partner.a}")
    inv_p = params.invariants.as_array()
    inv_g = partner.invariants.as_array()
    print(f"  invariant gap: {np.abs(inv_p - inv_g).max():.2e}\n")

    report = verify_conjugacy(seed, params, partner, n_pairs=10)
    image = report.image_point
    print(f"image of the seed under the conjugacy: "
          f"z0 = {float(np.exp(image.z0_log)):.6g}, "
          f"theta0 = {float(image.theta0_reduced):.6f}")

    print(f"replaying on the partner reproduces the schedule: "
          f"verdict {report.verdict}, max deviation {report.max_dev:.2e}\n")

    spoiled = SystemParams(
        C1=partner.C1, E1=partner.E1, omega1=partner.omega1,
        C2=6.6, E2=partner.E2, omega2=partner.omega2, a=partner.a,
    )
    broken = verify_conjugacy(seed, params, spoiled, n_pairs=6, strict=False)
    print("same replay with C2_bar spoiled to 6.6 (gamma2_bar = 3.3):")
    print(f"  verdict {broken.verdict}; crossing deviations grow like delta^i:")
    for k in range(1, 9):
        print(f"    crossing {k}: {float(abs(broken.time_deviations[k])):>12.6f}")


if __name__ == "__main__":
    main()
