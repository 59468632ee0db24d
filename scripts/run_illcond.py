#!/usr/bin/env python3
"""Plain vs eigenbasis refinement on rotated ill-conditioned 2x2 systems.

Builds A = R(theta) diag(1, 1/kappa) R(theta)^T with b = A.(1,1) for each
angle, so the residual contours are long ellipses tilted against the
coordinate axes. Plain refinement zigzags along the valley floor (and can
exhaust its per-level recenter budget); eigenbasis refinement walks the
same valley in axis-aligned steps.

  python scripts/run_illcond.py
  python scripts/run_illcond.py --kappa 500 --angles 15 30 45 --l-min -30
"""

import argparse
import math
import sys
import time
from dataclasses import replace

from qrefine import (
    LinearSystem,
    RefinementConfig,
    condition_number,
    refine,
)


def rotated_system(kappa: float, theta_deg: float) -> LinearSystem:
    th = math.radians(theta_deg)
    c, s = math.cos(th), math.sin(th)
    rot = [[c, -s], [s, c]]
    d = [1.0, 1.0 / kappa]
    a = [
        [math.fsum(rot[i][m] * d[m] * rot[j][m] for m in range(2)) for j in range(2)]
        for i in range(2)
    ]
    b = [math.fsum(a[i]) for i in range(2)]
    return LinearSystem(a=a, b=b)


def accepted_moves(trace) -> int:
    return sum(1 for r in trace.records if any(r.bits))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--kappa", type=float, default=129.44)
    ap.add_argument("--angles", type=float, nargs="+", default=[10.0, 30.0, 44.0, 71.5])
    ap.add_argument("--m-max", type=int, default=2)
    ap.add_argument("--l-min", type=int, default=-40)
    ap.add_argument("--max-recenters", type=int, default=1000)
    args = ap.parse_args()

    truth = (1.0, 1.0)
    config = RefinementConfig(
        m_max=args.m_max,
        l_min=args.l_min,
        max_recenters_per_level=args.max_recenters,
    )

    print(
        f"{'theta':>6}  {'cond':>10}  {'plain moves':>11}  {'eigen moves':>11}  "
        f"{'plain err':>10}  {'eigen err':>10}  {'ratio':>6}  ends"
    )
    t0 = time.perf_counter()
    for theta in args.angles:
        system = rotated_system(args.kappa, theta)
        cond = condition_number(system)
        plain = refine(system, config, truth=truth)
        eigen = refine(system, replace(config, use_eigenbasis=True), truth=truth)
        pm, em = accepted_moves(plain), accepted_moves(eigen)
        perr = max(abs(v - t) for v, t in zip(plain.final_center.to_floats(), truth))
        eerr = max(abs(v - t) for v, t in zip(eigen.final_center.to_floats(), truth))
        ratio = pm / em if em else float("inf")
        print(
            f"{theta:>6.1f}  {cond:>10.4f}  {pm:>11}  {em:>11}  "
            f"{perr:>10.2e}  {eerr:>10.2e}  {ratio:>6.1f}  "
            f"{plain.terminated_by}/{eigen.terminated_by}"
        )
    print(f"\nwall_time = {time.perf_counter() - t0:.3f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
