#!/usr/bin/env python3
"""Solve one traveling wave and certify it.

Walks the solver from the linear regime up to a target steepness, prints
the converged wave parameters, samples the reconstructed flow at a few
depths, and then runs the full verification battery against the solution.
"""

import numpy as np

from stokespressure import WaveConfig, continue_family, verify_all
from stokespressure.hodograph_fields import field_sample
from stokespressure.wave_model import StripPoint, crest_indicator, steepness, tail_ratio

TARGET_S = 0.08
CFG = WaveConfig(mode_count=128)


def main():
    print(f"solving a wave of steepness {TARGET_S} "
          f"({CFG.mode_count} Fourier modes, wavelength 2*pi, g = 1)\n")

    fam = continue_family(0.02, TARGET_S, CFG)
    sol = fam.members[-1].solution

    print(f"  wave speed        c = {sol.c:.12f}")
    print(f"  Bernoulli const   E = {sol.E:.12f}")
    print(f"  steepness         s = {steepness(sol):.12f}")
    print(f"  crest indicator   K = {crest_indicator(sol):.6f}  "
          f"(1 = flat stream, 0 = stagnant crest)")
    print(f"  spectral tail       = {tail_ratio(sol):.2e}  "
          f"(|a_N| / max |a_k|)")
    print(f"  continuation took {len(fam.members)} steps, "
          f"{sum(m.newton_iters for m in fam.members)} Newton iterations\n")

    print("flow beneath the crest (q = 0) and under the shoulder:")
    print(f"  {'q':>7} {'p':>7} {'y':>10} {'u':>10} {'v':>10} {'P':>10}")
    for q, p in [(0.0, -0.05), (0.0, -0.5), (0.0, -2.0),
                 (1.2, -0.05), (1.2, -0.5), (1.2, -2.0)]:
        s = field_sample(sol, StripPoint(q, p))
        print(f"  {q:7.2f} {p:7.2f} {s.y:10.5f} {s.u:10.6f} "
              f"{s.v:10.6f} {s.P:10.6f}")

    print("\nrunning the certification battery...")
    report = verify_all(sol, CFG)
    width = max(len(c.name) for c in report.checks)
    for c in report.checks:
        flag = "ok " if c.passed else "FAIL"
        print(f"  [{flag}] {c.name:<{width}}  margin {c.worst_margin:+.3e}  "
              f"({c.samples_checked} samples)")
    print(f"\n{'all checks passed' if report.passed else 'CHECKS FAILED'} "
          f"({sum(c.passed for c in report.checks)}/{len(report.checks)})")


if __name__ == "__main__":
    main()
