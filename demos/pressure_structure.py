#!/usr/bin/env python3
"""Look inside the pressure field of a steep wave.

Three structural facts hold everywhere beneath a (non-limiting) wave:

  * moving from the crest line toward the trough line at any fixed depth,
    the pressure strictly falls (P_x < 0 off the lines);
  * moving down at any station, the pressure strictly rises (P_y < 0 in
    our sign convention, i.e. dP/d(depth) > 0), and approaches the
    hydrostatic rate g exponentially fast;
  * the comparison function f = (c - u) v - g x is harmonic, vanishes on
    the crest line, and decreases along the free surface.

This script measures all three on a dense grid and prints the margins.
"""

import math

import numpy as np

from stokespressure import WaveConfig, continue_family
from stokespressure.hodograph_fields import grid_fields, surface

S_TARGET = 0.12
CFG = WaveConfig(mode_count=256)


def main():
    sol = continue_family(0.02, S_TARGET, CFG).members[-1].solution
    c, g = sol.c, sol.gravity

    q = np.linspace(0.0, math.pi * c, 257)   # crest line to trough line
    p = np.linspace(-2.0 * math.pi * c, 0.0, 129)
    gf = grid_fields(sol, q, p)

    interior = np.ones(gf.P_x.shape, dtype=bool)
    interior[:, 0] = interior[:, -1] = False

    print(f"pressure structure at s = {S_TARGET} "
          f"({len(q)}x{len(p)} grid over half a period)\n")
    print(f"  max P_x off the lines   {gf.P_x[interior].max():+.3e}  "
          f"(strictly negative)")
    print(f"  max |P_x| on the lines  {abs(gf.P_x[:, [0, -1]]).max():.3e}  "
          f"(zero by symmetry)")
    print(f"  max P_y anywhere        {gf.P_y.max():+.3e}  "
          f"(pressure rises with depth)")

    print("\nhow fast the vertical gradient becomes hydrostatic:")
    for depth in (0.5, 1.0, 2.0, 5.0, 10.0, 20.0):
        row = grid_fields(sol, q, np.array([-depth * c]))
        dev = np.abs(row.P_y + g).max()
        print(f"    p = {-depth:5.1f} c   max |P_y + g| = {dev:.3e}")
    print("  (one decade of depth buys e^{-10} ~ 4.5e-5 of decay per mode)")

    prof = surface(sol, m=256)
    f_surf = gf.f[-1]
    print(f"\ncomparison function on the free surface:")
    print(f"  f at the crest          {f_surf[0]:+.3e}  (exactly 0)")
    print(f"  f at the trough         {f_surf[-1]:+.3e}  (exactly -g pi = "
          f"{-g * math.pi:.6f})")
    print(f"  max f over the surface  {f_surf.max():+.3e}  (never positive)")
    print(f"  max surface slope^2     {(prof.slope ** 2).max():.4f}  "
          f"(stays below 1)")


if __name__ == "__main__":
    main()
