"""Counting the eigenvalues of the resolvent difference on a disk.

The difference operator is compact and symmetric, and the discrete one
has rank |Gamma| (the interface nodes).  The disk grid is rotation
invariant, so its coupled matrix splits into one radial tridiagonal
block per angular mode.  Z, one batched solve of those blocks against a
unit load on the interface node of each, gives the nonzero spectrum as
that of the pencil (G, Z_GammaGamma) with G = Z_ext^T W Z_ext: one 1 x 1
pencil per mode.  Only those |Gamma| eigenvalues are computed; the rest
are zero.  The counting function is then compared with the circle model
(the interface difference operator diagonalizes in angular modes)
through the trace-map norm, and the phase-space prediction is printed
from its closed form on the circle.
"""

import numpy as np

from lclab import (DifferencePipeline, Domain2D, PolarGrid,
                   birman_disk_check, circle_count_prediction,
                   counting_circle, counting_function, eigen_spectrum,
                   trace_map_norm, weyl_exponent_fit,
                   circle_model_exponent_fit)

lam = 1e3
disk = Domain2D(radius=1.0, outer_radius=2.0)
grid = PolarGrid(disk, nr_ext=32, ntheta=64)
print(f"disk of radius 1 in the circle of radius 2; exterior unknowns: "
      f"{grid.ext_idx.size}; interface nodes (the rank of the difference): "
      f"{grid.interface_idx.size}; coupling lam = {lam:g}")

pipe = DifferencePipeline(grid)
eigs = eigen_spectrum(grid, lam)
moduli = np.sort(np.abs(eigs))[::-1]
norm = pipe.norm(lam)
print(f"||difference|| = {norm:.4e}; largest eigenvalue moduli:")
print("  " + "  ".join(f"{v:.3e}" for v in moduli[:8]))
print(f"spectrum confined to [-{norm:.3e}, {norm:.3e}]: "
      f"{moduli[0] <= norm * (1 + 1e-6)}")

s_norm = trace_map_norm(grid)
print(f"\ntrace-map norm ||S|| = {s_norm:.4f}")

print("\ncounting comparison N(mu; difference) <= N(mu/||S||^2; circle):")
mus = np.geomspace(norm * 0.9, norm / 50, 6)
for mu, lhs, rhs in zip(mus, counting_function(moduli, mus),
                        counting_circle(1.0, lam, mus / s_norm ** 2)):
    print(f"  mu = {mu:.3e}:  {lhs:4d} <= {rhs:5d}")
rows = birman_disk_check(eigs, s_norm, 1.0, lam,
                         np.geomspace(norm, norm / 100, 20))
print(f"holds across a 20-point mu grid: {all(r['holds'] for r in rows)}")

fit = weyl_exponent_fit(eigs)
print(f"\ncount growth over the top mu-decade: slope {fit.slope:+.3f}")
model = circle_model_exponent_fit(1.0, lam)
print(f"circle-model count growth (small mu): slope {model.slope:+.4f}"
      "  (the phase-space law gives -1)")

mu = norm / 10
print(f"\nphase-space right-hand side at mu = {mu:.3e}: "
      f"{circle_count_prediction(1.0, lam, mu / s_norm ** 2):.1f} modes "
      "(circle closed form)")
