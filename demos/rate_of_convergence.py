"""How fast does a large potential turn into a Dirichlet wall?

The resolvent of -Lap + lam * 1_inclusion, restricted to the exterior,
approaches the Dirichlet-exterior resolvent as the coupling lam grows.
This script measures the operator-norm gap two independent ways:

  * a closed-form 1D pipeline (rank-2 algebra, no grid at all), and
  * a finite-difference pipeline: the largest eigenvalue of the discrete
    difference operator, which has rank |interface| (two interface
    solves in 1D, one radial solve per angular mode on the disk),

then fits the decay rate.  Both land on the lam^(-1/2) law.
"""

import numpy as np

from lclab import (Domain1D, Domain2D, Grid1D, PolarGrid,
                   convergence_rate_fit, convergence_rate_fit_exact_1d,
                   difference_norm_exact_1d)

domain = Domain1D(length=1.0, a1=5 / 16, a2=11 / 16)
lambdas = (1e2, 1e3, 1e4, 1e5, 1e6)

print("exact 1D pipeline (no grid):")
exact = convergence_rate_fit_exact_1d(domain, lambdas)
for lam, val in zip(exact.x, exact.y):
    print(f"  lam = {lam:8.0f}   ||difference|| = {val:.6e}")
print(f"  fitted slope {exact.slope:+.4f}   (R^2 = {exact.r_squared:.5f})")

print("\ndiscrete 1D pipeline (h = 1/4096):")
grid = Grid1D(domain, 4096)
fit = convergence_rate_fit(grid, lambdas)
for lam, val, ex in zip(lambdas, fit.y, exact.y):
    print(f"  lam = {lam:8.0f}   discrete = {val:.6e}   exact = {ex:.6e}"
          f"   rel gap = {abs(val - ex) / ex:.2e}")
print(f"  fitted slope {fit.slope:+.4f}")

print("\ndisk inclusion (polar grid, 64 x 128):")
disk = Domain2D(radius=1.0, outer_radius=2.0)
polar = PolarGrid(disk, nr_ext=64, ntheta=128)
sweep2d = tuple(10.0 ** e for e in (1.0, 1.75, 2.5, 3.25, 4.0))
fit2d = convergence_rate_fit(polar, sweep2d)
for lam, val in zip(sweep2d, fit2d.y):
    print(f"  lam = {lam:10.2f}   ||difference|| = {val:.6e}")
print(f"  fitted slope {fit2d.slope:+.4f}")

print("\na tenfold smaller norm gap costs a hundredfold coupling:")
for mu_scale in (1e-2, 1e-3):
    mu = mu_scale * difference_norm_exact_1d(domain, 1.0)
    lam_grid = np.geomspace(1, 1e10, 200)
    vals = difference_norm_exact_1d(domain, lam_grid)
    lam0 = lam_grid[np.argmax(vals < mu)]
    print(f"  ||difference|| < {mu:.2e} from lam ~ {lam0:.3g}")
