"""The four equivalent interface identities, measured on a real solve.

The pairing between a coupled solve and an exterior Dirichlet solve can
be pushed onto the interface in four equivalent ways; two of them
involve the interface operators (Neumann-to-Dirichlet map and the
positive difference operator) in closed form.  On the 1D grid the
residuals shrink at second order under refinement.

The paper's nonlocal interface condition u = N gamma1 u closes the
exterior problem on its own.  The solve takes it in flux form,
gamma1 u = N^-1 u: the interior's exact Dirichlet-to-Neumann map -N^-1,
which is positive, joins the exterior's half of each interface cell, so
the exterior problem stays symmetric and tridiagonal.
"""

import numpy as np

from lclab import (Domain1D, Grid1D, green_identity_check, green_test_fields,
                   nonlocal_bc_solve, ntd_matrix_1d)

domain = Domain1D(length=1.0, a1=5 / 16, a2=11 / 16)
lam = 1e3

print("residuals |lhs - rhs| / (||f|| ||g||) of the four identities:")
print("  cells      (i)          (ii)         (iii)        (iv)")
previous = None
for cells in (512, 1024, 2048, 4096):
    grid = Grid1D(domain, cells)
    f, g = green_test_fields(grid)
    report = green_identity_check(grid, lam, f, g)
    row = report.as_tuple()
    ratios = ""
    if previous is not None:
        ratios = "   ratios " + " ".join(f"{p / r:4.2f}"
                                         for p, r in zip(previous, row))
    print("  {:5d}  {:.3e}  {:.3e}  {:.3e}  {:.3e}{}".format(
        cells, *row, ratios))
    previous = row

print("\nthe nonlocal interface condition, gamma1 u = N^-1 u, reproduces "
      "the coupled solve:")
grid = Grid1D(domain, 2048)
f, _ = green_test_fields(grid)
u_coupled = grid.restrict(grid.solve_coupled(lam, grid.extend(f)))
u_nonlocal = nonlocal_bc_solve(grid, lam, f)
gap = np.linalg.norm(u_nonlocal - u_coupled) / np.linalg.norm(u_coupled)
print(f"  relative L2 gap at h = 1/2048: {gap:.3e}")

print("\ninterface Neumann-to-Dirichlet matrix at lam = 1000:")
n_mat = ntd_matrix_1d(lam, domain.inclusion_length)
print(np.array2string(n_mat, precision=6))
print(f"  diagonal -> -1/sqrt(lam) = {-lam ** -0.5:.6f}; off-diagonal decays"
      f" like exp(-sqrt(lam) * inclusion length)")
