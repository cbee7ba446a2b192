"""Characteristic roots, interface symbols, and measured operator bounds.

Away from the flat case the interface geometry enters through the graph
chart's gradient; the two characteristic roots stay on opposite sides of
the imaginary axis and are degree-1 homogeneous.  On the periodic model
grid, the mapping norms of the Neumann-to-Dirichlet multiplier are
computed exactly, mode by mode, and their decay is compared against the
predicted exponents.
"""

from lclab import (TorusGrid, characteristic_roots,
                   characteristic_roots_screened, class_membership_estimate,
                   difference_symbol, flat_ntd_symbol, linear_chart,
                   ntd_bound_experiment, ntd_symbol, operator_bound_experiment,
                   transmission_symbol)

chart = linear_chart(0.5)  # interface graph with slope 1/2
print("characteristic roots on the sloped chart (xi' = 1):")
z_minus, z_plus = characteristic_roots(chart, 0.0, 1.0)
print(f"  free:      z-  = {z_minus:.4f},  z+ = {z_plus:.4f}")
for lam in (1.0, 100.0, 10000.0):
    w_minus, w_plus = characteristic_roots_screened(chart, 0.0, 1.0, lam)
    print(f"  lam = {lam:7g}: omega- = {w_minus:.4f}, omega+ = {w_plus:.4f}")

print("\njoint homogeneity omega(t xi, t^2 lam) = t omega(xi, lam):")
base = characteristic_roots_screened(chart, 0.0, 1.3, 7.0)
for t in (2.0, 10.0):
    scaled = characteristic_roots_screened(chart, 0.0, t * 1.3, t * t * 7.0)
    print(f"  t = {t:4g}: gap = {abs(scaled[0] - t * base[0]):.2e}")

print("\ninterface symbols at xi' = 2, lam = 100:")
print(f"  Neumann-to-Dirichlet: {ntd_symbol(chart, 0.0, 2.0, 100.0):.6f}")
print(f"  transmission factor:  {transmission_symbol(chart, 0.0, 2.0, 100.0):.6f}")
print(f"  difference symbol:    {difference_symbol(chart, 0.0, 2.0, 100.0):.6f}"
      "  (positive, order -1)")

print("\nsampled class certification of the flat NtD symbol (order -1):")
report = class_membership_estimate(flat_ntd_symbol(), -1.0, 2)
print(f"  passed: {report.passed}; worst growth slope "
      f"{max(report.growth_slopes.values()):+.3f}")

grid = TorusGrid(1024)
sweep = tuple(10.0 ** e for e in (2.0, 2.5, 3.0, 3.5, 4.0, 4.5))
print("\nexact H^{1/2} -> H^{1/2} decay of the NtD multiplier:")
fit = operator_bound_experiment(grid, flat_ntd_symbol(), -1.0, 0.5, -0.5, sweep)
print(f"  fitted exponent vs sqrt(lam): {fit.slope:+.3f} (expected -1)")

print("\ntwo-regime norm bound ||op(1/eta) u||_s / ||u||_{1/2}:")
for s, fit in sorted(ntd_bound_experiment(grid, (0.0, 0.5, 1.0, 1.5),
                                          sweep).items()):
    print(f"  s = {s:3.1f}: lambda-exponent {fit.slope:+.4f}"
          f"   (expected {fit.expected:+.2f})")
