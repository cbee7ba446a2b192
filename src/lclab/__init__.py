"""Desk-scale laboratory for the large-coupling limit of Schrodinger
operators with a piecewise-constant potential jump across an interface.
Importing it loads no scipy: the sparse oracles import ``scipy.sparse``
and ``scipy.io`` where they use them, and no experiment does.

Subpackages:

  geometry   interval and disk domains, interface graph charts, metric data
  interface  the interface operators N, D and W: the interval's closed
             forms and the flat multipliers, each stated once
  symbols    characteristic roots and interface operator symbols, class calculus
  torus      discrete Fourier model and exact operator-norm experiments
  grids      finite-difference grids and the transmission-problem operators
  kernels    SPD and batched tridiagonal solves, power iteration, dense
             symmetric eigensolver, the log-log ``Fit`` of every slope
  coupling   the resolvent difference, its decay rate, interface identities
  counting   eigenvalue counting, comparison inequalities, phase-space laws
  runner     experiment orchestration and the ``lclab`` command line
"""

from .errors import (ConfigError, ContractError, ConvergenceError,
                     DegenerateCovectorError, DomainError, InconclusiveError,
                     LabError, ResourceLimitError)
from .geometry import (BoundaryChart, Domain1D, Domain2D, flat_chart,
                       linear_chart, metric_matrix)
from .symbols import (IDENTITY_SYMBOL, ParamSymbol, SymbolClass,
                      characteristic_roots, characteristic_roots_screened,
                      class_membership_estimate, difference_symbol,
                      difference_symbol_expanded, eta_symbol, flat_ntd_symbol,
                      flat_transmission_symbol, make_symbol, ntd_symbol,
                      product_symbol, tau_symbol, transmission_symbol)
from .grids import Grid1D, PolarGrid, SparseOperator
from .kernels import (Fit, dense_eigen, loglog_fit, power_iteration_sym,
                      solve_spd)
from .interface import (difference_matrix_1d, difference_norm_exact_1d,
                        exterior_gram_1d, ntd_matrix_1d)
from .coupling import (DifferencePipeline, GreenReport, convergence_rate_fit,
                       convergence_rate_fit_exact_1d, counting_zero_threshold,
                       green_identity_check, green_test_fields,
                       nonlocal_bc_solve)
from .counting import (birman_disk_check, circle_count_prediction,
                       circle_difference_eigenvalue, circle_model_exponent_fit,
                       counting_circle, counting_function, eigen_spectrum,
                       trace_map_norm, weyl_exponent_fit)
from .torus import (TorusGrid, apply_multiplier, apply_psdo,
                    composition_error_experiment, default_composition_symbols,
                    dft, idft, ntd_bound_experiment, operator_bound_experiment,
                    sobolev_norm)

__version__ = "0.1.0"
