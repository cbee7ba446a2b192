"""Large-coupling experiments: the resolvent difference and its decay.

The central object is the compact symmetric operator

    E_lam = restrict o (coupled operator)^-1 o extend  -  (exterior)^-1

acting on exterior fields.  Its norm decays like lam^(-1/2); in 1D the
whole operator is known in closed form (rank <= 2, ``interface``), which
provides an oracle pipeline completely independent of the grids.  The
sign conventions are ``interface``'s: (E f, f) >= 0.

The interface identities (``green_identity_check``) and the nonlocal
solve (``nonlocal_bc_solve``) work on the grid's tridiagonal blocks
(``mode_bands``) through the grid's interface layout (``gamma_rows``,
``ext_rows``), on the interval and the disk alike.  The interface
operators come from one source, ``_interface_blocks``: one matrix per
block, read from ``interface``: the exact 2x2 matrices on the interval
and the flat circle multipliers per angular mode on the disk.
``DifferencePipeline`` keeps the sparse assemblies as the tests' oracle.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .counting import difference_norms
from .errors import DomainError, InconclusiveError
from .interface import (difference_matrix_1d, difference_norm_exact_1d,
                        flat_difference, flat_ntd, ntd_matrix_1d)
from .kernels import (check_sweep, loglog_fit, power_iteration_sym,
                      solve_tridiagonal)

MIN_RATE_R_SQUARED = 0.95
THRESHOLD_REL_TOL = 1e-3


# ---------------------------------------------------------------------------
# discrete pipeline


class DifferencePipeline:
    """Cached assemblies for applying E_lam on one grid at several couplings."""

    def __init__(self, grid):
        self.grid = grid
        self.exterior = grid.assemble_exterior()
        self._coupled = {}

    def coupled(self, lam):
        if lam not in self._coupled:
            self._coupled[lam] = self.grid.assemble_coupled(lam)
        return self._coupled[lam]

    def apply(self, lam, f_ext):
        """E_lam f = restrict(coupled^{-1} extend f) - exterior^{-1} f."""
        f_ext = np.asarray(f_ext, dtype=float)
        u = self.coupled(lam).solve(self.grid.extend(f_ext))
        v = self.exterior.solve(f_ext)
        return self.grid.restrict(u) - v

    def norm(self, lam):
        return power_iteration_sym(lambda f: self.apply(lam, f),
                                   self.grid.ext_idx.size,
                                   weights=self.grid.w_ext)[0]


def _check_sweep(lambdas):
    """A coupling sweep (``kernels.check_sweep``) over at least three
    decades, as an array."""
    lambdas = check_sweep(lambdas)
    if lambdas[-1] / lambdas[0] < 10.0 ** 3:
        raise DomainError("sweep must span at least three decades")
    return lambdas


def _rate_fit(lambdas, values):
    """Log-log fit of a coupling sweep of norms (see ``_check_sweep``)."""
    return loglog_fit(_check_sweep(lambdas), values, MIN_RATE_R_SQUARED)


def convergence_rate_fit(grid, lambdas):
    """Fitted decay rate of ||E_lam|| over a coupling sweep (discrete).

    The sweep is checked before any solve.  Block 0 of ``mode_bands``
    carries ||E_lam|| on every grid (``counting.difference_norms`` proves
    it): one batched solve of it gives every norm, exactly."""
    lambdas = _check_sweep(lambdas)
    return _rate_fit(lambdas, difference_norms(grid, lambdas))


def convergence_rate_fit_exact_1d(domain, lambdas):
    """Same fit from the closed-form 1D norms (oracle pipeline)."""
    return _rate_fit(lambdas, difference_norm_exact_1d(domain, lambdas))


# ---------------------------------------------------------------------------
# interface identities


@dataclass
class GreenReport:
    """Relative residuals of the four interface integration identities.

    Residuals are normalized by ||f|| ||g|| (the natural scale of the
    bilinear forms being compared).
    ``coupled`` is the coupled solve u of (extend f) they were measured
    on, for checks of u beyond the identities.
    """

    residual_i: float
    residual_ii: float
    residual_iii: float
    residual_iv: float
    coupled: np.ndarray = field(repr=False, compare=False)

    def as_tuple(self):
        return (self.residual_i, self.residual_ii,
                self.residual_iii, self.residual_iv)


def _interface_blocks(grid, lam):
    """The interface NtD N and difference operator W = -N D^{-1} as one
    matrix per block of ``grid.mode_bands``, each of shape (blocks, p, p)
    with p the interface rows of a block, from ``interface``: the exact
    2x2 matrices on the interval, the flat multipliers of angular mode k
    (frequency xi = k / R) on the circle."""
    if grid.dim == 1:
        return (ntd_matrix_1d(lam, grid.domain.inclusion_length)[None],
                difference_matrix_1d(grid.domain, lam)[None])
    xi = grid.modes / grid.r_inc
    return (flat_ntd(xi, lam)[:, None, None],
            flat_difference(xi, lam)[:, None, None])


def green_identity_check(grid, lam, f_ext, g_ext):
    """Measure the four equivalent interface identities on test data.

    f and g are exterior fields; u is the coupled solve of (extend f),
    v the exterior solve of g.  Items (iii) and (iv) use the exact
    interface operators of ``_interface_blocks``.  Residuals are
    |lhs - rhs| / (||f|| ||g||).  Every solve and operator product runs
    on the blocks of ``grid.mode_bands``.
    """
    f_ext = np.asarray(f_ext, dtype=float)
    g_ext = np.asarray(g_ext, dtype=float)
    u_full = grid.solve_coupled(lam, grid.extend(f_ext))
    v_ext, vf_ext = grid.solve_exterior(np.stack([g_ext, f_ext]))
    u_ext = grid.restrict(u_full)
    v_full, vf_full = grid.extend(np.stack([v_ext, vf_ext]))  # zero on Gamma

    g0_u = grid.trace_gamma0(u_full)
    g1_u, g1_v, g1_vf = grid.trace_gamma1(
        np.stack([u_full, v_full, vf_full]), "exterior")

    scale = math.sqrt(grid.inner_ext(f_ext, f_ext)) \
        * math.sqrt(grid.inner_ext(g_ext, g_ext))
    if scale == 0.0:
        scale = 1.0

    # (i) operator-level pairing difference vs the interface pairing; on
    # exterior rows the coupled operator acts on v_full as the exterior one
    au, bv = grid.restrict(grid.apply_coupled(lam, np.stack([u_full, v_full])))
    lhs_i = grid.inner_ext(au, v_ext) - grid.inner_ext(u_ext, bv)
    rhs_boundary = grid.interface_pairing(g0_u, g1_v)
    res_i = abs(lhs_i - rhs_boundary) / scale

    # (ii) same statement through the data
    lhs_ii = grid.inner_ext(f_ext, v_ext) - grid.inner_ext(u_ext, g_ext)
    res_ii = abs(lhs_ii - rhs_boundary) / scale

    # (iii) resolvent difference against the NtD pairing, and (iv)
    # against the positive interface operator, each applied per block
    gamma = grid.gamma_rows[:, 0]
    traces = np.zeros((2, grid.n_nodes))
    traces[:, grid.interface_idx] = g1_u, g1_vf
    coeffs = grid.to_modes(traces)
    coeffs[..., gamma] = (np.stack(_interface_blocks(grid, lam))
                          @ coeffs[..., gamma, None])[..., 0]
    ntd_g1_u, diff_g1_vf = grid.from_modes(coeffs)[:, grid.interface_idx]
    e_f = u_ext - vf_ext
    lhs_iii = grid.inner_ext(e_f, g_ext)
    rhs_iii = -grid.interface_pairing(ntd_g1_u, g1_v)
    res_iii = abs(lhs_iii - rhs_iii) / scale
    rhs_iv = grid.interface_pairing(diff_g1_vf, g1_v)
    res_iv = abs(lhs_iii - rhs_iv) / scale

    return GreenReport(res_i, res_ii, res_iii, res_iv, u_full)


def green_test_fields(grid):
    """Default test pair: smooth profiles vanishing linearly on the
    interface, so the identity residuals are dominated by a clean
    second-order trace term.  The profiles carry nonzero mass per
    component (zero-mean data would zero out every interface trace in
    1D and turn the identities into 0 = 0)."""
    if grid.dim == 1:
        x = grid.x[grid.ext_idx]
        a1, a2, length = grid.domain.a1, grid.domain.a2, grid.domain.length
        rel = np.where(x <= a1, x / a1, (x - a2) / (length - a2))
        f = (np.sin(np.pi * rel) + 0.5 * np.sin(2 * np.pi * rel)) \
            * np.where(x <= a1, 1.0, 0.8)
        g = np.sin(np.pi * rel) * np.where(x <= a1, 0.9, 1.1)
        return f, g
    radii = grid.hr * np.arange(grid.nr_int + 1, grid.ntot + 1)
    rel = (radii - grid.r_inc) / (grid.r_out - grid.r_inc)
    prof_f = np.sin(np.pi * rel) + 0.5 * np.sin(2 * np.pi * rel)
    prof_g = np.sin(np.pi * rel)
    theta = grid.theta
    f = np.outer(prof_f, 1.0 + 0.5 * np.cos(theta)).ravel()
    g = np.outer(prof_g, 1.0 + 0.5 * np.sin(2 * theta)).ravel()
    return f, g


# ---------------------------------------------------------------------------
# exterior solve under the nonlocal interface condition


def _exterior_half_bands(grid):
    """The lam = 0 ``grid.mode_bands`` on the exterior and interface rows,
    each interface row cut to its exterior half cell, as (rows, at,
    bands) with ``at`` the places of ``gamma_rows[:, 0]`` in ``rows``.
    Every grid splits the interface cell evenly, so that half is (diag +
    c_ext - c_int) / 2, with c_ext and c_int the conductances of the
    links out and in; the link in is cut."""
    gamma = grid.gamma_rows[:, 0]
    keep = np.zeros(grid.row_measure.size, dtype=bool)
    keep[grid.ext_rows] = keep[gamma] = True
    rows = np.flatnonzero(keep)
    at = np.cumsum(keep)[gamma] - 1
    bands = lower, diag, upper = [band[:, rows] for band in grid.mode_bands()]
    for row, up in zip(at, grid.gamma_rows[:, 1] > gamma):
        out, inner = (upper, lower) if up else (lower, upper)  # they hold -c
        diag[:, row] = (diag[:, row] - out[:, row] + inner[:, row]) / 2
        inner[:, row] = 0.0
    return rows, at, bands


def nonlocal_bc_solve(grid, lam, f_ext):
    """Exterior solve closed by u = N (gamma1 u) on the interface, taken
    in flux form gamma1 u = N^{-1} u: per block of ``grid.mode_bands``,
    ``_exterior_half_bands`` plus the interior's exact DtN -N^{-1} (N the
    block NtD of ``_interface_blocks``) on the interface rows, weighed by
    ``gamma_weights``.  -N^{-1} is positive, so every block is symmetric
    positive definite and tridiagonal: on the interval the two interface
    rows are neighbours among the kept rows.  One ``solve_tridiagonal``
    call solves and checks every whole block, interface rows included.
    """
    rows, at, (lower, diag, upper) = _exterior_half_bands(grid)
    ntd = _interface_blocks(grid, lam)[0]
    # both grids weigh every interface node alike
    dtn = -grid.gamma_weights[0] * np.linalg.inv(ntd)
    diag[:, at] += np.diagonal(dtn, axis1=1, axis2=2)
    if at.size == 2:  # the interval's, where the links in were cut
        upper[:, at[0]], lower[:, at[1]] = dtn[:, 0, 1], dtn[:, 1, 0]
    # the rows left out keep their zero data
    coeffs = grid.to_modes(grid.w_full * grid.extend(f_ext))
    coeffs[..., rows] = solve_tridiagonal(lower, diag, upper,
                                          coeffs[..., rows])
    return grid.restrict(grid.from_modes(coeffs))


def counting_zero_threshold(norm_fn, mus, lam_lo=1.0, lam_hi=1e12):
    """The smallest couplings beyond which ||E_lam|| stays below mu, one
    per mu of the sequence ``mus`` (a list), each bisected to a relative
    ``THRESHOLD_REL_TOL``.

    ``norm_fn`` maps a sequence of lam to their norms.  The predicate is
    verified to be monotone along a coarse sweep first; non-monotone data
    flags the search as inconclusive.  The mus are bisected in lockstep,
    one ``norm_fn`` call per step, each until its own ``hi / lo`` test
    stops it, so each threshold is that of its own bisection.
    """
    mus = np.asarray(mus, dtype=float)
    if np.any(mus <= 0):
        raise DomainError("threshold needs mu > 0")
    # geomspace puts lam_lo and lam_hi themselves at the ends
    probes = np.geomspace(lam_lo, lam_hi, 13)
    vals = np.asarray(norm_fn(probes))
    if np.any(np.diff(vals) > 1e-9 * vals[:-1]):
        raise InconclusiveError("||E_lam|| sweep is not nonincreasing")
    at_lo = vals[0] < mus
    unreached = ~at_lo & (vals[-1] >= mus)
    if np.any(unreached):
        raise DomainError(f"mu={mus[unreached][0]} not reached below "
                          f"lam={lam_hi:g}")
    # a mu met at lam_lo starts closed, with hi = lo = lam_lo
    lo = np.full(mus.shape, float(lam_lo))
    hi = np.where(at_lo, lo, float(lam_hi))
    while np.any(open_ := hi / lo > 1.0 + THRESHOLD_REL_TOL):
        mid = np.sqrt(lo[open_] * hi[open_])
        below = np.asarray(norm_fn(mid)) < mus[open_]
        hi[open_] = np.where(below, mid, hi[open_])
        lo[open_] = np.where(below, lo[open_], mid)
    return hi.tolist()
