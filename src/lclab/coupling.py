"""Large-coupling experiments: the resolvent difference and its decay.

The central object is the compact symmetric operator

    E_lam = restrict o (coupled operator)^-1 o extend  -  (exterior)^-1

acting on exterior fields.  Its norm decays like lam^(-1/2); in 1D the
whole operator is known in closed form (rank <= 2), which provides an
oracle pipeline completely independent of the grids.

Sign conventions follow the trace normal fixed in ``grids`` (pointing
into the inclusion): the interface Neumann-to-Dirichlet matrix is
negative definite, the interface difference operator W = -N D^{-1} is
positive definite, and (E f, f) >= 0.  Every grid closes the exterior
with a Neumann outer boundary; in 1D that makes the transmission factor
D the identity, so W = -N there.

The interface identities (``green_identity_check``) and the nonlocal
solve (``nonlocal_bc_solve``) work on the grid's tridiagonal blocks
(``mode_bands``) through the grid's interface layout (``gamma_rows``,
``row_measure``), on the interval and the disk alike.  The interface
operators come from one source, ``_interface_blocks``: one matrix per
block, the exact 2x2 matrices on the interval and the flat circle
multipliers per angular mode on the disk.  ``DifferencePipeline`` keeps
the sparse assemblies as the tests' oracle.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .counting import eigen_spectra
from .errors import DomainError, InconclusiveError
from .kernels import (loglog_fit, power_iteration_sym,
                      solve_bordered_tridiagonal)

MIN_RATE_R_SQUARED = 0.95
DEFAULT_LAMBDA_SWEEP = (1e2, 1e3, 1e4, 1e5, 1e6)
THRESHOLD_REL_TOL = 1e-3


# ---------------------------------------------------------------------------
# closed-form 1D boundary operators


def ntd_matrix_1d(lam, inclusion_length):
    """Exact interface Neumann-to-Dirichlet matrix of the 1D inclusion.

    Maps (gamma1 u at a1, gamma1 u at a2) to (gamma0 u at a1, gamma0 u
    at a2) for solutions of (-u'' + lam u) = 0 on the inclusion, traces
    oriented into the inclusion.  Overflow-safe in sqrt(lam)*length:
    the diagonal tends to -1/sqrt(lam) and the off-diagonal entries die
    like exp(-sqrt(lam)*length).
    """
    if lam <= 0 or inclusion_length <= 0:
        raise DomainError("need lam > 0 and a positive inclusion length")
    s = math.sqrt(lam) * inclusion_length
    em = math.exp(-s)
    coth = (1.0 + em * em) / (1.0 - em * em)
    csch = 2.0 * em / (1.0 - em * em)
    return -(1.0 / math.sqrt(lam)) * np.array([[coth, csch], [csch, coth]])


def difference_matrix_1d(domain, lam):
    """Exact 2x2 interface difference operator W = -N D^{-1} (positive).

    Under the Neumann outer boundary the exterior harmonic extension is
    constant on each component, so its gamma1 vanishes, the transmission
    factor D = Id - (exterior DtN) N is the identity and W = -N.
    """
    return -ntd_matrix_1d(lam, domain.inclusion_length)


def exterior_gram_1d(domain):
    """Gram matrix S S* of the trace-of-exterior-solve map S = gamma1 B^{-1}.

    From the closed-form exterior Green's functions: S f =
    (-int_left f, -int_right f), so S S* = diag(a1, L - a2).
    """
    return np.diag([domain.a1, domain.length - domain.a2])


def difference_norm_exact_1d(domain, lam):
    """Norm of E_lam in 1D from the rank-2 factorization E = S* W S.

    The nonzero spectrum of S* W S equals that of W^{1/2} (S S*) W^{1/2},
    a 2x2 symmetric eigenproblem; no grid is involved anywhere.  A
    sequence ``lam`` gives one norm per entry, the scalar calls' to the
    bit, from one stacked ``cholesky`` and ``eigvalsh``.
    """
    w = np.stack([difference_matrix_1d(domain, l) for l in np.ravel(lam)])
    gram = exterior_gram_1d(domain)
    half = np.linalg.cholesky(w)
    norms = np.linalg.eigvalsh(np.swapaxes(half, 1, 2) @ gram @ half).max(1)
    return float(norms[0]) if np.ndim(lam) == 0 else norms


# ---------------------------------------------------------------------------
# discrete pipeline


class DifferencePipeline:
    """Cached assemblies for applying E_lam on one grid at several couplings."""

    def __init__(self, grid, tol=1e-10):
        self.grid = grid
        self.tol = tol
        self.exterior = grid.assemble_exterior()
        self._coupled = {}

    def coupled(self, lam):
        if lam not in self._coupled:
            self._coupled[lam] = self.grid.assemble_coupled(lam)
        return self._coupled[lam]

    def apply(self, lam, f_ext):
        """E_lam f = restrict(coupled^{-1} extend f) - exterior^{-1} f."""
        f_ext = np.asarray(f_ext, dtype=float)
        u = self.coupled(lam).solve(self.grid.extend(f_ext), tol=self.tol)
        v = self.exterior.solve(f_ext, tol=self.tol)
        return self.grid.restrict(u) - v

    def norm(self, lam, tol=1e-8, seed=0):
        return power_iteration_sym(lambda f: self.apply(lam, f),
                                   self.grid.ext_idx.size, tol=tol,
                                   weights=self.grid.w_ext, seed=seed)[0]


def _rate_fit(lambdas, values):
    """Log-log fit of a coupling sweep of norms; the sweep must increase,
    with at least three points over at least three decades."""
    lambdas = np.asarray(lambdas, dtype=float)
    if len(lambdas) < 3 or np.any(np.diff(lambdas) <= 0):
        raise DomainError("sweep must be increasing with >= 3 points")
    if lambdas[-1] / lambdas[0] < 10.0 ** 3:
        raise DomainError("sweep must span at least three decades")
    return loglog_fit(lambdas, values, MIN_RATE_R_SQUARED)


def convergence_rate_fit(grid, lambdas=DEFAULT_LAMBDA_SWEEP, tol=1e-10):
    """Fitted decay rate of ||E_lam|| over a coupling sweep (discrete).

    Each norm is the top of its row of ``eigen_spectra``, one batched
    solve for the whole sweep at solve tolerance ``tol``: exact, with no
    seed.
    """
    return _rate_fit(lambdas, eigen_spectra(grid, lambdas, tol=tol)[:, -1])


def convergence_rate_fit_exact_1d(domain, lambdas=DEFAULT_LAMBDA_SWEEP):
    """Same fit from the closed-form 1D norms (oracle pipeline)."""
    return _rate_fit(lambdas, difference_norm_exact_1d(domain, lambdas))


# ---------------------------------------------------------------------------
# interface identities


@dataclass
class GreenReport:
    """Relative residuals of the four interface integration identities.

    Residuals are normalized by ||f|| ||g|| (the natural scale of the
    bilinear forms being compared); ``scale`` records that normalizer.
    ``coupled`` is the coupled solve u of (extend f) they were measured
    on, for checks of u beyond the identities.
    """

    residual_i: float
    residual_ii: float
    residual_iii: float
    residual_iv: float
    scale: float
    coupled: np.ndarray = field(repr=False, compare=False)

    def as_tuple(self):
        return (self.residual_i, self.residual_ii,
                self.residual_iii, self.residual_iv)


def _interface_blocks(grid, lam):
    """The interface NtD N and difference operator W = -N D^{-1} as one
    matrix per block of ``grid.mode_bands``, each of shape (blocks, p, p)
    with p the interface rows of a block: the exact 2x2 matrices on the
    interval, the flat symbols of angular mode k (frequency xi = k / R)
    on the circle, with D = 1 - tau / eta, tau = |xi| and eta =
    -sqrt(xi^2 + lam), so that W = 1 / (tau - eta)."""
    if grid.dim == 1:
        return (ntd_matrix_1d(lam, grid.domain.inclusion_length)[None],
                difference_matrix_1d(grid.domain, lam)[None])
    xi = grid.modes / grid.r_inc
    eta = -np.sqrt(xi ** 2 + lam)
    return (1.0 / eta)[:, None, None], (1.0 / (xi - eta))[:, None, None]


def green_identity_check(grid, lam, f_ext, g_ext, tol=1e-10):
    """Measure the four equivalent interface identities on test data.

    f and g are exterior fields; u is the coupled solve of (extend f),
    v the exterior solve of g.  Items (iii) and (iv) use the exact
    interface operators of ``_interface_blocks``.  Residuals are
    |lhs - rhs| / (||f|| ||g||).  Every solve and operator product runs
    on the blocks of ``grid.mode_bands``.
    """
    f_ext = np.asarray(f_ext, dtype=float)
    g_ext = np.asarray(g_ext, dtype=float)
    u_full = grid.solve_coupled(lam, grid.extend(f_ext), tol=tol)
    v_ext, vf_ext = grid.solve_exterior(np.stack([g_ext, f_ext]), tol=tol)
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

    return GreenReport(res_i, res_ii, res_iii, res_iv, scale, u_full)


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


def nonlocal_bc_solve(grid, lam, f_ext, tol=1e-10):
    """Exterior solve closed by u = N (gamma1 u) on the interface.

    Per block of ``grid.mode_bands``, the unknowns are the exterior and
    interface rows (on the interval one chain 0 .. a1, a2 .. L whose
    Laplacian is cut between a1 and a2; on the disk the rings R .. R_out
    of one angular mode).  The exterior rows are the block's over the
    row measure; the interface rows are I - N gamma1, with N the block
    NtD of ``_interface_blocks`` and gamma1 the grid's exterior stencil on
    ``gamma_rows``, so on the interval they couple both interface points.
    ``kernels.solve_bordered_tridiagonal`` solves every block with these
    dense rows; the normwise backward error of every whole matrix must
    not exceed ``tol``.
    """
    # first, so a side without two layers raises before any indexing
    stencil = grid.gamma1_stencil("exterior")[0]
    keep = np.zeros(grid.row_measure.size, dtype=bool)
    keep[grid.ext_rows] = keep[grid.gamma_rows[:, 0]] = True
    rows = np.flatnonzero(keep)
    # the stencil rows of each interface row, as positions among ``rows``
    at = (np.cumsum(keep) - 1)[grid.gamma_rows]
    lower, diag, upper = (band[:, rows] / grid.row_measure[rows]
                          for band in grid.mode_bands())
    ntd = _interface_blocks(grid, lam)[0]
    border = np.zeros(ntd.shape[:2] + (rows.size,))
    border[:, :, at] = -ntd[..., None] * stencil
    border[:, np.arange(len(at)), at[:, 0]] += 1.0
    # the rows left out keep their zero data
    coeffs = grid.to_modes(grid.extend(f_ext))
    coeffs[..., rows] = solve_bordered_tridiagonal(
        lower, diag, upper, border, at[:, 0], coeffs[..., rows], tol=tol)
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
