"""Large-coupling experiments: the resolvent difference and its decay.

The central object is the compact symmetric operator

    E_lam = restrict o (coupled operator)^-1 o extend  -  (exterior)^-1

acting on exterior fields.  Its norm decays like lam^(-1/2); in 1D the
whole operator is known in closed form (rank <= 2), which provides an
oracle pipeline completely independent of the grids.

Sign conventions follow the trace normal fixed in ``grids`` (pointing
into the inclusion): the interface Neumann-to-Dirichlet matrix is
negative definite, the interface difference operator W = -N D^{-1} is
positive definite, and (E f, f) >= 0.
"""

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .errors import (ContractError, ConvergenceError, DomainError,
                     InconclusiveError)
from .kernels import backward_error, loglog_fit, power_iteration_sym

MIN_RATE_R_SQUARED = 0.95
DEFAULT_LAMBDA_SWEEP = (1e2, 1e3, 1e4, 1e5, 1e6)


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


def exterior_dtn_matrix_1d(domain, outer="neumann"):
    """gamma1 of the exterior harmonic extension, as a 2x2 matrix.

    With the Neumann outer condition the harmonic extension is constant
    on each component, so the map is zero; with the Dirichlet outer
    condition it is diag(1/a1, 1/(L - a2)).
    """
    if outer == "neumann":
        return np.zeros((2, 2))
    if outer == "dirichlet":
        return np.diag([1.0 / domain.a1, 1.0 / (domain.length - domain.a2)])
    raise DomainError(f"unknown outer condition {outer!r}")


def transmission_factor_1d(domain, lam, outer="neumann"):
    """Exact 2x2 transmission factor Id - (exterior DtN) (NtD)."""
    n = ntd_matrix_1d(lam, domain.inclusion_length)
    return np.eye(2) - exterior_dtn_matrix_1d(domain, outer) @ n


def difference_matrix_1d(domain, lam, outer="neumann"):
    """Exact 2x2 interface difference operator W = -N D^{-1} (positive)."""
    n = ntd_matrix_1d(lam, domain.inclusion_length)
    d = transmission_factor_1d(domain, lam, outer)
    return -n @ np.linalg.inv(d)


def exterior_gram_1d(domain):
    """Gram matrix S S* of the trace-of-exterior-solve map S = gamma1 B^{-1}.

    From the closed-form exterior Green's functions: S f =
    (-int_left f, -int_right f), so S S* = diag(a1, L - a2).
    """
    return np.diag([domain.a1, domain.length - domain.a2])


def difference_norm_exact_1d(domain, lam, outer="neumann"):
    """Norm of E_lam in 1D from the rank-2 factorization E = S* W S.

    The nonzero spectrum of S* W S equals that of W^{1/2} (S S*) W^{1/2},
    a 2x2 symmetric eigenproblem; no grid is involved anywhere.
    """
    w = difference_matrix_1d(domain, lam, outer)
    gram = exterior_gram_1d(domain)
    half = np.linalg.cholesky(w)
    return float(np.max(np.linalg.eigvalsh(half.T @ gram @ half)))


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
        val, _ = power_iteration_sym(lambda f: self.apply(lam, f),
                                     self.grid.ext_idx.size, tol=tol,
                                     weights=self.grid.w_ext, seed=seed)
        return val


@dataclass
class RateFit:
    """A lambda-sweep of norms with its log-log fit."""

    lambdas: np.ndarray
    values: np.ndarray
    slope: float
    intercept: float
    r_squared: float
    conclusive: bool = True

    @classmethod
    def from_sweep(cls, lambdas, values):
        lambdas = np.asarray(lambdas, dtype=float)
        values = np.asarray(values, dtype=float)
        if len(lambdas) < 3 or np.any(np.diff(lambdas) <= 0):
            raise DomainError("sweep must be increasing with >= 3 points")
        if lambdas[-1] / lambdas[0] < 10.0 ** 3:
            raise DomainError("sweep must span at least three decades")
        slope, intercept, r2 = loglog_fit(lambdas, values)
        return cls(lambdas, values, slope, intercept, r2,
                   conclusive=r2 >= MIN_RATE_R_SQUARED)


def convergence_rate_fit(grid, lambdas=DEFAULT_LAMBDA_SWEEP, tol=1e-8, seed=0):
    """Fitted decay rate of ||E_lam|| over a coupling sweep (discrete)."""
    pipe = DifferencePipeline(grid)
    values = [pipe.norm(lam, tol=tol, seed=seed) for lam in lambdas]
    return RateFit.from_sweep(lambdas, values)


def convergence_rate_fit_exact_1d(domain, lambdas=DEFAULT_LAMBDA_SWEEP,
                                  outer="neumann"):
    """Same fit from the closed-form 1D norms (oracle pipeline)."""
    values = [difference_norm_exact_1d(domain, lam, outer) for lam in lambdas]
    return RateFit.from_sweep(lambdas, values)


# ---------------------------------------------------------------------------
# interface identities


@dataclass
class GreenReport:
    """Relative residuals of the four interface integration identities.

    Residuals are normalized by ||f|| ||g|| (the natural scale of the
    bilinear forms being compared); ``scale`` records that normalizer.
    """

    residual_i: float
    residual_ii: float
    residual_iii: float
    residual_iv: float
    scale: float
    details: dict = field(default_factory=dict)

    def as_tuple(self):
        return (self.residual_i, self.residual_ii,
                self.residual_iii, self.residual_iv)


def _interface_ntd_apply(grid, lam, phi):
    """Apply the exact interface NtD: 2x2 matrix in 1D, Fourier multiplier
    in the angular mode on the polar circle."""
    phi = np.asarray(phi, dtype=float)
    if grid.dim == 1:
        n = ntd_matrix_1d(lam, grid.domain.a2 - grid.domain.a1)
        return n @ phi
    radius = grid.r_inc
    coeffs = np.fft.fft(phi)
    k = np.fft.fftfreq(phi.size, d=1.0 / phi.size)
    mult = -1.0 / np.sqrt((k / radius) ** 2 + lam)
    return np.real(np.fft.ifft(mult * coeffs))


def _interface_difference_apply(grid, lam, phi, outer="neumann"):
    """Apply the exact interface difference operator W = -N D^{-1}."""
    phi = np.asarray(phi, dtype=float)
    if grid.dim == 1:
        w = difference_matrix_1d(grid.domain, lam, outer)
        return w @ phi
    radius = grid.r_inc
    coeffs = np.fft.fft(phi)
    k = np.fft.fftfreq(phi.size, d=1.0 / phi.size)
    xi = np.abs(k) / radius
    eta = -np.sqrt(xi ** 2 + lam)
    mult = 1.0 / (xi - eta)  # 1/(Re tau - Re eta); D = Id for Neumann outer
    return np.real(np.fft.ifft(mult * coeffs))


def green_identity_check(grid, lam, f_ext, g_ext, tol=1e-10):
    """Measure the four equivalent interface identities on test data.

    f and g are exterior fields; u is the coupled solve of (extend f),
    v the exterior solve of g.  Items (iii) and (iv) use the exact
    interface operators (2x2 matrices in 1D, circle multipliers on the
    polar grid).  Residuals are |lhs - rhs| / (||f|| ||g||).
    """
    f_ext = np.asarray(f_ext, dtype=float)
    g_ext = np.asarray(g_ext, dtype=float)
    pipe = DifferencePipeline(grid, tol=tol)
    coupled = pipe.coupled(lam)
    exterior = pipe.exterior

    u_full = coupled.solve(grid.extend(f_ext), tol=tol)
    v_ext = exterior.solve(g_ext, tol=tol)
    vf_ext = exterior.solve(f_ext, tol=tol)
    u_ext = grid.restrict(u_full)

    v_full = grid.embed_exterior(v_ext)      # zero interface values
    vf_full = grid.embed_exterior(vf_ext)

    g0_u = grid.trace_gamma0(u_full)
    g1_u = grid.trace_gamma1(u_full, "exterior")
    g1_v = grid.trace_gamma1(v_full, "exterior")
    g1_vf = grid.trace_gamma1(vf_full, "exterior")

    scale = math.sqrt(grid.inner_ext(f_ext, f_ext)) \
        * math.sqrt(grid.inner_ext(g_ext, g_ext))
    if scale == 0.0:
        scale = 1.0

    # (i) operator-level pairing difference vs the interface pairing
    au = grid.restrict(coupled.apply(u_full))
    bv = exterior.apply(v_ext)
    lhs_i = grid.inner_ext(au, v_ext) - grid.inner_ext(u_ext, bv)
    rhs_boundary = grid.interface_pairing(g0_u, g1_v)
    res_i = abs(lhs_i - rhs_boundary) / scale

    # (ii) same statement through the data
    lhs_ii = grid.inner_ext(f_ext, v_ext) - grid.inner_ext(u_ext, g_ext)
    res_ii = abs(lhs_ii - rhs_boundary) / scale

    # (iii) resolvent difference against the NtD pairing
    e_f = u_ext - vf_ext
    lhs_iii = grid.inner_ext(e_f, g_ext)
    rhs_iii = -grid.interface_pairing(_interface_ntd_apply(grid, lam, g1_u),
                                      g1_v)
    res_iii = abs(lhs_iii - rhs_iii) / scale

    # (iv) resolvent difference against the positive interface operator
    rhs_iv = grid.interface_pairing(
        _interface_difference_apply(grid, lam, g1_vf), g1_v)
    res_iv = abs(lhs_iii - rhs_iv) / scale

    return GreenReport(res_i, res_ii, res_iii, res_iv, scale,
                       details={"pairing": rhs_boundary,
                                "difference_form": lhs_iii})


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


def nonlocal_bc_solve_1d(grid, lam, f_ext, tol=1e-10):
    """Exterior solve closed by u = N (gamma1 u) on the interface (1D).

    Unknowns are the closed-exterior nodes (interface included).  The
    other rows are the grid's stiffness over the cell measures; the two
    interface rows are I - N gamma1, with N the exact 2x2 NtD matrix and
    gamma1 the grid's exterior one-sided stencil, so they couple both
    interface points.  The solve's normwise backward error must not
    exceed ``tol``.
    """
    if grid.dim != 1:
        raise DomainError("use nonlocal_bc_solve_polar for the disk")
    if not 0.0 < tol <= 1e-6:
        raise ContractError(f"solve tolerance {tol} outside (0, 1e-6]")
    nodes = np.union1d(grid.ext_idx, grid.interface_idx)
    gamma = np.searchsorted(nodes, grid.interface_idx)
    mat = grid._stiffness[nodes][:, nodes]
    # row by row K / w: the -Laplacian acting on nodal values
    mat.data /= np.repeat(grid.w_full[nodes], np.diff(mat.indptr))
    n_mat = ntd_matrix_1d(lam, grid.domain.inclusion_length)
    rows = -n_mat @ grid.gamma1_matrix("exterior")[:, nodes].toarray()
    rows[[0, 1], gamma] += 1.0
    mat = mat.tolil()
    mat[gamma] = rows
    mat = mat.tocsr()
    rhs = grid.extend(f_ext)[nodes]
    sol = sp.linalg.spsolve(mat, rhs)
    residual = backward_error(mat, sol, rhs)
    if not residual <= tol:
        raise ConvergenceError(f"nonlocal solve backward error {residual:.3e}"
                               f" exceeds tol {tol:.1e}", residual=residual)
    out = np.zeros(grid.n_nodes)
    out[nodes] = sol
    return grid.restrict(out)


def nonlocal_bc_solve_polar(grid, lam, f_ext):
    """Exterior solve with the circle-multiplier interface condition.

    The disk's rotational symmetry block-diagonalizes the discrete
    exterior operator over angular modes; each mode solves a small
    radial system whose interface row enforces u = n_k * gamma1 u with
    n_k the flat Neumann-to-Dirichlet symbol at frequency k / R.  The
    angular eigenvalue uses the discrete stencil so the per-mode systems
    reproduce the 2D finite-difference operator exactly.
    """
    if grid.dim != 2:
        raise DomainError("polar solve needs a polar grid")
    nth = grid.ntheta
    hr, ht = grid.hr, grid.htheta
    n_r = grid.nr_ext + 1  # rings nr_int .. ntot
    f_rect = np.asarray(f_ext, dtype=float).reshape(grid.nr_ext, nth)
    f_hat = np.fft.fft(f_rect, axis=1)
    out_hat = np.zeros((n_r, nth), dtype=complex)
    radii = grid.hr * np.arange(grid.nr_int, grid.ntot + 1)
    # the grid's exterior gamma1 stencil along one ray, the same in every mode
    ray = grid.interface_idx[0] + nth * np.arange(3)
    stencil = grid.gamma1_matrix("exterior")[0, ray].toarray().ravel()
    for m in range(nth):
        k_int = m if m <= nth // 2 else m - nth
        kd2 = (2.0 - 2.0 * math.cos(k_int * ht)) / ht ** 2  # discrete mode eig
        n_k = -1.0 / math.sqrt((k_int / grid.r_inc) ** 2 + lam)
        a = np.zeros((n_r, n_r), dtype=complex)
        b = np.zeros(n_r, dtype=complex)
        for i in range(1, n_r):
            r = radii[i]
            if i < n_r - 1:
                cell, extent = r * hr, hr
            else:
                cell, extent = (r ** 2 - (r - hr / 2) ** 2) / 2.0, hr / 2
            lo = (r - hr / 2) / (cell * hr)
            hi = (r + hr / 2) / (cell * hr) if i < n_r - 1 else 0.0
            a[i, i - 1] = -lo
            a[i, i] = lo + hi + extent * kd2 / (r * cell)
            if i < n_r - 1:
                a[i, i + 1] = -hi
            b[i] = f_hat[i - 1, m]
        # interface row: u0 - n_k * gamma1 u = 0
        a[0, :3] = -n_k * stencil
        a[0, 0] += 1.0
        out_hat[:, m] = np.linalg.solve(a, b)
    out = np.real(np.fft.ifft(out_hat, axis=1))
    return out[1:].ravel()


def nonlocal_bc_solve(grid, lam, f_ext, tol=1e-10):
    if grid.dim == 1:
        return nonlocal_bc_solve_1d(grid, lam, f_ext, tol=tol)
    return nonlocal_bc_solve_polar(grid, lam, f_ext)


def counting_zero_threshold(norm_fn, mu, lam_lo=1.0, lam_hi=1e12,
                            rel_tol=1e-3, check_monotone=True):
    """Smallest coupling beyond which ||E_lam|| stays below mu (bisection).

    ``norm_fn`` maps lam to the norm.  The predicate is verified to be
    monotone along a coarse sweep first; non-monotone data flags the
    search as inconclusive.
    """
    if mu <= 0:
        raise DomainError("threshold needs mu > 0")
    if check_monotone:
        probes = np.geomspace(lam_lo, lam_hi, 13)
        vals = np.array([norm_fn(l) for l in probes])
        if np.any(np.diff(vals) > 1e-9 * vals[:-1]):
            raise InconclusiveError("||E_lam|| sweep is not nonincreasing")
    if norm_fn(lam_lo) < mu:
        return lam_lo
    if norm_fn(lam_hi) >= mu:
        raise DomainError(f"mu={mu} not reached below lam={lam_hi:g}")
    lo, hi = lam_lo, lam_hi
    while hi / lo > 1.0 + rel_tol:
        mid = math.sqrt(lo * hi)
        if norm_fn(mid) < mu:
            hi = mid
        else:
            lo = mid
    return hi
