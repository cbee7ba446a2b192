"""Spectral counting: eigenvalues of the resolvent difference, the
interface-model counting laws, and the comparison inequalities.

The counting function N(mu; T) counts eigenvalues exceeding mu (strict).
For the symmetric resolvent difference the moduli of the eigenvalues are
the singular values, and the chain of comparisons runs

    N(mu; E_lam)  <=  N(mu / ||S||^2 ; interface difference operator)
                  ~   Weyl phase-space volume,

with S = (exterior trace of normal derivative) o (exterior solve).
On the disk the interface operator diagonalizes in angular modes with
eigenvalues w_k = 1 / (|k|/R + sqrt((k/R)^2 + lam)), so both sides of
the chain are computable exactly.  So does the discrete problem: every
grid supplies its coupled matrix as tridiagonal blocks (``mode_bands``:
one per angular mode on a ``PolarGrid``, one over the nodes on a
``Grid1D``) and the place of the interface in them (``gamma_rows``,
``ext_rows``, ``row_measure``, ``mode_multiplicity``), and the spectrum
of E_lam and the norm of S each come from one batched tridiagonal solve
over the blocks, with no branch on the geometry.  lam enters only the
diagonal, so ``eigen_spectra`` takes a whole coupling sweep in that one
solve, and ``eigen_spectrum`` is its single-lam row.  No sparse matrix
is formed; the tests keep the sparse interface Schur complement as the
oracle.

The two counting-law fits return a ``kernels.Fit`` of N(mu) against mu
over one decade, conclusive at r^2 >= ``MIN_COUNT_R_SQUARED``.
"""

import math

import numpy as np

from .errors import (ContractError, DomainError, InconclusiveError,
                     ResourceLimitError)
# solve_spd stays bound here: bench/tracing.py wraps every binding site
from .kernels import loglog_fit, solve_spd, solve_tridiagonal  # noqa: F401

CIRCLE_MODE_CAP = 10 ** 7  # most angular modes counting_circle enumerates
FIT_POINTS = 11            # geometric mu per counting-law decade
MIN_DECADE_COUNT = 5       # fewest eigenvalues a counting-law decade needs
MIN_COUNT_R_SQUARED = 0.95


def counting_function(eigenvalues, mu):
    """N(mu; T): number of eigenvalues strictly greater than mu > 0."""
    if mu <= 0:
        raise DomainError("counting function needs mu > 0")
    eigenvalues = np.asarray(eigenvalues, dtype=float)
    return int(np.count_nonzero(eigenvalues > mu))


def eigen_spectrum(grid, lam, tol=1e-10):
    """Nonzero spectrum of the resolvent difference E_lam, ascending: the
    one row of ``eigen_spectra`` at the scalar ``lam``.  It takes one lam
    only: the benchmark's tracer wraps it and reads its result as one
    spectrum.  A sweep goes to ``eigen_spectra``."""
    return eigen_spectra(grid, [lam], tol=tol)[0]


def eigen_spectra(grid, lambdas, tol=1e-10):
    """Nonzero spectra of E_lam over a coupling sweep, one ascending row
    per lam of the sequence ``lambdas``: an array (len(lambdas), rank).

    Let Z be the coupled matrix A of a block of ``grid.mode_bands``
    applied, inversely, to a unit load on each interface node.  The
    Schur complement of A on the interface Gamma is Sigma = Z_GammaGamma^-1
    and the exterior rows of A^-1 A_rGamma are -Z_ext Sigma, so

        E_lam = Z_ext Z_GammaGamma^-1 Z_ext^T W

    with W the exterior measures.  E_lam has rank |Gamma|, and its
    nonzero eigenvalues, the only ones returned, are those of the pencil
    (G, Z_GammaGamma) with G = Z_ext^T W Z_ext.  lam enters only the
    diagonal of the blocks, so one batched tridiagonal solve serves every
    lam and every block: the interval is one block with two interface
    nodes, and on the disk each angular mode k is a block with one, whose
    eigenvalue G / Z_GammaGamma modes k and -k share.  Each row is, to
    the bit, what a sweep of one lam gives.
    """
    lams = np.asarray(lambdas, dtype=float)
    gamma, ext = grid.gamma_rows[:, 0], grid.ext_rows
    measure = grid.row_measure
    loads = np.zeros((gamma.size, 1, 1, measure.size))
    loads[np.arange(gamma.size), 0, 0, gamma] = 1.0
    z = solve_tridiagonal(*grid.mode_bands(lams[:, None, None]), loads,
                          tol=tol)
    z_ext = z[..., ext]
    gram = np.einsum("ilbn,jlbn,n->lbij", z_ext, z_ext, measure[ext])
    try:
        chol = np.linalg.cholesky(np.moveaxis(z[..., gamma], 0, -2))
    except np.linalg.LinAlgError as err:
        raise ContractError(f"interface block of A^-1 not SPD: {err}")
    half = np.linalg.inv(chol)
    values = np.linalg.eigvalsh(half @ gram @ np.swapaxes(half, -1, -2))
    values = np.repeat(values, grid.mode_multiplicity, axis=1)
    return np.sort(values.reshape(len(values), -1), axis=1)


def trace_map_norm(grid, tol=1e-10):
    """Operator norm of S = gamma1 o exterior^{-1} from L^2(exterior) to
    L^2(interface).

    With T the exterior gamma1 rows, K the exterior form matrix and G, W
    the interface and exterior measures, ||S||^2 is the top eigenvalue of
    Z^T W Z with Z = K^{-1} T^T G^{1/2}.  K is ``grid.exterior_bands``,
    so Z is one batched solve and Z^T W Z is taken block by block; on the
    disk T is the same stencil row in every mode.
    """
    coeffs = grid.gamma1_stencil("exterior")[0]
    layers, ext = grid.gamma_rows, grid.ext_rows
    lower, diag, upper = grid.exterior_bands()
    # one load per interface node of a block: its row of T^T G^{1/2}
    p = len(layers)
    loads = np.zeros((p, 1, ext.size))
    loads[np.arange(p)[:, None], 0, np.searchsorted(ext, layers[:, 1:])] = (
        np.sqrt(grid.gamma_weights[:p, None]) * coeffs[1:])
    z = solve_tridiagonal(lower, diag, upper, loads, tol=tol)
    gram = np.einsum("ibn,jbn,n->bij", z, z, grid.row_measure[ext])
    return math.sqrt(float(np.linalg.eigvalsh(gram).max()))


# ---------------------------------------------------------------------------
# interface difference operator on the circle


def circle_difference_eigenvalue(radius, lam, k):
    """Angular-mode eigenvalue of the interface difference operator on a
    circle: w_k = 1 / (|k|/R + sqrt((k/R)^2 + lam))."""
    if lam < 1:
        raise DomainError("circle model expects lam >= 1")
    xi = abs(k) / radius
    return 1.0 / (xi + math.sqrt(xi * xi + lam))


def counting_circle(radius, lam, mu):
    """Exact count of circle modes with w_k > mu, by enumeration.

    Raises ResourceLimitError when the band to enumerate holds more than
    CIRCLE_MODE_CAP modes, rather than returning a truncated count.
    """
    if mu <= 0:
        raise DomainError("needs mu > 0")
    # w_k > mu requires |k| < R (1/mu - lam mu) / 2; enumerate a safe band
    bound = radius * (1.0 / mu - lam * mu) / 2.0
    if bound < 0:
        return 0
    top = int(bound) + 2
    if top > CIRCLE_MODE_CAP:
        raise ResourceLimitError(
            f"circle count needs {top} modes, more than {CIRCLE_MODE_CAP}")
    count = 1 if circle_difference_eigenvalue(radius, lam, 0) > mu else 0
    xi = np.arange(1, top + 1) / radius
    w = 1.0 / (xi + np.sqrt(xi * xi + lam))
    return count + 2 * int(np.count_nonzero(w > mu))


def circle_count_prediction(radius, lam, mu):
    """Phase-space prediction for the circle count: R (1/mu - lam mu)_+ ."""
    return radius * max(0.0, 1.0 / mu - lam * mu)


# ---------------------------------------------------------------------------
# comparison inequalities and asymptotics


def birman_synthetic_check(n_instances=100, dim_domain=8, dim_range=3,
                           seed=0):
    """Brute-force the abstract counting comparison on random low-rank
    sandwiches T1 = S* T2 S with ||S|| = 1: N(mu; T1) <= N(mu; T2) must
    hold at every mu.  Returns the number of violations (0 expected).
    All instances are drawn, and their spectra taken, as one batch.
    """
    rng = np.random.default_rng(seed)
    t2_diag = 1.0 / np.arange(1, dim_range + 1)
    s = rng.standard_normal((n_instances, dim_range, dim_domain))
    s /= np.linalg.norm(s, 2, axis=(1, 2))[:, None, None]
    t1 = np.swapaxes(s, 1, 2) @ np.diag(t2_diag) @ s
    eig1 = np.linalg.eigvalsh(0.5 * (t1 + np.swapaxes(t1, 1, 2)))
    return _comparison_violations(eig1, t2_diag)


def _comparison_violations(eig1, t2_diag):
    """Count the probes mu at which N(mu; T1) > N(mu; T2), per row of the
    (instances, dim) spectra ``eig1`` against the one spectrum ``t2_diag``.

    Each row is probed at every spectral edge above the eigensolver noise
    floor (the entries of ``t2_diag`` and of the row above 1e-12) and at
    1e-9 and 10, each raised by a relative 1e-12 to break exact ties
    conservatively.
    """
    eig1 = np.asarray(eig1, dtype=float)
    t2_diag = np.asarray(t2_diag, dtype=float)
    fixed = np.concatenate([t2_diag, [1e-9, 10.0]])
    # an edge below the floor becomes a NaN probe, which counts nothing
    mus = np.concatenate([np.broadcast_to(fixed, (len(eig1), fixed.size)),
                          np.where(eig1 > 1e-12, eig1, np.nan)], axis=1)
    shifted = mus[:, :, None] * (1.0 + 1e-12)
    count1 = np.count_nonzero(eig1[:, None, :] > shifted, axis=2)
    count2 = np.count_nonzero(t2_diag > shifted, axis=2)
    return int(np.count_nonzero(count1 > count2))


def birman_disk_check(eigenvalues, s_norm, radius, lam, mu_grid, slack=2):
    """Check N(mu; E) <= N(mu/||S||^2; circle model) + slack per mu.

    ``slack`` absorbs the curvature corrections the flat-symbol circle
    model omits; violations are reported, not raised.
    """
    moduli = np.abs(np.asarray(eigenvalues, dtype=float))
    rows = []
    for mu in mu_grid:
        lhs = counting_function(moduli, mu)
        rhs = counting_circle(radius, lam, mu / s_norm ** 2)
        rows.append({"mu": float(mu), "count_difference": lhs,
                     "count_circle": rhs, "holds": lhs <= rhs + slack})
    return rows


def weyl_exponent_fit(eigenvalues):
    """Slope of log N(mu) vs log mu over ``FIT_POINTS`` geometric mu in the
    decade below 0.95 x the largest modulus (the regime the desk-scale
    spectra resolve cleanly); fewer than ``MIN_DECADE_COUNT`` eigenvalues
    above its smallest mu make the fit inconclusive."""
    moduli = np.abs(np.asarray(eigenvalues, dtype=float))
    mu_hi = 0.95 * float(moduli.max())
    mu_grid = np.geomspace(mu_hi, mu_hi / 10.0, FIT_POINTS)
    counts = np.array([counting_function(moduli, mu) for mu in mu_grid])
    if counts[-1] < MIN_DECADE_COUNT:
        raise InconclusiveError(
            f"only {counts[-1]} eigenvalues above the smallest mu")
    return loglog_fit(mu_grid, counts, MIN_COUNT_R_SQUARED)


def circle_model_exponent_fit(radius, lam):
    """Count slope of the pure circle model over the mu-decade below
    1 / (25 sqrt(lam)), well inside the 1/mu regime: the enumeration of
    the angular-mode eigenvalues is the ground truth, and the counts
    follow R/mu there, so the slope sits at -1 with no discretization
    noise."""
    mu_hi = 1.0 / (25.0 * math.sqrt(lam))
    mu_grid = np.geomspace(mu_hi, mu_hi / 10.0, FIT_POINTS)
    counts = np.array([counting_circle(radius, lam, mu) for mu in mu_grid])
    if counts[0] < MIN_DECADE_COUNT:
        raise InconclusiveError(
            f"mu decade starts with fewer than {MIN_DECADE_COUNT} modes")
    return loglog_fit(mu_grid, counts, MIN_COUNT_R_SQUARED)
