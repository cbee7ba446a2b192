"""Spectral counting: eigenvalues of the resolvent difference, the
interface-model counting laws, and the comparison inequalities.

The counting function N(mu; T) counts eigenvalues exceeding mu (strict);
it and the circle count take one mu or an array of them.
For the symmetric resolvent difference the moduli of the eigenvalues are
the singular values, and the chain of comparisons runs

    N(mu; E_lam)  <=  N(mu / ||S||^2 ; interface difference operator)
                  ~   Weyl phase-space volume,

with S = (exterior trace of normal derivative) o (exterior solve).
On the disk the interface operator diagonalizes in angular modes with
eigenvalues w_k, ``interface``'s flat W at xi = |k|/R, so both sides of
the chain are computable exactly.  So does the discrete problem: every
grid supplies its coupled matrix as tridiagonal blocks (``mode_bands``:
one per angular mode on a ``PolarGrid``, one over the nodes on a
``Grid1D``) and the place of the interface in them (``gamma_rows``,
``ext_rows``, ``row_measure``, ``mode_multiplicity``), and the spectrum
of E_lam and the norm of S each come from one batched tridiagonal solve
over the blocks, with no branch on the geometry.  lam enters only the
diagonal, so ``eigen_spectra`` takes a whole coupling sweep in that one
solve, and ``eigen_spectrum`` is its single-lam row; ``difference_norms``
takes ||E_lam|| from block 0 alone.  No sparse matrix is formed; the
tests keep the sparse interface Schur complement as the oracle.

The two counting-law fits return a ``kernels.Fit`` of N(mu) against mu
over one decade, conclusive at r^2 >= ``MIN_COUNT_R_SQUARED``.

Nothing here draws random numbers: the chain's abstract step, the
min-max theorem N(mu; S* T S) <= N(mu / ||S||^2; T) for matrices, is a
property test of the suite, and a run checks only the disk's counts.
"""

import math

import numpy as np

from .errors import (ContractError, DomainError, InconclusiveError,
                     ResourceLimitError)
from .interface import flat_difference
from .kernels import check_coupling, loglog_fit, solve_tridiagonal
# solve_spd stays bound here: bench/tracing.py wraps every binding site
from .kernels import solve_spd  # noqa: F401

CIRCLE_MODE_CAP = 10 ** 7  # widest mode band 1..top counting_circle takes
FIT_POINTS = 11            # geometric mu per counting-law decade
MIN_DECADE_COUNT = 5       # fewest eigenvalues a counting-law decade needs
MIN_COUNT_R_SQUARED = 0.95


def counting_function(eigenvalues, mu):
    """N(mu; T): number of eigenvalues strictly greater than mu > 0, at one
    mu (an ``int``) or an array (an integer array), by bisection in the
    sorted eigenvalues.  A NaN eigenvalue never counts and a NaN mu counts
    nothing; any mu <= 0 raises DomainError."""
    mus = np.asarray(mu, dtype=float)
    if np.any(mus <= 0):
        raise DomainError("counting function needs mu > 0")
    values = np.asarray(eigenvalues, dtype=float).ravel()
    values = np.sort(values[~np.isnan(values)])
    counts = values.size - np.searchsorted(values, mus, side="right")
    return int(counts) if counts.ndim == 0 else counts


def eigen_spectrum(grid, lam):
    """Nonzero spectrum of the resolvent difference E_lam, ascending: the
    one row of ``eigen_spectra`` at the scalar ``lam``.  It takes one lam
    only: the benchmark's tracer wraps it and reads its result as one
    spectrum.  A sweep goes to ``eigen_spectra``."""
    return eigen_spectra(grid, [lam])[0]


def eigen_spectra(grid, lambdas):
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

    Below lam = 1 the rows lose accuracy: the Neumann problem's constant
    is a near-null vector of A as lam -> 0, so the solves Z = A^-1 e_Gamma
    carry an error of order kappa(A) eps.  So monotonicity in lam is
    tested for lam >= 1 only, by
    ``test_each_eigenvalue_does_not_rise_with_the_coupling``.
    """
    values = np.repeat(_pencil(grid, lambdas), grid.mode_multiplicity, 1)
    return np.sort(values.reshape(len(values), -1), axis=1)


def difference_norms(grid, lambdas):
    """||E_lam|| for each lam of the sequence ``lambdas``: the top of
    block 0's pencil, to the bit the last column of ``eigen_spectra``.

    A ``Grid1D`` has one block.  On a ``PolarGrid`` mode k's eigenvalue is
    e_k = G_k / Sigma_k, with Sigma_k = min {v^T A_k v : v_Gamma = 1} and
    G_k the exterior measure of the lam-free lift L_k = A_EE,k^-1
    (-A_EGamma).  A_k adds alpha_k diag(angular_conductance) to a radial
    chain; alpha_k = 2 (1 - cos k htheta) is nondecreasing on k = 0 ..
    ntheta // 2, the radial links and A_EGamma are the same in every mode,
    and the origin row is decoupled for k >= 1.  So Sigma_k does not fall
    (mode 0 at a zero origin value has mode 1's form less alpha_1's term),
    and as Stieltjes matrices with A_EE,k <= A_EE,k+1, A_EE,k^-1 -
    A_EE,k+1^-1 = A_EE,k^-1 (A_EE,k+1 - A_EE,k) A_EE,k+1^-1 >= 0 (Berman
    and Plemmons ch. 6), so L_k >= L_k+1 >= 0 and G_k does not rise.
    """
    return _pencil(grid, lambdas, blocks=slice(1))[:, 0, -1]


def _pencil(grid, lambdas, blocks=None):
    """Ascending eigenvalues of the pencil (G, Z_GammaGamma) per lam and
    per block of ``mode_bands(lam, blocks)``, one solve: (lams, blocks, p)."""
    gamma, ext = grid.gamma_rows[:, 0], grid.ext_rows
    measure = grid.row_measure
    loads = np.zeros((gamma.size, 1, 1, measure.size))
    loads[np.arange(gamma.size), 0, 0, gamma] = 1.0
    lams = np.asarray(lambdas, dtype=float)[:, None, None]
    z = solve_tridiagonal(*grid.mode_bands(lams, blocks), loads)
    z_ext = z[..., ext]
    gram = np.einsum("ilbn,jlbn,n->lbij", z_ext, z_ext, measure[ext])
    try:
        chol = np.linalg.cholesky(np.moveaxis(z[..., gamma], 0, -2))
    except np.linalg.LinAlgError as err:
        raise ContractError(f"interface block of A^-1 not SPD: {err}")
    half = np.linalg.inv(chol)
    return np.linalg.eigvalsh(half @ gram @ np.swapaxes(half, -1, -2))


def trace_map_norm(grid):
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
    z = solve_tridiagonal(lower, diag, upper, loads)
    gram = np.einsum("ibn,jbn,n->bij", z, z, grid.row_measure[ext])
    return math.sqrt(float(np.linalg.eigvalsh(gram).max()))


# ---------------------------------------------------------------------------
# interface difference operator on the circle


def circle_difference_eigenvalue(radius, lam, k):
    """Angular-mode eigenvalue of the interface difference operator on a
    circle: w_k = ``interface.flat_difference`` at xi = |k|/R, at one
    integer k (a ``float``) or elementwise over an integer array, each
    entry the scalar call's to the bit."""
    check_coupling(lam)
    w = flat_difference(np.abs(k) / radius, lam)
    return float(w) if np.ndim(k) == 0 else w


def counting_circle(radius, lam, mu):
    """Exact count of circle modes with w_k > mu, at one mu (an ``int``) or
    an array (an integer array): what enumerating w_k over |k| <= top,
    top = floor(bound) + 2 with bound = R (1/mu - lam mu) / 2, would give.

    w_k > mu exactly when |k| < bound, and in floating point w_k is
    nonincreasing in |k| (each IEEE operation in it is monotone), so the
    counted modes 1 <= k <= top are a prefix.  At k <= top - 4 <= bound - 2
    the gap w_k / mu - 1 is about 2 mu / R or more, and the rounding error
    of bound about 1e-16 R / mu: both harmless while R / mu << 1e16, which
    under the cap fails only at the crossover mu ~ 1/sqrt(lam) with
    R sqrt(lam) near 1e17.  So only k = top - 4, which confirms the
    prefix, and the last four k are evaluated, with the enumeration's own
    expression; a mu whose confirmation fails is enumerated.

    Raises DomainError unless 1 <= lam < inf, and ResourceLimitError if
    the band of any mu holds more than CIRCLE_MODE_CAP modes: past it
    neither the margin nor the fallback enumeration is bounded.
    """
    check_coupling(lam)
    mus = np.asarray(mu, dtype=float)
    if not np.all(mus > 0):
        raise DomainError("needs mu > 0")
    flat = mus.ravel()
    bound = radius * (1.0 / flat - lam * flat) / 2.0
    inside = bound >= 0
    top = np.where(inside, np.floor(bound) + 2, 0.0)
    if np.any(top > CIRCLE_MODE_CAP):
        raise ResourceLimitError(f"circle count needs {top.max():.0f} modes,"
                                 f" more than {CIRCLE_MODE_CAP}")
    counts = np.zeros(flat.shape, dtype=np.int64)
    if np.any(inside):
        zero = circle_difference_eigenvalue(radius, lam, 0) > flat
        top = top.astype(np.int64)
        k = top[:, None] + np.arange(-4, 1)
        above = circle_difference_eigenvalue(radius, lam, k) > flat[:, None]
        modes = np.maximum(top - 4, 0) + np.count_nonzero(
            above[:, 1:] & (k[:, 1:] >= 1), axis=1)
        for i in np.flatnonzero(inside & (top > 4) & ~above[:, 0]):
            modes[i] = _enumerated_modes(radius, lam, flat[i], top[i])
        counts = np.where(inside, zero + 2 * modes, 0)
    counts = counts.reshape(mus.shape)
    return int(counts) if counts.ndim == 0 else counts


def _enumerated_modes(radius, lam, mu, top):
    """Number of modes 1 <= k <= top with w_k > mu, by enumeration."""
    w = circle_difference_eigenvalue(radius, lam, np.arange(1, top + 1))
    return int(np.count_nonzero(w > mu))


def circle_count_prediction(radius, lam, mu):
    """Phase-space prediction for the circle count: R (1/mu - lam mu)_+ ,
    at one mu or elementwise over an array."""
    return radius * np.maximum(0.0, 1.0 / mu - lam * mu)


# ---------------------------------------------------------------------------
# comparison inequalities and asymptotics


def birman_disk_check(eigenvalues, s_norm, radius, lam, mu_grid, slack):
    """Check N(mu; E) <= N(mu/||S||^2; circle model) + slack per mu.

    ``slack`` absorbs the curvature corrections the flat-symbol circle
    model omits; violations are reported, not raised.
    """
    mus = np.asarray(mu_grid, dtype=float)
    lhs = counting_function(np.abs(np.asarray(eigenvalues, dtype=float)), mus)
    rhs = counting_circle(radius, lam, mus / s_norm ** 2)
    return [{"mu": float(mu), "count_difference": int(left),
             "count_circle": int(right), "holds": bool(left <= right + slack)}
            for mu, left, right in zip(mus, lhs, rhs)]


def weyl_exponent_fit(eigenvalues):
    """Slope of log N(mu) vs log mu over ``FIT_POINTS`` geometric mu in the
    decade below 0.95 x the largest modulus (the regime the desk-scale
    spectra resolve cleanly); fewer than ``MIN_DECADE_COUNT`` eigenvalues
    above its smallest mu make the fit inconclusive."""
    moduli = np.abs(np.asarray(eigenvalues, dtype=float))
    mu_hi = 0.95 * float(moduli.max())
    mu_grid = np.geomspace(mu_hi, mu_hi / 10.0, FIT_POINTS)
    counts = counting_function(moduli, mu_grid)
    if counts[-1] < MIN_DECADE_COUNT:
        raise InconclusiveError(
            f"only {counts[-1]} eigenvalues above the smallest mu")
    return loglog_fit(mu_grid, counts, MIN_COUNT_R_SQUARED)


def circle_model_exponent_fit(radius, lam):
    """Count slope of the pure circle model over the mu-decade below
    1 / (25 sqrt(lam)), well inside the 1/mu regime: the exact count of
    the angular-mode eigenvalues is the ground truth, and the counts
    follow R/mu there, so the slope sits at -1 with no discretization
    noise."""
    check_coupling(lam)
    mu_hi = 1.0 / (25.0 * math.sqrt(lam))
    mu_grid = np.geomspace(mu_hi, mu_hi / 10.0, FIT_POINTS)
    counts = counting_circle(radius, lam, mu_grid)
    if counts[0] < MIN_DECADE_COUNT:
        raise InconclusiveError(
            f"mu decade starts with fewer than {MIN_DECADE_COUNT} modes")
    return loglog_fit(mu_grid, counts, MIN_COUNT_R_SQUARED)
