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
``Grid1D``), and the spectrum of E_lam and the norm of S each come from
one batched tridiagonal solve over the blocks.  No sparse matrix is
formed; the tests keep the sparse interface Schur complement as the
oracle.
"""

import math

import numpy as np

from .errors import (ContractError, DomainError, InconclusiveError,
                     ResourceLimitError)
from .geometry import chart_atlas, metric_matrix, unit_normal
from .grids import PolarGrid
# solve_spd stays bound here: bench/tracing.py wraps every binding site
from .kernels import loglog_fit, solve_spd, solve_tridiagonal  # noqa: F401

SPHERE_QUAD_POINTS = 512
CIRCLE_MODE_CAP = 10 ** 7  # most angular modes counting_circle enumerates


def counting_function(eigenvalues, mu):
    """N(mu; T): number of eigenvalues strictly greater than mu > 0."""
    if mu <= 0:
        raise DomainError("counting function needs mu > 0")
    eigenvalues = np.asarray(eigenvalues, dtype=float)
    return int(np.count_nonzero(eigenvalues > mu))


def _band_layout(grid):
    """Where the blocks of ``grid.mode_bands`` hold the problem: the rows
    of each interface node of a block and of the two exterior layers
    behind it (one row of three per node), the exterior rows, the
    measure of every row and how many modes share each block."""
    if isinstance(grid, PolarGrid):
        g = grid.nr_int
        return (g + np.arange(3)[None, :], np.arange(g + 1, grid.ntot + 1),
                grid.ring_measure, grid.mode_multiplicity)
    layers = grid.interface_idx[:, None] + np.outer([-1, 1], np.arange(3))
    return layers, grid.ext_idx, grid.w_full, np.ones(1, dtype=int)


def eigen_spectrum(grid, lam, tol=1e-10):
    """Nonzero spectrum of the resolvent difference E_lam, ascending.

    Let Z be the coupled matrix A of a block of ``grid.mode_bands``
    applied, inversely, to a unit load on each interface node.  The
    Schur complement of A on the interface Gamma is Sigma = Z_GammaGamma^-1
    and the exterior rows of A^-1 A_rGamma are -Z_ext Sigma, so

        E_lam = Z_ext Z_GammaGamma^-1 Z_ext^T W

    with W the exterior measures.  E_lam has rank |Gamma|, and its
    nonzero eigenvalues, the only ones returned, are those of the pencil
    (G, Z_GammaGamma) with G = Z_ext^T W Z_ext.  One batched tridiagonal
    solve serves every block: the interval is one block with two
    interface nodes, and on the disk each angular mode k is a block with
    one, whose eigenvalue G / Z_GammaGamma modes k and -k share.
    """
    layers, ext, measure, multiplicity = _band_layout(grid)
    gamma = layers[:, 0]
    loads = np.zeros((gamma.size, 1, measure.size))
    loads[np.arange(gamma.size), 0, gamma] = 1.0
    z = solve_tridiagonal(*grid.mode_bands(lam), loads, tol=tol)
    gram = np.einsum("ibn,jbn,n->bij", z[..., ext], z[..., ext], measure[ext])
    try:
        chol = np.linalg.cholesky(np.moveaxis(z[..., gamma], 0, 1))
    except np.linalg.LinAlgError as err:
        raise ContractError(f"interface block of A^-1 not SPD: {err}")
    half = np.linalg.inv(chol)
    values = np.linalg.eigvalsh(half @ gram @ np.swapaxes(half, 1, 2))
    return np.sort(np.repeat(values, multiplicity, axis=0), axis=None)


def trace_map_norm(grid, tol=1e-10):
    """Operator norm of S = gamma1 o exterior^{-1} from L^2(exterior) to
    L^2(interface).

    With T the exterior gamma1 rows, K the exterior form matrix and G, W
    the interface and exterior measures, ||S||^2 is the top eigenvalue of
    Z^T W Z with Z = K^{-1} T^T G^{1/2}.  K is the exterior rows of the
    blocks of ``grid.mode_bands`` (Dirichlet on Gamma, which leaves
    exterior pieces on either side of it decoupled), so Z is one batched
    solve and Z^T W Z is taken block by block; on the disk T is the same
    stencil row in every mode.
    """
    coeffs = grid.gamma1_stencil("exterior")[0]
    layers, ext, measure, _ = _band_layout(grid)
    lower, diag, upper = (band[:, ext] for band in grid.mode_bands())
    cut = np.flatnonzero(np.diff(ext) > 1)
    upper[:, cut] = 0.0
    lower[:, cut + 1] = 0.0
    # one load per interface node of a block: its row of T^T G^{1/2}
    p = len(layers)
    loads = np.zeros((p, 1, ext.size))
    loads[np.arange(p)[:, None], 0, np.searchsorted(ext, layers[:, 1:])] = (
        np.sqrt(grid.gamma_weights[:p, None]) * coeffs[1:])
    z = solve_tridiagonal(lower, diag, upper, loads, tol=tol)
    gram = np.einsum("ibn,jbn,n->bij", z, z, measure[ext])
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


def sphere_slice_integral(chart, xp, n):
    """Angular integral I_n = int_{S^{n-2}} (1 - |nu'.theta'|^2)^{-(n-1)/2}.

    n = 2: two-point sphere, closed form 2 / sqrt(1 - nu_1'^2);
    n = 3: periodic trapezoid over the unit circle.
    Satisfies omega_{n-2} <= I_n <= omega_{n-2} A_nn^{(n-1)/2}.
    """
    nu = unit_normal(chart, xp)
    nu_p = nu[:-1]
    t2 = float(nu_p @ nu_p)
    if t2 >= 1.0:
        raise DomainError("tangential normal part must satisfy |nu'| < 1")
    if n == 2:
        return 2.0 / math.sqrt(1.0 - t2)
    if n == 3:
        phi = 2 * np.pi * (np.arange(SPHERE_QUAD_POINTS) + 0.5) / SPHERE_QUAD_POINTS
        theta = np.stack([np.cos(phi), np.sin(phi)])
        dots = nu_p @ theta
        vals = (1.0 - dots ** 2) ** (-1.0)
        return float(vals.mean() * 2 * np.pi)
    raise DomainError(f"sphere slice integral wired for n in (2, 3), got {n}")


def weyl_rhs(domain, lam, mu, s_norm, n_charts=64):
    """Boundary quadrature of the phase-space counting formula.

    Evaluates (4 pi)^{1-n}/(n-1) * sum I_n (sqrt(A_nn)/mu~ -
    lam mu~/sqrt(A_nn))_+^{n-1} dsigma with mu~ = mu / s_norm^2, using
    tangent charts at the quadrature base points (where A_nn = 1 and the
    arc-length weights already carry the surface measure); n = 2.
    """
    if mu <= 0:
        raise DomainError("needs mu > 0")
    mu_eff = mu / s_norm ** 2
    atlas = chart_atlas(domain, n_charts, fit_support=False)
    total = 0.0
    for entry in atlas:
        ann = metric_matrix(entry.chart, 0.0)[-1, -1]
        root = math.sqrt(ann)
        clipped = max(0.0, root / mu_eff - lam * mu_eff / root)
        total += sphere_slice_integral(entry.chart, 0.0, 2) * clipped * entry.weight
    return total / (4.0 * np.pi)


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


def weyl_exponent_fit(eigenvalues, mu_hi=None, mu_lo=None, points=11,
                      min_counts=5):
    """Slope of log N(mu) vs log mu over a geometric mu-decade.

    The grid defaults to the decade just below the largest modulus (the
    regime the desk-scale spectra resolve cleanly) with at least
    ``min_counts`` eigenvalues at the small end; too few eigenvalues
    flags the fit as inconclusive.
    """
    moduli = np.abs(np.asarray(eigenvalues, dtype=float))
    top = float(moduli.max())
    if mu_hi is None:
        mu_hi = 0.95 * top
    if mu_lo is None:
        mu_lo = mu_hi / 10.0
    mu_grid = np.geomspace(mu_hi, mu_lo, points)
    counts = np.array([counting_function(moduli, mu) for mu in mu_grid])
    if counts[-1] < min_counts:
        raise InconclusiveError(
            f"only {counts[-1]} eigenvalues above the smallest mu")
    keep = counts > 0
    slope, intercept, r2 = loglog_fit(mu_grid[keep], counts[keep])
    return {"slope": slope, "intercept": intercept, "r_squared": r2,
            "mu_grid": mu_grid, "counts": counts}


def circle_model_exponent_fit(radius, lam, mu_hi=None, points=11):
    """Count slope of the pure circle model over a small-mu decade.

    The enumeration of the angular-mode eigenvalues is the ground truth;
    deep in the decade the counts follow R/mu, so the fitted slope sits
    at -1 without any discretization noise.
    """
    if mu_hi is None:
        mu_hi = 1.0 / (25.0 * math.sqrt(lam))  # well inside the 1/mu regime
    mu_grid = np.geomspace(mu_hi, mu_hi / 10.0, points)
    counts = np.array([counting_circle(radius, lam, mu) for mu in mu_grid])
    if counts[0] < 5:
        raise InconclusiveError("mu decade starts with fewer than 5 modes")
    slope, intercept, r2 = loglog_fit(mu_grid, counts)
    return {"slope": slope, "intercept": intercept, "r_squared": r2,
            "mu_grid": mu_grid, "counts": counts}
