"""Linear-algebra kernels: SPD solves, batched tridiagonal solves by
cyclic reduction and their band products, power iteration, dense
symmetric spectra, and the one log-log ``Fit`` behind every fitted slope
of the lab.

Sparse and dense work is delegated to LAPACK via numpy/scipy, and the
tridiagonal batches are reduced level by level in numpy; every kernel
checks its own contract (residual, symmetry, spectral identities) after
the fact so downstream experiments never consume a silently bad solve.
``check_sweep``, what makes a coupling sweep, is stated here once.
The experiments run on the one tridiagonal kernel alone, which gates
every solve at the one constant ``DEFAULT_SOLVE_TOL``.  The sparse SPD
path, one sparse LU for every matrix, serves the tests as an oracle; its
``tol``, guarded by ``check_tol``, lets them refine further.  It imports
``scipy.sparse`` inside the functions that use it, so importing the lab
loads no scipy; no experiment uses it.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (ContractError, ConvergenceError, DomainError,
                     ResourceLimitError)

DEFAULT_SOLVE_TOL = 1e-10
MAX_DENSE_DIM = 4096
SYMMETRY_TRIALS = 3      # random pairs behind each operator symmetry check
POWER_MAX_ITER = 5000
EIGEN_SPOT_CHECKS = 10   # random eigenpairs whose residual is checked
FLAT_SPREAD_DECADES = 0.1   # y spreading less than this gives slope ~ 0


def check_tol(tol):
    """Raise ContractError unless the solve tolerance ``tol`` of the
    sparse SPD oracle (``solve_spd``) lies in (0, 1e-6]."""
    if not 0.0 < tol <= 1e-6:
        raise ContractError(f"must lie in (0, 1e-6], not {tol}")


def check_sweep(lambdas):
    """A coupling sweep as an array: at least three positive, finite,
    strictly increasing points, or DomainError."""
    lambdas = np.asarray(lambdas, dtype=float)
    if len(lambdas) < 3 or not (np.isfinite(lambdas).all() and lambdas[0] > 0
                                and (np.diff(lambdas) > 0).all()):
        raise DomainError("sweep must be >= 3 positive, finite, increasing "
                          "points")
    return lambdas


def _check_backward_error(what, residual, tol):
    """Raise ConvergenceError, carrying the worst of the backward errors
    ``residual``, unless it is within ``tol``; a NaN never is."""
    worst = float(np.max(residual))
    if not worst <= tol:
        raise ConvergenceError(f"{what} solve backward error {worst:.3e} "
                               f"exceeds tol {tol:.1e}", residual=worst)


def require_symmetric(mat, tol=1e-14):
    """Raise unless the sparse/dense matrix is symmetric to relative ``tol``."""
    if isinstance(mat, np.ndarray):
        worst = np.abs(mat - mat.T).max()
        scale = np.abs(mat).max()
    else:  # a scipy.sparse matrix
        gap = abs(mat - mat.T)
        worst = gap.max() if gap.nnz else 0.0
        scale = abs(mat).max()
    if worst > tol * max(scale, 1.0):
        raise ContractError(f"matrix not symmetric: |A-A^T| = {worst:.3e}")


class _Factorization:
    """Cached sparse LU factorization of a symmetric positive definite
    matrix.  ``norm_inf`` caches ||mat||_inf for the backward-error check.
    """

    def __init__(self, mat):
        import scipy.sparse.linalg
        mat = scipy.sparse.csr_matrix(mat)
        self.mat = mat
        self.norm_inf = scipy.sparse.linalg.norm(mat, np.inf)
        self._solve = scipy.sparse.linalg.splu(
            mat.tocsc(), permc_spec="MMD_AT_PLUS_A").solve

    def solve(self, rhs):
        return self._solve(np.asarray(rhs, dtype=float))


def backward_error(mat, x, rhs, mat_scale=None):
    """Normwise backward error ||mat x - rhs|| / (||mat|| ||x|| + ||rhs||)
    of a solve with sparse ``mat``; ``mat_scale`` caches ||mat||_inf."""
    if mat_scale is None:
        import scipy.sparse.linalg
        mat_scale = scipy.sparse.linalg.norm(mat, np.inf)
    return float(_normwise_error(mat @ x, mat_scale, x, rhs))


def solve_spd(mat, rhs, tol=DEFAULT_SOLVE_TOL, cache=None):
    """Solve ``mat @ x = rhs`` for symmetric positive definite ``mat``.

    The normwise ``backward_error`` is verified against ``tol`` after
    the solve (with up to three rounds of iterative refinement); a
    violation raises ConvergenceError with the measured residual
    attached.  The backward-error metric is the one a direct solver can
    actually meet uniformly in the mesh: the raw ||.||/||rhs|| ratio is
    floored by eps * ||mat|| ||x|| / ||rhs||, which exceeds 1e-10 on the
    finest stiffness-scaled grids.
    """
    check_tol(tol)
    fact = cache if cache is not None else _Factorization(mat)
    rhs = np.asarray(rhs, dtype=float)
    if not np.any(rhs):
        return np.zeros_like(rhs)
    x = fact.solve(rhs)
    residual = backward_error(fact.mat, x, rhs, fact.norm_inf)
    for _ in range(3):  # iterative refinement against the residual contract
        if residual <= 0.1 * tol:
            break
        x = x + fact.solve(rhs - fact.mat @ x)
        residual = backward_error(fact.mat, x, rhs, fact.norm_inf)
    _check_backward_error("SPD", residual, tol)
    return x


def tridiagonal_apply(lower, diag, upper, x):
    """Band product of a tridiagonal batch (see ``solve_tridiagonal``)
    with ``x``, which may carry more leading axes."""
    ax = diag * x
    ax[..., 1:] += lower[..., 1:] * x[..., :-1]
    ax[..., :-1] += upper[..., :-1] * x[..., 1:]
    return ax


def _norms(v):
    """2-norms along the last axis, as dot products.  einsum does not
    conjugate, so a complex ``v`` sums its real and imaginary parts."""
    squares = np.einsum("...i,...i->...", v.real, v.real)
    if np.iscomplexobj(v):
        squares += np.einsum("...i,...i->...", v.imag, v.imag)
    return np.sqrt(squares)


def _normwise_error(ax, norm_inf, x, rhs):
    """||A x - rhs|| / (||A||_inf ||x|| + ||rhs||) along the last axis,
    from A x, which it overwrites with A x - rhs, and ||A||_inf."""
    ax -= rhs
    scale = norm_inf * _norms(x) + _norms(rhs)
    gap = _norms(ax)
    # NaN scales (a zero pivot) must stay NaN, so mask only exact zeros
    return np.divide(gap, scale, out=np.zeros_like(gap), where=scale != 0.0)


def tridiagonal_backward_error(lower, diag, upper, x, rhs):
    """Normwise backward error, as in ``backward_error``, of every system
    of a tridiagonal batch (see ``solve_tridiagonal``); one per system.
    The largest absolute row sum of each system is its inf-norm."""
    ax = tridiagonal_apply(lower, diag, upper, x)
    row_sums = np.abs(diag)
    part = np.abs(lower[..., 1:])
    row_sums[..., 1:] += part
    row_sums[..., :-1] += np.abs(upper[..., :-1], out=part)
    return _normwise_error(ax, row_sums.max(axis=-1), x, rhs)


def solve_tridiagonal(lower, diag, upper, rhs):
    """Solve a batch of tridiagonal systems by odd-even cyclic reduction.

    The bands have the shape (systems, n) and broadcast with ``rhs``,
    which may be complex and may carry more leading axes (several right
    sides per system); row i of system b reads

        lower[b, i] x[b, i-1] + diag[b, i] x[b, i] + upper[b, i] x[b, i+1]
            = rhs[b, i],

    with ``lower[:, 0]`` and ``upper[:, -1]`` ignored.  Each level of the
    reduction eliminates the even rows against their odd neighbours, so
    a chain of n rows takes ceil(log2 n) levels, each vectorized over the
    whole batch.  It does not pivot, which suits the positive definite or
    diagonally dominant blocks it serves.  The normwise backward error of
    every system must not exceed ``DEFAULT_SOLVE_TOL``, read at each
    call; ConvergenceError carries the worst (a zero pivot makes it NaN).
    """
    lower, diag, upper = (np.asarray(band, dtype=float)
                          for band in (lower, diag, upper))
    rhs = np.asarray(rhs)
    with np.errstate(divide="ignore", invalid="ignore"):
        x = _cyclic_reduction(-lower, diag, -upper, rhs)
        residual = tridiagonal_backward_error(lower, diag, upper, x, rhs)
    _check_backward_error("tridiagonal", residual, DEFAULT_SOLVE_TOL)
    return x


def _cyclic_reduction(neg_lower, diag, neg_upper, rhs):
    """One level of odd-even reduction along the last axis, recursing on
    the odd rows; its callers check the result.  It takes the negated
    off-diagonals, -lower and -upper: negation is exact, so every step
    rounds as it would on the bands themselves.  Its products go to
    arrays the level owns (``out=``) wherever one is free, never to its
    arguments, and each rounds as the plain expression would."""
    n = diag.shape[-1]
    if n == 1:
        return rhs / diag
    # odd row 2k + 1 has the even neighbours 2k and, for k < m_right, 2k + 2
    m_right = (n - 1) // 2
    left = neg_lower[..., 1::2] / diag[..., :-1:2]
    right = neg_upper[..., 1:-1:2] / diag[..., 2::2]
    diag_odd = np.multiply(left, neg_upper[..., :-1:2])
    np.subtract(diag[..., 1::2], diag_odd, out=diag_odd)
    # the last odd row's upper entry is ignored, like every last one; the
    # others hold right * neg_lower until they are set
    neg_upper_odd = np.zeros(diag_odd.shape)
    head = neg_upper_odd[..., :m_right]
    diag_odd[..., :m_right] -= np.multiply(right, neg_lower[..., 2::2],
                                           out=head)
    np.multiply(right, neg_upper[..., 2::2], out=head)
    rhs_odd = np.multiply(left, rhs[..., :-1:2])
    np.add(rhs[..., 1::2], rhs_odd, out=rhs_odd)
    rhs_odd[..., :m_right] += right * rhs[..., 2::2]
    neg_lower_odd = left * neg_lower[..., :-1:2]
    del left, right   # free what the back-substitution does not read
    x_odd = _cyclic_reduction(neg_lower_odd, diag_odd, neg_upper_odd,
                              rhs_odd)
    del neg_lower_odd, diag_odd, neg_upper_odd
    x = np.empty(x_odd.shape[:-1] + (n,), dtype=x_odd.dtype)
    x[..., 1::2] = x_odd
    x_even = x[..., ::2]
    x_even[...] = rhs[..., ::2]
    # rhs_odd, which nothing reads now, takes the products
    x_even[..., :x_odd.shape[-1]] += np.multiply(
        neg_upper[..., :-1:2], x_odd, out=rhs_odd)
    x_even[..., 1:] += np.multiply(
        neg_lower[..., 2::2], x_odd[..., :m_right], out=rhs_odd[..., :m_right])
    x_even /= diag[..., ::2]
    return x


def _check_action_symmetry(action, dim, rng, w, tol=1e-10):
    for _ in range(SYMMETRY_TRIALS):
        x = rng.standard_normal(dim)
        y = rng.standard_normal(dim)
        ax, ay = action(x), action(y)
        lhs = np.sum(w * ax * y)
        rhs = np.sum(w * x * ay)
        scale = (np.linalg.norm(ax) * np.linalg.norm(y)
                 + np.linalg.norm(x) * np.linalg.norm(ay) + 1e-300)
        if abs(lhs - rhs) > tol * scale:
            raise ContractError(
                f"operator action not symmetric: |(Ax,y)-(x,Ay)| = "
                f"{abs(lhs - rhs):.3e} vs scale {scale:.3e}")


def power_iteration_sym(action, dim, tol=1e-8, weights=None, seed=0):
    """Dominant eigenvalue (by modulus) of a symmetric operator action.

    ``action`` maps a vector to a vector; symmetry is with respect to the
    (optionally weighted) inner product and is spot-checked on random
    pairs before iterating.  Returns ``(value, vector)``.  Convergence is
    on the norm quotient, within ``POWER_MAX_ITER`` iterations.
    """
    rng = np.random.default_rng(seed)
    w = np.ones(dim) if weights is None else np.asarray(weights, dtype=float)
    _check_action_symmetry(action, dim, rng, w)

    def norm(a):
        return np.sqrt(float(np.sum(w * a * a)))

    v = rng.standard_normal(dim)
    v /= norm(v)
    mu_prev = None
    for _ in range(POWER_MAX_ITER):
        av = action(v)
        # norm quotient, not the Rayleigh quotient: it converges to the
        # spectral radius even when the top eigenvalues come in +/- pairs
        mu = norm(av)
        if mu == 0.0:
            break
        v = av / mu
        if mu_prev is not None and abs(mu - mu_prev) <= tol * max(mu, 1e-300):
            break
        mu_prev = mu
    else:
        raise ConvergenceError(
            f"power iteration stagnated after {POWER_MAX_ITER} iterations "
            f"(last value {mu:.6e})")
    return mu, v


def dense_eigen(mat, seed=0):
    """Full ascending spectrum of a dense symmetric matrix.

    Residuals ||A v - mu v|| <= 1e-9 ||A|| are spot-checked on random
    eigenpairs; LAPACK's symmetric solver makes this a formality but the
    contract is kept hot.
    """
    mat = np.asarray(mat, dtype=float)
    n = mat.shape[0]
    if n > MAX_DENSE_DIM:
        raise ResourceLimitError(f"dense eigensolve of dim {n} > {MAX_DENSE_DIM}")
    require_symmetric(mat, tol=1e-12)
    vals, vecs = np.linalg.eigh(mat)
    scale = max(np.abs(vals).max() if n else 0.0, 1e-300)
    rng = np.random.default_rng(seed)
    for idx in rng.choice(n, size=min(EIGEN_SPOT_CHECKS, n), replace=False):
        res = np.linalg.norm(mat @ vecs[:, idx] - vals[idx] * vecs[:, idx])
        if res > 1e-9 * scale:
            raise ContractError(f"eigenpair residual {res:.3e} exceeds 1e-9*|A|")
    return vals


@dataclass(frozen=True)
class Fit:
    """Least-squares line through (log10 x, log10 y) of the data as given,
    with the caller's predicted slope ``expected``, if any."""

    x: np.ndarray
    y: np.ndarray
    slope: float
    intercept: float
    r_squared: float
    flat: bool
    conclusive: bool
    expected: float | None = None


def loglog_fit(x, y, min_r_squared, expected=None):
    """Least-squares line of log10(y) against log10(x), in closed form on
    the centred data: slope = (dx . dy) / (dx . dx).  It is ``flat`` when
    y spans less than ``FLAT_SPREAD_DECADES`` (slope ~ 0 whatever r^2
    says), and ``conclusive`` when flat or when r^2 >= ``min_r_squared``.
    Raises ContractError unless x has two distinct values."""
    x, y = np.asarray(x), np.asarray(y)
    lx, ly = np.log10(x.astype(float)), np.log10(y.astype(float))
    if lx.size < 2 or not lx.max() > lx.min():
        raise ContractError("a log-log fit needs two distinct x values")
    mx, my = lx.mean(), ly.mean()
    dx, dy = lx - mx, ly - my
    slope = float(dx @ dy) / float(dx @ dx)
    residuals = dy - slope * dx
    ss_res, ss_tot = float(residuals @ residuals), float(dy @ dy)
    r_squared = 1.0 if ss_tot == 0.0 else max(0.0, 1.0 - ss_res / ss_tot)
    flat = bool(ly.max() - ly.min() < FLAT_SPREAD_DECADES)
    return Fit(x, y, slope, float(my - slope * mx), r_squared, flat,
               flat or r_squared >= min_r_squared, expected)
