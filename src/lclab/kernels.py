"""Linear-algebra kernels: SPD solves, batched tridiagonal solves by
cyclic reduction, power iteration, dense symmetric spectra.

Sparse and dense work is delegated to LAPACK via numpy/scipy, and the
tridiagonal batches are reduced level by level in numpy; every kernel
checks its own contract (residual, symmetry, spectral identities) after
the fact so downstream experiments never consume a silently bad solve.
scipy is reached only as ``scipy.<sub>`` attributes, so each submodule
loads on first use; the torus and disk experiments never use one.
"""

import numpy as np
import scipy

from .errors import ContractError, ConvergenceError, ResourceLimitError

DEFAULT_SOLVE_TOL = 1e-10
MAX_DENSE_DIM = 4096


def require_symmetric(mat, tol=1e-14):
    """Raise unless the sparse/dense matrix is symmetric to relative ``tol``."""
    if not isinstance(mat, np.ndarray) and scipy.sparse.issparse(mat):
        gap = abs(mat - mat.T)
        worst = gap.max() if gap.nnz else 0.0
        scale = abs(mat).max()
    else:
        worst = np.abs(mat - mat.T).max()
        scale = np.abs(mat).max()
    if worst > tol * max(scale, 1.0):
        raise ContractError(f"matrix not symmetric: |A-A^T| = {worst:.3e}")


class _Factorization:
    """Cached direct factorization of a symmetric positive definite matrix.

    Tridiagonal systems go through banded Cholesky (the 1D grids are
    tridiagonal after assembly); everything else through sparse LU.
    ``norm_inf`` caches ||mat||_inf for the backward-error check.
    """

    def __init__(self, mat):
        mat = scipy.sparse.csr_matrix(mat)
        self.mat = mat
        self.norm_inf = scipy.sparse.linalg.norm(mat, np.inf)
        coo = mat.tocoo()
        bandwidth = int(np.max(np.abs(coo.row - coo.col))) if coo.nnz else 0
        if bandwidth <= 1:
            ab = np.zeros((2, mat.shape[0]))
            ab[1] = mat.diagonal()
            ab[0, 1:] = mat.diagonal(1)
            self._banded = scipy.linalg.cholesky_banded(ab, lower=False)
            self._solve = lambda b: scipy.linalg.cho_solve_banded(
                (self._banded, False), b)
        else:
            self._solve = scipy.sparse.linalg.splu(
                mat.tocsc(), permc_spec="MMD_AT_PLUS_A").solve

    def solve(self, rhs):
        return self._solve(np.asarray(rhs, dtype=float))


def backward_error(mat, x, rhs, mat_scale=None):
    """Normwise backward error ||mat x - rhs|| / (||mat|| ||x|| + ||rhs||)
    of a solve with sparse ``mat``; ``mat_scale`` caches ||mat||_inf."""
    if mat_scale is None:
        mat_scale = scipy.sparse.linalg.norm(mat, np.inf)
    scale = mat_scale * np.linalg.norm(x) + np.linalg.norm(rhs)
    gap = np.linalg.norm(mat @ x - rhs)
    return gap / scale if scale > 0.0 else 0.0


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
    if not 0.0 < tol <= 1e-6:
        raise ContractError(f"solve tolerance {tol} outside (0, 1e-6]")
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
    if not residual <= tol:
        raise ConvergenceError(
            f"SPD solve backward error {residual:.3e} exceeds tol {tol:.1e}",
            residual=residual)
    return x


def tridiagonal_backward_error(lower, diag, upper, x, rhs):
    """Normwise backward error, as in ``backward_error``, of every system
    of a tridiagonal batch (see ``solve_tridiagonal``); one per system."""
    ax = diag * x
    ax[..., 1:] += lower[..., 1:] * x[..., :-1]
    ax[..., :-1] += upper[..., :-1] * x[..., 1:]
    row_sums = np.abs(diag)
    row_sums[..., 1:] += np.abs(lower[..., 1:])
    row_sums[..., :-1] += np.abs(upper[..., :-1])
    scale = (row_sums.max(axis=-1) * np.linalg.norm(x, axis=-1)
             + np.linalg.norm(rhs, axis=-1))
    gap = np.linalg.norm(ax - rhs, axis=-1)
    # NaN scales (a zero pivot) must stay NaN, so mask only exact zeros
    return np.divide(gap, scale, out=np.zeros_like(gap), where=scale != 0.0)


def solve_tridiagonal(lower, diag, upper, rhs, tol=DEFAULT_SOLVE_TOL):
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
    every system must not exceed ``tol``; ConvergenceError carries the
    worst (a zero pivot makes it NaN).
    """
    if not 0.0 < tol <= 1e-6:
        raise ContractError(f"solve tolerance {tol} outside (0, 1e-6]")
    lower, diag, upper = (np.asarray(band, dtype=float)
                          for band in (lower, diag, upper))
    rhs = np.asarray(rhs)
    with np.errstate(divide="ignore", invalid="ignore"):
        x = _cyclic_reduction(lower, diag, upper, rhs)
        residual = tridiagonal_backward_error(lower, diag, upper, x, rhs)
    worst = float(residual.max())
    if not worst <= tol:
        raise ConvergenceError(
            f"tridiagonal solve backward error {worst:.3e} exceeds tol "
            f"{tol:.1e}", residual=worst)
    return x


def _cyclic_reduction(lower, diag, upper, rhs):
    """One level of odd-even reduction along the last axis, recursing on
    the odd rows; ``solve_tridiagonal`` checks the result."""
    n = diag.shape[-1]
    if n == 1:
        return rhs / diag
    # odd row 2k + 1 has the even neighbours 2k and, for k < m_right, 2k + 2
    m_right = (n - 1) // 2
    left = -lower[..., 1::2] / diag[..., :-1:2]
    right = -upper[..., 1:-1:2] / diag[..., 2::2]
    diag_odd = diag[..., 1::2] + left * upper[..., :-1:2]
    diag_odd[..., :m_right] += right * lower[..., 2::2]
    rhs_odd = rhs[..., 1::2] + left * rhs[..., :-1:2]
    rhs_odd[..., :m_right] += right * rhs[..., 2::2]
    # the last odd row's upper entry is ignored, like every last one
    upper_odd = np.zeros_like(diag_odd)
    upper_odd[..., :m_right] = right * upper[..., 2::2]
    x_odd = _cyclic_reduction(left * lower[..., :-1:2], diag_odd, upper_odd,
                              rhs_odd)
    x = np.empty(x_odd.shape[:-1] + (n,), dtype=x_odd.dtype)
    x[..., 1::2] = x_odd
    x_even = x[..., ::2]
    x_even[...] = rhs[..., ::2]
    x_even[..., :x_odd.shape[-1]] -= upper[..., :-1:2] * x_odd
    x_even[..., 1:] -= lower[..., 2::2] * x_odd[..., :m_right]
    x_even /= diag[..., ::2]
    return x


def _check_action_symmetry(action, dim, rng, weights, trials=3, tol=1e-10):
    w = weights if weights is not None else 1.0
    for _ in range(trials):
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


def power_iteration_sym(action, dim, tol=1e-8, weights=None, n_values=1,
                        max_iter=5000, seed=0, check_symmetry=True):
    """Dominant eigenvalues (by modulus) of a symmetric operator action.

    ``action`` maps a vector to a vector; symmetry is with respect to the
    (optionally weighted) inner product and is spot-checked on random
    pairs before iterating.  Returns ``(values, vectors)`` with
    ``n_values`` entries obtained by deflation, values sorted by
    decreasing modulus.  Convergence is on the Rayleigh quotient.
    """
    rng = np.random.default_rng(seed)
    w = np.ones(dim) if weights is None else np.asarray(weights, dtype=float)
    if check_symmetry:
        _check_action_symmetry(action, dim, rng, w)

    def dot(a, b):
        return float(np.sum(w * a * b))

    values, vectors = [], []
    for _ in range(n_values):
        v = rng.standard_normal(dim)
        for prev in vectors:
            v = v - dot(v, prev) * prev
        nv = np.sqrt(dot(v, v))
        if nv == 0.0:
            raise ConvergenceError("deflation exhausted the space")
        v /= nv
        mu = 0.0
        mu_prev = None
        for _ in range(max_iter):
            av = action(v)
            for prev in vectors:
                av = av - dot(av, prev) * prev
            # norm quotient, not the Rayleigh quotient: it converges to the
            # spectral radius even when the top eigenvalues come in +/- pairs
            mu = np.sqrt(dot(av, av))
            if mu == 0.0:
                break
            v = av / mu
            if mu_prev is not None and abs(mu - mu_prev) <= tol * max(mu, 1e-300):
                break
            mu_prev = mu
        else:
            raise ConvergenceError(
                f"power iteration stagnated after {max_iter} iterations "
                f"(last value {mu:.6e})")
        values.append(mu)
        vectors.append(v)
    if n_values == 1:
        return values[0], vectors[0]
    return values, vectors


def dense_eigen(mat, spot_checks=10, seed=0):
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
    for idx in rng.choice(n, size=min(spot_checks, n), replace=False):
        res = np.linalg.norm(mat @ vecs[:, idx] - vals[idx] * vecs[:, idx])
        if res > 1e-9 * scale:
            raise ContractError(f"eigenpair residual {res:.3e} exceeds 1e-9*|A|")
    return vals


def loglog_fit(x, y):
    """Least-squares slope/intercept/R^2 of log10(y) against log10(x)."""
    lx = np.log10(np.asarray(x, dtype=float))
    ly = np.log10(np.asarray(y, dtype=float))
    slope, intercept = np.polyfit(lx, ly, 1)
    fitted = slope * lx + intercept
    ss_res = float(np.sum((ly - fitted) ** 2))
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r_squared = 1.0 if ss_tot == 0.0 else max(0.0, 1.0 - ss_res / ss_tot)
    return float(slope), float(intercept), r_squared
