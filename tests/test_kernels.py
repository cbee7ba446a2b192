import itertools

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

from lclab import (ContractError, ConvergenceError, dense_eigen, kernels,
                   loglog_fit, power_iteration_sym, solve_spd)
from lclab.errors import ResourceLimitError
from lclab.kernels import solve_tridiagonal


def random_spd(rng, n=50):
    m = rng.standard_normal((n, n))
    return sp.csr_matrix(m @ m.T + n * np.eye(n))


def test_solve_identity_and_diagonal():
    eye = sp.identity(4, format="csr")
    rhs = np.array([1.0, -2.0, 3.0, 0.5])
    assert np.array_equal(solve_spd(eye, rhs), rhs)
    diag = sp.diags([1.0, 2.0, 4.0]).tocsr()
    assert np.allclose(solve_spd(diag, np.array([1.0, 2.0, 4.0])),
                       np.ones(3), atol=1e-14)


def test_solve_residual_is_verified(rng):
    mat = random_spd(rng)
    rhs = rng.standard_normal(50)
    x = solve_spd(mat, rhs, tol=1e-10)
    scale = sp.linalg.norm(mat, np.inf) * np.linalg.norm(x) \
        + np.linalg.norm(rhs)
    assert np.linalg.norm(mat @ x - rhs) / scale <= 1e-10


def test_solve_rejects_silly_tolerances(rng):
    mat = random_spd(rng, 5)
    with pytest.raises(ContractError):
        solve_spd(mat, np.ones(5), tol=1e-3)
    with pytest.raises(ContractError):
        solve_spd(mat, np.ones(5), tol=0.0)


def test_solve_zero_rhs_shortcut(rng):
    assert np.array_equal(solve_spd(random_spd(rng, 8), np.zeros(8)),
                          np.zeros(8))


def _random_bands(rng, systems=7, n=40):
    """Diagonally dominant tridiagonal bands, (systems, n) each."""
    lower = rng.standard_normal((systems, n))
    upper = rng.standard_normal((systems, n))
    diag = 2.5 + np.abs(lower) + np.abs(upper) + rng.uniform(size=(systems, n))
    return lower, diag, upper


def _solve_banded(lower, diag, upper, rhs):
    """Oracle: one LAPACK banded solve per system."""
    ab = np.zeros((3, diag.size))
    ab[0, 1:] = upper[:-1]
    ab[1] = diag
    ab[2, :-1] = lower[1:]
    return scipy.linalg.solve_banded((1, 1), ab, rhs)


# cyclic reduction halves the chain per level: odd and even lengths at
# every depth, powers of two and 2^k + 1 (the grids' 65 and 4097 nodes)
TRIDIAGONAL_LENGTHS = (1, 2, 3, 4, 5, 7, 8, 64, 65, 4097)


@pytest.mark.parametrize("dtype", [float, complex])
def test_tridiagonal_batch_matches_solve_banded(rng, dtype):
    for n, systems in itertools.product(TRIDIAGONAL_LENGTHS, (1, 7)):
        lower, diag, upper = _random_bands(rng, systems, n)
        rhs = rng.standard_normal(diag.shape).astype(dtype)
        if dtype is complex:
            rhs += 1j * rng.standard_normal(diag.shape)
        x = solve_tridiagonal(lower, diag, upper, rhs)
        assert x.shape == diag.shape and x.dtype == dtype
        for b in range(systems):
            ref = _solve_banded(lower[b], diag[b], upper[b], rhs[b])
            assert np.abs(x[b] - ref).max() <= 1e-13 * np.abs(ref).max()
        # one right side broadcasts to every system
        shared = solve_tridiagonal(lower, diag, upper, rhs[0])
        assert np.allclose(shared[0], x[0], rtol=0, atol=1e-15)


def test_tridiagonal_right_sides_broadcast_over_systems(rng):
    lower, diag, upper = _random_bands(rng, 3, 9)
    rhs = rng.standard_normal((2, 3, 9))
    x = solve_tridiagonal(lower, diag, upper, rhs)
    assert x.shape == (2, 3, 9)
    for load in range(2):
        assert np.array_equal(
            x[load], solve_tridiagonal(lower, diag, upper, rhs[load]))


def test_tridiagonal_backward_error_is_checked(rng, monkeypatch):
    lower, diag, upper = _random_bands(rng)
    rhs = rng.standard_normal(diag.shape)
    with pytest.raises(ContractError):
        solve_tridiagonal(lower, diag, upper, rhs, tol=0.0)
    # no pivoting: a zero pivot is reported, never returned
    bad = diag.copy()
    bad[3, 0] = 0.0
    with pytest.raises(ConvergenceError):
        solve_tridiagonal(lower, bad, upper, rhs)
    # a nonsingular matrix whose row 1 is reduced to the pivot
    # 2 - 1 * 1 / 1 - 1 * 1 / 1 = 0 at the first level, used at the second
    bands = (np.ones(4), np.array([1.0, 2.0, 1.0, 2.0]), np.ones(4))
    assert np.linalg.det(np.diag(bands[1]) + np.diag(np.ones(3), 1)
                         + np.diag(np.ones(3), -1)) != 0.0
    with pytest.raises(ConvergenceError) as info:
        solve_tridiagonal(*bands, np.arange(4.0))
    assert np.isnan(info.value.residual)
    # one system over tolerance fails the whole batch, with its residual
    monkeypatch.setattr(kernels, "tridiagonal_backward_error",
                        lambda *args: np.array([0.0, 1e-3, 0.0]))
    with pytest.raises(ConvergenceError) as info:
        solve_tridiagonal(lower, diag, upper, rhs)
    assert info.value.residual == 1e-3


def test_power_iteration_simple_spectra():
    val, _ = power_iteration_sym(lambda x: np.diag([3.0, 1.0, 0.5]) @ x, 3)
    assert val == pytest.approx(3.0, rel=1e-7)
    # +/-1 pair: the norm quotient still finds the spectral radius
    val, _ = power_iteration_sym(lambda x: np.array([x[1], x[0]]), 2)
    assert val == pytest.approx(1.0, rel=1e-10)


def test_power_iteration_matches_dense_eigen(rng):
    m = rng.standard_normal((100, 100))
    sym = 0.5 * (m + m.T)
    val, _ = power_iteration_sym(lambda x: sym @ x, 100, tol=1e-10)
    spectrum = dense_eigen(sym)
    assert val == pytest.approx(np.abs(spectrum).max(), rel=1e-6)


def test_power_iteration_rejects_nonsymmetric_action():
    skew = np.array([[0.0, 1.0], [-1.0, 0.0]])
    with pytest.raises(ContractError):
        power_iteration_sym(lambda x: skew @ x, 2)


def test_power_iteration_weighted_inner_product(rng):
    # operator symmetric w.r.t. weights w: A = W^{-1} K with K symmetric
    w = rng.uniform(0.5, 2.0, size=30)
    m = rng.standard_normal((30, 30))
    k = m @ m.T
    val, _ = power_iteration_sym(lambda x: (k @ x) / w, 30, weights=w)
    sym = np.diag(w ** -0.5) @ k @ np.diag(w ** -0.5)
    assert val == pytest.approx(np.abs(np.linalg.eigvalsh(sym)).max(),
                                rel=1e-6)


def test_dense_eigen_examples():
    assert np.allclose(dense_eigen(np.diag([3.0, -1.0, 2.0])),
                       [-1.0, 2.0, 3.0])
    assert np.allclose(dense_eigen(np.array([[2.0, 1.0], [1.0, 2.0]])),
                       [1.0, 3.0])


def test_dense_eigen_trace_and_frobenius(rng):
    m = rng.standard_normal((60, 60))
    sym = 0.5 * (m + m.T)
    vals = dense_eigen(sym)
    scale = max(np.abs(vals).max(), 1.0)
    assert abs(vals.sum() - np.trace(sym)) <= 1e-10 * scale * 60
    assert abs((vals ** 2).sum() - (sym ** 2).sum()) <= 1e-10 * scale ** 2 * 60


def test_dense_eigen_dimension_guard():
    with pytest.raises(ResourceLimitError):
        dense_eigen(np.zeros((4097, 4097)))


def test_dense_eigen_requires_symmetry():
    with pytest.raises(ContractError):
        dense_eigen(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_loglog_fit_recovers_power_law():
    x = np.geomspace(1, 1e4, 9)
    slope, intercept, r2 = loglog_fit(x, 3.0 * x ** -0.5)
    assert slope == pytest.approx(-0.5)
    assert 10 ** intercept == pytest.approx(3.0)
    assert r2 == pytest.approx(1.0)
