import ast
import inspect
import itertools
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

from lclab import (ContractError, ConvergenceError, Fit, counting, coupling,
                   dense_eigen, grids, kernels, loglog_fit,
                   power_iteration_sym, solve_spd)
from lclab.errors import DomainError, ResourceLimitError
from lclab.kernels import check_sweep, solve_tridiagonal, tridiagonal_apply


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


def _cyclic_reduction_oracle(lower, diag, upper, rhs):
    """Oracle: odd-even reduction on the bands themselves, negating the
    off-diagonals at every level."""
    n = diag.shape[-1]
    if n == 1:
        return rhs / diag
    m_right = (n - 1) // 2
    left = -lower[..., 1::2] / diag[..., :-1:2]
    right = -upper[..., 1:-1:2] / diag[..., 2::2]
    diag_odd = diag[..., 1::2] + left * upper[..., :-1:2]
    diag_odd[..., :m_right] += right * lower[..., 2::2]
    rhs_odd = rhs[..., 1::2] + left * rhs[..., :-1:2]
    rhs_odd[..., :m_right] += right * rhs[..., 2::2]
    upper_odd = np.zeros_like(diag_odd)
    upper_odd[..., :m_right] = right * upper[..., 2::2]
    x_odd = _cyclic_reduction_oracle(left * lower[..., :-1:2], diag_odd,
                                     upper_odd, rhs_odd)
    x = np.empty(x_odd.shape[:-1] + (n,), dtype=x_odd.dtype)
    x[..., 1::2] = x_odd
    x_even = x[..., ::2]
    x_even[...] = rhs[..., ::2]
    x_even[..., :x_odd.shape[-1]] -= upper[..., :-1:2] * x_odd
    x_even[..., 1:] -= lower[..., 2::2] * x_odd[..., :m_right]
    x_even /= diag[..., ::2]
    return x


@pytest.mark.parametrize("dtype", [float, complex])
def test_cyclic_reduction_is_bit_identical_to_the_oracle(rng, dtype,
                                                         polar_grid):
    cases = [_random_bands(rng, systems, n) for n, systems in
             itertools.product(TRIDIAGONAL_LENGTHS, (1, 7))]
    cases.append(polar_grid.mode_bands(1e3))  # exact zeros off the origin
    for lower, diag, upper in cases:
        rhs = rng.standard_normal((2,) + diag.shape).astype(dtype)
        if dtype is complex:
            rhs += 1j * rng.standard_normal(rhs.shape)
        got = kernels._cyclic_reduction(-lower, diag, -upper, rhs)
        want = _cyclic_reduction_oracle(lower, diag, upper, rhs)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


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
    # the gate is the constant as it reads at the call
    with monkeypatch.context() as patch:
        patch.setattr(kernels, "DEFAULT_SOLVE_TOL", 1e-30)
        with pytest.raises(ConvergenceError, match="exceeds tol 1.0e-30"):
            solve_tridiagonal(lower, diag, upper, rhs)
    solve_tridiagonal(lower, diag, upper, rhs)
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


def _dense(lower, diag, upper):
    return np.diag(diag) + np.diag(lower[1:], -1) + np.diag(upper[:-1], 1)


def test_tridiagonal_apply_matches_dense_product(rng):
    lower, diag, upper = _random_bands(rng, 3, 9)
    x = rng.standard_normal((2, 3, 9))
    ax = tridiagonal_apply(lower, diag, upper, x)
    for b in range(3):
        dense = _dense(lower[b], diag[b], upper[b])
        assert np.allclose(ax[:, b], x[:, b] @ dense.T, rtol=1e-14)


def _normwise_error_oracle(ax, row_sums, x, rhs):
    """Oracle: the backward error from ``np.linalg.norm``, one per system."""
    scale = (row_sums.max(axis=-1) * np.linalg.norm(x, axis=-1)
             + np.linalg.norm(rhs, axis=-1))
    gap = np.linalg.norm(ax - rhs, axis=-1)
    return np.divide(gap, scale, out=np.zeros_like(gap), where=scale != 0.0)


def _sweep_bands(rng, lams=(1.0, 1e3, 1e6), systems=4, n=17):
    """Bands shaped like ``mode_bands`` over a sweep: lower and upper
    (systems, n), diag (len(lams), systems, n)."""
    lower, diag, upper = _random_bands(rng, systems, n)
    return lower, diag + np.reshape(lams, (-1, 1, 1)), upper


def _random_like(rng, shape, dtype):
    values = rng.standard_normal(shape).astype(dtype)
    if dtype is complex:
        values += 1j * rng.standard_normal(shape)
    return values


@pytest.mark.parametrize("dtype", [float, complex])
def test_backward_errors_match_the_norm_formula(rng, dtype):
    lower, diag, upper = _sweep_bands(rng)
    n = diag.shape[-1]
    dense = np.stack([[_dense(*bands) for bands in zip(lower, d, upper)]
                      for d in diag])
    # several right sides per system, and one broadcast to all of them
    for x_shape, rhs_shape in (((2,) + diag.shape, (2,) + diag.shape),
                               ((1,) + diag.shape, (1, 1, 1, n))):
        x = _random_like(rng, x_shape, dtype)
        rhs = _random_like(rng, rhs_shape, dtype)
        want = _normwise_error_oracle((dense @ x[..., None])[..., 0],
                                      np.abs(dense).sum(axis=-1), x, rhs)
        got = kernels.tridiagonal_backward_error(lower, diag, upper, x, rhs)
        assert got.shape == want.shape == x_shape[:-1]
        assert np.allclose(got, want, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("dtype", [float, complex])
def test_backward_errors_stay_nan_at_a_zero_pivot(rng, dtype):
    lower, diag, upper = _random_bands(rng, 3, 9)
    diag[1, 0] = 0.0
    rhs = _random_like(rng, diag.shape, dtype)
    with np.errstate(divide="ignore", invalid="ignore"):
        x = kernels._cyclic_reduction(-lower, diag, -upper, rhs)
        got = kernels.tridiagonal_backward_error(lower, diag, upper, x, rhs)
    assert np.isnan(x[1]).all() and np.isfinite(x[[0, 2]]).all()
    assert np.isnan(got[1])
    assert np.isfinite(got[[0, 2]]).all()


@pytest.mark.parametrize("dtype", [float, complex])
def test_solves_leave_their_inputs_unchanged(rng, dtype):
    lower, diag, upper = _sweep_bands(rng)
    rhs = _random_like(rng, (2, 1, 1, diag.shape[-1]), dtype)
    inputs = (lower, diag, upper, rhs)
    before = [a.tobytes() for a in inputs]
    solve_tridiagonal(lower, diag, upper, rhs)
    assert [a.tobytes() for a in inputs] == before


def _solve_case(rng, name):
    """A small well-posed problem for the solve ``name``: a call that
    solves it (the SPD oracle's takes a tolerance, 1e-10 by default), and
    the name of the backward error the solve checks."""
    if name == "SPD":
        mat, rhs = random_spd(rng, 8), rng.standard_normal(8)
        return (lambda tol=1e-10: solve_spd(mat, rhs, tol=tol),
                "backward_error")
    lower, diag, upper = _random_bands(rng, 3, 12)
    rhs = rng.standard_normal(diag.shape)
    return (lambda: solve_tridiagonal(lower, diag, upper, rhs),
            "tridiagonal_backward_error")


@pytest.mark.parametrize("name", ["SPD", "tridiagonal"])
def test_every_solve_holds_one_tolerance_contract(rng, monkeypatch, name):
    solve, checked = _solve_case(rng, name)
    work = []

    def spy(original):
        def wrapped(*args, **kwargs):
            work.append(original.__name__)
            return original(*args, **kwargs)
        return wrapped

    for step in ("_Factorization", "_cyclic_reduction"):
        monkeypatch.setattr(kernels, step, spy(getattr(kernels, step)))
    if name == "SPD":
        # the oracle's range (0, 1e-6] is checked before any factorization
        for tol in (0.0, -1e-12, 2e-6, np.nan, np.inf):
            with pytest.raises(ContractError,
                               match=r"must lie in \(0, 1e-6\]"):
                solve(tol)
        assert work == []
        solve(1e-6)
    else:
        solve()
    assert work
    # one gate: the worst backward error, a NaN included, in the message
    # and on the error
    for worst, shown in ((2e-3, "2.000e-03"), (np.nan, "nan")):
        residual = worst if name == "SPD" else np.array([0.0, worst, 0.0])
        monkeypatch.setattr(kernels, checked, lambda *args: residual)
        with pytest.raises(ConvergenceError) as info:
            solve()
        assert str(info.value) == (f"{name} solve backward error {shown} "
                                   "exceeds tol 1.0e-10")
        np.testing.assert_equal(info.value.residual, worst)


def test_only_the_sparse_oracle_takes_a_solve_tolerance():
    # the band route gates every solve at DEFAULT_SOLVE_TOL, which no
    # caller can widen; the tests' oracle refines further through ``tol``
    band_route = [
        solve_tridiagonal, grids._Grid.solve_coupled,
        grids._Grid.solve_exterior, grids._Grid.screened_extension,
        counting.eigen_spectrum, counting.eigen_spectra,
        counting.difference_norms, counting._pencil, counting.trace_map_norm,
        coupling.convergence_rate_fit, coupling.green_identity_check,
        coupling.nonlocal_bc_solve, coupling.DifferencePipeline.__init__]
    oracle = [solve_spd, grids.SparseOperator.solve,
              grids.SparseOperator.solve_raw]
    assert [f.__qualname__ for f in band_route
            if "tol" in inspect.signature(f).parameters] == []
    assert all(inspect.signature(f).parameters["tol"].default
               == kernels.DEFAULT_SOLVE_TOL for f in oracle)


def test_sparse_backward_error_is_the_normwise_formula(rng):
    mat = random_spd(rng, 30)
    x, rhs = rng.standard_normal(30), rng.standard_normal(30)
    dense = mat.toarray()
    norm_inf = np.abs(dense).sum(axis=1).max()
    want = np.linalg.norm(dense @ x - rhs) / (
        norm_inf * np.linalg.norm(x) + np.linalg.norm(rhs))
    for scale in (None, norm_inf):
        got = kernels.backward_error(mat, x, rhs, scale)
        assert type(got) is float
        assert got == pytest.approx(want, rel=1e-13, abs=0.0)
    # a zero scale, x = rhs = 0, is no error
    assert kernels.backward_error(mat, np.zeros(30), np.zeros(30)) == 0.0


@pytest.mark.parametrize("sweep", [
    (np.nan, 1e2, 1e3, 1e4), (1e1, np.nan, 1e3, 1e4),
    (1e1, 1e2, np.nan, 1e4), (1e1, 1e2, 1e3, np.nan),
    (1e1, 1e2, np.inf), (1e1, np.inf, 1e3), (-np.inf, 1e2, 1e3),
    (0.0, 1e2, 1e3), (1e1, 1e2, 1e2, 1e3), (1e3, 1e2, 1e1), (1e1, 1e2),
], ids=["nan-0", "nan-1", "nan-2", "nan-3", "inf-last", "inf-inside",
        "minus-inf", "zero", "repeated", "decreasing", "two-points"])
def test_check_sweep_rejects_what_is_no_sweep(sweep):
    with pytest.raises(DomainError, match=r"^sweep must be >= 3 positive, "
                                          r"finite, increasing points$"):
        check_sweep(sweep)


def test_check_sweep_returns_the_sweep_as_floats():
    got = check_sweep([1, 10, 10 ** 6])
    assert got.dtype == float and got.tolist() == [1.0, 10.0, 1e6]


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
    fit = loglog_fit(x, 3.0 * x ** -0.5, 0.95, expected=-0.5)
    assert isinstance(fit, Fit)
    assert fit.slope == pytest.approx(-0.5)
    assert 10 ** fit.intercept == pytest.approx(3.0)
    assert fit.r_squared == pytest.approx(1.0)
    assert fit.conclusive and not fit.flat
    assert fit.expected == -0.5


def test_loglog_fit_below_threshold_is_inconclusive():
    # a power law with a zigzag: the slope is right but r^2 is 0.82
    x = np.geomspace(1, 1e4, 9)
    y = x ** -0.5 * 10.0 ** np.array([0.3, -0.3] * 4 + [0.3])
    fit = loglog_fit(x, y, 0.95)
    assert fit.slope == pytest.approx(-0.5, abs=0.1)
    assert fit.r_squared == pytest.approx(0.8242, abs=1e-4)
    assert not fit.flat and not fit.conclusive


def test_loglog_fit_flat_data_is_conclusive():
    # spread 0.05 decades, all noise: r^2 is low, the slope is ~0 anyway
    x = np.geomspace(1, 1e4, 9)
    y = 10.0 ** np.array([0.0, 0.05, 0.0, 0.05, 0.0, 0.05, 0.0, 0.05, 0.0])
    fit = loglog_fit(x, y, 0.95)
    assert fit.flat and fit.conclusive
    assert fit.r_squared < 0.1
    assert abs(fit.slope) < kernels.FLAT_SPREAD_DECADES


def test_loglog_fit_threshold_is_inclusive():
    x = np.geomspace(1, 1e4, 9)
    y = x ** -0.5 * 10.0 ** np.array([0.3, -0.3] * 4 + [0.3])
    r_squared = loglog_fit(x, y, 0.95).r_squared
    assert loglog_fit(x, y, r_squared).conclusive
    assert not loglog_fit(x, y, np.nextafter(r_squared, 1.0)).conclusive


def test_loglog_fit_keeps_the_data_as_given():
    counts = np.array([1, 3, 5, 9])
    fit = loglog_fit([1.0, 2.0, 3.0, 5.0], counts, 0.95)
    assert fit.y.dtype == counts.dtype and np.array_equal(fit.y, counts)


# ---------------------------------------------------------------------------
# the closed-form fit against the SVD least-squares oracle

FIT_AGREEMENT = 1e-12


def polyfit_oracle(x, y):
    """Oracle: slope, intercept and r^2 of ``np.polyfit``'s SVD least
    squares line through (log10 x, log10 y)."""
    lx, ly = np.log10(np.asarray(x, float)), np.log10(np.asarray(y, float))
    slope, intercept = np.polyfit(lx, ly, 1)
    ss_res = np.sum((ly - (slope * lx + intercept)) ** 2)
    ss_tot = np.sum((ly - ly.mean()) ** 2)
    r_squared = 1.0 if ss_tot == 0.0 else max(0.0, 1.0 - ss_res / ss_tot)
    return slope, intercept, r_squared


def assert_fit_matches_polyfit(fit):
    for got, want in zip((fit.slope, fit.intercept, fit.r_squared),
                         polyfit_oracle(fit.x, fit.y)):
        assert got == pytest.approx(want, rel=FIT_AGREEMENT,
                                    abs=FIT_AGREEMENT)


def test_loglog_fit_matches_polyfit_on_random_data(rng):
    for _ in range(300):
        n = int(rng.integers(2, 30))
        x = 10.0 ** rng.uniform(-3.0, 6.0, n)
        y = 10.0 ** rng.uniform(-5.0, 5.0, n)
        assert_fit_matches_polyfit(loglog_fit(x, y, 0.9))


def test_loglog_fit_matches_polyfit_on_the_lab_sweeps(monkeypatch, tmp_path):
    from lclab import counting, coupling, runner, symbols, torus
    fits = []

    def recording(*args, **kwargs):
        fits.append(loglog_fit(*args, **kwargs))
        return fits[-1]

    for module in (counting, coupling, symbols, torus):
        monkeypatch.setattr(module, "loglog_fit", recording)
    code, _ = runner.run_experiment(runner.default_config("report-all"),
                                    tmp_path)
    assert code == 0 and len(fits) >= 20
    for fit in fits:
        assert_fit_matches_polyfit(fit)


@pytest.mark.parametrize("x", [np.geomspace(1, 1e4, 9),
                               np.array([1e2, 1e3, 1e4, 1e5, 1e6]),
                               np.sqrt(10.0 ** np.arange(2.0, 5.01, 0.5))])
@pytest.mark.parametrize("p", [-1.0, -0.75, -0.5, 1 / 3, 0.5, 2.0])
def test_loglog_fit_returns_an_exact_power_law_to_two_ulps(x, p):
    fit = loglog_fit(x, 3.7 * x ** p, 0.99)
    assert abs(fit.slope - p) <= 2 * np.spacing(abs(p))


@pytest.mark.parametrize("x", [[10.0, 10.0, 10.0], [4.0], []])
def test_loglog_fit_needs_two_distinct_x(x):
    with pytest.raises(ContractError, match="two distinct x"):
        loglog_fit(x, np.arange(1.0, len(x) + 1.0), 0.9)


def fit_routes(path):
    """(line, name) of every reference to ``polyfit`` or ``lstsq`` in the
    module at ``path``: a second route to a fitted slope."""
    tree = ast.parse(path.read_text())
    found = []
    for node in ast.walk(tree):
        name = (node.attr if isinstance(node, ast.Attribute) else
                node.id if isinstance(node, ast.Name) else
                node.name if isinstance(node, ast.alias) else None)
        if name is not None and name.split(".")[-1] in ("polyfit", "lstsq"):
            found.append((getattr(node, "lineno", None), name))
    return found


def test_second_fit_route_is_found(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text("import numpy as np\nfrom numpy import polyfit\n"
                    "np.linalg.lstsq(a, b)\nnp.polyfit(x, y, 1)\n")
    assert [name for _, name in fit_routes(path)] == ["polyfit", "lstsq",
                                                      "polyfit"]


def test_every_fit_is_the_one_loglog_fit():
    paths = sorted((Path(kernels.__file__).parent).glob("*.py"))
    assert len(paths) > 5
    assert [(path.name, hit) for path in paths
            for hit in fit_routes(path)] == []
