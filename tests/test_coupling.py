import math

import numpy as np
import pytest

from lclab import (ContractError, ConvergenceError, DifferencePipeline,
                   Domain1D, DomainError, Grid1D, InconclusiveError, RateFit,
                   convergence_rate_fit_exact_1d, counting_zero_threshold,
                   coupling, difference_matrix_1d, difference_norm_exact_1d,
                   exterior_gram_1d, green_identity_check, green_test_fields,
                   kernels, nonlocal_bc_solve, ntd_matrix_1d,
                   transmission_solve)
from lclab.coupling import exterior_dtn_matrix_1d, transmission_factor_1d
from lclab.grids import PolarGrid

LAMBDAS = (1e2, 1e3, 1e4, 1e5, 1e6)


# ---------------------------------------------------------------------------
# closed-form interface operators


def test_ntd_matrix_signs_and_large_coupling_limit():
    for lam in (1.0, 100.0, 1e6):
        mat = ntd_matrix_1d(lam, 0.375)
        assert mat[0, 0] < 0 and mat[1, 1] < 0
        assert mat[0, 1] == mat[1, 0]
    mat = ntd_matrix_1d(1e6, 1.0)
    assert mat[0, 0] == pytest.approx(-1e-3, rel=1e-9)
    assert abs(mat[0, 1]) < 1e-100  # exp(-1000) underflows to zero


def test_ntd_matrix_off_diagonal_decay_rate():
    lam = 400.0
    for ell in (0.2, 0.3, 0.4):
        s = math.sqrt(lam) * ell
        expected = 2.0 * math.exp(-s) / ((1.0 - math.exp(-2 * s))
                                         * math.sqrt(lam))
        assert abs(ntd_matrix_1d(lam, ell)[0, 1]) == pytest.approx(
            expected, rel=1e-12)


def test_ntd_matrix_rescaling_identity(rng):
    for _ in range(20):
        lam = rng.uniform(1.0, 1e5)
        ell = rng.uniform(0.05, 2.0)
        lhs = ntd_matrix_1d(lam, ell)
        rhs = ntd_matrix_1d(1.0, math.sqrt(lam) * ell) / math.sqrt(lam)
        assert np.allclose(lhs, rhs, rtol=1e-12)


def test_ntd_matrix_validates_inputs():
    with pytest.raises(DomainError):
        ntd_matrix_1d(0.0, 1.0)
    with pytest.raises(DomainError):
        ntd_matrix_1d(1.0, -1.0)


def test_ntd_matrix_against_interior_solver(domain1d):
    # independent rederivation: feed unit flux data to the discrete
    # screened solve on a fine grid and read the interface values
    lam = 300.0
    grid = Grid1D(domain1d, 2048)
    mat = ntd_matrix_1d(lam, domain1d.inclusion_length)
    for p, phi in enumerate(np.eye(2)):
        w = grid.screened_extension(lam, phi)
        got = grid.trace_gamma0(w)
        assert np.abs(got - mat[:, p]).max() < 2e-5


def test_difference_matrix_positive_definite(domain1d):
    for lam in (1.0, 1e3, 1e6):
        w = difference_matrix_1d(domain1d, lam)
        vals = np.linalg.eigvalsh(w)
        assert vals[0] > 0


def test_exterior_dtn_variants(domain1d):
    assert np.array_equal(exterior_dtn_matrix_1d(domain1d, "neumann"),
                          np.zeros((2, 2)))
    mat = exterior_dtn_matrix_1d(domain1d, "dirichlet")
    assert np.allclose(np.diag(mat),
                       [1 / domain1d.a1, 1 / (1 - domain1d.a2)])
    assert np.allclose(transmission_factor_1d(domain1d, 50.0, "neumann"),
                       np.eye(2))


def test_exterior_gram_is_component_lengths(domain1d):
    assert np.allclose(exterior_gram_1d(domain1d),
                       np.diag([domain1d.a1, 1.0 - domain1d.a2]))


# ---------------------------------------------------------------------------
# the difference operator


def test_difference_symmetric_and_positive(grid1d, rng):
    pipe = DifferencePipeline(grid1d)
    lam = 100.0
    for _ in range(5):
        f = rng.standard_normal(grid1d.ext_idx.size)
        g = rng.standard_normal(grid1d.ext_idx.size)
        ef, eg = pipe.apply(lam, f), pipe.apply(lam, g)
        gap = abs(grid1d.inner_ext(ef, g) - grid1d.inner_ext(f, eg))
        assert gap <= 1e-9 * np.linalg.norm(f) * np.linalg.norm(g)
        assert grid1d.inner_ext(ef, f) >= -1e-12


def test_difference_zero_source(grid1d):
    pipe = DifferencePipeline(grid1d)
    assert np.abs(pipe.apply(10.0, np.zeros(grid1d.ext_idx.size))).max() == 0.0


def test_difference_norm_monotone_and_matching_oracle(domain1d):
    grid = Grid1D(domain1d, 2048)
    pipe = DifferencePipeline(grid)
    norms = [pipe.norm(lam) for lam in (1e2, 1e3, 1e4)]
    assert norms[0] > norms[1] > norms[2]
    for lam, norm in zip((1e2, 1e3, 1e4), norms):
        exact = difference_norm_exact_1d(domain1d, lam)
        assert norm == pytest.approx(exact, rel=5e-3)


def test_difference_rank_two_in_1d(domain1d, rng):
    # densify the operator on a coarse grid: beyond the two interface
    # modes everything is solver noise
    grid = Grid1D(domain1d, 128)
    pipe = DifferencePipeline(grid)
    dim = grid.ext_idx.size
    sq = np.sqrt(grid.w_ext)
    cols = np.column_stack([sq * pipe.apply(1e3, e / sq)
                            for e in np.eye(dim)])
    vals = np.sort(np.abs(np.linalg.eigvalsh(0.5 * (cols + cols.T))))[::-1]
    assert vals[2] < 1e-10 * vals[0]


def test_exact_norm_slope(domain1d):
    fit = convergence_rate_fit_exact_1d(domain1d, LAMBDAS)
    assert fit.conclusive
    assert -0.52 <= fit.slope <= -0.48


def test_rate_fit_validates_sweep():
    with pytest.raises(DomainError):
        RateFit.from_sweep((1e2, 1e3), (1.0, 0.5))
    with pytest.raises(DomainError):
        RateFit.from_sweep((1e2, 1e3, 1e4), (1.0, 0.5, 0.2))  # 2 decades


# ---------------------------------------------------------------------------
# interface identities


def test_green_zero_data_gives_zero_residuals(grid1d):
    zero = np.zeros(grid1d.ext_idx.size)
    report = green_identity_check(grid1d, 1e3, zero, zero)
    assert report.as_tuple() == (0.0, 0.0, 0.0, 0.0)


def test_green_residuals_small_and_second_order(domain1d):
    lam = 1e3
    reports = {}
    for cells in (1024, 2048):
        grid = Grid1D(domain1d, cells)
        f, g = green_test_fields(grid)
        reports[cells] = green_identity_check(grid, lam, f, g)
    fine = reports[2048]
    assert max(fine.as_tuple()) <= 1e-6
    for idx in (0, 1):
        ratio = reports[1024].as_tuple()[idx] / fine.as_tuple()[idx]
        assert 3.5 <= ratio <= 4.5


def test_green_item_antisymmetry_identity(grid1d, rng):
    # (f, B^{-1} g) = (B^{-1} f, g) by symmetry of the exterior solve, so
    # item (ii)'s left side plus its mirrored version collapses to zero
    pipe = DifferencePipeline(grid1d)
    f = rng.standard_normal(grid1d.ext_idx.size)
    g = rng.standard_normal(grid1d.ext_idx.size)
    vf = pipe.exterior.solve(f)
    vg = pipe.exterior.solve(g)
    gap = abs(grid1d.inner_ext(f, vg) - grid1d.inner_ext(vf, g))
    assert gap <= 1e-10 * np.linalg.norm(f) * np.linalg.norm(g)


def test_green_2d_polar_identities(polar_grid):
    f, g = green_test_fields(polar_grid)
    report = green_identity_check(polar_grid, 1e3, f, g)
    res = report.as_tuple()
    assert max(res[:2]) < 1e-4          # pure-trace identities: clean
    assert max(res[2:]) < 5e-3          # circle multipliers omit curvature


# ---------------------------------------------------------------------------
# the nonlocal interface condition


def test_transmission_satisfies_exact_ntd(domain1d):
    lam = 1e3
    grid = Grid1D(domain1d, 2048)
    f, _ = green_test_fields(grid)
    u = transmission_solve(grid, lam, grid.extend(f))
    g0 = grid.trace_gamma0(u)
    g1 = grid.trace_gamma1(u, "exterior")
    n_mat = ntd_matrix_1d(lam, domain1d.inclusion_length)
    assert np.abs(g0 - n_mat @ g1).max() <= 1e-4 * np.abs(g0).max()


def test_nonlocal_solve_zero_source(grid1d):
    out = nonlocal_bc_solve(grid1d, 1e3, np.zeros(grid1d.ext_idx.size))
    assert np.abs(out).max() < 1e-14


def test_nonlocal_solve_rejects_tolerance_outside_contract(grid1d,
                                                           polar_grid):
    for grid in (grid1d, polar_grid):
        f = np.ones(grid.ext_idx.size)
        for tol in (0.0, -1e-10, 1e-3):
            with pytest.raises(ContractError):
                nonlocal_bc_solve(grid, 1e3, f, tol=tol)


def test_nonlocal_solve_checks_its_backward_error(grid1d, monkeypatch):
    f, _ = green_test_fields(grid1d)
    original, seen = coupling.backward_error, []

    def spy(*args, **kwargs):
        seen.append(original(*args, **kwargs))
        return seen[-1]

    monkeypatch.setattr(coupling, "backward_error", spy)
    nonlocal_bc_solve(grid1d, 1e3, f)
    assert len(seen) == 1 and 0.0 < seen[0] <= 1e-10
    with pytest.raises(ConvergenceError) as info:
        nonlocal_bc_solve(grid1d, 1e3, f, tol=1e-30)
    assert info.value.residual == seen[-1] > 1e-30


def test_nonlocal_polar_checks_its_backward_error(polar_grid, monkeypatch):
    f, _ = green_test_fields(polar_grid)
    original, seen = kernels.tridiagonal_backward_error, []

    def spy(*args):
        seen.append(original(*args))
        return seen[-1]

    monkeypatch.setattr(kernels, "tridiagonal_backward_error", spy)
    # the interface rows are not symmetric; cyclic reduction eliminates
    # them first, without pivoting, at every coupling
    lambdas = (1.0, 1e3, 1e6)
    for lam in lambdas:
        nonlocal_bc_solve(polar_grid, lam, f)
    assert len(seen) == len(lambdas)
    for residual in seen:
        assert residual.shape == polar_grid.modes.shape
        assert residual.max() <= 1e-10
    monkeypatch.setattr(kernels, "tridiagonal_backward_error",
                        lambda *args: np.full(polar_grid.modes.size, 1e-6))
    with pytest.raises(ConvergenceError) as info:
        nonlocal_bc_solve(polar_grid, 1e3, f)
    assert info.value.residual == 1e-6


def test_nonlocal_matches_transmission_1d(domain1d):
    lam = 1e3
    grid = Grid1D(domain1d, 2048)
    f, _ = green_test_fields(grid)
    u_tr = grid.restrict(transmission_solve(grid, lam, grid.extend(f)))
    u_nl = nonlocal_bc_solve(grid, lam, f)
    rel = np.linalg.norm(u_nl - u_tr) / np.linalg.norm(u_tr)
    assert rel <= 1e-4


def test_nonlocal_polar_improves_with_coupling(polar_grid):
    # principal-symbol error is lower order in the coupling; the sweep
    # stays where the interior layer is resolved (sqrt(lam) h < 0.5)
    f, _ = green_test_fields(polar_grid)
    gaps = []
    for lam in (10.0, 10.0 ** 1.5, 10.0 ** 2.25):
        u_tr = polar_grid.restrict(
            transmission_solve(polar_grid, lam, polar_grid.extend(f)))
        u_nl = nonlocal_bc_solve(polar_grid, lam, f)
        gaps.append(np.linalg.norm(u_nl - u_tr) / np.linalg.norm(u_tr))
    assert gaps[0] > gaps[1] > gaps[2]


# ---------------------------------------------------------------------------
# thresholds


def test_threshold_returns_lower_end_for_huge_mu(domain1d):
    norm_fn = lambda lam: difference_norm_exact_1d(domain1d, lam)
    assert counting_zero_threshold(norm_fn, 10.0, lam_lo=1.0) == 1.0


def test_threshold_scales_like_mu_squared(domain1d):
    norm_fn = lambda lam: difference_norm_exact_1d(domain1d, lam)
    base = norm_fn(1.0)
    t1 = counting_zero_threshold(norm_fn, 1e-2 * base)
    t2 = counting_zero_threshold(norm_fn, 1e-3 * base)
    assert 100 / 1.5 <= t2 / t1 <= 100 * 1.5


def test_threshold_confirmed_by_spectrum(domain1d):
    norm_fn = lambda lam: difference_norm_exact_1d(domain1d, lam)
    mu = 1e-2 * norm_fn(1.0)
    lam0 = counting_zero_threshold(norm_fn, mu)
    grid = Grid1D(domain1d, 256)
    pipe = DifferencePipeline(grid)
    dim = grid.ext_idx.size
    sq = np.sqrt(grid.w_ext)
    cols = np.column_stack([sq * pipe.apply(lam0 * 1.1, e / sq)
                            for e in np.eye(dim)])
    vals = np.abs(np.linalg.eigvalsh(0.5 * (cols + cols.T)))
    assert int(np.count_nonzero(vals > mu)) == 0


def test_threshold_flags_non_monotone_data():
    wiggle = lambda lam: 1.0 / lam + 0.5 * math.sin(math.log(lam)) ** 2
    with pytest.raises(InconclusiveError):
        counting_zero_threshold(wiggle, 0.3, lam_lo=1.0, lam_hi=1e6)
