import copy
import math

import numpy as np
import pytest
import scipy.sparse.linalg

from lclab import (ContractError, ConvergenceError, DifferencePipeline,
                   Domain1D, DomainError, Fit, Grid1D, InconclusiveError,
                   convergence_rate_fit, convergence_rate_fit_exact_1d,
                   counting_zero_threshold, difference_matrix_1d,
                   difference_norm_exact_1d, exterior_gram_1d,
                   green_identity_check, green_test_fields, kernels,
                   nonlocal_bc_solve, ntd_matrix_1d)
from lclab.coupling import THRESHOLD_REL_TOL

from conftest import gamma1_matrix

LAMBDAS = (1e2, 1e3, 1e4, 1e5, 1e6)
# the sparse oracle refines its solves to this backward error: at the
# default 1e-10 its sparse LU stops 7.6e-14 from the refined solution on
# 2,048 cells (the exterior solve; 1.6e-14 for the coupled one at
# lam = 1e3), where the band route sits within 1.2e-14
ORACLE_TOL = 1e-16


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


def test_rate_fit_validates_sweep(domain1d):
    with pytest.raises(DomainError):
        convergence_rate_fit_exact_1d(domain1d, (1e2, 1e3))
    with pytest.raises(DomainError):
        convergence_rate_fit_exact_1d(domain1d, (1e2, 1e3, 1e4))  # 2 decades


def test_rate_fits_are_fits(domain1d):
    exact = convergence_rate_fit_exact_1d(domain1d, LAMBDAS)
    fit = convergence_rate_fit(Grid1D(domain1d, 64), LAMBDAS)
    for got in (exact, fit):
        assert isinstance(got, Fit)
        assert np.array_equal(got.x, LAMBDAS)
        assert got.conclusive and not got.flat
    assert exact.y[0] == difference_norm_exact_1d(domain1d, LAMBDAS[0])


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


def _sparse_route(grid, lam):
    """Oracle: a copy of ``grid`` whose coupled and exterior solves and
    operator products run on the sparse assemblies (``SparseOperator``)."""
    coupled, exterior = grid.assemble_coupled(lam), grid.assemble_exterior()
    oracle = copy.copy(grid)
    oracle.solve_coupled = lambda lam, f, tol: coupled.solve(f, ORACLE_TOL)
    oracle.solve_exterior = lambda fs, tol: np.stack(
        [exterior.solve(f, ORACLE_TOL) for f in fs])
    oracle.apply_coupled = lambda lam, us: np.stack(
        [coupled.apply(u) for u in us])
    return oracle


def _rel(got, want):
    return np.linalg.norm(got - want) / np.linalg.norm(want)


@pytest.mark.parametrize("make_grid", [
    lambda d1, pg: Grid1D(d1, 1024), lambda d1, pg: Grid1D(d1, 2048),
    lambda d1, pg: pg], ids=["grid1d-1024", "grid1d-2048", "polar"])
def test_green_band_route_matches_sparse_oracle(make_grid, domain1d,
                                                polar_grid):
    lam = 1e3
    grid = make_grid(domain1d, polar_grid)
    oracle = _sparse_route(grid, lam)
    f, g = green_test_fields(grid)
    u = grid.solve_coupled(lam, grid.extend(f))
    fields = grid.solve_exterior(np.stack([g, f]))
    assert _rel(u, oracle.solve_coupled(lam, grid.extend(f), None)) <= 1e-12
    for got, want in zip(fields, oracle.solve_exterior([g, f], None)):
        assert _rel(got, want) <= 1e-12
    report = green_identity_check(grid, lam, f, g)
    # the report carries the very coupled solve it measured
    assert np.array_equal(report.coupled, u)
    expected = green_identity_check(oracle, lam, f, g).as_tuple()
    assert np.allclose(report.as_tuple(), expected, rtol=1e-6, atol=0.0)


@pytest.mark.parametrize("make_grid", [
    lambda d1, pg: Grid1D(d1, 1024), lambda d1, pg: pg],
    ids=["grid1d", "polar"])
def test_solve_coupled_matches_sparse_oracle(make_grid, domain1d,
                                             polar_grid):
    grid = make_grid(domain1d, polar_grid)
    f = grid.extend(green_test_fields(grid)[0])
    for lam in (1e3, 1e6):
        u = grid.solve_coupled(lam, f)
        assert _rel(u, grid.assemble_coupled(lam).solve(f, ORACLE_TOL)) \
            <= 1e-12


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
    u = grid.solve_coupled(lam, grid.extend(f))
    g0 = grid.trace_gamma0(u)
    g1 = grid.trace_gamma1(u, "exterior")
    n_mat = ntd_matrix_1d(lam, domain1d.inclusion_length)
    assert np.abs(g0 - n_mat @ g1).max() <= 1e-4 * np.abs(g0).max()


def test_nonlocal_solve_zero_source(grid1d):
    out = nonlocal_bc_solve(grid1d, 1e3, np.zeros(grid1d.ext_idx.size))
    assert np.abs(out).max() < 1e-14


def test_nonlocal_solve_needs_two_exterior_layers():
    # one exterior cell on each side: the stencil has no second layer
    grid = Grid1D(Domain1D(length=1.0, a1=1 / 16, a2=15 / 16), 16)
    with pytest.raises(DomainError, match="two layers"):
        nonlocal_bc_solve(grid, 1e3, np.ones(grid.ext_idx.size))


def test_nonlocal_solve_rejects_tolerance_outside_contract(grid1d,
                                                           polar_grid):
    for grid in (grid1d, polar_grid):
        f = np.ones(grid.ext_idx.size)
        for tol in (0.0, -1e-10, 1e-3):
            with pytest.raises(ContractError):
                nonlocal_bc_solve(grid, 1e3, f, tol=tol)


@pytest.mark.parametrize("grid_name", ["grid1d", "polar_grid"])
def test_nonlocal_solve_checks_its_backward_error(grid_name, request,
                                                  monkeypatch):
    # the check covers every whole bordered block, interface rows
    # included; on the disk the interface rows are not symmetric and the
    # solve does not pivot, at every coupling
    grid = request.getfixturevalue(grid_name)
    f, _ = green_test_fields(grid)
    original, seen = kernels.bordered_backward_error, []

    def spy(*args, **kwargs):
        seen.append(original(*args, **kwargs))
        return seen[-1]

    monkeypatch.setattr(kernels, "bordered_backward_error", spy)
    lambdas = (1.0, 1e3, 1e6)
    for lam in lambdas:
        nonlocal_bc_solve(grid, lam, f)
    assert len(seen) == len(lambdas)
    for residual in seen:
        assert residual.shape == grid.mode_multiplicity.shape
        assert 0.0 < residual.max() <= 1e-10
    with pytest.raises(ConvergenceError) as info:
        nonlocal_bc_solve(grid, 1e3, f, tol=1e-30)
    assert info.value.residual == seen[-1].max() > 1e-30


def _eliminated_nonlocal_polar(grid, lam, f_ext):
    """Oracle: the disk's nonlocal solve per angular mode, the interface
    row u = n_k gamma1 u rid of the stencil's third entry by the first
    exterior row, so that every mode is one tridiagonal system."""
    g, nth = grid.nr_int, grid.ntheta
    lower, diag, upper = (band[:, g:] / grid.row_measure[g:]
                          for band in grid.mode_bands())
    rhs = np.zeros(diag.shape, dtype=complex)
    rhs[:, 1:] = np.fft.rfft(np.asarray(f_ext, dtype=float).reshape(
        grid.nr_ext, nth), axis=1).T
    stencil = grid.gamma1_stencil("exterior")[0]
    n_k = -1.0 / np.sqrt((grid.modes / grid.r_inc) ** 2 + lam)
    row = -n_k[:, None] * stencil
    row[:, 0] += 1.0
    factor = row[:, 2] / upper[:, 1]
    diag[:, 0] = row[:, 0] - factor * lower[:, 1]
    upper[:, 0] = row[:, 1] - factor * diag[:, 1]
    rhs[:, 0] = -factor * rhs[:, 1]
    out = kernels.solve_tridiagonal(lower, diag, upper, rhs)
    return np.fft.irfft(out[:, 1:].T, n=nth, axis=1).ravel()


def test_nonlocal_polar_matches_per_mode_elimination(polar_grid):
    f, _ = green_test_fields(polar_grid)
    for lam in (1.0, 1e3, 1e6):
        assert _rel(nonlocal_bc_solve(polar_grid, lam, f),
                    _eliminated_nonlocal_polar(polar_grid, lam, f)) <= 1e-12


def _spsolve_nonlocal(grid, lam, f_ext):
    """Oracle: the 1D nonlocal solve as one sparse matrix, the stiffness
    rows over the cell measures with the two I - N gamma1 rows written
    in, solved by sparse LU."""
    nodes = np.union1d(grid.ext_idx, grid.interface_idx)
    gamma = np.searchsorted(nodes, grid.interface_idx)
    mat = grid._stiffness[nodes][:, nodes]
    mat.data /= np.repeat(grid.w_full[nodes], np.diff(mat.indptr))
    n_mat = ntd_matrix_1d(lam, grid.domain.inclusion_length)
    rows = -n_mat @ gamma1_matrix(grid, "exterior")[:, nodes].toarray()
    rows[[0, 1], gamma] += 1.0
    mat = mat.tolil()
    mat[gamma] = rows
    out = np.zeros(grid.n_nodes)
    out[nodes] = scipy.sparse.linalg.spsolve(mat.tocsr(),
                                             grid.extend(f_ext)[nodes])
    return grid.restrict(out)


def test_nonlocal_bordered_solve_matches_spsolve(grid1d):
    f, _ = green_test_fields(grid1d)
    for lam in (1.0, 1e3, 1e6):
        assert _rel(nonlocal_bc_solve(grid1d, lam, f),
                    _spsolve_nonlocal(grid1d, lam, f)) <= 1e-12


def test_nonlocal_matches_transmission_1d(domain1d):
    lam = 1e3
    grid = Grid1D(domain1d, 2048)
    f, _ = green_test_fields(grid)
    u_tr = grid.restrict(grid.solve_coupled(lam, grid.extend(f)))
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
            polar_grid.solve_coupled(lam, polar_grid.extend(f)))
        u_nl = nonlocal_bc_solve(polar_grid, lam, f)
        gaps.append(np.linalg.norm(u_nl - u_tr) / np.linalg.norm(u_tr))
    assert gaps[0] > gaps[1] > gaps[2]


# ---------------------------------------------------------------------------
# thresholds


def test_threshold_returns_lower_end_for_huge_mu(domain1d):
    norm_fn = lambda lams: difference_norm_exact_1d(domain1d, lams)
    assert counting_zero_threshold(norm_fn, [10.0], lam_lo=1.0) == [1.0]


def test_threshold_scales_like_mu_squared(domain1d):
    norm_fn = lambda lams: difference_norm_exact_1d(domain1d, lams)
    base = difference_norm_exact_1d(domain1d, 1.0)
    t1, t2 = counting_zero_threshold(norm_fn, [1e-2 * base, 1e-3 * base])
    assert 100 / 1.5 <= t2 / t1 <= 100 * 1.5


def test_threshold_confirmed_by_spectrum(domain1d):
    norm_fn = lambda lams: difference_norm_exact_1d(domain1d, lams)
    mu = 1e-2 * difference_norm_exact_1d(domain1d, 1.0)
    [lam0] = counting_zero_threshold(norm_fn, [mu])
    grid = Grid1D(domain1d, 256)
    pipe = DifferencePipeline(grid)
    dim = grid.ext_idx.size
    sq = np.sqrt(grid.w_ext)
    cols = np.column_stack([sq * pipe.apply(lam0 * 1.1, e / sq)
                            for e in np.eye(dim)])
    vals = np.abs(np.linalg.eigvalsh(0.5 * (cols + cols.T)))
    assert int(np.count_nonzero(vals > mu)) == 0


def test_threshold_flags_non_monotone_data():
    wiggle = lambda lams: 1.0 / lams + 0.5 * np.sin(np.log(lams)) ** 2
    with pytest.raises(InconclusiveError):
        counting_zero_threshold(wiggle, [0.3], lam_lo=1.0, lam_hi=1e6)


def scalar_threshold(norm_fn, mu, lam_lo=1.0, lam_hi=1e12):
    """Oracle: one bisection for one mu, one scalar ``norm_fn`` call per
    probe and per step."""
    if mu <= 0:
        raise DomainError("threshold needs mu > 0")
    vals = np.array([norm_fn(l) for l in np.geomspace(lam_lo, lam_hi, 13)])
    if np.any(np.diff(vals) > 1e-9 * vals[:-1]):
        raise InconclusiveError("||E_lam|| sweep is not nonincreasing")
    if norm_fn(lam_lo) < mu:
        return lam_lo
    if norm_fn(lam_hi) >= mu:
        raise DomainError(f"mu={mu} not reached below lam={lam_hi:g}")
    lo, hi = lam_lo, lam_hi
    while hi / lo > 1.0 + THRESHOLD_REL_TOL:
        mid = math.sqrt(lo * hi)
        if norm_fn(mid) < mu:
            hi = mid
        else:
            lo = mid
    return hi


def test_difference_norm_batch_is_the_scalar_calls(domain1d, rng):
    lams = np.concatenate([np.geomspace(1.0, 1e12, 13),
                           10.0 ** rng.uniform(0.0, 12.0, 50)])
    batch = difference_norm_exact_1d(domain1d, lams)
    scalar = [difference_norm_exact_1d(domain1d, lam) for lam in lams]
    assert all(type(v) is float for v in scalar)
    assert batch.shape == lams.shape and batch.tolist() == scalar


def test_threshold_matches_scalar_bisections(domain1d):
    calls = []

    def norm_fn(lams):
        calls.append(len(lams))
        return difference_norm_exact_1d(domain1d, lams)

    scalar_fn = lambda lam: difference_norm_exact_1d(domain1d, lam)
    base = scalar_fn(1.0)
    # 10.0 is met at lam_lo; the rest are bisected, 0.37 off the decades
    mus = [base * 1e-2, 10.0, base * 1e-3, base * 0.37, base * 1e-4]
    got = counting_zero_threshold(norm_fn, mus)
    assert got == [scalar_threshold(scalar_fn, mu) for mu in mus]
    assert got[1] == 1.0
    # one probe sweep, then one call per lockstep step: the scalar
    # bisections make 30 calls for each mu met past lam_lo
    assert calls[0] == 13 and len(calls) <= 18
    # a mu never reached fails the call, as its scalar bisection does
    with pytest.raises(DomainError):
        scalar_threshold(scalar_fn, 1e-3 * scalar_fn(1e12))
    with pytest.raises(DomainError):
        counting_zero_threshold(norm_fn, [base * 1e-2,
                                          1e-3 * scalar_fn(1e12)])
    wiggle = lambda lam: 1.0 / lam + 0.5 * np.sin(np.log(lam)) ** 2
    with pytest.raises(InconclusiveError):
        scalar_threshold(wiggle, 0.3, lam_hi=1e6)
    with pytest.raises(InconclusiveError):
        counting_zero_threshold(wiggle, [0.3], lam_hi=1e6)
