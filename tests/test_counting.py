import math

import numpy as np
import pytest
import scipy.linalg

from lclab import (ContractError, ConvergenceError, DifferencePipeline,
                   DomainError, Fit, Grid1D, PolarGrid, ResourceLimitError,
                   birman_disk_check, birman_synthetic_check,
                   circle_difference_eigenvalue, convergence_rate_fit,
                   counting, counting_circle, counting_function,
                   circle_model_exponent_fit, dense_eigen, eigen_spectrum,
                   power_iteration_sym, solve_spd, trace_map_norm,
                   weyl_exponent_fit)
from lclab.counting import (CIRCLE_MODE_CAP, _comparison_violations,
                            eigen_spectra)
from lclab.kernels import _Factorization, solve_tridiagonal
from lclab.runner import TOLERANCES, default_config, run_experiment

from conftest import gamma1_matrix

LAM = 1e3
SWEEP = (1e2, 1e3, 1e4, 1e5, 1e6)
SMALL_GRIDS = pytest.mark.parametrize("make_grid", [
    lambda d1, d2: PolarGrid(d2, nr_ext=8, ntheta=16),
    lambda d1, d2: Grid1D(d1, 64),
], ids=["polar-8x16", "grid1d-64"])


def densified_spectrum(grid, lam):
    """Oracle: the full spectrum of E_lam, densified one exterior basis
    vector at a time in the weighted inner product (two solves a column)."""
    pipe = DifferencePipeline(grid)
    sq = np.sqrt(grid.w_ext)
    dim = sq.size
    cols = np.empty((dim, dim))
    for j in range(dim):
        basis = np.zeros(dim)
        basis[j] = 1.0 / sq[j]
        cols[:, j] = sq * pipe.apply(lam, basis)
    return dense_eigen(0.5 * (cols + cols.T))


@SMALL_GRIDS
def test_eigen_spectrum_matches_densified_oracle(make_grid, domain1d,
                                                 disk_domain):
    grid = make_grid(domain1d, disk_domain)
    eigs = eigen_spectrum(grid, LAM)
    oracle = densified_spectrum(grid, LAM)
    rank = grid.interface_idx.size
    assert eigs.shape == (rank,)
    assert np.all(np.diff(eigs) >= 0)
    top = np.abs(oracle).max()
    assert np.abs(eigs - oracle[-rank:]).max() <= 1e-10 * top
    # everything the reduction leaves out is zero in the oracle
    assert np.abs(oracle[:-rank]).max() <= 1e-10 * top


def schur_spectrum(grid, lam, tol=1e-10):
    """Oracle: the nonzero spectrum of E_lam from the interface Schur
    complement of the sparse coupled matrix A.

    Eliminating all nodes r off the interface Gamma (X = A_rr^{-1}
    A_rGamma: one factorization, |Gamma| checked solves) leaves the
    Schur complement Sigma = A_GammaGamma - A_Gammar X, and E_lam =
    Y Sigma^{-1} Y^T W with Y the exterior rows of X and W the exterior
    cell measures.  Its nonzero eigenvalues are those of
    L^{-1} Y^T W Y L^{-T} with Sigma = L L^T.
    """
    mat = grid.assemble_coupled(lam).matrix
    gamma = grid.interface_idx
    rest = np.setdiff1d(np.arange(mat.shape[0]), gamma)
    a_rr, a_rg = mat[rest][:, rest], mat[rest][:, gamma].toarray()
    fact = _Factorization(a_rr)
    x = np.column_stack([solve_spd(a_rr, col, tol=tol, cache=fact)
                         for col in a_rg.T])
    sigma = mat[gamma][:, gamma].toarray() - a_rg.T @ x
    y = x[np.searchsorted(rest, grid.ext_idx)]
    gram = y.T @ (grid.w_ext[:, None] * y)
    chol = np.linalg.cholesky(0.5 * (sigma + sigma.T))
    half = scipy.linalg.solve_triangular(chol, gram, lower=True)
    core = scipy.linalg.solve_triangular(chol, half.T, lower=True)
    return dense_eigen(0.5 * (core + core.T))


@pytest.mark.parametrize("cells", [64, 4096])
def test_grid1d_mode_bands_are_the_coupled_matrix(domain1d, cells):
    grid = Grid1D(domain1d, cells)
    for lam in (0.0, 1e3, 1e6):
        lower, diag, upper = grid.mode_bands(lam)
        assert diag.shape == (1, grid.n_nodes)
        if lam > 0.0:
            mat = grid.assemble_coupled(lam).matrix
        else:
            mat = grid._stiffness
        assert np.array_equal(diag[0], mat.diagonal())
        assert np.array_equal(lower[0, 1:], mat.diagonal(-1))
        assert np.array_equal(upper[0, :-1], mat.diagonal(1))
        assert lower[0, 0] == upper[0, -1] == 0.0


@pytest.mark.parametrize("lam", [1e2, 1e4, 1e6])
def test_grid1d_spectrum_matches_schur_oracle(domain1d, lam):
    grid = Grid1D(domain1d, 256)
    eigs = eigen_spectrum(grid, lam)
    oracle = schur_spectrum(grid, lam)
    assert eigs.shape == (2,)
    assert np.abs(eigs - oracle).max() <= 1e-12 * oracle.max()


def test_non_spd_interface_block_is_reported(disk_domain, monkeypatch):
    grid = PolarGrid(disk_domain, nr_ext=8, ntheta=16)
    flipped = tuple(-band for band in grid.mode_bands(LAM))
    monkeypatch.setattr(grid, "mode_bands", lambda lam=0.0: flipped)
    with pytest.raises(ContractError):
        eigen_spectrum(grid, LAM)


def power_trace_map_norm(grid, tol):
    """Oracle: ||S|| by power iteration on S* S, two exterior solves an
    action."""
    ext = grid.assemble_exterior()
    tmat = gamma1_matrix(grid, "exterior")[:, grid.ext_idx]

    def s_star_s(f):
        sf = tmat @ ext.solve(f)
        return ext.solve_raw(tmat.T @ (grid.gamma_weights * sf))

    val, _ = power_iteration_sym(s_star_s, grid.ext_idx.size, tol=tol,
                                 weights=grid.w_ext)
    return math.sqrt(val)


MODE_GRIDS = [(8, 16), (32, 64), (12, 15)]  # 12 x 15: odd, no power of two


@pytest.mark.parametrize("nr_ext, ntheta", MODE_GRIDS,
                         ids=[f"{r}x{t}" for r, t in MODE_GRIDS])
def test_mode_engine_matches_generic_paths(disk_domain, nr_ext, ntheta):
    grid = PolarGrid(disk_domain, nr_ext, ntheta)
    eigs = eigen_spectrum(grid, LAM)
    s_norm = trace_map_norm(grid)
    # the angular modes never need the 2-D sparse stiffness
    assert grid._stiffness_matrix is None
    oracle = schur_spectrum(grid, LAM)
    assert eigs.shape == (ntheta,)
    assert np.abs(eigs - oracle).max() <= 1e-12 * oracle.max()
    assert abs(s_norm - power_trace_map_norm(grid, 1e-12)) <= 1e-8


def test_trace_map_norm_on_grid1d(grid1d):
    assert abs(trace_map_norm(grid1d)
               - power_trace_map_norm(grid1d, 1e-12)) <= 1e-8


@SMALL_GRIDS
def test_rate_fit_norms_are_spectral_tops(make_grid, domain1d, disk_domain):
    grid = make_grid(domain1d, disk_domain)
    lambdas = (1e2, 1e3, 1e4, 1e5)
    values = convergence_rate_fit(grid, lambdas).y
    # the oracle subtracts two O(1) solves, so its absolute error is about
    # 1e-16: at lam = 1e5 (norm 2.4e-4 on the disk) that is 2e-12 relative
    for lam, value in zip(lambdas[:3], values):
        top = densified_spectrum(grid, lam)[-1]
        assert abs(value - top) <= 1e-12 * top


@SMALL_GRIDS
def test_eigen_spectra_rows_are_the_single_lam_spectra(make_grid, domain1d,
                                                       disk_domain):
    grid = make_grid(domain1d, disk_domain)
    spectra = eigen_spectra(grid, SWEEP)
    assert spectra.shape == (len(SWEEP), grid.interface_idx.size)
    for lam, row in zip(SWEEP, spectra):
        assert np.array_equal(row, eigen_spectrum(grid, lam))


@SMALL_GRIDS
def test_rate_fit_makes_one_band_solve_per_sweep(make_grid, domain1d,
                                                  disk_domain, monkeypatch):
    grid = make_grid(domain1d, disk_domain)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[1].shape)
        return solve_tridiagonal(*args, **kwargs)

    monkeypatch.setattr(counting, "solve_tridiagonal", counted)
    fit = convergence_rate_fit(grid, SWEEP)
    assert len(calls) == 1
    # lam rides on the diagonal only: one row of bands per lam and block
    assert calls[0][0] == len(SWEEP)
    assert fit.y.shape == (len(SWEEP),)
    with pytest.raises(ConvergenceError):
        convergence_rate_fit(grid, SWEEP, tol=1e-30)
    assert len(calls) == 2


def test_disk_spectrum_positive_and_bounded_by_norm(disk_spectrum,
                                                    polar_grid):
    eigs = disk_spectrum["eigs"]
    assert eigs.size == polar_grid.interface_idx.size
    assert np.all(eigs > 0)
    assert abs(eigs.max() - disk_spectrum["norm"]) \
        <= 1e-6 * disk_spectrum["norm"]


def test_disk_spectrum_satisfies_birman_inequality(disk_spectrum):
    eigs = disk_spectrum["eigs"]
    top = float(eigs.max())
    mu_grid = np.geomspace(top / 100.0, top, 20)[::-1]
    rows = birman_disk_check(eigs, disk_spectrum["s_norm"], 1.0,
                             disk_spectrum["lam"], mu_grid,
                             slack=TOLERANCES["birman_disk_slack"])
    assert len(rows) == 20
    assert all(row["holds"] for row in rows)


@pytest.mark.parametrize("radius, lam, mu", [
    (1.0, 1e3, 1e-2), (1.0, 1e3, 1e-3), (2.5, 1e2, 4e-3), (0.5, 1.0, 0.3),
    (1.0, 1e3, 0.1),
])
def test_counting_circle_matches_enumeration(radius, lam, mu):
    k_max = 10 * int(radius / mu) + 10
    brute = sum(circle_difference_eigenvalue(radius, lam, k) > mu
                for k in range(-k_max, k_max + 1))
    assert counting_circle(radius, lam, mu) == brute


def test_counting_circle_refuses_to_truncate():
    # R (1/mu - lam mu) / 2 = 5e7 modes to enumerate, above the cap
    assert CIRCLE_MODE_CAP < 5 * 10 ** 7
    with pytest.raises(ResourceLimitError):
        counting_circle(1.0, 1e3, 1e-8)


def test_counting_function_is_strict_and_needs_positive_mu():
    assert counting_function([0.5, 1.0, 2.0], 1.0) == 1
    with pytest.raises(DomainError):
        counting_function([1.0], 0.0)


def looped_violations(eig1, t2_diag):
    """Oracle: one probe, and two ``counting_function`` calls, at a time."""
    violations = 0
    for row in eig1:
        mus = np.concatenate([t2_diag, row[row > 1e-12], [1e-9, 10.0]])
        for mu in mus:
            shifted = mu * (1.0 + 1e-12)
            if counting_function(row, shifted) > counting_function(t2_diag,
                                                                   shifted):
                violations += 1
    return violations


def looped_birman_check(n_instances, dim_domain, dim_range, seed):
    """Oracle: one instance drawn, and one eigvalsh, at a time."""
    rng = np.random.default_rng(seed)
    t2_diag = 1.0 / np.arange(1, dim_range + 1)
    eig1 = []
    for _ in range(n_instances):
        s = rng.standard_normal((dim_range, dim_domain))
        s /= np.linalg.norm(s, 2)
        t1 = s.T @ np.diag(t2_diag) @ s
        eig1.append(np.linalg.eigvalsh(0.5 * (t1 + t1.T)))
    return looped_violations(np.array(eig1), t2_diag)


def test_birman_synthetic_check_finds_no_violation():
    assert birman_synthetic_check() == 0
    for seed in (1, 2, 57):
        assert birman_synthetic_check(100, seed=seed) == 0 \
            == looped_birman_check(100, 8, 3, seed)
    assert birman_synthetic_check(40, 2, 5, seed=3) == 0 \
        == looped_birman_check(40, 2, 5, 3)


def test_batched_comparison_counts_like_the_probe_loop(rng):
    t2_diag = 1.0 / np.arange(1, 4)
    cases = [
        rng.uniform(0.0, 1.5, (60, 8)),                 # many violations
        np.where(rng.uniform(size=(30, 8)) < 0.5, 0.0,
                 rng.uniform(0.0, 1.0, (30, 8))),       # zeros below the floor
        np.array([[0.0] * 5 + [1 / 3, 0.5, 1.0],        # ties: no violation
                  [0.0] * 5 + [1 / 3 * (1 + 1e-13), 0.5, 1.0],
                  [0.0] * 5 + [1 / 3, 0.5, 1.0 + 1e-6],
                  [-1e-13] * 6 + [2.0, 2.0]]),
    ]
    for eig1 in cases:
        expected = looped_violations(eig1, t2_diag)
        assert _comparison_violations(eig1, t2_diag) == expected
    assert looped_violations(cases[0], t2_diag) > 50
    assert _comparison_violations(cases[2], t2_diag) == \
        looped_violations(cases[2], t2_diag) == 3


@pytest.mark.parametrize("experiment", ["rate1d", "rate2d", "weyl", "birman",
                                        "bounds", "nbound", "compose"])
def test_criteria_do_not_depend_on_the_seed(tmp_path, experiment):
    values = []
    for seed in (1, 57):
        status, summary = run_experiment(
            default_config(experiment, seed=seed), out_dir=tmp_path / str(seed))
        assert status == 0
        values.append([(c["name"], c["value"]) for c in summary["criteria"]])
    assert values[0] == values[1]


def test_weyl_fits_are_fits(disk_spectrum):
    model = circle_model_exponent_fit(1.0, LAM)
    disk = weyl_exponent_fit(disk_spectrum["eigs"])
    for fit in (model, disk):
        assert isinstance(fit, Fit)
        assert fit.x.size == fit.y.size == 11
        assert fit.x[0] > fit.x[-1]
        assert fit.y.dtype.kind == "i"  # counts, written as integers
    assert model.conclusive and model.r_squared > 0.9999
    assert model.y[0] == counting_circle(1.0, LAM, model.x[0])
    moduli = np.abs(disk_spectrum["eigs"])
    assert list(disk.y) == [counting_function(moduli, mu) for mu in disk.x]


def test_weyl_artifacts_are_byte_identical(tmp_path):
    digests = []
    for run in ("a", "b"):
        out = tmp_path / run
        status, _ = run_experiment(default_config("weyl"), out_dir=out)
        assert status == 0
        names = sorted(p.name for p in out.iterdir())
        assert names == ["summary.json", "weyl.csv"]
        digests.append({name: (out / name).read_bytes() for name in names})
    assert digests[0] == digests[1]
