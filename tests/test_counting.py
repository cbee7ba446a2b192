import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings, strategies as st

from lclab import (ContractError, ConvergenceError, DifferencePipeline,
                   Domain1D, Domain2D, DomainError, Fit, Grid1D, PolarGrid,
                   ResourceLimitError, birman_disk_check,
                   circle_count_prediction, circle_difference_eigenvalue,
                   convergence_rate_fit, counting, counting_circle,
                   counting_function, kernels, circle_model_exponent_fit,
                   dense_eigen, eigen_spectrum, power_iteration_sym,
                   solve_spd, trace_map_norm, weyl_exponent_fit)
from lclab.counting import (CIRCLE_MODE_CAP, _pencil, difference_norms,
                            eigen_spectra)
from lclab.kernels import _Factorization, solve_tridiagonal
from lclab.runner import (_TABLE, TOLERANCES, default_config,
                          run_experiment)

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
    monkeypatch.setattr(grid, "mode_bands",
                        lambda lam=0.0, blocks=None: flipped)
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
    assert "_stiffness" not in vars(grid)
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


def materialized_gram_spectra(grid, lambdas):
    """Oracle: ``eigen_spectra`` with the Gram matrix summed from the
    materialized product of the exterior rows, of shape (p, p, L, B, n)."""
    lams = np.asarray(lambdas, dtype=float)
    gamma, ext = grid.gamma_rows[:, 0], grid.ext_rows
    loads = np.zeros((gamma.size, 1, 1, grid.row_measure.size))
    loads[np.arange(gamma.size), 0, 0, gamma] = 1.0
    z = solve_tridiagonal(*grid.mode_bands(lams[:, None, None]), loads)
    z_ext = z[..., ext]
    gram = np.einsum("ijlbn,n->lbij", z_ext[:, None] * z_ext,
                     grid.row_measure[ext])
    half = np.linalg.inv(np.linalg.cholesky(np.moveaxis(z[..., gamma], 0, -2)))
    values = np.linalg.eigvalsh(half @ gram @ np.swapaxes(half, -1, -2))
    values = np.repeat(values, grid.mode_multiplicity, axis=1)
    return np.sort(values.reshape(len(values), -1), axis=1)


@pytest.mark.parametrize("make_grid", [
    lambda d1, d2: Grid1D(d1, 4096),
    lambda d1, d2: PolarGrid(d2, nr_ext=64, ntheta=128),
], ids=["grid1d-4096", "polar-64x128"])
def test_gram_is_the_materialized_product(make_grid, domain1d, disk_domain):
    # the runner's rate1d and rate2d grids: two interface nodes per block
    # on the interval, one per angular mode on the disk
    grid = make_grid(domain1d, disk_domain)
    spectra = eigen_spectra(grid, SWEEP)
    want = materialized_gram_spectra(grid, SWEEP)
    assert spectra.shape == want.shape
    assert spectra.tobytes() == want.tobytes()


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
    # lam rides on the diagonal only, and block 0 alone carries the norm:
    # one row of bands per lam
    assert calls[0] == (len(SWEEP), 1, grid.row_measure.size)
    assert fit.y.shape == (len(SWEEP),)
    monkeypatch.setattr(kernels, "DEFAULT_SOLVE_TOL", 1e-30)
    with pytest.raises(ConvergenceError):
        convergence_rate_fit(grid, SWEEP)
    assert len(calls) == 2


def test_rate2d_fit_reads_the_spectral_tops_to_the_bit():
    # the runner's rate2d grid and sweep, as its parts make them
    config = default_config("rate2d")
    grid, sweep = [obj for part in _TABLE["rate2d"][0] for obj in part(config)]
    assert (grid.nr_ext, grid.ntheta) == (64, 128)
    fit = convergence_rate_fit(grid, sweep)
    assert fit.y.tobytes() == eigen_spectra(grid, sweep)[:, -1].tobytes()


# Roundoff floor of the mode-monotonicity check below.  Cyclic reduction
# of the M-matrix block A_k is backward stable, so z = A_k^-1 e_Gamma
# carries a relative error of about kappa_k eps, with kappa_k the
# inf-norm condition number of block k, and e_k, a ratio of sums of
# positive terms of z, inherits it.  So a computed e_k+1 may exceed the
# computed e_k by eps (kappa_k e_k + kappa_k+1 e_k+1) with no fault.
# A_k^-1 >= 0, so ||A_k^-1||_inf = max(A_k^-1 1), one more solve.  Against
# an 80-bit Thomas solve (60 random grids, 6 couplings each, modes 0, 1
# and the last) e_k's error stayed below 0.12 kappa_k eps.
EPS = np.finfo(float).eps


@settings(max_examples=25, deadline=None)
@given(nr_int=st.integers(3, 48), nr_ext=st.integers(2, 48),
       ntheta=st.integers(8, 128), radius=st.floats(1e-2, 1e2),
       exponents=st.lists(st.floats(-3.0, 12.0), min_size=1, max_size=8))
def test_block_zero_carries_the_norm(nr_int, nr_ext, ntheta, radius,
                                     exponents):
    # R_out = R (nr_int + nr_ext) / nr_int puts Gamma on ring nr_int
    grid = PolarGrid(Domain2D(radius, radius * (nr_int + nr_ext) / nr_int),
                     nr_ext, ntheta)
    lams = 10.0 ** np.array(exponents)
    norms = difference_norms(grid, lams)
    assert norms.tobytes() == eigen_spectra(grid, lams)[:, -1].tobytes()
    # e_k, mode by mode, does not rise with k (see ``difference_norms``)
    e_k = _pencil(grid, lams)[..., 0]
    bands = grid.mode_bands(lams[:, None, None])
    row_sums = sum(np.abs(band) for band in bands).max(axis=-1)
    kappa = row_sums * solve_tridiagonal(
        *bands, np.ones(grid.row_measure.size)).max(axis=-1)
    floor = EPS * (kappa[:, :-1] * e_k[:, :-1] + kappa[:, 1:] * e_k[:, 1:])
    assert np.all(e_k[:, 1:] - e_k[:, :-1] <= floor)
    assert np.array_equal(norms, e_k[:, 0])


# Roundoff floor of the coupling-monotonicity check below, in units of
# eps times the top eigenvalue of the row at the smaller coupling.  E_lam
# falls in the Loewner order as lam grows, so by Weyl's monotonicity
# theorem each sorted eigenvalue does not rise.  A computed row is the
# exact spectrum of E_lam moved by at most c eps ||E_lam||, so two rows may
# show a rise of 2 c eps top with no fault.  Over 3,000 random grids of
# the sizes below and sweeps with lam >= 1 (lam < 1 brings the near-null
# constant of the Neumann problem), couplings one ulp apart included, the
# largest rise was 8.6 eps top (c about 4.3): 64 keeps a factor 7 over it.
MONOTONE_FLOOR_EPS = 64


@settings(max_examples=20, deadline=None)
@given(disk=st.booleans(), size=st.integers(1, 14),
       ntheta=st.integers(8, 32),
       exponents=st.lists(st.floats(0.0, 8.0), min_size=2, max_size=6))
def test_each_eigenvalue_does_not_rise_with_the_coupling(disk, size, ntheta,
                                                         exponents):
    # an asymmetric interval, 8 | cells; on the disk nr_ext = R / hr >= 3
    grid = (PolarGrid(Domain2D(1.0, 2.0), size + 2, ntheta) if disk
            else Grid1D(Domain1D(1.0, 0.25, 0.625), 8 * size))
    spectra = eigen_spectra(grid, np.unique(10.0 ** np.array(exponents)))
    floor = MONOTONE_FLOOR_EPS * EPS * spectra[:-1, -1:]
    assert np.all(spectra[1:] - spectra[:-1] <= floor)


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


@pytest.mark.parametrize("lam", [1.0, 1e6])
def test_circle_eigenvalue_over_an_array_is_the_scalar_calls(lam):
    radius = 2.5
    ks = np.arange(-10 ** 4, 10 ** 4 + 1)
    scalar = [circle_difference_eigenvalue(radius, lam, int(k)) for k in ks]
    assert all(type(w) is float for w in scalar)

    def written(k):   # the expression as it was written for one k
        xi = abs(k) / radius
        return 1.0 / (xi + math.sqrt(xi * xi + lam))

    got = circle_difference_eigenvalue(radius, lam, ks)
    assert got.tobytes() == np.array(scalar).tobytes()
    assert got.tobytes() == np.array([written(k) for k in ks.tolist()]
                                     ).tobytes()


def test_counting_circle_refuses_to_truncate():
    # R (1/mu - lam mu) / 2 = 5e7 modes to enumerate, above the cap
    assert CIRCLE_MODE_CAP < 5 * 10 ** 7
    with pytest.raises(ResourceLimitError,
                       match=f"circle count needs 50000001 modes, more than "
                             f"{CIRCLE_MODE_CAP}"):
        counting_circle(1.0, 1e3, 1e-8)
    # one mu over the cap refuses the whole array
    with pytest.raises(ResourceLimitError):
        counting_circle(1.0, 1e3, np.array([1e-2, 1e-8, 1e-3]))


def enumerated_circle_count(radius, lam, mu):
    """Oracle: the circle count by enumerating every mode of the band."""
    bound = radius * (1.0 / mu - lam * mu) / 2.0
    if bound < 0:
        return 0
    top = int(bound) + 2
    count = 1 if circle_difference_eigenvalue(radius, lam, 0) > mu else 0
    xi = np.arange(1, top + 1) / radius
    w = 1.0 / (xi + np.sqrt(xi * xi + lam))
    return count + 2 * int(np.count_nonzero(w > mu))


def looped_counting_function(eigenvalues, mu):
    """Oracle: N(mu; T) by comparing every eigenvalue with one mu."""
    if mu <= 0:
        raise DomainError("counting function needs mu > 0")
    return int(np.count_nonzero(np.asarray(eigenvalues, dtype=float) > mu))


def crossing_mus(radius, lam, bound):
    """The mu at which R (1/mu - lam mu) / 2 equals ``bound``, and the
    floats on either side of it."""
    c = 2.0 * bound / radius
    mu = 2.0 / (c + math.sqrt(c * c + 4.0 * lam))
    return [mu, np.nextafter(mu, 0.0), np.nextafter(mu, 1.0)]


def test_counting_circle_matches_enumeration_on_seeded_draws():
    rng = np.random.default_rng(20150928)
    checked = 0
    for _ in range(150):
        radius = 10.0 ** rng.uniform(-2.0, 2.0)
        lam = 10.0 ** rng.uniform(0.0, 8.0)
        top = 10.0 ** rng.uniform(-1.0, 5.0)  # the band, up to 1e5 modes
        mus = crossing_mus(radius, lam, top)
        mus += [mu for k in (math.floor(top), math.floor(top) + 1)
                for mu in crossing_mus(radius, lam, k)]
        mus.append(2.0 / math.sqrt(lam))  # past the crossover: no band
        want = [enumerated_circle_count(radius, lam, mu) for mu in mus]
        assert [counting_circle(radius, lam, mu) for mu in mus] == want
        assert counting_circle(radius, lam, np.array(mus)).tolist() == want
        checked += len(mus)
    assert checked == 150 * 10


def test_counting_circle_enumerates_where_rounding_hides_the_prefix(
        monkeypatch):
    # R sqrt(lam) = 1e17: at mu just below the crossover 1/sqrt(lam) the
    # rounding error of the band's bound is several modes, so the last
    # four modes need not hold the end of the counted prefix
    lam, radius = 1e34, 1.0
    rng = np.random.default_rng(5)
    mus = 1e-17 * (1.0 - 10.0 ** rng.uniform(-17.0, -15.0, 12))
    enumerate_modes = counting._enumerated_modes
    calls = []

    def spy(*args):
        calls.append(args)
        return enumerate_modes(*args)

    monkeypatch.setattr(counting, "_enumerated_modes", spy)
    want = [enumerated_circle_count(radius, lam, mu) for mu in mus]
    assert counting_circle(radius, lam, mus).tolist() == want
    assert calls
    assert max(want) > 0


def test_counts_take_arrays_of_mu(rng):
    values = np.concatenate([rng.uniform(0.0, 1.0, 40), [0.5, 0.5, -0.5]])
    mus = np.concatenate([rng.uniform(0.01, 1.2, 25), [0.5, np.nextafter(
        0.5, 0.0), np.nextafter(0.5, 1.0)]]).reshape(4, 7)
    counts = counting_function(values, mus)
    assert counts.shape == mus.shape and counts.dtype.kind == "i"
    assert counts.tolist() == [[looped_counting_function(values, mu)
                                for mu in row] for row in mus]
    for mu, count in zip(mus.ravel(), counts.ravel()):
        scalar = counting_function(values, mu)
        assert type(scalar) is int and scalar == count
    circle_mus = np.geomspace(1.0, 1e-4, 30)
    circle = counting_circle(2.5, 1e2, circle_mus)
    assert circle.shape == (30,) and circle.dtype.kind == "i"
    for mu, count in zip(circle_mus, circle):
        scalar = counting_circle(2.5, 1e2, mu)
        assert type(scalar) is int and scalar == count
        assert scalar == enumerated_circle_count(2.5, 1e2, mu)
    predictions = circle_count_prediction(2.5, 1e2, circle_mus)
    assert predictions.tolist() == [circle_count_prediction(2.5, 1e2, mu)
                                    for mu in circle_mus]


def test_counting_function_is_strict_and_needs_positive_mu():
    # strict: an eigenvalue equal to mu does not count, at one mu or many
    assert counting_function([0.5, 1.0, 2.0], 1.0) == 1
    assert counting_function([1.0, 1.0, 2.0], [1.0, 2.0]).tolist() == [1, 0]
    # a NaN eigenvalue never counts; a NaN mu counts nothing, and is no error
    values = [np.nan, 0.5, 3.0, np.nan]
    assert counting_function(values, 0.1) == 2 \
        == looped_counting_function(values, 0.1)
    assert counting_function(values, np.nan) == 0
    assert counting_function(values, [np.nan, 1.0]).tolist() == [0, 1]
    # any mu <= 0 raises, alone or in an array
    for bad in (0.0, -1.0, [1.0, 0.0], np.array([[0.5], [-2.0]])):
        with pytest.raises(DomainError):
            counting_function(values, bad)
        with pytest.raises(DomainError):
            counting_circle(1.0, 1e3, bad)
    with pytest.raises(DomainError):
        counting_circle(1.0, 1e3, [1e-2, np.nan])
    # the circle model needs 1 <= lam < inf, whether or not some mu has a
    # band to count
    for mu in (5.0, [5.0, 0.1]):
        with pytest.raises(DomainError):
            counting_circle(1.0, 0.5, mu)


@pytest.mark.parametrize("lam", [np.nan, np.inf, 0.5])
def test_circle_model_rejects_a_coupling_outside_one_to_inf(lam):
    # a NaN passes a plain lam < 1 test, and an infinite one reached
    # np.geomspace in the exponent fit as a bare ValueError
    for call in (lambda: circle_difference_eigenvalue(1.0, lam, 3),
                 lambda: circle_difference_eigenvalue(1.0, lam,
                                                      np.arange(4)),
                 lambda: counting_circle(1.0, lam, 0.01),
                 lambda: counting_circle(1.0, lam, [5.0, 0.01]),
                 lambda: circle_model_exponent_fit(1.0, lam)):
        with pytest.raises(DomainError, match="1 <= lam < inf"):
            call()


# The abstract step of the counting chain, N(mu; S* T2 S) <= N(mu; T2) for
# ||S|| <= 1, is the min-max theorem for matrices (Reed and Simon IV,
# XIII.1), so no run checks it: it is a property of the two routes below,
# the batched rank route and the looped brute force, on random sandwiches.
def birman_synthetic_spectra(n_instances, dim_domain, dim_range, seed):
    """The nonzero spectra of random sandwiches T1 = S* T2 S with
    ||S|| = 1, all drawn as one batch, and the spectrum ``t2_diag`` of T2.

    T1 is never formed: its nonzero eigenvalues are those of
    T2^1/2 G T2^1/2 with G = S S* (sigma(AB) and sigma(BA) agree off 0), a
    dim_range-square matrix, and ||S||^2 is the top eigenvalue of G.  The
    comparison discards the zeros this leaves out.
    """
    rng = np.random.default_rng(seed)
    t2_diag = 1.0 / np.arange(1, dim_range + 1)
    s = rng.standard_normal((n_instances, dim_range, dim_domain))
    gram = s @ np.swapaxes(s, 1, 2)
    gram /= np.linalg.eigvalsh(gram)[:, -1, None, None]
    half = np.sqrt(t2_diag)
    return np.linalg.eigvalsh(half[:, None] * gram * half), t2_diag


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


def looped_birman_spectra(n_instances, dim_domain, dim_range, seed):
    """Oracle: the spectra of T1 = S* T2 S, of size dim_domain, with one
    instance drawn, normalized by its SVD, and solved at a time."""
    rng = np.random.default_rng(seed)
    t2_diag = 1.0 / np.arange(1, dim_range + 1)
    eig1 = []
    for _ in range(n_instances):
        s = rng.standard_normal((dim_range, dim_domain))
        s /= np.linalg.norm(s, 2)
        t1 = s.T @ np.diag(t2_diag) @ s
        eig1.append(np.linalg.eigvalsh(0.5 * (t1 + t1.T)))
    return np.array(eig1), t2_diag


def looped_birman_check(n_instances, dim_domain, dim_range, seed):
    """Oracle: the synthetic check one instance and one probe at a time."""
    return looped_violations(*looped_birman_spectra(
        n_instances, dim_domain, dim_range, seed))


@settings(max_examples=40, deadline=None)
@given(n_instances=st.integers(1, 60), dim_domain=st.integers(1, 12),
       dim_range=st.integers(1, 8), seed=st.integers(0, 2 ** 64 - 1))
@example(100, 8, 3, 0)
@example(100, 8, 3, 1)
@example(100, 8, 3, 2)
@example(100, 8, 3, 57)
@example(40, 2, 5, 3)       # dim_domain below dim_range
def test_birman_synthetic_check_finds_no_violation(n_instances, dim_domain,
                                                   dim_range, seed):
    eig1, t2_diag = birman_synthetic_spectra(n_instances, dim_domain,
                                             dim_range, seed)
    assert _comparison_violations(eig1, t2_diag) == 0 \
        == looped_birman_check(n_instances, dim_domain, dim_range, seed)
    # and it can fail: S stretched to ||S||^2 = 2 dim_range lifts the top
    # of T1 to at least 2 (T1 >= S* S / dim_range), past T2's top of 1
    stretched = 2 * dim_range * eig1
    assert _comparison_violations(stretched, t2_diag) == \
        looped_violations(stretched, t2_diag) >= n_instances


@pytest.mark.parametrize("n_instances, dim_domain, dim_range, seed", [
    (100, 8, 3, 1), (100, 8, 3, 2), (100, 8, 3, 57), (40, 2, 5, 3),
])
def test_rank_route_spectra_are_the_nonzero_brute_force_spectra(
        n_instances, dim_domain, dim_range, seed):
    eig1, t2_diag = birman_synthetic_spectra(n_instances, dim_domain,
                                             dim_range, seed)
    brute, brute_t2 = looped_birman_spectra(n_instances, dim_domain,
                                            dim_range, seed)
    assert np.array_equal(t2_diag, brute_t2)
    # the rank route solves a dim_range-square matrix, whose spectrum is
    # brute force's with dim_domain - dim_range zeros left out (or, for
    # dim_domain < dim_range, dim_range - dim_domain zeros put in)
    rank = min(dim_domain, dim_range)
    assert eig1.shape == (n_instances, dim_range)
    for row, want in zip(eig1, brute):
        top = want.max()
        assert np.all(np.abs(row[:-rank]) <= 1e-12 * top)
        assert np.all(np.abs(want[:-rank]) <= 1e-12 * top)
        assert np.all(np.abs(row[-rank:] - want[-rank:]) <= 1e-12 * top)
        assert np.all(want[-rank:] > 1e-6 * top)


def test_batched_comparison_counts_like_the_probe_loop(rng):
    t2_diag = 1.0 / np.arange(1, 4)
    cases = [
        rng.uniform(0.0, 1.5, (60, 8)),                 # many violations
        np.where(rng.uniform(size=(30, 8)) < 0.5, 0.0,
                 rng.uniform(0.0, 1.0, (30, 8))),       # zeros below the floor
        np.array([[0.0] * 5 + [1 / 3, 0.5, 1.0],        # ties: no violation
                  [0.0] * 5 + [1 / 3 * (1 + 1e-13), 0.5, 1.0],
                  [0.0] * 5 + [1 / 3, 0.5, 1.0 + 1e-6],
                  [0.0] * 5 + [*t2_diag[::-1] * (1 + 1e-12)],  # probes
                  [-1e-13] * 6 + [2.0, 2.0]]),
    ]
    for eig1 in cases:
        expected = looped_violations(eig1, t2_diag)
        assert _comparison_violations(eig1, t2_diag) == expected
    assert looped_violations(cases[0], t2_diag) > 50
    assert _comparison_violations(cases[2], t2_diag) == \
        looped_violations(cases[2], t2_diag) == 3


@pytest.mark.parametrize("experiment", list(_TABLE))
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


def repeated_run_artifacts(tmp_path, experiment):
    """The artifact bytes of two runs of one config, by file name."""
    digests = []
    for run in ("a", "b"):
        out = tmp_path / run
        status, _ = run_experiment(default_config(experiment), out_dir=out)
        assert status == 0
        digests.append({p.name: p.read_bytes() for p in out.iterdir()})
    return digests


def test_weyl_artifacts_are_byte_identical(tmp_path):
    first, second = repeated_run_artifacts(tmp_path, "weyl")
    assert sorted(first) == ["summary.json", "weyl.csv"]
    assert first == second


def test_birman_artifacts_are_byte_identical(tmp_path):
    first, second = repeated_run_artifacts(tmp_path, "birman")
    assert sorted(first) == ["birman.csv", "summary.json"]
    assert first == second


def test_disk_spectrum_leaves_the_nodal_measures_unbuilt(disk_domain):
    grid = PolarGrid(disk_domain, nr_ext=8, ntheta=16)
    eigen_spectrum(grid, LAM)
    trace_map_norm(grid)
    assert not {"w_full", "pot_measure", "w_ext"} & set(vars(grid))
    # built on first use: the per-ring arrays repeated over each ring
    for nodal, per_ring in ((grid.w_full, grid.row_measure),
                            (grid.pot_measure, grid.ring_potential)):
        assert nodal[0] == per_ring[0]
        assert np.array_equal(nodal[1:].reshape(grid.ntot, grid.ntheta),
                              np.repeat(per_ring[1:, None], grid.ntheta, 1))
    assert np.array_equal(grid.w_ext, grid.w_full[grid.ext_idx])
