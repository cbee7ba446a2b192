import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lclab import (ConfigError, ContractError, DomainError, Fit, TorusGrid,
                   apply_multiplier, apply_psdo, default_composition_symbols,
                   dft, flat_ntd_symbol, idft, make_symbol,
                   ntd_bound_experiment, operator_bound_experiment,
                   sobolev_norm, composition_error_experiment, IDENTITY_SYMBOL)
from lclab import torus
from lclab.errors import ResourceLimitError
from lclab.symbols import ParamSymbol
from lclab.torus import (_check_real, _map_norm, _multiplier_norms,
                         _real_matrix, _top_singular_value, psdo_matrix)

GRID = TorusGrid(64)
SWEEP = tuple(10.0 ** e for e in (2.0, 2.5, 3.0, 3.5, 4.0, 4.5))
COMPOSE_SWEEP = SWEEP + (1e5,)  # the runner's compose sweep


def taylor_composition_symbol(a, b, da_dxi, dxb, terms):
    """Oracle: symbol of the truncated composition expansion
    sum_{alpha <= terms} (1/alpha!) d^alpha_xi a * D^alpha_x b
    for scalar frequency; analytic derivative callables keep the
    remainder measurement free of finite-difference noise."""

    def fn(xp, xip, lam):
        out = a(xp, xip, lam) * b(xp, xip, lam)
        if terms >= 1:
            out = out + da_dxi(xp, xip, lam) * dxb(xp, xip, lam)
        if terms >= 2:
            raise ConfigError("expansion wired up to first order only")
        return out

    ta, tb = a.class_tag, b.class_tag
    return make_symbol(fn, ta.order + tb.order, kind="P",
                       k=int(math.floor(ta.order)) if ta.order >= 0 else None)


def mode(grid, k):
    return np.exp(1j * k * grid.x)


def test_grid_requires_power_of_two():
    with pytest.raises(ConfigError):
        TorusGrid(48)
    with pytest.raises(ConfigError):
        TorusGrid(4)


def test_frequency_set_convention():
    g = TorusGrid(8)
    assert set(g.freqs.tolist()) == {-3, -2, -1, 0, 1, 2, 3, 4}


def test_dft_of_constant_and_pure_mode():
    coeffs = dft(GRID, np.ones(GRID.m))
    assert abs(coeffs[GRID.freqs == 0][0] - 1.0) < 1e-14
    assert np.abs(coeffs[GRID.freqs != 0]).max() < 1e-14
    coeffs = dft(GRID, mode(GRID, 3))
    assert abs(coeffs[GRID.freqs == 3][0] - 1.0) < 1e-14
    assert np.abs(coeffs[GRID.freqs != 3]).max() < 1e-14


def test_roundtrip_and_parseval(rng):
    u = rng.standard_normal(GRID.m) + 1j * rng.standard_normal(GRID.m)
    assert np.abs(idft(GRID, dft(GRID, u)) - u).max() < 1e-12
    grid_norm2 = 2 * np.pi / GRID.m * np.sum(np.abs(u) ** 2)
    coeff_norm2 = 2 * np.pi * np.sum(np.abs(dft(GRID, u)) ** 2)
    assert coeff_norm2 == pytest.approx(grid_norm2, rel=1e-12)


def test_sobolev_single_mode_weight():
    for k in (0, 3, -7):
        u = mode(GRID, k)
        l2 = sobolev_norm(GRID, u, 0.0)
        for s in (-1.0, 0.5, 2.0):
            expected = (1 + k * k) ** (s / 2) * l2
            assert sobolev_norm(GRID, u, s) == pytest.approx(expected)


def test_sobolev_zero_order_is_l2(rng):
    u = rng.standard_normal(GRID.m)
    l2 = math.sqrt(2 * np.pi / GRID.m * np.sum(u * u))
    assert sobolev_norm(GRID, u, 0.0) == pytest.approx(l2, rel=1e-12)


def test_sobolev_monotone_in_order(rng):
    u = rng.standard_normal(GRID.m)
    norms = [sobolev_norm(GRID, u, s) for s in (-1.0, 0.0, 0.5, 1.0, 2.0)]
    assert all(a <= b * (1 + 1e-12) for a, b in zip(norms, norms[1:]))


def test_multiplier_identity_and_eigenmode():
    u = mode(GRID, 5)
    assert np.abs(apply_multiplier(GRID, IDENTITY_SYMBOL, 7.0, u) - u).max() \
        < 1e-13
    out = apply_multiplier(GRID, flat_ntd_symbol(), 11.0, u)
    assert np.abs(out - (-1.0 / 6.0) * u).max() < 1e-13


def test_multiplier_composition_is_pointwise_product(rng):
    u = rng.standard_normal(GRID.m)
    b1, b2 = flat_ntd_symbol(), IDENTITY_SYMBOL
    b2 = make_symbol(lambda xp, xip, lam: 1.0 / (1 + xip * xip), -2.0, "S",
                     x_support_radius=0.0)
    two_step = apply_multiplier(GRID, b1, 9.0,
                                apply_multiplier(GRID, b2, 9.0, u))
    prod = make_symbol(lambda xp, xip, lam: b1(xp, xip, lam)
                       * b2(xp, xip, lam), -3.0, "P", x_support_radius=0.0)
    assert np.abs(two_step - apply_multiplier(GRID, prod, 9.0, u)).max() < 1e-12


def test_multiplier_never_mixes_frequencies():
    for k in (-5, 0, 9):
        out = dft(GRID, apply_multiplier(GRID, flat_ntd_symbol(), 4.0,
                                         mode(GRID, k)))
        assert np.abs(out[GRID.freqs != k]).max() < 1e-14


def test_psdo_matches_multiplier_for_x_independent(rng):
    u = rng.standard_normal(GRID.m)
    lam = 25.0
    via_psdo = apply_psdo(GRID, flat_ntd_symbol(), lam, u)
    via_mult = apply_multiplier(GRID, flat_ntd_symbol(), lam, u)
    assert np.abs(via_psdo - via_mult).max() < 1e-12


def test_psdo_frequency_shift_symbol():
    shift = make_symbol(lambda xp, xip, lam: np.exp(1j * xp), 0.0, "S")
    for k in (-3, 0, 7):  # band-limited modes: the shift is exact
        out = dft(GRID, apply_psdo(GRID, shift, 1.0, mode(GRID, k)))
        assert abs(out[GRID.freqs == k + 1][0] - 1.0) < 1e-12
        assert np.abs(out[GRID.freqs != k + 1]).max() < 1e-12


def test_psdo_derivative_symbol_is_spectral_derivative(rng):
    deriv = make_symbol(lambda xp, xip, lam: 1j * xip, 1.0, "S",
                        x_support_radius=0.0)
    coeffs = np.zeros(GRID.m, dtype=complex)
    keep = np.abs(GRID.freqs) <= GRID.m // 4
    coeffs[keep] = rng.standard_normal(keep.sum())
    u = idft(GRID, coeffs)
    spectral = idft(GRID, 1j * GRID.freqs * coeffs)
    assert np.abs(apply_psdo(GRID, deriv, 1.0, u) - spectral).max() < 1e-12


def test_psdo_size_guard():
    with pytest.raises(ResourceLimitError):
        apply_psdo(TorusGrid(1024), IDENTITY_SYMBOL, 1.0, np.ones(1024))


def test_operator_bound_validates_inputs():
    with pytest.raises(ConfigError):
        operator_bound_experiment(GRID, flat_ntd_symbol(), -1.0, 0.5, 0.7,
                                  SWEEP)
    with pytest.raises(DomainError):
        operator_bound_experiment(GRID, flat_ntd_symbol(), -1.0, 0.5, -0.5,
                                  (1e2, 1e3))


@pytest.mark.parametrize("sweep", [(1e2, 1e3), (1e3, 1e2, 1e4),
                                   (0.0, 1e2, 1e3), (1e2, 1e3, np.inf),
                                   (np.nan, 1e2, 1e3)])
def test_every_torus_sweep_is_checked(sweep):
    a, b, da, dxb = default_composition_symbols()
    for run in (lambda: operator_bound_experiment(
                    GRID, flat_ntd_symbol(), -1.0, 0.5, -0.5, sweep),
                lambda: ntd_bound_experiment(GRID, (0.5,), sweep),
                lambda: composition_error_experiment(
                    GRID, a, b, da, dxb, 1.0, -1.0, 0.5, sweep)):
        with pytest.raises(DomainError,
                           match="3 positive, finite, increasing"):
            run()


def test_operator_bound_ntd_decay():
    grid = TorusGrid(512)
    fit = operator_bound_experiment(grid, flat_ntd_symbol(), -1.0, 0.5, -0.5,
                                    SWEEP)
    assert fit.conclusive
    assert -1.1 <= fit.slope <= -0.9
    # independent enumeration oracle at one sweep point: the exact
    # mode-wise supremum of <k>^{1/2} |b| <k>^{-1/2} is lam^{-1/2}
    ks = grid.freqs.astype(float)
    oracle = np.max(1.0 / np.sqrt(ks * ks + 1e4))
    assert fit.y[4] == pytest.approx(oracle, rel=1e-9)


def test_operator_bound_identity_is_flat():
    fit = operator_bound_experiment(GRID, IDENTITY_SYMBOL, 0.0, 0.5, 0.5,
                                    SWEEP)
    assert fit.flat and fit.conclusive
    assert abs(fit.slope) < 0.05
    assert np.allclose(fit.y, 1.0)


def test_experiments_return_fits():
    lambdas = np.array(SWEEP[:3])
    bound = operator_bound_experiment(GRID, flat_ntd_symbol(), -1.0, 0.5,
                                      -0.5, lambdas)
    nbound = ntd_bound_experiment(GRID, (0.5,), lambdas)[0.5]
    a, b, da, dxb = default_composition_symbols()
    rem, comp = composition_error_experiment(GRID, a, b, da, dxb, 1.0, -1.0,
                                             0.5, lambdas)
    for fit, x, expected in ((bound, np.sqrt(lambdas), -1.0),
                             (nbound, lambdas, -0.5),
                             (rem, np.sqrt(lambdas), -1.0),
                             (comp, np.sqrt(lambdas), -1.0)):
        assert isinstance(fit, Fit)
        assert np.array_equal(fit.x, x)
        assert fit.expected == expected
        assert fit.conclusive


def test_ntd_bound_two_regimes():
    grid = TorusGrid(1024)
    fits = ntd_bound_experiment(grid, (0.0, 0.5, 1.0, 1.5), SWEEP)
    assert fits[0.5].slope == pytest.approx(-0.5, abs=0.05)
    assert -0.1 <= fits[1.5].slope <= 0.0
    # enumeration oracle for s = 1 at lam = 1e3
    ks = grid.freqs.astype(float)
    oracle = np.max((1 + ks * ks) ** 0.5 / np.sqrt(ks * ks + 1e3)
                    * (1 + ks * ks) ** -0.25)
    assert fits[1.0].y[2] == pytest.approx(oracle, rel=1e-9)
    assert fits[1.0].slope == pytest.approx(-0.25, abs=0.07)


def test_composition_exact_for_x_independent_outer_factor(rng):
    # multiplier b composed after multiplier-free a: remainder identically 0
    grid = TorusGrid(64)
    a = make_symbol(lambda xp, xip, lam: np.sqrt(1 + xip * xip), 1.0, "S",
                    x_support_radius=0.0)
    b = flat_ntd_symbol()
    wa, wb = psdo_matrix(grid, a, 50.0), psdo_matrix(grid, b, 50.0)
    u = rng.standard_normal(grid.m)
    ab = wa @ dft(grid, wb @ dft(grid, u))
    prod = make_symbol(lambda xp, xip, lam: a(xp, xip, lam) * b(xp, xip, lam),
                       0.0, "P", x_support_radius=0.0)
    direct = apply_multiplier(grid, prod, 50.0, u)
    assert np.abs(ab - direct).max() < 1e-12


def test_composition_remainder_decays():
    grid = TorusGrid(128)
    a, b, da, dxb = default_composition_symbols()
    lambdas = tuple(10.0 ** e for e in (2, 2.5, 3, 3.5, 4, 4.5, 5))
    rem, comp = composition_error_experiment(grid, a, b, da, dxb, 1.0, -1.0,
                                             0.5, lambdas)
    assert rem.conclusive and rem.r_squared > 0.9999
    assert rem.slope == pytest.approx(-1.0, abs=0.01)
    assert comp.slope <= -0.9  # corollary variant on the same data


# ---------------------------------------------------------------------------
# whole-grid symbol calls against the per-point loops

# per-point and whole-grid calls may round in different library paths
ULPS = 4 * np.finfo(float).eps


def unit_roots(m):
    """The m roots of unity w^n = exp(2 pi i n / m), n = 0 .. m - 1, with
    w^(m - n) = conj w^n, w^0 = 1 and w^(m/2) = -1 exactly."""
    roots = np.exp(2j * np.pi * np.arange(m) / m)
    roots[m // 2 + 1:] = roots[m // 2 - 1:0:-1].conj()
    roots[0], roots[m // 2] = 1.0, -1.0
    return roots


def phase_column(grid, k):
    """exp(i k x_j) = w^(j k mod M) from the table of roots of unity."""
    return unit_roots(grid.m)[(np.arange(grid.m) * int(k)) % grid.m]


def looped_psdo_matrix(grid, symbol, lam):
    """Oracle: the quadrature matrix one column, and one symbol call per
    grid point, at a time."""
    w = np.empty((grid.m, grid.m), dtype=complex)
    for col, k in enumerate(grid.freqs):
        vals = np.array([symbol(float(xj), float(k), lam) for xj in grid.x],
                        dtype=complex)
        w[:, col] = vals * phase_column(grid, k)
    return w


@pytest.mark.parametrize("points", [8, 16, 32, 64, 128, 256, 512])
def test_phase_is_the_table_of_roots_of_unity(points):
    grid = TorusGrid(points)
    phase, half = grid.phase, points // 2
    eps = np.finfo(float).eps
    # columns in freqs order: 0 .. M/2, then -(M/2 - 1) .. -1
    assert np.array_equal(phase[:, 1:half], phase[:, :half:-1].conj())
    assert np.array_equal(phase[:, 0], np.ones(points))
    assert np.array_equal(phase[:, half], (-1.0) ** np.arange(points))
    # row 1 is exp(i k 2 pi / M): every root once, each within 2 ulps of 1
    assert np.abs(phase[1] - np.exp(2j * np.pi * grid.freqs / points)).max() \
        <= 2 * eps
    assert np.array_equal(phase, np.column_stack(
        [phase_column(grid, k) for k in grid.freqs]))
    # and the whole table is exp(i k x_j), whose argument reaches pi M
    direct = np.exp(1j * np.outer(grid.x, grid.freqs))
    np.testing.assert_allclose(phase, direct, rtol=0, atol=8 * points * eps)


def test_psdo_matrix_matches_column_loop():
    a, b, da, dxb = default_composition_symbols()
    taylor = taylor_composition_symbol(a, b, da, dxb, terms=1)
    for symbol in (a, b, da, dxb, taylor, IDENTITY_SYMBOL):
        for lam in (1e2, 10.0 ** 4.5):
            np.testing.assert_allclose(psdo_matrix(GRID, symbol, lam),
                                       looped_psdo_matrix(GRID, symbol, lam),
                                       rtol=ULPS, atol=0)


def test_multiplier_matches_frequency_loop(rng):
    u = rng.standard_normal(GRID.m) + 1j * rng.standard_normal(GRID.m)
    deriv = make_symbol(lambda xp, xip, lam: 1j * xip, 1.0, "S",
                        x_support_radius=0.0)
    ks = GRID.freqs.astype(float)
    for symbol in (flat_ntd_symbol(), IDENTITY_SYMBOL, deriv):
        mult = np.array([symbol(0.0, float(k), 30.0) for k in GRID.freqs],
                        dtype=complex)
        np.testing.assert_allclose(apply_multiplier(GRID, symbol, 30.0, u),
                                   idft(GRID, mult * dft(GRID, u)),
                                   rtol=ULPS, atol=0)
        oracle = np.max(np.sqrt(1 + ks * ks) ** 0.5 * np.abs(mult)
                        * np.sqrt(1 + ks * ks) ** -1.0)
        assert _multiplier_norms(GRID, symbol, (30.0,), 1.0, (0.5,))[0, 0] \
            == pytest.approx(oracle, rel=1e-14)


# ---------------------------------------------------------------------------
# exact norms against the sampled lower bound they replaced

# a ratio measured through dft/sobolev_norm may round above the exact norm
NORM_ULPS = 1e-12


def trial_coefficients(grid, r, rng, band=None):
    """Sampling oracle: random trial coefficients in H^r, (1+k^2)^(-(r+0.51)/2)
    -damped complex Gaussians, optionally zeroed outside |k| <= band."""
    damp = (1.0 + grid.freqs.astype(float) ** 2) ** (-(r + 0.51) / 2.0)
    noise = rng.standard_normal(grid.m) + 1j * rng.standard_normal(grid.m)
    coeffs = damp * noise / math.sqrt(2.0)
    if band is not None:
        coeffs = np.where(np.abs(grid.freqs) <= band, coeffs, 0.0)
    return coeffs


def x_dependent_ntd():
    """(1 + 0.4 sin x) / -eta: order -1, varying along the interface."""
    return make_symbol(lambda xp, xip, lam: -(1.0 + 0.4 * np.sin(xp))
                       / np.sqrt(xip * xip + lam), -1.0, "P")


def top_right_coefficients(grid, values, r, t, cols):
    """Coefficients of the field that attains the norm ``_map_norm``
    reports, from a full SVD of the same weighted matrix."""
    bracket = np.sqrt(1.0 + grid.freqs.astype(float) ** 2)
    weighted = (bracket[:, None] ** t * (np.fft.fft(values, axis=0) / grid.m)
                * bracket[cols] ** (-r))
    coeffs = np.zeros(grid.m, dtype=complex)
    coeffs[cols] = np.linalg.svd(weighted)[2][0].conj() * bracket[cols] ** (-r)
    return coeffs


def test_multiplier_norm_bounds_every_trial_and_is_attained(rng):
    symbol, r, t = flat_ntd_symbol(), 0.5, 1.0
    for lam in (1e2, 1e4):
        exact = _multiplier_norms(GRID, symbol, (lam,), r, (t,))[0, 0]
        for _ in range(32):
            u = idft(GRID, trial_coefficients(GRID, r, rng))
            out = apply_multiplier(GRID, symbol, lam, u)
            ratio = sobolev_norm(GRID, out, t) / sobolev_norm(GRID, u, r)
            assert ratio <= exact * (1 + NORM_ULPS)
        attained = max(
            sobolev_norm(GRID, apply_multiplier(GRID, symbol, lam,
                                                mode(GRID, k)), t)
            / sobolev_norm(GRID, mode(GRID, k), r) for k in GRID.freqs)
        assert attained == pytest.approx(exact, rel=1e-12)


def test_x_dependent_bound_is_exact_and_bounds_every_trial(rng):
    symbol, m, r, s = x_dependent_ntd(), -1.0, 0.5, -0.5
    fit = operator_bound_experiment(GRID, symbol, m, r, s, SWEEP)
    assert fit.conclusive
    assert fit.slope == pytest.approx(-1.0, abs=0.1)
    for lam, exact in zip(SWEEP[::2], fit.y[::2]):
        matrix = psdo_matrix(GRID, symbol, lam)
        for _ in range(16):
            u = idft(GRID, trial_coefficients(GRID, r, rng))
            out = apply_psdo(GRID, symbol, lam, u, matrix=matrix)
            ratio = sobolev_norm(GRID, out, s - m) / sobolev_norm(GRID, u, r)
            assert ratio <= exact * (1 + NORM_ULPS)
        u = idft(GRID, top_right_coefficients(GRID, matrix, r, s - m,
                                              slice(None)))
        out = apply_psdo(GRID, symbol, lam, u, matrix=matrix)
        assert sobolev_norm(GRID, out, s - m) / sobolev_norm(GRID, u, r) \
            == pytest.approx(exact, rel=1e-10)


def test_composition_norms_are_exact_and_bound_every_trial(rng):
    grid = TorusGrid(64)
    a, b, da, dxb = default_composition_symbols()
    taylor = taylor_composition_symbol(a, b, da, dxb, terms=1)
    lambdas = (1e2, 1e3, 1e4)
    rem, comp = composition_error_experiment(grid, a, b, da, dxb, 1.0, -1.0,
                                             0.5, lambdas)
    r, t, band = 0.5, 1.5, grid.m // 4  # t = r + 1 - m1 + [m1]
    keep = np.abs(grid.freqs) <= band
    for lam, exact_rem, exact_comp in zip(lambdas, rem.y, comp.y):
        wa, wb, wc = (psdo_matrix(grid, sym, lam) for sym in (a, b, taylor))

        def ratios(coeffs):
            u = idft(grid, coeffs)
            abu = wa @ dft(grid, wb @ coeffs)
            den = sobolev_norm(grid, u, r)
            return (sobolev_norm(grid, abu - wc @ coeffs, t) / den,
                    sobolev_norm(grid, abu, r - 1.0) / den)

        for _ in range(16):
            trial_rem, trial_comp = ratios(trial_coefficients(grid, r, rng,
                                                              band))
            assert trial_rem <= exact_rem * (1 + NORM_ULPS)
            assert trial_comp <= exact_comp * (1 + NORM_ULPS)
        remainder = wa @ (np.fft.fft(wb[:, keep], axis=0) / grid.m) \
            - wc[:, keep]
        attained, _ = ratios(top_right_coefficients(grid, remainder, r, t,
                                                    keep))
        assert attained == pytest.approx(exact_rem, rel=1e-10)


def complex_route_norm(grid, values, r, t, cols=slice(None)):
    """Oracle: the H^r -> H^t norm of the operator whose column j holds the
    grid values it produces from the unit coefficient vector of frequency
    ``grid.freqs[cols][j]``, in the complex exponential basis: the top
    eigenvalue of the complex Hermitian Gram of <k>^t F values <k>^(-r)."""
    bracket = np.sqrt(1.0 + grid.freqs.astype(float) ** 2)
    weighted = (bracket[:, None] ** t * (np.fft.fft(values, axis=0) / grid.m)
                * bracket[cols] ** (-r))
    gram = weighted.conj().T @ weighted
    return math.sqrt(np.linalg.eigvalsh(gram)[-1])


def test_gram_top_singular_value_matches_svd(rng):
    shapes = [(128, 65), (64, 64), (40, 7), (5, 1)]
    for rows, cols in shapes:
        mat = rng.standard_normal((rows, cols))
        assert _top_singular_value(mat) == pytest.approx(
            np.linalg.svd(mat, compute_uv=False)[0], rel=1e-10)
    # the compose remainder itself: tiny and strongly graded columns
    grid = TorusGrid(128)
    a, b, da, dxb = default_composition_symbols()
    taylor = taylor_composition_symbol(a, b, da, dxb, terms=1)
    keep = np.abs(grid.freqs) <= grid.m // 4
    bracket = np.sqrt(1.0 + grid.freqs.astype(float) ** 2)
    for lam in (1e2, 1e5):
        wa, wb, wc = (psdo_matrix(grid, sym, lam) for sym in (a, b, taylor))
        remainder = wa @ (np.fft.fft(wb[:, keep], axis=0) / grid.m) \
            - wc[:, keep]
        weighted = (bracket[:, None] ** 0.5
                    * (np.fft.fft(remainder, axis=0) / grid.m)
                    * bracket[keep] ** -0.5)
        real = (_real_matrix(grid, wa, "a")
                @ _real_matrix(grid, wb[:, keep], "b")
                - _real_matrix(grid, wc[:, keep], "c"))
        assert _map_norm(real, 0.5, 0.5) == pytest.approx(
            np.linalg.svd(weighted, compute_uv=False)[0], rel=1e-10)


def test_real_matrix_is_the_operator_in_the_real_basis(rng):
    # column j of the real matrix is op(s) applied to the j-th real basis
    # vector, in the real coordinates of the module docstring
    grid = TorusGrid(16)
    half = grid.m // 2
    basis = [np.ones(grid.m)]
    basis += [math.sqrt(2) * np.cos(k * grid.x) for k in range(1, half)]
    basis += [np.cos(half * grid.x)]
    basis += [math.sqrt(2) * np.sin(k * grid.x) for k in range(1, half)]
    basis = np.array(basis).T
    symbol = x_dependent_ntd()
    mat = _real_matrix(grid, psdo_matrix(grid, symbol, 30.0), "ntd")
    images = np.array([apply_psdo(grid, symbol, 30.0, u).real
                       for u in basis.T]).T
    # the basis is orthonormal for (1/M) sum_j, so coordinates are
    # (1/M) basis^T u
    np.testing.assert_allclose(mat, basis.T @ images / grid.m, rtol=0,
                               atol=1e-15)
    # and a field's real coordinates carry its L^2 norm
    u = basis @ rng.standard_normal(grid.m)
    coords = basis.T @ u / grid.m
    assert sobolev_norm(grid, u, 0.0) == pytest.approx(
        math.sqrt(2 * np.pi * np.sum(coords ** 2)), rel=1e-13)


# real-operator symbols: an x trig polynomial times a real xi-even or an
# imaginary xi-odd profile, so that s(x, -xi) = conj s(x, xi)
PROFILES = {
    "even_power": lambda xi, p, lam: (1.0 + xi * xi) ** (p / 2.0),
    "even_ntd": lambda xi, p, lam: -1.0 / np.sqrt(xi * xi + lam),
    "odd_power": lambda xi, p, lam: 1j * xi * (1.0 + xi * xi) ** ((p - 1.0)
                                                                  / 2.0),
}


@settings(max_examples=30, deadline=None)
@given(points=st.sampled_from([8, 16, 32, 64]),
       trig=st.lists(st.floats(-1.0, 1.0), min_size=5, max_size=5),
       profile=st.sampled_from(sorted(PROFILES)),
       p=st.floats(-2.0, 1.0), lam=st.floats(1.0, 1e4),
       r=st.floats(-1.0, 1.5), t=st.floats(-1.0, 1.5),
       band=st.booleans())
def test_real_norm_matches_the_complex_svd(points, trig, profile, p, lam, r,
                                           t, band):
    grid = TorusGrid(points)
    c0, c1, s1, c2, s2 = trig
    shape = PROFILES[profile]

    def fn(xp, xip, lam_):
        poly = (1.5 + c0 + c1 * np.cos(xp) + s1 * np.sin(xp)
                + c2 * np.cos(2 * xp) + s2 * np.sin(2 * xp))
        return poly * shape(xip, p, lam)

    symbol = make_symbol(fn, p, "P")
    w = psdo_matrix(grid, symbol, lam)
    cols = (np.abs(grid.freqs) <= grid.m // 4 if band
            else np.ones(grid.m, dtype=bool))
    real = _map_norm(_real_matrix(grid, w[:, cols], "s"), r, t)
    # the complex oracle takes the Nyquist column as the mean of the
    # operator's columns at +-M/2, which the grid cannot tell apart
    nyquist = grid.freqs == grid.m // 2
    w[:, nyquist] = 0.5 * (w[:, nyquist] + (fn(grid.x, -grid.m / 2.0, lam)
                                            * np.cos(np.pi * np.arange(
                                                grid.m)))[:, None])
    bracket = np.sqrt(1.0 + grid.freqs.astype(float) ** 2)
    weighted = (bracket[:, None] ** t * (np.fft.fft(w[:, cols], axis=0)
                                         / grid.m) * bracket[cols] ** (-r))
    oracle = np.linalg.svd(weighted, compute_uv=False)[0]
    assert real == pytest.approx(oracle, rel=1e-12)


def odd_real_symbol(kind="P"):
    """(1 + 0.3 cos x) xi / <xi>: real-valued but odd in xi, so op(s) maps
    real fields to complex ones."""
    return make_symbol(lambda xp, xip, lam: (1.0 + 0.3 * np.cos(xp)) * xip
                       / np.sqrt(1.0 + xip * xip), 0.0, kind)


def test_non_real_symbol_is_rejected_before_any_eigensolve(monkeypatch):
    solves = []
    original = np.linalg.eigvalsh

    def spy(mat):
        solves.append(mat)
        return original(mat)

    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    a, b, da, dxb = default_composition_symbols()
    with pytest.raises(ContractError, match="not a real operator"):
        operator_bound_experiment(GRID, odd_real_symbol(), 0.0, 0.5, 0.5,
                                  SWEEP)
    for outer, inner in ((a, odd_real_symbol()), (odd_real_symbol("S"), b)):
        with pytest.raises(ContractError, match="not a real operator"):
            composition_error_experiment(GRID, outer, inner, da, dxb, 1.0,
                                         -1.0, 0.5, COMPOSE_SWEEP)
    assert solves == []
    # the real symbols pass, and every norm solves a real eigenproblem
    operator_bound_experiment(GRID, x_dependent_ntd(), -1.0, 0.5, -0.5, SWEEP)
    composition_error_experiment(GRID, a, b, da, dxb, 1.0, -1.0, 0.5,
                                 COMPOSE_SWEEP)
    assert len(solves) == len(SWEEP) + 2 * len(COMPOSE_SWEEP)
    assert all(gram.dtype == np.float64 for gram in solves)


def test_reality_check_allows_rounding_only():
    table = psdo_matrix(GRID, x_dependent_ntd(), 30.0)
    scale = max(np.abs(table.real).max(), np.abs(table.imag).max())
    eps = np.finfo(float).eps
    for gap, ok in ((2 * eps * scale, True), (1e-10 * scale, False)):
        bent = table.copy()
        bent[3, -1] += gap  # the column of frequency -1
        if ok:
            _check_real(bent, "bent")
        else:
            with pytest.raises(ContractError):
                _check_real(bent, "bent")
    bent = table.copy()
    bent[5, 0] += 1e-10j * scale  # frequency 0 must be real on its own
    with pytest.raises(ContractError):
        _check_real(bent, "bent")


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1j * np.nan,
                                 1j * np.inf, -1j * np.inf])
@pytest.mark.parametrize("col", [0, 3, GRID.m // 2],
                         ids=["zero", "paired", "nyquist"])
def test_non_finite_table_is_rejected_before_any_transform(monkeypatch, bad,
                                                           col):
    transforms = []
    monkeypatch.setattr(np.fft, "rfft",
                        lambda *args, **kw: transforms.append(args))
    table = psdo_matrix(GRID, x_dependent_ntd(), 30.0)
    table[5, col] = bad
    with pytest.raises(ContractError, match="not a real operator"):
        _check_real(table, "bent")
    with pytest.raises(ContractError, match="not a real operator"):
        _real_matrix(GRID, table, "bent")
    assert transforms == []


def test_psdo_matrix_is_bit_identical_to_uncached_build():
    a, b, da, dxb = default_composition_symbols()
    taylor = taylor_composition_symbol(a, b, da, dxb, terms=1)
    grid = TorusGrid(128)
    x = grid.x[:, None]
    k = grid.freqs.astype(float)[None, :]
    for symbol in (a, b, da, dxb, taylor, IDENTITY_SYMBOL, flat_ntd_symbol()):
        for lam in (1e2, 10.0 ** 4.5):
            w = np.column_stack([phase_column(grid, q) for q in grid.freqs])
            uncached = np.multiply(symbol(x, k, lam), w, out=w)
            assert np.array_equal(psdo_matrix(grid, symbol, lam), uncached)
    assert grid.phase is grid.phase and not grid.phase.flags.writeable
    first = psdo_matrix(grid, IDENTITY_SYMBOL, 1.0)
    first[:] = 0.0  # a caller's copy: the cached phase is not touched
    assert np.array_equal(psdo_matrix(grid, IDENTITY_SYMBOL, 1.0),
                          grid.phase)


# ---------------------------------------------------------------------------
# one symbol table per sweep against the per-lambda full tables


def full_table_composition_ratios(grid, a, b, da, dxb, lambdas):
    """Oracle: the remainder and composition norms from full quadrature
    matrices of a, b and the Taylor symbol, rebuilt per lambda, cut to
    the band and taken to the same real coordinates."""
    taylor = taylor_composition_symbol(a, b, da, dxb, terms=1)
    band = np.abs(grid.freqs) <= grid.m // 4
    rem, comp = [], []
    for lam in lambdas:
        ma = _real_matrix(grid, psdo_matrix(grid, a, lam), "a")
        mb = _real_matrix(grid, psdo_matrix(grid, b, lam)[:, band], "b")
        mc = _real_matrix(grid, psdo_matrix(grid, taylor, lam)[:, band], "c")
        mab = ma @ mb
        rem.append(_map_norm(mab - mc, 0.5, 1.5))
        comp.append(_map_norm(mab, 0.5, -0.5))
    return np.array(rem), np.array(comp)


def complex_route_composition_ratios(grid, a, b, da, dxb, lambdas):
    """Oracle: the same norms by the complex route, with complex FFTs,
    a complex product and complex Hermitian Gram matrices."""
    taylor = taylor_composition_symbol(a, b, da, dxb, terms=1)
    band = np.abs(grid.freqs) <= grid.m // 4
    rem, comp = [], []
    for lam in lambdas:
        wa = psdo_matrix(grid, a, lam)
        bu = psdo_matrix(grid, b, lam)[:, band]
        cu = psdo_matrix(grid, taylor, lam)[:, band]
        abu = wa @ (np.fft.fft(bu, axis=0) / grid.m)
        rem.append(complex_route_norm(grid, abu - cu, 0.5, 1.5, band))
        comp.append(complex_route_norm(grid, abu, 0.5, -0.5, band))
    return np.array(rem), np.array(comp)


@pytest.mark.parametrize("points", [64, 128])
def test_composition_is_bit_identical_to_full_tables(points):
    grid = TorusGrid(points)
    a, b, da, dxb = default_composition_symbols()
    rem, comp = composition_error_experiment(grid, a, b, da, dxb, 1.0, -1.0,
                                             0.5, COMPOSE_SWEEP)
    rem_full, comp_full = full_table_composition_ratios(grid, a, b, da, dxb,
                                                        COMPOSE_SWEEP)
    assert np.array_equal(rem.y, rem_full)
    assert np.array_equal(comp.y, comp_full)


@pytest.mark.parametrize("points", [64, 128, 256])
def test_composition_matches_the_complex_route(points):
    grid = TorusGrid(points)
    a, b, da, dxb = default_composition_symbols()
    rem, comp = composition_error_experiment(grid, a, b, da, dxb, 1.0, -1.0,
                                             0.5, COMPOSE_SWEEP)
    rem_c, comp_c = complex_route_composition_ratios(grid, a, b, da, dxb,
                                                     COMPOSE_SWEEP)
    np.testing.assert_allclose(rem.y, rem_c, rtol=1e-13, atol=0)
    np.testing.assert_allclose(comp.y, comp_c, rtol=1e-13, atol=0)


def test_multiplier_norms_are_the_per_lambda_formula():
    deriv = make_symbol(lambda xp, xip, lam: 1j * xip, 1.0, "S",
                        x_support_radius=0.0)
    ks = GRID.freqs.astype(float)
    bracket = (1.0 + ks * ks) ** 0.5
    r, targets = 0.5, (-0.5, 0.0, 1.0, 1.5)
    for symbol in (flat_ntd_symbol(), IDENTITY_SYMBOL, deriv):
        norms = _multiplier_norms(GRID, symbol, SWEEP, r, targets)
        assert norms.shape == (len(targets), len(SWEEP))
        for row, t in zip(norms, targets):
            scalar = [float(np.max(bracket ** t * np.abs(symbol(0.0, ks, lam))
                                   * bracket ** (-r))) for lam in SWEEP]
            assert np.array_equal(row, scalar)


@pytest.fixture
def symbol_calls(monkeypatch):
    """Count every ``ParamSymbol`` call."""
    calls = []
    original = ParamSymbol.__call__

    def spy(self, xp, xip, lam):
        calls.append(self)
        return original(self, xp, xip, lam)

    monkeypatch.setattr(ParamSymbol, "__call__", spy)
    return calls


def test_composition_needs_parameter_free_a(symbol_calls):
    a, b, da, dxb = default_composition_symbols()
    a_p = make_symbol(a.eval, 1.0, "P")
    da_p = make_symbol(da.eval, 0.0, "P")
    for outer, inner in ((a_p, da), (a, da_p)):
        with pytest.raises(ConfigError, match="parameter-free"):
            composition_error_experiment(GRID, outer, b, inner, dxb, 1.0,
                                         -1.0, 0.5, COMPOSE_SWEEP)
    assert symbol_calls == []


def test_torus_sweeps_call_each_symbol_once_per_lambda(symbol_calls,
                                                       monkeypatch):
    matrices = []
    original = torus.psdo_matrix

    def spy(grid, symbol, lam):
        matrices.append(symbol)
        return original(grid, symbol, lam)

    monkeypatch.setattr(torus, "psdo_matrix", spy)
    a, b, da, dxb = default_composition_symbols()
    composition_error_experiment(TorusGrid(128), a, b, da, dxb, 1.0, -1.0,
                                 0.5, COMPOSE_SWEEP)
    assert len(symbol_calls) == 3 + 2 * len(COMPOSE_SWEEP) == 17
    assert matrices == [a]
    del symbol_calls[:]
    ntd_bound_experiment(GRID, (0.0, 0.5, 1.0, 1.5), SWEEP)
    assert len(symbol_calls) == 1
    for symbol, m, r, s in ((flat_ntd_symbol(), -1.0, 0.5, -0.5),
                            (IDENTITY_SYMBOL, 0.0, 0.5, 0.5),
                            (flat_ntd_symbol(), -1.0, 1.0, 0.0)):
        del symbol_calls[:]
        operator_bound_experiment(GRID, symbol, m, r, s, SWEEP)
        assert len(symbol_calls) == 1
