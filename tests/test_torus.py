import math

import numpy as np
import pytest

from lclab import (ConfigError, SpectralField, TorusGrid, apply_multiplier,
                   apply_psdo, default_composition_symbols, dft,
                   flat_ntd_symbol, idft, make_symbol, ntd_bound_experiment,
                   operator_bound_experiment, random_field, sobolev_norm,
                   composition_error_experiment, IDENTITY_SYMBOL)
from lclab.errors import ResourceLimitError

GRID = TorusGrid(64)
SWEEP = tuple(10.0 ** e for e in (2.0, 2.5, 3.0, 3.5, 4.0, 4.5))


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
    field = SpectralField.from_values(GRID, u)
    assert field.parseval_gap() < 1e-12


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


def test_random_field_lands_in_declared_space(rng):
    u = random_field(TorusGrid(512), 0.5, rng)
    assert np.isfinite(sobolev_norm(u.grid, u.values, 0.5))
    # mass beyond the declared regularity keeps growing with frequency
    assert sobolev_norm(u.grid, u.values, 1.5) \
        > 3 * sobolev_norm(u.grid, u.values, 0.5)


def test_operator_bound_validates_inputs():
    with pytest.raises(ConfigError):
        operator_bound_experiment(GRID, flat_ntd_symbol(), -1.0, 0.5, 0.7,
                                  SWEEP)
    with pytest.raises(ConfigError):
        operator_bound_experiment(GRID, flat_ntd_symbol(), -1.0, 0.5, -0.5,
                                  (1e2, 1e3))


def test_operator_bound_ntd_decay():
    grid = TorusGrid(512)
    fit = operator_bound_experiment(grid, flat_ntd_symbol(), -1.0, 0.5, -0.5,
                                    SWEEP, n_trials=4, seed=5)
    assert fit.conclusive
    assert -1.1 <= fit.slope <= -0.9
    # independent enumeration oracle at one sweep point: the exact
    # mode-wise supremum of <k>^{1/2} |b| <k>^{-1/2} is lam^{-1/2}
    ks = grid.freqs.astype(float)
    oracle = np.max(1.0 / np.sqrt(ks * ks + 1e4))
    assert fit.ratios[4] == pytest.approx(oracle, rel=1e-9)


def test_operator_bound_identity_is_flat():
    fit = operator_bound_experiment(GRID, IDENTITY_SYMBOL, 0.0, 0.5, 0.5,
                                    SWEEP, n_trials=4, seed=5)
    assert fit.flat and fit.conclusive
    assert abs(fit.slope) < 0.05
    assert np.allclose(fit.ratios, 1.0)


def test_ntd_bound_two_regimes():
    grid = TorusGrid(1024)
    fits = ntd_bound_experiment(grid, (0.0, 0.5, 1.0, 1.5), SWEEP,
                                n_trials=4, seed=3)
    assert fits[0.5].slope == pytest.approx(-0.5, abs=0.05)
    assert -0.1 <= fits[1.5].slope <= 0.0
    # enumeration oracle for s = 1 at lam = 1e3
    ks = grid.freqs.astype(float)
    oracle = np.max((1 + ks * ks) ** 0.5 / np.sqrt(ks * ks + 1e3)
                    * (1 + ks * ks) ** -0.25)
    assert fits[1.0].ratios[2] == pytest.approx(oracle, rel=1e-9)
    assert fits[1.0].slope == pytest.approx(-0.25, abs=0.07)


def test_composition_exact_for_x_independent_outer_factor(rng):
    # multiplier b composed after multiplier-free a: remainder identically 0
    grid = TorusGrid(64)
    a = make_symbol(lambda xp, xip, lam: np.sqrt(1 + xip * xip), 1.0, "S",
                    x_support_radius=0.0)
    b = flat_ntd_symbol()
    from lclab.torus import psdo_matrix
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
                                             0.5, lambdas, n_trials=8, seed=2)
    assert rem.conclusive
    assert rem.slope <= -0.9
    assert comp.slope <= -0.9  # corollary variant on the same data


# ---------------------------------------------------------------------------
# whole-grid symbol calls against the per-point loops

# per-point and whole-grid calls may round in different library paths
ULPS = 4 * np.finfo(float).eps


def looped_psdo_matrix(grid, symbol, lam):
    """Oracle: the quadrature matrix one column, and one symbol call per
    grid point, at a time."""
    w = np.empty((grid.m, grid.m), dtype=complex)
    for col, k in enumerate(grid.freqs):
        vals = np.array([symbol(float(xj), float(k), lam) for xj in grid.x],
                        dtype=complex)
        w[:, col] = vals * np.exp(1j * float(k) * grid.x)
    return w


def test_psdo_matrix_matches_column_loop():
    from lclab.torus import psdo_matrix, taylor_composition_symbol
    a, b, da, dxb = default_composition_symbols()
    taylor = taylor_composition_symbol(a, b, da, dxb, terms=1)
    for symbol in (a, b, da, dxb, taylor, IDENTITY_SYMBOL):
        for lam in (1e2, 10.0 ** 4.5):
            np.testing.assert_allclose(psdo_matrix(GRID, symbol, lam),
                                       looped_psdo_matrix(GRID, symbol, lam),
                                       rtol=ULPS, atol=0)


def test_multiplier_matches_frequency_loop(rng):
    from lclab.torus import _multiplier_norm_ratio
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
        assert _multiplier_norm_ratio(GRID, symbol, 30.0, 1.0, 0.5) == \
            pytest.approx(oracle, rel=1e-14)
