import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lclab import (ContractError, DegenerateCovectorError,
                   characteristic_roots, characteristic_roots_screened,
                   class_membership_estimate,
                   difference_symbol, difference_symbol_expanded, eta_symbol,
                   flat_chart, flat_ntd_symbol, flat_transmission_symbol,
                   linear_chart, make_symbol, ntd_symbol, product_symbol,
                   tau_symbol, transmission_symbol, IDENTITY_SYMBOL)
from lclab.symbols import (MEMBERSHIP_LAM_RANGE, MEMBERSHIP_POINTS,
                           MEMBERSHIP_XI_RANGE, SymbolClass, _sample_grid)


def normal_polynomial(chart, xp, xip, z, lam=0.0):
    """Independent residual oracle: A_nn z^2 + 2 i z (A_n. xi) - (|xi|^2+lam)."""
    from lclab import metric_matrix
    a = metric_matrix(chart, xp)
    xip = np.atleast_1d(xip)
    cross = float(a[-1, :-1] @ xip)
    return a[-1, -1] * z * z + 2j * z * cross - (float(xip @ xip) + lam)


FLAT = flat_chart(support_radius=10.0)
SLOPED = linear_chart(0.5, support_radius=10.0)


def test_flat_roots_are_plus_minus_xi():
    zm, zp = characteristic_roots(FLAT, 0.0, 2.5)
    assert zm == pytest.approx(-2.5) and zp == pytest.approx(2.5)


def test_sloped_roots_match_hand_value():
    zm, zp = characteristic_roots(SLOPED, 0.0, 1.0)
    assert zm == pytest.approx((-1 + 0.5j) / 1.25)
    assert zp == pytest.approx((1 + 0.5j) / 1.25)


def test_screened_roots_reduce_to_free_at_lam_zero():
    zm, zp = characteristic_roots(SLOPED, 0.0, 1.7)
    wm, wp = characteristic_roots_screened(SLOPED, 0.0, 1.7, 0.0)
    assert wm == zm and wp == zp


def test_degenerate_covector_raises():
    with pytest.raises(DegenerateCovectorError):
        characteristic_roots(FLAT, 0.0, 0.0)
    with pytest.raises(DegenerateCovectorError):
        characteristic_roots_screened(FLAT, 0.0, 0.0, 0.0)


@settings(max_examples=150, deadline=None)
@given(slope=st.floats(-2.0, 2.0), xi=st.floats(0.01, 50.0),
       lam=st.floats(0.0, 1e6), sign=st.sampled_from([-1.0, 1.0]))
def test_roots_solve_their_polynomials(slope, xi, lam, sign):
    chart = linear_chart(slope, support_radius=10.0)
    xi = sign * xi
    zm, zp = characteristic_roots(chart, 0.0, xi)
    assert zm.real < 0 < zp.real
    scale = max(abs(xi) ** 2, 1.0)
    for z in (zm, zp):
        assert abs(normal_polynomial(chart, 0.0, xi, z)) <= 1e-10 * scale
    wm, wp = characteristic_roots_screened(chart, 0.0, xi, lam)
    assert wm.real < 0 < wp.real
    scale = max(abs(xi) ** 2 + lam, 1.0)
    for w in (wm, wp):
        assert abs(normal_polynomial(chart, 0.0, xi, w, lam)) <= 1e-10 * scale


def test_homogeneity_of_roots(rng):
    for _ in range(200):
        slope = rng.uniform(-1.5, 1.5)
        chart = linear_chart(slope, support_radius=10.0)
        xi = rng.uniform(0.1, 10.0) * rng.choice([-1, 1])
        lam = rng.uniform(0.0, 100.0)
        for t in (2.0, 10.0):
            zm, zp = characteristic_roots(chart, 0.0, xi)
            zms, zps = characteristic_roots(chart, 0.0, t * xi)
            assert abs(zms - t * zm) <= 1e-12 * t * abs(zm)
            assert abs(zps - t * zp) <= 1e-12 * t * abs(zp)
            wm, _ = characteristic_roots_screened(chart, 0.0, xi, lam)
            wms, _ = characteristic_roots_screened(chart, 0.0, t * xi,
                                                   t * t * lam)
            assert abs(wms - t * wm) <= 1e-12 * t * abs(wm)


def test_flat_ntd_symbol_values():
    assert ntd_symbol(FLAT, 0.0, 1.0, 3.0) == pytest.approx(-1.0 / 2.0)
    assert ntd_symbol(FLAT, 0.0, 0.0, 100.0) == pytest.approx(-0.1)
    sym = flat_ntd_symbol()
    assert sym(0.0, 1.0, 3.0) == pytest.approx(-0.5)


def test_ntd_symbol_ellipticity_window(rng):
    # |symbol| * (|xi| + sqrt(lam)) bounded above and below over a sample grid
    ratios = []
    for _ in range(300):
        slope = rng.uniform(-1.0, 1.0)
        chart = linear_chart(slope, support_radius=10.0)
        xi = rng.uniform(0.0, 30.0)
        lam = rng.uniform(1.0, 1e6)
        val = abs(ntd_symbol(chart, 0.0, xi, lam))
        ratios.append(val * (abs(xi) + math.sqrt(lam)))
    assert 0.5 <= min(ratios) and max(ratios) <= 2.5


def test_transmission_symbol_flat_formula(rng):
    for _ in range(50):
        xi, lam = rng.uniform(0, 10), rng.uniform(1, 1e4)
        expected = 1.0 + abs(xi) / math.sqrt(xi * xi + lam)
        assert transmission_symbol(FLAT, 0.0, xi, lam) == pytest.approx(expected)
        assert flat_transmission_symbol()(0.0, xi, lam) == pytest.approx(expected)
    assert transmission_symbol(FLAT, 0.0, 0.0, 77.0) == pytest.approx(1.0)


def test_transmission_symbol_bounded_below(rng):
    # flat-chart samples sit above 1; sloped charts stay away from zero
    for _ in range(200):
        xi, lam = rng.uniform(0, 100), rng.uniform(1, 1e6)
        assert abs(transmission_symbol(FLAT, 0.0, xi, lam)) >= 1.0
        chart = linear_chart(rng.uniform(-1, 1), support_radius=10.0)
        assert abs(transmission_symbol(chart, 0.0, xi, lam)) >= 0.5


def test_difference_symbol_flat_values():
    assert difference_symbol(FLAT, 0.0, 3.0, 7.0) == pytest.approx(
        1.0 / (3.0 + 4.0))
    assert difference_symbol(FLAT, 0.0, 0.0, 100.0) == pytest.approx(0.1)


def test_difference_symbol_two_forms_agree(rng):
    for _ in range(1000):
        chart = linear_chart(rng.uniform(-1.5, 1.5), support_radius=10.0)
        xi = rng.uniform(0.01, 50.0) * rng.choice([-1, 1])
        lam = rng.uniform(1.0, 1e6)
        a = difference_symbol(chart, 0.0, xi, lam)
        b = difference_symbol_expanded(chart, 0.0, xi, lam)
        assert a > 0
        assert abs(a - b) <= 1e-12 * abs(a)


def test_eta_and_tau_are_the_designated_roots():
    assert tau_symbol(SLOPED, 0.0, 1.0) == characteristic_roots(
        SLOPED, 0.0, 1.0)[1]
    assert eta_symbol(SLOPED, 0.0, 1.0, 5.0) == characteristic_roots_screened(
        SLOPED, 0.0, 1.0, 5.0)[0]


# ---------------------------------------------------------------------------
# class calculus


def test_product_symbol_tags():
    tau = make_symbol(lambda xp, xip, lam: tau_symbol(FLAT, xp, xip), 1.0,
                      kind="S")
    ntd = flat_ntd_symbol()
    prod = product_symbol(tau, ntd)
    assert prod.class_tag == SymbolClass("P", 0.0, 1)
    low = make_symbol(lambda xp, xip, lam: 1.0 / (xip * xip + lam), -2.0,
                      kind="P")
    assert product_symbol(tau, low).class_tag == SymbolClass("P", -1.0, 1)


def test_product_with_one_returns_other_factor():
    ntd = flat_ntd_symbol()
    assert product_symbol(IDENTITY_SYMBOL, ntd) is ntd
    assert product_symbol(ntd, IDENTITY_SYMBOL) is ntd


@settings(max_examples=60, deadline=None)
@given(xi=st.floats(0.1, 30.0), lam=st.floats(1.0, 1e5))
def test_product_symbol_pointwise_algebra(xi, lam):
    a = make_symbol(lambda xp, xip, lam_: xip + 1j, 1.0, kind="S")
    b = flat_ntd_symbol()
    c = make_symbol(lambda xp, xip, lam_: 1.0 / (1.0 + xip * xip), -2.0,
                    kind="S")
    ab = product_symbol(a, b)(0.0, xi, lam)
    ba = product_symbol(b, a)(0.0, xi, lam)
    assert ab == pytest.approx(ba)
    lhs = product_symbol(product_symbol(a, b), product_symbol(c, IDENTITY_SYMBOL))
    rhs = product_symbol(a, product_symbol(b, c))
    assert lhs(0.0, xi, lam) == pytest.approx(rhs(0.0, xi, lam))


def test_class_membership_certifies_interface_symbols():
    assert class_membership_estimate(flat_ntd_symbol(), -1.0, 2).passed
    # the xi step scales with t = |xi| + sqrt(lam), so the third
    # difference resolves the decay that a (1 + |xi|) step lost
    assert class_membership_estimate(flat_ntd_symbol(), -1.0, 3).passed
    assert class_membership_estimate(flat_transmission_symbol(), 0.0, 1).passed


def test_class_membership_rejects_wrong_order():
    eta = make_symbol(lambda xp, xip, lam: eta_symbol(FLAT, xp, xip, lam),
                      1.0, kind="P", x_support_radius=0.0)
    assert class_membership_estimate(eta, 1.0, 2).passed
    for k in (1, 3):
        report = class_membership_estimate(eta, 0.0, k)
        assert not report.passed
        assert max(report.growth_slopes.values()) > 0.5  # degree-1 growth


# ---------------------------------------------------------------------------
# array evaluation against scalar calls

# one-by-one calls and whole-array calls may round in different library
# paths; four units in the last place is the agreement asked of them
ULPS = 4 * np.finfo(float).eps
XI = np.array([-30.0, -1.7, -0.01, 0.0, 0.2, 1.0, 2.5, 400.0])
LAM = np.array([0.0, 1.0, 37.5, 1e6])


def _elementwise(fn, *arrays):
    """Oracle: ``fn`` called once per element of the broadcast arrays."""
    grids = np.broadcast_arrays(*arrays)
    out = [fn(*(float(g.flat[i]) for g in grids))
           for i in range(grids[0].size)]
    return np.array(out).reshape(grids[0].shape + np.shape(out[0]))


@pytest.mark.parametrize("chart", [FLAT, SLOPED], ids=["flat", "sloped"])
def test_array_roots_match_scalar_calls(chart):
    xi = XI[XI != 0.0]
    for got, want in zip(characteristic_roots(chart, 0.3, xi),
                         _elementwise(lambda s: np.array(
                             characteristic_roots(chart, 0.3, s)), xi).T):
        np.testing.assert_allclose(got, want, rtol=ULPS, atol=0)
    got = characteristic_roots_screened(chart, 0.3, XI[:, None], LAM[None, 1:])
    want = _elementwise(lambda s, l: np.array(characteristic_roots_screened(
        chart, 0.3, s, l)), XI[:, None], LAM[None, 1:])
    for pos in (0, 1):
        assert got[pos].shape == (XI.size, LAM.size - 1)
        np.testing.assert_allclose(got[pos], want[..., pos], rtol=ULPS, atol=0)


@pytest.mark.parametrize("chart", [FLAT, SLOPED], ids=["flat", "sloped"])
def test_array_tau_and_eta_match_scalar_calls(chart):
    tau = tau_symbol(chart, 0.3, XI)
    np.testing.assert_allclose(
        tau, _elementwise(lambda s: tau_symbol(chart, 0.3, s), XI),
        rtol=ULPS, atol=0)
    assert tau[XI == 0.0] == 0.0  # continuous extension at xi' = 0
    lam = LAM[None, 1:]
    eta = eta_symbol(chart, 0.3, XI[:, None], lam)
    np.testing.assert_allclose(
        eta, _elementwise(lambda s, l: eta_symbol(chart, 0.3, s, l),
                          XI[:, None], lam), rtol=ULPS, atol=0)
    diff = difference_symbol(chart, 0.3, XI[:, None], lam)
    np.testing.assert_allclose(
        diff, difference_symbol_expanded(chart, 0.3, XI[:, None], lam),
        rtol=1e-12)


def test_one_degenerate_entry_raises():
    with pytest.raises(DegenerateCovectorError):
        characteristic_roots(SLOPED, 0.0, np.array([1.0, 0.0, 2.0]))
    with pytest.raises(DegenerateCovectorError):
        characteristic_roots_screened(SLOPED, 0.0, np.array([1.0, 0.0]),
                                      np.array([3.0, 0.0]))
    # xi' = 0 is fine wherever lambda > 0
    wm, wp = characteristic_roots_screened(SLOPED, 0.0, np.array([1.0, 0.0]),
                                           np.array([0.0, 3.0]))
    assert np.all(wm.real < 0) and np.all(wp.real > 0)


def fd(fn, x, order, h):
    """Scalar central difference of ``fn`` at ``x``, order 0 to 3."""
    if order == 0:
        return fn(x)
    if order == 1:
        return (fn(x + h) - fn(x - h)) / (2 * h)
    if order == 2:
        return (fn(x + h) - 2 * fn(x) + fn(x - h)) / (h * h)
    assert order == 3
    return (fn(x + 2 * h) - 2 * fn(x + h) + 2 * fn(x - h)
            - fn(x - 2 * h)) / (2 * h ** 3)


def scalar_membership(symbol, m, k, xi_range=(1.0, 1e3), lam_range=(1.0, 1e6),
                      n_xi=12, n_lam=13, x_points=(0.0,), max_x_derivative=2):
    """Oracle: the certificate with one scalar symbol call per stencil point
    and sample; returns (constants, growth_slopes, refinement_factors,
    passed) by the rules of ``class_membership_estimate``."""

    def run(n_xi_pts, n_lam_pts):
        xis = np.geomspace(xi_range[0], xi_range[1], n_xi_pts)
        lams = np.geomspace(lam_range[0], lam_range[1], n_lam_pts)
        sup, buckets = {}, {}
        for a_ord in range(k + 1):
            for b_ord in range(max_x_derivative + 1):
                key = (a_ord, b_ord)
                sup[key], buckets[key] = 0.0, {}
                for xp in x_points:
                    for xi in np.concatenate([xis, -xis]):
                        for lam in lams:
                            t = abs(xi) + math.sqrt(lam)
                            hxi = 1e-3 * min(t, 250.0 * abs(xi))
                            val = fd(lambda x: fd(
                                lambda s: symbol(x, s, lam), float(xi),
                                a_ord, hxi), float(xp), b_ord,
                                1e-4 * (1.0 + abs(xp)))
                            ratio = abs(val) / t ** (m - a_ord)
                            sup[key] = max(sup[key], ratio)
                            idx = int(math.log10(t) / 0.5)
                            buckets[key][idx] = max(
                                buckets[key].get(idx, 0.0), ratio)
        return sup, buckets

    coarse, buckets = run(n_xi, n_lam)
    fine, _ = run(2 * n_xi - 1, 2 * n_lam - 1)
    slopes, factors, passed = {}, {}, True
    for key, per_bucket in buckets.items():
        idx = sorted(per_bucket)
        ts = np.array([10.0 ** (0.5 * i + 0.25) for i in idx])
        vals = np.array([per_bucket[i] for i in idx])
        keep = vals > 0
        slopes[key] = float(np.polyfit(np.log10(ts[keep]),
                                       np.log10(vals[keep]), 1)[0]) \
            if len(idx) >= 3 and keep.sum() >= 3 else 0.0
        factors[key] = fine[key] / coarse[key] if coarse[key] > 0 else 1.0
        passed &= (np.isfinite(fine[key]) and slopes[key] <= 0.15
                   and factors[key] <= 1.5)
    return fine, slopes, factors, passed


MEMBERSHIP_CASES = {
    "ntd": flat_ntd_symbol(),
    "eta": make_symbol(lambda xp, xip, lam: eta_symbol(FLAT, xp, xip, lam),
                       1.0, kind="P", x_support_radius=0.0),
    # x-dependent and asymmetric in x', so every beta-derivative is nonzero
    "x_dependent": make_symbol(
        lambda xp, xip, lam: (1.0 + 0.5 * np.cos(xp + 0.3))
        / np.sqrt(xip * xip + lam), -1.0, kind="P"),
    # not even in xi, largest at xi < 0: the coarse grid must see both signs
    "one_sided": make_symbol(
        lambda xp, xip, lam: (1.0 - 0.5 * np.tanh(xip))
        / np.sqrt(xip * xip + lam), -1.0, kind="P"),
}


@pytest.mark.parametrize("name, order, k", [
    ("ntd", -1.0, 2), ("eta", 1.0, 2), ("eta", 0.0, 1),
    ("x_dependent", -1.0, 1), ("ntd", -1.0, 3), ("one_sided", -1.0, 1)])
def test_class_membership_matches_scalar_loop(name, order, k):
    symbol = MEMBERSHIP_CASES[name]
    report = class_membership_estimate(symbol, order, k)
    constants, slopes, factors, passed = scalar_membership(symbol, order, k)
    assert report.passed == passed
    for got, want in ((report.constants, constants),
                      (report.growth_slopes, slopes),
                      (report.refinement_factors, factors)):
        assert got.keys() == want.keys()
        for key in want:
            assert got[key] == pytest.approx(want[key], rel=1e-12, abs=1e-300)


def test_class_membership_fails_on_a_nan_sample():
    def fn(xp, xip, lam):
        return np.where(np.abs(xip) > 500.0, np.nan,
                        1.0 / np.sqrt(xip * xip + lam))
    report = class_membership_estimate(make_symbol(fn, -1.0), -1.0, 1)
    assert not report.passed
    assert "non-finite" in report.notes


def _counted_ntd():
    """The flat NtD symbol built by ``make_symbol``, and the list in which
    it logs the x' of every call."""
    calls = []

    def fn(xp, xip, lam):
        calls.append(xp)
        return -1.0 / np.sqrt(xip * xip + lam)
    return make_symbol(fn, -1.0), calls


def test_class_membership_calls_once_per_x_stencil_point():
    sym, calls = _counted_ntd()
    assert class_membership_estimate(sym, -1.0, 2).passed
    # x' = -h, 0, +h on the fine grid; the coarse grid is read from it
    assert calls == [-1e-4, 0.0, 1e-4]


def test_coarse_membership_grid_is_every_other_fine_point():
    # the coarse sample is read from the fine table; for the pinned
    # ranges it is the coarse geomspace to the bit
    for (lo, hi), n in zip((MEMBERSHIP_XI_RANGE, MEMBERSHIP_LAM_RANGE),
                           MEMBERSHIP_POINTS):
        assert np.array_equal(np.geomspace(lo, hi, 2 * n - 1)[::2],
                              np.geomspace(lo, hi, n))


def test_membership_sample_grid_is_built_once_and_read_only():
    n_xi, n_lam = (2 * n - 1 for n in MEMBERSHIP_POINTS)
    grid = _sample_grid(n_xi, n_lam)
    assert _sample_grid(n_xi, n_lam) is grid
    assert not any(arr.flags.writeable for arr in grid)
    xis, lams, t, hxi = grid
    # the +-2 h_xi stencil of k = 3 stays on one side of xi = 0
    assert np.all(2 * hxi < np.abs(xis)) and np.all(hxi <= 1e-3 * t)


@pytest.mark.parametrize("k", [-1, 4])
def test_class_membership_rejects_unwired_k_before_any_call(k):
    sym, calls = _counted_ntd()
    with pytest.raises(ContractError):
        class_membership_estimate(sym, -1.0, k)
    assert calls == []
