import math

import numpy as np
import pytest
from scipy.integrate import quad

from lclab import (ContractError, Domain1D, Domain2D, DomainError,
                   chart_atlas, flat_chart, linear_chart, lipschitz_constant,
                   metric_matrix, surface_density, unit_normal)
from lclab.geometry import BoundaryChart


def perturbed_disk(amp=0.1, harmonics=3):
    return Domain2D(lx=4.0, ly=4.0, center=(2.0, 2.0), radius=1.0,
                    radius_profile=lambda t: 1.0 + amp * np.cos(harmonics * t),
                    radius_profile_dtheta=lambda t: -amp * harmonics
                    * np.sin(harmonics * t))


def test_domain1d_ordering_enforced():
    with pytest.raises(DomainError):
        Domain1D(length=1.0, a1=0.7, a2=0.3)
    with pytest.raises(DomainError):
        Domain1D(length=1.0, a1=0.0, a2=0.5)


def test_domain2d_inclusion_inside():
    with pytest.raises(DomainError):
        Domain2D(lx=2.0, ly=2.0, center=(1.0, 1.0), radius=1.5)
    with pytest.raises(DomainError):
        perturbed_disk(amp=-1.2)  # radius goes negative


def test_metric_flat_chart_is_identity():
    a = metric_matrix(flat_chart(), 0.3)
    assert np.allclose(a, np.eye(2))


def test_metric_sloped_chart_matches_hand_value():
    a = metric_matrix(linear_chart(0.5), 0.1)
    assert np.allclose(a, [[1.0, -0.5], [-0.5, 1.25]])
    assert abs(np.linalg.det(a) - 1.0) < 1e-14


def test_metric_unimodular_and_positive_on_random_charts(rng):
    for _ in range(100):
        coeffs = rng.normal(scale=0.4, size=3)
        chart = BoundaryChart(
            lambda t, c=coeffs: c[0] * t + c[1] * math.sin(3 * t)
            + c[2] * t * t,
            lambda t, c=coeffs: np.array([c[0] + 3 * c[1] * math.cos(3 * t)
                                          + 2 * c[2] * t]),
            support_radius=0.8)
        xp = rng.uniform(-0.8, 0.8)
        a = metric_matrix(chart, xp)
        assert abs(np.linalg.det(a) - 1.0) < 1e-12
        assert np.linalg.eigvalsh(a)[0] > 0


def test_gradient_cross_validation_catches_lies():
    with pytest.raises(DomainError):
        BoundaryChart(lambda t: 0.5 * t, lambda t: np.array([0.7]),
                      support_radius=1.0)


def test_chart_range_enforced():
    with pytest.raises(DomainError):
        metric_matrix(flat_chart(support_radius=0.5), 0.8)


def test_chart_gradient_takes_one_point():
    chart = linear_chart(0.5, support_radius=10.0)
    assert chart.gradient(0.25) == pytest.approx([0.5])
    assert chart.gradient(np.array([0.25])) == pytest.approx([0.5])
    # several x' on a 2D chart are not one point at distance |x'|
    for xp in (np.linspace(0.0, 1.0, 8), np.array([20.0, 0.0])):
        with pytest.raises(ContractError, match="one point"):
            chart.gradient(xp)


def test_unit_normal_values_and_normalization(rng):
    assert np.allclose(unit_normal(flat_chart(), 0.0), [0.0, 1.0])
    nu = unit_normal(linear_chart(0.5), 0.0)
    assert np.allclose(nu, np.array([-0.5, 1.0]) / math.sqrt(1.25))
    for slope in rng.normal(scale=1.5, size=20):
        nu = unit_normal(linear_chart(slope), 0.0)
        assert abs(nu @ nu - 1.0) < 1e-14


def test_surface_density_values():
    assert surface_density(flat_chart(), 0.2) == 1.0
    assert abs(surface_density(linear_chart(0.5), 0.0)
               - math.sqrt(1.25)) < 1e-14
    # tangent chart of a circle: gradient vanishes at the base point
    disk = Domain2D(4.0, 4.0, (2.0, 2.0), 1.0)
    entry = chart_atlas(disk, 8)[0]
    assert abs(surface_density(entry.chart, 0.0) - 1.0) < 1e-10


def test_atlas_recovers_circle_perimeter():
    disk = Domain2D(4.0, 4.0, (2.0, 2.0), 1.5)
    atlas = chart_atlas(disk, 256, fit_support=False)
    assert all(e.weight > 0 for e in atlas)
    total = sum(e.weight * surface_density(e.chart, 0.0) for e in atlas)
    assert abs(total - 2 * np.pi * 1.5) < 1e-6


def test_atlas_perimeter_converges_fast_on_perturbed_disk():
    dom = perturbed_disk()
    # independent oracle: adaptive quadrature of the arc-length density
    exact, _ = quad(lambda t: math.sqrt(
        (1 + 0.1 * math.cos(3 * t)) ** 2 + (0.3 * math.sin(3 * t)) ** 2),
        0.0, 2 * np.pi, limit=200, epsabs=1e-12, epsrel=1e-12)
    errors = {}
    for n in (8, 16, 256):
        total = sum(e.weight for e in chart_atlas(dom, n, fit_support=False))
        errors[n] = abs(total - exact)
    assert errors[8] / max(errors[16], 1e-15) >= 4.0
    assert errors[256] < 1e-6


def test_lipschitz_constant_of_disk_charts():
    disk = Domain2D(4.0, 4.0, (2.0, 2.0), 1.0)
    lip = lipschitz_constant(disk, n_charts=16)
    assert 0.99 <= lip <= 1.01


def test_flat_piece_has_zero_gradient_everywhere():
    chart = flat_chart(support_radius=2.0)
    assert max(abs(float(chart.gradient(t)[0]))
               for t in np.linspace(-2, 2, 64)) == 0.0


def test_tangential_normal_bounded_by_lipschitz_ratio():
    dom = perturbed_disk()
    lip = lipschitz_constant(dom, n_charts=32)
    cap = lip / math.sqrt(1.0 + lip * lip)
    for entry in chart_atlas(dom, 32):
        for t in np.linspace(-entry.chart.support_radius,
                             entry.chart.support_radius, 33):
            nu = unit_normal(entry.chart, t)
            assert abs(nu[0]) <= cap + 1e-9
