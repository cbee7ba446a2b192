import math

import numpy as np
import pytest

from lclab import (ContractError, Domain1D, Domain2D, DomainError, flat_chart,
                   linear_chart, metric_matrix)
from lclab.geometry import BoundaryChart


def test_domain1d_ordering_enforced():
    with pytest.raises(DomainError):
        Domain1D(length=1.0, a1=0.7, a2=0.3)
    with pytest.raises(DomainError):
        Domain1D(length=1.0, a1=0.0, a2=0.5)


def test_domain2d_inclusion_inside():
    # the disk leaves or touches the outer circle, or has no positive radius
    for radius in (2.5, 2.0, 0.0, -1.0):
        with pytest.raises(DomainError, match="0 < radius < outer_radius"):
            Domain2D(radius=radius, outer_radius=2.0)
    with pytest.raises(DomainError, match="outer_radius < inf"):
        Domain2D(radius=1.0, outer_radius=float("inf"))
    assert Domain2D(radius=1.0, outer_radius=2.0).outer_radius == 2.0


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


def test_flat_piece_has_zero_gradient_everywhere():
    chart = flat_chart(support_radius=2.0)
    assert max(abs(float(chart.gradient(t)[0]))
               for t in np.linspace(-2, 2, 64)) == 0.0
