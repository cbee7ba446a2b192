"""Domains, interface charts and the metric data they induce.

A bounded domain contains a compact inclusion: an interval inside an
interval, or a disk inside a concentric disk, whose exterior is the
annulus between them.  The symbol calculus describes the interface
locally by a graph chart: in chart coordinates it is the curve ``x_2 =
chi(x_1)`` and the inclusion sits on the ``x_2 > chi`` side.  Every
chart exposes the height function and its gradient analytically;
construction cross-validates the gradient against finite differences so
inconsistent inputs fail fast.

All objects here are immutable after construction and safe to share
across threads.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, DomainError

GRADIENT_SAMPLES = 7  # chart points where grad_chi meets finite differences
GRADIENT_TOL = 1e-5   # their largest difference, relative to max(1, |grad|)


@dataclass(frozen=True)
class Domain1D:
    """Interval (0, length) with an inclusion (a1, a2) strictly inside."""

    length: float
    a1: float
    a2: float

    def __post_init__(self):
        if not (0.0 < self.a1 < self.a2 < self.length):
            raise DomainError(
                f"need 0 < a1 < a2 < length, got a1={self.a1}, a2={self.a2}, "
                f"length={self.length}")

    @property
    def inclusion_length(self):
        return self.a2 - self.a1


@dataclass(frozen=True)
class Domain2D:
    """Disk inclusion of radius ``radius`` and the annulus around it, out
    to the concentric circle of radius ``outer_radius`` (Neumann there)."""

    radius: float
    outer_radius: float

    def __post_init__(self):
        if not (0.0 < self.radius < self.outer_radius < np.inf):
            raise DomainError(f"need 0 < radius < outer_radius < inf, got "
                              f"{self.radius}, {self.outer_radius}")


class BoundaryChart:
    """Graph chart of the interface curve: height ``chi`` over the
    tangent coordinate.

    ``chi`` and ``grad_chi`` take a point x' (a scalar) and return the
    height / the gradient as an array of size 1.  The chart is valid for
    |x'| <= support_radius.  Construction checks grad_chi against a
    central difference of chi on sample points.
    """

    dim = 2  # ambient dimension n; x' lives in R^{n-1}

    def __init__(self, chi, grad_chi, support_radius, validate=True):
        if support_radius <= 0:
            raise DomainError("support_radius must be positive")
        self.chi = chi
        self.grad_chi = grad_chi
        self.support_radius = float(support_radius)
        if validate:
            self._validate_gradient()

    def _validate_gradient(self):
        radii = np.linspace(-0.8, 0.8, GRADIENT_SAMPLES) * self.support_radius
        h = 1e-6 * max(1.0, self.support_radius)
        for t in radii:
            g = np.atleast_1d(np.asarray(self.grad_chi(float(t)), dtype=float))
            fd = np.array([(self.chi(float(t) + h) - self.chi(float(t) - h))
                           / (2 * h)])
            scale = max(1.0, np.abs(g).max())
            if np.abs(fd - g).max() > GRADIENT_TOL * scale:
                raise DomainError(
                    "grad_chi inconsistent with finite differences of chi "
                    f"at x'={t:.4f} (|diff|={np.abs(fd - g).max():.2e})")

    def gradient(self, xp):
        """grad chi at one point x' (a scalar or a size-1 array)."""
        if np.size(xp) != 1:
            raise ContractError(
                "chart gradient takes one point x' in R^1 per call, got "
                f"shape {np.shape(xp)}")
        if np.ndim(xp) != 0:
            xp = float(np.asarray(xp).reshape(()))
        r = abs(float(xp))
        if r > self.support_radius * (1 + 1e-12):
            raise DomainError(
                f"point at distance {r:.4g} outside chart radius "
                f"{self.support_radius:.4g}")
        return np.atleast_1d(np.asarray(self.grad_chi(xp), dtype=float))


def flat_chart(support_radius=1.0):
    """Chart of a flat interface piece (chi = 0)."""
    return BoundaryChart(lambda xp: 0.0, lambda xp: np.zeros(1),
                         support_radius, validate=False)


def linear_chart(slope, support_radius=1.0):
    """Chart with constant gradient ``slope`` (chi = slope * x')."""
    return BoundaryChart(lambda xp: slope * float(xp),
                         lambda xp: np.array([slope]),
                         support_radius)


def metric_matrix(chart, xp):
    """Metric coefficient matrix of the flattening change of variables.

    A = [[I, -grad chi], [-(grad chi)^T, 1 + |grad chi|^2]]; unimodular
    (det A = 1) and positive definite by construction.
    """
    g = chart.gradient(xp)
    n = chart.dim
    a = np.eye(n)
    a[:-1, -1] = -g
    a[-1, :-1] = -g
    a[-1, -1] = 1.0 + float(g @ g)
    return a
