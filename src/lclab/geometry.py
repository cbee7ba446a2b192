"""Domains, interface charts and the metric data they induce.

A bounded domain contains a compact inclusion; the inclusion boundary is
described locally by graph charts: in chart coordinates the interface is
the graph ``x_n = chi(x')`` and the inclusion sits on the ``x_n > chi``
side.  Every chart exposes the height function and its gradient
analytically; construction cross-validates the gradient against finite
differences so inconsistent inputs fail fast.

All objects here are immutable after construction and safe to share
across threads.
"""

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import ContractError, DomainError

LIPSCHITZ_SAMPLES = 4096


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
    """Rectangle [0,Lx]x[0,Ly] with a star-shaped inclusion strictly inside.

    The inclusion boundary is ``r = radius(theta)`` around ``center``; a
    plain disk is ``radius_profile=None``.  ``radius(theta)`` must stay
    smooth and strictly positive.
    """

    lx: float
    ly: float
    center: tuple
    radius: float
    radius_profile: Optional[Callable[[np.ndarray], np.ndarray]] = None
    radius_profile_dtheta: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def __post_init__(self):
        if self.lx <= 0 or self.ly <= 0:
            raise DomainError("rectangle sides must be positive")
        theta = np.linspace(0.0, 2 * np.pi, 720, endpoint=False)
        r = self.boundary_radius(theta)
        if np.any(r <= 0):
            raise DomainError("inclusion radius function must be positive")
        cx, cy = self.center
        x = cx + r * np.cos(theta)
        y = cy + r * np.sin(theta)
        margin = min(x.min(), self.lx - x.max(), y.min(), self.ly - y.max())
        if margin <= 0:
            raise DomainError("inclusion must be strictly inside the rectangle")
        if self.radius_profile is not None and self.radius_profile_dtheta is None:
            raise DomainError("radius_profile requires radius_profile_dtheta")

    def boundary_radius(self, theta):
        theta = np.asarray(theta, dtype=float)
        if self.radius_profile is None:
            return np.full_like(theta, self.radius)
        return self.radius * np.asarray(self.radius_profile(theta), dtype=float)

    def boundary_radius_dtheta(self, theta):
        theta = np.asarray(theta, dtype=float)
        if self.radius_profile is None:
            return np.zeros_like(theta)
        return self.radius * np.asarray(self.radius_profile_dtheta(theta), dtype=float)

    def boundary_point(self, theta):
        r = self.boundary_radius(theta)
        return np.stack([self.center[0] + r * np.cos(theta),
                         self.center[1] + r * np.sin(theta)], axis=-1)

    def speed(self, theta):
        """|d/dtheta of the boundary curve| (arc-length density)."""
        r = self.boundary_radius(theta)
        dr = self.boundary_radius_dtheta(theta)
        return np.sqrt(r * r + dr * dr)

    @property
    def inscribed_outer_radius(self):
        """Largest circle around ``center`` inside the rectangle."""
        cx, cy = self.center
        return min(cx, self.lx - cx, cy, self.ly - cy)

    def perimeter(self, tol=1e-12):
        """Interface length by adaptive quadrature of the arc-length density."""
        from scipy.integrate import quad
        val, _ = quad(lambda t: float(self.speed(np.array(t))),
                      0.0, 2 * np.pi, limit=400, epsabs=tol, epsrel=tol)
        return val


class BoundaryChart:
    """Graph chart of the interface: height ``chi`` over tangent coordinates.

    ``chi`` and ``grad_chi`` take a point x' in R^{n-1} (scalar or array
    of length n-1) and return the height / gradient.  The chart is valid
    for |x'| <= support_radius.  Construction checks grad_chi against a
    central difference of chi on sample points.
    """

    def __init__(self, chi, grad_chi, support_radius, dim=2, validate=True):
        if support_radius <= 0:
            raise DomainError("support_radius must be positive")
        self.chi = chi
        self.grad_chi = grad_chi
        self.support_radius = float(support_radius)
        self.dim = int(dim)  # ambient dimension n; x' lives in R^{n-1}
        if validate:
            self._validate_gradient()

    def _validate_gradient(self, samples=7, tol=1e-5):
        radii = np.linspace(-0.8, 0.8, samples) * self.support_radius
        h = 1e-6 * max(1.0, self.support_radius)
        for t in radii:
            if self.dim == 2:
                g = np.atleast_1d(np.asarray(self.grad_chi(float(t)),
                                             dtype=float))
                fd = np.array([(self.chi(float(t) + h) - self.chi(float(t) - h))
                               / (2 * h)])
            else:
                xp = np.zeros(self.dim - 1)
                xp[0] = t
                g = np.atleast_1d(np.asarray(self.grad_chi(xp), dtype=float))
                fd = np.empty_like(g)
                for j in range(g.size):
                    step = np.zeros_like(xp)
                    step[j] = h
                    fd[j] = (self.chi(xp + step) - self.chi(xp - step)) / (2 * h)
            scale = max(1.0, np.abs(g).max())
            if np.abs(fd - g).max() > tol * scale:
                raise DomainError(
                    "grad_chi inconsistent with finite differences of chi "
                    f"at x'={t:.4f} (|diff|={np.abs(fd - g).max():.2e})")

    def _require_in_range(self, xp):
        r = abs(float(xp)) if np.ndim(xp) == 0 else float(np.linalg.norm(xp))
        if r > self.support_radius * (1 + 1e-12):
            raise DomainError(
                f"point at distance {r:.4g} outside chart radius "
                f"{self.support_radius:.4g}")

    def gradient(self, xp):
        """grad chi at one point x' (a scalar or a size-1 array in 2D)."""
        if np.size(xp) != self.dim - 1:
            raise ContractError(
                f"chart gradient takes one point x' in R^{self.dim - 1} per "
                f"call, got shape {np.shape(xp)}")
        self._require_in_range(xp)
        if self.dim == 2 and np.ndim(xp) != 0:
            xp = float(np.asarray(xp).reshape(()))
        return np.atleast_1d(np.asarray(self.grad_chi(xp), dtype=float))


def flat_chart(dim=2, support_radius=1.0):
    """Chart of a flat interface piece (chi = 0)."""
    return BoundaryChart(lambda xp: 0.0,
                         lambda xp: np.zeros(dim - 1),
                         support_radius, dim=dim, validate=False)


def linear_chart(slope, support_radius=1.0):
    """2D chart with constant gradient ``slope`` (chi = slope * x')."""
    return BoundaryChart(lambda xp: slope * float(xp),
                         lambda xp: np.array([slope]),
                         support_radius, dim=2)


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


def unit_normal(chart, xp):
    """Unit normal of the interface pointing to the inclusion side."""
    g = chart.gradient(xp)
    ann = 1.0 + float(g @ g)
    return np.concatenate([-g, [1.0]]) / np.sqrt(ann)


def surface_density(chart, xp):
    """Surface measure density sqrt(1 + |grad chi|^2) >= 1."""
    g = chart.gradient(xp)
    return float(np.sqrt(1.0 + g @ g))


@dataclass(frozen=True)
class AtlasEntry:
    theta: float
    base_point: np.ndarray
    chart: BoundaryChart
    weight: float  # arc-length quadrature weight


def _tangent_chart(domain, theta0, max_slope=1.0, fit_support=True):
    """Tangent graph chart of the interface at boundary angle ``theta0``.

    Local frame: origin at the boundary point, first axis along the unit
    tangent, second axis along the inward normal (inclusion side is
    x_n > 0).  chi(x') is obtained by Newton inversion of the tangential
    coordinate; the gradient comes from the parametric derivative.  The
    support radius is trimmed so |chi'| stays below ``max_slope``.
    """
    p0 = np.asarray(domain.boundary_point(np.float64(theta0)), dtype=float)
    r0 = float(domain.boundary_radius(np.float64(theta0)))
    dr0 = float(domain.boundary_radius_dtheta(np.float64(theta0)))
    cvel = np.array([dr0 * np.cos(theta0) - r0 * np.sin(theta0),
                     dr0 * np.sin(theta0) + r0 * np.cos(theta0)])
    tangent = cvel / np.linalg.norm(cvel)
    inward = np.array([tangent[1], -tangent[0]])
    # the curve winds counterclockwise, so (t_y, -t_x) points to the center
    ctr = np.asarray(domain.center, dtype=float)
    if np.dot(ctr - p0, inward) < 0:
        inward = -inward
        tangent = -tangent

    def curve_local(theta):
        c = np.asarray(domain.boundary_point(np.float64(theta)), dtype=float) - p0
        return float(c @ tangent), float(c @ inward)

    def theta_of_t(t):
        theta = theta0 + t / np.linalg.norm(cvel)
        for _ in range(60):
            ct, _ = curve_local(theta)
            r = float(domain.boundary_radius(np.float64(theta)))
            dr = float(domain.boundary_radius_dtheta(np.float64(theta)))
            vel = np.array([dr * np.cos(theta) - r * np.sin(theta),
                            dr * np.sin(theta) + r * np.cos(theta)])
            dt_dtheta = float(vel @ tangent)
            step = (ct - t) / dt_dtheta
            theta -= step
            if abs(step) < 1e-14 * (1.0 + abs(theta)):
                break
        return theta

    def chi(xp):
        theta = theta_of_t(float(xp))
        return curve_local(theta)[1]

    def grad_chi(xp):
        theta = theta_of_t(float(xp))
        r = float(domain.boundary_radius(np.float64(theta)))
        dr = float(domain.boundary_radius_dtheta(np.float64(theta)))
        vel = np.array([dr * np.cos(theta) - r * np.sin(theta),
                        dr * np.sin(theta) + r * np.cos(theta)])
        return np.array([float(vel @ inward) / float(vel @ tangent)])

    if not fit_support:
        return BoundaryChart(chi, grad_chi, 0.05 * r0, dim=2)

    # widest support on which the slope cap holds: the chart extends until
    # |chi'| reaches max_slope (or the parameterization degenerates)
    def max_sampled_slope(radius):
        try:
            return max(abs(float(grad_chi(t)[0]))
                       for t in np.linspace(-radius, radius, 17))
        except (ZeroDivisionError, FloatingPointError, OverflowError):
            return math.inf

    hi = 0.9 * r0
    if max_sampled_slope(hi) <= max_slope:
        radius = hi
    else:
        lo = 0.05 * r0
        for _ in range(30):
            mid = 0.5 * (lo + hi)
            if max_sampled_slope(mid) <= max_slope:
                lo = mid
            else:
                hi = mid
        radius = lo
    return BoundaryChart(chi, grad_chi, radius, dim=2)


def chart_atlas(domain, n_charts, max_slope=1.0, fit_support=True):
    """Uniform-angle atlas of tangent charts with arc-length weights.

    The weights are midpoint values of the arc-length density and sum to
    the interface perimeter (spectrally accurate for smooth profiles).
    With ``fit_support=False`` the charts keep a small nominal radius
    instead of extending to the slope cap (cheap when only base-point
    data or the weights are consumed).
    """
    if n_charts < 4:
        raise DomainError("need at least 4 charts")
    dtheta = 2 * np.pi / n_charts
    thetas = (np.arange(n_charts) + 0.5) * dtheta
    entries = []
    for th in thetas:
        chart = _tangent_chart(domain, float(th), max_slope=max_slope,
                               fit_support=fit_support)
        w = float(domain.speed(np.float64(th))) * dtheta
        if w <= 0:
            raise DomainError("degenerate inclusion boundary")
        entries.append(AtlasEntry(theta=float(th),
                                  base_point=domain.boundary_point(np.float64(th)),
                                  chart=chart, weight=w))
    return entries


def lipschitz_constant(domain, n_charts=32, samples_per_chart=None,
                       max_slope=1.0):
    """Interface Lipschitz constant: sup |chi'| over charts by dense sampling."""
    if samples_per_chart is None:
        samples_per_chart = max(LIPSCHITZ_SAMPLES // n_charts, 16)
    atlas = chart_atlas(domain, n_charts, max_slope=max_slope)
    worst = 0.0
    for entry in atlas:
        ts = np.linspace(-entry.chart.support_radius,
                         entry.chart.support_radius, samples_per_chart)
        for t in ts:
            worst = max(worst, abs(float(entry.chart.gradient(t)[0])))
    return worst
