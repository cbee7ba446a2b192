"""Principal symbols of the interface operators and their class calculus.

The transmission problem reduces, after flattening the interface, to
ODEs in the normal variable whose characteristic roots drive everything:
``tau`` (the decaying exterior root) and ``eta`` (the decaying interior
root of the screened equation).  The three boundary operators of
interest have principal symbols

    Neumann-to-Dirichlet map .... 1 / eta
    transmission factor ......... 1 - tau / eta
    interface difference ........ 1 / (Re tau - Re eta)   (positive)

Symbol-class membership (uniform bounds by (|xi| + sqrt(lambda))^(m-|a|))
is certified numerically by sampled finite differences, not proved.  The
certificate takes every derivative from one table of symbol values on its
fine sample grid: one call per x' stencil point, with the xi' stencil
offsets stacked on a leading axis; the coarse grid is every other point.

Symbols are evaluated on whole arrays.  A symbol b(x', xi', lambda)
takes arrays of x', xi' and lambda that broadcast against each other,
with one scalar xi' per sample (the 1-D torus and chart case), and
returns an array of the broadcast shape; scalar arguments give a scalar.
A constant symbol may return a scalar, which the caller broadcasts.  The
chart symbols below take one chart point x' per call and arrays of xi'
and lambda.
"""

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional

import numpy as np

from .errors import ContractError, DegenerateCovectorError, DomainError
from .interface import flat_ntd, flat_transmission
from .kernels import loglog_fit

FD_STEP_SCALE = 1e-4  # the x' step is FD_STEP_SCALE * (1 + |x'|)
XI_STEP_SCALE = 1e-3  # the xi step is XI_STEP_SCALE * min(t, XI_STEP_CAP |xi|)
XI_STEP_CAP = 250.0  # keeps the +-2 h_xi stencil off the kink of |xi| at 0
GROWTH_SLOPE_TOL = 0.15
REFINEMENT_FACTOR_TOL = 1.5
# class certification: sample ranges of |xi| and lambda, points of each
MEMBERSHIP_XI_RANGE = (1.0, 1e3)
MEMBERSHIP_LAM_RANGE = (1.0, 1e6)
MEMBERSHIP_POINTS = (12, 13)
MEMBERSHIP_X_DERIVATIVES = 2


@dataclass(frozen=True)
class SymbolClass:
    """Tag ``S^m_k`` (parameter-free) or ``P^m_k`` (parameter-dependent).

    ``k`` bounds the certified xi-derivative count; None means unrestricted.
    """

    kind: str  # "S" or "P"
    order: float
    k: Optional[int] = None

    def __post_init__(self):
        if self.kind not in ("S", "P"):
            raise ContractError(f"unknown symbol class kind {self.kind!r}")

    def __str__(self):
        k = "inf" if self.k is None else str(self.k)
        return f"{self.kind}({self.order}, {k})"


@dataclass(frozen=True)
class ParamSymbol:
    """A symbol b(x', xi', lambda) with its class tag (kind, order, k).

    ``eval`` follows the array contract of this module: broadcasting
    arrays of x', xi' (one scalar per sample) and lambda in, an array of
    the broadcast shape out, or a scalar for a constant symbol.
    """

    eval: Callable
    class_tag: SymbolClass
    x_support_radius: float = np.inf

    def __call__(self, xp, xip, lam):
        return self.eval(xp, xip, lam)


def make_symbol(fn, order, kind="P", k=None, x_support_radius=np.inf):
    """Wrap ``fn(xp, xip, lam)`` as a ParamSymbol tagged SymbolClass(kind,
    order, k).

    ``fn`` must accept broadcasting arrays (use ``np.sqrt``, not
    ``math.sqrt``) and return the broadcast shape, or a scalar when it is
    constant.
    """
    return ParamSymbol(eval=fn, class_tag=SymbolClass(kind, order, k),
                       x_support_radius=x_support_radius)


IDENTITY_SYMBOL = ParamSymbol(eval=lambda xp, xip, lam: 1.0 + 0.0j,
                              class_tag=SymbolClass("S", 0.0, None),
                              x_support_radius=0.0)


def _metric_pieces(chart, xp, xip):
    """A_nn = 1 + |grad chi|^2, cross = A_n. xi' = -grad chi . xi' and
    |xi'|^2 at the chart point ``xp``; ``xip`` holds one scalar xi' per
    sample."""
    g = chart.gradient(xp)
    ann = 1.0 + float(g @ g)
    xip = np.asarray(xip, dtype=float)
    return ann, -g[0] * xip, xip * xip


def _root_pair(ann, cross, q):
    """Roots (minus, plus) of ann z^2 + 2 i cross z - q; both share the
    imaginary part -cross / ann."""
    re = np.sqrt(ann * q - cross * cross) / ann
    im = -cross / ann
    return -re + 1j * im, re + 1j * im


def characteristic_roots(chart, xp, xip):
    """Roots z_-, z_+ of the frozen-coefficient normal polynomial
    A_nn z^2 + 2 i z (A_n. xi') - |xi'|^2; homogeneous of degree 1 in xi',
    with Re z_- < 0 < Re z_+.  Raises DegenerateCovectorError if any
    sample has xi' = 0.
    """
    ann, cross, xi2 = _metric_pieces(chart, xp, xip)
    if np.any(xi2 == 0.0):
        raise DegenerateCovectorError("characteristic roots need |xi'| > 0")
    return _root_pair(ann, cross, xi2)


def characteristic_roots_screened(chart, xp, xip, lam):
    """Roots omega_-, omega_+ with |xi'|^2 replaced by |xi'|^2 + lambda.
    Raises DegenerateCovectorError if any sample has xi' = 0 = lambda."""
    ann, cross, xi2 = _metric_pieces(chart, xp, xip)
    if np.any((xi2 == 0.0) & (np.asarray(lam) == 0.0)):
        raise DegenerateCovectorError(
            "screened roots need |xi'| + lambda > 0")
    return _root_pair(ann, cross, xi2 + lam)


def tau_symbol(chart, xp, xip):
    """Decaying-exterior characteristic root z_+ (order 1, elliptic).

    Extended by continuity with value 0 at xi' = 0, where both parts of
    the root vanish.
    """
    ann, cross, xi2 = _metric_pieces(chart, xp, xip)
    return _root_pair(ann, cross, xi2)[1]


def eta_symbol(chart, xp, xip, lam):
    """Decaying-interior screened root omega_- (never vanishes for lam >= 1)."""
    return characteristic_roots_screened(chart, xp, xip, lam)[0]


def ntd_symbol(chart, xp, xip, lam):
    """Principal symbol of the interface Neumann-to-Dirichlet map: 1/eta.

    Order -1; negative real part; |symbol| <= C (|xi'| + sqrt(lam))^{-1}.
    """
    return 1.0 / eta_symbol(chart, xp, xip, lam)


def transmission_symbol(chart, xp, xip, lam):
    """Principal symbol of the boundary coupling factor: 1 - tau/eta.

    Order 0, uniformly bounded away from zero in modulus for lam >= 1.
    The numerator eta - tau is real (the imaginary parts of the two roots
    coincide), so this equals (Re eta - Re tau)/eta.
    """
    eta = eta_symbol(chart, xp, xip, lam)
    tau = tau_symbol(chart, xp, xip)
    return (eta - tau) / eta


def difference_symbol(chart, xp, xip, lam):
    """Positive symbol representing the resolvent difference on the interface:
    1 / (Re tau - Re eta).  Order -1.
    """
    eta = eta_symbol(chart, xp, xip, lam)
    tau = tau_symbol(chart, xp, xip)
    return 1.0 / (tau.real - eta.real)


def difference_symbol_expanded(chart, xp, xip, lam):
    """Same symbol written through the metric data, for cross-validation:
    A_nn / (sqrt(A_nn |xi'|^2 - |grad chi . xi'|^2)
            + sqrt(A_nn (|xi'|^2 + lam) - |grad chi . xi'|^2)).
    """
    ann, cross, xi2 = _metric_pieces(chart, xp, xip)
    root_free = np.sqrt(ann * xi2 - cross * cross)
    root_screened = np.sqrt(ann * (xi2 + lam) - cross * cross)
    return ann / (root_free + root_screened)


def flat_ntd_symbol():
    """x-independent Neumann-to-Dirichlet symbol ``interface.flat_ntd``."""
    return make_symbol(lambda xp, xip, lam: flat_ntd(xip, lam),
                       order=-1.0, kind="P", k=None, x_support_radius=0.0)


def flat_transmission_symbol():
    """x-independent transmission factor ``interface.flat_transmission``."""
    return make_symbol(lambda xp, xip, lam: flat_transmission(xip, lam),
                       order=0.0, kind="P", k=1, x_support_radius=0.0)


# ---------------------------------------------------------------------------
# class membership certification


@dataclass
class MembershipReport:
    constants: dict          # (alpha, beta) -> sup of |d^b_x d^a_xi b| / t^(m-a)
    growth_slopes: dict      # (alpha, beta) -> slope of log sup vs log t
    refinement_factors: dict
    passed: bool
    notes: str = ""


def _difference(f, order, h):
    """Central difference of ``order`` (0 to 3) with step ``h``, where
    ``f(j)`` is the sampled value at offset ``j * h``."""
    if order == 0:
        return f(0)
    if order == 1:
        return (f(1) - f(-1)) / (2 * h)
    if order == 2:
        return (f(1) - 2 * f(0) + f(-1)) / (h * h)
    return (f(2) - 2 * f(1) + 2 * f(-1) - f(-2)) / (2 * h ** 3)


@lru_cache
def _sample_grid(n_xi_pts, n_lam_pts):
    """(xi, lam, t, h_xi) on the certificate's log sample grid, read-only:
    +-xi as a column, lam as a row, t = |xi| + sqrt(lam) and the xi step."""
    xis = np.geomspace(*MEMBERSHIP_XI_RANGE, n_xi_pts)
    xis = np.concatenate([xis, -xis])[:, None]
    lams = np.geomspace(*MEMBERSHIP_LAM_RANGE, n_lam_pts)[None, :]
    t = np.abs(xis) + np.sqrt(lams)
    grid = (xis, lams, t,
            XI_STEP_SCALE * np.minimum(t, XI_STEP_CAP * np.abs(xis)))
    for arr in grid:
        arr.flags.writeable = False
    return grid


def _derivative_ratios(symbol, m, k, keys, n_xi_pts, n_lam_pts):
    """t = |xi| + sqrt(lam) on one log sample grid at x' = 0, and for each
    (alpha, beta) in ``keys`` the ratio |d^beta_x d^alpha_xi b| /
    t^(m - alpha) there, stacked on axis 0.

    Every derivative is taken from one table of symbol values: one call
    per x' stencil point, with the xi stencil offsets (+-h_xi, and
    +-2 h_xi when k = 3) stacked on a new leading axis.
    """
    xis, lams, t, hxi = _sample_grid(n_xi_pts, n_lam_pts)
    hx = FD_STEP_SCALE  # FD_STEP_SCALE * (1 + |x'|) at x' = 0
    # steps each way: one for orders 1 and 2, two for order 3
    rx, rxi = (MEMBERSHIP_X_DERIVATIVES + 1) // 2, (k + 1) // 2
    xi_stack = xis + np.arange(-rxi, rxi + 1)[:, None, None] * hxi
    shape = np.broadcast_shapes(xi_stack.shape, lams.shape)
    table = {i: np.broadcast_to(symbol(i * hx, xi_stack, lams), shape)
             for i in range(-rx, rx + 1)}
    d_xi = {(i, a): _difference(lambda j: table[i][rxi + j], a, hxi)
            for i in table for a in range(k + 1)}
    return t, np.stack([
        np.abs(_difference(lambda i: d_xi[i, a], b, hx)) / t ** (m - a)
        for a, b in keys])


def class_membership_estimate(symbol, m, k):
    """Sampled certification that ``symbol`` obeys the P^m_k derivative bounds.

    Ratios |d^beta_x d^alpha_xi b| / (|xi| + sqrt(lam))^(m - alpha), for
    alpha <= k and beta <= 2, are collected at x' = 0 over a log grid;
    membership requires the per-decade suprema to stay flat as
    |xi| + sqrt(lam) grows (slope <= 0.15 in log-log) and to be stable
    under doubling the sample density.  A symbol declared with too small
    an order shows a positive growth slope and fails, and so does a
    non-finite (inf or NaN) ratio.  The coarse grid is every other point
    of the fine one, so a certification costs one symbol call per x'
    stencil point (three), on all of the fine xi stencil points at once.
    Raises ContractError unless 0 <= k <= 3, before any call.
    """
    if not 0 <= k <= 3:
        raise ContractError(
            f"finite differences only wired up to order 3, got k = {k}")
    keys = [(a, b) for a in range(k + 1)
            for b in range(MEMBERSHIP_X_DERIVATIVES + 1)]
    n_xi, n_lam = (2 * n - 1 for n in MEMBERSHIP_POINTS)
    t, fine = _derivative_ratios(symbol, m, k, keys, n_xi, n_lam)
    # the coarse grid is every other fine point: every other row on each
    # xi sign, every other column (np.geomspace(lo, hi, n) is
    # np.geomspace(lo, hi, 2n - 1)[::2] to the bit for the pinned ranges)
    rows = np.r_[0:n_xi:2, n_xi:2 * n_xi:2]
    t, coarse = t[rows, ::2], fine[:, rows, ::2]

    # coarse suprema per half-decade of t, all keys in one reduction
    b_idx = (np.log10(t) / 0.5).astype(int).ravel()
    order = np.argsort(b_idx)
    b_sorted = b_idx[order]
    starts = np.flatnonzero(np.r_[True, b_sorted[1:] != b_sorted[:-1]])
    per_bucket = np.maximum.reduceat(coarse.reshape(len(keys), -1)[:, order],
                                     starts, axis=1)
    ts = np.array([10.0 ** (0.5 * int(i) + 0.25) for i in b_sorted[starts]])

    constants, slopes, factors = {}, {}, {}
    notes = []
    for key, vals, sup_coarse, sup_fine in zip(
            keys, per_bucket, coarse.max(axis=(1, 2)).tolist(),
            fine.max(axis=(1, 2)).tolist()):
        keep = vals > 0
        # judged by GROWTH_SLOPE_TOL alone, so any r^2 will do
        slopes[key] = (loglog_fit(ts[keep], vals[keep], 0.0).slope
                       if keep.sum() >= 3 else 0.0)
        constants[key] = sup_fine
        factors[key] = sup_fine / sup_coarse if sup_coarse > 0 else 1.0
        if not np.isfinite(sup_fine):
            notes.append(f"derivative {key}: non-finite ratio")
        if slopes[key] > GROWTH_SLOPE_TOL:
            notes.append(f"derivative {key}: ratio grows like "
                         f"t^{slopes[key]:.2f}")
        if factors[key] > REFINEMENT_FACTOR_TOL:
            notes.append(f"derivative {key}: unstable under refinement "
                         f"(factor {factors[key]:.2f})")
    return MembershipReport(constants=constants, growth_slopes=slopes,
                            refinement_factors=factors, passed=not notes,
                            notes="; ".join(notes))


def product_symbol(a, b):
    """Pointwise product with the class tag dictated by the product rule:
    S^{m1} x P^{m2} lands in P^{m1+m2}_{[m1]} when m1 >= 0, and in
    S^{m1+m2} when both orders make the parameter-free reading possible.
    Multiplying by ``IDENTITY_SYMBOL`` returns the other factor.
    """
    if a is IDENTITY_SYMBOL:
        return b
    if b is IDENTITY_SYMBOL:
        return a
    ta, tb = a.class_tag, b.class_tag
    order = ta.order + tb.order

    def cap(*ks):
        finite = [x for x in ks if x is not None]
        return min(finite) if finite else None

    if ta.kind == "S" and tb.kind == "S":
        tag = SymbolClass("S", order, cap(ta.k, tb.k))
    elif ta.kind == "P" and tb.kind == "P":
        tag = SymbolClass("P", order, cap(ta.k, tb.k))
    else:
        s_tag, p_tag = (ta, tb) if ta.kind == "S" else (tb, ta)
        if s_tag.order >= 0:
            tag = SymbolClass("P", order, cap(int(math.floor(s_tag.order)),
                                              s_tag.k, p_tag.k))
        elif p_tag.order <= 0:
            tag = SymbolClass("S", order, cap(s_tag.k, p_tag.k))
        else:
            raise DomainError(
                f"product rule not available for {s_tag} x {p_tag}")

    fa, fb = a.eval, b.eval
    return ParamSymbol(eval=lambda xp, xip, lam: fa(xp, xip, lam) * fb(xp, xip, lam),
                       class_tag=tag,
                       x_support_radius=min(a.x_support_radius, b.x_support_radius))
