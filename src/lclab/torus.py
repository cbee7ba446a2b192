"""Discrete Fourier model of boundary pseudodifferential operators.

Everything lives on a uniform M-point grid over [0, 2pi) with frequency
set {-M/2+1, ..., M/2}.  Conventions, fixed once:

    coefficients   c_k = (1/M) sum_j u(x_j) exp(-i k x_j)
    reconstruction u(x_j) = sum_k c_k exp(i k x_j)
    L^2 norm       ||u||^2 = (2pi/M) sum_j |u_j|^2 = 2pi sum_k |c_k|^2
    H^s norm       ||u||_s^2 = 2pi sum_k (1+k^2)^s |c_k|^2

so the s = 0 Sobolev norm coincides with the L^2 norm (Parseval).
Multiplier operators act diagonally on coefficients; x-dependent symbols
act through the dense quadrature sum_k a(x_j, k, lam) c_k exp(i k x_j),
with exp(i k x_j) = w^(jk mod M) read from the M roots of unity w^n
(``TorusGrid.phase``): frequencies +-k are exact conjugates.  Each sweep
calls a symbol once per lambda on the columns it measures, and tables a
parameter-free factor once (see ``symbols``).

Operator norms H^r -> H^t are exact, with no sampling and no seed.  A
multiplier's norm is the mode-wise maximum of <k>^t |b(k)| <k>^(-r).
Any other operator is written as its coefficient matrix (coefficients
in, coefficients out), and its norm is the largest singular value of
<k>^t M <k>^(-r), where <k> = (1 + k^2)^(1/2).

The real basis.  The potential is real, so every operator the lab
measures maps real fields to real fields: its symbol obeys
s(x, -xi) = conj s(x, xi), and its coefficient matrix is real in the
basis 1, sqrt(2) cos kx, sqrt(2) sin kx (0 < k < M/2), cos(M x / 2),
orthonormal for ||.||^2 / 2pi.  Rows and columns follow the real order:
the cosines k = 0 .. M/2, then the sines k = 1 .. M/2 - 1; a band
|k| <= K takes the cosines 0 .. K, then the sines 1 .. K.  A real
field's coordinates are c_0, sqrt(2) Re c_k, then c_{M/2} (the Nyquist
row, real for a real field), then -sqrt(2) Im c_k, all from one rfft.
<k> weighs the cosine and the sine of a frequency alike, so the norm is
the largest singular value of the real <k>^t M <k>^(-r), from a real
Gram matrix.  The reality contract: an operator's complex columns (a
``psdo_matrix``, or a band of one) must pair as t(-q) = conj t(q) to
``REAL_ULPS`` ulps and be finite, or ContractError is raised before any
transform.
The Nyquist column has no partner; the real matrix keeps its real part,
the mean of the operator's columns at +-M/2.

Each experiment returns a ``kernels.Fit`` of its norms against
tau = sqrt(lambda) (lambda for ``ntd_bound_experiment``), with the
predicted slope as ``expected``, conclusive at r^2 >= ``MIN_R_SQUARED``.
"""

import math
from functools import cached_property, lru_cache

import numpy as np

from .errors import ConfigError, ContractError, ResourceLimitError
from .kernels import check_sweep, loglog_fit

PSDO_MAX_POINTS = 512
COMPOSE_MAX_POINTS = 256
MIN_R_SQUARED = 0.98
COMPOSE_AMPLITUDES = (0.5, 0.4)  # x-modulation of the default pair a, b
REAL_ULPS = 8  # a real operator's table pairs to this many ulps of its max
ROOT2 = math.sqrt(2.0)


class TorusGrid:
    """Uniform periodic grid with a power-of-two number of points."""

    def __init__(self, points):
        if points < 8 or points & (points - 1) != 0:
            raise ConfigError(f"points must be a power of two >= 8, got {points}")
        self.m = int(points)
        self.x = 2.0 * np.pi * np.arange(self.m) / self.m
        k = np.arange(self.m)
        self.freqs = np.where(k <= self.m // 2, k, k - self.m)

    @cached_property
    def phase(self):
        """exp(i k x_j) on the (x_j, k) grid, shared by every
        ``psdo_matrix`` call on this grid; read-only.  It is looked up in
        the table of the M roots of unity w^n = exp(2 pi i n / M), as
        exp(i k x_j) = w^(j k mod M), so the columns of k and -k are exact
        conjugates, column 0 is 1 and the Nyquist column is (-1)^j."""
        half = np.exp(2j * np.pi * np.arange(self.m // 2 + 1) / self.m)
        half[0], half[-1] = 1.0, -1.0
        roots = np.concatenate([half, half[-2:0:-1].conj()])
        phase = roots.take((np.arange(self.m)[:, None] * self.freqs)
                           & (self.m - 1))
        phase.flags.writeable = False
        return phase

    def __repr__(self):
        return f"TorusGrid(points={self.m})"


def dft(grid, values):
    """Forward transform to coefficients ordered like ``grid.freqs``."""
    values = np.asarray(values, dtype=complex)
    if values.shape != (grid.m,):
        raise ConfigError(f"field length {values.shape} != grid size {grid.m}")
    return np.fft.fft(values) / grid.m


def idft(grid, coeffs):
    coeffs = np.asarray(coeffs, dtype=complex)
    if coeffs.shape != (grid.m,):
        raise ConfigError(f"coefficient length {coeffs.shape} != grid size {grid.m}")
    return np.fft.ifft(coeffs * grid.m)


def sobolev_norm(grid, values, s):
    """H^s norm from the weighted coefficient sum; s = 0 is the L^2 norm."""
    coeffs = dft(grid, values)
    weights = (1.0 + grid.freqs.astype(float) ** 2) ** s
    return math.sqrt(2.0 * np.pi * float(np.sum(weights * np.abs(coeffs) ** 2)))


def apply_multiplier(grid, symbol, lam, values):
    """Apply an x-independent symbol diagonally: c_k -> b(k, lam) c_k."""
    coeffs = dft(grid, values)
    mult = symbol(0.0, grid.freqs.astype(float), lam)
    return idft(grid, mult * coeffs)


def psdo_matrix(grid, symbol, lam):
    """Dense quadrature matrix W[j, :] c = (op(a) u)(x_j) for cached reuse,
    from one symbol call on the (x_j, k) grid times the grid's ``phase``."""
    if grid.m > PSDO_MAX_POINTS:
        raise ResourceLimitError(
            f"dense quadrature limited to {PSDO_MAX_POINTS} points, got {grid.m}")
    x = grid.x[:, None]
    k = grid.freqs.astype(float)[None, :]
    # symbol values as the left operand, as in a column-by-column build:
    # numpy's vectorized complex product is not always bitwise commutative
    return symbol(x, k, lam) * grid.phase


def apply_psdo(grid, symbol, lam, values, matrix=None):
    """Apply a (possibly x-dependent) symbol by the dense quadrature.

    Returns grid values; reduces exactly to ``apply_multiplier`` for
    x-independent symbols.
    """
    if matrix is None:
        matrix = psdo_matrix(grid, symbol, lam)
    return matrix @ dft(grid, values)  # rows already carry exp(i k x_j)


# ---------------------------------------------------------------------------
# measured operator bounds


def _multiplier_norms(grid, symbol, lambdas, r, targets):
    """Exact H^r -> H^t norms of a multiplier, a row per t in ``targets``
    and a column per lambda, by mode-wise maximization over one symbol
    call on the (lambda, k) grid."""
    k = grid.freqs.astype(float)
    lam = np.asarray(lambdas, dtype=float)[:, None]
    # a constant symbol returns a scalar
    mods = np.abs(np.broadcast_to(symbol(0.0, k, lam), (len(lam), grid.m)))
    bracket = (1.0 + k * k) ** 0.5
    return np.array([np.max(bracket ** t * mods * bracket ** (-r), axis=1)
                     for t in targets])


def _check_real(table, what):
    """Raise ContractError unless the columns of ``table`` (frequencies in
    ``grid.freqs`` order: 0 .. top, then the negative ones) pair as
    t(-q) = conj t(q), to ``REAL_ULPS`` ulps of its largest real or
    imaginary part, with every entry finite."""
    table = np.ascontiguousarray(table, dtype=complex)
    pairs = (table.shape[1] - 1) // 2
    gap = np.subtract(table[:, 1:pairs + 1], table[:, :-pairs - 1:-1].conj(),
                      order="C").view(float)
    imag0, values = table[:, 0].imag, table.view(float)
    gap = max(gap.max(), -gap.min(), 2.0 * imag0.max(), -2.0 * imag0.min())
    scale = max(values.max(), -values.min())
    # a NaN makes the scale NaN, an inf makes it infinite
    if not (gap <= REAL_ULPS * np.finfo(float).eps * scale
            and scale < math.inf):
        raise ContractError(
            f"{what} is not a real operator: |s(x, -q) - conj s(x, q)| = "
            f"{gap:.3e} against max |s| = {scale:.3e}")


@lru_cache
def _real_order(count):
    """(<k>, norm) of the ``count`` real basis vectors of a band, in the
    real order: the cosines 0 .. count // 2, then the sines 1 ..
    (count - 1) // 2.  norm is 1 for the constant and the Nyquist cosine
    (count even) and sqrt(2) for the others.  Read-only."""
    top = count // 2
    k = np.concatenate([np.arange(top + 1),
                        np.arange(1, count - top)]).astype(float)
    norm = np.full(count, ROOT2)
    norm[0] = 1.0
    if count % 2 == 0:
        norm[top] = 1.0
    order = ((1.0 + k * k) ** 0.5, norm)
    for arr in order:
        arr.flags.writeable = False
    return order


def _real_matrix(grid, table, what):
    """The real coefficient matrix (real coordinates in, real coordinates
    out) of the operator whose complex columns are ``table``: column j
    holds the grid values it produces from the unit coefficient vector
    of the j-th band frequency, 0 .. top, then -top' .. -1 as in
    ``grid.freqs``: top' = top for a band |k| <= top < M/2, and
    top' = M/2 - 1 for the whole grid.

    The columns q and -q fold into the cosine column sqrt(2) Re t(q) and
    the sine column sqrt(2) Im t(q); the Nyquist column, which has no
    pair, keeps its real part.  Raises ContractError unless the table is
    real (``_check_real``), before any transform."""
    count, half = table.shape[1], grid.m // 2 + 1
    if table.shape[0] != grid.m or (count % 2 == 0 and count != grid.m):
        raise ContractError(f"a table of shape {table.shape} is not a band "
                            f"of the {grid.m}-point grid")
    _check_real(table, what)
    top = count // 2
    norm = _real_order(count)[1]
    values = np.empty((grid.m, count))
    np.multiply(table[:, :top + 1].real, norm[:top + 1],
                out=values[:, :top + 1])
    np.multiply(table[:, 1:count - top].imag, norm[top + 1:],
                out=values[:, top + 1:])
    coeffs = np.fft.rfft(values, axis=0)
    mat = np.empty((grid.m, count))
    np.multiply(coeffs.real, _real_order(grid.m)[1][:half, None] / grid.m,
                out=mat[:half])
    np.multiply(coeffs.imag[1:-1], -ROOT2 / grid.m, out=mat[half:])
    return mat


def _top_singular_value(mat):
    """Largest singular value of a real matrix with no more columns than
    rows, from the top eigenvalue of its Gram matrix."""
    return math.sqrt(max(float(np.linalg.eigvalsh(mat.T @ mat)[-1]), 0.0))


def _map_norm(mat, r, t):
    """Exact H^r -> H^t norm of the operator with the real coefficient
    matrix ``mat`` (``_real_matrix``): the largest singular value of
    <k>^t mat <k>^(-r)."""
    rows, cols = mat.shape
    return _top_singular_value(_real_order(rows)[0][:, None] ** t * mat
                               * _real_order(cols)[0] ** (-r))


def operator_bound_experiment(grid, symbol, m, r, s, lambdas):
    """Exact H^r -> H^{s-m} norm decay of op(b) for b in P^m, m <= 0.

    The norm sup ||op(b) u||_{s-m} / ||u||_r is computed per lambda: for
    an x-independent symbol by mode-wise maximization over one symbol
    table of the whole sweep, otherwise as the largest singular value of
    <k>^(s-m) M <k>^(-r) with M the real coefficient matrix of the
    ``psdo_matrix``, one symbol call per lambda.  It is fitted against
    tau = sqrt(lambda); the mapping property predicts a slope of -(r - s).
    """
    if m > 0:
        raise ConfigError("operator_bound_experiment needs order m <= 0")
    if not (r + m <= s <= r):
        raise ConfigError(f"need r + m <= s <= r, got r={r}, s={s}, m={m}")
    lambdas = check_sweep(lambdas)
    if symbol.x_support_radius == 0.0:
        ratios = _multiplier_norms(grid, symbol, lambdas, r, (s - m,))[0]
    else:
        ratios = [_map_norm(_real_matrix(grid, psdo_matrix(grid, symbol, lam),
                                         "op(b)"), r, s - m)
                  for lam in lambdas]
    return loglog_fit(np.sqrt(lambdas), ratios, MIN_R_SQUARED,
                      expected=-(r - s))


def ntd_bound_experiment(grid, s_values, lambdas):
    """Two-regime decay of the flat Neumann-to-Dirichlet multiplier.

    Computes the exact norm sup ||op(1/eta) u||_{H^s} / ||u||_{H^{1/2}}
    per lambda and s by mode-wise maximization over one symbol table of
    the sweep, and fits it against lambda.  The expected exponent is -1/2
    for s <= 1/2 and -(3/4 - s/2) for 1/2 <= s <= 3/2.
    """
    from .symbols import flat_ntd_symbol
    lambdas = check_sweep(lambdas)
    norms = _multiplier_norms(grid, flat_ntd_symbol(), lambdas, 0.5, s_values)
    fits = {}
    for s, ratios in zip(s_values, norms):
        expected = -0.5 if s <= 0.5 else -(0.75 - s / 2.0)
        fits[s] = loglog_fit(lambdas, ratios, MIN_R_SQUARED,
                             expected=expected)
    return fits


def default_composition_symbols():
    """Standard test pair for the composition calculus: a = phi(x) <xi>
    (order 1, not polynomial in xi, so the expansion does not terminate)
    against b = psi(x) / eta (order -1, x-dependent, so the remainder is
    not identically zero).  Analytic xi/x derivatives are returned
    alongside to keep the Taylor symbol finite-difference free.
    """
    from .symbols import make_symbol
    amp_a, amp_b = COMPOSE_AMPLITUDES

    def a_fn(xp, xip, lam):
        return (1.0 + amp_a * np.cos(xp)) * np.sqrt(1.0 + xip * xip)

    def da_fn(xp, xip, lam):
        return (1.0 + amp_a * np.cos(xp)) * xip / np.sqrt(1.0 + xip * xip)

    def b_fn(xp, xip, lam):
        return -(1.0 + amp_b * np.sin(xp)) / np.sqrt(xip * xip + lam)

    def dxb_fn(xp, xip, lam):
        return 1j * (amp_b * np.cos(xp) / np.sqrt(xip * xip + lam))

    a = make_symbol(a_fn, 1.0, kind="S")
    da = make_symbol(da_fn, 0.0, kind="S")
    b = make_symbol(b_fn, -1.0, kind="P")
    dxb = make_symbol(dxb_fn, -1.0, kind="P")
    return a, b, da, dxb


def check_compose_grid(grid):
    """``grid``, unless it has more than ``COMPOSE_MAX_POINTS`` points,
    the most that ``composition_error_experiment`` takes
    (ResourceLimitError)."""
    if grid.m > COMPOSE_MAX_POINTS:
        raise ResourceLimitError(
            f"composition experiment limited to {COMPOSE_MAX_POINTS} points")
    return grid


def composition_error_experiment(grid, a, b, da_dxi, dxb, m1, m2, r, lambdas):
    """Remainder decay of the crude composition calculus.

    For a in S^{m1} (0 < m1 < 2) and b in P^{m2} with m1 + m2 <= 0, computes
    the exact norm

        sup ||(op(a) op(b) - op(sum_{|alpha|<=[m1]} ...)) u||_t / ||u||_r

    with t = r + 1 - m1 + [m1] over fields u with |k| <= M/4, as the
    largest singular value of the weighted remainder matrix
    <k>^t (M_a M_b - M_c) <k>^(-r), and fits it against tau; the
    remainder bound predicts a slope of about -|m2|.  The H^{r-m1} norm of
    the plain composition M_a M_b is computed on the same band (expected
    slope -|m2| too).  M_s is the real coefficient matrix of op(s) (see
    the real basis in the module docstring): M_a on the whole grid, from
    one ``psdo_matrix``, and M_b, M_c on the band's real basis.

    c is the Taylor symbol a b + d_xi a D_x b (analytic derivatives, free
    of finite-difference noise).  M_a and the band tables of the
    parameter-free a and d_xi a are built once per sweep; b and D_x b are
    called once per lambda, on the band's columns only.  a, b and c must
    be real (s(x, -xi) = conj s(x, xi)); d_xi a and D_x b need not be.
    """
    check_compose_grid(grid)
    if not (0 < m1 < 2 and m1 + m2 <= 0):
        raise ConfigError("need 0 < m1 < 2 and m1 + m2 <= 0 (the expansion "
                          "stops at first order)")
    if a.class_tag.kind != "S" or da_dxi.class_tag.kind != "S":
        raise ConfigError("a and d_xi a must be parameter-free (class S)")
    terms = math.floor(m1)
    lambdas = check_sweep(lambdas)
    t_norm = r + 1 - m1 + terms
    # keep the dense quadrature clear of edge wrap-around
    band = np.abs(grid.freqs) <= grid.m // 4
    x = grid.x[:, None]
    k = grid.freqs.astype(float)[None, band]
    phase = grid.phase[:, band]
    ma = _real_matrix(grid, psdo_matrix(grid, a, lambdas[0]), "op(a)")
    a_band, da_band = a(x, k, lambdas[0]), da_dxi(x, k, lambdas[0])
    rem_ratios, comp_ratios = [], []
    for lam in lambdas:
        b_band = b(x, k, lam)
        c_band = a_band * b_band
        if terms == 1:
            c_band = c_band + da_band * dxb(x, k, lam)
        # symbol values on the left of the phase, as in ``psdo_matrix``
        mab = ma @ _real_matrix(grid, b_band * phase, "op(b)")
        rem = mab - _real_matrix(grid, c_band * phase, "op(c)")
        rem_ratios.append(_map_norm(rem, r, t_norm))
        comp_ratios.append(_map_norm(mab, r, r - m1))
    tau = np.sqrt(lambdas)
    return (loglog_fit(tau, rem_ratios, MIN_R_SQUARED, expected=-abs(m2)),
            loglog_fit(tau, comp_ratios, MIN_R_SQUARED, expected=-abs(m2)))
