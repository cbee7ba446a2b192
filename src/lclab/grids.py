"""Finite-difference grids and the operators of the transmission problem.

Assemblies are form-based: a symmetric stiffness matrix K plus a diagonal
vector of cell measures m, representing the operator u -> (K u) / m and
the solve K u = m f.  This keeps every matrix exactly symmetric while the
grid (1D interval or 2D polar) may carry nonuniform cell volumes; inner
products are the weighted sums matching the cell measures.

Interface conventions, fixed here and used by every consumer:

  * interface nodes sit exactly on the inclusion boundary (grid-aligned);
  * the trace normal points from the exterior region INTO the inclusion
    on both sides, so the transmission conditions read as equalities and
    the interface Neumann-to-Dirichlet map has negative diagonal;
  * the potential term carries the exact measure of (dual cell within
    the inclusion): full cells inside, half cells on the interface.

The (closed) exterior solves use homogeneous Dirichlet data on the
interface and the mirror-Neumann closure on the outer boundary: the
interval's ends, or the outer circle r = R_out of the disk's annulus.

The grid contract.  ``_Grid`` owns everything that does not depend on
the geometry: restriction and extension, the weighted inner products,
the gamma0 and gamma1 traces, the band solves, the screened extension
and the interior Neumann assembly.  A geometry (``Grid1D``,
``PolarGrid``) supplies only:

  * the index sets ``interface_idx``, ``ext_idx`` (open exterior) and
    ``int_idx`` (closed inclusion);
  * the measures ``w_full``, ``pot_measure`` and ``gamma_weights``
    (``w_ext`` is cut from ``w_full`` on first use; a ``PolarGrid``
    builds its nodal ``w_full`` and ``pot_measure`` on first use too);
  * ``_links(interior)``: the (i, j, c) conductance arrays of the whole
    grid, or of the closed inclusion alone in the numbering of
    ``int_idx``, whose interface cells are halved: each side owns half;
  * ``_layer(side, k)`` and ``normal_step``: the nodes k steps off the
    interface along its normal and their spacing, from which the one
    gamma1 stencil of every consumer is built;
  * ``_band_parts()``, the lam-free parts of the coupled form matrix as
    a batch of tridiagonal blocks for ``kernels.solve_tridiagonal`` (one
    block over all nodes on a ``Grid1D``, one radial block per angular
    mode on a ``PolarGrid``), and ``to_modes`` / ``from_modes``, which
    carry full fields to the blocks and back (the identity on a
    ``Grid1D``, a unitary rfft per ring on a ``PolarGrid``);
  * the interface layout in block coordinates, the same in every block:
    ``ext_rows``, the exterior rows; ``gamma_rows``, one row of three
    per interface row of a block (two on a ``Grid1D``, one on a
    ``PolarGrid``): the interface row and the two exterior layers behind
    it, the rows that the exterior gamma1 stencil weighs; ``row_measure``,
    the cell measure of every row; and ``mode_multiplicity``, how many
    angular modes share each block (``[1]`` on a ``Grid1D``).  Block 0
    must carry ||E_lam||, topping every pencil (``counting.difference_norms``).

The band contract.  lam touches only the potential, so the lam-free
parts (the links, the disk's angular term, the lower and upper bands)
are built once per grid and returned read-only: writing to them raises
``ValueError``.  ``mode_bands(lam, blocks)`` forms only ``diag = base +
lam * potential`` of the blocks asked for per call, a new array.

The band solves are built on these: ``solve_coupled`` and
``apply_coupled`` on ``mode_bands``, ``solve_exterior`` on
``exterior_bands``, the same blocks with Dirichlet rows on Gamma.  Every
experiment solves on the blocks, and every consumer finds Gamma in them
through the layout fields alone.  The sparse assemblies
(``SparseOperator`` from ``assemble_*``, the stiffness ``_stiffness``
assembled from ``_links`` on first use) serve the tests as oracles, the
demos and ``--dump-matrices``; ``SparseOperator.solve`` takes values f
(flux data divided by ``mass``) and solves K u = m f.  ``PolarGrid``
keeps its coefficients per ring, ring 0 being the origin:
``row_measure``, ``ring_potential`` (the potential measure),
``radial_conductance`` (ring m to m + 1) and ``angular_conductance``.
Its nodal measures, its links and the per-angular-mode radial blocks of
``mode_bands`` are all built from these four arrays.
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ContractError, DomainError
from .geometry import Domain1D, Domain2D
from .kernels import (DEFAULT_SOLVE_TOL, _Factorization, check_coupling,
                      require_symmetric, solve_spd, solve_tridiagonal,
                      tridiagonal_apply)


@dataclass
class SparseOperator:
    """Symmetric form matrix + cell measures; acts as m^{-1} K on values."""

    matrix: "scipy.sparse.csr_matrix"
    mass: np.ndarray
    _fact: _Factorization | None = field(default=None, repr=False)

    def __post_init__(self):
        require_symmetric(self.matrix)
        if np.any(self.mass <= 0):
            raise ContractError("cell measures must be positive")

    @property
    def dim(self):
        return self.matrix.shape[0]

    def apply(self, u):
        """Operator action in function values: (K u) / m."""
        return (self.matrix @ np.asarray(u, dtype=float)) / self.mass

    def solve(self, f, tol=DEFAULT_SOLVE_TOL):
        """Solve (m^{-1} K) u = f, i.e. K u = m * f."""
        if self._fact is None:
            self._fact = _Factorization(self.matrix)
        return solve_spd(self.matrix, self.mass * np.asarray(f, dtype=float),
                         tol=tol, cache=self._fact)

    def quadratic_form(self, u):
        return float(np.asarray(u) @ (self.matrix @ np.asarray(u)))

    def export_matrix_market(self, path):
        """Write the form matrix K as a Matrix Market file (debugging aid)."""
        import scipy.io
        scipy.io.mmwrite(path, self.matrix)


def _assemble_from_links(n_nodes, i, j, c):
    """Stiffness from arrays of (i, j, coefficient) conductances."""
    import scipy.sparse
    rows = np.stack([i, j, i, j], axis=1).ravel()
    cols = np.stack([i, j, j, i], axis=1).ravel()
    vals = np.stack([c, c, -c, -c], axis=1).ravel()
    mat = scipy.sparse.coo_matrix((vals, (rows, cols)),
                                  shape=(n_nodes, n_nodes))
    return mat.tocsr()


def _dirichlet_restrict(matrix, keep):
    """Sub-matrix on ``keep``: Dirichlet elimination of the other nodes.

    The form-based diagonal already counts every incident link, so the
    plain submatrix is the eliminated system.
    """
    import scipy.sparse
    return scipy.sparse.csr_matrix(matrix[np.ix_(keep, keep)])


def _require_coupling(lam):
    if lam <= 0:
        raise DomainError("coupling constant must be positive "
                          "(lam = 0 keeps the constant null vector)")


class _Grid:
    """The operations shared by every geometry (see the module docstring)."""

    def _build_operators(self):
        """Data derived from the geometry alone; ends every ``__init__``.
        Raises unless both sides have the gamma1 stencil's two layers."""
        for side in ("exterior", "interior"):
            self.gamma1_stencil(side)
        *self._bands, self._band_potential = self._band_parts()
        for band in self._bands:
            band.flags.writeable = False

    @cached_property
    def w_ext(self):
        """The cell measures of the open exterior, taken on first use."""
        return self.w_full[self.ext_idx]

    @cached_property
    def _stiffness(self):
        """The sparse stiffness of the whole grid, assembled on first use:
        the disk's angular-mode consumers never need it."""
        return _assemble_from_links(self.n_nodes, *self._links())

    # -- index plumbing -----------------------------------------------------

    def restrict(self, field):
        """Exterior values of a full field; leading axes batch."""
        field = np.asarray(field, dtype=float)
        if field.shape[-1:] != (self.n_nodes,):
            raise ContractError("restrict expects a full-domain field")
        return field[..., self.ext_idx]

    def extend(self, ext_field):
        """Full field, zero off the exterior; leading axes batch."""
        ext_field = np.asarray(ext_field, dtype=float)
        if ext_field.shape[-1:] != self.ext_idx.shape:
            raise ContractError("extend expects an exterior field")
        out = np.zeros(ext_field.shape[:-1] + (self.n_nodes,))
        out[..., self.ext_idx] = ext_field
        return out

    def inner_full(self, f, g):
        return float(np.sum(self.w_full * np.asarray(f) * np.asarray(g)))

    def inner_ext(self, f, g):
        return float(np.sum(self.w_ext * np.asarray(f) * np.asarray(g)))

    def interface_pairing(self, phi, psi):
        return float(np.sum(self.gamma_weights * np.asarray(phi) * np.asarray(psi)))

    # -- assemblies ----------------------------------------------------------

    def assemble_interior_neumann(self, lam):
        """Interior -Laplacian + lam on the inclusion, free interface."""
        check_coupling(lam)
        import scipy.sparse
        mat = _assemble_from_links(self.int_idx.size,
                                   *self._links(interior=True))
        w = self.pot_measure[self.int_idx]
        return SparseOperator((mat + scipy.sparse.diags(lam * w)).tocsr(), w)

    # -- traces ---------------------------------------------------------------

    def trace_gamma0(self, field):
        """Values on the interface nodes, which both sides share."""
        return np.asarray(field, dtype=float)[self.interface_idx]

    def gamma1_stencil(self, side):
        """The gamma1 trace on ``side`` as (coeffs, nodes): the one-sided
        stencil (3, -4, 1) / (2 h), signed for the normal pointing into the
        inclusion, and the |Gamma| x 3 nodes it weighs, each row being an
        interface node and the two node layers behind it."""
        if side not in ("exterior", "interior"):
            raise DomainError(f"side must be interior or exterior, got {side}")
        layers = [self._layer(side, k) for k in range(3)]
        if any(nodes is None for nodes in layers):
            raise DomainError("one-sided stencils need two layers per side")
        # exterior layers run against the normal, interior ones along it
        sign = 1.0 if side == "exterior" else -1.0
        return (np.array([3.0, -4.0, 1.0]) * sign / (2 * self.normal_step),
                np.stack(layers, axis=1))

    def trace_gamma1(self, field, side):
        """Normal derivative on the interface, normal pointing into the
        inclusion, by the one-sided stencil on ``side``; leading axes of
        ``field`` batch.  The terms are summed in the stencil's order."""
        coeffs, nodes = self.gamma1_stencil(side)
        terms = np.asarray(field, dtype=float)[..., nodes] * coeffs
        return terms[..., 0] + terms[..., 1] + terms[..., 2]

    # -- band solves ----------------------------------------------------------

    def mode_bands(self, lam=0.0, blocks=None):
        """The form matrix K + lam diag(pot_measure) as the blocks (lower,
        diag, upper) of ``_band_parts``, or only ``blocks`` (band contract)."""
        lower, base, upper = (self._bands if blocks is None else
                              (band[blocks] for band in self._bands))
        return lower, base + lam * self._band_potential, upper

    def exterior_bands(self):
        """The exterior form matrix as blocks: the rows ``ext_rows`` of
        ``mode_bands`` with Dirichlet data on Gamma, so the links to the
        interface are cut and the exterior pieces on either side of it
        decouple."""
        ext = self.ext_rows
        lower, diag, upper = (band[:, ext] for band in self.mode_bands())
        cut = np.flatnonzero(np.diff(ext) > 1)
        upper[:, cut] = 0.0
        lower[:, cut + 1] = 0.0
        return lower, diag, upper

    def solve_coupled(self, lam, f):
        """Solve the coupled problem (K + lam diag(pot_measure)) u = m f
        for full fields f (leading axes batch), block by block."""
        _require_coupling(lam)
        rhs = self.to_modes(self.w_full * np.asarray(f, dtype=float))
        return self.from_modes(
            solve_tridiagonal(*self.mode_bands(lam), rhs))

    def apply_coupled(self, lam, u):
        """The coupled operator (K + lam diag(pot_measure)) u / m on full
        fields, by band products block by block."""
        coeffs = tridiagonal_apply(*self.mode_bands(lam), self.to_modes(u))
        return self.from_modes(coeffs) / self.w_full

    def solve_exterior(self, f_ext):
        """Solve the exterior problem K_ext v = m f, Dirichlet on Gamma and
        Neumann outer, for exterior fields f (leading axes batch)."""
        full = self.w_full * self.extend(f_ext)
        coeffs = self.to_modes(full)
        coeffs[..., self.ext_rows] = solve_tridiagonal(
            *self.exterior_bands(), coeffs[..., self.ext_rows])
        return self.restrict(self.from_modes(coeffs))

    # -- boundary-data solves -------------------------------------------------

    def screened_extension(self, lam, phi):
        """Interior field with (-Lap + lam) w = 0 and gamma1 w = phi.

        phi is Neumann data in the into-the-inclusion orientation; the
        weak form puts -phi (outward flux) on the interface nodes.
        Returns a full-domain field (zero outside the inclusion).
        """
        op = self.assemble_interior_neumann(lam)
        rhs = np.zeros(self.int_idx.size)
        rhs[np.searchsorted(self.int_idx, self.interface_idx)] = \
            -np.asarray(phi, dtype=float) * self.gamma_weights
        w = solve_spd(op.matrix, rhs)
        out = np.zeros(self.n_nodes)
        out[self.int_idx] = w
        return out


class Grid1D(_Grid):
    """Uniform nodes on [0, L] with the inclusion endpoints on the grid."""

    # __init__ and assemble_* stay here: bench/tracing.py wraps them from vars()
    dim = 1

    def __init__(self, domain: Domain1D, n_cells: int):
        self.domain = domain
        self.n = int(n_cells)
        i1, i2 = (a * self.n / domain.length for a in (domain.a1, domain.a2))
        if abs(i1 - round(i1)) > 1e-9 or abs(i2 - round(i2)) > 1e-9:
            raise DomainError(
                f"inclusion endpoints must land on grid nodes ({self.n} "
                f"cells): a1/h={i1}, a2/h={i2}")
        self.i1, self.i2 = int(round(i1)), int(round(i2))
        if not (1 <= self.i1 < self.i2 <= self.n - 1):
            raise DomainError("each subregion needs at least one cell")
        self.h = domain.length / self.n
        self.n_nodes = self.n + 1
        self.x = np.linspace(0.0, domain.length, self.n_nodes)
        self.normal_step = self.h

        self.interface_idx = np.array([self.i1, self.i2])
        self.ext_idx = np.concatenate([np.arange(0, self.i1),
                                       np.arange(self.i2 + 1, self.n_nodes)])
        self.int_idx = np.arange(self.i1, self.i2 + 1)  # closed inclusion
        self.ext_rows = self.ext_idx
        # the endpoints, each with the two nodes behind it, left and right
        self.gamma_rows = (self.interface_idx[:, None]
                           + np.outer([-1, 1], np.arange(3)))
        self.mode_multiplicity = np.ones(1, dtype=int)

        w = np.full(self.n_nodes, self.h)
        w[0] = w[-1] = self.h / 2
        self.w_full = self.row_measure = w
        # dual-cell measure inside the open inclusion (exact, grid-aligned)
        pot = np.zeros(self.n_nodes)
        pot[self.i1 + 1:self.i2] = self.h
        pot[self.i1] = pot[self.i2] = self.h / 2
        self.pot_measure = pot
        self.gamma_weights = np.ones(2)
        self._build_operators()

    def _links(self, interior=False):
        """One link of conductance 1/h per cell, left to right."""
        cells = self.i2 - self.i1 if interior else self.n
        i = np.arange(cells)
        return i, i + 1, np.full(cells, 1.0 / self.h)

    def _band_parts(self):
        """The form matrix as one tridiagonal block over the nodes, in the
        layout of ``PolarGrid._band_parts``: (lower, base, upper), each of
        shape (1, n_nodes), with base the stiffness diagonal, and the
        potential ``pot_measure``."""
        i, j, c = self._links()
        links = np.zeros(self.n_nodes)
        links[i] += c
        links[j] += c
        lower, upper = np.zeros((2, 1, self.n_nodes))
        lower[0, j] = -c
        upper[0, i] = -c
        return lower, links[None], upper, self.pot_measure

    def to_modes(self, field):
        """A full field (leading axes batch) in the layout of the one block
        of ``mode_bands``: a copy of the nodal values."""
        return np.array(field, dtype=float)[..., None, :]

    def from_modes(self, coeffs):
        """Inverse of ``to_modes``."""
        return coeffs[..., 0, :]

    def _layer(self, side, k):
        """The two nodes k steps off the endpoints on ``side``, or None."""
        step = -k if side == "exterior" else k
        left, right = self.i1 + step, self.i2 - step
        if left < 0 or right > self.n or left > self.i2:
            return None
        return np.array([left, right])

    def assemble_coupled(self, lam):
        """-Laplacian + lam * indicator(inclusion), Neumann outer boundary."""
        _require_coupling(lam)
        import scipy.sparse
        mat = self._stiffness + scipy.sparse.diags(lam * self.pot_measure)
        return SparseOperator(mat.tocsr(), self.w_full)

    def assemble_exterior(self):
        """Exterior -Laplacian: Dirichlet on the interface, Neumann outer."""
        mat = _dirichlet_restrict(self._stiffness, self.ext_idx)
        return SparseOperator(mat, self.w_ext)


class PolarGrid(_Grid):
    """Polar grid on the disk r < R_out of a ``Domain2D``: the interface
    is the ring r = R and the outer boundary the ring r = R_out.

    The exterior is the annulus R < r < R_out (mirror-Neumann at R_out),
    so the quantitative 2D experiments see an interface-exact,
    second-order discretization.  Node 0 is the origin; ring k = 1 ..
    ntot holds nodes 1 + (k - 1) ntheta + j.  The grid is rotation
    invariant, so its operators split over the angular modes ``modes`` =
    0 .. ntheta // 2 (see ``mode_bands``).
    """

    # __init__ and assemble_* stay here: bench/tracing.py wraps them from vars()
    dim = 2

    def __init__(self, domain: Domain2D, nr_ext: int, ntheta: int):
        self.domain = domain
        self.r_out = float(domain.outer_radius)
        self.r_inc = float(domain.radius)
        self.nr_ext, self.ntheta = int(nr_ext), int(ntheta)
        size = f"({self.nr_ext} x {self.ntheta} disk grid)"
        ratio = self.r_inc * self.nr_ext / (self.r_out - self.r_inc)  # R / hr
        if abs(ratio - round(ratio)) > 1e-9:
            raise DomainError(f"interface must be a grid ring {size}: "
                              f"R / hr must be an integer (got {ratio})")
        self.nr_int = int(round(ratio))
        if self.nr_ext < 1 or self.ntheta < 8:
            raise DomainError("need at least one exterior ring and 8 angular "
                              f"nodes {size}")
        self.hr = (self.r_out - self.r_inc) / self.nr_ext
        self.ntot = self.nr_int + self.nr_ext
        self.htheta = 2 * np.pi / self.ntheta
        self.theta = np.arange(self.ntheta) * self.htheta
        self.n_nodes = 1 + self.ntot * self.ntheta
        self.radii = self.hr * np.arange(1, self.ntot + 1)
        self.normal_step = self.hr

        first = 1 + (self.nr_int - 1) * self.ntheta  # interface ring start
        self.interface_idx = np.arange(first, first + self.ntheta)
        self.ext_idx = np.arange(first + self.ntheta, self.n_nodes)
        self.int_idx = np.arange(first + self.ntheta)
        self.ext_rows = np.arange(self.nr_int + 1, self.ntot + 1)
        self.gamma_rows = self.nr_int + np.arange(3)[None, :]
        self.modes = np.arange(self.ntheta // 2 + 1)
        self.mode_multiplicity = np.where(
            (self.modes == 0) | (2 * self.modes == self.ntheta), 1, 2)
        self._build_rings()
        self._build_operators()

    def _build_rings(self):
        """Per-ring coefficients, ring 0 being the origin; every node of a
        ring shares them, so the nodal arrays and the links repeat them."""
        hr, htheta, nth = self.hr, self.htheta, self.ntheta

        def half_cell(r):
            """Annular cell between r - hr/2 and r."""
            return (r ** 2 - (r - hr / 2) ** 2) / 2.0 * htheta

        ring = np.arange(1, self.ntot + 1)
        measure = np.empty(self.ntot + 1)
        measure[0] = np.pi * hr ** 2 / 4.0
        measure[1:] = self.radii * hr * htheta
        measure[-1] = half_cell(self.ntot * hr)
        self.row_measure = measure
        potential = np.zeros(self.ntot + 1)
        potential[:self.nr_int] = measure[:self.nr_int]
        potential[self.nr_int] = half_cell(self.r_inc)
        self.ring_potential = potential
        # link ring m -> m + 1; ring 0 -> 1 are the origin's spokes
        self.radial_conductance = np.concatenate(
            [[htheta / 2.0], (ring[:-1] + 0.5) * hr * htheta / hr])
        # links around ring m; the outer ring's cells have half width
        extent = np.full(self.ntot, hr)
        extent[-1] = hr / 2.0
        self.angular_conductance = np.concatenate(
            [[0.0], extent / (ring * hr * htheta)])
        self.gamma_weights = np.full(nth, self.r_inc * htheta)

    def _nodal(self, per_ring):
        """A per-ring array repeated over the nodes of each ring."""
        return np.concatenate([per_ring[:1],
                               np.repeat(per_ring[1:], self.ntheta)])

    # the nodal measures, built on first use: the band route reads the
    # per-ring ``row_measure`` and ``ring_potential`` instead
    @cached_property
    def w_full(self):
        return self._nodal(self.row_measure)

    @cached_property
    def pot_measure(self):
        return self._nodal(self.ring_potential)

    def _links(self, interior=False):
        """Origin spokes, then radial links, then angular links, ring by ring.

        The last ring kept (the outer boundary, or the interface for the
        inclusion alone) has angular cells of half width.  The inclusion's
        nodes are numbered first, so its local numbering is the global one.
        """
        rings = self.nr_int if interior else self.ntot
        nth = self.ntheta
        start = 1 + np.arange(rings) * nth
        t = np.arange(nth)
        radial = (start[:-1, None] + t).ravel()
        around = (start[:, None] + t).ravel()
        angular = self.angular_conductance[1:rings + 1].copy()
        if interior:
            angular[-1] /= 2.0  # the interface ring's inner half cells
        i = np.concatenate([np.zeros(nth, dtype=int), radial, around])
        j = np.concatenate([start[0] + t, radial + nth,
                            (start[:, None] + (t + 1) % nth).ravel()])
        c = np.repeat(np.concatenate([self.radial_conductance[:rings], angular]),
                      nth)
        return i, j, c

    def _band_parts(self):
        """The radial systems of the angular modes k = 0 .. ntheta // 2.

        In the unitary angular Fourier basis the form matrix K + lam
        diag(pot_measure) splits into one real tridiagonal block per
        mode over the rings 0 (the origin) .. ntot; modes k and -k share
        a block (``mode_multiplicity``).  Ring m carries the angular
        links as 2 (1 - cos k htheta) c_ang[m] on its diagonal.  Only
        mode 0 sees the origin, through -c_spoke sqrt(ntheta); in every
        other block the origin row is decoupled, so zero data leave it
        zero.  Returns the bands (lower, base, upper), each of shape
        (modes, ntot + 1), as ``kernels.solve_tridiagonal`` reads them,
        with base the diagonal at lam = 0, and the potential
        ``ring_potential``.
        """
        c_rad, nth = self.radial_conductance, self.ntheta
        links = np.zeros(self.ntot + 1)
        links[0] = nth * c_rad[0]
        links[1:] += c_rad
        links[1:-1] += c_rad[1:]
        angular = 2.0 * (1.0 - np.cos(self.modes * self.htheta))
        base = links + angular[:, None] * self.angular_conductance
        off = np.tile(-c_rad, (self.modes.size, 1))
        off[0, 0] *= np.sqrt(nth)
        off[1:, 0] = 0.0
        lower = np.zeros_like(base)
        upper = np.zeros_like(base)
        lower[:, 1:] = off
        upper[:, :-1] = off
        return lower, base, upper, self.ring_potential

    def to_modes(self, field):
        """A full field (leading axes batch) in the unitary angular modes
        of ``mode_bands``: the orthonormal rfft of every ring, with the
        origin node in mode 0; shape (..., modes, ntot + 1), complex."""
        field = np.asarray(field, dtype=float)
        batch = field.shape[:-1]
        rings = field[..., 1:].reshape(batch + (self.ntot, self.ntheta))
        coeffs = np.zeros(batch + (self.modes.size, self.ntot + 1),
                          dtype=complex)
        coeffs[..., 1:] = np.swapaxes(
            np.fft.rfft(rings, axis=-1, norm="ortho"), -1, -2)
        coeffs[..., 0, 0] = field[..., 0]
        return coeffs

    def from_modes(self, coeffs):
        """Inverse of ``to_modes``, back to real nodal values."""
        rings = np.fft.irfft(np.swapaxes(coeffs[..., 1:], -1, -2),
                             n=self.ntheta, axis=-1, norm="ortho")
        return np.concatenate(
            [coeffs[..., 0, :1].real,
             rings.reshape(coeffs.shape[:-2] + (-1,))], axis=-1)

    def _layer(self, side, k):
        """The ring k steps off the interface on ``side``, or None."""
        ring = self.nr_int + k if side == "exterior" else self.nr_int - k
        if not 1 <= ring <= self.ntot:
            return None
        return self.interface_idx + (ring - self.nr_int) * self.ntheta

    def assemble_coupled(self, lam):
        """-Laplacian + lam * indicator(inclusion), Neumann outer boundary."""
        _require_coupling(lam)
        import scipy.sparse
        mat = self._stiffness + scipy.sparse.diags(lam * self.pot_measure)
        return SparseOperator(mat.tocsr(), self.w_full)

    def assemble_exterior(self):
        """Exterior -Laplacian: Dirichlet on the interface, Neumann outer."""
        mat = _dirichlet_restrict(self._stiffness, self.ext_idx)
        return SparseOperator(mat, self.w_ext)

