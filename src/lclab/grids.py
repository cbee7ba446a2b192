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
interface and the mirror-Neumann closure on the outer boundary.

The grid contract.  ``_Grid`` owns everything that does not depend on
the geometry: restriction and extension, the weighted inner products,
the gamma0 and gamma1 traces, the harmonic and screened extensions and
the interior Neumann assembly.  A geometry (``Grid1D``, ``PolarGrid``)
supplies only:

  * the index sets ``interface_idx``, ``ext_idx`` (open exterior),
    ``int_idx`` (closed inclusion) and ``outer_idx`` (outer boundary);
  * the measures ``w_full``, ``pot_measure`` and ``gamma_weights``;
  * ``_links(interior)``: the (i, j, c) conductance arrays of the whole
    grid, or of the closed inclusion alone in the numbering of
    ``int_idx``, whose interface cells are halved;
  * ``_layer(side, k)`` and ``normal_step``: the nodes k steps off the
    interface along its normal and their spacing, from which the one
    gamma1 stencil of every consumer is built.

Each geometry also supplies ``mode_bands(lam)``, the coupled form
matrix as a batch of tridiagonal blocks for ``kernels.solve_tridiagonal``:
one block over all nodes on a ``Grid1D``, one radial block per angular
mode on a ``PolarGrid``.  The sparse stiffness ``_stiffness`` is
assembled from ``_links`` on first use only.  ``PolarGrid`` keeps its
coefficients per ring, ring 0 being the origin: ``ring_measure``,
``ring_potential`` (the potential measure), ``radial_conductance``
(ring m to m + 1) and ``angular_conductance``.  Its nodal measures, its
links and the per-angular-mode radial blocks of ``mode_bands`` are all
built from these four arrays.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy

from .errors import ContractError, DomainError
from .geometry import Domain1D, Domain2D
from .kernels import _Factorization, require_symmetric, solve_spd, DEFAULT_SOLVE_TOL


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
        return self.solve_raw(self.mass * np.asarray(f, dtype=float), tol=tol)

    def solve_raw(self, rhs, tol=DEFAULT_SOLVE_TOL):
        """Solve K u = rhs without the mass scaling (flux-type data)."""
        if self._fact is None:
            self._fact = _Factorization(self.matrix)
        return solve_spd(self.matrix, np.asarray(rhs, dtype=float),
                         tol=tol, cache=self._fact)

    def quadratic_form(self, u, v=None):
        v = u if v is None else v
        return float(np.asarray(u) @ (self.matrix @ np.asarray(v)))

    def export_matrix_market(self, path):
        """Write the form matrix K as a Matrix Market file (debugging aid)."""
        scipy.io.mmwrite(path, self.matrix)


def _assemble_from_links(n_nodes, i, j, c):
    """Stiffness from arrays of (i, j, coefficient) conductances."""
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
    return scipy.sparse.csr_matrix(matrix[np.ix_(keep, keep)])


class _Grid:
    """The operations shared by every geometry (see the module docstring)."""

    def _build_operators(self):
        """Data derived from the geometry alone; ends every ``__init__``."""
        self.w_ext = self.w_full[self.ext_idx]
        self._stiffness_matrix = None
        self._gamma1 = {}

    @property
    def _stiffness(self):
        """The sparse stiffness of the whole grid, assembled on first use:
        the disk's angular-mode consumers never need it."""
        if self._stiffness_matrix is None:
            self._stiffness_matrix = _assemble_from_links(self.n_nodes,
                                                          *self._links())
        return self._stiffness_matrix

    # -- index plumbing -----------------------------------------------------

    def restrict(self, field):
        field = np.asarray(field, dtype=float)
        if field.shape != (self.n_nodes,):
            raise ContractError("restrict expects a full-domain field")
        return field[self.ext_idx]

    def extend(self, ext_field):
        ext_field = np.asarray(ext_field, dtype=float)
        if ext_field.shape != self.ext_idx.shape:
            raise ContractError("extend expects an exterior field")
        out = np.zeros(self.n_nodes)
        out[self.ext_idx] = ext_field
        return out

    def embed_exterior(self, ext_field, interface_values=0.0):
        out = self.extend(ext_field)
        out[self.interface_idx] = interface_values
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
        if lam < 1:
            raise DomainError("interior screened operator expects lam >= 1")
        mat = _assemble_from_links(self.int_idx.size,
                                   *self._links(interior=True))
        w = self.pot_measure[self.int_idx]
        return SparseOperator((mat + scipy.sparse.diags(lam * w)).tocsr(), w)

    # -- traces ---------------------------------------------------------------

    def trace_gamma0(self, field, side="exterior"):
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

    def gamma1_matrix(self, side):
        """``gamma1_stencil`` as a sparse |Gamma| x n_nodes matrix, cached."""
        if side not in self._gamma1:
            coeffs, nodes = self.gamma1_stencil(side)
            m = nodes.shape[0]
            # each row keeps the stencil's order (interface node first), so
            # a product sums the three terms in the order of the formula
            self._gamma1[side] = scipy.sparse.csr_matrix(
                (np.tile(coeffs, m), nodes.ravel(),
                 np.arange(0, 3 * m + 1, 3)), shape=(m, self.n_nodes))
        return self._gamma1[side]

    def trace_gamma1(self, field, side):
        """Normal derivative on the interface, normal pointing into the
        inclusion, by the one-sided stencil on ``side``."""
        return self.gamma1_matrix(side) @ np.asarray(field, dtype=float)

    # -- boundary-data solves -------------------------------------------------

    def harmonic_extension(self, phi, outer="neumann", tol=DEFAULT_SOLVE_TOL):
        """Exterior field, harmonic, with gamma0 = phi on the interface.

        ``outer`` selects the condition on the outer boundary: "neumann"
        (matching the exterior operator domain) or "dirichlet".
        Returns a full-domain field (zero inside the inclusion).
        """
        phi = np.asarray(phi, dtype=float)
        lift = np.zeros(self.n_nodes)
        lift[self.interface_idx] = phi
        if outer == "neumann":
            keep = self.ext_idx
        elif outer == "dirichlet":
            keep = np.setdiff1d(self.ext_idx, self.outer_idx)
        else:
            raise DomainError(f"unknown outer condition {outer!r}")
        mat = _dirichlet_restrict(self._stiffness, keep)
        # eliminated interface values enter through the lifted right side
        rhs = -(self._stiffness @ lift)[keep]
        sol = solve_spd(mat, rhs, tol=tol)
        out = lift.copy()
        out[keep] = sol
        return out

    def screened_extension(self, lam, phi, tol=DEFAULT_SOLVE_TOL):
        """Interior field with (-Lap + lam) w = 0 and gamma1 w = phi.

        phi is Neumann data in the into-the-inclusion orientation; the
        weak form puts -phi (outward flux) on the interface nodes.
        Returns a full-domain field (zero outside the inclusion).
        """
        op = self.assemble_interior_neumann(lam)
        rhs = np.zeros(self.int_idx.size)
        rhs[np.searchsorted(self.int_idx, self.interface_idx)] = \
            -np.asarray(phi, dtype=float) * self.gamma_weights
        w = solve_spd(op.matrix, rhs, tol=tol)
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
        self.h = domain.length / self.n
        i1 = domain.a1 / self.h
        i2 = domain.a2 / self.h
        if abs(i1 - round(i1)) > 1e-9 or abs(i2 - round(i2)) > 1e-9:
            raise DomainError(
                f"inclusion endpoints must be grid nodes: a1/h={i1}, a2/h={i2}")
        self.i1, self.i2 = int(round(i1)), int(round(i2))
        if not (1 <= self.i1 < self.i2 <= self.n - 1):
            raise DomainError("each subregion needs at least one cell")
        self.n_nodes = self.n + 1
        self.x = np.linspace(0.0, domain.length, self.n_nodes)
        self.normal_step = self.h

        self.interface_idx = np.array([self.i1, self.i2])
        self.ext_idx = np.concatenate([np.arange(0, self.i1),
                                       np.arange(self.i2 + 1, self.n_nodes)])
        self.int_idx = np.arange(self.i1, self.i2 + 1)  # closed inclusion
        self.outer_idx = np.array([0, self.n])

        w = np.full(self.n_nodes, self.h)
        w[0] = w[-1] = self.h / 2
        self.w_full = w
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

    def mode_bands(self, lam=0.0):
        """The form matrix K + lam diag(pot_measure) as one tridiagonal
        block over the nodes, in the layout of ``PolarGrid.mode_bands``:
        (lower, diag, upper), each of shape (1, n_nodes)."""
        i, j, c = self._links()
        links = np.zeros(self.n_nodes)
        links[i] += c
        links[j] += c
        lower, upper = np.zeros((2, 1, self.n_nodes))
        lower[0, j] = -c
        upper[0, i] = -c
        return lower, (links + lam * self.pot_measure)[None], upper

    def _layer(self, side, k):
        """The two nodes k steps off the endpoints on ``side``, or None."""
        step = -k if side == "exterior" else k
        left, right = self.i1 + step, self.i2 - step
        if left < 0 or right > self.n or left > self.i2:
            return None
        return np.array([left, right])

    def assemble_coupled(self, lam):
        """-Laplacian + lam * indicator(inclusion), Neumann outer boundary."""
        if lam <= 0:
            raise DomainError("coupling constant must be positive "
                              "(lam = 0 keeps the constant null vector)")
        mat = self._stiffness + scipy.sparse.diags(lam * self.pot_measure)
        return SparseOperator(mat.tocsr(), self.w_full)

    def assemble_exterior(self):
        """Exterior -Laplacian: Dirichlet on the interface, Neumann outer."""
        mat = _dirichlet_restrict(self._stiffness, self.ext_idx)
        return SparseOperator(mat, self.w_ext)


class PolarGrid(_Grid):
    """Polar grid for a disk inclusion: the interface is the ring r = R.

    The exterior is the annulus R < r < R_out with R_out the inscribed
    outer radius of the rectangle (mirror-Neumann there), so the
    quantitative 2D experiments see an interface-exact, second-order
    discretization.  Requires a pure disk (no radius profile).  Node 0 is
    the origin; ring k = 1 .. ntot holds nodes 1 + (k - 1) ntheta + j.
    The grid is rotation invariant, so its operators split over the
    angular modes ``modes`` = 0 .. ntheta // 2 (see ``mode_bands``).
    """

    # __init__ and assemble_* stay here: bench/tracing.py wraps them from vars()
    dim = 2

    def __init__(self, domain: Domain2D, nr_ext: int, ntheta: int):
        if domain.radius_profile is not None:
            raise DomainError("polar mode requires a pure disk inclusion")
        self.domain = domain
        self.r_out = domain.inscribed_outer_radius
        self.r_inc = float(domain.radius)
        self.hr = (self.r_out - self.r_inc) / nr_ext
        ratio = self.r_inc / self.hr
        if abs(ratio - round(ratio)) > 1e-9:
            raise DomainError(
                "interface must be a grid ring: R / hr must be an integer "
                f"(got {ratio})")
        self.nr_int = int(round(ratio))
        self.nr_ext = int(nr_ext)
        self.ntheta = int(ntheta)
        if self.ntheta < 8:
            raise DomainError("need at least 8 angular nodes")
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
        self.outer_idx = np.arange(self.n_nodes - self.ntheta, self.n_nodes)
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
        self.ring_measure = measure
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

        self.w_full = np.concatenate([measure[:1], np.repeat(measure[1:], nth)])
        self.pot_measure = np.concatenate(
            [potential[:1], np.repeat(potential[1:], nth)])
        self.gamma_weights = np.full(nth, self.r_inc * htheta)

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

    def mode_bands(self, lam=0.0):
        """The radial systems of the angular modes k = 0 .. ntheta // 2.

        In the unitary angular Fourier basis the form matrix K + lam
        diag(pot_measure) splits into one real tridiagonal block per
        mode over the rings 0 (the origin) .. ntot; modes k and -k share
        a block (``mode_multiplicity``).  Ring m carries the angular
        links as 2 (1 - cos k htheta) c_ang[m] on its diagonal.  Only
        mode 0 sees the origin, through -c_spoke sqrt(ntheta); in every
        other block the origin row is decoupled, so zero data leave it
        zero.  Returns the bands (lower, diag, upper), each of shape
        (modes, ntot + 1), as ``kernels.solve_tridiagonal`` reads them.
        """
        c_rad, nth = self.radial_conductance, self.ntheta
        links = np.zeros(self.ntot + 1)
        links[0] = nth * c_rad[0]
        links[1:] += c_rad
        links[1:-1] += c_rad[1:]
        angular = 2.0 * (1.0 - np.cos(self.modes * self.htheta))
        diag = (links + angular[:, None] * self.angular_conductance
                + lam * self.ring_potential)
        off = np.tile(-c_rad, (self.modes.size, 1))
        off[0, 0] *= np.sqrt(nth)
        off[1:, 0] = 0.0
        lower = np.zeros_like(diag)
        upper = np.zeros_like(diag)
        lower[:, 1:] = off
        upper[:, :-1] = off
        return lower, diag, upper

    def _layer(self, side, k):
        """The ring k steps off the interface on ``side``, or None."""
        ring = self.nr_int + k if side == "exterior" else self.nr_int - k
        if not 1 <= ring <= self.ntot:
            return None
        return self.interface_idx + (ring - self.nr_int) * self.ntheta

    def assemble_coupled(self, lam):
        """-Laplacian + lam * indicator(inclusion), Neumann outer boundary."""
        if lam <= 0:
            raise DomainError("coupling constant must be positive "
                              "(lam = 0 keeps the constant null vector)")
        mat = self._stiffness + scipy.sparse.diags(lam * self.pot_measure)
        return SparseOperator(mat.tocsr(), self.w_full)

    def assemble_exterior(self):
        """Exterior -Laplacian: Dirichlet on the interface, Neumann outer."""
        mat = _dirichlet_restrict(self._stiffness, self.ext_idx)
        return SparseOperator(mat, self.w_ext)


def transmission_solve(grid, lam, f, coupled=None, tol=DEFAULT_SOLVE_TOL,
                       check=False):
    """Solve the coupled problem (-Lap + lam 1_inclusion) u = f, Neumann outer.

    With ``check=True`` the interface transmission conditions (equal
    traces, equal normal derivatives from both sides) are measured and
    returned alongside the field.
    """
    op = coupled if coupled is not None else grid.assemble_coupled(lam)
    u = op.solve(np.asarray(f, dtype=float), tol=tol)
    if not check:
        return u
    g0_gap = 0.0  # traces live on shared nodes: equality is structural
    g1_ext = grid.trace_gamma1(u, "exterior")
    g1_int = grid.trace_gamma1(u, "interior")
    scale = max(float(np.abs(g1_ext).max()), 1e-300)
    g1_gap = float(np.abs(g1_ext - g1_int).max()) / scale
    return u, {"gamma0_gap": g0_gap, "gamma1_gap": g1_gap}
